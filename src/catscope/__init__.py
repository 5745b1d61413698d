"""Orthonormal qudit cat-state bases from rotated coherent states.

The package builds, for any n and coherent amplitude alpha, the n mutually
orthogonal cat states obtained by Fourier-mixing the coherent states at the
vertices of a regular n-gon, and provides the supporting numerics: truncated
Fock-space coherent states and ladder operators, the mod-n exponential
special functions used for normalization, and the clock/shift gate algebra
tied to the same Fourier matrix.
"""

__version__ = "0.1.0"

from . import fock, gates, kaleidoscope, modexp
from .fock import *
from .modexp import *
from .kaleidoscope import *
from .gates import *

__all__ = [*fock.__all__, *modexp.__all__, *kaleidoscope.__all__, *gates.__all__,
           "__version__"]
