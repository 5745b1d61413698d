"""Orthonormal qudit cat-state bases from rotated coherent states.

The package builds, for any n and coherent amplitude alpha, the n mutually
orthogonal cat states obtained by Fourier-mixing the coherent states at the
vertices of a regular n-gon, and provides the supporting numerics: truncated
Fock-space coherent states and ladder operators, the mod-n exponential
special functions used for normalization, and the clock/shift gate algebra
tied to the same Fourier matrix.
"""

__version__ = "0.1.0"

from .fock import (
    FockVector,
    annihilate,
    coherent_overlap_closed,
    coherent_state,
    create,
    creation_dropped_weight,
    inner_product,
    rotated_overlap,
    truncation_dim,
)
from .gates import (
    clock_matrix,
    shift_matrix,
    unitarity_residual,
    verify_clock_shift_decomposition,
    weyl_commutation,
    weyl_phase_root_residual,
)
from .kaleidoscope import (
    ConditioningWarning,
    DegenerateAlpha,
    GramReport,
    KaleidoscopeBasis,
    cat_states_raw,
    dft_matrix,
    gram,
    kaleidoscope_basis,
    normalization_constants,
    raw_state_norm_sq_closed,
    roots_lemma_sum,
    rotated_coherent_states,
)
from .modexp import (
    ModExpSpec,
    SeriesCapError,
    derivative_residue,
    modexp_all,
    modexp_roots,
    modexp_series,
)

__all__ = [
    "FockVector",
    "annihilate",
    "coherent_overlap_closed",
    "coherent_state",
    "create",
    "creation_dropped_weight",
    "inner_product",
    "rotated_overlap",
    "truncation_dim",
    "ModExpSpec",
    "SeriesCapError",
    "derivative_residue",
    "modexp_all",
    "modexp_roots",
    "modexp_series",
    "ConditioningWarning",
    "DegenerateAlpha",
    "GramReport",
    "KaleidoscopeBasis",
    "cat_states_raw",
    "dft_matrix",
    "gram",
    "kaleidoscope_basis",
    "normalization_constants",
    "raw_state_norm_sq_closed",
    "roots_lemma_sum",
    "rotated_coherent_states",
    "clock_matrix",
    "shift_matrix",
    "unitarity_residual",
    "verify_clock_shift_decomposition",
    "weyl_commutation",
    "weyl_phase_root_residual",
    "__version__",
]
