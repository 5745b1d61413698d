"""The package's API declaration: each public name is declared once, by its module."""

import pytest

import catscope
from catscope import fock, gates, kaleidoscope, modexp

MODULES = (fock, modexp, kaleidoscope, gates)

PUBLIC_API = [
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
    "__version__",
]


def test_package_all_is_the_public_api_in_order():
    assert catscope.__all__ == PUBLIC_API


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_names_are_defined_there_and_reexported(module):
    for name in module.__all__:
        value = getattr(module, name)
        if name != "FockVector":  # an alias of np.ndarray, defined by numpy
            assert value.__module__ == module.__name__, name
        assert getattr(catscope, name) is value, name


def test_no_name_is_declared_by_two_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
