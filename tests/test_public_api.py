"""The package re-exports what the CLI runs; code only the tests call lives
in ``tests/physics.py`` and ``tests/oracles.py``."""

import types

import bellscope
from bellscope import catprep, erasure, mk, numerics, rootbin, signbin

REEXPORTED = (
    "AngleSettings",
    "CoherentSuperposition",
    "FockCorrelatedState",
    "IntegrationError",
    "RootBinningSpec",
    "bell_factor_root",
    "bell_factor_sign",
    "bs_transform",
    "cat_norms",
    "chsh_angles",
    "converged_optimum",
    "default_optimizer_angles",
    "generation_pipeline",
    "ghz_bell_factors",
    "ghz_like_angles",
    "mk_coefficient",
    "noisy_bell_factor",
    "optimal_phase",
    "optimize_state",
    "overlaps_VW",
    "p_max_ghz",
    "psi3_bell_report",
    "psi3_prime_state",
    "psi3_prime_terms",
    "quantum_bound",
    "scs_state",
    "tensor",
)

# Only the tests call these, but perfbench/tracing.py looks them up by name.
TRACER_HELD = (
    (mk, "expand_mk"),
    (mk, "MKExpansion"),
    (signbin, "correlator_E"),
    (signbin, "_g_magnitude"),
    (rootbin, "binned_product_probabilities"),
    (numerics, "integrate_segments"),
    (numerics, "max_eigenpair"),
    (signbin, "bell_matrix"),
)


def test_package_reexports_pinned_names():
    names = sorted(
        name
        for name, value in vars(bellscope).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == list(REEXPORTED)
    assert len(names) == 27


def test_tracer_held_names_stay_but_are_not_public():
    for module, name in TRACER_HELD:
        assert hasattr(module, name)
        assert name not in module.__all__
        assert not hasattr(bellscope, name)


def test_every_listed_name_exists():
    for module in (catprep, erasure, mk, numerics, rootbin, signbin):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
