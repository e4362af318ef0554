"""Bell tests for multimode continuous-variable states under homodyne
detection with binned outcomes: Mermin-Klyshko operators, sign and root
binning, optimal-state eigenproblems, erasure noise, and the conditional
generation of a three-mode candidate state.
"""

from .mk import (
    MKExpansion,
    classical_bound_exhaustive,
    expand_mk,
    mk_coefficient,
    mk_sum,
    quantum_bound,
)
from .numerics import (
    IntegrationError,
    hermite_eval,
    integrate_segments,
    max_eigenpair,
)
from .signbin import (
    AngleSettings,
    FockCorrelatedState,
    bell_factor_sign,
    bell_matrix,
    chsh_angles,
    converged_optimum,
    correlator_E,
    default_optimizer_angles,
    g_rs,
    ghz_like_angles,
    hermite_halfline_overlap,
    optimize_state,
    outcome_probability,
)
from .rootbin import (
    ParityFunctionPair,
    RootBinningSpec,
    bell_factor_root,
    binned_product_probabilities,
    cat_norms,
    cat_pair,
    class_correlator,
    direct_bell_psi3,
    max_theta_bell,
    maximal_violation_curve,
    optimal_phase,
    overlaps_VW,
    psi3_bell_report,
    psi3_prime_terms,
)
from .erasure import (
    erased_term_correlator,
    noisy_bell_direct,
    noisy_bell_factor,
    p_max_ghz,
)
from .catprep import (
    CoherentSuperposition,
    bs_transform,
    fidelity,
    generation_pipeline,
    homodyne_project,
    psi3_prime_state,
    scs_state,
    tensor,
)

__version__ = "0.1.0"
