"""Bell tests for multimode continuous-variable states under homodyne
detection with binned outcomes: Mermin-Klyshko operators, sign and root
binning, optimal-state eigenproblems, erasure noise, and the conditional
generation of a three-mode candidate state.
"""

from .mk import (
    mk_coefficient,
    mk_sum,
    quantum_bound,
)
from .numerics import (
    IntegrationError,
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
    default_optimizer_angles,
    ghz_like_angles,
    optimize_state,
)
from .rootbin import (
    RootBinningSpec,
    bell_factor_root,
    cat_norms,
    cat_pair,
    optimal_phase,
    overlaps_VW,
    psi3_bell_report,
    psi3_prime_terms,
)
from .erasure import (
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
