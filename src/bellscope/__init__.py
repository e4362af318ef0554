"""Bell tests for multimode continuous-variable states under homodyne
detection with binned outcomes: Mermin-Klyshko operators, sign and root
binning, optimal-state eigenproblems, erasure noise, and the conditional
generation of a three-mode candidate state.
"""

from .mk import (
    mk_coefficient,
    quantum_bound,
)
from .numerics import IntegrationError
from .signbin import (
    AngleSettings,
    FockCorrelatedState,
    bell_factor_sign,
    chsh_angles,
    converged_optimum,
    default_optimizer_angles,
    ghz_bell_factors,
    ghz_like_angles,
    optimize_state,
)
from .rootbin import (
    RootBinningSpec,
    bell_factor_root,
    cat_norms,
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
    generation_pipeline,
    psi3_prime_state,
    scs_state,
    tensor,
)

__version__ = "0.1.0"
