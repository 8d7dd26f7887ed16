"""Entanglement dynamics of a qubit pair with one qubit coupled to a spin bath.

The package tracks how entanglement moves between a monitored qubit pair and
a star-coupled bath of spins: closed-form and numeric trajectories for the
pair concurrence, exact operator-sum extraction for the reduced dynamics,
Markov structure tests with entanglement witnesses, and the bookkeeping of
entanglement that a reduced description cannot see.
"""

from .channels import (
    KrausChannel,
    RandomUnitaryChannel,
    RucSample,
    apply_channel,
    apply_random_unitary,
    choi_matrix,
    discord_zero_check,
    extract_kraus,
    random_phase_channel,
    ruc_trajectory,
)
from .entanglement import (
    EnsembleMember,
    concurrence_2q,
    concurrence_a_be,
    concurrence_pure,
    ensemble_concurrence,
    hidden_entanglement,
    inaccessible_concurrence,
    ppt_min_eigenvalue,
    spin_flip_coefficients,
)
from .linalg import (
    dagger,
    haar_unitary,
    herm_eig,
    identity,
    max_abs,
    tensor,
)
from .markov import (
    MarkovBlock,
    MarkovBlockSpec,
    MarkovDecision,
    ReductionReport,
    WitnessResult,
    concurrence_after_env_unitary,
    is_markov,
    make_markov_state,
    markov_necessary_witnesses,
    verify_localized_reduction,
)
from .model import (
    LARGE_N,
    BruteForceEvolver,
    ClosedFormCoeffs,
    SpinStarParams,
    ZeroDiscordFamily,
    branch_vectors,
    build_initial_state,
    build_w_state,
    closed_form_coeffs,
    closed_form_terms,
    concurrence_closed_form,
    evolve_sector,
    sector_unitary,
    zero_discord_family,
)
from .states import (
    DensityMatrix,
    DimsSpec,
    PureState,
    conditional_mutual_information,
    mutual_information,
    partial_trace,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linalg
    "tensor", "dagger", "identity", "max_abs", "herm_eig", "haar_unitary",
    # states
    "DimsSpec", "DensityMatrix", "PureState", "partial_trace",
    "von_neumann_entropy", "mutual_information", "conditional_mutual_information",
    # entanglement
    "EnsembleMember", "concurrence_pure", "spin_flip_coefficients",
    "concurrence_2q", "ppt_min_eigenvalue", "ensemble_concurrence",
    "concurrence_a_be", "inaccessible_concurrence", "hidden_entanglement",
    # model
    "LARGE_N", "SpinStarParams", "ClosedFormCoeffs", "branch_vectors",
    "ZeroDiscordFamily", "zero_discord_family", "build_initial_state",
    "build_w_state", "closed_form_coeffs", "closed_form_terms",
    "concurrence_closed_form", "sector_unitary", "evolve_sector",
    "BruteForceEvolver",
    # channels
    "KrausChannel", "extract_kraus", "apply_channel", "choi_matrix",
    "discord_zero_check", "RandomUnitaryChannel", "apply_random_unitary",
    "ruc_trajectory", "RucSample", "random_phase_channel",
    # markov
    "MarkovBlock", "MarkovBlockSpec", "MarkovDecision", "WitnessResult",
    "ReductionReport", "make_markov_state", "is_markov",
    "markov_necessary_witnesses", "concurrence_after_env_unitary",
    "verify_localized_reduction",
]
