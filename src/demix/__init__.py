"""Blind demixing of bilinear measurements via scaled Wirtinger flow.

Recovers s pairs (h_i, x_i) from their summed bilinear projections
y_j = sum_i b_j^* h_i x_i^* a_ij using spectral initialization and
regularization-free scaled gradient descent, plus the metric and
verification machinery around it.
"""

from .metrics import (
    Alignment,
    align_source,
    align_state,
    dist,
    incoherence_measures,
    incoherence_mu,
    relative_error,
)
from .objective import (
    loss,
    residuals,
)
from .problem import (
    DemixState,
    Dimensions,
    GroundTruth,
    ProblemInstance,
    load_instance,
    make_dft_rows,
    make_instance,
    sample_design,
    sample_ground_truth,
    save_instance,
    snr_db,
    synthesize_measurements,
)
from .solver import (
    DivergenceError,
    SolverConfig,
    TrajectoryRecord,
    spectral_init,
    run,
    wf_step,
)
from .verify import (
    RscReport,
    check_rsc,
    leave_one_out_trajectories,
    spectral_concentration,
)

__all__ = [
    "Alignment",
    "DemixState",
    "Dimensions",
    "DivergenceError",
    "GroundTruth",
    "ProblemInstance",
    "RscReport",
    "SolverConfig",
    "TrajectoryRecord",
    "align_source",
    "align_state",
    "check_rsc",
    "dist",
    "incoherence_measures",
    "incoherence_mu",
    "leave_one_out_trajectories",
    "load_instance",
    "loss",
    "make_dft_rows",
    "make_instance",
    "relative_error",
    "residuals",
    "run",
    "sample_design",
    "sample_ground_truth",
    "save_instance",
    "snr_db",
    "spectral_concentration",
    "spectral_init",
    "synthesize_measurements",
    "wf_step",
]

__version__ = "0.1.0"
