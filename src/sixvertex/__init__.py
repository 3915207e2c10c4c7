"""High-precision laboratory for the six-vertex model with domain wall
boundary conditions: exact partition functions, Hankel determinants from
moments, orthogonal-polynomial norms, and the phase-by-phase asymptotics."""

from .errors import ParameterDomainError, PrecisionFailureError, SixVertexError
from .model import (
    DEFAULT_CONTEXT,
    Phase,
    PhaseClassification,
    PhaseParams,
    PrecisionContext,
    Weights,
    classify,
    delta,
    normalize,
    to_mpf,
    weights_from_params,
)
from .lattice import enumerate_dfs, transfer_matrix_zn
from .specfun import (
    MomentFamily,
    MomentSequence,
    af_moment,
    af_moments,
    crit_afd_moment,
    crit_afd_moments,
    crit_fd_moment,
    crit_fd_moments,
    ferro_moment,
    ferro_moments,
    phi_derivatives,
    theta1,
    theta1_prime0,
    theta4,
    zeta_three_halves,
)
from .hankel import (
    HankelResult,
    NormSequence,
    ZnResult,
    contexts,
    hankel_det,
    norms_from_moments,
    on_ladder,
    predicted_loss,
    toda_residual,
    zn_ik,
    zn_series,
)
from .orthopoly import (
    meixner_norm,
    meixner_ratios,
    recurrence_r,
    zn_crit_afd,
    zn_crit_fd,
    zn_crit_series,
)
from .asymptotics import (
    AsymptoticPrediction,
    FitResult,
    fit_free_energy,
    fit_kappa,
    predict_af,
    predict_crit_fd,
    predict_disordered,
    predict_ferro,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
