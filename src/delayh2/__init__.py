"""H2-optimal output-feedback synthesis under communication-delay constraints.

The package computes the strictly proper controller minimizing the
closed-loop H2 norm of a discrete-time plant when the controller subsystems
exchange measurements over a delayed, strongly connected network.  The
constrained problem reduces to a centralized LQG design plus one
finite-horizon LQR solve over the first few impulse-response coefficients
of the free parameter.
"""

from .delaymodel import (
    ConstraintSpace,
    DelayGraph,
    DelayMatrix,
    QiCheck,
    check_qi,
    constraint_space,
    delay_matrix,
    expand_pattern,
    plant_block_delays,
)
from .errors import (
    AssumptionViolated,
    ConfigError,
    DelayH2Error,
    DimensionMismatch,
    IllPosed,
    NotStronglyConnected,
    QIViolation,
    SolverFailure,
    UnstableSystem,
)
from .statespace import (
    StateSpaceModel,
    dare_solve,
    h2_norm_sq,
    impulse_response,
    spectral_radius,
)
from .synthesis import (
    GeneralizedPlant,
    RiccatiGains,
    SynthesisResult,
    qi_verdict,
    realize_controller,
    riccati_gains,
    solve_constrained_qp,
    sweep_norms,
    synthesize,
)
from .verify import ClosedLoop, ConformanceReport, closed_loop, conformance

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolated",
    "ClosedLoop",
    "ConfigError",
    "ConformanceReport",
    "ConstraintSpace",
    "DelayGraph",
    "DelayH2Error",
    "DelayMatrix",
    "DimensionMismatch",
    "GeneralizedPlant",
    "IllPosed",
    "NotStronglyConnected",
    "QIViolation",
    "QiCheck",
    "RiccatiGains",
    "SolverFailure",
    "StateSpaceModel",
    "SynthesisResult",
    "UnstableSystem",
    "check_qi",
    "closed_loop",
    "conformance",
    "constraint_space",
    "dare_solve",
    "delay_matrix",
    "expand_pattern",
    "h2_norm_sq",
    "impulse_response",
    "plant_block_delays",
    "qi_verdict",
    "realize_controller",
    "riccati_gains",
    "solve_constrained_qp",
    "spectral_radius",
    "sweep_norms",
    "synthesize",
]
