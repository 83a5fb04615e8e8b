"""Deterministic multi-agent simulator for communication-efficient
distributed stochastic optimization: local-training ADMM-type solvers with
exact, mini-batch, and variance-reduced gradient estimators, plus the
verification machinery around them (dense matrix-form oracle, step-size
bound checker, convergence metrics, and an abstract cost-time model)."""

__version__ = "0.1.0"

from .algorithms import (  # noqa: F401
    DivergenceError,
    RunConfig,
    VARIANTS,
    run,
)
from .graph import (  # noqa: F401
    SpectralInfo,
    Topology,
    build_from_edges,
    build_ring,
    spectral_quantities,
)
from .metrics import CostModel, Trace, compute_dk  # noqa: F401
from .oracles import Streams  # noqa: F401
from .problems import (  # noqa: F401
    ProblemInstance,
    generate_classification,
    global_gradient_norm_sq,
    smoothness_constant,
)
from .stepsize import BoundContext, BoundReport, certified_run_check  # noqa: F401
