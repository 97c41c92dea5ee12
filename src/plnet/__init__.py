"""
Decentralized gradient methods under the Polyak-Lojasiewicz condition
over time-varying gossip networks.

The package simulates synchronized multi-agent optimization: each node
holds a private objective and a copy of the parameters, local gradient
steps alternate with multi-round gossip averaging through doubly
stochastic Metropolis matrices, and gradient oracles may carry bias and
noise. Closed-form iteration/communication budgets and noise floors are
evaluated by :mod:`plnet.theory`, and :mod:`plnet.harness` runs
config-driven experiments to CSV.
"""

from .algorithms import (
    DGDConfig,
    DivergenceError,
    MGDAConfig,
    RunRecord,
    centralized_gd,
    centralized_gda,
    dgd_run,
    mgda_run,
)
from .consensus import CommClock, average_projection, consensus_error, run_consensus
from .oracles import OracleSpec, OracleState
from .problems import (
    InnerObjective,
    LeastSquaresProblem,
    RobustLeastSquaresProblem,
    SaddleSmoothness,
    SingularSystemError,
    SmoothnessProfile,
    analytic_saddle,
    build_least_squares,
    build_robust_ls,
    inner_objective,
    pl_qg_report,
)
from .theory import (
    SaddleBudget,
    TheoryBudget,
    budget_min_deterministic,
    budget_min_stochastic,
    budget_saddle,
    noise_floor,
    overlay_bounds,
)
from .topology import (
    GraphSequence,
    MixingModel,
    NonContractiveSequenceError,
    estimate_lambda,
    make_graph_sequence,
    metropolis_matrix,
    validate_mixing,
)

__version__ = "0.1.0"

__all__ = [
    "DGDConfig",
    "MGDAConfig",
    "RunRecord",
    "DivergenceError",
    "dgd_run",
    "mgda_run",
    "centralized_gd",
    "centralized_gda",
    "CommClock",
    "average_projection",
    "consensus_error",
    "run_consensus",
    "OracleSpec",
    "OracleState",
    "LeastSquaresProblem",
    "RobustLeastSquaresProblem",
    "SmoothnessProfile",
    "SaddleSmoothness",
    "InnerObjective",
    "SingularSystemError",
    "analytic_saddle",
    "build_least_squares",
    "build_robust_ls",
    "inner_objective",
    "pl_qg_report",
    "TheoryBudget",
    "SaddleBudget",
    "budget_min_deterministic",
    "budget_min_stochastic",
    "budget_saddle",
    "noise_floor",
    "overlay_bounds",
    "GraphSequence",
    "MixingModel",
    "NonContractiveSequenceError",
    "make_graph_sequence",
    "metropolis_matrix",
    "estimate_lambda",
    "validate_mixing",
]
