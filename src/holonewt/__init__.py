"""Newton-type backpropagation for fully complex holomorphic MLPs.

The layers of these networks apply holomorphic activations to complex
net sums; training derivatives are taken in the Wirtinger sense.  The
package provides first-order (gradient descent) and second-order
(Newton, pseudo-Newton) weight updates, a one-step steplength rule with
underrelaxation, a finite-difference oracle for cross-checking the
analytic derivatives, and a deterministic trial runner for benchmark
experiments such as complex XOR.
"""

__version__ = "0.1.0"

from .activations import ACTIVATIONS, Activation, get_activation
from .fdcheck import NonFiniteEvaluation, fd_cogradient, fd_hessians, verify_report
from .linalg import SingularMatrix, solve
from .network import (
    Dataset,
    ForwardTrace,
    NetworkTopology,
    error,
    flat_index,
    forward,
    init_weights,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
)
from .newton import DegenerateStep, backward_tables, hessian_pair, newton_update, pseudo_newton_update
from .steplength import StepConfig
from .training import (
    TrainConfig,
    TrialRecord,
    TrialStats,
    run_trials,
    train,
)

__all__ = [
    "__version__",
    "ACTIVATIONS",
    "Activation",
    "get_activation",
    "NonFiniteEvaluation",
    "fd_cogradient",
    "fd_hessians",
    "verify_report",
    "SingularMatrix",
    "solve",
    "Dataset",
    "ForwardTrace",
    "NetworkTopology",
    "error",
    "flat_index",
    "forward",
    "init_weights",
    "load_checkpoint",
    "load_dataset",
    "save_checkpoint",
    "backward_tables",
    "hessian_pair",
    "newton_update",
    "pseudo_newton_update",
    "DegenerateStep",
    "StepConfig",
    "TrainConfig",
    "TrialRecord",
    "TrialStats",
    "run_trials",
    "train",
]
