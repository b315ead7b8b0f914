"""leapsim: coalition, bandwidth and power planning for hierarchical FL.

The package chains three solvers over a synthetic client population:
a coalition formation game that minimizes cross-edge label-distribution
divergence, a projected-gradient bandwidth split over the coalitions,
and a closed-form per-client transmit power under a task deadline.  A
toy hierarchical FedAvg learner shows the accuracy effect of the
resulting partitions.

The package namespace holds the entry points of the library workflow
and the error types; every other public name is imported from its
submodule (``leapsim.game.Partition``, ``leapsim.dist.js_rows``).
"""

from .errors import (
    InputFileError,
    InvalidPartitionError,
    InvalidValueError,
    LeapsimError,
    TrainingDivergedError,
)
from .game import (
    certify_stability,
    random_partition,
    run_coalition_formation,
)
from .netmodel import NetworkConfig
from .alloc import deadline_powers, gp_solve, p3_gradient, p3_objective, plan_full
from .scenario import generate_scenario, label_count_matrix, shard_grouped_partition
from .experiment import emit_report, run_experiment

__version__ = "0.1.0"
