"""leapsim: coalition, bandwidth and power planning for hierarchical FL.

The package chains three solvers over a synthetic client population:
a coalition formation game that minimizes cross-edge label-distribution
divergence, a projected-gradient bandwidth split over the coalitions,
and a closed-form per-client transmit power under a task deadline.  A
toy hierarchical FedAvg learner shows the accuracy effect of the
resulting partitions.
"""

from .errors import (
    InputFileError,
    InvalidPartitionError,
    InvalidValueError,
    LeapsimError,
    TrainingDivergedError,
)
from .dist import (
    DimensionMismatchError,
    EmptyDistributionError,
    LabelDistribution,
    SupportViolationError,
    avg_pairwise_js,
    coalition_distribution,
    js_divergence,
    js_rows,
    kl_divergence,
    mean_distribution,
    pairwise_js_matrix,
)
from .game import (
    GameTrace,
    InvalidSwitchError,
    Partition,
    SwitchProposal,
    best_switch,
    certify_stability,
    evaluate_switch,
    potential,
    random_partition,
    run_coalition_formation,
    switch_deltas,
    verify_exact_potential,
)
from .netmodel import (
    AllocationPlan,
    ClientProfile,
    ClientTable,
    NetworkConfig,
    check_deadline,
    coalition_assignment,
    comp_latency,
    energies,
    network_utility,
    round_and_total_latency,
    tx_latency,
    uplink_rate,
)
from .alloc import (
    GPConfig,
    GPTrace,
    InfeasibleError,
    NonFiniteInputError,
    build_plan,
    deadline_powers,
    gp_solve,
    p3_gradient,
    p3_objective,
    plan_full,
    project_to_simplex,
    worst_members,
)
from .hfl import (
    SyntheticDataset,
    edge_aggregate,
    local_train,
    run_hfl,
)
from .scenario import (
    HardwareRanges,
    Scenario,
    generate_scenario,
    label_count_matrix,
    load_scenario,
    save_scenario,
    shard_grouped_partition,
)
from .experiment import (
    ExperimentReport,
    MethodResult,
    TrainOptions,
    emit_report,
    load_report,
    recompute_plan,
    run_experiment,
)

__version__ = "0.1.0"
