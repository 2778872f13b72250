"""Exact solvers for best-response manipulation of sequential allocation.

Sequential allocation hands out indivisible items along a fixed turn order
(the policy); each agent takes its most preferred remaining item.  Agent 1,
the manipulator, may play any permutation of the items instead of its
truthful ranking.  This package executes the mechanism, solves the
manipulator's best response exactly by dynamic programming, cross-validates
against two independent brute-force oracles, and measures how far the
truthful response falls short of the optimum (never below one half).
"""

from .dp import DPEntry, DPState, best_response_with_table, replay_state
from .engine import (
    AllocationSequence,
    Bundle,
    BudgetExceeded,
    PickingStrategy,
    Solution,
    bundle_items,
    execute,
    is_greedy,
    manipulator_bundle,
    strategy_from_sequence,
    trace_feasible,
)
from .greedy import greedy_alg
from .model import (
    MANIPULATOR,
    Instance,
    InstanceError,
    generate_random_instance,
    generate_tightness_instance,
    make_instance,
    parse_instance,
    serialize_instance,
)
from .oracle import (
    choice_tree_best,
    dominated_greedy_best,
    is_crucial,
)
from .policy import (
    PolicyDecomposition,
    decompose,
    dominates,
    enumerate_dominated,
)
from .responses import (
    ApproximationReport,
    allocation_response,
    approximation_report,
    better_than_truth,
    truthful_response,
)

__version__ = "0.1.0"

__all__ = [
    "MANIPULATOR",
    "Instance",
    "InstanceError",
    "parse_instance",
    "serialize_instance",
    "make_instance",
    "generate_random_instance",
    "generate_tightness_instance",
    "PolicyDecomposition",
    "decompose",
    "dominates",
    "enumerate_dominated",
    "AllocationSequence",
    "PickingStrategy",
    "Bundle",
    "bundle_items",
    "execute",
    "trace_feasible",
    "strategy_from_sequence",
    "is_greedy",
    "manipulator_bundle",
    "greedy_alg",
    "Solution",
    "BudgetExceeded",
    "choice_tree_best",
    "dominated_greedy_best",
    "is_crucial",
    "DPState",
    "DPEntry",
    "replay_state",
    "best_response_with_table",
    "truthful_response",
    "ApproximationReport",
    "approximation_report",
    "better_than_truth",
    "allocation_response",
    "__version__",
]
