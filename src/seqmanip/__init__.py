"""Exact solvers for best-response manipulation of sequential allocation.

Sequential allocation hands out indivisible items along a fixed turn order
(the policy); each agent takes its most preferred remaining item.  Agent 1,
the manipulator, may play any permutation of the items instead of its
truthful ranking.  This package executes the mechanism, solves the
manipulator's best response exactly by dynamic programming, cross-validates
against two independent brute-force oracles, and measures how far the
truthful response falls short of the optimum (never below one half).

``import seqmanip`` loads no submodule.  A public name, or a submodule
such as ``seqmanip.oracle``, is imported on first use (PEP 562), so a
command line run loads only the solvers it calls.
"""

import importlib

__version__ = "0.1.0"

# Each submodule with the public names it defines.
_EXPORTS = {
    "model": "MANIPULATOR Instance InstanceError parse_instance serialize_instance make_instance "
    "generate_random_instance generate_tightness_instance",
    "policy": "PolicyDecomposition decompose dominates enumerate_dominated",
    "engine": "AllocationSequence PickingStrategy Bundle bundle_items execute trace_feasible "
    "strategy_from_sequence is_greedy manipulator_bundle Solution BudgetExceeded",
    "greedy": "greedy_alg",
    "oracle": "choice_tree_best dominated_greedy_best is_crucial",
    "dp": "DPState DPEntry replay_state best_response_with_table",
    "responses": "truthful_response ApproximationReport approximation_report allocation_response",
    "cli": "",
    "sweeps": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
