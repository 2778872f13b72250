"""The greedy picking procedure.

At each manipulator turn, take the most preferred remaining item of the next
non-manipulator still to move (or the manipulator's own best remaining item
once no non-manipulator turn is left).  The result is optimal exactly on
crucial instances and is the building block of both the search oracle and
the dynamic program.
"""

from __future__ import annotations

from .engine import AllocationSequence, PickingStrategy, _greedy, _steps, strategy_from_sequence
from .model import Instance


def greedy_alg(inst: Instance) -> tuple[AllocationSequence, PickingStrategy]:
    """Run the greedy procedure; returns the trace and its unique strategy.

    Non-manipulator turns are truthful as always.  Runtime is linear in the
    number of items thanks to one monotone ranking cursor per agent.

    >>> from .model import generate_tightness_instance
    >>> trace, strategy = greedy_alg(generate_tightness_instance(10))
    >>> [item for item, agent in trace if agent == 1]
    ['g2', 'g1']
    """
    policy = inst.policy
    seq = _steps(inst, policy, _greedy(inst, policy))
    return seq, strategy_from_sequence(inst, seq)
