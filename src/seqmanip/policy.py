"""Structural algebra on policies.

A policy is the turn sequence of agents, one turn per item.  This module
extracts a policy's core, manipulator position vector and per-segment
manipulator counts, and enumerates the policies it dominates.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .model import MANIPULATOR, Agent

Policy = tuple[Agent, ...]


class PolicyDecomposition(NamedTuple):
    """Segment structure of a policy.

    A segment is zero or more manipulator turns followed by one
    non-manipulator turn; trailing manipulator turns follow the last
    segment.  ``core`` is the policy with manipulator turns deleted (the
    segments' agents), ``position_vector`` the 1-based manipulator
    positions, and ``k_prefix[x]`` the number of manipulator turns within
    the first ``x`` segments.

    >>> decompose((1, 3, 2, 2, 1)).core
    (3, 2, 2)
    >>> decompose((1, 3, 2, 2, 1)).position_vector
    (1, 5)
    >>> decompose((1, 3, 2, 2, 1)).k_prefix
    (0, 1, 1, 1)
    """

    core: tuple[Agent, ...]
    position_vector: tuple[int, ...]
    k_prefix: tuple[int, ...]

    @property
    def m_prime(self) -> int:
        return len(self.core)


def decompose(policy: Sequence[Agent]) -> PolicyDecomposition:
    """Derive the core, the manipulator positions and k(x) of ``policy``."""
    core: list[Agent] = []
    positions: list[int] = []
    k_prefix = [0]
    for pos, agent in enumerate(policy):
        if agent == MANIPULATOR:
            positions.append(pos + 1)
        else:
            core.append(agent)
            k_prefix.append(len(positions))
    return PolicyDecomposition(tuple(core), tuple(positions), tuple(k_prefix))


def enumerate_dominated(policy: Sequence[Agent]) -> Iterator[Policy]:
    """Yield every policy dominated by ``policy`` (itself included) lazily,
    in lexicographic order of manipulator position vectors.  A policy
    dominates another of its length and core when each of its manipulator
    turns comes no later than the matching turn of the other.

    >>> list(enumerate_dominated((1, 2)))
    [(1, 2), (2, 1)]
    """
    policy = tuple(policy)
    dec = decompose(policy)
    z, core = dec.position_vector, dec.core
    m = len(policy)
    k = len(z)
    # An odometer over position vectors p with z[i] <= p[i] < p[i + 1] and
    # room after p[i] for the k - 1 - i later turns; it starts at z itself.
    positions = list(z)
    while True:
        out = list(core)
        # In increasing order, each position already counts the turns inserted before it.
        for pos in positions:
            out.insert(pos - 1, MANIPULATOR)
        yield tuple(out)
        i = k - 1
        while i >= 0 and positions[i] == m - (k - 1 - i):
            i -= 1
        if i < 0:
            return
        positions[i] += 1
        for j in range(i + 1, k):
            positions[j] = max(z[j], positions[j - 1] + 1)
