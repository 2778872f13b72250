"""Structural algebra on policies.

A policy is the turn sequence of agents, one turn per item.  This module
splits policies into segments, extracts cores and manipulator position
vectors, tests domination and enumerates dominated policies.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .model import MANIPULATOR, Agent

Policy = tuple[Agent, ...]


class PolicyDecomposition(NamedTuple):
    """Segment structure of a policy.

    ``segments`` cuts the policy after every non-manipulator turn; each
    non-trivial segment therefore holds zero or more manipulator turns
    followed by exactly one non-manipulator.  The final entry is the trivial
    segment: trailing manipulator turns only, possibly empty.  ``core`` is
    the policy with manipulator turns deleted, ``position_vector`` the
    1-based manipulator positions, and ``k_prefix[x]`` the number of
    manipulator turns within the first ``x`` segments.

    >>> decompose((1, 3, 2, 2, 1)).segments
    ((1, 3), (2,), (2,), (1,))
    >>> decompose((1, 3, 2, 2, 1)).core
    (3, 2, 2)
    >>> decompose((1, 3, 2, 2, 1)).position_vector
    (1, 5)
    """

    segments: tuple[tuple[Agent, ...], ...]
    core: tuple[Agent, ...]
    position_vector: tuple[int, ...]
    k_prefix: tuple[int, ...]

    @property
    def m_prime(self) -> int:
        return len(self.core)


def decompose(policy: Sequence[Agent]) -> PolicyDecomposition:
    """Split ``policy`` into segments and derive core, positions and k(x)."""
    segments: list[tuple[Agent, ...]] = []
    # Equal segments share one tuple: a long policy has few segment shapes,
    # and every instance keeps its policy's decomposition.
    shapes: dict[tuple[Agent, ...], tuple[Agent, ...]] = {}
    core: list[Agent] = []
    positions: list[int] = []
    k_prefix = [0]
    start = 0
    for pos, agent in enumerate(policy):
        if agent == MANIPULATOR:
            positions.append(pos + 1)
        else:
            core.append(agent)
            segment = tuple(policy[start : pos + 1])
            segments.append(shapes.setdefault(segment, segment))
            k_prefix.append(len(positions))
            start = pos + 1
    segments.append(tuple(policy[start:]))
    return PolicyDecomposition(tuple(segments), tuple(core), tuple(positions), tuple(k_prefix))


def dominates(p1: Sequence[Agent], p2: Sequence[Agent]) -> bool:
    """True iff both policies share length and core and every manipulator
    turn in ``p1`` is no later than the matching turn in ``p2``.

    Policies with different cores are simply unrelated (never an error).

    >>> dominates((1, 3, 2, 2, 1), (3, 2, 1, 2, 1))
    True
    >>> dominates((2, 1), (1, 2))
    False
    """
    d1, d2 = decompose(p1), decompose(p2)
    if len(p1) != len(p2) or d1.core != d2.core:
        return False
    return all(z1 <= z2 for z1, z2 in zip(d1.position_vector, d2.position_vector))


def policy_from_positions(core: Sequence[Agent], positions: Sequence[int], length: int) -> Policy:
    """Rebuild a policy from its core and manipulator position vector."""
    if len(core) + len(positions) != length:
        raise ValueError(f"{len(core)} core turns and {len(positions)} positions do not make {length} turns")
    out = list(core)
    # In increasing order, each position already counts the turns inserted before it.
    for pos in sorted(positions):
        out.insert(pos - 1, MANIPULATOR)
    return tuple(out)


def enumerate_dominated(policy: Sequence[Agent]) -> Iterator[Policy]:
    """Yield every policy dominated by ``policy`` (itself included) lazily,
    in lexicographic order of manipulator position vectors.

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
        yield policy_from_positions(core, positions, m)
        i = k - 1
        while i >= 0 and positions[i] == m - (k - 1 - i):
            i -= 1
        if i < 0:
            return
        positions[i] += 1
        for j in range(i + 1, k):
            positions[j] = max(z[j], positions[j - 1] + 1)
