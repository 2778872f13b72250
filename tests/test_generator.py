"""The random generator's stream is pinned.

Every random pool (the sweeps' random specs, ``gen --seed``, ``bench``) is
defined by ``generate_random_instance(n, m, seed)``, so a change to the draws
would silently swap every pool for another.  The digest below was taken
from the generator that called ``random.Random(seed).sample`` and
``randrange`` directly; the second test compares the draws with those calls
on the running interpreter.
"""

import hashlib
import random
from fractions import Fraction

import pytest

import seqmanip as sm

# m >= 10 is where the sorted items ("g1", "g10", "g11", "g2", ...) leave
# draw order; m = 0 and n = 1 are the edges of ``sample`` and ``randrange``.
DIGEST_GRID = [
    (n, m, seed)
    for n in (1, 2, 3, 4, 5)
    for m in (0, 1, 2, 5, 9, 10, 12, 30, 200)
    for seed in (0, 1, 2, 3, 2**32 - 1)
] + [(n, 1200, seed) for n in (1, 3) for seed in (0, 1)]
DIGEST = "cf1a9888e8f5e3fddb959c1d12f844e5994e3d0f9e1ef2873abf4531e02bb8d9"


def test_generated_instances_match_the_pinned_digest():
    digest = hashlib.sha256()
    for n, m, seed in DIGEST_GRID:
        digest.update(sm.serialize_instance(sm.generate_random_instance(n, m, seed)).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == DIGEST


@pytest.mark.parametrize("n, m", [(1, 0), (1, 5), (2, 1), (3, 9), (4, 12), (5, 40), (2, 300)])
def test_draws_are_those_of_random_sample_and_randrange(n, m):
    items = [f"g{i}" for i in range(1, m + 1)]
    for seed in range(6):
        rng = random.Random(seed)
        rankings = {agent: tuple(rng.sample(items, m)) for agent in range(1, n + 1)}
        policy = tuple(rng.randrange(1, n + 1) for _ in range(m))
        inst = sm.generate_random_instance(n, m, seed)
        assert inst.rankings == rankings
        assert inst.policy == policy
        assert inst.items == tuple(sorted(items))
        assert inst.utility == {item: Fraction(m - pos) for pos, item in enumerate(rankings[1])}
        assert all(type(u) is Fraction for u in inst.utility.values())
