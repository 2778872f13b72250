"""Instance model for manipulation in sequential allocation.

Items are short string tokens, agents are 1-based integers, and agent 1 is
always the manipulator. The manipulator's cardinal utilities are exact
rationals so that solver comparisons never suffer floating-point ties.

Constructing an :class:`Instance` validates it and, in the same pass, builds
its integer view (``Instance.view``), which every solver works on.  The view
holds the utilities as exact integer weights: each utility times ``scale``,
the least common multiple of their denominators.  Sums and comparisons of
weights order exactly as those of the utilities, so the solvers add and
compare Python ints and turn a result back into a ``Fraction`` once, as
``Fraction(total, scale)``.  Next to the view, each instance keeps its
policy's core, manipulator positions and k(x) (``Instance.decomposition``,
see :func:`seqmanip.policy.decompose`).  The one derived-copy path,
``Instance._derive`` (``with_policy`` is one use), replaces the policy and
optionally the rankings of agents 2..n: it checks only the new fields, with
the constructor's checks, and shares the rest of the view.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import random
import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

Item = str
Agent = int

MANIPULATOR: Agent = 1

_DOCUMENT_KEYS = {"items", "agents", "policy", "rankings", "utilities"}

# Utility strings: a decimal integer or "p/q"; no decimal points or exponents.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

# Ranking keys: an agent index as ``serialize_instance`` writes it, so two
# keys never name one agent.
_AGENT_KEY = re.compile(r"[1-9][0-9]*")

# Every weight is about as long as ``scale``, so the view costs m times its
# size: ``scale`` may have at most as many digits as the longest integer
# literal CPython parses by default.
_SCALE_DIGITS = 4300
_SCALE_LIMIT = 10**_SCALE_DIGITS

# Document content longer than this is cut in error paths and messages, so
# that an error's size does not grow with the input.
_QUOTE_LIMIT = 80


def _clip(text: str) -> str:
    """``text`` itself, or its first ``_QUOTE_LIMIT`` characters and its length."""
    if len(text) <= _QUOTE_LIMIT:
        return text
    return f"{text[:_QUOTE_LIMIT]}... ({len(text)} characters)"


class InstanceError(ValueError):
    """Invalid instance document or field; ``path`` points at the culprit."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def __reduce__(self):
        # Rebuilt from both fields, so that the error crosses a process pool.
        return type(self), (self.path, self.message)


class _IntegerView(NamedTuple):
    """Items numbered by their position in ``Instance.items``.

    ``prefs[agent]`` is the agent's ranking as item indices, ``rank[agent][i]``
    the position of item ``i`` in that ranking, and ``weight[i]`` the
    manipulator's utility for item ``i`` times ``scale``, the least common
    multiple of the utilities' denominators: an exact Python int, so that
    utility ``u`` is ``Fraction(weight[i], scale)``.  ``bits[i]`` is
    ``1 << i``, item ``i``'s bit in an allocated set held as an int.
    """

    index: dict[Item, int]
    prefs: dict[Agent, tuple[int, ...]]
    rank: dict[Agent, tuple[int, ...]]
    scale: int
    weight: tuple[int, ...]
    bits: tuple[int, ...]


# The fields that make an instance, in constructor order.
_FIELDS = ("items", "n_agents", "policy", "rankings", "utility")
_field_values = operator.attrgetter(*_FIELDS)


class Instance:
    """A manipulation problem: items, agents, policy, rankings, utilities.

    ``rankings`` maps each agent to its complete strict preference ranking (a
    permutation of ``items``, most preferred first).  ``utility`` gives the
    manipulator's cardinal value per item and must decrease strictly along the
    manipulator's own ranking.  Instances are immutable after construction and
    safe to share between concurrent solver calls.  Two instances are equal
    when their five fields are; ``view``, ``decomposition`` and ``m`` take no
    part.
    """

    items: tuple[Item, ...]
    n_agents: int
    policy: tuple[Agent, ...]
    rankings: Mapping[Agent, tuple[Item, ...]]
    utility: Mapping[Item, Fraction]
    # The integer view every solver works on, built by the validator.
    view: _IntegerView
    # ``decompose(policy)``, made once per policy, and the number of items.
    decomposition: _policies.PolicyDecomposition
    m: int

    def __init__(self, items, n_agents, policy, rankings, utility):
        fields = self.__dict__
        fields.update(items=items, n_agents=n_agents, policy=policy, rankings=rankings, utility=utility)
        fields["view"] = _validate(self)
        fields["decomposition"] = _policies.decompose(policy)
        fields["m"] = len(items)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _field_values(self) == _field_values(other)

    __hash__ = None  # type: ignore[assignment]  # rankings and utility are dicts

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(_FIELDS, _field_values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def k1(self) -> int:
        """Number of manipulator turns in the policy."""
        return len(self.decomposition.position_vector)

    @property
    def m_prime(self) -> int:
        """Number of non-manipulator turns in the policy."""
        return len(self.decomposition.core)

    @property
    def manipulator_ranking(self) -> tuple[Item, ...]:
        return self.rankings[MANIPULATOR]

    def with_policy(self, policy: Iterable[Agent]) -> "Instance":
        """A copy of this instance under a different policy.

        Only the new policy is checked and decomposed: items, rankings and
        utilities are the same objects, so the copy shares this instance's
        integer view.
        """
        return self._derive(tuple(policy))

    def _derive(self, policy: tuple, others: Iterable[Iterable[Item]] | None = None) -> "Instance":
        """A copy of this instance under ``policy`` and, when ``others`` is
        given, with ``others`` as the rankings of agents 2, 3, ...

        Only the new fields are checked, in the order and with the errors
        of the constructor's check, and the policy is decomposed.  The
        items, utilities and manipulator's ranking are the same objects,
        and so are the index, weights and bits of the integer view.
        """
        n = self.n_agents
        policy = _check_policy(policy, len(self.items), n)
        fields = dict(self.__dict__, policy=policy)
        if others is not None:
            rankings = {MANIPULATOR: self.rankings[MANIPULATOR]}
            for agent, ranking in enumerate(others, start=2):
                rankings[agent] = tuple(ranking)
            view = self.view
            prefs, rank = {MANIPULATOR: view.prefs[MANIPULATOR]}, {MANIPULATOR: view.rank[MANIPULATOR]}
            _check_rankings(rankings, n, view.index, prefs, rank)
            view = _IntegerView(view.index, prefs, rank, view.scale, view.weight, view.bits)
            fields.update(rankings=rankings, view=view)
        fields["decomposition"] = _policies.decompose(policy)
        # A shallow copy, as copy.copy makes it, without its generic dispatch.
        variant = object.__new__(Instance)
        variant.__dict__.update(fields)
        return variant


def _rational(item: Item, raw: object) -> Fraction:
    """An exact utility from a Fraction, an int (not a bool), or a string
    holding an integer or "p/q"; floats are rejected, never converted."""
    if type(raw) is Fraction:  # immutable, so it can be shared
        return raw
    if not (isinstance(raw, Fraction) or type(raw) is int or (isinstance(raw, str) and _RATIONAL.fullmatch(raw))):
        raise InstanceError(
            f"utilities.{_clip(str(item))}", f"expected an integer or a 'p/q' string, got {_clip(repr(raw))}"
        )
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"utilities.{_clip(str(item))}", f"unparseable rational {_clip(repr(raw))}") from exc


def _check_policy(policy: tuple, m: int, n_agents: int) -> tuple[Agent, ...]:
    """``policy`` itself, once it is m exact ints (not bools) in 1..n_agents."""
    if len(policy) != m:
        raise InstanceError("policy", f"length {len(policy)} does not match item count {m}")
    for pos, agent in enumerate(policy):
        if type(agent) is not int or not 1 <= agent <= n_agents:
            raise InstanceError(f"policy[{pos}]", f"agent index {_clip(repr(agent))} out of range 1..{n_agents}")
    return policy


def _check_rankings(
    rankings: Mapping[Agent, Iterable[Item]],
    n: int,
    index: dict[Item, int],
    prefs: dict[Agent, tuple[int, ...]],
    rank: dict[Agent, tuple[int, ...]],
) -> None:
    """Check that ``rankings`` holds exactly agents 1..n, each ranking a
    permutation of the items that ``index`` numbers, and put each agent's
    ranking as item indices into ``prefs`` and each item's position in it
    into ``rank``.  An agent already in ``prefs`` was checked before."""
    # Checked on the keys present, so the cost and the message do not grow
    # with ``n``: n keys, each in 1..n, are exactly the agents 1..n.
    if len(rankings) != n or not all(isinstance(a, int) and 1 <= a <= n for a in rankings):
        raise InstanceError("rankings", f"need exactly agents 1..{n}, got {_clip(str(sorted(rankings)))}")
    m = len(index)
    for agent, ranking in rankings.items():
        if agent in prefs:
            continue
        pref = tuple([index.get(it) if isinstance(it, str) else None for it in ranking])
        if len(pref) != m or None in pref or len(set(pref)) != m:
            raise InstanceError(f"rankings.{agent}", "not a permutation of the item set")
        inverse = [0] * m
        for pos, i in enumerate(pref):
            inverse[i] = pos
        prefs[agent], rank[agent] = pref, tuple(inverse)


def _validate(inst: Instance) -> _IntegerView:
    """Check every field and return the instance's integer view."""
    # Counts and agents are exact ints: ``type(...) is int`` also rejects
    # ``bool``, which is a subclass of ``int``.
    n = inst.n_agents
    if type(n) is not int:
        raise InstanceError("agents", "must be an integer")
    if n < 1:
        raise InstanceError("agents", "need at least one agent")
    items = inst.items
    m = len(items)
    try:
        index = {item: i for i, item in enumerate(items)}
    except TypeError:  # an unhashable identifier, which the loop below rejects
        index = None
    if index is not None and len(index) != m:
        raise InstanceError("items", "duplicate item identifiers")
    for it in items:
        if not isinstance(it, str) or not it:
            raise InstanceError("items", f"item identifiers must be non-empty strings, got {_clip(repr(it))}")
    _check_policy(inst.policy, m, n)
    prefs: dict[Agent, tuple[int, ...]] = {}
    rank: dict[Agent, tuple[int, ...]] = {}
    _check_rankings(inst.rankings, n, index, prefs, rank)
    if set(inst.utility) != index.keys():
        raise InstanceError("utilities", "must assign a value to exactly the item set")
    for item, value in inst.utility.items():
        if not isinstance(value, Fraction):
            raise InstanceError(f"utilities.{_clip(item)}", f"expected an exact rational, got {type(value).__name__}")
        if value.numerator <= 0:  # a Fraction's denominator is positive
            raise InstanceError(
                f"utilities.{_clip(item)}", f"utilities must be strictly positive, got {_clip(str(value))}"
            )
    utility = tuple(inst.utility[item] for item in items)
    scale = 1
    for u in utility:
        scale = math.lcm(scale, u.denominator)
        if scale >= _SCALE_LIMIT:
            raise InstanceError(
                "utilities", f"the denominators' least common multiple has more than {_SCALE_DIGITS} digits"
            )
    weight = tuple(u.numerator * (scale // u.denominator) for u in utility)
    pref1 = prefs[MANIPULATOR]
    for better, worse in zip(pref1, pref1[1:]):
        if not weight[better] > weight[worse]:
            b, w = _clip(items[better]), _clip(items[worse])
            raise InstanceError(
                f"utilities.{w}",
                f"utility inconsistent with ranking: u({b})={_clip(str(utility[better]))} "
                f"must exceed u({w})={_clip(str(utility[worse]))}",
            )
    return _IntegerView(index, prefs, rank, scale, weight, tuple([1 << i for i in range(m)]))


def make_instance(
    items: Iterable[Item],
    n_agents: int,
    policy: Iterable[Agent],
    rankings: Mapping[Agent, Iterable[Item]],
    utility: Mapping[Item, object],
) -> Instance:
    """Canonicalise raw fields into a validated :class:`Instance`.

    Items are stored sorted, rankings as tuples, and utility values are
    converted to :class:`fractions.Fraction` (Fractions, integers and
    integer or "p/q" strings accepted; floats and booleans rejected).
    """
    items = tuple(items)
    with contextlib.suppress(TypeError):  # identifiers of mixed types, which the validator rejects
        items = tuple(sorted(items))
    return Instance(
        items=items,
        n_agents=n_agents,
        policy=tuple(policy),
        rankings={int(agent): tuple(r) for agent, r in rankings.items()},
        utility={item: _rational(item, v) for item, v in utility.items()},
    )


def parse_instance(text: str) -> Instance:
    """Parse and validate an instance document (JSON, UTF-8).

    The document format::

        {
          "items": ["a", "b", "c"],
          "agents": 2,
          "policy": [1, 2, 1],
          "rankings": {"1": ["a", "b", "c"], "2": ["b", "c", "a"]},
          "utilities": {"a": "3", "b": "2", "c": "1"}
        }

    Utility values are decimal integers or "p/q" rational strings.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too-long integers and too-deep nesting
        raise InstanceError("document", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("document", "top level must be an object")
    missing = _DOCUMENT_KEYS - set(doc)
    if missing:
        raise InstanceError("document", f"missing keys: {sorted(missing)}")
    unknown = set(doc) - _DOCUMENT_KEYS
    if unknown:
        raise InstanceError("document", f"unknown keys: {_clip(str(sorted(unknown)))}")
    items = doc["items"]
    if not isinstance(items, list):
        raise InstanceError("items", "must be a list of item identifiers")
    if not isinstance(doc["policy"], list):
        raise InstanceError("policy", "must be a list of agent indices")
    if not isinstance(doc["rankings"], dict):
        raise InstanceError("rankings", "must be an object keyed by agent index")
    if not isinstance(doc["utilities"], dict):
        raise InstanceError("utilities", "must be an object keyed by item")
    rankings: dict[Agent, list[Item]] = {}
    for key, ranking in doc["rankings"].items():
        path = f"rankings.{_clip(key)}"
        try:
            if not _AGENT_KEY.fullmatch(key):
                raise ValueError(key)
            agent = int(key)
        except ValueError as exc:  # also a key past CPython's integer digit limit
            raise InstanceError(path, "agent keys must be unsigned decimal integers with no leading zero") from exc
        if not isinstance(ranking, list):
            raise InstanceError(path, "ranking must be a list of items")
        rankings[agent] = ranking
    return make_instance(items, doc["agents"], doc["policy"], rankings, doc["utilities"])


def serialize_instance(inst: Instance) -> str:
    """Canonical JSON for an instance: sorted keys, reduced rationals."""
    doc = {
        "items": list(inst.items),
        "agents": inst.n_agents,
        "policy": list(inst.policy),
        "rankings": {str(agent): list(r) for agent, r in inst.rankings.items()},
        "utilities": {item: str(value) for item, value in inst.utility.items()},
    }
    return json.dumps(doc, sort_keys=True, indent=2)


# ``Fraction(v)`` for v below 64, shared by the instances generated with
# fewer items: a table of fixed size, where a cache per item count would
# grow with the input.
_SMALL_FRACTIONS = tuple(map(Fraction, range(64)))


def generate_random_instance(n_agents: int, n_items: int, seed: int) -> Instance:
    """Deterministic random instance: uniform rankings and policy.

    The manipulator's utilities are the integers ``n_items .. 1`` assigned
    along its ranking; magnitudes do not matter to the ordinal agents.

    The instance is the one that ``rng = random.Random(seed)`` gives with
    ``rng.sample(items, n_items)`` per agent, then ``rng.randrange(1,
    n_agents + 1)`` per turn.  Those draws are made here from
    ``rng.getrandbits`` alone, the way ``sample`` (whose pool branch every
    full permutation takes) and ``randrange`` make them, so the stream does
    not rest on those methods' internals, which Python may change.
    """
    if n_agents < 1:
        raise InstanceError("agents", "need at least one agent")
    if n_items < 0:
        raise InstanceError("items", "item count must be non-negative")
    getrandbits = random.Random(seed).getrandbits
    items = [f"g{i}" for i in range(1, n_items + 1)]
    rankings = {}
    for agent in range(1, n_agents + 1):
        # ``sample``'s pool branch: draw j below the pool's size, take
        # pool[j] and fill its place with the pool's last item.
        pool = items[:]
        ranking = []
        for size in range(n_items, 0, -1):
            bits = size.bit_length()
            j = getrandbits(bits)
            while j >= size:  # ``_randbelow``: redraw until below ``size``
                j = getrandbits(bits)
            ranking.append(pool[j])
            pool[j] = pool[size - 1]
        rankings[agent] = tuple(ranking)
    # ``randrange(1, n_agents + 1)`` is 1 + ``_randbelow(n_agents)``.
    bits = n_agents.bit_length()
    policy = []
    for _ in range(n_items):
        agent = getrandbits(bits)
        while agent >= n_agents:
            agent = getrandbits(bits)
        policy.append(agent + 1)
    # The canonical fields that ``make_instance`` would store.
    if n_items < len(_SMALL_FRACTIONS):
        values = _SMALL_FRACTIONS[n_items:0:-1]
    else:
        values = map(Fraction, range(n_items, 0, -1))
    utility = dict(zip(rankings[MANIPULATOR], values))
    return Instance(tuple(sorted(items)), n_agents, tuple(policy), rankings, utility)


def generate_tightness_instance(k: int) -> Instance:
    """The three-item family whose truthful/optimal ratio approaches 1/2.

    With ``eps = 1/k`` the manipulator values the items 1, 1-eps, eps; the
    policy is 121.  Requires ``k >= 3`` so the two cheap items keep strictly
    different utilities.
    """
    if k < 3:
        raise InstanceError("k", "need k >= 3: k = 2 would give two items equal utility 1/2")
    eps = Fraction(1, k)
    return make_instance(
        items=["g1", "g2", "g3"],
        n_agents=2,
        policy=[1, 2, 1],
        rankings={1: ["g1", "g2", "g3"], 2: ["g2", "g3", "g1"]},
        utility={"g1": Fraction(1), "g2": 1 - eps, "g3": eps},
    )


# ``policy`` imports this module's names, so it is imported once they exist.
from . import policy as _policies  # noqa: E402
