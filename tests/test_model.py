import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import seqmanip as sm
from _util import example1, example1_document

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=200, database=None)


def test_parse_example1(ex1_document):
    inst = sm.parse_instance(ex1_document)
    assert inst.m == 5
    assert inst.n_agents == 3
    assert inst.m_prime == 3
    assert inst.k1 == 2
    assert inst.policy == (1, 3, 2, 2, 1)
    assert inst.rankings[2] == ("c", "b", "e", "d", "a")
    assert inst.utility["a"] == Fraction(5)


def test_roundtrip_example1(ex1_document):
    inst = sm.parse_instance(ex1_document)
    assert sm.parse_instance(sm.serialize_instance(inst)) == inst


def test_roundtrip_generated():
    for seed in range(25):
        inst = sm.generate_random_instance(n_agents=1 + seed % 4, n_items=seed % 9, seed=seed)
        assert sm.parse_instance(sm.serialize_instance(inst)) == inst


def test_serialized_form_is_canonical():
    inst = sm.generate_random_instance(3, 6, seed=5)
    doc = json.loads(sm.serialize_instance(inst))
    assert list(doc) == sorted(doc)
    assert doc["items"] == sorted(doc["items"])
    assert doc["utilities"]["g1"] == "6" or "/" not in doc["utilities"]["g1"]


def test_utility_inconsistent_with_ranking(ex1_document):
    doc = json.loads(ex1_document)
    doc["utilities"]["b"] = "7"  # b outranks a's 5 although a is preferred
    with pytest.raises(sm.InstanceError, match="utility inconsistent with ranking"):
        sm.parse_instance(json.dumps(doc))


def test_equal_utilities_along_the_ranking_are_rejected():
    # Utilities must fall strictly along the manipulator's ranking: a tie is
    # as inconsistent as an inversion.
    with pytest.raises(sm.InstanceError) as err:
        sm.make_instance(["a", "b"], 1, [1, 1], {1: ["a", "b"]}, {"a": 5, "b": 5})
    assert str(err.value) == "utilities.b: utility inconsistent with ranking: u(a)=5 must exceed u(b)=5"


def test_empty_instance_is_valid():
    doc = {"items": [], "agents": 2, "policy": [], "rankings": {"1": [], "2": []}, "utilities": {}}
    inst = sm.parse_instance(json.dumps(doc))
    assert inst.m == 0
    assert inst.k1 == 0


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda d: d["rankings"].__setitem__("2", ["c", "b", "e", "d", "d"]), "rankings.2"),
        (lambda d: d["rankings"].__setitem__("3", ["e", "b", "d", "c"]), "rankings.3"),
        (lambda d: d["policy"].append(1), "policy"),
        (lambda d: d["policy"].__setitem__(0, 4), "policy[0]"),
        (lambda d: d["policy"].__setitem__(2, 0), "policy[2]"),
        (lambda d: d["utilities"].__setitem__("e", "0"), "utilities.e"),
        (lambda d: d["utilities"].__setitem__("e", "-1/2"), "utilities.e"),
        (lambda d: d["utilities"].pop("a"), "utilities"),
        (lambda d: d["rankings"].pop("3"), "rankings"),
        (lambda d: d.__setitem__("items", ["a", "b", "c", "d", "d"]), "items"),
        (lambda d: d.pop("policy"), "document"),
        (lambda d: d.__setitem__("extra", 1), "document"),
        (lambda d: d["utilities"].__setitem__("a", "5/0"), "utilities.a"),
        (lambda d: d["utilities"].__setitem__("a", "not-a-number"), "utilities.a"),
        pytest.param(lambda d: d["policy"].__setitem__(0, True), "policy[0]", id="bool-policy-entry"),
        pytest.param(lambda d: d.__setitem__("agents", True), "agents", id="bool-agents"),
        pytest.param(
            lambda d: d["rankings"].__setitem__("01", ["e", "b", "d", "c", "a"]),
            "rankings.01",
            id="duplicate-agent-key",
        ),
        # a key for agent 2 in any form but the one serialize_instance writes
        *[
            pytest.param(
                lambda d, key=key: d["rankings"].__setitem__(key, d["rankings"].pop("2")), f"rankings.{key}", id=name
            )
            for key, name in [
                (" 2", "agent-key-leading-space"),
                ("2 ", "agent-key-trailing-space"),
                ("+2", "agent-key-sign"),
                ("0_2", "agent-key-underscore"),
                ("02", "agent-key-leading-zero"),
                ("\u0662", "agent-key-arabic-indic-digit"),
            ]
        ],
        pytest.param(lambda d: d["utilities"].__setitem__("e", 0.3), "utilities.e", id="float-utility"),
        pytest.param(lambda d: d["utilities"].__setitem__("e", "0.3"), "utilities.e", id="decimal-utility"),
        pytest.param(lambda d: d["utilities"].__setitem__("a", "1e100000"), "utilities.a", id="exponent-utility"),
    ],
)
def test_validator_rejects_mutants(ex1_document, mutate, path_fragment):
    doc = json.loads(ex1_document)
    mutate(doc)
    with pytest.raises(sm.InstanceError) as err:
        sm.parse_instance(json.dumps(doc))
    assert path_fragment in str(err.value)


def _three_item_document(**changes) -> dict:
    doc = {
        "items": ["g1", "g2", "g3"],
        "agents": 2,
        "policy": [1, 2, 1],
        "rankings": {"1": ["g1", "g2", "g3"], "2": ["g3", "g2", "g1"]},
        "utilities": {"g1": "3", "g2": "2", "g3": "1"},
    }
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "doc, path_prefix",
    [
        pytest.param(
            _three_item_document(utilities={"g1": "9" * 5000, "g2": "2", "g3": "1"}),
            "utilities.g1",
            id="5000-digit-utility",
        ),
        pytest.param(
            _three_item_document(rankings={"1": ["g1", "g2", "g3"], "2" * 5000: ["g3", "g2", "g1"]}),
            "rankings.",
            id="5000-digit-rankings-key",
        ),
        pytest.param(
            _three_item_document(utilities={"g1": "x" * 100000, "g2": "2", "g3": "1"}),
            "utilities.g1",
            id="100000-character-utility",
        ),
        pytest.param(_three_item_document(policy=[[1] * 100000, 2, 1]), "policy[0]", id="list-policy-entry"),
        pytest.param(
            _three_item_document(utilities={"g1": -(10**4000), "g2": 2, "g3": 1}),
            "utilities.g1",
            id="4000-digit-negative-utility",
        ),
        pytest.param(_three_item_document(items=["g1", "g2", ["g3"] * 100000]), "items", id="list-item"),
        pytest.param(_three_item_document(**{"x" * 100000: 1}), "document", id="100000-character-key"),
    ],
)
def test_error_size_does_not_grow_with_the_input(doc, path_prefix):
    with pytest.raises(sm.InstanceError) as err:
        sm.parse_instance(json.dumps(doc))
    assert err.value.path.startswith(path_prefix)
    assert len(str(err.value)) < 300


def test_weight_scale_is_limited_to_4300_digits(ex1_document):
    doc = json.loads(ex1_document)
    # One 4300-digit denominator is a scale of 4300 digits: accepted.
    doc["utilities"]["e"] = f"1/{10**4299}"
    assert len(str(sm.parse_instance(json.dumps(doc)).view.scale)) == 4300
    # Two coprime 2200-digit denominators: a scale of 4399 digits, rejected
    # before the weights are made.
    doc["utilities"]["d"] = f"1/{10**2199 + 1}"
    doc["utilities"]["e"] = f"1/{10**2199 * 2}"
    with pytest.raises(sm.InstanceError) as err:
        sm.parse_instance(json.dumps(doc))
    assert err.value.path == "utilities"
    assert "more than 4300 digits" in err.value.message


def test_parse_rejects_non_json():
    with pytest.raises(sm.InstanceError, match="document"):
        sm.parse_instance("this is not json")


@pytest.mark.parametrize(
    "text",
    [
        pytest.param('{"agents": ' + "1" * 5000 + "}", id="integer-past-digit-limit"),
        pytest.param("[" * 100000 + "]" * 100000, id="nesting-past-recursion-limit"),
    ],
)
def test_parse_rejects_json_the_decoder_cannot_hold(text):
    with pytest.raises(sm.InstanceError) as err:
        sm.parse_instance(text)
    assert err.value.path == "document"


def test_generator_is_deterministic():
    a = sm.generate_random_instance(3, 6, seed=7)
    b = sm.generate_random_instance(3, 6, seed=7)
    assert a == b
    assert a != sm.generate_random_instance(3, 6, seed=8)


def test_generator_single_agent_owns_every_turn():
    inst = sm.generate_random_instance(1, 4, seed=0)
    assert inst.policy == (1, 1, 1, 1)
    assert inst.k1 == 4


def test_generator_output_validates():
    # construction runs the validator; parsing the serialized form re-runs it
    inst = sm.generate_random_instance(3, 6, seed=7)
    reparsed = sm.parse_instance(sm.serialize_instance(inst))
    assert reparsed == inst


def test_generator_utilities_decrease_along_ranking():
    inst = sm.generate_random_instance(4, 8, seed=3)
    ranking = inst.manipulator_ranking
    values = [inst.utility[item] for item in ranking]
    assert values == sorted(values, reverse=True)
    assert values[0] == Fraction(8)
    assert values[-1] == Fraction(1)


def test_tightness_instance_values():
    inst = sm.generate_tightness_instance(10)
    assert inst.policy == (1, 2, 1)
    assert inst.utility["g1"] == Fraction(1)
    assert inst.utility["g2"] == Fraction(9, 10)
    assert inst.utility["g3"] == Fraction(1, 10)
    assert inst.rankings[2] == ("g2", "g3", "g1")


@pytest.mark.parametrize("k", [0, 1, 2])
def test_tightness_requires_k_at_least_three(k):
    with pytest.raises(sm.InstanceError):
        sm.generate_tightness_instance(k)


def test_tightness_validates_for_k_at_least_three():
    for k in (3, 4, 17, 1000):
        inst = sm.generate_tightness_instance(k)
        assert sm.parse_instance(sm.serialize_instance(inst)) == inst


def test_instance_error_carries_path():
    err = sm.InstanceError("utilities.b", "boom")
    assert err.path == "utilities.b"
    assert "boom" in str(err)


def test_with_policy_revalidates(ex1):
    with pytest.raises(sm.InstanceError):
        ex1.with_policy((1, 1, 1, 1))  # wrong length
    variant = ex1.with_policy((3, 2, 1, 2, 1))
    assert variant.policy == (3, 2, 1, 2, 1)
    assert variant.items == ex1.items


EXAMPLE1_REPR = (
    "Instance(items=('a', 'b', 'c', 'd', 'e'), n_agents=3, policy=(1, 3, 2, 2, 1), "
    "rankings={1: ('a', 'b', 'c', 'd', 'e'), 2: ('c', 'b', 'e', 'd', 'a'), 3: ('e', 'b', 'd', 'c', 'a')}, "
    "utility={'a': Fraction(5, 1), 'b': Fraction(4, 1), 'c': Fraction(3, 1), 'd': Fraction(2, 1), "
    "'e': Fraction(1, 1)})"
)


def test_instance_is_a_frozen_record_of_five_fields(ex1):
    assert repr(ex1) == EXAMPLE1_REPR
    fields = (ex1.items, ex1.n_agents, ex1.policy, ex1.rankings, ex1.utility)
    assert sm.Instance(*fields) == ex1
    assert sm.Instance(*fields[:2], policy=ex1.policy, rankings=ex1.rankings, utility=ex1.utility) == ex1
    assert ex1 != ex1.with_policy((3, 2, 1, 2, 1)) and ex1 != fields
    # The view and the decomposition are derived, so they take no part in
    # equality or the repr.
    assert ex1.decomposition == sm.decompose(ex1.policy)
    other = example1()
    other.__dict__.update(view=None, decomposition=None)
    assert other == ex1 and repr(other) == repr(ex1)
    for name in ["items", "view", "m", "extra"]:
        with pytest.raises(AttributeError):
            setattr(ex1, name, None)
        with pytest.raises(AttributeError):
            delattr(ex1, name)
    with pytest.raises(TypeError):
        hash(ex1)
    assert repr(ex1) == EXAMPLE1_REPR


def test_agent_check_does_not_grow_with_agents_value():
    doc = {
        "items": ["a", "b", "c"],
        "agents": 100000,
        "policy": [1, 2, 1],
        "rankings": {"1": ["a", "b", "c"], "2": ["c", "b", "a"]},
        "utilities": {"a": "3", "b": "2", "c": "1"},
    }
    with pytest.raises(sm.InstanceError) as err:
        sm.parse_instance(json.dumps(doc))
    assert err.value.path == "rankings"
    assert str(err.value) == "rankings: need exactly agents 1..100000, got [1, 2]"
    assert len(str(err.value)) < 200


def _make_with_policy(inst, policy):
    return sm.make_instance(inst.items, inst.n_agents, policy, inst.rankings, inst.utility)


def test_with_policy_checks_only_the_policy(ex1, monkeypatch):
    def no_validation(inst):
        raise AssertionError("with_policy must not revalidate the instance")

    with monkeypatch.context() as patch:
        patch.setattr("seqmanip.model._validate", no_validation)
        variant = ex1.with_policy((3, 2, 1, 2, 1))
        bad = {}
        for policy in [(True, 3, 2, 2, 1), (1, 3, 2, 4, 1), (1, 3, 2, 2)]:
            with pytest.raises(sm.InstanceError) as err:
                ex1.with_policy(policy)
            bad[policy] = err.value.path
    assert variant.policy == (3, 2, 1, 2, 1)
    assert variant.view is ex1.view
    # The copy carries its own policy's decomposition, never the parent's.
    assert variant.decomposition == sm.decompose((3, 2, 1, 2, 1)) != ex1.decomposition
    assert (variant.k1, variant.m_prime) == (2, 3)
    assert variant == _make_with_policy(ex1, (3, 2, 1, 2, 1))
    assert bad == {(True, 3, 2, 2, 1): "policy[0]", (1, 3, 2, 4, 1): "policy[3]", (1, 3, 2, 2): "policy"}
    for policy, path in bad.items():
        with pytest.raises(sm.InstanceError) as err:
            _make_with_policy(ex1, policy)
        assert err.value.path == path


# Replacement values of every JSON type for any value in a document.
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.sampled_from(["1e5", "0.3", "1/0", "-1", "", "a", "3", "1" * 5000]),
    st.text(max_size=4),
    st.lists(st.integers(0, 5), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _value_slots(value):
    """(container, key) of every value nested in a JSON value."""
    keys = range(len(value)) if isinstance(value, list) else value if isinstance(value, dict) else ()
    slots = []
    for key in keys:
        slots.append((value, key))
        slots += _value_slots(value[key])
    return slots


@st.composite
def _mutated_documents(draw):
    """example1's document after one to three mutations, as JSON text."""
    doc = json.loads(example1_document())
    duplicate = None
    for _ in range(draw(st.integers(1, 3))):
        kinds = ["drop", "add", "duplicate", "swap", "ranking", "agents", "reorder", "turn"]
        kind = draw(st.sampled_from(kinds))
        mappings = [doc] + [v for v in doc.values() if isinstance(v, dict)]
        if kind == "reorder":
            target = draw(st.sampled_from(mappings))
            for key in draw(st.permutations(list(target))):
                target[key] = target.pop(key)
        elif kind in ("drop", "add"):
            target = draw(st.sampled_from(mappings))
            if kind == "drop" and target:
                del target[draw(st.sampled_from(sorted(target)))]
            else:
                key = draw(st.one_of(st.sampled_from(["4", "01", " 2", "0", "-1", "f", "extra", "1_0"]), st.text(max_size=3)))
                target[key] = draw(st.one_of(_JSON_VALUES, st.just(["a", "b", "c", "d", "e"])))
        elif kind == "duplicate" and doc:
            key = draw(st.sampled_from(sorted(doc)))
            duplicate = (key, doc[key] if draw(st.booleans()) else draw(_JSON_VALUES))
        elif kind == "swap":
            container, key = draw(st.sampled_from(_value_slots(doc)))
            container[key] = draw(_JSON_VALUES)
        elif kind == "ranking":
            rankings = doc.get("rankings")
            lists = [r for r in rankings.values() if isinstance(r, list)] if isinstance(rankings, dict) else []
            if lists:
                ranking = draw(st.sampled_from(lists))
                edit = draw(st.sampled_from(["shuffle", "truncate", "extend"]))
                if edit == "shuffle":
                    ranking[:] = draw(st.permutations(ranking))
                elif edit == "truncate" and ranking:
                    del ranking[draw(st.integers(0, len(ranking) - 1)) :]
                else:
                    ranking.append(draw(st.sampled_from(["a", "e", "z"])))
        elif kind == "turn":  # give one turn to another agent, valid or not
            policy = doc.get("policy")
            if isinstance(policy, list) and policy:
                policy[draw(st.integers(0, len(policy) - 1))] = draw(st.integers(0, 4))
        else:
            doc["agents"] = draw(st.one_of(st.integers(-2, 6), st.sampled_from([100000, 10**30]), _JSON_VALUES))
    text = json.dumps(doc)
    if duplicate is not None:
        # A repeated top-level key; json.loads keeps the last of equal keys.
        pair = json.dumps(duplicate[0]) + ": " + json.dumps(duplicate[1])
        text = text[:-1] + (", " if doc else "") + pair + "}"
    return text


@PROPERTY_SETTINGS
@given(_mutated_documents())
def test_mutated_documents_roundtrip_or_fail_with_a_path(text):
    try:
        inst = sm.parse_instance(text)
    except sm.InstanceError as err:
        assert err.path
    else:
        assert sm.parse_instance(sm.serialize_instance(inst)) == inst


@PROPERTY_SETTINGS
@given(st.data())
def test_with_policy_matches_make_instance(data):
    inst = data.draw(st.sampled_from([example1(), sm.generate_random_instance(4, 6, seed=2)]))
    entries = st.one_of(st.integers(-1, inst.n_agents + 1), st.booleans())
    policy = data.draw(st.lists(entries, max_size=inst.m + 2))
    outcomes = []
    for build in (inst.with_policy, lambda p: _make_with_policy(inst, p)):
        try:
            outcomes.append(build(policy))
        except sm.InstanceError as err:
            outcomes.append(err.path)
    assert outcomes[0] == outcomes[1]


def test_instance_error_survives_pickling():
    err = pickle.loads(pickle.dumps(sm.InstanceError("items", "bad")))
    assert type(err) is sm.InstanceError
    assert (err.path, err.message, str(err)) == ("items", "bad", "items: bad")
