import json
from fractions import Fraction

import pytest

import seqmanip as sm
from _util import example1_document


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


def test_parse_rejects_non_json():
    with pytest.raises(sm.InstanceError, match="document"):
        sm.parse_instance("this is not json")


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
