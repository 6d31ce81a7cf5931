"""Every JSON text the package writes goes through `errors.encode_json`, which
must print exactly what `json.dumps(obj, indent=2)` prints."""

import json
import random
from fractions import Fraction

import pytest

from conftest import FIXTURES
from fuzzybisim import (
    FuzzyAutomaton,
    FuzzyRelation,
    automaton_to_obj,
    parse_automaton,
    relation_json_array,
    serialize_automaton,
    serialize_relation,
)
from fuzzybisim.errors import encode_json
from fuzzybisim.oracle import random_automaton, random_relation

# quotes, backslashes, control characters, DEL, non-ASCII and a character
# outside the basic plane, which json escapes as a surrogate pair
_CHARS = 'ab "\\/\n\t\x00\x1f\x7fé€\U0001f600'


def _text(rng) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _value(rng, depth: int):
    kind = rng.randrange(7 if depth < 4 else 4)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return rng.randint(-10 ** 30, 10 ** 30)
    if kind == 3:
        return rng.randint(-3, 3)
    if kind in (4, 5):
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {_text(rng): _value(rng, depth + 1) for _ in range(rng.randrange(4))}


def test_writer_matches_json_dumps_on_random_objects():
    rng = random.Random(32)
    for _ in range(3000):
        obj = _value(rng, 0)
        assert encode_json(obj) == json.dumps(obj, indent=2), obj


def test_writer_matches_json_dumps_on_edge_values():
    for obj in ([], {}, [[]], {"": {}}, [{}, []], "", "é", True, None, 0, -7,
                {"a": [1, {"b": [None, False]}]}, [[[["deep"]]]]):
        assert encode_json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [1.5, (1, 2), {1, 2}, Fraction(1, 2), {1: "a"},
                                 {"a": [0.5]}, [b"bytes"], [{"k": object()}]])
def test_writer_refuses_what_the_package_never_writes(obj):
    with pytest.raises(TypeError):
        encode_json(obj)


@pytest.mark.parametrize("name", ["ex_a.json", "ex_a_prime.json"])
def test_serialize_automaton_matches_json_dumps_on_the_fixtures(name):
    aut = parse_automaton((FIXTURES / name).read_text())
    assert serialize_automaton(aut) == json.dumps(automaton_to_obj(aut), indent=2)


def test_serializers_match_json_dumps_on_random_automata_and_relations():
    pools = (["1/4", "1/2", "3/4", "1"], [f"{i}/10" for i in range(11)], ["1/3", "2/5", "1"])
    for seed in range(30):
        pool = pools[seed % 3]
        a = random_automaton("A", 1 + seed % 7, ["a", "b"], pool, seed)
        b = random_automaton("Bé", 1 + seed % 5, ["b", "c"], pool, seed + 100)
        for aut in (a, b):
            assert serialize_automaton(aut) == json.dumps(automaton_to_obj(aut), indent=2)
        phi = random_relation(a.states, b.states, pool, seed, density=(0.0, 0.5, 1.0)[seed % 3])
        text = serialize_relation(phi.relation)
        assert text == json.dumps(relation_json_array(phi.relation), indent=2)


def test_serializers_match_json_dumps_on_escaped_names():
    names = ["pé", 'q"', "r\\s", "t\nu", "\U0001f600"]
    aut = FuzzyAutomaton("€", names, ["\x7f", "a b"],
                         {(names[0], "\x7f", names[1]): "1/2", (names[4], "a b", names[2]): "1"},
                         {names[3]: "1"}, {names[1]: "2/3"})
    assert serialize_automaton(aut) == json.dumps(automaton_to_obj(aut), indent=2)
    phi = FuzzyRelation({(x, y): "1/3" for x in names for y in names[:2]})
    assert serialize_relation(phi) == json.dumps(relation_json_array(phi), indent=2)
