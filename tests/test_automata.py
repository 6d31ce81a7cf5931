import itertools
import json
from fractions import Fraction

import pytest

from fuzzybisim import (
    GOEDEL,
    LUKASIEWICZ,
    PRODUCT,
    ZERO,
    FuzzyAutomaton,
    automaton_from_obj,
    automaton_to_obj,
    delta_rel,
    lang_degree,
    lang_degree_from_state,
    max_live_word_length,
    parse_automaton,
    serialize_automaton,
)
from fuzzybisim import automata, fuzzyrel, hmlogic, simrel
from fuzzybisim.errors import InputError
from fuzzybisim.lattice import parse_degree
from fuzzybisim.oracle import random_automaton


def small(**overrides):
    base = dict(
        name="M",
        states=["p", "q"],
        alphabet=["a"],
        delta={("p", "a", "q"): "0.5"},
        sigma={"p": "1"},
        tau={"q": "0.8"},
    )
    base.update(overrides)
    return FuzzyAutomaton(**base)


def test_construction_and_accessors():
    aut = small()
    assert aut.states == ("p", "q")
    assert aut.alphabet == ("a",)
    assert aut.delta_degree("p", "a", "q") == Fraction(1, 2)
    assert aut.delta_degree("p", "b", "q") == ZERO  # b is outside the alphabet
    assert delta_rel(aut, "a").degree("p", "q") == Fraction(1, 2)
    with pytest.raises(InputError):
        delta_rel(aut, "b")
    with pytest.raises(AttributeError):
        aut.name = "N"
    # transitions given out of order over two symbols come back sorted by
    # (from, symbol, to), and the order they were given in does not matter
    given = [(("q", "b", "p"), "1/3"), (("q", "a", "q"), "1/4"),
             (("p", "b", "q"), "1/5"), (("p", "a", "q"), "1/2")]
    two = small(alphabet=["b", "a"], delta=given)
    assert two.transitions() == sorted((key, Fraction(d)) for key, d in given)
    assert two == small(alphabet=["b", "a"], delta=given[::-1])
    assert two.delta_degree("q", "c", "p") == ZERO
    assert repr(two) == "FuzzyAutomaton('M', states=2, alphabet=['b', 'a'], transitions=4)"


def test_zero_transitions_dropped():
    aut = small(delta={("p", "a", "q"): "0.5", ("q", "a", "p"): "0"})
    assert aut.transitions() == [(("p", "a", "q"), Fraction(1, 2))]


@pytest.mark.parametrize("overrides", [
    dict(states=[]),
    dict(states=["p", "p"]),
    dict(alphabet=["a", "a"]),
    dict(delta={("p", "a", "z"): "0.5"}),
    dict(delta={("z", "a", "q"): "0.5"}),
    dict(delta={("p", "b", "q"): "0.5"}),
    dict(sigma={"z": "1"}),
    dict(tau={"z": "1"}),
    dict(delta={("p", "a", "q"): "1.5"}),
    dict(delta={("p", "q"): "0.5"}),
    dict(sigma={"p": "1", "z": "0"}),
    dict(tau={"q": "0.8", "z": "0"}),
    dict(sigma=[("p", "1"), ("z", "0")]),
])
def test_construction_rejects(overrides):
    with pytest.raises(InputError):
        small(**overrides)


def test_lang_degree_on_reference_pair(aut_a, aut_ap):
    assert lang_degree(GOEDEL, aut_a, ("s",)) == Fraction(7, 10)
    assert lang_degree(GOEDEL, aut_ap, ("s",)) == Fraction(3, 5)
    assert lang_degree(GOEDEL, aut_a, ()) == ZERO
    assert lang_degree(GOEDEL, aut_a, ("s", "s")) == ZERO
    assert lang_degree(LUKASIEWICZ, aut_a, ("s",)) == Fraction(1, 5)
    assert lang_degree(PRODUCT, aut_a, ("s",)) == Fraction(49, 125)


def test_lang_degree_rejects_unknown_symbol(aut_a):
    with pytest.raises(InputError):
        lang_degree(GOEDEL, aut_a, ("t",))


def test_lang_degree_from_state(aut_a):
    assert lang_degree_from_state(GOEDEL, aut_a, "u", ("s",)) == Fraction(7, 10)
    assert lang_degree_from_state(GOEDEL, aut_a, "v", ()) == Fraction(3, 5)
    with pytest.raises(InputError):
        lang_degree_from_state(GOEDEL, aut_a, "z", ())


def test_max_live_word_length(aut_a):
    assert max_live_word_length(aut_a) == 1
    chain = FuzzyAutomaton(
        name="chain", states=["1", "2", "3"], alphabet=["a"],
        delta={("1", "a", "2"): "1/2", ("2", "a", "3"): "1/2"},
        sigma={"1": "1"}, tau={"3": "1"})
    assert max_live_word_length(chain) == 2
    assert max_live_word_length(chain, ["2"]) == 1
    assert max_live_word_length(chain, []) == 0
    looped = small(delta={("p", "a", "q"): "0.5", ("q", "a", "p"): "0.5"})
    assert max_live_word_length(looped) is None
    # terminal state unreachable from the initial one: nothing is live
    deaf = small(delta={}, sigma={"p": "1"}, tau={"q": "1"})
    assert max_live_word_length(deaf) == 0


def test_json_round_trip(aut_a, aut_ap):
    for aut in (aut_a, aut_ap):
        again = automaton_from_obj(automaton_to_obj(aut))
        assert again == aut
    assert parse_automaton(serialize_automaton(aut_a)) == aut_a


def test_serialization_is_canonical(aut_a):
    first = serialize_automaton(aut_a)
    second = serialize_automaton(parse_automaton(first))
    assert first == second
    obj = json.loads(first)
    assert list(obj) == ["name", "alphabet", "states", "initial", "terminal", "transitions"]
    assert obj["initial"] == {"u": "7/10"}


# each mutation of the fixture's object, with the message it must raise
_AUTOMATON_REJECTS = {
    lambda o: o.pop("name"): r"^automaton is missing fields \['name'\]$",
    lambda o: o.update(name=7): "name must be a string",
    lambda o: o.update(extra=1): r"^automaton has unknown fields \['extra'\]$",
    lambda o: o.update(states="uvw"): "states must be an array of strings",
    lambda o: o.update(initial=[]): "initial must be an object",
    lambda o: o["transitions"].append(o["transitions"][0]): "duplicate transition",
    lambda o: o["transitions"][0].pop("degree"): r"^transition is missing fields \['degree'\]$",
    lambda o: o["transitions"][0].update(degree=0.5): "inexact float degree",
    lambda o: o["transitions"][0].update(junk=1): r"^transition has unknown fields \['junk'\]$",
    lambda o: o.update(transitions={}): "transitions must be an array",
    lambda o: o["transitions"].append(["u", "s", "v", "1"]):
        r"^transition must be an object, got \['u', 's', 'v', '1'\]$",
    lambda o: o["transitions"][0].update(symbol=1): "must be strings, got 1",
    # the reader checks every object's shape before FuzzyAutomaton parses a degree
    lambda o: (o["transitions"][0].update(degree="2"), o["transitions"].__setitem__(1, "t")):
        "^transition must be an object, got 't'$",
}


@pytest.mark.parametrize("mutate", list(_AUTOMATON_REJECTS))
def test_automaton_from_obj_rejects(aut_a, mutate):
    obj = automaton_to_obj(aut_a)
    mutate(obj)
    with pytest.raises(InputError, match=_AUTOMATON_REJECTS[mutate]):
        automaton_from_obj(obj)


def test_parse_automaton_parses_each_degree_once(monkeypatch):
    aut = random_automaton("A", 24, ["a", "b", "c"], [f"{i}/10" for i in range(11)], 1)
    text = serialize_automaton(aut)
    calls = []
    for module in (automata, fuzzyrel):
        monkeypatch.setattr(module, "parse_degree", lambda v: calls.append(v) or parse_degree(v))
    assert parse_automaton(text) == aut
    obj = json.loads(text)
    degrees = [t["degree"] for t in obj["transitions"]]
    degrees += [*obj["initial"].values(), *obj["terminal"].values()]
    assert len(degrees) == 629             # 612 transitions; the 0 draws are not written
    assert sorted(calls) == sorted(degrees)     # once each, on the string in the file


def test_computed_relations_are_not_parsed_again(monkeypatch):
    # degrees enter through parse_degree once; what the lattice operations
    # make from them is built without checking it again
    pool = [f"{i}/6" for i in range(7)]
    a = random_automaton("A", 5, ["a", "b"], pool, 1)
    ap = random_automaton("B", 4, ["a", "c"], pool, 2)
    guard = Fraction(1, 2)
    formula = hmlogic.Implies(guard, hmlogic.Step("a", hmlogic.TAU))
    calls = []
    for module in (automata, fuzzyrel, simrel, hmlogic):
        monkeypatch.setattr(module, "parse_degree", lambda v: calls.append(v) or parse_degree(v))
    for lat in (GOEDEL, LUKASIEWICZ, PRODUCT):
        simrel.greatest_fuzzy_simulation(lat, a, ap, max_iters=20)
        simrel.greatest_fuzzy_bisimulation(lat, a, ap, max_iters=20)
        list(itertools.islice(simrel.refinement_steps(lat, a, ap, "bisim"), 5))
        hmlogic.hm_degree_bounded(lat, a, ap, 1, "sim")
        hmlogic.eval_formula(lat, a, formula)
    assert calls == [guard] * 3


def test_parse_automaton_rejects_bad_json():
    with pytest.raises(InputError):
        parse_automaton("{not json")
    with pytest.raises(InputError, match=r"^automaton must be an object, got \['array'\]$"):
        parse_automaton('["array"]')


def test_parse_automaton_rejects_over_deep_json():
    with pytest.raises(InputError, match="malformed automaton JSON"):
        parse_automaton("[" * 100000 + "]" * 100000)


def test_equality():
    assert small() == small()
    assert small() != small(name="N")
    assert small() != small(tau={"q": "0.9"})
