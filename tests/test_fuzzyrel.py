import json
import random
from fractions import Fraction

import pytest

from fuzzybisim import (
    GOEDEL,
    LUKASIEWICZ,
    ONE,
    PRODUCT,
    ZERO,
    FuzzyRelation,
    FuzzySet,
    compose_rel_rel,
    compose_rel_set,
    compose_set_rel,
    compose_set_set,
    converse,
    equality,
    identity_rel,
    is_reflexive,
    is_symmetric,
    is_transitive,
    parse_relation,
    pointwise_leq,
    relation_json_array,
    scalar_meet,
    serialize_relation,
    subsethood,
    union,
)
from fuzzybisim import fuzzyrel
from fuzzybisim.errors import InputError
from fuzzybisim.lattice import parse_degree

LATTICES = (GOEDEL, LUKASIEWICZ, PRODUCT)


def random_rel(rng, left, right, density=0.6):
    entries = {}
    for x in left:
        for y in right:
            if rng.random() < density:
                entries[(x, y)] = Fraction(rng.randint(0, 10), 10)
    return FuzzyRelation(entries)


def test_fuzzy_set_basics():
    f = FuzzySet({"a": "0.5", "b": 0, "c": 1})
    assert f.degree("a") == Fraction(1, 2)
    assert f.degree("b") == ZERO
    assert f.degree("missing") == ZERO
    assert f.support() == {"a", "c"}
    assert len(f) == 2
    assert bool(f)
    assert not bool(FuzzySet())
    assert f == FuzzySet({"c": "1", "a": "1/2"})
    # entries come back in key order, whatever order they were given in
    assert FuzzySet({"c": "1", "b": "1/3", "a": "1/2"}).items() == [
        ("a", Fraction(1, 2)), ("b", Fraction(1, 3)), ("c", ONE)]


def test_fuzzy_relation_basics():
    phi = FuzzyRelation({("a", "b"): "0.5", ("a", "c"): "0"})
    assert phi.degree("a", "b") == Fraction(1, 2)
    assert phi.degree("a", "c") == ZERO
    assert phi.support() == {("a", "b")}
    with pytest.raises(InputError):
        FuzzyRelation({"ab": "0.5"})


def test_a_relation_is_a_fuzzy_set_over_pairs():
    phi = FuzzyRelation({("a", "b"): "1/2"})
    assert isinstance(phi, FuzzySet)
    assert FuzzySet() != FuzzyRelation() and FuzzyRelation() != FuzzySet()
    assert FuzzySet({("a", "b"): "1/2"}) != phi
    assert repr(FuzzySet({"a": "1/2"})) == "FuzzySet({'a': 1/2})"
    assert repr(phi) == "FuzzyRelation({('a', 'b'): 1/2})"
    assert repr(scalar_meet(Fraction(1, 3), phi)) == "FuzzyRelation({('a', 'b'): 1/3})"


def test_subsethood_and_equality():
    f = FuzzySet({"x": "0.7", "y": "0.4"})
    g = FuzzySet({"x": "0.5", "y": "0.6"})
    assert subsethood(GOEDEL, f, g) == Fraction(1, 2)
    assert subsethood(GOEDEL, FuzzySet(), g) == ONE
    assert subsethood(GOEDEL, f, FuzzySet()) == ZERO
    assert equality(GOEDEL, f, g) == Fraction(2, 5)
    assert equality(LUKASIEWICZ, f, g) == Fraction(4, 5)
    for lat in LATTICES:
        assert equality(lat, f, g) == equality(lat, g, f)
        assert equality(lat, f, f) == ONE


def test_subsethood_ignores_zero_entries():
    f = FuzzySet({"x": "0.7"})
    g = FuzzySet({"x": "0.7", "z": "0.2"})
    # z is not in f's support, so it cannot lower the degree
    assert subsethood(GOEDEL, f, g) == ONE
    # but equality ranges over both supports
    assert equality(GOEDEL, f, g) == ZERO


def test_subsethood_one_iff_pointwise_leq():
    rng = random.Random(42)
    universe = ["p", "q", "r"]
    for lat in LATTICES:
        for _ in range(100):
            f = FuzzySet({x: Fraction(rng.randint(0, 6), 6) for x in universe})
            g = FuzzySet({x: Fraction(rng.randint(0, 6), 6) for x in universe})
            assert (subsethood(lat, f, g) == ONE) == pointwise_leq(f, g)


def test_composition_matches_definition():
    phi = FuzzyRelation({("a", "m"): "0.5", ("a", "n"): "0.8"})
    psi = FuzzyRelation({("m", "z"): "0.9", ("n", "z"): "0.6"})
    comp = compose_rel_rel(GOEDEL, phi, psi)
    assert comp.degree("a", "z") == Fraction(3, 5)
    comp = compose_rel_rel(PRODUCT, phi, psi)
    assert comp.degree("a", "z") == Fraction(12, 25)


def test_composition_associative():
    rng = random.Random(7)
    for lat in LATTICES:
        for _ in range(40):
            phi = random_rel(rng, "ab", "mn")
            psi = random_rel(rng, "mn", "xy")
            chi = random_rel(rng, "xy", "st")
            left = compose_rel_rel(lat, compose_rel_rel(lat, phi, psi), chi)
            right = compose_rel_rel(lat, phi, compose_rel_rel(lat, psi, chi))
            assert left == right


def test_converse_of_composition():
    rng = random.Random(8)
    for lat in LATTICES:
        for _ in range(40):
            phi = random_rel(rng, "ab", "mn")
            psi = random_rel(rng, "mn", "xy")
            assert converse(compose_rel_rel(lat, phi, psi)) == compose_rel_rel(
                lat, converse(psi), converse(phi))


def test_identity_neutral():
    rng = random.Random(9)
    for lat in LATTICES:
        phi = random_rel(rng, "abc", "xyz")
        assert compose_rel_rel(lat, identity_rel("abc"), phi) == phi
        assert compose_rel_rel(lat, phi, identity_rel("xyz")) == phi


def test_set_compositions():
    f = FuzzySet({"a": "0.7"})
    phi = FuzzyRelation({("a", "x"): "0.5", ("a", "y"): "0.8"})
    g = compose_set_rel(GOEDEL, f, phi)
    assert g == FuzzySet({"x": "0.5", "y": "0.7"})
    h = compose_rel_set(GOEDEL, phi, FuzzySet({"x": "0.6", "y": "0.9"}))
    assert h == FuzzySet({"a": "0.8"})
    assert compose_set_set(GOEDEL, f, FuzzySet({"a": "0.4"})) == Fraction(2, 5)
    assert compose_set_set(GOEDEL, f, FuzzySet()) == ZERO


def test_union_and_scalar_meet():
    phi = FuzzyRelation({("a", "x"): "0.5"})
    psi = FuzzyRelation({("a", "x"): "0.8", ("b", "y"): "0.3"})
    u = union([phi, psi])
    assert u.degree("a", "x") == Fraction(4, 5)
    assert u.degree("b", "y") == Fraction(3, 10)
    assert union([]) == FuzzyRelation()
    cut = scalar_meet(Fraction(2, 5), psi)
    assert cut.degree("a", "x") == Fraction(2, 5)
    assert cut.degree("b", "y") == Fraction(3, 10)
    f = scalar_meet(Fraction(1, 2), FuzzySet({"a": "0.9"}))
    assert f.degree("a") == Fraction(1, 2)
    with pytest.raises(InputError, match="expects a FuzzySet"):
        scalar_meet(Fraction(1, 2), {"a": Fraction(1)})


def test_union_is_least_upper_bound():
    rng = random.Random(10)
    for _ in range(40):
        rels = [random_rel(rng, "abc", "xyz") for _ in range(rng.randint(0, 4))]
        u = union(rels)
        assert all(pointwise_leq(phi, u) for phi in rels)
        # any other upper bound dominates the union
        bound = FuzzyRelation({(x, y): 1 for x in "abc" for y in "xyz"})
        assert pointwise_leq(u, bound)
        for x in "abc":
            for y in "xyz":
                assert u.degree(x, y) == max(
                    (phi.degree(x, y) for phi in rels), default=ZERO)


def test_relation_properties():
    universe = ["a", "b"]
    ident = identity_rel(universe)
    assert is_reflexive(ident, universe)
    assert is_symmetric(ident)
    assert is_transitive(GOEDEL, ident)
    phi = FuzzyRelation({("a", "a"): "0.5", ("b", "b"): "1"})
    assert not is_reflexive(phi, universe)
    psi = FuzzyRelation({("a", "b"): "0.5"})
    assert not is_symmetric(psi)
    chi = FuzzyRelation({("a", "b"): "1", ("b", "a"): "1"})
    assert not is_transitive(GOEDEL, chi)


def test_relation_serialization_round_trip():
    phi = FuzzyRelation({("b", "x"): "0.5", ("a", "y"): "2/3"})
    arr = relation_json_array(phi)
    assert arr == [
        {"from": "a", "to": "y", "degree": "2/3"},
        {"from": "b", "to": "x", "degree": "1/2"},
    ]
    assert parse_relation(serialize_relation(phi)) == phi


# each bad relation file, with the message it must raise
_RELATION_REJECTS = {
    '{"from": "a"}': "must be an array",
    '[{"from": "a", "to": "b"}]': r"^relation entry is missing fields \['degree'\]$",
    '[{"from": "a", "to": "b", "degree": "1/2", "extra": 1}]':
        r"^relation entry has unknown fields \['extra'\]$",
    '[{"from": "a", "to": "b", "degree": "1/2"}, {"from": "a", "to": "b", "degree": "1/3"}]':
        "duplicate relation entry",
    '[{"from": 1, "to": "b", "degree": "1/2"}]': "endpoints must be strings",
    '[{"from": "a", "to": "b", "degree": 0.5}]': "inexact float degree",
    "not json": "malformed relation JSON",
    '["entry"]': "^relation entry must be an object, got 'entry'$",
    # the reader checks every entry's shape before FuzzyRelation parses a degree
    '[{"from": "a", "to": "b", "degree": "2"}, {"from": "a", "to": "b", "degree": "1"}]':
        r"^duplicate relation entry for \('a', 'b'\)$",
}


@pytest.mark.parametrize("text", list(_RELATION_REJECTS))
def test_parse_relation_rejects(text):
    with pytest.raises(InputError, match=_RELATION_REJECTS[text]):
        parse_relation(text)


def test_parse_relation_rejects_over_deep_json():
    with pytest.raises(InputError, match="malformed relation JSON"):
        parse_relation("[" * 100000 + "]" * 100000)


def test_zero_degree_entries_are_dropped_on_parse():
    phi = parse_relation('[{"from": "a", "to": "b", "degree": "0"}]')
    assert phi == FuzzyRelation()


def test_parse_relation_parses_each_degree_once(monkeypatch):
    calls = []
    monkeypatch.setattr(fuzzyrel, "parse_degree", lambda v: calls.append(v) or parse_degree(v))
    phi = parse_relation('[{"from": "b", "to": "a", "degree": "1/2"}, '
                         '{"from": "a", "to": "b", "degree": "0"}]')
    assert calls == ["1/2", "0"]
    assert phi.items() == [(("b", "a"), Fraction(1, 2))]
