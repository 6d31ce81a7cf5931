from fractions import Fraction

import pytest

from fuzzybisim import (
    GOEDEL,
    LUKASIEWICZ,
    ONE,
    PRODUCT,
    FuzzyAutomaton,
    FuzzyRelation,
    check_fuzzy_bisimulation,
    check_fuzzy_simulation,
    greatest_fuzzy_bisimulation,
    greatest_fuzzy_simulation,
    pointwise_leq,
)
from fuzzybisim.errors import InputError
from fuzzybisim.oracle import (
    CONDITIONS,
    RelationSample,
    is_fuzzy_bisimulation_bruteforce,
    is_fuzzy_simulation_bruteforce,
    pointwise_condition_report,
    random_automaton,
    random_relation,
    shrink_to_bisimulation,
    shrink_to_simulation,
)

POOL = ("0", "1/4", "1/2", "3/4", "1")


def test_report_on_computed_relations(aut_a, aut_ap):
    sim = greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap).relation
    report = pointwise_condition_report(GOEDEL, aut_a, aut_ap, sim)
    assert "trans-fwd" not in report
    assert "terminal-fwd" not in report
    # initial coverage fails on this pair: sigma(u) = 7/10 exceeds the
    # best match 3/5, which is exactly why no plain simulation exists
    assert "initial-fwd" in report
    ((coord, lhs, rhs),) = report["initial-fwd"]
    assert coord == ("u",)
    assert lhs == Fraction(7, 10)
    assert rhs == Fraction(3, 5)

    bisim = greatest_fuzzy_bisimulation(GOEDEL, aut_a, aut_ap).relation
    breport = pointwise_condition_report(GOEDEL, aut_a, aut_ap, bisim)
    for condition in ("trans-fwd", "terminal-fwd", "trans-bwd", "terminal-bwd"):
        assert condition not in breport
    assert "initial-fwd" in breport
    assert "initial-bwd" not in breport


def test_report_flags_planted_violation(aut_a, aut_ap):
    too_big = FuzzyRelation({("u", "u'"): ONE})
    report = pointwise_condition_report(GOEDEL, aut_a, aut_ap, too_big)
    assert "trans-fwd" in report
    conditions = set(report)
    assert conditions <= set(CONDITIONS)


def test_report_pins_every_backward_violation():
    # A's states are u*, A''s v*, so a coordinate in the wrong order, or a
    # backward half read off phi instead of phi^-1, cannot match
    a = FuzzyAutomaton("A", ["u1", "u2"], ["a"],
                       {("u1", "a", "u2"): "1", ("u2", "a", "u1"): "1/2"},
                       {"u1": "1"}, {"u1": "1/2", "u2": "1/4"})
    ap = FuzzyAutomaton("A'", ["v1", "v2"], ["a", "b"],
                        {("v1", "a", "v1"): "3/4", ("v1", "a", "v2"): "1/4",
                         ("v2", "b", "v1"): "1"},
                        {"v1": "1/2", "v2": "3/4"}, {"v1": "1/4", "v2": "1"})
    phi = FuzzyRelation({("u1", "v1"): "1", ("u2", "v2"): "1/2"})
    report = pointwise_condition_report(GOEDEL, a, ap, phi)
    assert tuple(report) == CONDITIONS
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert report["initial-bwd"] == [(("v2",), Fraction(3, 4), 0)]
    # (u1, a, v1): phi(u1, v1) and delta'(v1, a, v1) give 3/4, and u1's only
    # a-successor u2 is unrelated to v1; b is not in A's alphabet
    assert report["trans-bwd"] == [(("a", "u1", "v1"), Fraction(3, 4), 0),
                                   (("b", "u2", "v1"), half, 0)]
    assert report["terminal-bwd"] == [(("u2",), half, quarter)]
    assert report["initial-fwd"][0] == (("u1",), 1, half)
    assert report["trans-fwd"][0] == (("a", "v1", "u2"), 1, quarter)
    assert report["terminal-fwd"][0] == (("v1",), half, quarter)


def test_bruteforce_agrees_with_checkers(aut_a, aut_ap):
    for lat in (GOEDEL, LUKASIEWICZ, PRODUCT):
        for seed in range(60):
            psi = random_relation(aut_a.states, aut_ap.states, POOL, seed).relation
            assert is_fuzzy_simulation_bruteforce(lat, aut_a, aut_ap, psi) == \
                check_fuzzy_simulation(lat, aut_a, aut_ap, psi)
            assert is_fuzzy_bisimulation_bruteforce(lat, aut_a, aut_ap, psi) == \
                check_fuzzy_bisimulation(lat, aut_a, aut_ap, psi)


def test_shrink_from_full_relation_recovers_greatest(aut_a, aut_ap):
    full = FuzzyRelation({(x, xp): ONE for x in aut_a.states for xp in aut_ap.states})
    for lat in (GOEDEL, PRODUCT):
        assert shrink_to_simulation(lat, aut_a, aut_ap, full) == \
            greatest_fuzzy_simulation(lat, aut_a, aut_ap).relation
        assert shrink_to_bisimulation(lat, aut_a, aut_ap, full) == \
            greatest_fuzzy_bisimulation(lat, aut_a, aut_ap).relation


def test_shrink_yields_valid_relations_below_seed(aut_a, aut_ap):
    for seed in range(30):
        psi = random_relation(aut_a.states, aut_ap.states, POOL, seed).relation
        sim = shrink_to_simulation(GOEDEL, aut_a, aut_ap, psi)
        assert pointwise_leq(sim, psi)
        assert check_fuzzy_simulation(GOEDEL, aut_a, aut_ap, sim)
        assert is_fuzzy_simulation_bruteforce(GOEDEL, aut_a, aut_ap, sim)
        bisim = shrink_to_bisimulation(GOEDEL, aut_a, aut_ap, psi)
        assert pointwise_leq(bisim, psi)
        assert check_fuzzy_bisimulation(GOEDEL, aut_a, aut_ap, bisim)


def test_report_on_identity_auto_pair_is_empty(aut_a):
    ident = FuzzyRelation({(x, x): ONE for x in aut_a.states})
    assert pointwise_condition_report(GOEDEL, aut_a, aut_a, ident) == {}


def test_report_on_empty_relation_flags_initial_coverage(aut_a, aut_ap):
    report = pointwise_condition_report(GOEDEL, aut_a, aut_ap, FuzzyRelation())
    assert set(report) == {"initial-fwd", "initial-bwd"}
    ((coord, lhs, rhs),) = report["initial-fwd"]
    assert coord == ("u",)
    assert (lhs, rhs) == (Fraction(7, 10), Fraction(0))


def test_shrink_fixpoints(aut_a, aut_ap):
    empty = FuzzyRelation()
    assert shrink_to_simulation(GOEDEL, aut_a, aut_ap, empty) == empty
    assert shrink_to_bisimulation(GOEDEL, aut_a, aut_ap, empty) == empty
    sim = greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap).relation
    assert shrink_to_simulation(GOEDEL, aut_a, aut_ap, sim) == sim
    bisim = greatest_fuzzy_bisimulation(GOEDEL, aut_a, aut_ap).relation
    assert shrink_to_bisimulation(GOEDEL, aut_a, aut_ap, bisim) == bisim


def test_random_relation_degenerate_pools():
    zeros = random_relation("abc", "xy", ("0",), 4, density=1.0)
    assert zeros.relation == FuzzyRelation()
    ones = random_relation("abc", "xy", ("1",), 4, density=1.0)
    assert ones.relation == FuzzyRelation(
        {(x, y): ONE for x in "abc" for y in "xy"})


def test_random_relation_is_deterministic():
    one = random_relation("abc", "xy", POOL, 17)
    two = random_relation("abc", "xy", POOL, 17)
    other = random_relation("abc", "xy", POOL, 18)
    assert isinstance(one, RelationSample)
    assert one.relation == two.relation
    assert one.seed == 17
    assert one.value_pool == tuple(map(Fraction, POOL))
    relation, seed, pool = one
    assert (relation, seed, pool) == two
    assert one != other
    assert random_relation("abc", "xy", POOL, 5, density=0.0).relation == FuzzyRelation()
    with pytest.raises(InputError):
        random_relation("abc", "xy", (), 17)


def test_random_automaton_is_deterministic_and_valid():
    one = random_automaton("R", 4, ["a", "b"], POOL, 3)
    two = random_automaton("R", 4, ["a", "b"], POOL, 3)
    assert one == two
    assert one.states == ("q0", "q1", "q2", "q3")
    assert len(one.sigma) >= 1
    assert len(one.tau) >= 1
    with pytest.raises(InputError):
        random_automaton("R", 0, ["a"], POOL, 3)
    with pytest.raises(InputError):
        random_automaton("R", 2, ["a"], (), 3)
