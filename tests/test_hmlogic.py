from fractions import Fraction

import pytest

from fuzzybisim import (
    GOEDEL,
    ONE,
    PRODUCT,
    TAU,
    ZERO,
    And,
    FuzzySet,
    Iff,
    Implies,
    Step,
    Tau,
    constant_pool,
    distinguishing_formula,
    enumerate_formulas,
    eval_formula,
    format_formula,
    greatest_fuzzy_bisimulation,
    greatest_fuzzy_simulation,
    hm_agreement,
    hm_degree_bounded,
    parse_degree,
    parse_formula,
    pointwise_leq,
    refinement_steps,
)
from fuzzybisim.errors import InputError


def test_reference_readouts(aut_a, aut_ap):
    stepped = Step("s", Implies(Fraction(7, 10), TAU))
    guarded = Implies(Fraction(7, 10), Step("s", TAU))
    assert eval_formula(GOEDEL, aut_a, stepped).degree("u") == Fraction(4, 5)
    assert eval_formula(GOEDEL, aut_ap, stepped).degree("u'") == Fraction(7, 10)
    assert eval_formula(GOEDEL, aut_a, guarded).degree("u") == ONE
    assert eval_formula(GOEDEL, aut_ap, guarded).degree("u'") == ONE


def test_eval_basic_nodes(aut_a):
    assert eval_formula(GOEDEL, aut_a, TAU) == FuzzySet({"v": "0.6", "w": "0.7"})
    assert eval_formula(GOEDEL, aut_a, Step("s", TAU)) == FuzzySet({"u": "0.7"})
    met = eval_formula(GOEDEL, aut_a, And(TAU, Step("s", TAU)))
    assert met == FuzzySet()
    iffed = eval_formula(GOEDEL, aut_a, Iff(Fraction(0), TAU))
    # 0 <-> tau(x) is the complement-like readout: 1 exactly where tau is 0
    assert iffed == FuzzySet({"u": "1"})


def test_eval_rejects_unknown_symbol(aut_a):
    with pytest.raises(InputError):
        eval_formula(GOEDEL, aut_a, Step("t", TAU))


def test_eval_guard_constant_is_validated(aut_a):
    with pytest.raises(InputError):
        eval_formula(GOEDEL, aut_a, Implies("3/2", TAU))


@pytest.mark.parametrize("text,node", [
    ("T", TAU),
    ("<s> T", Step("s", TAU)),
    ("(7/10 -> T)", Implies(Fraction(7, 10), TAU)),
    ("(0.7 -> T)", Implies(Fraction(7, 10), TAU)),
    ("(1/2 <-> <s> T)", Iff(Fraction(1, 2), Step("s", TAU))),
    ("(T & <s> T)", And(TAU, Step("s", TAU))),
    ("((T & T) & T)", And(And(TAU, TAU), TAU)),
    ("  ( 1/2  ->   T )  ", Implies(Fraction(1, 2), TAU)),
])
def test_parse_formula(text, node):
    assert parse_formula(text) == node


def test_format_parse_round_trip():
    samples = [
        TAU,
        Step("s", And(TAU, Implies(Fraction(1, 3), TAU))),
        Iff(Fraction(2, 7), Step("go", TAU)),
        And(Step("a", TAU), Step("b", Step("a", TAU))),
    ]
    for node in samples:
        assert parse_formula(format_formula(node)) == node


@pytest.mark.parametrize("text", [
    "",
    "T T",
    "(T &)",
    "(0.5 -> T",
    "<s>",
    "(-> T)",
    "(2 -> T)",
    "(T | T)",
    "()",
    "foo",
])
def test_parse_formula_rejects(text):
    with pytest.raises(InputError):
        parse_formula(text)


@pytest.mark.parametrize("literal", [
    "1/2", "0.5", ".5", "5e-1", "5E-1", "1e-1", "+0.5", "1.", "-0", "1_0/2_0",
    "1e1", "1/0", "2", "0.5.5", "1e", "0x1", "1/2.5",
])
def test_guard_constants_read_like_degrees(literal):
    # one literal grammar: a guard constant parses exactly when parse_degree does
    try:
        expected = Implies(parse_degree(literal), TAU)
    except InputError:
        with pytest.raises(InputError):
            parse_formula(f"({literal} -> T)")
    else:
        assert parse_formula(f"({literal} -> T)") == expected
        assert parse_formula(f"({literal}->T)") == expected
        assert parse_formula(format_formula(expected)) == expected


def test_constant_pool(aut_a, aut_ap):
    pool = constant_pool(GOEDEL, aut_a, aut_ap, depth=1)
    assert pool[0] == ZERO and pool[-1] == ONE
    for d in (Fraction(1, 2), Fraction(3, 5), Fraction(7, 10), Fraction(4, 5)):
        assert d in pool
    assert pool == sorted(pool)
    capped = constant_pool(PRODUCT, aut_a, aut_ap, depth=3, cap=8)
    assert len(capped) <= 8
    with pytest.raises(InputError):
        constant_pool(GOEDEL, aut_a, aut_ap, depth=1, cap=1)


def test_enumeration_respects_fragment(aut_a, aut_ap):
    def nodes(w):
        yield w
        for attr in ("body", "left", "right"):
            sub = getattr(w, attr, None)
            if sub is not None:
                yield from nodes(sub)

    for w in enumerate_formulas(GOEDEL, aut_a, aut_ap, 2, "sim"):
        assert not any(isinstance(n, Iff) for n in nodes(w))
    for w in enumerate_formulas(GOEDEL, aut_a, aut_ap, 2, "bisim"):
        assert not any(isinstance(n, Implies) for n in nodes(w))
    assert enumerate_formulas(GOEDEL, aut_a, aut_ap, 0, "sim") == [TAU]


def test_depth_zero_matches_terminal_residua(aut_a, aut_ap):
    d0 = hm_degree_bounded(GOEDEL, aut_a, aut_ap, 0, "sim")
    first = next(refinement_steps(GOEDEL, aut_a, aut_ap, kind="sim"))
    assert d0 == first


def test_depth_antitone(aut_a, aut_ap):
    prev = hm_degree_bounded(GOEDEL, aut_a, aut_ap, 0, "sim")
    for depth in (1, 2, 3):
        cur = hm_degree_bounded(GOEDEL, aut_a, aut_ap, depth, "sim")
        assert pointwise_leq(cur, prev)
        prev = cur


def test_bounded_degree_stays_above_fixpoint(aut_a, aut_ap):
    greatest = greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap).relation
    for depth in (0, 1, 2, 3):
        bounded = hm_degree_bounded(GOEDEL, aut_a, aut_ap, depth, "sim")
        assert pointwise_leq(greatest, bounded)


def test_depth_two_already_reaches_the_fixpoint_entry(aut_a, aut_ap):
    bounded = hm_degree_bounded(GOEDEL, aut_a, aut_ap, 2, "sim")
    assert bounded.degree("u", "u'") == Fraction(7, 10)


def test_auto_agreement_bounds_auto_simulation(aut_a):
    report = hm_agreement(GOEDEL, aut_a, aut_a, 1, "sim")
    greatest = greatest_fuzzy_simulation(GOEDEL, aut_a, aut_a).relation
    assert pointwise_leq(greatest, report.relation)


def test_every_enumerated_formula_respects_the_relation(aut_a, aut_ap):
    # soundness: a (bi)simulation bounds the readout residuum of every formula
    for fragment, compute, op in (
        ("sim", greatest_fuzzy_simulation, GOEDEL.residuum),
        ("bisim", greatest_fuzzy_bisimulation, GOEDEL.biresiduum),
    ):
        rel = compute(GOEDEL, aut_a, aut_ap).relation
        for w in enumerate_formulas(GOEDEL, aut_a, aut_ap, 2, fragment):
            ea = eval_formula(GOEDEL, aut_a, w)
            eb = eval_formula(GOEDEL, aut_ap, w)
            for (x, xp), d in rel.items():
                assert d <= op(ea.degree(x), eb.degree(xp))


def test_agreement_on_reference_pair(aut_a, aut_ap):
    sim = hm_agreement(GOEDEL, aut_a, aut_ap, 3, "sim")
    assert sim.matches_fixpoint
    assert sim.relation == greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap).relation
    bisim = hm_agreement(GOEDEL, aut_a, aut_ap, 3, "bisim")
    assert bisim.matches_fixpoint


def test_distinguishing_formula(aut_a, aut_ap):
    found = distinguishing_formula(GOEDEL, aut_a, aut_ap, "u", "u'",
                                   Fraction(7, 10), 3, "sim")
    assert found is not None
    va = eval_formula(GOEDEL, aut_a, found).degree("u")
    vb = eval_formula(GOEDEL, aut_ap, found).degree("u'")
    assert GOEDEL.residuum(va, vb) <= Fraction(7, 10)
    # nothing can separate the pair below its greatest simulation degree
    assert distinguishing_formula(GOEDEL, aut_a, aut_ap, "u", "u'",
                                  Fraction(1, 2), 3, "sim") is None
    # fully bisimilar pairs admit no distinguishing formula at all
    assert distinguishing_formula(GOEDEL, aut_a, aut_ap, "v", "v'",
                                  Fraction(9, 10), 3, "bisim") is None
    # target 1 is met by every formula, so the search returns immediately
    assert distinguishing_formula(GOEDEL, aut_a, aut_ap, "u", "u'",
                                  ONE, 2, "sim") == TAU


def test_validation_errors(aut_a, aut_ap):
    with pytest.raises(InputError):
        hm_degree_bounded(GOEDEL, aut_a, aut_ap, -1, "sim")
    with pytest.raises(InputError):
        hm_degree_bounded(GOEDEL, aut_a, aut_ap, 1, "simulationist")
    with pytest.raises(InputError):
        distinguishing_formula(GOEDEL, aut_a, aut_ap, "z", "u'", ONE, 1, "sim")
    with pytest.raises(InputError):
        distinguishing_formula(GOEDEL, aut_a, aut_ap, "u", "z", ONE, 1, "sim")


def test_small_pool_cap_is_still_sound(aut_a, aut_ap):
    greatest = greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap).relation
    bounded = hm_degree_bounded(GOEDEL, aut_a, aut_ap, 2, "sim", pool_cap=4)
    assert pointwise_leq(greatest, bounded)
