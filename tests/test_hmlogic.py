import itertools
from fractions import Fraction

import pytest

from fuzzybisim import (
    GOEDEL,
    LUKASIEWICZ,
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
from fuzzybisim.errors import InputError, NonConvergenceError
from fuzzybisim.fuzzyrel import relation_json_array
from fuzzybisim import hmlogic
from fuzzybisim.hmlogic import _evaluate, _top_atoms, _witness_round
from fuzzybisim.oracle import random_automaton
from fuzzybisim.simrel import _joint

from conftest import time_limit


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
    with pytest.raises(InputError, match="not a formula node"):
        eval_formula(GOEDEL, aut_a, "T")


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
    with pytest.raises(InputError, match="not a formula node"):
        format_formula(Step("s", "T"))


def test_format_formula_round_trips_or_refuses_a_symbol():
    # "<->" is the two-sided guard's token, so the symbol "-" is written "< - >"
    assert format_formula(Step("-", TAU)) == "< - > T"
    assert parse_formula("< - > T") == Step("-", TAU)
    for symbol in ("a b", "<", "a>b"):
        with pytest.raises(InputError, match="cannot be written in a formula"):
            format_formula(Step(symbol, TAU))


def test_formula_nodes_compare_as_records():
    c = Fraction(1, 2)
    # equal fields in another class, or in a plain tuple, make no equal node
    assert not Implies(c, TAU) == Iff(c, TAU)
    assert Implies(c, TAU) != Iff(c, TAU)
    assert Step("a", TAU) != ("a", TAU) and not ("a", TAU) == Step("a", TAU)
    assert TAU != () and not () == TAU
    assert Step("a", Tau()) == Step(symbol="a", body=TAU)
    assert bool(TAU)
    assert hash(Step("a", TAU)) == hash(("a", TAU))
    assert repr(And(Step("a", TAU), Iff(c, TAU))) == (
        "And(left=Step(symbol='a', body=Tau()), right=Iff(constant=Fraction(1, 2), body=Tau()))")
    with pytest.raises(AttributeError):
        Step("a", TAU).symbol = "b"


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
    "1e1", "1/0", "2", "0.5.5", "1e", "0x1", "1/2.5", "1 / 2", "1 /2", "1_0 / 2_0",
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


def test_constant_pool(aut_a, aut_ap, monkeypatch):
    pool = constant_pool(GOEDEL, aut_a, aut_ap, depth=1)
    assert pool[0] == ZERO and pool[-1] == ONE
    for d in (Fraction(1, 2), Fraction(3, 5), Fraction(7, 10), Fraction(4, 5)):
        assert d in pool
    assert pool == sorted(pool)
    monkeypatch.setattr(hmlogic, "DEFAULT_POOL_CAP", 8)
    capped = constant_pool(PRODUCT, aut_a, aut_ap, depth=3)
    # the cap keeps the smallest closure values, and 1
    assert capped == [Fraction(d) for d in ("0", "1/4", "3/10", "1/2", "3/5", "7/10", "4/5", "1")]


@pytest.mark.parametrize("lat", [GOEDEL, LUKASIEWICZ, PRODUCT], ids=lambda lat: lat.kind)
@pytest.mark.parametrize("bidir", [False, True], ids=["sim", "bisim"])
def test_every_atom_vector_is_its_formula_evaluated(lat, bidir, monkeypatch):
    # each atom's joint vector is its formula's degrees on A, then on A'
    monkeypatch.setattr(hmlogic, "DEFAULT_POOL_CAP", 64 if lat is GOEDEL else 2)
    for depth in (0, 1, 2):
        for seed in range(4):
            a = random_automaton("A", 1 + seed % 3, ["a", "b"], ("1/4", "1/2", "1"), 90 + seed)
            ap = random_automaton("B", 3 - seed % 3, ["a"], ("1/3", "1"), 190 + seed)
            pool = constant_pool(lat, a, ap, depth)
            codec, tau, steps = _joint(lat, a, ap, pool)
            atoms = _top_atoms(codec, tau, steps, depth, bidir, pool, len(a.states))
            assert isinstance(atoms, list)
            for vec, formula in atoms:
                ea = _evaluate(lat, a, formula, strict=False)
                eb = _evaluate(lat, ap, formula, strict=False)
                assert tuple(map(codec.decode, vec)) == (tuple(map(ea.degree, a.states))
                                                         + tuple(map(eb.degree, ap.states)))


def test_former_timeout_pair_is_decided():
    # the explore benchmark's gen-90000 hm-degree job, built like
    # bench/workloads.build_pair
    a = random_automaton("A", 4, ("a", "b"), ("1/2", "1"), 90000, density=0.4)
    ap = random_automaton("B", 4, ("a", "b"), ("1/2", "1"), 90000 + 1_000_003, density=0.4)

    with time_limit(10):
        relation = hm_degree_bounded(GOEDEL, a, ap, 2, "bisim")
    assert relation_json_array(relation) == []


def test_depth_past_saturation_costs_nothing(aut_a, aut_ap):
    # the atoms stop changing within 10 rounds, so a million rounds are the
    # same rounds
    expected = hm_degree_bounded(LUKASIEWICZ, aut_a, aut_ap, 10, "bisim")
    with time_limit(10):
        relation = hm_degree_bounded(LUKASIEWICZ, aut_a, aut_ap, 10 ** 6, "bisim")
    assert relation == expected


def _every_round(lat, a, ap, rounds, bidir, pool) -> list:
    """The atom vectors after 0..rounds witness rounds, every round run."""
    codec, tau, steps = _joint(lat, a, ap, pool)
    atoms, out = [(tau, TAU)], []
    for _ in range(rounds + 1):
        out.append([vec for vec, _formula in atoms])
        atoms = [(tau, TAU), *_witness_round(codec, steps, atoms, len(a.states), bidir, pool)]
    return out


@pytest.mark.parametrize("gen,n,bidir", [
    (70058, 4, False),      # from round 4 on every round is the same
    (70036, 3, True),       # from round 4 on the rounds cycle with period 2
])
def test_repeating_rounds_are_cut_exactly(gen, n, bidir):
    # explore benchmark hm-mid pairs, built like bench/workloads.build_pair
    a = random_automaton("A", n, ("a", "b"), ("1/2", "1"), gen, density=0.4)
    ap = random_automaton("B", n, ("a", "b"), ("1/2", "1"), gen + 1_000_003, density=0.4)
    pool = constant_pool(GOEDEL, a, ap, 10 ** 6)
    rounds = _every_round(GOEDEL, a, ap, 21, bidir, pool)
    joint = _joint(GOEDEL, a, ap, pool)
    for depth in range(22):
        assert [vec for vec, _f in _top_atoms(*joint, depth, bidir, pool, n)] == rounds[depth]
    for depth in (10 ** 6, 10 ** 6 + 1, 10 ** 6 + 3):
        # both periods divide 2, and the rounds from 4 on are in the cycle
        same = 21 - (21 - depth) % 2
        with time_limit(10):
            atoms = _top_atoms(*joint, depth, bidir, pool, n)
        assert [vec for vec, _f in atoms] == rounds[same]


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


@pytest.mark.parametrize("lat,bidir,depths", [
    (GOEDEL, False, 3), (GOEDEL, True, 3), (LUKASIEWICZ, False, 2), (LUKASIEWICZ, True, 2),
    (PRODUCT, False, 2), (PRODUCT, True, 1),
    (LUKASIEWICZ, False, 4), (LUKASIEWICZ, True, 4), (PRODUCT, True, 3),
], ids=lambda v: getattr(v, "kind", v))
def test_bounded_degree_is_the_refinement_iterate(lat, bidir, depths):
    # the theorem in hmlogic's docstring: depth d reads iterate d of the
    # refinement sweep, or its last iterate once they stabilize
    kind = ("sim", "bisim")[bidir]
    for seed in range(25):
        a = random_automaton("A", 2 + seed % 2, ("a", "b"), ("1/2", "1"), 500 + seed)
        ap = random_automaton("B", 3 - seed % 2, ("a", "b"), ("1/4", "1/2", "1"), 600 + seed)
        iterates = list(itertools.islice(refinement_steps(lat, a, ap, kind), depths))
        for depth in range(depths):
            expected = iterates[min(depth, len(iterates) - 1)]
            assert hm_degree_bounded(lat, a, ap, depth, kind) == expected, (seed, depth)


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
    relation, matches = sim
    assert matches is sim.matches_fixpoint is True
    assert relation is sim.relation
    assert sim.relation == greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap).relation
    assert sim == (sim.relation, True)
    bisim = hm_agreement(GOEDEL, aut_a, aut_ap, 3, "bisim")
    assert bisim.matches_fixpoint


def test_agreement_honours_max_iters(aut_a, aut_ap):
    # no sweep at all leaves the fixpoint unconverged
    with pytest.raises(NonConvergenceError):
        hm_agreement(GOEDEL, aut_a, aut_ap, 1, "sim", max_iters=0)


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


def test_small_pool_cap_is_still_sound(aut_a, aut_ap, monkeypatch):
    # a truncated pool lacks guards, so the readouts may sit higher, but
    # never below the greatest simulation
    greatest = greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap).relation
    monkeypatch.setattr(hmlogic, "DEFAULT_POOL_CAP", 4)
    assert len(constant_pool(GOEDEL, aut_a, aut_ap, 2)) == 4
    bounded = hm_degree_bounded(GOEDEL, aut_a, aut_ap, 2, "sim")
    assert pointwise_leq(greatest, bounded)
