import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from fuzzybisim import (
    GOEDEL,
    LUKASIEWICZ,
    ONE,
    PRODUCT,
    FuzzyAutomaton,
    FuzzyRelation,
    SimReport,
    approx_from_greatest,
    bisim_norm,
    check_crisp_bisimulation,
    check_crisp_simulation,
    check_fuzzy_bisimulation,
    check_fuzzy_simulation,
    check_lambda_approx_bisimulation,
    check_lambda_approx_simulation,
    ZERO,
    compose_rel_rel,
    converse,
    distinguishing_formula,
    enumerate_formulas,
    greatest_fuzzy_bisimulation,
    greatest_fuzzy_simulation,
    hm_agreement,
    hm_degree_bounded,
    identity_rel,
    lang_degree,
    lang_degree_from_state,
    max_approx_lambda,
    pointwise_leq,
    refinement_steps,
    report_from_obj,
    report_to_obj,
    resolve_max_iters,
    scalar_meet,
    sim_norm,
    verify_preservation,
)
from fuzzybisim.errors import InputError, NonConvergenceError
from fuzzybisim.oracle import (
    CONDITIONS,
    is_fuzzy_bisimulation_bruteforce,
    is_fuzzy_simulation_bruteforce,
    pointwise_condition_report,
    random_automaton,
    random_relation,
    shrink_to_bisimulation,
    shrink_to_simulation,
)

from conftest import time_limit

GREATEST_SIM_GODEL = FuzzyRelation({
    ("u", "u'"): "7/10",
    ("v", "v'"): "1",
    ("v", "w'"): "1",
    ("w", "v'"): "3/5",
    ("w", "w'"): "1",
})

GREATEST_BISIM_GODEL = FuzzyRelation({
    ("u", "u'"): "3/5",
    ("v", "v'"): "1",
    ("v", "w'"): "3/5",
    ("w", "v'"): "3/5",
    ("w", "w'"): "1",
})


def test_greatest_simulation_godel(aut_a, aut_ap):
    report = greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap)
    assert report.relation == GREATEST_SIM_GODEL
    assert report.norm == Fraction(3, 5)
    assert report.kind == "simulation"
    assert report.converged


def test_greatest_bisimulation_godel(aut_a, aut_ap):
    report = greatest_fuzzy_bisimulation(GOEDEL, aut_a, aut_ap)
    assert report.relation == GREATEST_BISIM_GODEL
    assert report.norm == Fraction(3, 5)
    assert report.converged


def test_greatest_simulation_product(aut_a, aut_ap):
    report = greatest_fuzzy_simulation(PRODUCT, aut_a, aut_ap)
    assert report.relation.degree("u", "u'") == Fraction(7, 8)
    assert report.relation.degree("w", "v'") == Fraction(6, 7)
    assert report.norm == Fraction(3, 4)


def test_greatest_bisimulation_product(aut_a, aut_ap):
    report = greatest_fuzzy_bisimulation(PRODUCT, aut_a, aut_ap)
    assert report.relation.degree("u", "u'") == Fraction(6, 7)
    assert report.relation.degree("v", "w'") == Fraction(6, 7)
    assert report.norm == Fraction(36, 49)


def test_checks_accept_computed_relations(aut_a, aut_ap):
    for lat in (GOEDEL, LUKASIEWICZ, PRODUCT):
        sim = greatest_fuzzy_simulation(lat, aut_a, aut_ap).relation
        bisim = greatest_fuzzy_bisimulation(lat, aut_a, aut_ap).relation
        assert check_fuzzy_simulation(lat, aut_a, aut_ap, sim)
        assert check_fuzzy_bisimulation(lat, aut_a, aut_ap, bisim)
        # every bisimulation is in particular a simulation
        assert check_fuzzy_simulation(lat, aut_a, aut_ap, bisim)


def test_check_rejects_inflated_entry(aut_a, aut_ap):
    bumped = dict(GREATEST_SIM_GODEL.items())
    bumped[("w", "v'")] = Fraction(7, 10)
    assert not check_fuzzy_simulation(GOEDEL, aut_a, aut_ap, FuzzyRelation(bumped))
    extra = dict(GREATEST_BISIM_GODEL.items())
    extra[("u", "v'")] = Fraction(1, 10)
    assert not check_fuzzy_bisimulation(GOEDEL, aut_a, aut_ap, FuzzyRelation(extra))


def test_empty_relation_is_a_simulation(aut_a, aut_ap):
    empty = FuzzyRelation()
    assert check_fuzzy_simulation(GOEDEL, aut_a, aut_ap, empty)
    assert check_fuzzy_bisimulation(GOEDEL, aut_a, aut_ap, empty)
    assert not check_crisp_simulation(GOEDEL, aut_a, aut_ap, empty)


def test_scalar_cut_stays_a_simulation_godel(aut_a, aut_ap):
    cut = scalar_meet(Fraction(2, 5), GREATEST_SIM_GODEL)
    assert check_fuzzy_simulation(GOEDEL, aut_a, aut_ap, cut)


def test_crisp_checks_reject_reference_pair(aut_a, aut_ap):
    # the norm is below 1, so initial coverage must fail
    assert not check_crisp_simulation(GOEDEL, aut_a, aut_ap, GREATEST_SIM_GODEL)
    assert not check_crisp_bisimulation(GOEDEL, aut_a, aut_ap, GREATEST_BISIM_GODEL)


def test_identity_is_an_auto_bisimulation(aut_a):
    ident = identity_rel(aut_a.states)
    assert check_fuzzy_bisimulation(GOEDEL, aut_a, aut_a, ident)
    assert check_crisp_bisimulation(GOEDEL, aut_a, aut_a, ident)
    assert bisim_norm(GOEDEL, aut_a, aut_a, ident) == ONE


def test_relation_validation(aut_a, aut_ap):
    with pytest.raises(InputError):
        check_fuzzy_simulation(GOEDEL, aut_a, aut_ap, FuzzyRelation({("z", "u'"): "1"}))
    with pytest.raises(InputError):
        sim_norm(GOEDEL, aut_a, aut_ap, FuzzyRelation({("u", "z"): "1"}))


def test_norms(aut_a, aut_ap):
    assert sim_norm(GOEDEL, aut_a, aut_ap, GREATEST_SIM_GODEL) == Fraction(3, 5)
    assert bisim_norm(GOEDEL, aut_a, aut_ap, GREATEST_BISIM_GODEL) == Fraction(3, 5)
    # converse of a bisimulation has the same norm, with the roles swapped
    assert bisim_norm(GOEDEL, aut_ap, aut_a, converse(GREATEST_BISIM_GODEL)) == Fraction(3, 5)


def test_norm_monotone_under_scalar_cuts(aut_a, aut_ap):
    base = greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap)
    norms = []
    for i in range(11):
        cut = scalar_meet(Fraction(i, 10), base.relation)
        assert check_fuzzy_simulation(GOEDEL, aut_a, aut_ap, cut)
        norms.append(sim_norm(GOEDEL, aut_a, aut_ap, cut))
    for lo, hi in itertools.pairwise(norms):
        assert lo <= hi
    assert norms[-1] == base.norm


def test_lifting_greatest_at_its_norm_stays_approximate(aut_a, aut_ap):
    for compute, check in (
        (greatest_fuzzy_simulation, check_lambda_approx_simulation),
        (greatest_fuzzy_bisimulation, check_lambda_approx_bisimulation),
    ):
        report = compute(GOEDEL, aut_a, aut_ap)
        lifted = approx_from_greatest(report.relation, report.norm)
        assert pointwise_leq(report.relation, lifted)
        assert lifted.degree("u", "u'") == ONE
        assert check(GOEDEL, aut_a, aut_ap, lifted, report.norm)


def test_greatest_auto_relations_are_crisp(aut_a, aut_ap):
    for aut in (aut_a, aut_ap):
        for lat in (GOEDEL, PRODUCT):
            srep = greatest_fuzzy_simulation(lat, aut, aut)
            brep = greatest_fuzzy_bisimulation(lat, aut, aut)
            assert srep.norm == ONE
            assert brep.norm == ONE
            assert check_crisp_simulation(lat, aut, aut, srep.relation)
            assert check_crisp_bisimulation(lat, aut, aut, brep.relation)


def test_refinement_steps_decrease_to_fixpoint(aut_a, aut_ap):
    steps = list(refinement_steps(GOEDEL, aut_a, aut_ap, kind="sim"))
    assert steps[0].degree("u", "u'") == ONE
    for earlier, later in itertools.pairwise(steps):
        assert pointwise_leq(later, earlier)
    assert steps[-1] == steps[-2] == GREATEST_SIM_GODEL
    bsteps = list(refinement_steps(GOEDEL, aut_a, aut_ap, kind="bisim"))
    assert bsteps[-1] == GREATEST_BISIM_GODEL


def test_unconverged_report(aut_a, aut_ap):
    report = greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap, max_iters=1)
    assert not report.converged
    assert report.iterations == 1
    # the first iterate is already the fixpoint here, so one sweep finds it
    # but cannot yet certify it
    assert report.relation == GREATEST_SIM_GODEL


def test_resolve_max_iters():
    assert resolve_max_iters() == 10000
    assert resolve_max_iters(7) == 7
    with pytest.raises(InputError):
        resolve_max_iters(-1)
    # a zero cap is allowed: it means "run no sweeps"
    assert resolve_max_iters(0) == 0


def test_zero_sweep_cap_reports_seed_unconverged(aut_a, aut_ap):
    report = greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap, max_iters=0)
    assert not report.converged
    assert report.iterations == 0
    steps = refinement_steps(GOEDEL, aut_a, aut_ap, kind="sim")
    assert report.relation == next(steps)


# every public entry point that takes a kind or fragment, called with one
_KIND_ENTRY_POINTS = {
    "refinement_steps": lambda a, ap, kind: next(refinement_steps(GOEDEL, a, ap, kind=kind)),
    "verify_preservation": lambda a, ap, kind: verify_preservation(
        GOEDEL, a, ap, FuzzyRelation(), 1, kind=kind),
    "max_approx_lambda": lambda a, ap, kind: max_approx_lambda(GOEDEL, a, ap, kind),
    "hm_degree_bounded": lambda a, ap, kind: hm_degree_bounded(GOEDEL, a, ap, 1, kind),
    "enumerate_formulas": lambda a, ap, kind: enumerate_formulas(GOEDEL, a, ap, 1, kind),
    "hm_agreement": lambda a, ap, kind: hm_agreement(GOEDEL, a, ap, 1, kind),
    "distinguishing_formula": lambda a, ap, kind: distinguishing_formula(
        GOEDEL, a, ap, "u", "u'", ONE, 1, kind),
    "report_from_obj": lambda a, ap, kind: report_from_obj(
        {"kind": kind, "relation": [], "norm": "1", "iterations": 0, "converged": True}),
}


def test_kind_validation(aut_a, aut_ap):
    for name, call in _KIND_ENTRY_POINTS.items():
        for kind in ("sim", "Simulation", "BISIM", "bisimulation"):
            call(aut_a, aut_ap, kind)
        for kind in ("cosimulation", ""):
            with pytest.raises(InputError, match="unknown kind"):
                call(aut_a, aut_ap, kind)
    with pytest.raises(InputError):
        verify_preservation(GOEDEL, aut_a, aut_ap, FuzzyRelation(), 1, kind="none")
    assert report_from_obj({"kind": "BISIM", "relation": [], "norm": "1", "iterations": 0,
                            "converged": True}).kind == "bisimulation"


def test_lambda_approx_checks(aut_a, aut_ap):
    relaxed = approx_from_greatest(GREATEST_SIM_GODEL, Fraction(3, 5))
    assert relaxed == FuzzyRelation({key: ONE for key in GREATEST_SIM_GODEL.support()})
    assert check_lambda_approx_simulation(GOEDEL, aut_a, aut_ap, relaxed, "3/5")
    assert not check_lambda_approx_simulation(GOEDEL, aut_a, aut_ap, relaxed, "61/100")
    brelaxed = approx_from_greatest(GREATEST_BISIM_GODEL, Fraction(3, 5))
    assert check_lambda_approx_bisimulation(GOEDEL, aut_a, aut_ap, brelaxed, "3/5")
    assert not check_lambda_approx_bisimulation(GOEDEL, aut_a, aut_ap, brelaxed, "61/100")


def test_lambda_approx_needs_min_tnorm(aut_a, aut_ap):
    for lat in (LUKASIEWICZ, PRODUCT):
        with pytest.raises(InputError):
            check_lambda_approx_simulation(lat, aut_a, aut_ap, FuzzyRelation(), "1/2")
        with pytest.raises(InputError):
            max_approx_lambda(lat, aut_a, aut_ap, "sim")


def test_max_approx_lambda(aut_a, aut_ap):
    assert max_approx_lambda(GOEDEL, aut_a, aut_ap, "sim") == Fraction(3, 5)
    assert max_approx_lambda(GOEDEL, aut_a, aut_ap, "bisim") == Fraction(3, 5)
    with pytest.raises(NonConvergenceError):
        max_approx_lambda(GOEDEL, aut_a, aut_ap, "sim", max_iters=1)


def test_verify_preservation(aut_a, aut_ap):
    report = verify_preservation(GOEDEL, aut_a, aut_ap, GREATEST_SIM_GODEL, 3, kind="sim")
    assert report.pointwise_ok and report.global_ok and report.exact
    assert report.global_degree == Fraction(3, 5)
    shallow = verify_preservation(GOEDEL, aut_a, aut_ap, GREATEST_SIM_GODEL, 0, kind="sim")
    assert shallow.pointwise_ok and shallow.global_ok
    assert not shallow.exact
    with pytest.raises(InputError):
        verify_preservation(GOEDEL, aut_a, aut_ap, GREATEST_SIM_GODEL, -1)


def test_verify_preservation_flags_bad_relation(aut_a, aut_ap):
    all_ones = FuzzyRelation({
        (x, xp): ONE for x in aut_a.states for xp in aut_ap.states})
    report = verify_preservation(GOEDEL, aut_a, aut_ap, all_ones, 2, kind="sim")
    assert not report.pointwise_ok


def test_exact_covers_words_from_the_relation_support():
    # A's only transition leaves q, which the initial set misses but phi reads
    a = FuzzyAutomaton("A", ["p", "q", "r"], ["a"], {("q", "a", "r"): "1"},
                       {"p": "1"}, {"p": "1", "r": "1"})
    ap = FuzzyAutomaton("B", ["p2", "q2"], ["a"], {}, {"p2": "1"}, {"p2": "1"})
    phi = FuzzyRelation({("p", "p2"): "1", ("q", "q2"): "1"})
    shallow = verify_preservation(GOEDEL, a, ap, phi, 0)
    assert shallow.pointwise_ok and not shallow.exact
    deep = verify_preservation(GOEDEL, a, ap, phi, 1)
    assert not deep.pointwise_ok and deep.exact


def test_report_round_trip(aut_a, aut_ap):
    report = greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap)
    obj = report_to_obj(report)
    assert list(obj) == ["kind", "relation", "norm", "iterations", "converged"]
    assert report_from_obj(json.loads(json.dumps(obj))) == report


def test_reports_are_named_tuples(aut_a, aut_ap):
    report = greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap)
    assert report == SimReport(relation=GREATEST_SIM_GODEL, norm=Fraction(3, 5),
                               kind="simulation", iterations=2, converged=True)
    relation, norm, *_rest = report
    assert (relation, norm) == (report.relation, report.norm)
    assert report == tuple(report)
    assert repr(report).startswith("SimReport(relation=FuzzyRelation({")
    assert repr(verify_preservation(GOEDEL, aut_a, aut_ap, relation, 2)) == (
        "PreservationReport(pointwise_ok=True, global_ok=True, exact=True, "
        "global_degree=Fraction(3, 5))")
    with pytest.raises(AttributeError):
        report.norm = ONE


# each mutation edits the report object in place, or returns what to read
# instead, with the message it must raise
_REPORT_REJECTS = {
    lambda o: o.__delitem__("norm"): r"^report is missing fields \['norm'\]$",
    lambda o: o.update(extra=1): r"^report has unknown fields \['extra'\]$",
    lambda o: o.update(kind="partial"): "unknown kind",
    lambda o: o.update(iterations=True): "iterations must be a nonnegative integer",
    lambda o: o.update(iterations=-1): "iterations must be a nonnegative integer",
    lambda o: o.update(converged="yes"): "converged must be a boolean",
    lambda o: [o]: r"^report must be an object, got \[\{",
}


@pytest.mark.parametrize("mutate", list(_REPORT_REJECTS))
def test_report_from_obj_rejects(aut_a, aut_ap, mutate):
    obj = report_to_obj(greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap))
    replaced = mutate(obj)
    with pytest.raises(InputError, match=_REPORT_REJECTS[mutate]):
        report_from_obj(obj if replaced is None else replaced)


def test_alphabet_union_blocks_unmatched_symbols(aut_a):
    from fuzzybisim import FuzzyAutomaton
    other = FuzzyAutomaton(
        name="B", states=["p"], alphabet=["t"],
        delta={("p", "t", "p"): "1/2"}, sigma={"p": "1"}, tau={"p": "1"})
    # aut_a moves on s but the other side cannot, so (u, p) must die;
    # leaf states of aut_a have nothing to match and survive
    report = greatest_fuzzy_simulation(GOEDEL, aut_a, other)
    assert report.relation == FuzzyRelation({("v", "p"): "1", ("w", "p"): "1"})
    # the mirrored condition kills the leaves too: p moves on t, they cannot
    bisim = greatest_fuzzy_bisimulation(GOEDEL, aut_a, other)
    assert bisim.relation == FuzzyRelation()


# Pairs whose degrees stress the coded fixpoint: Lukasiewicz degrees over
# denominators 3, 7 and 20 (common denominator 420, not 10); a Godel terminal
# degree (3/7, 2/9) that no transition carries; a symbol t that only one
# automaton reads
_MIXED = ("1/3", "2/7", "7/20", "1")
_TAU_ONLY = (
    FuzzyAutomaton("A", ["p", "q"], ["a"], {("p", "a", "q"): "1/2", ("q", "a", "q"): "1"},
                   {"p": "1"}, {"p": "1/2", "q": "3/7"}),
    FuzzyAutomaton("B", ["r", "s"], ["a"], {("r", "a", "s"): "1", ("s", "a", "s"): "1/2"},
                   {"r": "1"}, {"r": "1", "s": "2/9"}),
)
_ONE_SIDED = (
    FuzzyAutomaton("A", ["p", "q"], ["s"], {("p", "s", "q"): "3/4", ("q", "s", "q"): "1/2"},
                   {"p": "1"}, {"p": "1/2", "q": "1"}),
    FuzzyAutomaton("B", ["r", "u"], ["s", "t"],
                   {("r", "s", "u"): "1", ("u", "s", "u"): "1/2", ("u", "t", "r"): "1/4"},
                   {"r": "1"}, {"r": "3/4", "u": "1"}),
)


@pytest.mark.parametrize("lat,a,ap", [
    (LUKASIEWICZ, random_automaton("A", 4, ["a", "b"], _MIXED, 1, density=0.5),
     random_automaton("B", 4, ["a", "b"], _MIXED, 101, density=0.5)),
    (GOEDEL, *_TAU_ONLY),
    (GOEDEL, *_ONE_SIDED),
    (LUKASIEWICZ, *_ONE_SIDED),
    (PRODUCT, *_ONE_SIDED),
], ids=["lukasiewicz-mixed-denominators", "godel-terminal-only-degree", "godel-one-sided",
        "lukasiewicz-one-sided", "product-one-sided"])
def test_greatest_matches_oracle(lat, a, ap):
    everything = FuzzyRelation({(x, y): ONE for x in a.states for y in ap.states})
    for kind, shrink, brute in (
        ("sim", shrink_to_simulation, is_fuzzy_simulation_bruteforce),
        ("bisim", shrink_to_bisimulation, is_fuzzy_bisimulation_bruteforce),
    ):
        report = (greatest_fuzzy_simulation if kind == "sim"
                  else greatest_fuzzy_bisimulation)(lat, a, ap)
        assert report.converged
        assert report.relation == shrink(lat, a, ap, everything)
        assert brute(lat, a, ap, report.relation)
        assert list(refinement_steps(lat, a, ap, kind=kind))[-1] == report.relation


def _split_pair(seed):
    """A seeded 2-state automaton A and a 4-state B: each state of A twice, each
    transition kept towards at least one copy of its target, one degree moved.
    B also reads c, on one copy that no transition enters.  Ordered 2x4 or
    4x2 by the seed's parity."""
    rng = random.Random(seed)
    a = random_automaton("A", 2, ["a", "b"], ("1/2", "3/4", "1"), seed, density=0.6)
    copies = {x: [x + "0", x + "1"] for x in a.states}
    q, p = copies[a.states[seed % 2]]
    delta = {(p, "c", q): "1/3"}
    for (x, s, y), d in a.transitions():
        for xc in copies[x]:
            targets = [yc for yc in copies[y] if yc != p and rng.random() < 0.6] or [copies[y][0]]
            delta.update(((xc, s, yc), d) for yc in targets)
    key = rng.choice(sorted(k for k in delta if k[1] != "c"))
    delta[key] = Fraction(1, 2) if delta[key] == 1 else delta[key] + Fraction(1, 4)

    def lift(degrees):
        return {xc: d for x, d in degrees.items() for xc in copies[x]}

    b = FuzzyAutomaton("B", [xc for x in a.states for xc in copies[x]], ["a", "b", "c"],
                       delta, lift(a.sigma), lift(a.tau))
    return (a, b) if seed % 2 else (b, a)


@pytest.mark.parametrize("lat", [GOEDEL, LUKASIEWICZ, PRODUCT], ids=lambda lat: lat.kind)
def test_greatest_bisimulation_is_symmetric_under_swap(lat):
    # swapping A and A' swaps the forward and the mirrored constraint, which
    # the kernel reads off one composition over the joint states
    supports = []
    for seed in range(8):
        a, ap = _split_pair(seed)
        forward = greatest_fuzzy_bisimulation(lat, a, ap, max_iters=60)
        swapped = greatest_fuzzy_bisimulation(lat, ap, a, max_iters=60)
        assert swapped.relation == converse(forward.relation)
        assert swapped.norm == forward.norm
        assert (swapped.iterations, swapped.converged) == (forward.iterations, forward.converged)
        supports.append(len(forward.relation))
    assert any(supports)


def _random_cases(lat, seeds):
    """(A, A', phi) over seeded random pairs: greatest relations, their lifts
    at the norm, one raised entry, random relations and, for self-pairs, the
    identity."""
    for seed in seeds:
        pool = _MIXED if seed % 2 else ("1/4", "1/2", "3/4", "1")
        a = random_automaton("A", 2 + seed % 3, ["a", "b"], pool, seed, density=0.5)
        ap = a if seed % 4 == 0 else random_automaton(
            "B", 2 + seed % 2, ["a", "b"], pool, 1000 + seed, density=0.5)
        relations = [random_relation(a.states, ap.states, pool, 2000 + seed + j).relation
                     for j in range(3)]
        if ap is a:
            relations.append(identity_rel(a.states))
        for greatest in (greatest_fuzzy_simulation, greatest_fuzzy_bisimulation):
            report = greatest(lat, a, ap, max_iters=40)
            relations += [report.relation, approx_from_greatest(report.relation, report.norm)]
            if report.relation:
                (key, d), *_ = report.relation.items()
                relations.append(FuzzyRelation({**dict(report.relation.items()),
                                                key: (d + ONE) / 2}))
        for phi in relations:
            yield a, ap, phi


def _oracle_degree(lat, report, conditions):
    """Meet of lhs -> rhs over the oracle's violations of the conditions."""
    return min((lat.residuum(lhs, rhs) for c in conditions for _at, lhs, rhs in report.get(c, ())),
               default=ONE)


_FORWARD = CONDITIONS[:3]


def test_lambda_checks_match_oracle():
    below_one = 0
    for a, ap, phi in _random_cases(GOEDEL, range(40)):
        report = pointwise_condition_report(GOEDEL, a, ap, phi)
        for check, conditions in ((check_lambda_approx_simulation, _FORWARD),
                                  (check_lambda_approx_bisimulation, CONDITIONS)):
            degree = _oracle_degree(GOEDEL, report, conditions)
            assert check(GOEDEL, a, ap, phi, degree)
            if degree < ONE:
                assert not check(GOEDEL, a, ap, phi, degree + (ONE - degree) / 1000)
                below_one += 1
    assert below_one > 100


@pytest.mark.parametrize("lat", [GOEDEL, LUKASIEWICZ, PRODUCT], ids=lambda lat: lat.kind)
def test_crisp_checks_match_oracle(lat):
    verdicts = set()
    for a, ap, phi in _random_cases(lat, range(24)):
        report = pointwise_condition_report(lat, a, ap, phi)
        sim = not any(c in report for c in _FORWARD)
        assert check_crisp_simulation(lat, a, ap, phi) == sim
        assert check_crisp_bisimulation(lat, a, ap, phi) == (not report)
        verdicts.update({sim, not report})
    assert verdicts == {True, False}


def _preservation_by_words(lat, a, ap, phi, k, bidir):
    """verify_preservation's pointwise_ok, global_ok and global_degree from one
    forward evaluation per word (and per state) of length <= k."""
    op = lat.biresiduum if bidir else lat.residuum
    symbols = sorted(set(a.alphabet) | set(ap.alphabet))
    words = [w for n in range(k + 1) for w in itertools.product(symbols, repeat=n)]

    def readable(aut, w):
        return set(w) <= set(aut.alphabet)

    def from_state(aut, x, w):
        return lang_degree_from_state(lat, aut, x, w) if readable(aut, w) else ZERO

    def lang(aut, w):
        return lang_degree(lat, aut, w) if readable(aut, w) else ZERO

    pointwise_ok = all(d <= min(op(from_state(a, x, w), from_state(ap, xp, w)) for w in words)
                       for (x, xp), d in phi.items())
    global_degree = min(op(lang(a, w), lang(ap, w)) for w in words)
    norm = (bisim_norm if bidir else sim_norm)(lat, a, ap, phi)
    return pointwise_ok, norm <= global_degree, global_degree


_TENTHS = tuple(f"{i}/10" for i in range(1, 11))


def _rescaled_cases():
    """(A, A', phi, k) for product preservation's scaled codes, k up to 6:
    sigma and sigma' have denominators no delta or tau has, A' reads every
    word (so the global degrees are not 0), except that the last pair's tau'
    is 0 everywhere."""
    for seed in range(6):
        a = random_automaton("A", 2 + seed % 3, ["a", "b"], _TENTHS, 9100 + seed, density=0.6)
        ap = random_automaton("B", 2 + seed % 2, ["a", "b"], _TENTHS, 9200 + seed, density=1)
        a = FuzzyAutomaton("A", a.states, a.alphabet, dict(a.transitions()),
                           {a.states[0]: "1", a.states[-1]: "1/3"}, a.tau)
        ap = FuzzyAutomaton("B", ap.states, ap.alphabet, dict(ap.transitions()),
                            {ap.states[0]: "2/7"}, {} if seed == 5 else ap.tau)
        yield a, ap, random_relation(a.states, ap.states, _TENTHS, 9300 + seed).relation, 1 + seed


@pytest.mark.parametrize("lat", [GOEDEL, LUKASIEWICZ, PRODUCT], ids=lambda lat: lat.kind)
def test_preservation_matches_word_by_word_evaluation(lat):
    one_sided = [(*_ONE_SIDED, random_relation(_ONE_SIDED[0].states, _ONE_SIDED[1].states,
                                               _MIXED, seed).relation) for seed in range(4)]
    cases = [(a, ap, phi, i % 5)
             for i, (a, ap, phi) in enumerate([*_random_cases(lat, range(6)), *one_sided])]
    if lat is PRODUCT:
        cases += _rescaled_cases()
    verdicts, degrees = set(), set()
    for a, ap, phi, k in cases:
        for kind, bidir in (("sim", False), ("bisim", True)):
            report = verify_preservation(lat, a, ap, phi, k, kind=kind)
            expected = _preservation_by_words(lat, a, ap, phi, k, bidir)
            assert (report.pointwise_ok, report.global_ok, report.global_degree) == expected
            verdicts.update({report.pointwise_ok, report.global_ok})
            degrees.add(report.global_degree)
    assert verdicts == {True, False}
    assert any(ZERO < d < ONE for d in degrees)


def _acyclic(aut):
    """aut without the transitions that do not go forward in state order."""
    rank = {x: i for i, x in enumerate(aut.states)}
    return FuzzyAutomaton(aut.name, aut.states, aut.alphabet,
                          {key: d for key, d in aut.transitions() if rank[key[0]] < rank[key[2]]},
                          aut.sigma, aut.tau)


@pytest.mark.parametrize("lat", [GOEDEL, LUKASIEWICZ, PRODUCT], ids=lambda lat: lat.kind)
def test_exact_report_does_not_change_with_longer_words(lat):
    exact_seen = set()
    for seed in range(12):
        a = _acyclic(random_automaton("A", 2 + seed % 3, ["a", "b"], _MIXED, 3000 + seed,
                                      density=0.6))
        ap = _acyclic(random_automaton("B", 2 + seed % 2, ["a", "b"], _MIXED, 4000 + seed,
                                       density=0.6))
        phi = random_relation(a.states, ap.states, _MIXED, 5000 + seed).relation
        for kind in ("sim", "bisim"):
            for k in range(4):
                report = verify_preservation(lat, a, ap, phi, k, kind=kind)
                exact_seen.add(report.exact)
                if report.exact:
                    assert verify_preservation(lat, a, ap, phi, k + 3, kind=kind) == report
    assert exact_seen == {True, False}


@pytest.mark.parametrize("lat", [GOEDEL, LUKASIEWICZ], ids=lambda lat: lat.kind)
def test_preservation_saturates_on_finite_lattices(lat):
    # godel and lukasiewicz back vectors take finitely many values, so a word
    # bound past the last new vector changes nothing and costs nothing more
    for seed in range(8):
        pool = _MIXED if seed % 2 else ("1/4", "1/2", "3/4", "1")
        a = random_automaton("A", 2 + seed % 3, ["a", "b"], pool, 6000 + seed, density=0.5)
        ap = random_automaton("B", 2 + (seed // 2) % 3, ["a", "b"], pool, 7000 + seed,
                              density=0.5)
        relations = [random_relation(a.states, ap.states, pool, 8000 + seed).relation,
                     greatest_fuzzy_simulation(lat, a, ap).relation,
                     greatest_fuzzy_bisimulation(lat, a, ap).relation]
        for phi in relations:
            for kind in ("sim", "bisim"):
                start = time.perf_counter()
                report = verify_preservation(lat, a, ap, phi, 10**6, kind=kind)
                assert time.perf_counter() - start < 1
                assert report == verify_preservation(lat, a, ap, phi, 64, kind=kind)


def test_product_preservation_saturates_up_to_scale():
    # product back vectors are kept up to scale, and on these cyclic pairs their
    # classes stop growing, so a huge word bound costs no more than 64
    a = random_automaton("A", 6, ["a", "b"], _TENTHS, 80008, density=0.3)
    pairs = [(a, FuzzyAutomaton("A2", a.states, a.alphabet, dict(a.transitions()), a.sigma,
                                a.tau))]
    pairs += [(random_automaton("A", 2 + i, ["a", "b"], ("1/2", "1"), 9000 + i, density=0.5),
               random_automaton("B", 2, ["a", "b"], ("1/2", "1"), 9500 + i, density=0.5))
              for i in range(2)]
    for a, ap in pairs:
        for kind, greatest in (("sim", greatest_fuzzy_simulation),
                               ("bisim", greatest_fuzzy_bisimulation)):
            phi = greatest(PRODUCT, a, ap, max_iters=500).relation
            start = time.perf_counter()
            with time_limit(5):
                report = verify_preservation(PRODUCT, a, ap, phi, 10**6, kind=kind)
            assert time.perf_counter() - start < 1
            assert not report.exact
            assert report == verify_preservation(PRODUCT, a, ap, phi, 64, kind=kind)


# the pools of the product jump differential: tenths, and two with finer ratios
_JUMP_POOLS = (tuple(f"{i}/10" for i in range(1, 11)), ("1/3", "2/5", "7/10", "1"),
               ("1/4", "1/2", "9/10", "1"))
_JUMP_CAPS = (0, 1, 2, 37, 200)


def test_product_jump_matches_plain_sweeps(monkeypatch):
    """greatest_fuzzy_* on product reports what capped plain sweeps give,
    whether or not a run jumps; the family holds taken and refused jumps."""
    from fuzzybisim import policy
    outcomes = []

    def counted(*args):
        jumped = jump(*args)
        outcomes.append(jumped is not None)
        return jumped

    jump = policy.jump
    monkeypatch.setattr(policy, "jump", counted)
    pairs = [(random_automaton("A", 2 + seed % 4, ["a", "b"], pool, 3000 + seed, density=0.5),
              random_automaton("B", 2 + seed // 4 % 4, ["a", "b"], pool, 4000 + seed,
                               density=0.5))
             for seed, pool in zip(range(24), itertools.cycle(_JUMP_POOLS))]
    # the policy at sweep 16 passes the ratio order, but within the first window
    # an edge of a chosen constraint rises above the chosen edge
    pairs.append((random_automaton("A", 4, ["a", "b"], _JUMP_POOLS[0], 279, density=0.4),
                  random_automaton("B", 4, ["a", "b"], _JUMP_POOLS[0], 10279, density=0.4)))
    for seed, (a, ap) in enumerate(pairs):
        for greatest, kind, norm in ((greatest_fuzzy_simulation, "sim", sim_norm),
                                     (greatest_fuzzy_bisimulation, "bisim", bisim_norm)):
            steps = refinement_steps(PRODUCT, a, ap, kind)
            iterates = [next(steps), *itertools.islice(steps, max(_JUMP_CAPS))]
            for cap in _JUMP_CAPS:
                sweeps = min(cap, len(iterates) - 1)
                relation = iterates[sweeps]
                report = greatest(PRODUCT, a, ap, max_iters=cap)
                assert report.relation == relation, (seed, kind, cap)
                assert report.norm == norm(PRODUCT, a, ap, relation)
                assert report.iterations == sweeps
                assert report.converged == (sweeps > 0 and iterates[sweeps - 1] == relation)
    assert True in outcomes and False in outcomes


@pytest.mark.parametrize("lat", [GOEDEL, LUKASIEWICZ, PRODUCT], ids=lambda lat: lat.kind)
def test_policy_reproduces_every_iterate(lat):
    """Re-evaluating F from the recorded choices gives refine's codes: each
    constraint's recorded edge attains its composition, and the chosen term
    (phi_0 or a constraint) is the meet of them all."""
    from fuzzybisim.policy import record
    from fuzzybisim.simrel import _Kernel
    for seed in range(12):
        a = random_automaton("A", 2 + seed % 3, ["a", "b"], _JUMP_POOLS[seed % 3], 5000 + seed,
                             density=0.5)
        ap = random_automaton("B", 2 + seed // 3 % 3, ["a", "b"], _JUMP_POOLS[seed % 3],
                              6000 + seed, density=0.5)
        for bidir in (False, True):
            kernel = _Kernel(lat, a, ap, bidir)
            tnorm, residuum, zero = kernel.codec.tnorm, kernel.codec.residuum, kernel.codec.zero
            for phi in itertools.islice(kernel.iterates(), 30):
                nxt = kernel.refine(phi)
                policy = record(kernel, phi)
                assert [i for i, _c, _cons in policy] == [i for i, v in enumerate(phi) if v]
                for i, chosen, constraints in policy:
                    values = []
                    for d, edges, w in constraints:
                        comp = max((tnorm(e, phi[j]) for e, j in edges), default=zero)
                        assert comp == (zero if w is None else tnorm(edges[w][0],
                                                                     phi[edges[w][1]]))
                        values.append(residuum(d, comp))
                    assert nxt[i] == (kernel.phi0[i] if chosen is None else values[chosen])
                    assert nxt[i] == min(kernel.phi0[i], *values)


def test_policy_record_breaks_a_tie_by_the_first_constraint():
    # a and b set (x, y) alike at phi_0 and at F(phi_0), so the tie-break decides
    from fuzzybisim.policy import record
    from fuzzybisim.simrel import _Kernel
    a = FuzzyAutomaton("A", ["x"], ["a", "b"], {("x", "a", "x"): "1/2", ("x", "b", "x"): "1/2"},
                       {"x": "1"}, {"x": "1"})
    ap = FuzzyAutomaton("B", ["y"], ["a", "b"], {("y", "a", "y"): "1/4", ("y", "b", "y"): "1/4"},
                        {"y": "1"}, {"y": "1"})
    kernel = _Kernel(PRODUCT, a, ap, False)
    assert [(i, chosen) for i, chosen, _cons in record(kernel, kernel.phi0)] == [(0, 0)]


def test_product_jump_past_its_bit_bound_raises():
    # corpus pair r1 decays for ever on product; its iterate at sweep 10^12
    # would take terabytes, so the jump refuses to write it out
    from make_output_corpus import CORPUS
    from fuzzybisim.automata import parse_automaton
    inputs = json.loads(CORPUS.read_text())["inputs"]
    a, ap = (parse_automaton(inputs[name]) for name in ("r1-a.json", "r1-b.json"))
    for greatest in (greatest_fuzzy_simulation, greatest_fuzzy_bisimulation):
        with time_limit(5), pytest.raises(NonConvergenceError, match="within 1000000000000 "):
            greatest(PRODUCT, a, ap, max_iters=10 ** 12)


def _overtaking_pair():
    """x' reaches y1' at 1 and y2' at 1/10^6; phi(y, y1') halves every sweep and
    phi(y, y2') loses a tenth, so the y2' edge overtakes near sweep 24.  (x, w')
    reads (y, x') one sweep late, so a wrong jump would show."""
    a = FuzzyAutomaton("A", ["x", "y"], ["a"], {("x", "a", "y"): "1", ("y", "a", "y"): "1"},
                       {"x": "1"}, {"x": "1", "y": "1"})
    ap = FuzzyAutomaton("B", ["w'", "x'", "y1'", "y2'"], ["a"],
                        {("w'", "a", "x'"): "1", ("x'", "a", "y1'"): "1",
                         ("x'", "a", "y2'"): "1/1000000", ("y1'", "a", "y1'"): "1/2",
                         ("y2'", "a", "y2'"): "9/10"},
                        {"x'": "1"}, {"w'": "1", "x'": "1", "y1'": "1", "y2'": "1"})
    return a, ap


def test_product_jump_waits_until_the_chosen_edge_stays_largest(monkeypatch):
    # the policies at sweeps 8 and 16 choose y1' and are refused; the one at 32 jumps
    a, ap = _overtaking_pair()
    attempts = _jump_attempts(monkeypatch)
    report = greatest_fuzzy_simulation(PRODUCT, a, ap, max_iters=200)
    steps = refinement_steps(PRODUCT, a, ap, "sim")
    assert report.relation == next(itertools.islice(steps, 200, None))
    assert (report.iterations, report.converged) == (200, False)
    assert attempts == [(8, False), (16, False), (32, True)]


def test_product_jump_refuses_a_policy_that_holds_only_up_to_the_cap(monkeypatch):
    """Up to caps 16-24 the y1' edge stays largest, so the policy at sweep 8
    sets every sweep up to the cap; but the y2' edge shrinks slower, so it
    does not hold for ever.  The jump is refused and the plain sweeps report."""
    a, ap = _overtaking_pair()
    attempts = _jump_attempts(monkeypatch)
    iterates = list(itertools.islice(refinement_steps(PRODUCT, a, ap, "sim"), 25))
    for cap in (16, 20, 24):
        attempts.clear()
        report = greatest_fuzzy_simulation(PRODUCT, a, ap, max_iters=cap)
        assert attempts and not any(taken for _done, taken in attempts), cap
        assert report.relation == iterates[cap], cap
        assert (report.iterations, report.converged) == (cap, False)


def test_product_jump_refuses_a_policy_whose_ratios_are_all_1(monkeypatch):
    """phi(x, y) halves every sweep until the y -> z edge at 1/256 sets it, at
    sweep 8; the policy there repeats with every ratio 1, so a jump would only
    copy the iterate.  It is refused, and the plain sweeps stabilize at 9."""
    a = FuzzyAutomaton("A", ["x"], ["a"], {("x", "a", "x"): "1"}, {"x": "1"}, {"x": "1"})
    ap = FuzzyAutomaton("B", ["y", "z"], ["a"],
                        {("y", "a", "y"): "1/2", ("y", "a", "z"): "1/256",
                         ("z", "a", "z"): "1"},
                        {"y": "1"}, {"y": "1", "z": "1"})
    attempts = _jump_attempts(monkeypatch)
    report = greatest_fuzzy_simulation(PRODUCT, a, ap, max_iters=100)
    assert report.relation.degree("x", "y") == Fraction(1, 256)
    assert (report.iterations, report.converged) == (9, True)
    assert attempts == [(8, False)]


def _jump_attempts(monkeypatch) -> list:
    """Patches policy.jump to append (done, taken) to the returned list on each
    attempt."""
    from fuzzybisim import policy
    jump, attempts = policy.jump, []

    def counted(kernel, phi, done, steps):
        jumped = jump(kernel, phi, done, steps)
        attempts.append((done, jumped is not None))
        return jumped

    monkeypatch.setattr(policy, "jump", counted)
    return attempts


def _two_cycles(name, prime, degrees):
    """s -> t -> x0 and the cycle x0 <-> x1 on a, the cycle y0 -> y1 -> y2 -> y0
    on b, at the given five cycle degrees; s starts, every state is terminal."""
    states = [q + prime for q in ("s", "t", "x0", "x1", "y0", "y1", "y2")]
    s, t, x0, x1, y0, y1, y2 = states
    edges = [(s, "a", t), (t, "a", x0), (x0, "a", x1), (x1, "a", x0),
             (y0, "b", y1), (y1, "b", y2), (y2, "b", y0)]
    delta = dict(zip(edges, ["1", "1", *degrees]))
    return FuzzyAutomaton(name, states, ["a", "b"], delta, {s: "1"}, dict.fromkeys(states, "1"))


def test_product_jump_period_is_the_lcm_of_the_cycles(monkeypatch):
    """A' decays around a 2-cycle and a 3-cycle, so the policy repeats every 6
    sweeps.  The attempt at sweep 8 jumps at every cap, reading the target off
    the window at the cap's phase; a period of 3 would jump to the wrong
    iterate."""
    a = _two_cycles("A", "", ["1"] * 5)
    ap = _two_cycles("B", "'", ["1/2", "1/5", "1/3", "2/7", "3/4"])
    attempts = _jump_attempts(monkeypatch)
    iterates = list(itertools.islice(refinement_steps(PRODUCT, a, ap, "sim"), 301))
    for cap in (33, 40, 41, 45, 100, 200, 300):
        attempts.clear()
        report = greatest_fuzzy_simulation(PRODUCT, a, ap, max_iters=cap)
        assert report.relation == iterates[cap], cap
        assert (report.iterations, report.converged) == (cap, False)
        assert attempts == [(8, True)], cap
    with time_limit(5), pytest.raises(NonConvergenceError, match="within 1000000000000 "):
        greatest_fuzzy_simulation(PRODUCT, a, ap, max_iters=10 ** 12)


def test_product_jump_is_refused_while_the_support_shrinks(monkeypatch):
    """A is a0 -> ... -> a10 at 1 and A' is b0 -> ... -> b9 at 1/2, one state
    shorter: the simulation loses pairs until sweep 11, so at sweep 8 some
    F(phi)(i) is 0 and the policy cannot be followed."""
    def chain(name, prefix, n, degree):
        states = [f"{prefix}{i}" for i in range(n)]
        delta = {(p, "a", q): degree for p, q in itertools.pairwise(states)}
        return FuzzyAutomaton(name, states, ["a"], delta, {states[0]: "1"},
                              dict.fromkeys(states, "1"))

    a, ap = chain("A", "a", 11, "1"), chain("B", "b", 10, "1/2")
    attempts = _jump_attempts(monkeypatch)
    iterates = list(refinement_steps(PRODUCT, a, ap, "sim"))
    assert len(iterates) == 12 and iterates[10] == iterates[11]
    for cap in (9, 12, 40):
        attempts.clear()
        report = greatest_fuzzy_simulation(PRODUCT, a, ap, max_iters=cap)
        assert report.relation == iterates[min(cap, 11)], cap
        assert (report.iterations, report.converged) == ((9, False) if cap == 9 else (11, True))
        assert attempts == [(8, False)], cap


_LATTICES = (GOEDEL, LUKASIEWICZ, PRODUCT)
# product runs may decay for ever: capped here, they cover the jump to the cap
_METAMORPHIC_CAP = 200


def _metamorphic_pair(seed):
    pool = _JUMP_POOLS[seed % 3]
    rng = random.Random(7000 + seed)
    return [random_automaton(name, rng.randint(2, 6), ["a", "b"], pool, 7100 + 2 * seed + k,
                             density=0.5) for k, name in enumerate("AB")]


def _renamed(aut, seed):
    """aut with its states renamed and listed in a seeded order, and the renaming."""
    order = list(aut.states)
    random.Random(seed).shuffle(order)
    name = {x: f"s{len(order) - k}" for k, x in enumerate(order)}
    delta = {(name[x], s, name[y]): d for (x, s, y), d in aut.transitions()}
    return (FuzzyAutomaton(aut.name, [name[x] for x in order], aut.alphabet, delta,
                           {name[x]: d for x, d in aut.sigma.items()},
                           {name[x]: d for x, d in aut.tau.items()}), name)


@pytest.mark.parametrize("lat", _LATTICES, ids=lambda lat: lat.kind)
def test_renaming_states_renames_the_greatest_relation(lat, monkeypatch):
    from fuzzybisim import policy
    jumps = []

    def counted(*args):
        jumped = jump(*args)
        jumps.append(jumped is not None)
        return jumped

    jump = policy.jump
    monkeypatch.setattr(policy, "jump", counted)
    for seed in range(20):
        a, ap = _metamorphic_pair(seed)
        (ra, name), (rap, name_p) = _renamed(a, seed), _renamed(ap, 100 + seed)
        for greatest in (greatest_fuzzy_simulation, greatest_fuzzy_bisimulation):
            report = greatest(lat, a, ap, max_iters=_METAMORPHIC_CAP)
            renamed = greatest(lat, ra, rap, max_iters=_METAMORPHIC_CAP)
            assert renamed.relation == FuzzyRelation(
                {(name[x], name_p[xp]): d for (x, xp), d in report.relation.items()})
            assert renamed[1:] == report[1:]        # norm, kind, iterations, converged
    if lat is PRODUCT:
        assert True in jumps


def _raise_one(aut, seed):
    """aut with one transition or terminal degree raised to a larger pool degree."""
    rng = random.Random(seed)
    pool = sorted({d for _key, d in aut.transitions()} | {ONE})
    delta, tau = dict(aut.transitions()), dict(aut.tau.items())
    key = (rng.choice(aut.states), rng.choice(aut.alphabet), rng.choice(aut.states))
    degrees, key = (delta, key) if rng.random() < 0.75 else (tau, rng.choice(aut.states))
    degrees[key] = rng.choice([d for d in pool if d > degrees.get(key, ZERO)] or [ONE])
    return FuzzyAutomaton(aut.name, aut.states, aut.alphabet, delta, aut.sigma, tau)


@pytest.mark.parametrize("lat", _LATTICES, ids=lambda lat: lat.kind)
def test_greatest_simulation_is_monotone_in_a_prime_and_antitone_in_a(lat):
    # F is monotone in delta' and tau' and antitone in delta and tau, so
    # every iterate, capped or converged, moves the same way
    moved = 0
    for seed in range(30):
        a, ap = _metamorphic_pair(seed)
        base = greatest_fuzzy_simulation(lat, a, ap, max_iters=_METAMORPHIC_CAP).relation
        higher = greatest_fuzzy_simulation(lat, a, _raise_one(ap, 7500 + seed),
                                           max_iters=_METAMORPHIC_CAP).relation
        lower = greatest_fuzzy_simulation(lat, _raise_one(a, 7600 + seed), ap,
                                          max_iters=_METAMORPHIC_CAP).relation
        assert pointwise_leq(base, higher) and pointwise_leq(lower, base)
        moved += (higher != base) + (lower != base)
    assert moved >= 10


@pytest.mark.parametrize("lat", [LUKASIEWICZ, PRODUCT], ids=lambda lat: lat.kind)
def test_composed_greatest_relations_are_closed(lat):
    # criterion 9 checks this closure on godel; here the t-norm composes
    # degrees strictly below both factors.  An unconverged iterate need not be
    # a simulation, and an empty composition passes trivially: neither counts
    checked = 0
    for seed in range(50):
        a = _metamorphic_pair(seed)[0]
        b = _raise_one(a, 7300 + seed)
        c = _raise_one(b, 7400 + seed)
        for greatest, check, norm in (
                (greatest_fuzzy_simulation, check_fuzzy_simulation, sim_norm),
                (greatest_fuzzy_bisimulation, check_fuzzy_bisimulation, bisim_norm)):
            ab = greatest(lat, a, b, max_iters=_METAMORPHIC_CAP)
            bc = greatest(lat, b, c, max_iters=_METAMORPHIC_CAP)
            if not (ab.converged and bc.converged):
                continue
            comp = compose_rel_rel(lat, ab.relation, bc.relation)
            assert check(lat, a, c, comp)
            assert norm(lat, a, c, comp) >= lat.tnorm(ab.norm, bc.norm)
            checked += bool(comp)
    assert checked >= 30
