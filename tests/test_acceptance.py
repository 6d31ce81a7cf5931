"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with -s (or read captured output) to see the per-criterion lines.
Everything is exact rational arithmetic; there are no tolerances.
"""

import itertools
import random
import time
from fractions import Fraction

from fuzzybisim import (
    GOEDEL,
    LUKASIEWICZ,
    ONE,
    PRODUCT,
    ZERO,
    FuzzyAutomaton,
    FuzzyRelation,
    approx_from_greatest,
    bisim_norm,
    check_crisp_bisimulation,
    check_crisp_simulation,
    check_fuzzy_bisimulation,
    check_fuzzy_simulation,
    check_lambda_approx_bisimulation,
    check_lambda_approx_simulation,
    compose_rel_rel,
    converse,
    eval_formula,
    greatest_fuzzy_bisimulation,
    greatest_fuzzy_simulation,
    hm_agreement,
    identity_rel,
    is_reflexive,
    is_symmetric,
    is_transitive,
    max_approx_lambda,
    parse_formula,
    pointwise_leq,
    refinement_steps,
    sim_norm,
    union,
    verify_preservation,
)
from fuzzybisim.errors import NonConvergenceError
from fuzzybisim.oracle import random_automaton, random_relation, shrink_to_simulation

POOL = ("0", "1/4", "1/2", "3/4", "1")

SIM_GODEL = FuzzyRelation({
    ("u", "u'"): "7/10", ("v", "v'"): "1", ("v", "w'"): "1",
    ("w", "v'"): "3/5", ("w", "w'"): "1",
})
BISIM_GODEL = FuzzyRelation({
    ("u", "u'"): "3/5", ("v", "v'"): "1", ("v", "w'"): "3/5",
    ("w", "v'"): "3/5", ("w", "w'"): "1",
})


def report(number, description, ok):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01(aut_a, aut_ap):
    start = time.perf_counter()
    result = greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap)
    elapsed = time.perf_counter() - start
    ok = (result.relation == SIM_GODEL
          and result.norm == Fraction(3, 5)
          and result.converged
          and elapsed < 1.0)
    report(1, "greatest godel simulation on the reference pair", ok)


def test_criterion_02(aut_a, aut_ap):
    result = greatest_fuzzy_simulation(PRODUCT, aut_a, aut_ap)
    ok = (result.relation.degree("u", "u'") == Fraction(7, 8)
          and result.relation.degree("w", "v'") == Fraction(6, 7)
          and result.norm == Fraction(3, 4))
    report(2, "greatest product simulation entries and norm", ok)


def test_criterion_03(aut_a, aut_ap):
    godel = greatest_fuzzy_bisimulation(GOEDEL, aut_a, aut_ap)
    product = greatest_fuzzy_bisimulation(PRODUCT, aut_a, aut_ap)
    ok = (godel.relation == BISIM_GODEL
          and godel.norm == Fraction(3, 5)
          and product.relation.degree("u", "u'") == Fraction(6, 7)
          and product.relation.degree("v", "w'") == Fraction(6, 7)
          and product.relation.degree("w", "v'") == Fraction(6, 7)
          and product.norm == Fraction(36, 49))
    report(3, "greatest godel and product bisimulations", ok)


def test_criterion_04(aut_a, aut_ap):
    lam = Fraction(3, 5)
    relaxed_sim = approx_from_greatest(SIM_GODEL, lam)
    relaxed_bisim = approx_from_greatest(BISIM_GODEL, lam)
    all_ones_sim = FuzzyRelation({k: ONE for k in SIM_GODEL.support()})
    all_ones_bisim = FuzzyRelation({k: ONE for k in BISIM_GODEL.support()})
    ok = (relaxed_sim == all_ones_sim
          and relaxed_bisim == all_ones_bisim
          and len(relaxed_sim) == 5
          and check_lambda_approx_simulation(GOEDEL, aut_a, aut_ap, relaxed_sim, lam)
          and check_lambda_approx_bisimulation(GOEDEL, aut_a, aut_ap, relaxed_bisim, lam)
          and max_approx_lambda(GOEDEL, aut_a, aut_ap, "sim") == lam
          and max_approx_lambda(GOEDEL, aut_a, aut_ap, "bisim") == lam)
    report(4, "degree-3/5 relaxation accepted and maximal", ok)


def test_criterion_05(aut_a, aut_ap):
    computed = [
        (GOEDEL, greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap).relation),
        (PRODUCT, greatest_fuzzy_simulation(PRODUCT, aut_a, aut_ap).relation),
        (GOEDEL, greatest_fuzzy_bisimulation(GOEDEL, aut_a, aut_ap).relation),
        (PRODUCT, greatest_fuzzy_bisimulation(PRODUCT, aut_a, aut_ap).relation),
    ]
    ok = all(
        not check_crisp_simulation(lat, aut_a, aut_ap, rel)
        and not check_crisp_bisimulation(lat, aut_a, aut_ap, rel)
        for lat, rel in computed)
    rejected = 0
    for seed in range(20):
        psi = random_relation(aut_a.states, aut_ap.states, POOL, seed,
                              density=0.8).relation
        shrunk = shrink_to_simulation(GOEDEL, aut_a, aut_ap, psi)
        if (check_fuzzy_simulation(GOEDEL, aut_a, aut_ap, shrunk)
                and not check_crisp_simulation(GOEDEL, aut_a, aut_ap, shrunk)
                and not check_crisp_bisimulation(GOEDEL, aut_a, aut_ap, shrunk)):
            rejected += 1
    ok = ok and rejected == 20
    report(5, "no plain relation exists when the norm is below 1", ok)


def test_criterion_06(aut_a, aut_ap):
    stepped = parse_formula("<s> (0.7 -> T)")
    guarded = parse_formula("(0.7 -> <s> T)")
    ok = (eval_formula(GOEDEL, aut_a, stepped).degree("u") == Fraction(4, 5)
          and eval_formula(GOEDEL, aut_ap, stepped).degree("u'") == Fraction(7, 10)
          and eval_formula(GOEDEL, aut_a, guarded).degree("u") == ONE
          and eval_formula(GOEDEL, aut_ap, guarded).degree("u'") == ONE)
    report(6, "reference formula readouts reproduce exactly", ok)


def test_criterion_07(aut_a, aut_ap):
    start = time.perf_counter()
    sim = hm_agreement(GOEDEL, aut_a, aut_ap, 3, "sim")
    bisim = hm_agreement(GOEDEL, aut_a, aut_ap, 3, "bisim")
    elapsed = time.perf_counter() - start
    ok = (sim.matches_fixpoint and sim.relation == SIM_GODEL
          and bisim.matches_fixpoint and bisim.relation == BISIM_GODEL
          and elapsed < 30.0)
    report(7, "depth-3 formula infimum equals both fixpoints", ok)


def test_criterion_08(aut_a, aut_ap):
    sim_g = verify_preservation(GOEDEL, aut_a, aut_ap, SIM_GODEL, 3, kind="sim")
    bisim_g = verify_preservation(GOEDEL, aut_a, aut_ap, BISIM_GODEL, 3, kind="bisim")
    product_rel = greatest_fuzzy_simulation(PRODUCT, aut_a, aut_ap).relation
    sim_p = verify_preservation(PRODUCT, aut_a, aut_ap, product_rel, 3, kind="sim")
    ok = all(r.pointwise_ok and r.global_ok and r.exact
             for r in (sim_g, bisim_g, sim_p))
    ok = ok and sim_g.global_degree == Fraction(3, 5) == sim_norm(
        GOEDEL, aut_a, aut_ap, SIM_GODEL)
    report(8, "bounded language inequalities hold and the bound is tight", ok)


def _lattice_law_cases(count=200):
    checked = 0
    for lat, seed in ((GOEDEL, 31), (LUKASIEWICZ, 32), (PRODUCT, 33)):
        rng = random.Random(seed)
        for _ in range(count):
            den = rng.randint(1, 12)
            a = Fraction(rng.randint(0, den), den)
            b = Fraction(rng.randint(0, den), den)
            c = Fraction(rng.randint(0, den), den)
            assert (lat.tnorm(a, b) <= c) == (a <= lat.residuum(b, c))
            lo, hi = min(a, b), max(a, b)
            assert lat.tnorm(lo, c) <= lat.tnorm(hi, c)
            assert lat.residuum(hi, c) <= lat.residuum(lo, c)
            assert lat.residuum(c, lo) <= lat.residuum(c, hi)
            assert (a <= b) == (lat.residuum(a, b) == ONE)
            assert lat.tnorm(a, ZERO) == ZERO
            assert lat.tnorm(a, lat.residuum(a, b)) <= b
            assert lat.residuum(a, lat.residuum(b, c)) == lat.residuum(lat.tnorm(a, b), c)
            assert lat.tnorm(a, lat.residuum(b, c)) <= lat.residuum(b, lat.tnorm(a, c))
            assert lat.biresiduum(a, b) <= lat.biresiduum(
                lat.biresiduum(c, a), lat.biresiduum(c, b))
            batch = [Fraction(rng.randint(0, den), den) for _ in range(3)]
            assert lat.tnorm(a, max(batch)) == max(lat.tnorm(a, x) for x in batch)
            assert lat.residuum(max(batch), b) == min(lat.residuum(x, b) for x in batch)
            checked += 1
    return checked


def _closure_cases():
    checked = 0
    for seed in range(35):
        rng_sizes = random.Random(1000 + seed)
        sizes = [rng_sizes.randint(2, 4) for _ in range(3)]
        a = random_automaton("A", sizes[0], ["a", "b"], POOL, 3 * seed)
        b = random_automaton("B", sizes[1], ["a", "b"], POOL, 3 * seed + 1)
        c = random_automaton("C", sizes[2], ["a", "b"], POOL, 3 * seed + 2)

        sim_ab = greatest_fuzzy_simulation(GOEDEL, a, b)
        sim_bc = greatest_fuzzy_simulation(GOEDEL, b, c)
        comp = compose_rel_rel(GOEDEL, sim_ab.relation, sim_bc.relation)
        assert check_fuzzy_simulation(GOEDEL, a, c, comp)
        assert sim_norm(GOEDEL, a, c, comp) >= GOEDEL.tnorm(sim_ab.norm, sim_bc.norm)
        checked += 1

        bis_ab = greatest_fuzzy_bisimulation(GOEDEL, a, b)
        bis_bc = greatest_fuzzy_bisimulation(GOEDEL, b, c)
        bcomp = compose_rel_rel(GOEDEL, bis_ab.relation, bis_bc.relation)
        assert check_fuzzy_bisimulation(GOEDEL, a, c, bcomp)
        assert bisim_norm(GOEDEL, a, c, bcomp) >= GOEDEL.tnorm(bis_ab.norm, bis_bc.norm)
        checked += 1

    from fuzzybisim.oracle import shrink_to_bisimulation
    for seed in range(35):
        a = random_automaton("A", 3, ["a"], POOL, 2000 + 2 * seed)
        b = random_automaton("B", 3, ["a"], POOL, 2000 + 2 * seed + 1)
        psi = random_relation(a.states, b.states, POOL, seed, density=0.7).relation
        member = shrink_to_simulation(GOEDEL, a, b, psi)
        top = greatest_fuzzy_simulation(GOEDEL, a, b)
        joined = union([member, top.relation])
        assert check_fuzzy_simulation(GOEDEL, a, b, joined)
        assert sim_norm(GOEDEL, a, b, joined) >= max(
            sim_norm(GOEDEL, a, b, member), top.norm)
        checked += 1

        bmember = shrink_to_bisimulation(GOEDEL, a, b, psi)
        btop = greatest_fuzzy_bisimulation(GOEDEL, a, b)
        bjoined = union([bmember, btop.relation])
        assert check_fuzzy_bisimulation(GOEDEL, a, b, bjoined)
        assert bisim_norm(GOEDEL, a, b, bjoined) >= max(
            bisim_norm(GOEDEL, a, b, bmember), btop.norm)
        checked += 1

    for seed in range(60):
        a = random_automaton("A", 3, ["a", "b"], POOL, 4000 + 2 * seed)
        b = random_automaton("B", 3, ["a", "b"], POOL, 4000 + 2 * seed + 1)
        top = greatest_fuzzy_bisimulation(GOEDEL, a, b)
        flipped = converse(top.relation)
        assert check_fuzzy_bisimulation(GOEDEL, b, a, flipped)
        assert bisim_norm(GOEDEL, b, a, flipped) == top.norm
        checked += 1
    return checked


def _maximality_cases(lat):
    """Fixpoint vs oracle on random pairs and self-pairs: each converged
    greatest relation passes the brute-force condition check, equals the
    oracle's shrink of the all-ones relation, and lies above the shrink of a
    random relation.  Returns the numbers of checked and of skipped cases,
    those where the fixpoint or the shrink does not stabilize."""
    from fuzzybisim.oracle import (
        is_fuzzy_bisimulation_bruteforce,
        is_fuzzy_simulation_bruteforce,
        shrink_to_bisimulation,
    )
    checked = skipped = 0
    for seed in range(100):
        a = random_automaton("A", 4, ["a", "b"], POOL, 6000 + 2 * seed)
        b = random_automaton("B", 4, ["a", "b"], POOL, 6000 + 2 * seed + 1)
        copy = FuzzyAutomaton("A2", a.states, a.alphabet, dict(a.transitions()), a.sigma, a.tau)
        psi = random_relation(a.states, b.states, POOL, seed, density=0.6).relation
        all_ones = FuzzyRelation({(x, y): ONE for x in a.states for y in b.states})
        for ap, (greatest, brute, shrink, norm) in itertools.product((b, copy), (
            (greatest_fuzzy_simulation, is_fuzzy_simulation_bruteforce,
             shrink_to_simulation, sim_norm),
            (greatest_fuzzy_bisimulation, is_fuzzy_bisimulation_bruteforce,
             shrink_to_bisimulation, bisim_norm),
        )):
            top = greatest(lat, a, ap, max_iters=100)
            if not top.converged:
                skipped += 1
                continue
            assert brute(lat, a, ap, top.relation)
            assert shrink(lat, a, ap, all_ones) == top.relation
            try:
                shrunk = shrink(lat, a, ap, psi, max_iters=100)
            except NonConvergenceError:
                skipped += 1
                continue
            assert pointwise_leq(shrunk, top.relation)
            assert norm(lat, a, ap, shrunk) <= top.norm
            checked += 1
    return checked, skipped


def _auto_equivalence_cases():
    checked = 0
    for seed in range(30):
        rng = random.Random(8000 + seed)
        aut = random_automaton("S", rng.randint(2, 6), ["a", "b"], POOL, 8000 + seed)
        result = greatest_fuzzy_bisimulation(GOEDEL, aut, aut)
        rel = result.relation
        assert result.converged
        assert is_reflexive(rel, aut.states)
        assert is_symmetric(rel)
        assert is_transitive(GOEDEL, rel)
        assert result.norm == ONE
        assert pointwise_leq(identity_rel(aut.states), rel)
        assert check_crisp_bisimulation(GOEDEL, aut, aut, rel)
        sim = greatest_fuzzy_simulation(GOEDEL, aut, aut)
        assert sim.norm == ONE
        assert check_crisp_simulation(GOEDEL, aut, aut, sim.relation)
        # lifting at the norm keeps the approximation conditions intact
        lifted = approx_from_greatest(rel, result.norm)
        assert pointwise_leq(rel, lifted)
        assert check_lambda_approx_bisimulation(GOEDEL, aut, aut, lifted, result.norm)
        checked += 1
    return checked


def test_criterion_09():
    laws = _lattice_law_cases()
    closure = _closure_cases()
    maximality = {lat.kind: _maximality_cases(lat) for lat in (GOEDEL, LUKASIEWICZ, PRODUCT)}
    equivalence = _auto_equivalence_cases()
    ok = (laws >= 200 and closure >= 200 and equivalence >= 30
          and maximality["godel"] == (400, 0) and maximality["lukasiewicz"] == (400, 0)
          and maximality["product"][0] >= 300)
    checked = ", ".join(f"{kind} {done} (+{skipped} not converged)"
                        for kind, (done, skipped) in maximality.items())
    report(9, f"property suites (laws={laws}, closure={closure}, "
              f"maximality: {checked}, self-equivalence={equivalence})", ok)


def test_criterion_10():
    pairs = 0
    for seed in range(100):
        rng = random.Random(9000 + seed)
        n1, n2 = rng.randint(2, 8), rng.randint(2, 8)
        symbols = ["a", "b"][: rng.randint(1, 2)]
        a = random_automaton("A", n1, symbols, POOL, 9000 + 2 * seed)
        b = random_automaton("B", n2, symbols, POOL, 9000 + 2 * seed + 1)
        values = {ZERO, ONE}
        for aut in (a, b):
            values.update(d for _x, d in aut.sigma.items())
            values.update(d for _x, d in aut.tau.items())
            values.update(d for _key, d in aut.transitions())
        kind = "sim" if seed % 2 == 0 else "bisim"
        steps = []
        bound = len(values) * len(a.states) * len(b.states)
        for step in refinement_steps(GOEDEL, a, b, kind=kind):
            steps.append(step)
            assert len(steps) <= bound + 1, "sweep bound exceeded"
            assert all(d in values for _pair, d in step.items())
        assert steps[-1] == steps[-2]
        pairs += 1
    report(10, f"godel fixpoint sweep bound and value containment over {pairs} pairs",
           pairs == 100)
