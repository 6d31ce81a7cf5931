"""Brute-force verifiers and random generators used to cross-check the
main algorithms.

Everything here recomputes the defining inequalities from scalar lattice
operations and explicit loops over full state spaces.  It deliberately
avoids the relation-calculus helpers: two independent code paths have to
agree before a result counts as verified.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .automata import FuzzyAutomaton
from .errors import InputError, NonConvergenceError
from .fuzzyrel import FuzzyRelation
from .lattice import ZERO, ResiduatedLattice, parse_degree
from .simrel import resolve_max_iters

CONDITIONS = (
    "initial-fwd",
    "trans-fwd",
    "terminal-fwd",
    "initial-bwd",
    "trans-bwd",
    "terminal-bwd",
)


def pointwise_condition_report(lat: ResiduatedLattice, a: FuzzyAutomaton,
                               ap: FuzzyAutomaton, phi: FuzzyRelation) -> dict:
    """Expand all six defining inclusions pointwise.

    Returns {condition id: [(coordinate, lhs, rhs), ...]} listing every
    violated coordinate.  An empty report means phi is a fuzzy bisimulation
    whose converse also covers both initial sets; the forward half alone
    (initial-fwd, trans-fwd, terminal-fwd) characterizes simulations.
    """
    symbols = sorted(set(a.alphabet) | set(ap.alphabet))
    report: dict = {}

    viols = []
    for x in a.states:
        lhs = a.sigma.degree(x)
        rhs = ZERO
        for xp in ap.states:
            v = lat.tnorm(ap.sigma.degree(xp), phi.degree(x, xp))
            if v > rhs:
                rhs = v
        if lhs > rhs:
            viols.append(((x,), lhs, rhs))
    if viols:
        report["initial-fwd"] = viols

    viols = []
    for s in symbols:
        for xp in ap.states:
            for y in a.states:
                lhs = ZERO
                for x in a.states:
                    v = lat.tnorm(phi.degree(x, xp), a.delta_degree(x, s, y))
                    if v > lhs:
                        lhs = v
                rhs = ZERO
                for yp in ap.states:
                    v = lat.tnorm(ap.delta_degree(xp, s, yp), phi.degree(y, yp))
                    if v > rhs:
                        rhs = v
                if lhs > rhs:
                    viols.append(((s, xp, y), lhs, rhs))
    if viols:
        report["trans-fwd"] = viols

    viols = []
    for xp in ap.states:
        lhs = ZERO
        for x in a.states:
            v = lat.tnorm(phi.degree(x, xp), a.tau.degree(x))
            if v > lhs:
                lhs = v
        rhs = ap.tau.degree(xp)
        if lhs > rhs:
            viols.append(((xp,), lhs, rhs))
    if viols:
        report["terminal-fwd"] = viols

    viols = []
    for xp in ap.states:
        lhs = ap.sigma.degree(xp)
        rhs = ZERO
        for x in a.states:
            v = lat.tnorm(a.sigma.degree(x), phi.degree(x, xp))
            if v > rhs:
                rhs = v
        if lhs > rhs:
            viols.append(((xp,), lhs, rhs))
    if viols:
        report["initial-bwd"] = viols

    viols = []
    for s in symbols:
        for x in a.states:
            for yp in ap.states:
                lhs = ZERO
                for xp in ap.states:
                    v = lat.tnorm(phi.degree(x, xp), ap.delta_degree(xp, s, yp))
                    if v > lhs:
                        lhs = v
                rhs = ZERO
                for y in a.states:
                    v = lat.tnorm(a.delta_degree(x, s, y), phi.degree(y, yp))
                    if v > rhs:
                        rhs = v
                if lhs > rhs:
                    viols.append(((s, x, yp), lhs, rhs))
    if viols:
        report["trans-bwd"] = viols

    viols = []
    for x in a.states:
        lhs = ZERO
        for xp in ap.states:
            v = lat.tnorm(phi.degree(x, xp), ap.tau.degree(xp))
            if v > lhs:
                lhs = v
        rhs = a.tau.degree(x)
        if lhs > rhs:
            viols.append(((x,), lhs, rhs))
    if viols:
        report["terminal-bwd"] = viols

    return report


def is_fuzzy_simulation_bruteforce(lat, a, ap, phi) -> bool:
    report = pointwise_condition_report(lat, a, ap, phi)
    return "trans-fwd" not in report and "terminal-fwd" not in report


def is_fuzzy_bisimulation_bruteforce(lat, a, ap, phi) -> bool:
    report = pointwise_condition_report(lat, a, ap, phi)
    return all(c not in report for c in
               ("trans-fwd", "terminal-fwd", "trans-bwd", "terminal-bwd"))


def _shrink(lat, a, ap, psi, bidir, max_iters):
    cap = resolve_max_iters(max_iters)
    symbols = sorted(set(a.alphabet) | set(ap.alphabet))
    cur = {}
    for (x, xp), d in psi.items():
        bound = lat.residuum(a.tau.degree(x), ap.tau.degree(xp))
        if bidir:
            bound = min(bound, lat.residuum(ap.tau.degree(xp), a.tau.degree(x)))
        v = min(d, bound)
        if v != ZERO:
            cur[(x, xp)] = v
    for _ in range(cap):
        nxt = {}
        for (x, xp), d in cur.items():
            v = d
            for s in symbols:
                for y in a.states:
                    dd = a.delta_degree(x, s, y)
                    if dd == ZERO:
                        continue
                    best = ZERO
                    for yp in ap.states:
                        t = lat.tnorm(ap.delta_degree(xp, s, yp), cur.get((y, yp), ZERO))
                        if t > best:
                            best = t
                    r = lat.residuum(dd, best)
                    if r < v:
                        v = r
                if v == ZERO:
                    break
                if bidir:
                    for yp in ap.states:
                        dd = ap.delta_degree(xp, s, yp)
                        if dd == ZERO:
                            continue
                        best = ZERO
                        for y in a.states:
                            t = lat.tnorm(a.delta_degree(x, s, y), cur.get((y, yp), ZERO))
                            if t > best:
                                best = t
                        r = lat.residuum(dd, best)
                        if r < v:
                            v = r
                    if v == ZERO:
                        break
            if v != ZERO:
                nxt[(x, xp)] = v
        if nxt == cur:
            return FuzzyRelation(cur)
        cur = nxt
    raise NonConvergenceError(f"shrinking did not stabilize within {cap} sweeps")


def shrink_to_simulation(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton,
                         psi: FuzzyRelation, max_iters=None) -> FuzzyRelation:
    """Greatest fuzzy simulation below psi, by scalar refinement sweeps."""
    return _shrink(lat, a, ap, psi, bidir=False, max_iters=max_iters)


def shrink_to_bisimulation(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton,
                           psi: FuzzyRelation, max_iters=None) -> FuzzyRelation:
    """Greatest fuzzy bisimulation below psi, by scalar refinement sweeps."""
    return _shrink(lat, a, ap, psi, bidir=True, max_iters=max_iters)


class RelationSample(NamedTuple):
    relation: FuzzyRelation
    seed: int
    value_pool: tuple


def random_relation(universe_a, universe_b, value_pool, seed: int,
                    density: float = 0.5) -> RelationSample:
    """Seeded random fuzzy relation between two state sets."""
    pool = sorted({parse_degree(v) for v in value_pool})
    if not pool:
        raise InputError("value pool must be non-empty")
    rng = random.Random(seed)
    entries = {}
    for x in sorted(universe_a):
        for y in sorted(universe_b):
            if rng.random() < density:
                entries[(x, y)] = rng.choice(pool)
    return RelationSample(FuzzyRelation(entries), seed, tuple(pool))


def random_automaton(name: str, n_states: int, symbols, value_pool, seed: int,
                     density: float = 0.4) -> FuzzyAutomaton:
    """Seeded random fuzzy automaton for property tests."""
    pool = sorted({parse_degree(v) for v in value_pool})
    if not pool:
        raise InputError("value pool must be non-empty")
    if n_states < 1:
        raise InputError("need at least one state")
    rng = random.Random(seed)
    states = [f"q{i}" for i in range(n_states)]
    symbols = list(symbols)
    delta = {}
    for x in states:
        for s in symbols:
            for y in states:
                if rng.random() < density:
                    delta[(x, s, y)] = rng.choice(pool)
    sigma = {}
    tau = {}
    for x in states:
        if rng.random() < density:
            sigma[x] = rng.choice(pool)
        if rng.random() < density:
            tau[x] = rng.choice(pool)
    if not sigma:
        sigma[states[0]] = pool[-1]
    if not tau:
        tau[states[-1]] = pool[-1]
    return FuzzyAutomaton(name=name, states=states, alphabet=symbols,
                          delta=delta, sigma=sigma, tau=tau)
