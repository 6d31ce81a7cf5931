"""Brute-force verifiers and random generators used to cross-check the
main algorithms.

Everything here recomputes the defining inequalities from scalar lattice
operations and explicit loops over full state spaces, each inclusion once:
phi is a bisimulation when phi^-1 is a simulation of A' by A as well, so
each backward condition is the forward one on (A', A, phi^-1).  It still
avoids the relation calculus (compositions, converse) and the refinement
kernel: two independent code paths have to agree before a result counts
as verified.
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


def _forward_violations(lat, a, ap, phi: dict, symbols) -> tuple:
    """The violated coordinates [(coordinate, lhs, rhs), ...] of the initial,
    transition and terminal inclusions of a simulation of A by A', for phi
    given as a dict (x, x') -> degree."""
    initial = []
    for x in a.states:
        lhs = a.sigma.degree(x)
        rhs = ZERO
        for xp in ap.states:
            v = lat.tnorm(ap.sigma.degree(xp), phi.get((x, xp), ZERO))
            if v > rhs:
                rhs = v
        if lhs > rhs:
            initial.append(((x,), lhs, rhs))

    trans = []
    for s in symbols:
        for xp in ap.states:
            for y in a.states:
                lhs = ZERO
                for x in a.states:
                    v = lat.tnorm(phi.get((x, xp), ZERO), a.delta_degree(x, s, y))
                    if v > lhs:
                        lhs = v
                rhs = ZERO
                for yp in ap.states:
                    v = lat.tnorm(ap.delta_degree(xp, s, yp), phi.get((y, yp), ZERO))
                    if v > rhs:
                        rhs = v
                if lhs > rhs:
                    trans.append(((s, xp, y), lhs, rhs))

    terminal = []
    for xp in ap.states:
        lhs = ZERO
        for x in a.states:
            v = lat.tnorm(phi.get((x, xp), ZERO), a.tau.degree(x))
            if v > lhs:
                lhs = v
        rhs = ap.tau.degree(xp)
        if lhs > rhs:
            terminal.append(((xp,), lhs, rhs))
    return initial, trans, terminal


def pointwise_condition_report(lat: ResiduatedLattice, a: FuzzyAutomaton,
                               ap: FuzzyAutomaton, phi: FuzzyRelation) -> dict:
    """Expand all six defining inclusions pointwise.

    Returns {condition id: [(coordinate, lhs, rhs), ...]} listing every
    violated coordinate.  An empty report means phi is a fuzzy bisimulation
    whose converse also covers both initial sets; the forward half alone
    (initial-fwd, trans-fwd, terminal-fwd) characterizes simulations.
    """
    symbols = sorted(set(a.alphabet) | set(ap.alphabet))
    inverse = {(xp, x): d for (x, xp), d in phi.items()}
    violations = (*_forward_violations(lat, a, ap, dict(phi.items()), symbols),
                  *_forward_violations(lat, ap, a, inverse, symbols))
    return {c: viols for c, viols in zip(CONDITIONS, violations) if viols}


def is_fuzzy_simulation_bruteforce(lat, a, ap, phi) -> bool:
    report = pointwise_condition_report(lat, a, ap, phi)
    return "trans-fwd" not in report and "terminal-fwd" not in report


def is_fuzzy_bisimulation_bruteforce(lat, a, ap, phi) -> bool:
    report = pointwise_condition_report(lat, a, ap, phi)
    return all(c not in report for c in
               ("trans-fwd", "terminal-fwd", "trans-bwd", "terminal-bwd"))


def _step_bound(lat, a, ap, phi: dict, x, xp, symbols, v):
    """v met with every transition constraint of a simulation phi of A by A'
    at (x, x'): delta_s(x, y) -> sup over y' of delta'_s(x', y') (x) phi(y, y')."""
    for s in symbols:
        for y in a.states:
            dd = a.delta_degree(x, s, y)
            if dd == ZERO:
                continue
            best = ZERO
            for yp in ap.states:
                t = lat.tnorm(ap.delta_degree(xp, s, yp), phi.get((y, yp), ZERO))
                if t > best:
                    best = t
            r = lat.residuum(dd, best)
            if r < v:
                v = r
        if v == ZERO:
            break
    return v


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
        inverse = {(xp, x): d for (x, xp), d in cur.items()}
        nxt = {}
        for (x, xp), d in cur.items():
            v = _step_bound(lat, a, ap, cur, x, xp, symbols, d)
            if bidir and v != ZERO:
                v = _step_bound(lat, ap, a, inverse, xp, x, symbols, v)
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


def _pool(value_pool) -> list:
    """The distinct degrees of a non-empty value pool, sorted."""
    pool = sorted({parse_degree(v) for v in value_pool})
    if not pool:
        raise InputError("value pool must be non-empty")
    return pool


def random_relation(universe_a, universe_b, value_pool, seed: int,
                    density: float = 0.5) -> RelationSample:
    """Seeded random fuzzy relation between two state sets."""
    pool = _pool(value_pool)
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
    pool = _pool(value_pool)
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
