"""Checking and computing (greatest) fuzzy simulations and bisimulations.

A fuzzy relation phi between the states of A and A' is a fuzzy simulation
when, for every symbol s,

    phi^-1 o delta_s <= delta'_s o phi^-1      (forward step condition)
    phi^-1 o tau     <= tau'                   (forward terminal condition)

and a fuzzy bisimulation when phi^-1 is a fuzzy simulation in the other
direction as well.  The plain ("crisp") notions additionally require the
initial sets to be covered: sigma <= sigma' o phi^-1 (and symmetrically).

The greatest such relation is computed downward from the
terminal-residuum candidate

    phi_0(x, x') = tau(x) -> tau'(x')          (<-> for bisimulations)

by Jacobi sweeps phi_{k+1} = F(phi_k) of the refinement operator

    F(phi)(x, x') = phi(x, x') /\\ inf over s, y of
                    delta_s(x, y) -> (delta'_s o phi^-1)(x', y)

(meeting also the mirrored constraint for bisimulations): each sweep
computes every pair from phi_k alone, until an iterate repeats exactly.
`iterations` counts the sweeps, the last one included.  Exact arithmetic
makes that test a plain equality.

The sweeps run on coded degrees, fixed once per (lattice, A, A').  A sweep
applies only the t-norm, the residuum, min and max to the delta, delta',
tau and tau' degrees and to values it made itself, so any set of degrees
that holds those and is closed under the four operations holds every
iterate.  For Godel and Lukasiewicz such a set is finite, and its members
get integer codes:

* Godel: the set V of those degrees plus 0 and 1 is closed, since
  min(p, q) is p or q and p -> q is 1 or q.  A degree is coded by its rank
  in V; ranks are ordered like the degrees, so min, max and the residuum
  (top if p <= q else q) act on ranks unchanged.
* Lukasiewicz: with D the lcm of those degrees' denominators, the grid
  {k/D : 0 <= k <= D} is closed, since max(0, p + q - 1) and
  min(1, 1 - p + q) of grid points are grid points.  k/D is coded by k, so
  p (x) q = max(0, p + q - D) and p -> q = D if p <= q else D - p + q.
* Product: p * q and q / p leave every finite grid, so the degrees stay
  Fractions under the lattice's own operations.

phi_0 is computed on Fractions with the lattice's residuum and then
encoded; iterates are decoded only when handed out, so every result is
the exact Fraction the uncoded iteration gives.

When the two automata have different alphabets, every condition quantifies
over the union, with a missing symbol contributing the empty relation.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .automata import FuzzyAutomaton, delta_rel, max_live_word_length, UNBOUNDED
from .errors import InputError, NonConvergenceError
from .fuzzyrel import (
    FuzzyRelation,
    compose_rel_rel,
    compose_rel_set,
    compose_set_rel,
    compose_set_set,
    converse,
    pointwise_leq,
    relation_json_array,
    relation_from_obj,
    subsethood,
)
from .lattice import ONE, ZERO, ResiduatedLattice, format_degree, meet, parse_degree

DEFAULT_MAX_ITERS = 10000

_EMPTY_REL = FuzzyRelation()


@dataclass(frozen=True)
class SimReport:
    """Result of a greatest-relation computation.

    When converged is True the relation is exactly a fixpoint of the
    refinement operator, hence the greatest fuzzy simulation
    (bisimulation).  Otherwise it is the max_iters-th iterate: still an
    upper bound on every fuzzy simulation (bisimulation), but possibly not
    itself one.  The norm field always holds the initial-matching degree of
    the reported relation.
    """

    relation: FuzzyRelation
    norm: Fraction
    kind: str
    iterations: int
    converged: bool


@dataclass(frozen=True)
class PreservationReport:
    """Bounded-word verification of the language preservation bounds.

    exact is True when the word bound provably covers every live word of
    both automata, making the truncated infima the true ones.
    """

    pointwise_ok: bool
    global_ok: bool
    exact: bool
    global_degree: Fraction


def resolve_max_iters(max_iters=None) -> int:
    """Explicit argument, else FUZZYBISIM_MAX_ITERS, else the default cap."""
    if max_iters is None:
        env = os.environ.get("FUZZYBISIM_MAX_ITERS")
        if env is None:
            return DEFAULT_MAX_ITERS
        try:
            max_iters = int(env)
        except ValueError:
            raise InputError(f"FUZZYBISIM_MAX_ITERS must be an integer, got {env!r}") from None
    if max_iters < 0:
        raise InputError("iteration cap must be >= 0")
    return max_iters


def _norm_kind(kind) -> str:
    k = str(kind).lower()
    if k in ("sim", "simulation"):
        return "simulation"
    if k in ("bisim", "bisimulation"):
        return "bisimulation"
    raise InputError(f"unknown kind {kind!r}; expected sim or bisim")


def _union_symbols(a: FuzzyAutomaton, ap: FuzzyAutomaton) -> list:
    return sorted(set(a.alphabet) | set(ap.alphabet))


def _dr(aut: FuzzyAutomaton, s: str) -> FuzzyRelation:
    return delta_rel(aut, s) if s in aut.alphabet else _EMPTY_REL


def _validate_rel(phi: FuzzyRelation, a: FuzzyAutomaton, ap: FuzzyAutomaton) -> None:
    states_a = set(a.states)
    states_ap = set(ap.states)
    for (x, xp) in phi.support():
        if x not in states_a:
            raise InputError(f"relation references unknown state {x!r} of automaton {a.name!r}")
        if xp not in states_ap:
            raise InputError(f"relation references unknown state {xp!r} of automaton {ap.name!r}")


# ---------------------------------------------------------------- checks

def check_fuzzy_simulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                           ap: FuzzyAutomaton, phi: FuzzyRelation) -> bool:
    _validate_rel(phi, a, ap)
    return _forward_conditions_hold(lat, a, ap, phi)


def check_fuzzy_bisimulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                             ap: FuzzyAutomaton, phi: FuzzyRelation) -> bool:
    _validate_rel(phi, a, ap)
    return (_forward_conditions_hold(lat, a, ap, phi)
            and _backward_conditions_hold(lat, a, ap, phi))


def check_crisp_simulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                           ap: FuzzyAutomaton, phi: FuzzyRelation) -> bool:
    _validate_rel(phi, a, ap)
    return (_initial_covered(lat, a, ap, phi)
            and _forward_conditions_hold(lat, a, ap, phi))


def check_crisp_bisimulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                             ap: FuzzyAutomaton, phi: FuzzyRelation) -> bool:
    _validate_rel(phi, a, ap)
    return (_initial_covered(lat, a, ap, phi)
            and _initial_covered(lat, ap, a, converse(phi))
            and _forward_conditions_hold(lat, a, ap, phi)
            and _backward_conditions_hold(lat, a, ap, phi))


def _initial_covered(lat, a, ap, phi) -> bool:
    return pointwise_leq(a.sigma, compose_set_rel(lat, ap.sigma, converse(phi)))


def _forward_conditions_hold(lat, a, ap, phi) -> bool:
    inv = converse(phi)
    for s in _union_symbols(a, ap):
        lhs = compose_rel_rel(lat, inv, _dr(a, s))
        rhs = compose_rel_rel(lat, _dr(ap, s), inv)
        if not pointwise_leq(lhs, rhs):
            return False
    return pointwise_leq(compose_rel_set(lat, inv, a.tau), ap.tau)


def _backward_conditions_hold(lat, a, ap, phi) -> bool:
    for s in _union_symbols(a, ap):
        lhs = compose_rel_rel(lat, phi, _dr(ap, s))
        rhs = compose_rel_rel(lat, _dr(a, s), phi)
        if not pointwise_leq(lhs, rhs):
            return False
    return pointwise_leq(compose_rel_set(lat, phi, ap.tau), a.tau)


# ---------------------------------------------------------------- norms

def sim_norm(lat: ResiduatedLattice, a: FuzzyAutomaton,
             ap: FuzzyAutomaton, phi: FuzzyRelation) -> Fraction:
    """S(sigma, sigma' o phi^-1): the degree to which initial states are matched.

    Defined for any relation; meaningful when phi passes the simulation check.
    """
    _validate_rel(phi, a, ap)
    return subsethood(lat, a.sigma, compose_set_rel(lat, ap.sigma, converse(phi)))


def bisim_norm(lat: ResiduatedLattice, a: FuzzyAutomaton,
               ap: FuzzyAutomaton, phi: FuzzyRelation) -> Fraction:
    _validate_rel(phi, a, ap)
    return meet(sim_norm(lat, a, ap, phi),
                subsethood(lat, ap.sigma, compose_set_rel(lat, a.sigma, phi)))


# ---------------------------------------------------------------- fixpoint

def _codec(lat: ResiduatedLattice, degrees: set) -> tuple:
    """(encode, decode, tnorm, residuum) over the codes of lat for a pair
    whose delta, delta', tau and tau' degrees are the given set."""
    if lat.kind == "godel":
        values = sorted(degrees | {ZERO, ONE})
        rank = {v: i for i, v in enumerate(values)}
        top = len(values) - 1
        return (rank.__getitem__, values.__getitem__, min,
                lambda p, q: top if p <= q else q)
    if lat.kind == "lukasiewicz":
        den = math.lcm(*(d.denominator for d in degrees))
        return (lambda v: v.numerator * (den // v.denominator),
                lambda k: Fraction(k, den),
                lambda p, q: p + q - den if p + q > den else 0,
                lambda p, q: den if p <= q else den - p + q)
    return (lambda v: v), (lambda v: v), lat.tnorm, lat.residuum


class _Kernel:
    """The refinement operator F of one (lattice, A, A', kind), over codes.

    An iterate is a flat list of codes indexed by x * |A'| + x', with states
    numbered by their position; the code of 0 is the only falsy code.
    """

    __slots__ = ("a", "ap", "bidir", "zero", "decode", "tnorm", "residuum",
                 "edges", "edges_p", "succ", "succ_p", "phi0")

    def __init__(self, lat, a, ap, bidir: bool):
        self.a, self.ap, self.bidir = a, ap, bidir
        pos = {x: i for i, x in enumerate(a.states)}
        pos_p = {x: i for i, x in enumerate(ap.states)}
        rels = [(_dr(a, s).items(), _dr(ap, s).items()) for s in _union_symbols(a, ap)]
        degrees = {d for rel, rel_p in rels for _key, d in rel + rel_p}
        degrees.update(d for _x, d in a.tau.items() + ap.tau.items())
        encode, self.decode, self.tnorm, self.residuum = _codec(lat, degrees)
        self.zero = encode(ZERO)
        # per symbol: the coded transitions as (from, to, code) and grouped by source
        self.edges = [[(pos[x], pos[y], encode(d)) for (x, y), d in rel] for rel, _ in rels]
        self.edges_p = [[(pos_p[x], pos_p[y], encode(d)) for (x, y), d in rel_p]
                        for _, rel_p in rels]
        self.succ = [_by_src(e, len(pos)) for e in self.edges]
        self.succ_p = [_by_src(e, len(pos_p)) for e in self.edges_p]
        op = lat.biresiduum if bidir else lat.residuum
        self.phi0 = [encode(op(a.tau.degree(x), ap.tau.degree(xp)))
                     for x in a.states for xp in ap.states]

    def _compose(self, edges, groups, rows: int, cols: int) -> list:
        """sup over (x, y, d) in edges and (z, e) in groups[y] of d (x) e, at x * cols + z."""
        tnorm = self.tnorm
        out = [self.zero] * (rows * cols)
        for x, y, d in edges:
            base = x * cols
            for z, e in groups[y]:
                v = tnorm(d, e)
                if v > out[base + z]:
                    out[base + z] = v
        return out

    def refine(self, phi: list) -> list:
        """F(phi): one Jacobi sweep, every pair computed from phi alone."""
        n, m, residuum = len(self.a.states), len(self.ap.states), self.residuum
        support = [i for i, v in enumerate(phi) if v]
        by_second = [[] for _ in range(m)]      # y' -> [(y, phi(y, y'))]
        by_first = [[] for _ in range(n)]       # y -> [(y', phi(y, y'))]
        for i in support:
            y, yp = divmod(i, m)
            by_second[yp].append((y, phi[i]))
            if self.bidir:
                by_first[y].append((yp, phi[i]))
        # (succ, mirrored, comp) per constraint: delta_s(x, y) ->
        # (delta'_s o phi^-1)(x', y) with comp at x' * n + y, and for
        # bisimulations delta'_s(x', y') -> (delta_s o phi)(x, y') with comp
        # at x * m + y'
        checks = []
        for s, succ in enumerate(self.succ):
            checks.append((succ, False, self._compose(self.edges_p[s], by_second, m, n)))
            if self.bidir:
                checks.append((self.succ_p[s], True, self._compose(self.edges[s], by_first, n, m)))
        nxt = [self.zero] * (n * m)
        for i in support:
            x, xp = divmod(i, m)
            v = phi[i]
            for succ, mirrored, comp in checks:
                src, base = (xp, x * m) if mirrored else (x, xp * n)
                for y, d in succ[src]:
                    r = residuum(d, comp[base + y])
                    if r < v:
                        v = r
                        if not v:
                            break
                if not v:
                    break
            nxt[i] = v
        return nxt

    def iterates(self):
        """phi_0, phi_1, ... up to and including the first repeated iterate."""
        cur = self.phi0
        yield cur
        while True:
            nxt = self.refine(cur)
            yield nxt
            if nxt == cur:
                return
            cur = nxt

    def relation(self, phi: list) -> FuzzyRelation:
        """Decode an iterate."""
        m, states, states_p = len(self.ap.states), self.a.states, self.ap.states
        return FuzzyRelation({(states[i // m], states_p[i % m]): self.decode(v)
                              for i, v in enumerate(phi) if v})


def _by_src(edges, size: int) -> list:
    out = [[] for _ in range(size)]
    for x, y, d in edges:
        out[x].append((y, d))
    return out


def refinement_steps(lat: ResiduatedLattice, a: FuzzyAutomaton,
                     ap: FuzzyAutomaton, kind="sim"):
    """Yield phi_0, phi_1, ... up to and including the first repeated iterate.

    The generator stops only on exact stabilization; callers that cannot
    rely on termination should bound it themselves.
    """
    kernel = _Kernel(lat, a, ap, _norm_kind(kind) == "bisimulation")
    for phi in kernel.iterates():
        yield kernel.relation(phi)


def _greatest(lat, a, ap, kind: str, max_iters) -> SimReport:
    kindn = _norm_kind(kind)
    bidir = kindn == "bisimulation"
    cap = resolve_max_iters(max_iters)
    kernel = _Kernel(lat, a, ap, bidir)
    steps = kernel.iterates()
    cur, sweeps, converged = next(steps), 0, False
    for sweeps, nxt in enumerate(itertools.islice(steps, cap), 1):
        converged, cur = nxt == cur, nxt
    relation = kernel.relation(cur)
    norm = (bisim_norm if bidir else sim_norm)(lat, a, ap, relation)
    return SimReport(relation=relation, norm=norm, kind=kindn,
                     iterations=sweeps, converged=converged)


def greatest_fuzzy_simulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                              ap: FuzzyAutomaton, max_iters=None) -> SimReport:
    return _greatest(lat, a, ap, "simulation", max_iters)


def greatest_fuzzy_bisimulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                                ap: FuzzyAutomaton, max_iters=None) -> SimReport:
    return _greatest(lat, a, ap, "bisimulation", max_iters)


# ---------------------------------------------------------------- lambda-approximate notions

def _require_heyting(lat: ResiduatedLattice) -> None:
    # t-norm must coincide with the lattice meet; of the three kinds only min does
    if lat.kind != "godel":
        raise InputError(
            f"lambda-approximate notions need a Heyting algebra; "
            f"the {lat.kind} lattice is not one, use godel"
        )


def _approx_degrees(lat, a, ap, phi) -> tuple:
    """The three inclusion degrees of the approximate-simulation conditions."""
    inv = converse(phi)
    d_init = subsethood(lat, a.sigma, compose_set_rel(lat, ap.sigma, inv))
    d_trans = ONE
    for s in _union_symbols(a, ap):
        lhs = compose_rel_rel(lat, inv, _dr(a, s))
        rhs = compose_rel_rel(lat, _dr(ap, s), inv)
        d_trans = meet(d_trans, subsethood(lat, lhs, rhs))
    d_term = subsethood(lat, compose_rel_set(lat, inv, a.tau), ap.tau)
    return d_init, d_trans, d_term


def check_lambda_approx_simulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                                   ap: FuzzyAutomaton, phi: FuzzyRelation,
                                   lam) -> bool:
    _require_heyting(lat)
    _validate_rel(phi, a, ap)
    lam = parse_degree(lam)
    return all(lam <= d for d in _approx_degrees(lat, a, ap, phi))


def check_lambda_approx_bisimulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                                     ap: FuzzyAutomaton, phi: FuzzyRelation,
                                     lam) -> bool:
    _require_heyting(lat)
    _validate_rel(phi, a, ap)
    lam = parse_degree(lam)
    degrees = _approx_degrees(lat, a, ap, phi) + _approx_degrees(lat, ap, a, converse(phi))
    return all(lam <= d for d in degrees)


def approx_from_greatest(phi: FuzzyRelation, lam) -> FuzzyRelation:
    """Raise every stored entry >= lam to 1, keeping the rest.

    Applied to the greatest fuzzy simulation (bisimulation) with lam equal
    to its norm, the result is a lam-approximate simulation (bisimulation).
    """
    lam = parse_degree(lam)
    return FuzzyRelation({key: (ONE if d >= lam else d) for key, d in phi.items()})


def max_approx_lambda(lat: ResiduatedLattice, a: FuzzyAutomaton,
                      ap: FuzzyAutomaton, kind, max_iters=None) -> Fraction:
    """The largest lambda admitting a lambda-approximate relation of the kind.

    Equals the norm of the greatest fuzzy simulation (bisimulation).
    """
    _require_heyting(lat)
    report = _greatest(lat, a, ap, kind, max_iters)
    if not report.converged:
        raise NonConvergenceError(
            f"greatest {report.kind} did not stabilize within {report.iterations} sweeps"
        )
    return report.norm


# ---------------------------------------------------------------- preservation

def _back_vector(lat, aut, word):
    """FuzzySet v with v(x) = degree of the word from state x."""
    vec = aut.tau
    for s in reversed(word):
        vec = compose_rel_set(lat, _dr(aut, s), vec)
    return vec


def verify_preservation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                        ap: FuzzyAutomaton, phi: FuzzyRelation, k: int,
                        kind="sim") -> PreservationReport:
    """Check the language bounds implied by a (bi)simulation on words of length <= k.

    For simulations: phi(x, x') <= S(L(A, x), L(A', x')) pointwise, and
    norm(phi) <= S(L(A), L(A')).  For bisimulations the same with E in
    place of S and the bisimulation norm.  The infima are truncated to
    words of length <= k; exact is True when both automata certify that no
    longer word is live.
    """
    if k < 0:
        raise InputError("word length bound must be >= 0")
    _validate_rel(phi, a, ap)
    bidir = _norm_kind(kind) == "bisimulation"
    op = lat.biresiduum if bidir else lat.residuum

    symbols = _union_symbols(a, ap)
    words = [()]
    for n in range(1, k + 1):
        words.extend(itertools.product(symbols, repeat=n))

    vectors = [(_back_vector(lat, a, w), _back_vector(lat, ap, w)) for w in words]

    pointwise_ok = True
    for (x, xp), d in phi.items():
        bound = ONE
        for va, vap in vectors:
            r = op(va.degree(x), vap.degree(xp))
            if r < bound:
                bound = r
        if d > bound:
            pointwise_ok = False
            break

    global_degree = ONE
    for va, vap in vectors:
        r = op(compose_set_set(lat, a.sigma, va), compose_set_set(lat, ap.sigma, vap))
        if r < global_degree:
            global_degree = r
    normval = (bisim_norm if bidir else sim_norm)(lat, a, ap, phi)
    global_ok = normval <= global_degree

    live_a = max_live_word_length(a)
    live_ap = max_live_word_length(ap)
    exact = (live_a is not UNBOUNDED and live_a <= k
             and live_ap is not UNBOUNDED and live_ap <= k)

    return PreservationReport(pointwise_ok=pointwise_ok, global_ok=global_ok,
                              exact=exact, global_degree=global_degree)


# ---------------------------------------------------------------- serialization

def report_to_obj(report: SimReport) -> dict:
    return {
        "kind": report.kind,
        "relation": relation_json_array(report.relation),
        "norm": format_degree(report.norm),
        "iterations": report.iterations,
        "converged": report.converged,
    }


def report_from_obj(obj) -> SimReport:
    if not isinstance(obj, dict):
        raise InputError("report JSON must be an object")
    expected = {"kind", "relation", "norm", "iterations", "converged"}
    if set(obj) != expected:
        raise InputError(f"report fields must be exactly {sorted(expected)}")
    kind = _norm_kind(obj["kind"])
    iterations = obj["iterations"]
    converged = obj["converged"]
    if not isinstance(iterations, int) or isinstance(iterations, bool) or iterations < 0:
        raise InputError(f"iterations must be a nonnegative integer, got {iterations!r}")
    if not isinstance(converged, bool):
        raise InputError(f"converged must be a boolean, got {converged!r}")
    return SimReport(relation=relation_from_obj(obj["relation"]),
                     norm=parse_degree(obj["norm"]),
                     kind=kind, iterations=iterations, converged=converged)


def preservation_to_obj(report: PreservationReport) -> dict:
    return {
        "pointwise_ok": report.pointwise_ok,
        "global_ok": report.global_ok,
        "exact": report.exact,
        "global_degree": format_degree(report.global_degree),
    }
