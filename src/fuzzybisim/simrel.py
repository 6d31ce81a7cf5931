"""Checking and computing (greatest) fuzzy simulations and bisimulations.

A fuzzy relation phi between the states of A and A' is a fuzzy simulation
when, for every symbol s,

    phi^-1 o delta_s <= delta'_s o phi^-1      (forward step condition)
    phi^-1 o tau     <= tau'                   (forward terminal condition)

and a fuzzy bisimulation when phi^-1 is a fuzzy simulation in the other
direction as well.  The plain ("crisp") notions additionally require the
initial sets to be covered: sigma <= sigma' o phi^-1 (and symmetrically).

Everything here derives from one refinement operator F = phi_0 /\\ G(phi):

    phi_0(x, x') = tau(x) -> tau'(x')          (<-> for bisimulations)
    G(phi)(x, x') = inf over s, y of delta_s(x, y) -> (delta'_s o phi^-1)(x', y)

(G meets also the mirrored constraint for bisimulations).  Two identities
of every complete residuated lattice carry the checks and lambda-degrees:

    a (x) b <= c  iff  a <= b -> c
    (sup_i a_i (x) b_i) -> c = inf_i a_i -> (b_i -> c)

The first turns the step and terminal conditions into phi <= F(phi); the
second turns the meet of their subsethood degrees,
S(phi^-1 o delta_s, delta'_s o phi^-1) over s and S(phi^-1 o tau, tau'),
into S(phi, F(phi)).  So a check asks whether S(phi, F(phi)) is 1 (crisp:
and the norm is 1), and a lambda-degree is S(phi, F(phi)) /\\ norm(phi).

The greatest such relation is computed downward from phi_0 by Jacobi
sweeps phi_{k+1} = F(phi_k): each sweep computes every pair from phi_k
alone, until an iterate repeats exactly.  As G is monotone and the
iterates decrease, phi_0 /\\ G(phi_k) = phi_k /\\ G(phi_k), and F vanishes
off phi_k's support.  `iterations` counts the sweeps, the last one
included.  Exact arithmetic makes that test a plain equality.

On the product lattice a run can settle into a decay that never
stabilizes: the same constraints keep setting the same pairs while their
degrees shrink geometrically.  _greatest jumps such a run to its cap
exactly once one policy provably sets every later sweep, trying at sweeps
8, 16, 32, ...; the policy module states that certificate, with its proof.

As phi is a bisimulation when phi and phi^-1 are simulations, a sweep
reads phi as one relation on the joint states of A and A' (_joint), whose
one composition with the joint transitions serves both (see _Kernel).

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
  Fractions under the lattice's own operations.  Only verify_preservation,
  whose readouts are ratios, codes k/D by k as well (exact up to scale).

A relation to check adds its own degrees to that set; the set stays
closed, so the codes of phi and F(phi) are exact too.  phi_0 is computed
on codes as well; iterates are decoded only when handed out, so every
result is the exact Fraction the uncoded iteration gives.

When the two automata have different alphabets, every condition quantifies
over the union, with a missing symbol contributing the empty relation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, NamedTuple

from .automata import FuzzyAutomaton, delta_rel, max_live_word_length
from .errors import InputError, NonConvergenceError, check_object
from .fuzzyrel import (
    FuzzyRelation,
    compose_rel_set,
    compose_set_rel,
    relation_json_array,
    relation_from_obj,
    subsethood,
)
# unused here, but the benchmark's tracer wraps these by name on this module
from .fuzzyrel import compose_rel_rel, compose_set_set, converse, pointwise_leq  # noqa: F401
from .lattice import ONE, ZERO, ResiduatedLattice, format_degree, parse_degree

DEFAULT_MAX_ITERS = 10000


class SimReport(NamedTuple):
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


class PreservationReport(NamedTuple):
    """Bounded-word verification of the language preservation bounds.

    exact is True when the word bound provably covers every live word of
    both automata read from their initial states and from the states in
    phi's support, making the truncated infima the true ones.
    """

    pointwise_ok: bool
    global_ok: bool
    exact: bool
    global_degree: Fraction


def resolve_max_iters(max_iters=None) -> int:
    """The explicit cap, else the default one."""
    if max_iters is None:
        return DEFAULT_MAX_ITERS
    if max_iters < 0:
        raise InputError("iteration cap must be >= 0")
    return max_iters


# the kind names, indexed by bidir: False for simulations, True for bisimulations
_KIND_NAMES = ("simulation", "bisimulation")
_BIDIR = {"sim": False, "simulation": False, "bisim": True, "bisimulation": True}


def _parse_kind(kind) -> bool:
    """bidir for a kind or fragment name: sim, simulation, bisim or bisimulation, in any case."""
    try:
        return _BIDIR[str(kind).lower()]
    except KeyError:
        raise InputError(f"unknown kind {kind!r}; expected sim or bisim") from None


def _validate_rel(pairs, a: FuzzyAutomaton, ap: FuzzyAutomaton) -> None:
    """Raise InputError if a name pair (x, x') names a state A or A' lacks: the
    least such pair, whatever order pairs come in."""
    states_a = set(a.states)
    states_ap = set(ap.states)
    bad = [(x, xp) for x, xp in pairs if x not in states_a or xp not in states_ap]
    if bad:
        x, xp = min(bad)
        if x not in states_a:
            raise InputError(f"relation references unknown state {x!r} of automaton {a.name!r}")
        raise InputError(f"relation references unknown state {xp!r} of automaton {ap.name!r}")


# ---------------------------------------------------------------- checks

def _condition_degree(lat, a, ap, phi, bidir: bool) -> Fraction:
    """S(phi, F(phi)): the degree of the step and terminal conditions."""
    _validate_rel(phi.support(), a, ap)
    return _Kernel(lat, a, ap, bidir, [d for _key, d in phi.items()]).condition_degree(phi)


def check_fuzzy_simulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                           ap: FuzzyAutomaton, phi: FuzzyRelation) -> bool:
    return _condition_degree(lat, a, ap, phi, False) == ONE


def check_fuzzy_bisimulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                             ap: FuzzyAutomaton, phi: FuzzyRelation) -> bool:
    return _condition_degree(lat, a, ap, phi, True) == ONE


def check_crisp_simulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                           ap: FuzzyAutomaton, phi: FuzzyRelation) -> bool:
    return sim_norm(lat, a, ap, phi) == ONE and check_fuzzy_simulation(lat, a, ap, phi)


def check_crisp_bisimulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                             ap: FuzzyAutomaton, phi: FuzzyRelation) -> bool:
    return bisim_norm(lat, a, ap, phi) == ONE and check_fuzzy_bisimulation(lat, a, ap, phi)


# ---------------------------------------------------------------- norms

def sim_norm(lat: ResiduatedLattice, a: FuzzyAutomaton,
             ap: FuzzyAutomaton, phi: FuzzyRelation) -> Fraction:
    """S(sigma, sigma' o phi^-1): the degree to which initial states are matched.

    Defined for any relation; meaningful when phi passes the simulation check.
    As every t-norm here commutes, sigma' o phi^-1 is read as phi o sigma'.
    """
    _validate_rel(phi.support(), a, ap)
    return subsethood(lat, a.sigma, compose_rel_set(lat, phi, ap.sigma))


def bisim_norm(lat: ResiduatedLattice, a: FuzzyAutomaton,
               ap: FuzzyAutomaton, phi: FuzzyRelation) -> Fraction:
    return min(sim_norm(lat, a, ap, phi),
               subsethood(lat, ap.sigma, compose_set_rel(lat, a.sigma, phi)))


# ---------------------------------------------------------------- fixpoint

class _Codec(NamedTuple):
    """The codes of one lattice for a set of degrees: encode and decode, the
    t-norm and residuum on codes, and the codes of 0 (the only falsy code)
    and of 1."""

    encode: Callable
    decode: Callable
    tnorm: Callable
    residuum: Callable
    zero: object
    top: object

    def op(self, bidir: bool) -> Callable:
        """The readout on codes: the residuum, or for bisimulations the biresiduum."""
        res = self.residuum
        return (lambda p, q: min(res(p, q), res(q, p))) if bidir else res

    def ratio(self, bidir: bool) -> Callable:
        """op as the pair (code, 1) that _readout takes."""
        op = self.op(bidir)
        return lambda p, q: (op(p, q), 1)


def _codec(lat: ResiduatedLattice, degrees: list, scaled=False) -> _Codec:
    """The codec of lat for a pair whose delta, delta', tau and tau' degrees
    (and a checked relation's, or guard constants) are listed, repeats included.
    scaled: the codes need be exact only up to a positive factor per vector."""
    if lat.kind == "godel":
        # keyed by (numerator, denominator): hashing a Fraction costs far more
        ratios = {d.as_integer_ratio() for d in degrees} | {(0, 1), (1, 1)}
        values = sorted(Fraction(*r) for r in ratios)
        rank = {v.as_integer_ratio(): i for i, v in enumerate(values)}
        top = len(values) - 1
        return _Codec(lambda v: rank[v.as_integer_ratio()], values.__getitem__, min,
                      lambda p, q: top if p <= q else q, 0, top)
    if lat.kind == "product" and not scaled:
        return _Codec(lambda v: v, lambda v: v, lat.tnorm, lat.residuum, ZERO, ONE)
    den = math.lcm(*{d.denominator for d in degrees})

    def encode(v):      # k/D coded by k, D the lcm of the denominators
        return v.numerator * (den // v.denominator)

    if lat.kind == "lukasiewicz":
        return _Codec(encode, lambda k: Fraction(k, den),
                      lambda p, q: p + q - den if p + q > den else 0,
                      lambda p, q: den if p <= q else den - p + q, 0, den)
    # scaled product: the integer product as t-norm, and a code decodes to
    # itself; q/p is no code, so there is no residuum
    return _Codec(encode, Fraction, operator.mul, None, 0, 1)


def _joint(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton, extra,
           scaled=False) -> tuple:
    """A and A' over joint indices, A's states first, then A''s, on codes:
    (codec, the tau vector, per union-alphabet symbol s the pair (s, its
    transitions (x, y, code)) in both).  The codec (scaled as in _codec) also
    covers the extra degrees, so the vectors stay on codes under guards by
    them."""
    n = len(a.states)
    sides = ((a, {x: i for i, x in enumerate(a.states)}),
             (ap, {x: n + i for i, x in enumerate(ap.states)}))
    steps = [(s, [(pos[x], pos[y], d) for aut, pos in sides if s in aut.alphabet
                  for (x, y), d in delta_rel(aut, s).items()])
             for s in sorted(set(a.alphabet) | set(ap.alphabet))]
    tau = [aut.tau.degree(x) for aut, _pos in sides for x in aut.states]
    codec = _codec(lat, [*tau, *(d for _s, edges in steps for _x, _y, d in edges), *extra],
                   scaled)
    encode = codec.encode
    return (codec, tuple(map(encode, tau)),
            [(s, [(x, y, encode(d)) for x, y, d in edges]) for s, edges in steps])


class _Kernel:
    """The refinement operator F of one (lattice, A, A', kind), over codes.

    An iterate is a flat list of codes indexed by x * |A'| + x', with states
    numbered by their position; the code of 0 is the only falsy code.  The
    codec also covers the extra degrees, those of a relation to check.

    The transitions are _joint's, as adj[s][u] = [(v, delta_s(u, v))]: A's
    states are 0..n-1, A''s n..n+m-1.  A sweep reads phi as a relation phi~
    on joint states, phi(y, y') at (n + y', y) and for bisimulations also at
    (y, n + y').  One composition comp_s = delta_s o phi~ over the joint
    edges serves both constraints:

        (delta'_s o phi^-1)(x', y) = comp_s(n + x', y)     forward
        (delta_s o phi)(x, y')     = comp_s(x, n + y')     mirrored

    Either is, in direction (p, q), the meet over s and the joint
    transitions delta_s(p, v) of delta_s(p, v) -> comp_s(q, v).  A pair
    (x, x') is checked in direction (x, n + x'), and for bisimulations in
    (n + x', x) too.  Only refine lays the compositions out; succ holds each
    joint state's transitions as its column offsets into that layout.
    """

    __slots__ = ("a", "ap", "bidir", "codec", "adj", "succ", "phi0")

    def __init__(self, lat, a, ap, bidir: bool, extra=()):
        self.a, self.ap, self.bidir = a, ap, bidir
        self.codec, tau, steps = _joint(lat, a, ap, extra)
        n, size = len(a.states), len(tau)
        self.adj = [[[] for _ in range(size)] for _ in steps]
        for out, (_sym, edges) in zip(self.adj, steps):
            for u, v, d in edges:
                out[u].append((v, d))
        self.succ = [[(s * size * size + v, d) for s, out in enumerate(self.adj)
                      for v, d in out[u]] for u in range(size)]
        op = self.codec.op(bidir)
        self.phi0 = [op(t, tp) for t in tau[:n] for tp in tau[n:]]

    def refine(self, phi: list) -> list:
        """F(phi) = phi_0 /\\ G(phi) on phi's support, 0 elsewhere: one Jacobi
        sweep, every pair computed from phi alone."""
        n, m, bidir = len(self.a.states), len(self.ap.states), self.bidir
        size, tnorm, residuum, zero = n + m, self.codec.tnorm, self.codec.residuum, self.codec.zero
        support = [i for i, v in enumerate(phi) if v]
        rows = [[] for _ in range(size)]        # v -> [(w, phi~(v, w))]
        for i in support:
            y, yp = divmod(i, m)
            rows[n + yp].append((y, phi[i]))
            if bidir:
                rows[y].append((n + yp, phi[i]))
        # every comp_s = delta_s o phi~ in one flat list, comp_s(u, w) at (s * size + u) * size + w
        comp, base = [zero] * (len(self.adj) * size * size), 0
        for adj in self.adj:
            for out in adj:
                for v, d in out:
                    for w, e in rows[v]:
                        c = tnorm(d, e)
                        if c > comp[base + w]:
                            comp[base + w] = c
                base += size
        nxt, phi0, succ = [zero] * (n * m), self.phi0, self.succ
        for i in support:
            x, xp = divmod(i, m)
            v = phi0[i]
            for p, q in ((x, n + xp), (n + xp, x))[:1 + bidir]:
                if not v:
                    break
                base = q * size
                for col, d in succ[p]:
                    r = residuum(d, comp[base + col])
                    if r < v:
                        v = r
                        if not v:
                            break
            nxt[i] = v
        return nxt

    def condition_degree(self, phi: FuzzyRelation) -> Fraction:
        """S(phi, F(phi)), decoded, for a phi the codec covers (residua off its support are 1)."""
        encode, res = self.codec.encode, self.codec.residuum
        coded = [encode(phi.degree(x, xp)) for x in self.a.states for xp in self.ap.states]
        pairs = zip(coded, self.refine(coded))
        return self.codec.decode(min((res(p, f) for p, f in pairs if p), default=self.codec.top))

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
        m, states, states_p, decode = len(self.ap.states), self.a.states, self.ap.states, self.codec.decode
        return FuzzyRelation._from_parsed({(states[i // m], states_p[i % m]): decode(v)
                                           for i, v in enumerate(phi) if v})


def refinement_steps(lat: ResiduatedLattice, a: FuzzyAutomaton,
                     ap: FuzzyAutomaton, kind="sim"):
    """Yield phi_0, phi_1, ... up to and including the first repeated iterate.

    The generator stops only on exact stabilization; callers that cannot
    rely on termination should bound it themselves.
    """
    kernel = _Kernel(lat, a, ap, _parse_kind(kind))
    for phi in kernel.iterates():
        yield kernel.relation(phi)


def _greatest(lat, a, ap, bidir: bool, max_iters) -> SimReport:
    cap = resolve_max_iters(max_iters)
    kernel = _Kernel(lat, a, ap, bidir)
    cur, sweeps, converged = kernel.phi0, 0, False
    attempt = 8 if lat.kind == "product" else None      # then at 16, 32, ...
    while sweeps < cap and not converged:
        if sweeps == attempt:
            from .policy import jump    # loaded only by the product runs that get here
            attempt *= 2
            jumped = jump(kernel, cur, sweeps, cap - 1 - sweeps)
            if isinstance(jumped, int):
                raise NonConvergenceError(
                    f"greatest {_KIND_NAMES[bidir]} cannot stabilize within {cap} sweeps, "
                    f"and its degrees there would take about {jumped} bits")
            if jumped is not None:
                cur, sweeps = jumped, cap - 1
        nxt = kernel.refine(cur)
        sweeps += 1
        converged, cur = nxt == cur, nxt
    relation = kernel.relation(cur)
    norm = (bisim_norm if bidir else sim_norm)(lat, a, ap, relation)
    return SimReport(relation=relation, norm=norm, kind=_KIND_NAMES[bidir],
                     iterations=sweeps, converged=converged)


def _converged_greatest(lat, a, ap, bidir: bool, max_iters) -> SimReport:
    """_greatest, raising NonConvergenceError unless the iterates stabilized."""
    report = _greatest(lat, a, ap, bidir, max_iters)
    if not report.converged:
        raise NonConvergenceError(
            f"greatest {report.kind} did not stabilize within {report.iterations} sweeps"
        )
    return report


def greatest_fuzzy_simulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                              ap: FuzzyAutomaton, max_iters=None) -> SimReport:
    """The greatest fuzzy simulation of a by ap, or its max_iters-th iterate.

    Raises NonConvergenceError when one policy provably sets every sweep of
    a product run, so that it cannot stabilize, and its iterate at the cap
    would take more than policy.MAX_JUMP_BITS bits per degree term.
    """
    return _greatest(lat, a, ap, False, max_iters)


def greatest_fuzzy_bisimulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                                ap: FuzzyAutomaton, max_iters=None) -> SimReport:
    """The greatest fuzzy bisimulation between a and ap, or its max_iters-th iterate.

    Raises NonConvergenceError when one policy provably sets every sweep of
    a product run, so that it cannot stabilize, and its iterate at the cap
    would take more than policy.MAX_JUMP_BITS bits per degree term.
    """
    return _greatest(lat, a, ap, True, max_iters)


# ---------------------------------------------------------------- lambda-approximate notions

def _require_heyting(lat: ResiduatedLattice) -> None:
    # t-norm must coincide with the lattice meet; of the three kinds only min does
    if lat.kind != "godel":
        raise InputError(
            f"lambda-approximate notions need a Heyting algebra; "
            f"the {lat.kind} lattice is not one, use godel"
        )


def _approx_degree(lat, a, ap, phi, bidir: bool) -> Fraction:
    """S(phi, F(phi)) /\\ norm(phi): the greatest lambda for which phi is a
    lambda-approximate simulation (bisimulation)."""
    _require_heyting(lat)
    norm = (bisim_norm if bidir else sim_norm)(lat, a, ap, phi)
    return min(_condition_degree(lat, a, ap, phi, bidir), norm)


def check_lambda_approx_simulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                                   ap: FuzzyAutomaton, phi: FuzzyRelation,
                                   lam) -> bool:
    return _approx_degree(lat, a, ap, phi, False) >= parse_degree(lam)


def check_lambda_approx_bisimulation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                                     ap: FuzzyAutomaton, phi: FuzzyRelation,
                                     lam) -> bool:
    return _approx_degree(lat, a, ap, phi, True) >= parse_degree(lam)


def approx_from_greatest(phi: FuzzyRelation, lam) -> FuzzyRelation:
    """Raise every stored entry >= lam to 1, keeping the rest.

    Applied to the greatest fuzzy simulation (bisimulation) with lam equal
    to its norm, the result is a lam-approximate simulation (bisimulation).
    """
    lam = parse_degree(lam)
    return FuzzyRelation._from_parsed({key: (ONE if d >= lam else d) for key, d in phi.items()})


def max_approx_lambda(lat: ResiduatedLattice, a: FuzzyAutomaton,
                      ap: FuzzyAutomaton, kind, max_iters=None) -> Fraction:
    """The largest lambda admitting a lambda-approximate relation of the kind.

    Equals the norm of the greatest fuzzy simulation (bisimulation).
    """
    _require_heyting(lat)
    return _converged_greatest(lat, a, ap, _parse_kind(kind), max_iters).norm


# ---------------------------------------------------------------- joint back vectors

def _back_step(codec: _Codec, edges, vec: tuple) -> tuple:
    """delta_s o vec on both automata at once, on codes: entry x is the sup over
    the edges (x, y, d) of d (x) vec[y]."""
    out = [codec.zero] * len(vec)
    tnorm = codec.tnorm
    for x, y, d in edges:
        v = tnorm(d, vec[y])
        if v > out[x]:
            out[x] = v
    return tuple(out)


def _primitive(vec: tuple) -> tuple:
    """vec divided by the gcd of its entries: one tuple per class of positive multiples."""
    g = math.gcd(*vec)
    return vec if g <= 1 else tuple([x // g for x in vec])


def _readout(codec: _Codec, ratio, vectors, i: int, j: int) -> Fraction:
    """inf over the vectors of ratio(v[i], v[j]), a pair (num, den) of codes
    read num/den, decoded: from top, compared by cross-multiplying, stopping at 0."""
    num, den = codec.top, 1
    for vec in vectors:
        r, s = ratio(vec[i], vec[j])
        if r * den < num * s:
            num, den = r, s
            if not r:
                break
    return codec.decode(num) / den


# ---------------------------------------------------------------- preservation

def verify_preservation(lat: ResiduatedLattice, a: FuzzyAutomaton,
                        ap: FuzzyAutomaton, phi: FuzzyRelation, k: int,
                        kind="sim") -> PreservationReport:
    """Check the language bounds implied by a (bi)simulation on words of length <= k.

    For simulations: phi(x, x') <= S(L(A, x), L(A', x')) pointwise, and
    norm(phi) <= S(L(A), L(A')).  For bisimulations the same with E in
    place of S and the bisimulation norm.  The infima are truncated to
    words of length <= k; exact is True when both automata certify that no
    longer word is live from an initial state or a state in phi's support.

    The infima run over the distinct joint back vectors of those words, found
    breadth-first: finitely many on godel and lukasiewicz, so a large k is
    cheap.  On product each readout is a ratio of two entries of one vector,
    so the vectors are kept up to scale, on _codec's scaled integer codes and
    divided by the gcd of their entries; some pairs then saturate, on the
    rest the classes still grow with k.
    """
    if k < 0:
        raise InputError("word length bound must be >= 0")
    _validate_rel(phi.support(), a, ap)
    bidir = _parse_kind(kind)

    # the vector of s.w is delta_s o (the vector of w); a vector seen before
    # sets the same bounds, and its extensions repeat vectors already seen.
    # sigma and sigma' share the codes, as the global readout compares them;
    # phi meets decoded readouts only, so its degrees need no codes.
    sigmas = [d for _x, d in a.sigma.items() + ap.sigma.items()]
    codec, tau, steps = _joint(lat, a, ap, sigmas, scaled=True)
    if lat.kind == "product":
        # on codes p > q the residuum is q/p, and the biresiduum is min/max
        scale = _primitive
        ratio = ((lambda p, q: (q, p) if p > q else (p, q)) if bidir
                 else (lambda p, q: (q, p) if p > q else (1, 1)))
    else:
        scale, ratio = tuple, codec.ratio(bidir)     # tuple passes a tuple through
    tau = scale(tau)
    seen, level, length = {tau}, [tau], 0
    while level and length < k:
        level = {scale(_back_step(codec, e, v)) for v in level for _s, e in steps} - seen
        seen |= level
        length += 1

    index, n = a.states.index, len(a.states)
    pointwise_ok = all(d <= _readout(codec, ratio, seen, index(x), n + ap.states.index(xp))
                       for (x, xp), d in phi.items())
    # sigma o v and sigma' o v: one step from a virtual initial state of each,
    # read off entries 0 and 1 (every automaton has a state, so len(v) >= 2)
    init = ([(0, index(x), codec.encode(d)) for x, d in a.sigma.items()]
            + [(1, n + ap.states.index(xp), codec.encode(d)) for xp, d in ap.sigma.items()])
    initial = (_back_step(codec, init, v) for v in seen)
    global_degree = _readout(codec, ratio, initial, 0, 1)
    global_ok = (bisim_norm if bidir else sim_norm)(lat, a, ap, phi) <= global_degree

    live_a = max_live_word_length(a, a.sigma.support() | {x for x, _xp in phi.support()})
    live_ap = max_live_word_length(ap, ap.sigma.support() | {xp for _x, xp in phi.support()})
    exact = (live_a is not None and live_a <= k
             and live_ap is not None and live_ap <= k)

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


_REPORT_FIELDS = {"kind", "relation", "norm", "iterations", "converged"}


def report_from_obj(obj) -> SimReport:
    check_object(obj, _REPORT_FIELDS, "report")
    kind = _KIND_NAMES[_parse_kind(obj["kind"])]
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
