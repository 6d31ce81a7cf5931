"""Hennessy-Milner formulas over fuzzy automata.

Grammar (text syntax in parentheses):

    w ::= Tau ("T")                   the terminal-set atom
        | Step(s, w)    ("<s> w")     one transition step
        | Implies(a, w) ("(a -> w)")  constant guard, simulation fragment
        | Iff(a, w)     ("(a <-> w)") constant guard, bisimulation fragment
        | And(w1, w2)   ("(w1 & w2)") pointwise conjunction

The simulation fragment admits no Iff node, the bisimulation fragment no
Implies node.  A formula evaluates on an automaton to a fuzzy set over all
states; the per-pair readout residuum(w(x), w(x')) (biresiduum for the
bisimulation fragment), met over every fragment formula, recovers the
greatest fuzzy simulation (bisimulation) degree of the pair.  Words are
the guard-free, meet-free formulas <s1>...<sn> T, so the step and readout
are shared with simrel's language preservation check.

Theorem (the bounded Hennessy-Milner property): with a full constant pool,
the readout infimum over the fragment's formulas of step-depth <= d is the
d-th iterate phi_d of simrel.refinement_steps (its last iterate once they
stabilize), and Tau with the witness step atoms below realize it.

* Soundness, by induction on d: phi_d(x, x') (x) w(x) <= w(x') for every
  simulation formula w of depth <= d, so phi_d is below every readout.  Tau
  holds by phi_0 = tau -> tau'; a guard, as a (x) (c -> b) <= c -> (a (x) b);
  a meet, as (x) is monotone; and <s> w, as phi_d(x, x') (x) delta_s(x, y)
  <= sup_y' delta'_s(x', y') (x) phi_{d-1}(y, y').  For bisimulations the
  same holds in both directions, phi_d(x, x') (x) w(x') <= w(x) too, so
  phi_d(x, x') <= w(x) <-> w(x'), and Iff guards keep it by the biresiduum
  form of the guard step.
* The witness: let the depth-d atoms realize phi_d.  For a state y of A and
  each state z of A', the atom v_z with the least readout has v_z(y) ->
  v_z(z) = phi_d(y, z), and w_y = /\\_z (v_z(y) -> v_z) has w_y(y) = 1 and
  w_y(z) <= phi_d(y, z).  So <s> w_y reads at most delta_s(x, y) ->
  (delta'_s o phi_d^-1)(x', y) at (x, x'), and Tau with every <s> w_y meets
  to F(phi_d) = phi_{d+1}.  For bisimulations, w_y is built with <-> and
  also for each state y of A', which gives the mirrored constraint.  One
  round costs O(|pairs| * |atoms|) readouts and makes 1 + |Sigma| * n atoms
  for simulations, 1 + |Sigma| * (n + m) for bisimulations.
* The pool condition: each guard constant v_z(y) is a formula constant, so
  the equality needs it in constant_pool.  Past DEFAULT_POOL_CAP constants
  the pool keeps the base degrees and then the smallest closure values; a
  missing constant drops its conjunct, and the readouts then stay sound,
  above the greatest relation, but may sit above phi_d.

The vectors hold the refinement kernel's integer codes (simrel._codec:
Godel ranks, Lukasiewicz numerators over the lcm, product Fractions) for a
degree set that also holds the guard constants; it is closed under the
t-norm, residuum, min and max, so every step, guard and meet stays exact on
codes, and only the readouts are decoded.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Union

from .automata import FuzzyAutomaton, delta_rel
from .errors import InputError
from .fuzzyrel import FuzzyRelation, FuzzySet, compose_rel_set
from .lattice import LITERAL, ONE, ZERO, ResiduatedLattice, format_degree, parse_degree
from .simrel import _back_step, _converged_greatest, _joint, _parse_kind, _readout

DEFAULT_POOL_CAP = 64


class Tau(NamedTuple):
    pass


class Step(NamedTuple):
    symbol: str
    body: Formula


class Implies(NamedTuple):
    constant: Fraction
    body: Formula


class Iff(NamedTuple):
    constant: Fraction
    body: Formula


class And(NamedTuple):
    left: Formula
    right: Formula


Formula = Union[Tau, Step, Implies, Iff, And]

# A node equals only a node of its own class with equal fields, so
# Implies(c, w) != Iff(c, w) and Tau() != (), and every node is true, the
# empty Tau too.  Set after each class is made, __eq__ keeps tuple.__hash__.
for _cls in (Tau, Step, Implies, Iff, And):
    _cls.__eq__ = lambda self, other: type(self) is type(other) and tuple.__eq__(self, other)
    _cls.__ne__ = lambda self, other: not self == other
    _cls.__bool__ = lambda self: True

TAU = Tau()


# ---------------------------------------------------------------- semantics

def eval_formula(lat: ResiduatedLattice, aut: FuzzyAutomaton, w: Formula) -> FuzzySet:
    """The fuzzy set of states satisfying w, computed bottom-up over all states."""
    return _evaluate(lat, aut, w, strict=True)


def _evaluate(lat, aut, w, strict: bool) -> FuzzySet:
    """<s> w is delta_s o w; a step over a symbol aut lacks is bad input when
    strict, the empty set otherwise.  Guards run over all of aut.states, as
    they turn an absent 0 into a nonzero degree."""
    if isinstance(w, Tau):
        return aut.tau
    if isinstance(w, Step):
        if w.symbol not in aut.alphabet:
            if strict:
                raise InputError(f"formula steps over unknown symbol {w.symbol!r}")
            return FuzzySet()
        return compose_rel_set(lat, delta_rel(aut, w.symbol), _evaluate(lat, aut, w.body, strict))
    if isinstance(w, (Implies, Iff)):
        op, c = lat.residuum if isinstance(w, Implies) else lat.biresiduum, parse_degree(w.constant)
        sub = _evaluate(lat, aut, w.body, strict)
        return FuzzySet._from_parsed({x: op(c, sub.degree(x)) for x in aut.states})
    if isinstance(w, And):
        left, right = _evaluate(lat, aut, w.left, strict), _evaluate(lat, aut, w.right, strict)
        return FuzzySet._from_parsed({x: min(d, right.degree(x)) for x, d in left.items()})
    raise InputError(f"not a formula node: {w!r}")


# ---------------------------------------------------------------- enumeration

def constant_pool(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton,
                  depth: int) -> list:
    """Guard constants for the bounded enumeration.

    Every degree occurring in the transition and terminal structure of the
    two automata, plus 0 and 1, closed under tnorm and residuum for `depth`
    rounds (the meet of two constants is one of them).  DEFAULT_POOL_CAP is a
    safety valve on pathological closures; base degrees always survive it
    before closure values do.
    """
    base = {ZERO, ONE}
    for aut in (a, ap):
        base.update(d for _x, d in aut.tau.items())
        base.update(d for s in aut.alphabet for _pair, d in delta_rel(aut, s).items())
    pool = sorted(base)[:DEFAULT_POOL_CAP]
    for _ in range(max(depth, 0)):
        room = DEFAULT_POOL_CAP - len(pool)
        if room <= 0:
            break
        # no meets: min(x, y) is x or y, already in the pool
        new = {v for x in pool for y in pool
               for v in (lat.tnorm(x, y), lat.residuum(x, y))}.difference(pool)
        if not new:
            break
        pool = sorted(pool + sorted(new)[:room])
    return pool


def _witness_round(codec, steps, atoms, n, bidir, pool) -> list:
    """The step atoms one depth above atoms, which are (vector, formula) items
    on codec's codes, read as their distinct vectors in first-occurrence order.

    For a joint state y of A (and, for bisimulations, of A') and each state z
    of the other automaton, the witness v is the first vector with the least
    readout op(v[y], v[z]), and its conjunct guards v's formula by the
    constant coded v[y]; a v[y] that no pool constant codes gives none.  w_y
    is the meet of y's distinct conjuncts, and the atoms are <s> w_y for every
    s, y with a conjunct."""
    constants = {codec.encode(c): c for c in pool}
    reps: dict = {}
    for vec, formula in atoms:
        reps.setdefault(vec, formula)
    guard_cls, op, size = Iff if bidir else Implies, codec.op(bidir), len(atoms[0][0])
    out = []
    for y in range(size if bidir else n):
        witnesses = dict.fromkeys(min(reps, key=lambda v: op(v[y], v[z]))
                                  for z in (range(n, size) if y < n else range(n)))
        guards = [(tuple([op(v[y], d) for d in v]), guard_cls(constants[v[y]], reps[v]))
                  for v in witnesses if v[y] in constants]
        if guards:
            vec, formula = guards[0]
            for other, guard in guards[1:]:
                vec, formula = tuple(map(min, vec, other)), And(formula, guard)
            out.extend((_back_step(codec, edges, vec), Step(s, formula)) for s, edges in steps)
    return out


def _top_atoms(codec, tau, steps, depth, bidir, pool, n) -> list:
    """Tau plus the witness step atoms of depth d (see _witness_round): the
    atoms whose readouts realize the bounded infimum, as (vector, formula)
    items, on the codes of _joint's (codec, tau, steps), with A's n states
    first.  A round reads only the distinct vectors of the atoms before it,
    in order, so once that list repeats, the rounds cycle: the loop stops at
    depth's place in the cycle, with shallower formulas."""
    atoms, seen, rounds = [(tau, TAU)], {(tau,): 0}, 0
    while rounds < depth:
        atoms = [(tau, TAU), *_witness_round(codec, steps, atoms, n, bidir, pool)]
        rounds += 1
        key = tuple(dict.fromkeys(vec for vec, _formula in atoms))
        if key in seen:
            depth = rounds + (depth - rounds) % (rounds - seen[key])
        seen[key] = rounds
    return atoms


def _readout_atoms(lat, a, ap, depth, fragment) -> tuple:
    """(codec, bidir, atoms) of the fragment at the given depth: the
    _top_atoms over the constant_pool, on codec's codes."""
    if depth < 0:
        raise InputError("depth must be >= 0")
    bidir = _parse_kind(fragment)
    pool = constant_pool(lat, a, ap, depth)
    codec, tau, steps = _joint(lat, a, ap, pool)
    return codec, bidir, _top_atoms(codec, tau, steps, depth, bidir, pool, len(a.states))


def hm_degree_bounded(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton,
                      depth: int, fragment) -> FuzzyRelation:
    """Per-pair infimum of formula readouts over the fragment, truncated at
    the given step-depth.  Antitone in depth; always above the true degree."""
    codec, bidir, atoms = _readout_atoms(lat, a, ap, depth, fragment)
    ratio, vectors = codec.ratio(bidir), [vec for vec, _formula in atoms]
    return FuzzyRelation._from_parsed({(x, xp): _readout(codec, ratio, vectors, i, j)
                                       for i, x in enumerate(a.states)
                                       for j, xp in enumerate(ap.states, len(a.states))})


def enumerate_formulas(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton,
                       depth: int, fragment) -> list:
    """The atom formulas whose readouts realize hm_degree_bounded: Tau and
    the witness step formulas <s> w_y of the module docstring, 1 + |Sigma| * n
    of them for simulations and 1 + |Sigma| * (n + m) for bisimulations, fewer
    where a pool constant is missing.  Once the rounds repeat, they may be
    shallower than depth (see _top_atoms)."""
    _codec, _bidir, atoms = _readout_atoms(lat, a, ap, depth, fragment)
    return [formula for _vec, formula in atoms]


class HMAgreementReport(NamedTuple):
    relation: FuzzyRelation
    matches_fixpoint: bool


def hm_agreement(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton,
                 depth: int, fragment, max_iters=None) -> HMAgreementReport:
    """Compare the bounded formula infimum against the greatest fixpoint;
    NonConvergenceError if that does not stabilize within max_iters sweeps."""
    bidir = _parse_kind(fragment)
    relation = hm_degree_bounded(lat, a, ap, depth, fragment)
    report = _converged_greatest(lat, a, ap, bidir, max_iters)
    return HMAgreementReport(relation=relation,
                             matches_fixpoint=(relation == report.relation))


def distinguishing_formula(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton,
                           x: str, xp: str, target, depth: int, fragment):
    """A fragment formula whose readout at (x, x') is <= target, or None.

    Searches the enumerated atoms, and never returns a candidate without
    re-verifying it by direct evaluation.  That suffices with a full pool:
    every formula of depth <= d reads at least phi_d, and the atoms' least
    readout at (x, x') is phi_d(x, x') (the module docstring's theorem), so
    if any formula reaches the target, an atom does.  Once the rounds
    repeat, it may be shallower than depth (see _top_atoms).
    """
    if x not in a.states:
        raise InputError(f"unknown state {x!r} for automaton {a.name!r}")
    if xp not in ap.states:
        raise InputError(f"unknown state {xp!r} for automaton {ap.name!r}")
    # a bad depth is reported before a bad target, a bad target before a bad fragment
    target = target if depth < 0 else parse_degree(target)
    codec, bidir, atoms = _readout_atoms(lat, a, ap, depth, fragment)
    op, check = codec.op(bidir), lat.biresiduum if bidir else lat.residuum
    i, j = a.states.index(x), len(a.states) + ap.states.index(xp)
    for vec, formula in atoms:
        if codec.decode(op(vec[i], vec[j])) <= target:
            got = check(_evaluate(lat, a, formula, strict=False).degree(x),
                        _evaluate(lat, ap, formula, strict=False).degree(xp))
            if got <= target:
                return formula
    return None


# ---------------------------------------------------------------- text syntax

def format_formula(w: Formula) -> str:
    if isinstance(w, Tau):
        return "T"
    if isinstance(w, Step):
        if not re.fullmatch(_SYMBOL, w.symbol):
            raise InputError(f"symbol {w.symbol!r} cannot be written in a formula")
        # "<->" would lex as the two-sided guard
        return f"<{' - ' if w.symbol == '-' else w.symbol}> {format_formula(w.body)}"
    if isinstance(w, Implies):
        return f"({format_degree(w.constant)} -> {format_formula(w.body)})"
    if isinstance(w, Iff):
        return f"({format_degree(w.constant)} <-> {format_formula(w.body)})"
    if isinstance(w, And):
        return f"({format_formula(w.left)} & {format_formula(w.right)})"
    raise InputError(f"not a formula node: {w!r}")


# a step names a symbol without whitespace, "<" or ">"
_SYMBOL = r"[^<>\s]+"
_TOKEN_RE = re.compile(rf"""
    \s*(?:
      (?P<lpar>\()
    | (?P<rpar>\))
    | (?P<amp>&)
    | (?P<iff><->)
    | (?P<arrow>->)
    | (?P<step><\s*(?P<sym>{_SYMBOL})\s*>)
    | (?P<tau>T\b)
    | (?P<rat>{LITERAL.pattern})
    )""", re.VERBOSE)

# deepest nesting of steps, guards and conjunctions parse_formula accepts;
# evaluation and formatting recurse once per level
MAX_FORMULA_DEPTH = 500


def _lex(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            if text[i:].strip() == "":
                break
            raise InputError(f"cannot read formula at {text[i:i + 20]!r}")
        i = m.end()
        kind = m.lastgroup      # the outermost group, so "step" and not "sym"
        tokens.append((kind, m.group("sym" if kind == "step" else kind)))
    return tokens


def parse_formula(text: str) -> Formula:
    """Parse the CLI text syntax; inverse of format_formula.

    A guard constant is any literal parse_degree reads (for example "1/2",
    "0.5", ".5" or "5e-1").
    """
    tokens = _lex(text)
    if not tokens:
        raise InputError("empty formula")
    node, pos = _parse(tokens, 0, 0)
    if pos != len(tokens):
        raise InputError(f"trailing input after formula: {tokens[pos][1]!r}")
    return node


def _expect(tokens, i, kind):
    if i >= len(tokens) or tokens[i][0] != kind:
        found = tokens[i][1] if i < len(tokens) else "end of input"
        raise InputError(f"expected {kind!r} in formula, found {found!r}")
    return i + 1


def _parse(tokens, i, depth):
    if i >= len(tokens):
        raise InputError("unexpected end of formula")
    if depth > MAX_FORMULA_DEPTH:
        raise InputError(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels")
    kind, value = tokens[i]
    if kind == "tau":
        return TAU, i + 1
    if kind == "step":
        body, j = _parse(tokens, i + 1, depth + 1)
        return Step(value, body), j
    if kind == "lpar":
        if (i + 2 < len(tokens) and tokens[i + 1][0] == "rat"
                and tokens[i + 2][0] in ("arrow", "iff")):
            constant = parse_degree(tokens[i + 1][1])
            guard_cls = Implies if tokens[i + 2][0] == "arrow" else Iff
            body, j = _parse(tokens, i + 3, depth + 1)
            j = _expect(tokens, j, "rpar")
            return guard_cls(constant, body), j
        left, j = _parse(tokens, i + 1, depth + 1)
        j = _expect(tokens, j, "amp")
        right, j = _parse(tokens, j, depth + 1)
        j = _expect(tokens, j, "rpar")
        return And(left, right), j
    raise InputError(f"unexpected token {value!r} in formula")
