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

The bounded enumeration behind hm_degree_bounded exploits two readout
facts that hold in the linear lattices shipped here: a top-level guard
never lowers a readout (b -> c is below (a -> b) -> (a -> c), likewise for
biresidua), and a top-level conjunction never drops below the meet of its
conjuncts' readouts.  The infimum over all formulas of step-depth <= d is
therefore realized on the atoms: Tau plus the single-step formulas over
the depth-(d-1) inner set.  Inner sets are still closed under meets and
guards, because guards inside a step do matter.  The closure keeps each
formula as one joint vector (its degrees on A's states, then A''s), which
is also the dedup key: only the first formula reaching a vector is kept.
At most one guard is applied directly to any subformula (guard stacking
collapses for -> and is cut from the search space for <->).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .automata import FuzzyAutomaton, delta_rel
from .errors import InputError
from .fuzzyrel import FuzzyRelation, FuzzySet
from .lattice import ONE, ZERO, ResiduatedLattice, format_degree, parse_degree
from .simrel import _back_step, _converged_greatest, _joint, _parse_kind, _readout

DEFAULT_POOL_CAP = 64


@dataclass(frozen=True)
class Tau:
    pass


@dataclass(frozen=True)
class Step:
    symbol: str
    body: "Formula"


@dataclass(frozen=True)
class Implies:
    constant: Fraction
    body: "Formula"


@dataclass(frozen=True)
class Iff:
    constant: Fraction
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


Formula = Union[Tau, Step, Implies, Iff, And]

TAU = Tau()


# ---------------------------------------------------------------- semantics

def eval_formula(lat: ResiduatedLattice, aut: FuzzyAutomaton, w: Formula) -> FuzzySet:
    """The fuzzy set of states satisfying w, computed bottom-up over all states."""
    return FuzzySet(_eval_map(lat, aut, w, strict=True))


def _eval_map(lat, aut, w, strict: bool) -> dict:
    # dense map over aut.states: guards turn absent-0 into nonzero degrees,
    # so sparse evaluation would be wrong
    if isinstance(w, Tau):
        return {x: aut.tau.degree(x) for x in aut.states}
    if isinstance(w, Step):
        if strict and w.symbol not in aut.alphabet:
            raise InputError(f"formula steps over unknown symbol {w.symbol!r}")
        return _apply_step(lat, aut, w.symbol, _eval_map(lat, aut, w.body, strict))
    if isinstance(w, Implies):
        c = parse_degree(w.constant)
        sub = _eval_map(lat, aut, w.body, strict)
        return {x: lat.residuum(c, sub[x]) for x in aut.states}
    if isinstance(w, Iff):
        c = parse_degree(w.constant)
        sub = _eval_map(lat, aut, w.body, strict)
        return {x: lat.biresiduum(c, sub[x]) for x in aut.states}
    if isinstance(w, And):
        left = _eval_map(lat, aut, w.left, strict)
        right = _eval_map(lat, aut, w.right, strict)
        return {x: min(left[x], right[x]) for x in aut.states}
    raise InputError(f"not a formula node: {w!r}")


# ---------------------------------------------------------------- enumeration

def constant_pool(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton,
                  depth: int, cap: int = DEFAULT_POOL_CAP) -> list:
    """Guard constants for the bounded enumeration.

    Every degree occurring in the transition and terminal structure of the
    two automata, plus 0 and 1, closed under tnorm, residuum and meet for
    `depth` rounds.  The cap is a safety valve on pathological closures;
    base degrees always survive it before closure values do.
    """
    if cap < 2:
        raise InputError("constant pool cap must be at least 2")
    base = {ZERO, ONE}
    for aut in (a, ap):
        base.update(d for _x, d in aut.tau.items())
        base.update(d for _key, d in aut.transitions())
    pool = sorted(base)[:cap]
    for _ in range(max(depth, 0)):
        known = set(pool)
        room = cap - len(pool)
        if room <= 0:
            break
        new = set()
        for x in pool:
            for y in pool:
                for v in (lat.tnorm(x, y), lat.residuum(x, y), min(x, y)):
                    if v not in known:
                        new.add(v)
        if not new:
            break
        pool = sorted(known | set(sorted(new)[:room]))
    return pool


def _apply_step(lat, aut, s, sub: dict) -> dict:
    out = {x: ZERO for x in aut.states}
    if s in aut.alphabet:
        for (x, y), d in delta_rel(aut, s).items():
            v = lat.tnorm(d, sub[y])
            if v > out[x]:
                out[x] = v
    return out


def _closure(lat, seeds, pool, bidir: bool) -> dict:
    """Close the seed (vector, formula) items under guards and pairwise meets.
    Returns the joint vectors, in order of discovery, each with its first formula."""
    guard_cls = Iff if bidir else Implies
    guard_op = lat.biresiduum if bidir else lat.residuum
    items: dict = {}
    queue = deque()

    def add(vec, formula):
        if vec not in items:
            items[vec] = formula
            queue.append(vec)

    for vec, formula in seeds:
        add(vec, formula)
    while queue:
        vec = queue.popleft()
        formula = items[vec]
        if not isinstance(formula, (Implies, Iff)):
            for c in pool:
                add(tuple(guard_op(c, d) for d in vec), guard_cls(c, formula))
        for vec2, formula2 in list(items.items()):
            add(tuple(map(min, vec, vec2)), And(formula2, formula))
    return items


def _top_atoms(lat, a, ap, depth, bidir, pool) -> list:
    """Tau plus the step formulas over the depth-(d-1) inner set: the atoms
    whose readouts realize the bounded infimum, as (vector, formula) items."""
    tau, steps = _joint(a, ap)
    atoms = [(tau, TAU)]
    for _ in range(depth):
        reps = _closure(lat, atoms, pool, bidir)
        atoms = [(tau, TAU)] + [(_back_step(lat, edges, vec), Step(s, formula))
                                for vec, formula in reps.items() for s, edges in steps]
    return atoms


def _readout_atoms(lat, a, ap, depth, fragment, pool_cap) -> tuple:
    """(readout op, atoms) of the fragment at the given depth: the residuum,
    or the biresiduum for the bisimulation fragment, and the _top_atoms."""
    if depth < 0:
        raise InputError("depth must be >= 0")
    bidir = _parse_kind(fragment)
    pool = constant_pool(lat, a, ap, depth, pool_cap)
    return (lat.biresiduum if bidir else lat.residuum,
            _top_atoms(lat, a, ap, depth, bidir, pool))


def hm_degree_bounded(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton,
                      depth: int, fragment, pool_cap: int = DEFAULT_POOL_CAP) -> FuzzyRelation:
    """Per-pair infimum of formula readouts over the fragment, truncated at
    the given step-depth.  Antitone in depth; always above the true degree."""
    op, atoms = _readout_atoms(lat, a, ap, depth, fragment, pool_cap)
    vectors = [vec for vec, _formula in atoms]
    return FuzzyRelation({(x, xp): _readout(op, vectors, i, j) for i, x in enumerate(a.states)
                          for j, xp in enumerate(ap.states, len(a.states))})


def enumerate_formulas(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton,
                       depth: int, fragment, pool_cap: int = DEFAULT_POOL_CAP) -> list:
    """The atom formulas whose readouts realize hm_degree_bounded."""
    _op, atoms = _readout_atoms(lat, a, ap, depth, fragment, pool_cap)
    return [formula for _vec, formula in atoms]


@dataclass(frozen=True)
class HMAgreementReport:
    relation: FuzzyRelation
    matches_fixpoint: bool


def hm_agreement(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton,
                 depth: int, fragment, max_iters=None,
                 pool_cap: int = DEFAULT_POOL_CAP) -> HMAgreementReport:
    """Compare the bounded formula infimum against the greatest fixpoint;
    NonConvergenceError if that does not stabilize within max_iters sweeps."""
    bidir = _parse_kind(fragment)
    relation = hm_degree_bounded(lat, a, ap, depth, fragment, pool_cap)
    report = _converged_greatest(lat, a, ap, bidir, max_iters)
    return HMAgreementReport(relation=relation,
                             matches_fixpoint=(relation == report.relation))


def distinguishing_formula(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton,
                           x: str, xp: str, target, depth: int, fragment,
                           pool_cap: int = DEFAULT_POOL_CAP):
    """A fragment formula whose readout at (x, x') is <= target, or None.

    Searches the enumerated atoms (sufficient: any formula achieving the
    target has an atom of its decomposition achieving it too) and never
    returns a candidate without re-verifying it by direct evaluation.
    """
    if x not in a.states:
        raise InputError(f"unknown state {x!r} for automaton {a.name!r}")
    if xp not in ap.states:
        raise InputError(f"unknown state {xp!r} for automaton {ap.name!r}")
    # a bad depth is reported before a bad target, a bad target before a bad fragment
    target = target if depth < 0 else parse_degree(target)
    op, atoms = _readout_atoms(lat, a, ap, depth, fragment, pool_cap)
    i, j = a.states.index(x), len(a.states) + ap.states.index(xp)
    for vec, formula in atoms:
        if op(vec[i], vec[j]) <= target:
            ea = _eval_map(lat, a, formula, strict=False)
            eb = _eval_map(lat, ap, formula, strict=False)
            if op(ea[x], eb[xp]) <= target:
                return formula
    return None


# ---------------------------------------------------------------- text syntax

def format_formula(w: Formula) -> str:
    if isinstance(w, Tau):
        return "T"
    if isinstance(w, Step):
        return f"<{w.symbol}> {format_formula(w.body)}"
    if isinstance(w, Implies):
        return f"({format_degree(w.constant)} -> {format_formula(w.body)})"
    if isinstance(w, Iff):
        return f"({format_degree(w.constant)} <-> {format_formula(w.body)})"
    if isinstance(w, And):
        return f"({format_formula(w.left)} & {format_formula(w.right)})"
    raise InputError(f"not a formula node: {w!r}")


_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<lpar>\()
    | (?P<rpar>\))
    | (?P<amp>&)
    | (?P<iff><->)
    | (?P<arrow>->)
    | (?P<step><\s*(?P<sym>[^<>\s]+)\s*>)
    | (?P<tau>T\b)
    | (?P<rat>[+-]?\.?\d(?:[eE][+-]|[\w./])*)
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
