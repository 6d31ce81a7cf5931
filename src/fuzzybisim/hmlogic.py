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
is also the dedup key: only the first formula reaching a vector is kept,
and a formula is built only for a new vector.  At most one guard is applied
directly to any subformula (guard stacking collapses for -> and is cut from
the search space for <->).

The vectors hold the refinement kernel's integer codes (simrel._codec:
Godel ranks, Lukasiewicz numerators over the lcm, product Fractions) for a
degree set that also holds the guard constants; it is closed under the
t-norm, residuum, min and max, so every step, guard and meet stays exact on
codes, and only the readouts are decoded.  The closure meets each
unordered pair of vectors once (see _closure), and holds a vector of
integer codes as one int whose & is the pointwise min (see _packing).

Tested, not proved: hm_degree_bounded at depth d equals the d-th iterate of
simrel.refinement_steps (or its last iterate when they stabilize earlier),
the bounded form of the Hennessy-Milner theorem.  That holds for a full
constant pool.  Past DEFAULT_POOL_CAP constants, constant_pool keeps the
base degrees and then the smallest closure values; the readouts then stay
above the greatest relation but may sit above iterate d, as guards are
missing.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import NamedTuple, Union

from .automata import FuzzyAutomaton, delta_rel
from .errors import InputError
from .fuzzyrel import FuzzyRelation, FuzzySet, compose_rel_set
from .lattice import ONE, ZERO, ResiduatedLattice, format_degree, parse_degree
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
        base.update(d for s in aut.alphabet for _pair, d in delta_rel(aut, s).items())
    pool = sorted(base)[:cap]
    for _ in range(max(depth, 0)):
        room = cap - len(pool)
        if room <= 0:
            break
        # no meets: min(x, y) is x or y, already in the pool
        new = {v for x in pool for y in pool
               for v in (lat.tnorm(x, y), lat.residuum(x, y))}.difference(pool)
        if not new:
            break
        pool = sorted(pool + sorted(new)[:room])
    return pool


# widest thermometer field _packing uses: past it a packed vector takes
# more memory than its tuple of codes
_PACK_TOP = 256


def _packing(codec, size: int) -> tuple:
    """(pack, unpack, meet) for the closure's vectors of size codes.

    Integer codes 0..top (Godel ranks, Lukasiewicz numerators) pack into one
    int of thermometer fields, top bits per entry with the low r bits set for
    code r, so the pointwise min of two vectors is the & of their packings.
    Other codes (product Fractions, fields past _PACK_TOP) stay tuples.
    meet(vec) is vec's meet with its argument."""
    top = codec.top
    if isinstance(top, int) and top <= _PACK_TOP:
        shifts = range(0, top * size, top)
        field = (1 << top) - 1
        return (lambda vec: sum([((1 << r) - 1) << s for r, s in zip(vec, shifts)]),
                lambda key: tuple([(key >> s & field).bit_length() for s in shifts]),
                lambda key: key.__and__)
    # the pointwise min; calling min per entry costs about twice as much
    return (tuple, tuple,
            lambda vec: lambda other: tuple([p if p < q else q for p, q in zip(vec, other)]))


def _closure(codec, seeds, pool, bidir: bool) -> dict:
    """Close the seed (vector, formula) items, on codec's codes, under guards by
    the pool constants and pairwise meets.  Returns the joint vectors, in order
    of discovery, each with its first formula.

    Items are met in FIFO order, each with the items known once its guards are
    in.  That set only grows, so the earlier items that already met item i
    when they were popped form a run just before i; i skips them and itself,
    whose meets would only rebuild vectors already present.  The vectors are
    held packed (see _packing) while the closure runs."""
    guard_cls = Iff if bidir else Implies
    guard_op = codec.op(bidir)
    guards = [(c, codec.encode(c)) for c in pool]
    items: dict = {}
    pack, unpack, meet_with = _packing(codec, len(seeds[0][0]))
    for vec, formula in seeds:
        items.setdefault(pack(vec), formula)
    vecs = list(items)                 # the keys of items, indexable
    met = []                           # met[u]: how many items u met when popped
    first = 0                          # items before first already met the current one
    i = 0
    while i < len(vecs):
        key = vecs[i]
        formula = items[key]
        if not isinstance(formula, (Implies, Iff)):
            codes = unpack(key)
            for c, code in guards:
                guarded = pack([guard_op(code, d) for d in codes])
                if guarded not in items:
                    items[guarded] = guard_cls(c, formula)
                    vecs.append(guarded)
        met.append(len(vecs))
        while met[first] <= i:
            first += 1
        meet = meet_with(key)
        for other in itertools.chain(itertools.islice(vecs, first),
                                     itertools.islice(vecs, i + 1, met[i])):
            joint = meet(other)
            if joint not in items:
                items[joint] = And(items[other], formula)
                vecs.append(joint)
        i += 1
    return {unpack(key): formula for key, formula in items.items()}


def _top_atoms(codec, tau, steps, depth, bidir, pool) -> list:
    """Tau plus the step formulas over the depth-(d-1) inner set: the atoms
    whose readouts realize the bounded infimum, as (vector, formula) items,
    on the codes of _joint's (codec, tau, steps).  Steps of distinct vectors
    often agree, so each distinct vector is kept once.
    A round reads only the distinct vectors of the atoms before it, in order
    (atoms are never guards), so once that list repeats, the rounds cycle:
    the loop stops at depth's place in the cycle, with shallower formulas."""
    atoms, shared, seen, rounds = [(tau, TAU)], {}, {(tau,): 0}, 0
    while rounds < depth:
        reps = _closure(codec, atoms, pool, bidir)
        atoms = [(tau, TAU)]
        for vec, formula in reps.items():
            for s, edges in steps:
                back = _back_step(codec, edges, vec)
                atoms.append((shared.setdefault(back, back), Step(s, formula)))
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
    return codec, bidir, _top_atoms(codec, tau, steps, depth, bidir, pool)


def hm_degree_bounded(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton,
                      depth: int, fragment) -> FuzzyRelation:
    """Per-pair infimum of formula readouts over the fragment, truncated at
    the given step-depth.  Antitone in depth; always above the true degree."""
    codec, bidir, atoms = _readout_atoms(lat, a, ap, depth, fragment)
    op, decode, vectors = codec.op(bidir), codec.decode, [vec for vec, _formula in atoms]
    return FuzzyRelation._from_parsed({(x, xp): decode(_readout(op, codec.top, vectors, i, j))
                                       for i, x in enumerate(a.states)
                                       for j, xp in enumerate(ap.states, len(a.states))})


def enumerate_formulas(lat: ResiduatedLattice, a: FuzzyAutomaton, ap: FuzzyAutomaton,
                       depth: int, fragment) -> list:
    """The atom formulas whose readouts realize hm_degree_bounded.  Once the
    rounds repeat, they may be shallower than depth (see _top_atoms)."""
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

    Searches the enumerated atoms (sufficient: any formula achieving the
    target has an atom of its decomposition achieving it too) and never
    returns a candidate without re-verifying it by direct evaluation.  Once
    the rounds repeat, it may be shallower than depth (see _top_atoms).
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
