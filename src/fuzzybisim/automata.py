"""Fuzzy automata: data model, JSON interchange format and language evaluation.

An automaton is a finite state set, a finite alphabet, a fuzzy transition
function delta (sparse, per symbol), a fuzzy initial set sigma and a fuzzy
terminal set tau.  The recognized degree of a word s1..sn is the scalar

    sigma o delta_{s1} o ... o delta_{sn} o tau

with the empty word handled as the n = 0 case sigma o tau.
"""

from __future__ import annotations

import graphlib
import itertools
import json
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InputError, decode_json
from .fuzzyrel import FuzzyRelation, FuzzySet, compose_set_rel, compose_set_set, union
from .lattice import ONE, ZERO, ResiduatedLattice, format_degree, parse_degree

#: Returned by max_live_word_length when no finite certificate exists.
UNBOUNDED = None

_FIELDS = ("name", "alphabet", "states", "initial", "terminal", "transitions")


class FuzzyAutomaton:
    """Immutable fuzzy automaton over string-named states and symbols."""

    __slots__ = ("name", "states", "alphabet", "sigma", "tau", "_delta_rels")

    def __init__(self, name: str, states: Iterable[str], alphabet: Iterable[str],
                 delta: Mapping, sigma, tau, *, _parsed: bool = False):
        """Checks its input and stores it; every degree goes through parse_degree
        once.  automaton_from_obj has parsed delta's degrees and passes _parsed=True."""
        states = tuple(states)
        alphabet = tuple(alphabet)
        if not states:
            raise InputError("automaton needs a non-empty state set")
        if len(set(states)) != len(states):
            raise InputError("duplicate state name")
        if len(set(alphabet)) != len(alphabet):
            raise InputError("duplicate alphabet symbol")
        state_set = set(states)

        sigma = sigma if isinstance(sigma, FuzzySet) else FuzzySet(sigma)
        tau = tau if isinstance(tau, FuzzySet) else FuzzySet(tau)
        # items() is in key order, so the state named does not vary between runs
        for label, fset in (("initial", sigma), ("terminal", tau)):
            for x, _d in fset.items():
                if x not in state_set:
                    raise InputError(f"{label} entry for unknown state {x!r}")

        rels: dict = {s: {} for s in alphabet}
        pairs = delta.items() if isinstance(delta, Mapping) else delta
        for key, value in pairs:
            if not (isinstance(key, tuple) and len(key) == 3):
                raise InputError(f"transition key must be (from, symbol, to), got {key!r}")
            x, s, y = key
            if x not in state_set:
                raise InputError(f"transition from unknown state {x!r}")
            if y not in state_set:
                raise InputError(f"transition to unknown state {y!r}")
            if s not in alphabet:
                raise InputError(f"transition over unknown symbol {s!r}")
            degree = value if _parsed else parse_degree(value)
            if degree:  # zeros are not stored, not even over an earlier repeat of the key
                rels[s][(x, y)] = degree

        object.__setattr__(self, "name", name)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "_delta_rels",
                           {s: FuzzyRelation._from_parsed(m) for s, m in rels.items()})

    def __setattr__(self, name, value):
        raise AttributeError("FuzzyAutomaton is immutable")

    def delta_degree(self, x: str, s: str, y: str) -> Fraction:
        """The stored degree of (x, s, y), 0 when absent or when s is not in the alphabet."""
        return self._delta_rels[s].degree(x, y) if s in self._delta_rels else ZERO

    def transitions(self) -> list:
        """All nonzero transitions as ((from, symbol, to), degree), sorted."""
        return sorted(((x, s, y), d) for s, rel in self._delta_rels.items()
                      for (x, y), d in rel.items())

    def __eq__(self, other) -> bool:
        return (isinstance(other, FuzzyAutomaton)
                and self.name == other.name
                and self.states == other.states
                and self.alphabet == other.alphabet
                and self.sigma == other.sigma
                and self.tau == other.tau
                and self._delta_rels == other._delta_rels)

    def __repr__(self) -> str:
        return (f"FuzzyAutomaton({self.name!r}, states={len(self.states)}, alphabet="
                f"{list(self.alphabet)!r}, transitions={sum(map(len, self._delta_rels.values()))})")


def delta_rel(aut: FuzzyAutomaton, s: str) -> FuzzyRelation:
    """The per-symbol slice delta_s as a fuzzy relation on states."""
    try:
        return aut._delta_rels[s]
    except KeyError:
        raise InputError(f"unknown symbol {s!r} for automaton {aut.name!r}") from None


def lang_degree(lat: ResiduatedLattice, aut: FuzzyAutomaton, word: Sequence[str]) -> Fraction:
    """Recognized degree of the word, a sequence of symbol names."""
    return _degree_from(lat, aut, aut.sigma, word)


def lang_degree_from_state(lat: ResiduatedLattice, aut: FuzzyAutomaton,
                           x: str, word: Sequence[str]) -> Fraction:
    """Recognized degree with the initial set replaced by {x: 1}."""
    if x not in aut.states:
        raise InputError(f"unknown state {x!r} for automaton {aut.name!r}")
    return _degree_from(lat, aut, FuzzySet({x: ONE}), word)


def _degree_from(lat, aut, front: FuzzySet, word) -> Fraction:
    for s in word:
        front = compose_set_rel(lat, front, delta_rel(aut, s))
    return compose_set_set(lat, front, aut.tau)


def words_up_to(aut: FuzzyAutomaton, k: int) -> list:
    """All words of length <= k, in length-then-lexicographic order."""
    if k < 0:
        raise InputError("word length bound must be >= 0")
    symbols = sorted(aut.alphabet)
    out: list = [()]
    for n in range(1, k + 1):
        out.extend(itertools.product(symbols, repeat=n))
    return out


def max_live_word_length(aut: FuzzyAutomaton, starts=None):
    """Length certificate for bounded language comparison.

    If the support digraph of the union of all delta_s is acyclic, returns
    the longest path length from the start states (default support(sigma))
    to support(tau); every strictly longer word then has degree 0 from each
    start state.  Any cycle yields UNBOUNDED, which is sufficient but not
    necessary for unboundedly long live words.
    """
    succs: dict = {x: set() for x in aut.states}
    preds: dict = {x: set() for x in aut.states}
    for (x, y), _d in union(aut._delta_rels.values()).items():
        succs[x].add(y)
        preds[y].add(x)
    try:
        order = list(graphlib.TopologicalSorter(preds).static_order())
    except graphlib.CycleError:
        return UNBOUNDED
    starts = aut.sigma.support() if starts is None else set(starts)
    dist = {x: (0 if x in starts else -1) for x in aut.states}
    for x in order:
        if dist[x] < 0:
            continue
        for y in succs[x]:
            if dist[x] + 1 > dist[y]:
                dist[y] = dist[x] + 1
    best = 0
    for y in aut.tau.support():
        if dist[y] > best:
            best = dist[y]
    return best


def automaton_from_obj(obj) -> FuzzyAutomaton:
    if not isinstance(obj, dict):
        raise InputError("automaton JSON must be an object")
    extra = set(obj) - set(_FIELDS)
    if extra:
        raise InputError(f"unknown automaton fields {sorted(extra)}")
    missing = set(_FIELDS) - set(obj)
    if missing:
        raise InputError(f"automaton is missing fields {sorted(missing)}")
    name = obj["name"]
    if not isinstance(name, str):
        raise InputError(f"automaton name must be a string, got {name!r}")
    for field in ("alphabet", "states"):
        seq = obj[field]
        if not isinstance(seq, list) or not all(isinstance(v, str) for v in seq):
            raise InputError(f"{field} must be an array of strings")
    for field in ("initial", "terminal"):
        if not isinstance(obj[field], dict):
            raise InputError(f"{field} must be an object mapping states to degrees")
    transitions = obj["transitions"]
    if not isinstance(transitions, list):
        raise InputError("transitions must be an array")
    delta: dict = {}
    for item in transitions:
        if not isinstance(item, dict):
            raise InputError(f"transition must be an object, got {item!r}")
        fields = {"from", "symbol", "to", "degree"}
        if set(item) != fields:
            bad = sorted(set(item) ^ fields)
            raise InputError(f"transition object must have exactly from/symbol/to/degree, offending fields {bad}")
        x, s, y = item["from"], item["symbol"], item["to"]
        for v in (x, s, y):
            if not isinstance(v, str):
                raise InputError(f"transition endpoints and symbol must be strings, got {v!r}")
        if (x, s, y) in delta:
            raise InputError(f"duplicate transition ({x!r}, {s!r}, {y!r})")
        delta[(x, s, y)] = parse_degree(item["degree"])
    return FuzzyAutomaton(
        name=name,
        states=obj["states"],
        alphabet=obj["alphabet"],
        delta=delta,
        sigma=FuzzySet(obj["initial"]),
        tau=FuzzySet(obj["terminal"]),
        _parsed=True,
    )


def parse_automaton(text: str) -> FuzzyAutomaton:
    return automaton_from_obj(decode_json(text, "automaton"))


def automaton_to_obj(aut: FuzzyAutomaton) -> dict:
    return {
        "name": aut.name,
        "alphabet": list(aut.alphabet),
        "states": list(aut.states),
        "initial": {x: format_degree(d) for x, d in aut.sigma.items()},
        "terminal": {x: format_degree(d) for x, d in aut.tau.items()},
        "transitions": [
            {"from": x, "symbol": s, "to": y, "degree": format_degree(d)}
            for (x, s, y), d in aut.transitions()
        ],
    }


def serialize_automaton(aut: FuzzyAutomaton) -> str:
    return json.dumps(automaton_to_obj(aut), indent=2)
