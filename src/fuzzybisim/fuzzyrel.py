"""Finite-support fuzzy sets and fuzzy relations with their relational calculus.

Both containers are sparse and ordered: only nonzero degrees are stored, in
key order fixed on construction, and absent keys read as 0.  Dropping zeros
on construction makes structural equality coincide with semantic equality,
which is what lets fixpoint loops detect stabilization by a plain ``==``.

The constructors check raw input (each degree, each relation key), and the
file readers build through them.  Only a container computed from valid ones,
such as a composition or a decoded fixpoint iterate, is built by
`_from_parsed` without checking them again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InputError, check_object, decode_json, encode_json
from .lattice import ONE, ZERO, ResiduatedLattice, format_degree, parse_degree


class FuzzySet:
    """Sparse map from sortable keys to nonzero degrees in [0, 1], stored in key order."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping | Iterable = ()):
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        self._entries = _nonzero(pairs)

    @classmethod
    def _from_parsed(cls, degrees: Mapping):
        """Build from degrees that parse_degree returned or lattice operations
        made from such, without checking them again; zeros dropped, keys sorted."""
        fset = cls.__new__(cls)
        fset._entries = dict(sorted(item for item in degrees.items() if item[1]))
        return fset

    def degree(self, x) -> Fraction:
        return self._entries.get(x, ZERO)

    def support(self) -> set:
        return set(self._entries)

    def items(self) -> list:
        return list(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        # exact types: a set never equals a relation, even with equal entries
        return type(other) is type(self) and self._entries == other._entries

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {format_degree(v)}" for k, v in self.items())
        return f"{type(self).__name__}({{{inner}}})"


class FuzzyRelation(FuzzySet):
    """A fuzzy set whose elements are ordered pairs of element identifiers."""

    __slots__ = ()

    def __init__(self, entries: Mapping | Iterable = ()):
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        self._entries = _nonzero(_checked_pairs(pairs))

    def degree(self, x, y) -> Fraction:
        return self._entries.get((x, y), ZERO)


def _nonzero(pairs) -> dict:
    """The (key, degree) pairs whose parsed degree is not 0, as a dict in key order."""
    cleaned = {}
    for key, value in pairs:
        degree = parse_degree(value)
        if degree:  # cheaper than comparing the Fraction with ZERO
            cleaned[key] = degree
    return dict(sorted(cleaned.items()))


def _checked_pairs(pairs):
    """pairs, each key checked as it is read, so a bad key is reported before
    any later entry's degree is parsed, and sets pay nothing for the check."""
    for key, value in pairs:
        if not (isinstance(key, tuple) and len(key) == 2):
            raise InputError(f"relation key must be a pair, got {key!r}")
        yield key, value


def subsethood(lat: ResiduatedLattice, f, g) -> Fraction:
    """Degree to which f is a subset of g: the meet of f(x) -> g(x).

    Works on two FuzzySet or two FuzzyRelation values.  Elements outside
    both supports contribute 0 -> 0 = 1 and are skipped; where f is 0 the
    residuum is 1 regardless of g, so only support(f) matters.
    """
    out = ONE
    for key, fv in f.items():
        r = lat.residuum(fv, g._entries.get(key, ZERO))
        if r < out:
            out = r
    return out


def equality(lat: ResiduatedLattice, f, g) -> Fraction:
    """Degree to which f and g are equal: the meet of f(x) <-> g(x)."""
    out = ONE
    for key in f.support() | g.support():
        r = lat.biresiduum(f._entries.get(key, ZERO), g._entries.get(key, ZERO))
        if r < out:
            out = r
    return out


def pointwise_leq(f, g) -> bool:
    """Exact pointwise comparison f <= g for two sets or two relations."""
    return all(fv <= g._entries.get(key, ZERO) for key, fv in f.items())


def compose_rel_rel(lat: ResiduatedLattice, phi: FuzzyRelation, psi: FuzzyRelation) -> FuzzyRelation:
    """(phi o psi)(x, z) = sup over y of phi(x, y) (x) psi(y, z)."""
    by_mid: dict = {}
    for (y, z), d in psi.items():
        by_mid.setdefault(y, []).append((z, d))
    out: dict = {}
    for (x, y), d1 in phi.items():
        for z, d2 in by_mid.get(y, ()):
            v = lat.tnorm(d1, d2)
            key = (x, z)
            if v > out.get(key, ZERO):
                out[key] = v
    return FuzzyRelation._from_parsed(out)


def compose_set_rel(lat: ResiduatedLattice, f: FuzzySet, phi: FuzzyRelation) -> FuzzySet:
    """(f o phi)(y) = sup over x of f(x) (x) phi(x, y)."""
    out: dict = {}
    for (x, y), d in phi.items():
        v = lat.tnorm(f.degree(x), d)
        if v > out.get(y, ZERO):
            out[y] = v
    return FuzzySet._from_parsed(out)


def compose_rel_set(lat: ResiduatedLattice, phi: FuzzyRelation, g: FuzzySet) -> FuzzySet:
    """(phi o g)(x) = sup over y of phi(x, y) (x) g(y)."""
    out: dict = {}
    for (x, y), d in phi.items():
        v = lat.tnorm(d, g.degree(y))
        if v > out.get(x, ZERO):
            out[x] = v
    return FuzzySet._from_parsed(out)


def compose_set_set(lat: ResiduatedLattice, f: FuzzySet, g: FuzzySet) -> Fraction:
    """(f o g) = sup over x of f(x) (x) g(x), a scalar degree."""
    out = ZERO
    for x, d in f.items():
        v = lat.tnorm(d, g.degree(x))
        if v > out:
            out = v
    return out


def converse(phi: FuzzyRelation) -> FuzzyRelation:
    return FuzzyRelation._from_parsed({(y, x): d for (x, y), d in phi.items()})


def union(relations: Iterable[FuzzyRelation]) -> FuzzyRelation:
    """Pointwise supremum of finitely many relations; empty input gives the empty relation."""
    out: dict = {}
    for phi in relations:
        for key, d in phi.items():
            if d > out.get(key, ZERO):
                out[key] = d
    return FuzzyRelation._from_parsed(out)


def scalar_meet(lam: Fraction, obj):
    """(lam /\\ f)(x) = lam /\\ f(x), for a FuzzySet or a FuzzyRelation."""
    lam = parse_degree(lam)
    if isinstance(obj, FuzzySet):
        return type(obj)._from_parsed({key: min(lam, d) for key, d in obj.items()})
    raise InputError(f"scalar_meet expects a FuzzySet or FuzzyRelation, got {type(obj).__name__}")


def identity_rel(universe: Iterable) -> FuzzyRelation:
    return FuzzyRelation._from_parsed({(x, x): ONE for x in universe})


def is_reflexive(phi: FuzzyRelation, universe: Iterable) -> bool:
    """id_X <= phi. The universe is explicit: a sparse map cannot infer it."""
    return all(phi.degree(x, x) == ONE for x in universe)


def is_symmetric(phi: FuzzyRelation) -> bool:
    return phi == converse(phi)


def is_transitive(lat: ResiduatedLattice, phi: FuzzyRelation) -> bool:
    return pointwise_leq(compose_rel_rel(lat, phi, phi), phi)


def relation_json_array(phi: FuzzyRelation) -> list:
    """The interchange form: a list of {"from", "to", "degree"} sorted by endpoints."""
    return [
        {"from": x, "to": y, "degree": format_degree(d)}
        for (x, y), d in phi.items()
    ]


def serialize_relation(phi: FuzzyRelation) -> str:
    return encode_json(relation_json_array(phi))


_ENTRY_FIELDS = {"from", "to", "degree"}


def relation_from_obj(obj) -> FuzzyRelation:
    """Checks the JSON shape; FuzzyRelation checks the degrees."""
    if not isinstance(obj, list):
        raise InputError("relation JSON must be an array of {from, to, degree} objects")
    entries: dict = {}
    for item in obj:
        check_object(item, _ENTRY_FIELDS, "relation entry")
        x, y = item["from"], item["to"]
        if not isinstance(x, str) or not isinstance(y, str):
            raise InputError(f"relation endpoints must be strings, got {x!r} -> {y!r}")
        if (x, y) in entries:
            raise InputError(f"duplicate relation entry for ({x!r}, {y!r})")
        entries[(x, y)] = item["degree"]
    return FuzzyRelation(entries)


def parse_relation(text: str) -> FuzzyRelation:
    return relation_from_obj(decode_json(text, "relation"))
