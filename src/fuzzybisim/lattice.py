"""Exact arithmetic for complete residuated lattices on the rational unit interval.

Degrees are `fractions.Fraction` values in [0, 1], so every comparison and
every fixpoint stabilization test is exact.  Three structures are provided,
one per t-norm:

==============  =====================  ================================
kind            a (x) b                a -> b
==============  =====================  ================================
godel           min(a, b)              1 if a <= b else b
lukasiewicz     max(0, a + b - 1)      min(1, 1 - a + b)
product         a * b                  1 if a <= b else b / a
==============  =====================  ================================

Each pairing satisfies the adjunction: a (x) b <= c  iff  a <= (b -> c).
All three are linear (the order is the usual one on rationals), so the
lattice meet and join are plain min and max.
"""

from __future__ import annotations

import functools
import re
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from fractions import Fraction

from .errors import InputError

ZERO = Fraction(0)
ONE = Fraction(1)

_KINDS = ("godel", "lukasiewicz", "product")

# Largest exponent magnitude a decimal degree literal may carry: "1e-N"
# expands into an N-digit power of ten, which takes seconds once N reaches
# the millions.  4300 is the interpreter's default int/str digit limit.
MAX_EXPONENT = 4300
# A degree literal, the strings Fraction reads from Python 3.12 on less the outer
# whitespace: a sign, then p/q (spaces around "/") or a decimal and an exponent.
_DIGITS = r"\d+(?:_\d+)*"     # "_" only between digits
LITERAL = re.compile(rf"(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>(?:{_DIGITS})?)"
                     rf"(?:\s*/\s*(?P<den>{_DIGITS})|(?:\.(?P<frac>(?:{_DIGITS})?))?"
                     rf"(?:[eE](?P<exp>[-+]?{_DIGITS}))?)")
MEMO_LENGTH = 40
MEMO_SIZE = 1024


def parse_degree(value) -> Fraction:
    """Parse a rational literal into an exact degree in [0, 1].

    Accepts a LITERAL with optional whitespace around it, such as "3/5",
    "1 / 2", "0.7" or "5e-1" (exact at any length, with an exponent of at most
    MAX_EXPONENT in magnitude), plain ints, and Fraction values.  Floats are
    rejected: binary floats are inexact and would poison every comparison.

    A string of at most MEMO_LENGTH characters is parsed once while it is
    among the last MEMO_SIZE distinct ones, so a file's repeated literals
    cost one parse.  A bad literal raises every time; a longer one is never kept.
    """
    if isinstance(value, bool):
        raise InputError(f"not a rational literal: {value!r}")
    if isinstance(value, Fraction):
        degree = value
    elif isinstance(value, int):
        degree = Fraction(value)
    elif isinstance(value, float):
        raise InputError(
            f"refusing inexact float degree {value!r}: write it as a string, e.g. \"7/10\""
        )
    elif isinstance(value, str):
        degree = (_parse_text if len(value) <= MEMO_LENGTH else _parse_text.__wrapped__)(value)
    else:
        raise InputError(f"not a rational literal: {value!r}")
    if not 0 <= degree.numerator <= degree.denominator:
        raise InputError(f"degree {value!r} outside [0, 1]")
    return degree


@functools.lru_cache(maxsize=MEMO_SIZE)
def _parse_text(value: str) -> Fraction:
    match = LITERAL.fullmatch(value.strip())
    if match is None:
        raise InputError(f"not a rational literal: {value!r}")
    sign, num, den, frac, exp = (g.replace("_", "") for g in match.groups(""))
    p, q = _int(num + frac), _int(den) if den else 10 ** len(frac)
    if exp:  # Decimal reads an exponent of any length; int stops at the digit limit
        if abs(e := Decimal(exp)) > MAX_EXPONENT:
            raise InputError(f"degree {value!r} has an exponent beyond {MAX_EXPONENT} in magnitude")
        p, q = (p * 10 ** int(e), q) if e >= 0 else (p, q * 10 ** -int(e))
    if q == 0:
        raise InputError(f"not a rational literal: {value!r}")
    return Fraction(-p if sign == "-" else p, q)


def format_degree(degree: Fraction) -> str:
    """Canonical text form: reduced "p/q", or "0"/"1" for the bounds. Never decimal.

    Exact at any size: terms past the interpreter's int/str digit limit
    are written through Decimal, which that limit does not apply to.
    """
    try:
        return str(degree)
    except ValueError:
        with localcontext(_EXACT):
            return f"{_decimal(degree.numerator)}/{_decimal(degree.denominator)}"


# Past the digit limit int(str) refuses, and Decimal(int) and int(Decimal) take
# quadratic time.  Split in halves, each direction costs about what a product
# of its size does (Brent & Zimmermann, Modern Computer Arithmetic, 1.7).
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


def _int(digits: str) -> int:
    """int(digits), for a digit string of any length: hi * 10**k + lo."""
    if len(digits) <= 3000:
        return int(digits)
    k = len(digits) // 2
    return _int(digits[:-k]) * 10 ** k + _int(digits[-k:])


def _decimal(n: int) -> Decimal:
    """Decimal(n) for n >= 0, in the _EXACT context: hi * 2**w + lo."""
    if n.bit_length() <= 10000:
        return Decimal(n)
    w = n.bit_length() // 2
    return _decimal(n >> w) * Decimal(2) ** w + _decimal(n & ((1 << w) - 1))


class ResiduatedLattice:
    """One of the three unit-interval residuated lattices, chosen by t-norm.

    Instances are immutable descriptors; all operations are pure.  Use the
    module constants GOEDEL, LUKASIEWICZ and PRODUCT, or `by_name`.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in _KINDS:
            raise InputError(f"unknown lattice kind {kind!r}; expected one of {list(_KINDS)}")
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("ResiduatedLattice is immutable")

    def __repr__(self) -> str:
        return f"ResiduatedLattice({self.kind!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ResiduatedLattice) and self.kind == other.kind

    def __hash__(self) -> int:
        return hash(("ResiduatedLattice", self.kind))

    def tnorm(self, a: Fraction, b: Fraction) -> Fraction:
        if self.kind == "godel":
            return a if a <= b else b
        if self.kind == "lukasiewicz":
            s = a + b - 1
            return s if s > ZERO else ZERO
        return a * b

    def residuum(self, a: Fraction, b: Fraction) -> Fraction:
        if a <= b:
            return ONE
        # below here a > b, in particular a > 0
        if self.kind == "godel":
            return b
        if self.kind == "lukasiewicz":
            return 1 - a + b
        return b / a

    def biresiduum(self, a: Fraction, b: Fraction) -> Fraction:
        return min(self.residuum(a, b), self.residuum(b, a))


GOEDEL = ResiduatedLattice("godel")
LUKASIEWICZ = ResiduatedLattice("lukasiewicz")
PRODUCT = ResiduatedLattice("product")


def by_name(name: str) -> ResiduatedLattice:
    """Look up a lattice by its CLI name: godel, lukasiewicz or product."""
    for lat in (GOEDEL, LUKASIEWICZ, PRODUCT):
        if lat.kind == name:
            return lat
    raise InputError(f"unknown lattice kind {name!r}; expected one of {list(_KINDS)}")
