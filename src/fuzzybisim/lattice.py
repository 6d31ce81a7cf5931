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

# Largest exponent magnitude a decimal degree literal may carry: Fraction
# expands "1e-N" into an N-digit power of ten, which takes seconds once N
# reaches the millions.  4300 is the interpreter's default int/str digit limit.
MAX_EXPONENT = 4300
# a decimal literal with an exponent, in the syntax Fraction reads
_EXPONENT_LITERAL = re.compile(r"[-+]?(?=\d|\.\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?"
                               r"[eE]([-+]?\d+(?:_\d+)*)")
MEMO_LENGTH = 40
MEMO_SIZE = 1024


def parse_degree(value) -> Fraction:
    """Parse a rational literal into an exact degree in [0, 1].

    Accepts strings like "3/5", "0.7" or "1" (decimals convert exactly, with
    an exponent of at most MAX_EXPONENT in magnitude), plain ints, and
    Fraction values.  Floats are rejected: binary floats
    are inexact and would poison every downstream comparison.

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
    text = value.strip()
    literal = ("e" in text or "E" in text) and _EXPONENT_LITERAL.fullmatch(text)
    # Decimal reads an exponent of any length; int stops at the digit limit
    if literal and abs(Decimal(literal[1].replace("_", ""))) > MAX_EXPONENT:
        raise InputError(f"degree {value!r} has an exponent beyond {MAX_EXPONENT} in magnitude")
    try:
        return _parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational literal: {value!r}") from exc


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:
        # past the interpreter's int/str digit limit, "p/q" and plain decimal
        # literals still convert exactly
        match = re.fullmatch(r"(\d+)/(\d+)|\d*\.?\d+", text)
        if match is None:
            raise
        if match[1] is None:
            whole, _dot, fraction = text.partition(".")
            return Fraction(_int(whole + fraction), 10 ** len(fraction))
        return Fraction(_int(match[1]), _int(match[2]))


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
