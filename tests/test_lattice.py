import json
import random
from fractions import Fraction

import pytest

from fuzzybisim import (
    GOEDEL,
    LUKASIEWICZ,
    ONE,
    PRODUCT,
    ZERO,
    ResiduatedLattice,
    by_name,
    format_degree,
    parse_degree,
)
from fuzzybisim import fuzzyrel, lattice
from fuzzybisim.errors import InputError
from fuzzybisim.fuzzyrel import parse_relation

from conftest import time_limit

LATTICES = (GOEDEL, LUKASIEWICZ, PRODUCT)
SEEDS = {"godel": 11, "lukasiewicz": 12, "product": 13}


def random_degrees(seed, count, max_den=12):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        den = rng.randint(1, max_den)
        out.append(Fraction(rng.randint(0, den), den))
    return out


def triples(lat, count=80):
    vals = random_degrees(SEEDS[lat.kind], 3 * count)
    return list(zip(vals[0::3], vals[1::3], vals[2::3]))


def test_tnorm_tables():
    a, b = Fraction(7, 10), Fraction(4, 5)
    assert GOEDEL.tnorm(a, b) == Fraction(7, 10)
    assert LUKASIEWICZ.tnorm(a, b) == Fraction(1, 2)
    assert PRODUCT.tnorm(a, b) == Fraction(14, 25)
    assert LUKASIEWICZ.tnorm(Fraction(1, 4), Fraction(1, 2)) == ZERO


def test_residuum_tables():
    a, b = Fraction(4, 5), Fraction(7, 10)
    assert GOEDEL.residuum(a, b) == Fraction(7, 10)
    assert LUKASIEWICZ.residuum(a, b) == Fraction(9, 10)
    assert PRODUCT.residuum(a, b) == Fraction(7, 8)
    for lat in LATTICES:
        assert lat.residuum(b, a) == ONE
        assert lat.residuum(ZERO, b) == ONE


def test_biresiduum_symmetric_and_exact():
    a, b = Fraction(3, 5), Fraction(7, 10)
    assert GOEDEL.biresiduum(a, b) == Fraction(3, 5)
    assert LUKASIEWICZ.biresiduum(a, b) == Fraction(9, 10)
    assert PRODUCT.biresiduum(a, b) == Fraction(6, 7)
    for lat in LATTICES:
        assert lat.biresiduum(a, b) == lat.biresiduum(b, a)
        assert lat.biresiduum(a, a) == ONE


def test_by_name():
    assert by_name("godel") is GOEDEL
    assert by_name("lukasiewicz") is LUKASIEWICZ
    assert by_name("product") is PRODUCT
    assert repr(by_name("lukasiewicz")) == "ResiduatedLattice('lukasiewicz')"
    with pytest.raises(InputError):
        by_name("drastic")


def test_lattice_value_semantics():
    assert GOEDEL == ResiduatedLattice("godel")
    assert GOEDEL != PRODUCT
    assert len({GOEDEL, ResiduatedLattice("godel")}) == 1
    with pytest.raises(AttributeError):
        GOEDEL.kind = "product"
    with pytest.raises(InputError):
        ResiduatedLattice("min")


def test_parse_degree():
    assert parse_degree("0.7") == Fraction(7, 10)
    assert parse_degree("3/5") == Fraction(3, 5)
    assert parse_degree("1") == ONE
    assert parse_degree(0) == ZERO
    assert parse_degree(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("bad", [1.5, "1.5", "-1/2", "7/0", "abc", True, None, "", "3/5/7",
                                 Fraction(3, 2), Fraction(-1, 2), 2, -1])
def test_parse_degree_rejects(bad):
    with pytest.raises(InputError):
        parse_degree(bad)


# past the interpreter's 4300-digit int/str limit: 5000 ones, and 0.3...3 with 5000 threes
ONES, THIRD = (10 ** 5000 - 1) // 9, Fraction(10 ** 5000 - 1, 3 * 10 ** 5000)
# the same answer on every interpreter: a value, or the start of the error message
LITERALS = [
    ("1 / 2", Fraction(1, 2)), ("1 /2", Fraction(1, 2)), ("1_0/2_0", Fraction(1, 2)),
    (" +.5e0 ", Fraction(1, 2)),
    ("1_000.5e-3", "degree '1_000.5e-3' outside [0, 1]"),
    ("+" + "1" * 5000 + "/1" + "0" * 5000, Fraction(ONES, 10 ** 5000)),
    ("0." + "_".join("3" * 5000), THIRD),
    ("0." + "3" * 5000 + "e0", THIRD),
    ("1" * 5000 + " / " + "1" * 4999 + "2", Fraction(ONES, ONES + 1)),
    *((bad, "not a rational literal") for bad in ("1__0", "_1", "1_", "+-1", "1.5/2", "1/ ")),
]


def test_degree_literal_table():
    for literal, expected in LITERALS:
        if isinstance(expected, Fraction):
            assert parse_degree(literal) == expected, literal[:20]
        else:
            with pytest.raises(InputError) as err:
                parse_degree(literal)
            assert str(err.value).startswith(expected), literal


def test_parse_degree_exponent_bound():
    assert parse_degree("1e-4300") == Fraction(1, 10 ** 4300)
    assert parse_degree("0.5E-4_300") == Fraction(1, 2 * 10 ** 4300)
    for bad in ("1e-4301", "1E-4301", "0.5e-4_301", "1e-99999999"):
        with pytest.raises(InputError, match="exponent"):
            parse_degree(bad)


def test_format_degree():
    assert format_degree(Fraction(3, 5)) == "3/5"
    assert format_degree(ONE) == "1"
    assert format_degree(ZERO) == "0"
    assert parse_degree(format_degree(Fraction(123, 457))) == Fraction(123, 457)
    # terms past the default 4300-digit int/str conversion limit
    big = Fraction(3 ** 9500, 3 ** 9500 + 2)
    text = format_degree(big)
    assert len(text) > 2 * 4300 and "/" in text
    assert parse_degree(text) == big
    assert parse_degree("0." + "3" * 5000) == Fraction(10 ** 5000 - 1, 3 * 10 ** 5000)
    for bad in ("1" * 5000 + "/0", "2" * 5000 + "/" + "1" * 5000, "-" + "1" * 5000):
        with pytest.raises(InputError):
            parse_degree(bad)


def test_degree_text_round_trips_past_the_digit_limit():
    # 10^5-digit terms, about ten times slower through the quadratic conversions
    k = 100_000
    degree = Fraction((10 ** k - 1) // 9, 10 ** k)
    with time_limit(3):
        text = format_degree(degree)
        assert text == "1" * k + "/1" + "0" * k
        assert parse_degree(text) == degree
        assert parse_degree("0." + "1" * k) == degree
        assert parse_degree("." + "0" * (k - 1) + "1") == Fraction(1, 10 ** k)


def test_repeated_literals_share_one_parse():
    before = lattice._parse_text.cache_info()
    literal = "37/101"
    first, second = parse_degree(literal), parse_degree(literal)
    assert first == second == Fraction(37, 101) and first is second
    assert lattice._parse_text.cache_info().hits >= before.hits + 1
    assert parse_degree(" 74/202 ") == parse_degree("0.5") * Fraction(74, 101)


def test_a_long_literal_is_parsed_but_not_remembered():
    literal = "1/1" + "0" * lattice.MEMO_LENGTH + "3"
    assert len(literal) > lattice.MEMO_LENGTH
    before = lattice._parse_text.cache_info()
    assert parse_degree(literal) == Fraction(1, 10 ** (lattice.MEMO_LENGTH + 1) + 3)
    assert parse_degree(literal) == Fraction(1, 10 ** (lattice.MEMO_LENGTH + 1) + 3)
    after = lattice._parse_text.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses,
                                                           before.currsize)


def test_a_repeated_bad_literal_raises_at_its_first_entry_every_time(monkeypatch):
    calls = []
    monkeypatch.setattr(fuzzyrel, "parse_degree", lambda v: calls.append(v) or parse_degree(v))
    text = json.dumps([{"from": x, "to": "b", "degree": d}
                       for x, d in (("a", "1/2"), ("b", "3/0"), ("c", "1/2"), ("d", "3/0"))])
    for _ in range(3):
        calls.clear()
        with pytest.raises(InputError) as err:
            parse_relation(text)
        assert str(err.value) == "not a rational literal: '3/0'"
        assert calls == ["1/2", "3/0"]
    for bad in ("3/0", "7/5", "2e-99999"):
        messages = set()
        for _ in range(2):
            with pytest.raises(InputError) as err:
                parse_degree(bad)
            messages.add(str(err.value))
        assert len(messages) == 1


@pytest.mark.parametrize("lat", LATTICES, ids=lambda lat: lat.kind)
class TestResiduationLaws:
    def test_adjunction(self, lat):
        for a, b, c in triples(lat):
            assert (lat.tnorm(a, b) <= c) == (a <= lat.residuum(b, c))

    def test_tnorm_monotone(self, lat):
        for a, b, c in triples(lat):
            lo, hi = min(a, b), max(a, b)
            assert lat.tnorm(lo, c) <= lat.tnorm(hi, c)

    def test_residuum_antitone_left_monotone_right(self, lat):
        for a, b, c in triples(lat):
            lo, hi = min(a, b), max(a, b)
            assert lat.residuum(hi, c) <= lat.residuum(lo, c)
            assert lat.residuum(c, lo) <= lat.residuum(c, hi)

    def test_order_characterization(self, lat):
        for a, b, _c in triples(lat):
            assert (a <= b) == (lat.residuum(a, b) == ONE)

    def test_zero_absorbs(self, lat):
        for a, _b, _c in triples(lat):
            assert lat.tnorm(a, ZERO) == ZERO
            assert lat.tnorm(a, ONE) == a

    def test_modus_ponens(self, lat):
        for a, b, _c in triples(lat):
            assert lat.tnorm(a, lat.residuum(a, b)) <= b

    def test_currying(self, lat):
        for a, b, c in triples(lat):
            assert lat.residuum(a, lat.residuum(b, c)) == lat.residuum(lat.tnorm(a, b), c)

    def test_exchange_bound(self, lat):
        for a, b, c in triples(lat):
            assert lat.tnorm(a, lat.residuum(b, c)) <= lat.residuum(b, lat.tnorm(a, c))

    def test_biresiduum_congruence(self, lat):
        for a, b, c in triples(lat):
            lhs = lat.biresiduum(a, b)
            rhs = lat.biresiduum(lat.biresiduum(c, a), lat.biresiduum(c, b))
            assert lhs <= rhs

    def test_tnorm_distributes_over_sup(self, lat):
        rng = random.Random(SEEDS[lat.kind] + 100)
        for _ in range(80):
            a = Fraction(rng.randint(0, 12), 12)
            bs = [Fraction(rng.randint(0, 12), 12) for _ in range(rng.randint(1, 5))]
            assert lat.tnorm(a, max(bs)) == max(lat.tnorm(a, b) for b in bs)

    def test_residuum_turns_sup_into_inf(self, lat):
        rng = random.Random(SEEDS[lat.kind] + 200)
        for _ in range(80):
            b = Fraction(rng.randint(0, 12), 12)
            avals = [Fraction(rng.randint(0, 12), 12) for _ in range(rng.randint(1, 5))]
            assert lat.residuum(max(avals), b) == min(lat.residuum(a, b) for a in avals)

    def test_tnorm_continuous_over_inf(self, lat):
        rng = random.Random(SEEDS[lat.kind] + 300)
        for _ in range(80):
            a = Fraction(rng.randint(0, 12), 12)
            bs = [Fraction(rng.randint(0, 12), 12) for _ in range(rng.randint(1, 5))]
            assert lat.tnorm(a, min(bs)) == min(lat.tnorm(a, b) for b in bs)
