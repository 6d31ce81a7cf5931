"""Planted-answer pairs (tests/planted.py): the planted relation is a crisp
bisimulation in every lattice, and the greatest bisimulation keeps it."""

import pytest

from fuzzybisim import (
    GOEDEL,
    LUKASIEWICZ,
    ONE,
    PRODUCT,
    check_crisp_bisimulation,
    greatest_fuzzy_bisimulation,
)
from fuzzybisim.oracle import is_fuzzy_bisimulation_bruteforce, random_automaton

from planted import planted_pair, with_degree

LATTICES = pytest.mark.parametrize("lat", [GOEDEL, LUKASIEWICZ, PRODUCT], ids=lambda lat: lat.kind)
SEEDS = pytest.mark.parametrize("seed", [1, 2, 3])


def _pair(seed):
    b = random_automaton("B", 10, ["a", "b"], [f"{i}/10" for i in range(1, 11)], seed)
    return (b, *planted_pair(b, 4, seed))


@LATTICES
@SEEDS
def test_planted_relation_is_a_crisp_bisimulation(lat, seed):
    b, a, rho, _planted = _pair(seed)
    assert len(a.states) == 40 and len(rho.items()) == 40
    assert check_crisp_bisimulation(lat, a, b, rho)


@LATTICES
@SEEDS
def test_greatest_bisimulation_keeps_every_planted_pair(lat, seed):
    b, a, rho, _planted = _pair(seed)
    report = greatest_fuzzy_bisimulation(lat, a, b)
    assert report.converged
    assert all(report.relation.degree(x, y) == ONE for (x, y), _d in rho.items())
    assert is_fuzzy_bisimulation_bruteforce(lat, a, b, report.relation)


@LATTICES
@SEEDS
def test_a_lowered_planted_transition_breaks_the_crisp_check(lat, seed):
    b, a, rho, planted = _pair(seed)
    xi, s, yj = key = planted[seed]
    lowered = with_degree(a, key, a.delta_degree(xi, s, yj) / 2)
    assert not check_crisp_bisimulation(lat, lowered, b, rho)
