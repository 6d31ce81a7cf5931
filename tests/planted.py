"""Planted-answer pairs: an automaton A that expands each state x of a small
B into copies x.0, x.1, ..., so that rho(x.i, x) = 1 is a crisp
bisimulation of norm 1 in every residuated lattice (a uniform relation in
the sense of Ciric, Ignjatovic, Damljanovic & Basic 2012, FSS 186).

Each transition (x, s, y) of B at degree d gives every copy of x degree d
to one random copy of y, and to each other copy of y a degree below d or no
transition, so the sup over the copies of y is d.  tau is copied, and sigma
is at most B's on every copy of x and equal on one.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fuzzybisim import ONE, FuzzyAutomaton, FuzzyRelation


def planted_pair(b: FuzzyAutomaton, copies: int, seed: int) -> tuple:
    """(A, rho, planted): the expansion of b with `copies` copies per state,
    the planted relation, and the transitions (x.i, s, y.j) of A that carry
    b's degree."""
    rng = random.Random(seed)
    names = {x: [f"{x}.{i}" for i in range(copies)] for x in b.states}

    def below(d):               # a degree below d, or 0 for none
        return d * Fraction(rng.randrange(copies), copies)

    delta, planted = {}, []
    for (x, s, y), d in b.transitions():
        for xi in names[x]:
            hit = rng.choice(names[y])
            delta.update(((xi, s, yj), d if yj == hit else below(d)) for yj in names[y])
            planted.append((xi, s, hit))
    sigma = {}
    for x, d in b.sigma.items():
        equal = rng.choice(names[x])
        sigma.update((xi, d if xi == equal else below(d)) for xi in names[x])
    a = FuzzyAutomaton("A", [xi for x in b.states for xi in names[x]], b.alphabet, delta,
                       sigma, {xi: d for x, d in b.tau.items() for xi in names[x]})
    rho = FuzzyRelation({(xi, x): ONE for x in b.states for xi in names[x]})
    return a, rho, planted


def with_degree(aut: FuzzyAutomaton, key: tuple, degree) -> FuzzyAutomaton:
    """aut with transition key = (x, s, y) at degree instead."""
    delta = dict(aut.transitions())
    delta[key] = degree
    return FuzzyAutomaton(aut.name, aut.states, aut.alphabet, delta, aut.sigma, aut.tau)
