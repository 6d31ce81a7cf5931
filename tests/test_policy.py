"""The product jump's condition (a) at the recorded iterate (policy.jump)."""

import itertools
from fractions import Fraction

from fuzzybisim import PRODUCT, FuzzyAutomaton, greatest_fuzzy_simulation, refinement_steps

from test_simrel import _jump_attempts


def test_product_jump_waits_while_a_pair_at_1_starts_to_drop(monkeypatch):
    """phi(y, y') halves every sweep, and phi(x, x') = min(1, 300 * phi(y, y'))
    stays 1 up to sweep 9.  The policy at sweep 8 already chooses the
    constraint that sets (x, x') from sweep 10 on, but there it gives
    f = 300/256 > 1 = F(phi_8)(x, x'): (a) fails at phi_8, so that attempt is
    refused, and the one at 16 jumps."""
    a = FuzzyAutomaton("A", ["x", "y"], ["a"], {("x", "a", "y"): "1/300", ("y", "a", "y"): "1"},
                       {"x": "1"}, {"x": "1", "y": "1"})
    ap = FuzzyAutomaton("B", ["x'", "y'"], ["a"],
                        {("x'", "a", "y'"): "1", ("y'", "a", "y'"): "1/2"},
                        {"x'": "1"}, {"x'": "1", "y'": "1"})
    attempts = _jump_attempts(monkeypatch)
    iterates = list(itertools.islice(refinement_steps(PRODUCT, a, ap, "sim"), 41))
    assert [phi.degree("x", "x'") for phi in iterates[8:11]] == [1, 1, Fraction(300, 512)]
    for cap in (20, 40):
        attempts.clear()
        report = greatest_fuzzy_simulation(PRODUCT, a, ap, max_iters=cap)
        assert report.relation == iterates[cap], cap
        assert (report.iterations, report.converged) == (cap, False)
        assert attempts == [(8, False), (16, True)], cap
