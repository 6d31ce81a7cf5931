"""The choices that set one refinement sweep, and the product jump they certify.

`record` reads the policy at an iterate off a `simrel._Kernel`'s own
composition and meet, in every lattice.  `jump` is the product fixpoint's
certified jump to its cap.  Only product fixpoints that reach a jump attempt
import this module, so no other command compiles or loads it.

On the product lattice a run can settle into a decay that never
stabilizes: the same constraints keep setting the same pairs while their
degrees shrink geometrically.  _greatest jumps such a run to its cap
exactly.  At sweeps k = 8, 16, 32, ... it records the policy at phi_k
(record, read off refine's own composition and meet): for each
pair i of the support S, the term that set F(phi_k)(i), either phi_0(i)
or a constraint with an edge attaining its composition, worth
f_i = g_i * phi_k(j_i) with g_i = delta'_s(x', y') / delta_s(x, y); and
for every constraint of i one edge attaining its composition.  A jump
needs F(phi_k) > 0 on S.

* Policy map.  M(psi)(i) is phi_0(i) or g_i * psi(j_i) on S, and 0 off S.
  Following each pair's j_i gives a functional graph on S; its tail t0
  (the steps before every path has met a cycle or a phi_0 term) is at most
  |S|, and its period P is the lcm of its cycle lengths.  So for t >= t0,
  psi_t = M^t(phi_k) has psi_{t+P}(i) = r_i * psi_t(i) with a fixed ratio
  r_i > 0 per pair.
* Saddle condition at psi.  Let psi > 0 on S and f_i = M(psi)(i).  If for
  every i in S (a) f_i <= phi_0(i), (b) every edge of the chosen
  constraint gives (delta'/delta) * psi(j) <= f_i, and (c) every
  constraint's recorded edge gives at least f_i, then F(psi) = M(psi): by
  (b) the chosen constraint's composition is delta * f_i, so as f_i <= 1
  its residuum is f_i; by (c) every other residuum is at least f_i; with
  (a) their meet with phi_0(i) is f_i.  Off S both are 0.
* Why the first window and the ratios suffice.  psi_t is positive on S, a
  product of positive factors and phi_k or phi_0.  The jump checks the
  saddle condition at t = 0 ... t0+P-1 by iterating M.  On each residue
  class t = t0 + c + P*m every term in (a)-(c), psi_t(j) and
  f_i = g_i * psi_t(j_i) alike, is A * rho^m with A > 0 and rho the ratio
  r_j of its pair, or 1 for phi_0(i).  A comparison A * rho^m <= B * sigma^m
  that holds at m = 0, in the window, holds for every m when rho <= sigma,
  and the jump checks that order for every comparison.  Then
  F^t(phi_k) = psi_t for every t by induction, and with T = cap - 1 - k and
  (m, c) = divmod(T - t0, P) the target psi_T is psi_{t0+c} * r^m.  The
  last sweep is an ordinary refine, so `converged` is decided as without
  the jump.  Before raising r to the m-th power the jump estimates psi_T's
  size; past MAX_JUMP_BITS it returns the estimate, for _greatest to raise
  NonConvergenceError, as no sweep up to the cap repeats (next paragraph).
* Why no sweep inside the jump converges.  If some r_i != 1 the M-orbit
  never repeats: psi_a = psi_{a+1} would keep it constant, making every
  r_i 1.  The sweeps stop only on a repeat, so they too reach the cap.  If
  every r_i is 1 the run keeps sweeping.
* A trap.  Checking F(psi) == M(psi) in the window, with only the chosen
  terms' ratios ordered, is not enough: a non-chosen constraint's maximum
  over two edges is no A * rho^m, and can dip below f_i later.  Fixing one
  edge per constraint makes each comparison one of two geometric
  sequences; that edge bounds the maximum from below, so (c) suffices.
* When it does not apply.  If a check fails, or the window would take more
  sweeps than were run or remain (t0 + P > min(k, T)), the run keeps
  sweeping.  So does a policy that holds up to the cap but not for ever;
  the plain sweeps give the same relation.  Attempts double their spacing,
  so refused ones cost a bounded share of the sweeps.  Equal terms at
  phi_k are told apart by their values at F(phi_k).
"""

from __future__ import annotations

import math

# The most bits a numerator or denominator of the jumped iterate may take, by
# the estimate turns * (largest bit length of a ratio's terms).  A run past it
# cannot stabilize within its cap, as its policy holds for ever, and writing its
# iterate out would outgrow memory or printing time: corpus pair r1's product
# simulation is estimated at 3.0 M bits at a cap of 10^6 (printed in under a
# second), 30 M at 10^7 and 3 * 10^12 (375 GB) at 10^12.  Such a run ends in
# NonConvergenceError instead.
MAX_JUMP_BITS = 1 << 24


def record(kernel, phi: list) -> list:
    """The choices that set F(phi): per pair i of phi's support, in order,
    (i, chosen, constraints).  constraints holds, per direction (p, q) and
    transition delta_s(p, v) = d in refine's order, (d, edges, w): edges
    lists (delta_s(q, u), j) for the transitions of q under s, where
    phi~(u, v) = phi[j], and edges[w] attains comp_s(q, v) (w is None when
    that is 0).  chosen indexes a constraint whose residuum is F(phi)(i), or
    is None when phi_0(i) is.  Among equal terms at phi, each choice takes
    the one that is still best at F(phi), then the first."""
    n, m, bidir, phi0 = len(kernel.a.states), len(kernel.ap.states), kernel.bidir, kernel.phi0
    size, block = n + m, (n + m) ** 2
    tnorm, residuum = kernel.codec.tnorm, kernel.codec.residuum
    support = [i for i, v in enumerate(phi) if v]
    comp, nxt = kernel.compose(phi, support), kernel.refine(phi)
    out = []
    for i in support:
        x, xp = divmod(i, m)
        chosen, constraints = None, []
        best = phi0[i] if nxt[i] == phi0[i] else None   # the chosen term at F(phi)
        for p, q in ((x, n + xp), (n + xp, x))[:1 + bidir]:
            for col, d in kernel.succ[p]:
                v, c = col % block, comp[q * size + col]
                s0 = col - v                # where symbol s's columns start
                edges = [(e, min(k - s0, v) * m + max(k - s0, v) - n)
                         for k, e in kernel.succ[q] if s0 <= k < s0 + block]
                w = max((k for k, (e, j) in enumerate(edges) if c and tnorm(e, phi[j]) == c),
                        key=lambda k: tnorm(edges[k][0], nxt[edges[k][1]]), default=None)
                if residuum(d, c) == nxt[i]:
                    later = residuum(d, c if w is None else tnorm(edges[w][0], nxt[edges[w][1]]))
                    if best is None or later < best:
                        chosen, best = len(constraints), later
                constraints.append((d, edges, w))
        out.append((i, chosen, constraints))
    return out


def jump(kernel, phi: list, done: int, steps: int):
    """The iterate `steps` sweeps after phi = phi_done, when the policy at phi
    provably sets every sweep from phi on, else None.  Product codec only,
    whose codes are the degrees themselves.  When that iterate would take
    more than MAX_JUMP_BITS, the estimate in bits instead."""
    policy = record(kernel, phi)
    if any(w is None for _i, _c, constraints in policy for _d, _e, w in constraints):
        return None                     # some F(phi)(i) is 0: the support shrinks
    pos = {i: b for b, (i, _c, _cons) in enumerate(policy)}
    rules = []                          # (source, factor or constant, phi_0, lower, upper)
    for i, chosen, constraints in policy:
        lower = [(edges[w][0] / d, pos[edges[w][1]])
                 for c, (d, edges, w) in enumerate(constraints) if c != chosen]
        if chosen is None:
            rules.append((None, kernel.phi0[i], kernel.phi0[i], lower, []))
            continue
        d, edges, w = constraints[chosen]
        upper = [(e / d, pos[j]) for k, (e, j) in enumerate(edges) if k != w and j in pos]
        rules.append((pos[edges[w][1]], edges[w][0] / d, kernel.phi0[i], lower, upper))

    def step(psi):
        """M(psi), or None if the saddle condition fails at psi."""
        out = []
        for src, g, top, lower, upper in rules:
            f = g if src is None else g * psi[src]
            if f > top or any(h * psi[b] < f for h, b in lower) \
                    or any(h * psi[b] > f for h, b in upper):
                return None
            out.append(f)
        return out

    # the tail t0 and period P of the functional graph that the sources make
    level, period = {}, 1
    for start in range(len(rules)):
        path, at, b = [], {}, start
        while b is not None and b not in level and b not in at:
            at[b] = len(path)
            path.append(b)
            b = rules[b][0]
        if b in at:
            period = math.lcm(period, len(path) - at[b])
            level.update(dict.fromkeys(path[at[b]:], 0))
            del path[at[b]:]
        depth = level.get(b, 0)
        for b in reversed(path):
            depth += 1
            level[b] = depth
    tail = max(level.values(), default=0)
    if tail + period > min(done, steps):
        return None
    psi, window = [phi[i] for i, _c, _cons in policy], []
    for t in range(tail + period):
        if t >= tail:
            window.append(psi)
        psi = step(psi)
        if psi is None:
            return None
    ratio = [q / p for p, q in zip(window[0], psi)]
    if all(r == 1 for r in ratio):
        return None                     # periodic: the plain sweeps stabilize
    # each comparison's sides go as the ratios of their pairs, or 1 for a constant
    for src, _g, _top, lower, upper in rules:
        rf = 1 if src is None else ratio[src]
        if rf > 1 or any(ratio[b] < rf for _h, b in lower) \
                or any(ratio[b] > rf for _h, b in upper):
            return None
    turns, phase = divmod(steps - tail, period)
    bits = turns * max(max(r.numerator.bit_length(), r.denominator.bit_length()) for r in ratio)
    if bits > MAX_JUMP_BITS:
        return bits
    out = [kernel.codec.zero] * len(phi)
    for (i, _c, _cons), p, r in zip(policy, window[phase], ratio):
        out[i] = p * r ** turns
    return out
