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
* Why endpoint checks suffice.  psi_t is positive on S, a product of
  positive factors and phi_k or phi_0.  On each residue class
  t = t0 + c + P*m every term in (a)-(c), psi_t(j) and f_i = psi_{t+1}(i)
  alike, is A * rho^m with A, rho > 0, so each comparison is monotone in
  m.  Holding at the class's least and greatest m, it holds between.  So
  with T = cap - 1 - k the jump checks t = 0 ... t0+P-1 by iterating M,
  and the last t of each class below T by iterating M again, at most 2P
  steps, from psi_{t0+mP} computed directly as psi_{t0} * r^m.  Then
  F^t(phi_k) = psi_t up to t = T by induction, and the last sweep is an
  ordinary refine, so `converged` is decided as without the jump.
* Why no sweep inside the jump converges.  If some r_i != 1 the M-orbit
  never repeats: psi_a = psi_{a+1} would keep it constant, making every
  r_i 1.  The sweeps stop only on a repeat, so they too reach the cap.  If
  every r_i is 1 the run keeps sweeping.
* A trap.  Checking F(psi) == M(psi) at the endpoints is not enough: a
  non-chosen constraint's maximum over two edges is no A * rho^m and can
  dip below f_i between them.  Fixing one edge per constraint is what
  makes each comparison monotone; it bounds that maximum from below, so
  (c) still suffices.
* When it does not apply.  If a check fails, or checking would cost more
  sweeps than were run or remain (t0 + 3P > min(k, T)), the run keeps
  sweeping.  Attempts double their spacing, so refused ones cost a bounded
  share of the sweeps.  Equal terms at phi_k are told apart by their
  values at F(phi_k).
* When the target is too large.  Before raising the ratios to the m-th
  power the jump estimates the target's size.  Past MAX_JUMP_BITS it
  checks the last window without computing it: each comparison in
  (a)-(c), A * rho^m against B * sigma^m, held at m = 0 in the first
  window, so it holds for every m when rho and sigma order the same way
  (rho <= sigma for a <=).  If every comparison passes, F^t(phi_k) = psi_t
  for every t, no sweep up to the cap repeats, and jump returns the
  estimate for _greatest to raise NonConvergenceError.  Otherwise the run
  keeps sweeping.
"""

from __future__ import annotations

import math

# The most bits a numerator or denominator of the jumped iterate may take, by
# the estimate turns * (largest bit length of a ratio's terms).  A run past it
# whose policy holds up to its cap cannot stabilize within it, and writing its
# iterate out would outgrow memory or printing time: corpus pair r1's product
# simulation is estimated at 3.0 M bits at a cap of 10^6 (printed in 17 s),
# 30 M at 10^7 and 3 * 10^12 (375 GB) at 10^12.  Such a run ends in
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
    provably sets every sweep in between, else None.  Product codec only,
    whose codes are the degrees themselves.  When that iterate would take
    more than MAX_JUMP_BITS, the estimate in bits instead, if the policy
    provably holds for ever, else None."""
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
    if tail + 3 * period > min(done, steps):
        return None
    psi = [phi[i] for i, _c, _cons in policy]
    for t in range(tail + period):
        if t == tail:
            base = psi
        psi = step(psi)
        if psi is None:
            return None
    ratio = [q / p for p, q in zip(base, psi)]
    if all(r == 1 for r in ratio):
        return None                     # periodic: the plain sweeps stabilize
    # from psi_{t0 + turns * P} on, the window holds every class's last t before steps
    turns = (steps - period - tail) // period
    bits = turns * max(max(r.numerator.bit_length(), r.denominator.bit_length()) for r in ratio)
    if bits > MAX_JUMP_BITS:
        # each comparison's sides go as the ratios of their pairs, or 1 for a constant
        for src, _g, _top, lower, upper in rules:
            rf = 1 if src is None else ratio[src]
            if rf > 1 or any(ratio[b] < rf for _h, b in lower) \
                    or any(ratio[b] > rf for _h, b in upper):
                return None
        return bits
    psi = [p * r ** turns for p, r in zip(base, ratio)]
    for _ in range(steps - tail - turns * period):
        psi = step(psi)
        if psi is None:
            return None
    out = [kernel.codec.zero] * len(phi)
    for (i, _c, _cons), v in zip(policy, psi):
        out[i] = v
    return out
