"""The choices that set one refinement sweep, and the product jump they certify.

`record` reads the policy at an iterate off a `simrel._Kernel`'s own
composition and meet, in every lattice.  `jump` is the product fixpoint's
certified jump to its cap; the simrel docstring states it with its proof.
Only product fixpoints that reach a jump attempt import this module, so no
other command compiles or loads it.
"""

from __future__ import annotations

import math


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
    whose codes are the degrees themselves."""
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
    psi = [p * r ** turns for p, r in zip(base, ratio)]
    for _ in range(steps - tail - turns * period):
        psi = step(psi)
        if psi is None:
            return None
    out = [kernel.codec.zero] * len(phi)
    for (i, _c, _cons), v in zip(policy, psi):
        out[i] = v
    return out
