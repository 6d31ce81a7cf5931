"""Reference answers for every benchmark job, computed outside the code under test.

Scalar lattice arithmetic, language degrees, norms, formula values and the
word-enumeration preservation bounds are recomputed here from the input JSON
with plain loops.  Relation conditions go through `fuzzybisim.oracle`, the
package's deliberately naive second path.  Answers with no independent
reference (`hm-degree`, and the maximality of large greatest relations) are
compared against the expected outputs stored in `catalog.json`.

`check_job` returns a list of problems; an empty list means the output is
right.  Nothing here is timed.
"""

from __future__ import annotations

import functools
import hashlib
import json
from fractions import Fraction
from pathlib import Path

from fuzzybisim import FuzzyRelation, automaton_from_obj, automaton_to_obj
from fuzzybisim.lattice import by_name
from fuzzybisim.oracle import pointwise_condition_report, shrink_to_bisimulation, \
    shrink_to_simulation

ZERO = Fraction(0)
ONE = Fraction(1)

# sizes up to which the oracle's O(n^4)-per-sweep shrink runs during a check
SHRINK_MAX_STATES = 10


def relation_digest(obj) -> str:
    """Stable digest of a parsed JSON output, as stored in the catalog."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------- scalar lattice

def tnorm(kind: str, a: Fraction, b: Fraction) -> Fraction:
    if kind == "godel":
        return min(a, b)
    if kind == "lukasiewicz":
        return max(ZERO, a + b - 1)
    return a * b


def residuum(kind: str, a: Fraction, b: Fraction) -> Fraction:
    if a <= b:
        return ONE
    if kind == "godel":
        return b
    if kind == "lukasiewicz":
        return 1 - a + b
    return b / a


def biresiduum(kind: str, a: Fraction, b: Fraction) -> Fraction:
    return min(residuum(kind, a, b), residuum(kind, b, a))


# ---------------------------------------------------------------- raw automata

class Raw:
    """An automaton read straight from its JSON file, as plain dicts."""

    def __init__(self, obj: dict):
        self.obj = obj
        self.states = list(obj["states"])
        self.symbols = list(obj["alphabet"])
        self.sigma = {x: Fraction(d) for x, d in obj["initial"].items()}
        self.tau = {x: Fraction(d) for x, d in obj["terminal"].items()}
        self.delta = {(t["from"], t["symbol"], t["to"]): Fraction(t["degree"])
                      for t in obj["transitions"]}


def load_raw(root: Path, path: str) -> Raw:
    return Raw(json.loads((root / path).read_text(encoding="utf-8")))


def load_rel(root: Path, path: str) -> dict:
    return parse_rel(json.loads((root / path).read_text(encoding="utf-8")))


def parse_rel(items) -> dict:
    return {(e["from"], e["to"]): Fraction(e["degree"]) for e in items}


def lang(kind: str, aut: Raw, word) -> Fraction:
    front = dict(aut.sigma)
    for s in word:
        nxt = {}
        for (x, s0, y), d in aut.delta.items():
            if s0 == s:
                v = tnorm(kind, front.get(x, ZERO), d)
                if v > nxt.get(y, ZERO):
                    nxt[y] = v
        front = nxt
    return max((tnorm(kind, d, aut.tau.get(x, ZERO)) for x, d in front.items()), default=ZERO)


def norm(kind: str, a: Raw, b: Raw, phi: dict, bidir: bool) -> Fraction:
    """S(sigma, sigma' o phi^-1), met with S(sigma', sigma o phi) for bisimulations."""
    out = ONE
    for x, d in a.sigma.items():
        cover = max((tnorm(kind, b.sigma.get(y, ZERO), phi.get((x, y), ZERO))
                     for y in b.states), default=ZERO)
        out = min(out, residuum(kind, d, cover))
    if bidir:
        for y, d in b.sigma.items():
            cover = max((tnorm(kind, a.sigma.get(x, ZERO), phi.get((x, y), ZERO))
                         for x in a.states), default=ZERO)
            out = min(out, residuum(kind, d, cover))
    return out


def eval_formula(kind: str, aut: Raw, f) -> dict:
    """Formula value on every state; f is the nested tuple from workloads.random_formula."""
    if f[0] == "T":
        return {x: aut.tau.get(x, ZERO) for x in aut.states}
    if f[0] == "step":
        sub = eval_formula(kind, aut, f[2])
        out = {x: ZERO for x in aut.states}
        for (x, s, y), d in aut.delta.items():
            if s == f[1]:
                out[x] = max(out[x], tnorm(kind, d, sub[y]))
        return out
    if f[0] == "&":
        left, right = eval_formula(kind, aut, f[1]), eval_formula(kind, aut, f[2])
        return {x: min(left[x], right[x]) for x in aut.states}
    c = Fraction(f[1])
    sub = eval_formula(kind, aut, f[2])
    op = residuum if f[0] == "->" else biresiduum
    return {x: op(kind, c, sub[x]) for x in aut.states}


def _live_length(aut: Raw):
    """Longest path from the initial to the terminal support, or None on a cycle."""
    succ = {x: set() for x in aut.states}
    for (x, _s, y), d in aut.delta.items():
        if d:
            succ[x].add(y)
    indeg = {x: 0 for x in aut.states}
    for x in aut.states:
        for y in succ[x]:
            indeg[y] += 1
    order = [x for x in aut.states if indeg[x] == 0]
    for x in order:
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                order.append(y)
    if len(order) != len(aut.states):
        return None
    dist = {x: (0 if aut.sigma.get(x, ZERO) > 0 else -1) for x in aut.states}
    for x in order:
        if dist[x] >= 0:
            for y in succ[x]:
                dist[y] = max(dist[y], dist[x] + 1)
    return max([0] + [dist[y] for y, d in aut.tau.items() if d > 0])


def preservation_raw(kind: str, a: Raw, b: Raw, phi: dict, k: int, bidir: bool) -> dict:
    """verify-preservation's report, by enumerating every word up to length k."""
    op = biresiduum if bidir else residuum
    symbols = sorted(set(a.symbols) | set(b.symbols))

    def step(aut, s, vec):
        out = {}
        for (x, s0, y), d in aut.delta.items():
            if s0 == s:
                v = tnorm(kind, d, vec.get(y, ZERO))
                if v > out.get(x, ZERO):
                    out[x] = v
        return out

    level = [(dict(a.tau), dict(b.tau))]
    vectors = list(level)
    for _ in range(k):
        level = [(step(a, s, va), step(b, s, vb)) for va, vb in level for s in symbols]
        vectors.extend(level)
    pointwise_ok = all(
        d <= min(op(kind, va.get(x, ZERO), vb.get(y, ZERO)) for va, vb in vectors)
        for (x, y), d in phi.items())
    global_degree = ONE
    for va, vb in vectors:
        la = max((tnorm(kind, d, va.get(x, ZERO)) for x, d in a.sigma.items()), default=ZERO)
        lb = max((tnorm(kind, d, vb.get(x, ZERO)) for x, d in b.sigma.items()), default=ZERO)
        global_degree = min(global_degree, op(kind, la, lb))
    live = (_live_length(a), _live_length(b))
    exact = all(n is not None and n <= k for n in live)
    return {"pointwise_ok": pointwise_ok,
            "global_ok": norm(kind, a, b, phi, bidir) <= global_degree,
            "exact": exact, "global_degree": str(global_degree)}


def preservation(lattice: str, a, b, phi: FuzzyRelation, k: int, kind: str) -> dict:
    """preservation_raw for in-memory automata and relation (used by make_catalog.py)."""
    return preservation_raw(lattice, Raw(automaton_to_obj(a)), Raw(automaton_to_obj(b)),
                            dict(phi.items()), k, kind == "bisim")


# ---------------------------------------------------------------- relation conditions

_SIM = ("trans-fwd", "terminal-fwd")
_BISIM = _SIM + ("trans-bwd", "terminal-bwd")


@functools.lru_cache(maxsize=64)
def condition_report(root: Path, lattice: str, fa: str, fb: str, frel: str) -> dict:
    """The oracle's violated coordinates for a relation file; shared by the
    check jobs that ask about the same relation in different modes."""
    a, b = load_raw(root, fa), load_raw(root, fb)
    return pointwise_condition_report(by_name(lattice), automaton_from_obj(a.obj),
                                      automaton_from_obj(b.obj),
                                      FuzzyRelation(load_rel(root, frel)))


def relation_is_sound(lat, a, b, rel: FuzzyRelation, kind: str) -> bool:
    report = pointwise_condition_report(lat, a, b, rel)
    return not any(c in report for c in (_SIM if kind == "sim" else _BISIM))


def check_verdict(lattice: str, report: dict, kind: str, mode: str, lam=None) -> bool:
    """The verdict check-sim/check-bisim must print, from the oracle's pointwise report."""
    conds = list(_SIM if kind == "sim" else _BISIM)
    if mode in ("lambda", "crisp"):
        conds.append("initial-fwd")
        if kind == "bisim":
            conds.append("initial-bwd")
    if mode == "lambda":
        lam = Fraction(lam)
        return all(lam <= residuum(lattice, lhs, rhs)
                   for c in conds for _coord, lhs, rhs in report.get(c, ()))
    return not any(c in report for c in conds)


def greatest_by_oracle(lattice: str, a: Raw, b: Raw, kind: str) -> dict:
    lat = by_name(lattice)
    fa, fb = automaton_from_obj(a.obj), automaton_from_obj(b.obj)
    top = FuzzyRelation({(x, y): 1 for x in a.states for y in b.states})
    shrink = shrink_to_simulation if kind == "sim" else shrink_to_bisimulation
    return dict(shrink(lat, fa, fb, top).items())


# ---------------------------------------------------------------- per-job check

def check_job(root: Path, job: dict, code: int, stdout: str) -> list:
    """Problems with one finished job's exit code and output; [] when right."""
    chk = job["check"]
    argv = job["argv"]
    lattice = argv[argv.index("--lattice") + 1]
    try:
        out = json.loads(stdout)
    except ValueError:
        return [f"exit {code}, output is not JSON: {stdout[:80]!r}"]
    a = load_raw(root, argv[1])
    kind_t = chk["type"]

    if kind_t == "greatest":
        b = load_raw(root, argv[2])
        kind = chk["spec"]["kind"]
        expect = chk.get("expect") or {}
        if code not in (0, 3) or out.get("converged") != (code == 0):
            return [f"greatest: exit {code} with converged={out.get('converged')!r}"]
        if not out["converged"]:
            if expect.get("converged"):
                return ["greatest: did not converge, the catalog says it does"]
            return []
        rel = parse_rel(out["relation"])
        problems = []
        if not relation_is_sound(by_name(lattice), automaton_from_obj(a.obj),
                                 automaton_from_obj(b.obj), FuzzyRelation(rel), kind):
            problems.append("greatest: relation violates the oracle's conditions")
        if Fraction(out["norm"]) != norm(lattice, a, b, rel, kind == "bisim"):
            problems.append("greatest: norm differs from the scalar recomputation")
        if "relation" in expect and relation_digest(out["relation"]) != expect["relation"]:
            problems.append("greatest: relation differs from the catalog's oracle-checked one")
        if len(a.states) <= SHRINK_MAX_STATES and rel != greatest_by_oracle(lattice, a, b, kind):
            problems.append("greatest: relation differs from oracle shrink")
        if chk.get("nontrivial") and not any(x != y for x, y in rel):
            problems.append("greatest: result is empty or only the diagonal")
        return problems

    if kind_t == "check":
        report = condition_report(root, lattice, argv[1], argv[2], chk["relation"])
        want = check_verdict(lattice, report, chk["kind"], chk["mode"], chk.get("lambda"))
        if out.get("ok") is not want or code != (0 if want else 1):
            return [f"check: got ok={out.get('ok')!r} exit {code}, reference says {want}"]
        return []

    if kind_t == "norm":
        b = load_raw(root, argv[2])
        want = norm(lattice, a, b, load_rel(root, chk["relation"]), chk["kind"] == "bisim")
        return [] if code == 0 and out == str(want) else [f"norm: got {out!r}, want {want}"]

    if kind_t == "lang":
        want = lang(lattice, a, chk["word"].split(","))
        return [] if code == 0 and out == str(want) else [f"lang: got {out!r}, want {want}"]

    if kind_t == "eval":
        want = {x: str(v) for x, v in eval_formula(lattice, a, chk["formula"]).items()}
        return [] if code == 0 and out == want else ["eval-formula: values differ"]

    if kind_t == "max-lambda":
        b = load_raw(root, argv[2])
        kind = chk["kind"]
        want = norm(lattice, a, b, greatest_by_oracle(lattice, a, b, kind), kind == "bisim")
        return [] if code == 0 and out == str(want) else [f"max-lambda: got {out!r}, want {want}"]

    if kind_t == "hm-degree":
        b = load_raw(root, argv[2])
        problems = [] if code == 0 else [f"hm-degree: exit {code}"]
        expect = chk.get("expect")
        if expect and relation_digest(out) != expect["relation"]:
            problems.append("hm-degree: result differs from the stored expected output")
        got = parse_rel(out)
        lower = greatest_by_oracle(lattice, a, b, chk["spec"]["kind"])
        if any(got.get(key, ZERO) < d for key, d in lower.items()):
            problems.append("hm-degree: below the oracle's greatest relation")
        return problems

    if kind_t == "verify-preservation":
        b = load_raw(root, argv[2])
        phi = load_rel(root, argv[argv.index("--relation") + 1])
        spec = chk["spec"]
        want = preservation_raw(lattice, a, b, phi, spec["k"], spec["kind"] == "bisim")
        problems = []
        if out != want:
            problems.append("verify-preservation: differs from the scalar word enumeration")
        if code != (0 if out.get("pointwise_ok") and out.get("global_ok") else 1):
            problems.append(f"verify-preservation: exit {code} does not match the report")
        expect = chk.get("expect")
        if expect and relation_digest(out) != expect["output"]:
            problems.append("verify-preservation: differs from the stored expected output")
        return problems

    return [f"no reference for job type {kind_t!r}"]


def corrupt(stdout: str) -> str:
    """A deliberately wrong variant of a JSON output, for the self-test."""
    out = json.loads(stdout)
    if isinstance(out, str):
        out = "1" if out != "1" else "0"
    elif isinstance(out, list):
        out = out[1:] if out else [{"from": "q0", "to": "q0", "degree": "1"}]
    elif "ok" in out:
        out["ok"] = not out["ok"]
    elif "relation" in out:
        out["relation"] = out["relation"][1:] or [{"from": "q0", "to": "q1", "degree": "1"}]
    elif "global_degree" in out:
        out["pointwise_ok"] = not out["pointwise_ok"]
    else:
        key = sorted(out)[0]
        out[key] = "1" if out[key] != "1" else "0"
    return json.dumps(out, indent=2)

