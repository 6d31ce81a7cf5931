"""Regenerate bench/catalog.json: the vetted pair specs every workload draws from.

    PYTHONPATH=src python3 bench/make_catalog.py

For every class of `fixpoint` and `explore` it walks generator seeds in
order, builds the pair, times the in-process call (median of three; one for
slow jobs) and keeps the spec when the class's property holds and the time
falls in the class's band.  The bands keep every decided job far from its time limit; `tighten` then
keeps the specs nearest their group's median time, so that the per-seed job
lists cost about the same.  Each kept spec stores its expected
output, cross-checked here against `fuzzybisim.oracle`:

* converged greatest relations must equal `oracle.shrink_to_*` from the top
  relation (all three lattices) and pass the brute-force condition check;
* `hm-degree` results must lie pointwise above the oracle's greatest
  relation, the bound the bounded infimum always respects;
* `verify-preservation` results are re-derived by `reference.py`'s scalar
  word enumeration.

The `verify` section is not timed: for each lattice it keeps the first
PER_CLASS generator seeds whose greatest simulation and bisimulation both
converge, with those relations (checked like the converged fixpoints
above), so that a benchmark run's set-up only writes files and computes
nothing with the code under test.

Non-converging product pairs are rare (about one generator seed in sixty
is non-convergent, in its time band and printable), so that class holds
fewer specs.  Takes tens of minutes; it is not part of a benchmark run.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from fuzzybisim import (  # noqa: E402
    FuzzyRelation,
    greatest_fuzzy_bisimulation,
    greatest_fuzzy_simulation,
    hm_degree_bounded,
    preservation_to_obj,
    relation_json_array,
    report_to_obj,
    verify_preservation,
)
from fuzzybisim.lattice import by_name  # noqa: E402
from fuzzybisim.oracle import shrink_to_bisimulation, shrink_to_simulation  # noqa: E402

import reference  # noqa: E402
from workloads import CATALOG_PATH, EXPLORE_QUOTA, FIXPOINT_QUOTA, LIMIT_S, VERIFY_PAIRS, \
    build_pair  # noqa: E402

# specs kept per class before `tighten` trims each class to its quota plus two
PER_CLASS = 8


class _Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Timeout()


def timed(fn, repeats: int, limit: float):
    """(result, median seconds), or (None, limit) when a call overruns."""
    times = []
    result = None
    for _ in range(repeats):
        signal.setitimer(signal.ITIMER_REAL, limit)
        t0 = time.perf_counter()
        try:
            result = fn()
        except _Timeout:
            return None, limit
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


def top_relation(a, b) -> FuzzyRelation:
    return FuzzyRelation({(x, y): 1 for x in a.states for y in b.states})


def nontrivial(rel: FuzzyRelation) -> bool:
    support = rel.support()
    return bool(support) and any(x != y for x, y in support)


def cross_check(spec, lat, a, b, rel: FuzzyRelation, kind: str) -> None:
    """A converged greatest relation must equal the oracle's shrink from the
    top relation and pass its brute-force condition check."""
    shrink = shrink_to_simulation if kind == "sim" else shrink_to_bisimulation
    if shrink(lat, a, b, top_relation(a, b)) != rel:
        raise SystemExit(f"greatest {kind} disagrees with the oracle on {spec}")
    if not reference.relation_is_sound(lat, a, b, rel, kind):
        raise SystemExit(f"greatest {kind} fails the brute-force check on {spec}")


def greatest_entry(spec, want_converged: bool, band):
    a, b = build_pair(spec)
    lat = by_name(spec["lattice"])
    compute = greatest_fuzzy_simulation if spec["kind"] == "sim" else greatest_fuzzy_bisimulation
    repeats = 3 if band[1] < 1.0 else 1
    report, secs = timed(lambda: compute(lat, a, b), repeats, 3 * band[1])
    if report is None or report.converged != want_converged or not band[0] <= secs <= band[1]:
        return None
    if not want_converged:
        try:
            json.dumps(report_to_obj(report))
        except ValueError:
            # degrees past Python's 4300-digit int-to-str limit: the CLI dies
            # with a traceback instead of exit 3 (a defect of its own)
            return None
        return {"spec": spec, "seed_s": round(secs, 4),
                "expect": {"converged": False, "iterations": report.iterations}}
    if spec["lattice"] != "product" and not nontrivial(report.relation):
        return None
    cross_check(spec, lat, a, b, report.relation, spec["kind"])
    return {"spec": spec, "seed_s": round(secs, 4),
            "expect": {"converged": True,
                       "relation": reference.relation_digest(relation_json_array(report.relation)),
                       "support": len(report.relation)}}


def hm_entry(spec, band, timeout_class: bool):
    a, b = build_pair(spec)
    lat = by_name(spec["lattice"])
    limit = 60.0 if timeout_class else band[1] * 4
    rel, secs = timed(lambda: hm_degree_bounded(lat, a, b, spec["depth"], spec["kind"]),
                      1 if timeout_class else 3, limit)
    if not band[0] <= secs <= band[1]:
        return None
    entry = {"spec": spec, "seed_s": round(secs, 4), "expect": None}
    if rel is not None:
        shrink = shrink_to_simulation if spec["kind"] == "sim" else shrink_to_bisimulation
        lower = shrink(lat, a, b, top_relation(a, b))
        if any(rel.degree(x, y) < d for (x, y), d in lower.items()):
            raise SystemExit(f"hm-degree below the greatest relation on {spec}")
        entry["expect"] = {"relation": reference.relation_digest(relation_json_array(rel))}
    return entry


def preservation_relation(spec: dict, a, b) -> FuzzyRelation:
    """The relation verify-preservation is asked about: the greatest one of the
    kind, or its 500th iterate.  Stored in the catalog, so runs need not compute it."""
    compute = greatest_fuzzy_simulation if spec["kind"] == "sim" else greatest_fuzzy_bisimulation
    return compute(by_name(spec["lattice"]), a, b, max_iters=500).relation


def pres_entry(spec, band):
    a, b = build_pair(spec)
    lat = by_name(spec["lattice"])
    phi = preservation_relation(spec, a, b)
    report, secs = timed(lambda: verify_preservation(lat, a, b, phi, spec["k"], kind=spec["kind"]),
                         3, band[1] * 4)
    if report is None or not band[0] <= secs <= band[1] or not phi:
        return None
    obj = preservation_to_obj(report)
    if reference.preservation(spec["lattice"], a, b, phi, spec["k"], spec["kind"]) != obj:
        raise SystemExit(f"verify-preservation disagrees with the scalar reference on {spec}")
    return {"spec": spec, "seed_s": round(secs, 4), "relation": relation_json_array(phi),
            "expect": {"output": reference.relation_digest(obj)}}


def verify_entry(spec):
    """The greatest simulation and bisimulation of a verify pair, stored as the
    passing relations its check jobs ask about; None unless both converge and
    some pair of states stays below 1 (a failing relation raises one)."""
    a, b = build_pair(spec)
    lat = by_name(spec["lattice"])
    relations = {}
    for kind, compute in (("sim", greatest_fuzzy_simulation),
                          ("bisim", greatest_fuzzy_bisimulation)):
        report = compute(lat, a, b, max_iters=50)
        rel = report.relation
        if not report.converged or all(rel.degree(x, y) == 1 for x in a.states
                                       for y in b.states):
            return None
        cross_check(spec, lat, a, b, rel, kind)
        relations[kind] = relation_json_array(rel)
    return {"spec": spec, "relations": relations}


GROUPS = {"godel-sim": "godel", "godel-bisim": "godel",
          "luk-self": "luk", "luk-perturbed": "luk", "luk-random": "luk"}


def tighten(section: dict, quotas: dict) -> None:
    """Keep in each class the entries whose time is closest to the median of
    its group, so that every seed's picks cost about the same.

    The classes in one GROUPS entry share one median: their jobs then sit
    together in the latency order, which keeps the fixpoint median and tail
    samples among jobs of one cost.  Any other class is its own group.  A class keeps
    two spares beyond its per-pass quota, so seeds still differ in what they
    run.  Timed-out classes keep everything."""
    groups: dict = {}
    for cls, entries in section.items():
        groups.setdefault(GROUPS.get(cls, cls), []).extend(e["seed_s"] for e in entries)
    for cls, entries in section.items():
        if cls == "hm-timeout":
            continue
        mid = statistics.median(groups[GROUPS.get(cls, cls)])
        section[cls] = sorted(entries, key=lambda e: abs(e["seed_s"] - mid))[:quotas[cls] + 2]


def search(name, make_spec, accept, per_class, max_tries=400):
    out = []
    for gen in range(max_tries):
        spec = make_spec(gen)
        entry = accept(spec)
        if entry is not None:
            out.append(entry)
            print(f"{name}: kept gen={gen} {entry.get('seed_s', '')}", flush=True)
            if len(out) == per_class:
                return out
    raise SystemExit(f"class {name}: only {len(out)} specs within {max_tries} tries")


def pair_spec(lattice, kind, n, density, pair, gen, pool="tenths", **extra):
    spec = {"lattice": lattice, "kind": kind, "n": n, "density": density, "pair": pair,
            "gen": gen, "pool": pool}
    spec.update(extra)
    return spec


def fixpoint_section() -> dict:
    fix = {}
    kinds = ("sim", "bisim")
    fix["godel-sim"] = search("godel-sim", lambda g: pair_spec(
        "godel", "sim", 40, 0.2, "random", 10_000 + g),
        lambda s: greatest_entry(s, True, (0.15, 0.5)), PER_CLASS)
    fix["godel-bisim"] = search("godel-bisim", lambda g: pair_spec(
        "godel", "bisim", 30, 0.5, "random", 20_000 + g),
        lambda s: greatest_entry(s, True, (0.15, 0.5)), PER_CLASS)
    for pair in ("self", "perturbed", "random"):
        fix[f"luk-{pair}"] = search(f"luk-{pair}", lambda g, pair=pair: pair_spec(
            "lukasiewicz", kinds[g % 2], 24, 0.2, pair, 30_000 + g),
            lambda s: greatest_entry(s, True, (0.4, 0.9)), PER_CLASS)
    fix["product-self"] = search("product-self", lambda g: pair_spec(
        "product", kinds[g % 2], 30, 0.2, "self", 40_000 + g),
        lambda s: greatest_entry(s, True, (0.08, 0.3)), PER_CLASS)
    fix["product-perturbed-nonconv"] = search(
        "product-perturbed-nonconv", lambda g: pair_spec(
            "product", kinds[g % 2], 3, 0.4, "perturbed", 50_000 + g),
        lambda s: greatest_entry(s, False, (1.4, 1.8)), 5, max_tries=3000)
    return fix


def explore_section() -> dict:
    exp = {}
    lattices = ("godel", "lukasiewicz")

    def hm_spec(g, depth, kind, n=3):
        return pair_spec(lattices[g % 2], kind, n, 0.4, "random", g, pool="halves",
                         cmd="hm-degree", depth=depth)

    exp["hm-mid"] = search("hm-mid", lambda g: hm_spec(
        70_000 + g, 2 + g // 2 % 2, ("sim", "bisim")[g // 4 % 2], n=3 + g // 8 % 2),
        lambda s: hm_entry(s, (0.15, 0.45), False), PER_CLASS)
    exp["pres"] = search("pres", lambda g: pair_spec(
        ("godel", "lukasiewicz", "product")[g % 3], ("sim", "bisim")[g // 3 % 2],
        6, 0.3, ("perturbed", "self")[g // 6 % 2], 80_000 + g, cmd="verify-preservation",
        k=8), lambda s: pres_entry(s, (0.25, 0.75)), PER_CLASS)
    exp["hm-timeout"] = search("hm-timeout", lambda g: hm_spec(90_000 + g, 2, "bisim", n=4),
                               lambda s: hm_entry(s, (3 * LIMIT_S["explore"] + 1.0, 1e9), True),
                               PER_CLASS // 2, max_tries=20)
    return exp


def verify_section() -> dict:
    return {lattice: search(f"verify-{lattice}", lambda g, lattice=lattice, n=n, pair=pair:
                            pair_spec(lattice, "sim", n, 0.2, pair, 60_000 + g), verify_entry,
                            PER_CLASS)
            for lattice, n, pair in VERIFY_PAIRS}


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    catalog = {"fixpoint": fixpoint_section(), "explore": explore_section(),
               "verify": verify_section()}
    quotas = dict(FIXPOINT_QUOTA + EXPLORE_QUOTA)
    tighten(catalog["fixpoint"], quotas)
    tighten(catalog["explore"], quotas)
    CATALOG_PATH.write_text(json.dumps(catalog, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CATALOG_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
