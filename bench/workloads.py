"""Seeded inputs and job lists for the three benchmark workloads.

A *pair spec* is a small dict that fully determines two automata:

    {"lattice": "godel", "kind": "sim", "n": 30, "density": 0.2,
     "pair": "random", "gen": 17, "pool": "tenths"}

`pair` is "self" (A against a renamed copy of itself), "perturbed" (A
against A with a few transition degrees nudged by `perturb`) or "random"
(two independent `oracle.random_automaton` draws).  Every workload picks
its specs from `catalog.json`, which `make_catalog.py` fills with specs
whose behaviour (nontrivial answer, convergence, run time band) was
measured once, together with the relations the jobs are asked about; the
run's `--seed` chooses which of them run.  Building a job list therefore
only generates automata and writes files.

A job is a dict with the CLI argv (after `fuzzybisim`; input files are
paths relative to the checkout root), its time limit in seconds, what the
reference checker needs (`check`) and the per-job record fields (`props`).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from fuzzybisim import FuzzyAutomaton, FuzzyRelation, serialize_automaton, serialize_relation
from fuzzybisim.oracle import random_automaton

HERE = Path(__file__).resolve().parent
CATALOG_PATH = HERE / "catalog.json"

SYMBOLS = ("a", "b")
POOLS = {
    "tenths": tuple(f"{i}/10" for i in range(1, 11)),
    "halves": ("1/2", "1"),
}

# Per-job time limits (seconds).  Every job in the catalog was measured far
# from its limit: decided jobs below a third of it, timed-out ones above
# three times it, so `decided_ratio` repeats exactly from run to run.
LIMIT_S = {"fixpoint": 30.0, "verify": 10.0, "explore": 3.0}

# How many specs of each catalog class one pass runs, in run order.
# fixpoint: the Łukasiewicz jobs are half the samples and sit between the
# cheaper Gödel and product-self jobs and the non-convergent one, so the
# median and the tail both fall inside that group rather than between groups
FIXPOINT_QUOTA = (("godel-sim", 1), ("godel-bisim", 1), ("luk-self", 1),
                  ("luk-perturbed", 2), ("luk-random", 1), ("product-self", 1),
                  ("product-perturbed-nonconv", 1))
# explore: the pres jobs are two thirds of the samples, so the median and the
# tail both fall inside that group rather than on a boundary between groups;
# a seed leaves out only the class's spare specs, so job lists cost about the same
EXPLORE_QUOTA = (("hm-mid", 2), ("pres", 6), ("hm-timeout", 1))
# verify: (lattice, states, pair type) of the one pair per lattice a pass asks
# about; the sizes keep the stored relations' fixpoints short
VERIFY_PAIRS = (("godel", 24, "perturbed"), ("lukasiewicz", 12, "perturbed"),
                ("product", 12, "self"))


# ---------------------------------------------------------------- automata

def perturb(aut: FuzzyAutomaton, gen: int, pool: tuple, count: int = 3) -> FuzzyAutomaton:
    """A copy of aut named A2 with `count` transition degrees moved one pool step."""
    rng = random.Random(gen * 7919 + 11)
    values = sorted(Fraction(v) for v in pool)
    delta = {key: d for key, d in aut.transitions()}
    keys = sorted(delta)
    for key in rng.sample(keys, min(count, len(keys))):
        i = values.index(delta[key]) if delta[key] in values else len(values) - 1
        step = rng.choice((-1, 1))
        j = min(max(i + step, 0), len(values) - 1)
        if j == i:
            j = i - step if 0 <= i - step < len(values) else i
        delta[key] = values[j]
    return FuzzyAutomaton("A2", aut.states, aut.alphabet, delta, aut.sigma, aut.tau)


def build_pair(spec: dict) -> tuple:
    pool = POOLS[spec["pool"]]
    a = random_automaton("A", spec["n"], SYMBOLS, pool, spec["gen"], density=spec["density"])
    if spec["pair"] == "self":
        b = FuzzyAutomaton("A2", a.states, a.alphabet, dict(a.transitions()), a.sigma, a.tau)
    elif spec["pair"] == "perturbed":
        b = perturb(a, spec["gen"], pool)
    elif spec["pair"] == "random":
        b = random_automaton("B", spec["n"], SYMBOLS, pool, spec["gen"] + 1_000_003,
                             density=spec["density"])
    else:
        raise ValueError(f"unknown pair type {spec['pair']!r}")
    return a, b


def spec_props(spec: dict) -> dict:
    return {"lattice": spec["lattice"], "n": spec["n"], "symbols": len(SYMBOLS),
            "density": spec["density"], "pair": spec["pair"]}


# ---------------------------------------------------------------- formulas

def random_formula(rng: random.Random, depth: int, pool: tuple):
    """A random formula as a nested tuple, mirrored by `format_formula`."""
    if depth == 0:
        return ("T",)
    roll = rng.random()
    if roll < 0.4:
        return ("step", rng.choice(SYMBOLS), random_formula(rng, depth - 1, pool))
    if roll < 0.6:
        op = rng.choice(("->", "<->"))
        return (op, rng.choice(pool), random_formula(rng, depth - 1, pool))
    if roll < 0.85:
        return ("&", random_formula(rng, depth - 1, pool), random_formula(rng, depth - 1, pool))
    return ("T",)


def format_formula(f) -> str:
    if f[0] == "T":
        return "T"
    if f[0] == "step":
        return f"<{f[1]}> {format_formula(f[2])}"
    if f[0] == "&":
        return f"({format_formula(f[1])} & {format_formula(f[2])})"
    return f"({f[1]} {f[0]} {format_formula(f[2])})"


# ---------------------------------------------------------------- job lists

class InputWriter:
    """Writes input files under one directory and hands back relative paths."""

    def __init__(self, root: Path, outdir: Path):
        self.root = root
        self.outdir = outdir
        outdir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, stem: str, text: str) -> str:
        self.count += 1
        path = self.outdir / f"{self.count:03d}-{stem}.json"
        path.write_text(text, encoding="utf-8")
        return str(path.relative_to(self.root))

    def pair(self, a, b) -> tuple:
        return self.write("a", serialize_automaton(a)), self.write("b", serialize_automaton(b))


def load_catalog() -> dict:
    return json.loads(CATALOG_PATH.read_text(encoding="utf-8"))


def _pick(rng: random.Random, catalog: dict, quota) -> list:
    out = []
    for cls, k in quota:
        for entry in rng.sample(catalog[cls], k):
            out.append((cls, entry))
    return out


def fixpoint_jobs(seed: int, writer: InputWriter, catalog: dict) -> list:
    rng = random.Random(f"fixpoint:{seed}")
    jobs = []
    for cls, entry in _pick(rng, catalog["fixpoint"], FIXPOINT_QUOTA):
        spec = entry["spec"]
        a, b = build_pair(spec)
        fa, fb = writer.pair(a, b)
        cmd = "greatest-sim" if spec["kind"] == "sim" else "greatest-bisim"
        jobs.append({
            "cls": cls,
            "argv": [cmd, fa, fb, "--lattice", spec["lattice"]],
            "limit": LIMIT_S["fixpoint"],
            "check": {"type": "greatest", "spec": spec, "expect": entry.get("expect"),
                      "nontrivial": spec["lattice"] != "product"},
            "props": spec_props(spec),
        })
    return jobs


def explore_jobs(seed: int, writer: InputWriter, catalog: dict) -> list:
    rng = random.Random(f"explore:{seed}")
    jobs = []
    for cls, entry in _pick(rng, catalog["explore"], EXPLORE_QUOTA):
        spec = entry["spec"]
        a, b = build_pair(spec)
        fa, fb = writer.pair(a, b)
        props = spec_props(spec)
        if spec["cmd"] == "hm-degree":
            argv = ["hm-degree", fa, fb, "--depth", str(spec["depth"]),
                    "--fragment", spec["kind"], "--lattice", spec["lattice"]]
            props["depth"] = spec["depth"]
        else:
            fr = writer.write("rel", json.dumps(entry["relation"], indent=2))
            argv = ["verify-preservation", fa, fb, "--relation", fr, "--kind", spec["kind"],
                    "--max-len", str(spec["k"]), "--lattice", spec["lattice"]]
            props["k"] = spec["k"]
            props["words"] = sum(len(SYMBOLS) ** i for i in range(spec["k"] + 1))
        jobs.append({"cls": cls, "argv": argv, "limit": LIMIT_S["explore"],
                     "check": {"type": spec["cmd"], "spec": spec, "expect": entry.get("expect")},
                     "props": props})
    return jobs


def _raise_one(rng: random.Random, items: list, a, b) -> list:
    """A relation array with one entry raised: an absent pair set to 1, or a
    stored one raised to 1."""
    entries = {(e["from"], e["to"]): e["degree"] for e in items}
    absent = [(x, y) for x in a.states for y in b.states
              if Fraction(entries.get((x, y), "0")) < 1]
    entries[rng.choice(absent)] = "1"
    return [{"from": x, "to": y, "degree": d} for (x, y), d in sorted(entries.items())]


def verify_jobs(seed: int, writer: InputWriter, catalog: dict) -> list:
    """About forty short requests over one pair per lattice plus a small Gödel pair."""
    rng = random.Random(f"verify:{seed}")
    jobs = []
    lim = LIMIT_S["verify"]
    for lattice, _n, _pair in VERIFY_PAIRS:
        entry = rng.choice(catalog[lattice])
        spec = entry["spec"]
        a, b = build_pair(spec)
        fa, fb = writer.pair(a, b)
        rels = {}
        for kind in ("sim", "bisim"):
            phi = entry["relations"][kind]
            rels[kind] = {"pass": writer.write(f"{kind}-pass", json.dumps(phi, indent=2)),
                          "fail": writer.write(f"{kind}-fail", json.dumps(
                              _raise_one(rng, phi, a, b), indent=2))}
        props = spec_props(spec)

        def add(argv, check):
            jobs.append({"cls": f"verify-{argv[0]}", "argv": argv + ["--lattice", lattice],
                         "limit": lim, "check": dict(check, spec=spec), "props": props})

        for kind, noun in (("sim", "check-sim"), ("bisim", "check-bisim")):
            for verdict in ("pass", "fail"):
                add([noun, fa, fb, "--relation", rels[kind][verdict]],
                    {"type": "check", "kind": kind, "mode": "fuzzy",
                     "relation": rels[kind][verdict]})
            add([noun, fa, fb, "--relation", rels[kind]["pass"], "--crisp"],
                {"type": "check", "kind": kind, "mode": "crisp",
                 "relation": rels[kind]["pass"]})
            add(["norm", fa, fb, "--relation", rels[kind]["pass"], "--kind", kind],
                {"type": "norm", "kind": kind, "relation": rels[kind]["pass"]})
        for _ in range(2):
            word = ",".join(rng.choice(SYMBOLS) for _ in range(rng.randint(3, 6)))
            add(["lang", fa, "--word", word], {"type": "lang", "word": word})
        formula = random_formula(rng, 4, POOLS["tenths"][::3])
        add(["eval-formula", fb, "--formula", format_formula(formula)],
            {"type": "eval", "formula": formula})
        if lattice == "godel":
            for kind, noun in (("sim", "check-sim"), ("bisim", "check-bisim")):
                for lam in ("1/2", "9/10"):
                    add([noun, fa, fb, "--relation", rels[kind]["pass"], "--lambda", lam],
                        {"type": "check", "kind": kind, "mode": "lambda", "lambda": lam,
                         "relation": rels[kind]["pass"]})
            for _ in range(2):
                formula = random_formula(rng, 4, POOLS["tenths"][::3])
                add(["eval-formula", fa, "--formula", format_formula(formula)],
                    {"type": "eval", "formula": formula})

    # max-lambda is a fixpoint plus a norm; keep it small so it stays a
    # short request
    for kind in ("sim", "bisim"):
        spec = {"lattice": "godel", "kind": kind, "n": 8, "density": 0.3, "pair": "perturbed",
                "gen": rng.randrange(1 << 30), "pool": "tenths"}
        a, b = build_pair(spec)
        fa, fb = writer.pair(a, b)
        jobs.append({"cls": "verify-max-lambda",
                     "argv": ["max-lambda", fa, fb, "--kind", kind, "--lattice", "godel"],
                     "limit": lim, "check": {"type": "max-lambda", "kind": kind, "spec": spec},
                     "props": spec_props(spec)})
    return jobs


def build_jobs(workload: str, seed: int, writer: InputWriter) -> list:
    if workload == "fixpoint":
        jobs = fixpoint_jobs(seed, writer, load_catalog())
    elif workload == "explore":
        jobs = explore_jobs(seed, writer, load_catalog())
    elif workload == "verify":
        jobs = verify_jobs(seed, writer, load_catalog()["verify"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}.{i:02d}"
    return jobs


def probe_jobs(writer: InputWriter) -> list:
    """Tiny fixed jobs, one per traced layer, added to every in-process pass.

    They keep each per-layer metric measured on every workload, so a layer
    a workload never calls reads a small constant floor rather than 0.
    """
    spec = {"lattice": "godel", "kind": "sim", "n": 4, "density": 0.4, "pair": "self",
            "gen": 7, "pool": "halves"}
    a, b = build_pair(spec)
    fa, fb = writer.pair(a, b)
    fr = writer.write("probe-rel", serialize_relation(FuzzyRelation({(x, x): 1 for x in a.states})))
    argvs = (["greatest-sim", fa, fb], ["check-sim", fa, fb, "--relation", fr],
             ["norm", fa, fb, "--relation", fr, "--kind", "sim"], ["lang", fa, "--word", "a,b"],
             ["eval-formula", fa, "--formula", "<a> (1/2 -> T)"],
             ["hm-degree", fa, fb, "--depth", "1", "--fragment", "sim"],
             ["verify-preservation", fa, fb, "--relation", fr, "--max-len", "3"],
             ["max-lambda", fa, fb, "--kind", "sim"])
    return [{"id": f"probe.{i}", "cls": "probe", "argv": argv + ["--lattice", "godel"],
             "limit": 30.0, "check": None, "props": spec_props(spec)}
            for i, argv in enumerate(argvs)]
