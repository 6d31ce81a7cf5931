"""Benchmark runner for the fuzzybisim CLI.

    python3 bench/run.py --workload fixpoint|verify|explore|all --seed N \
                         --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a source checkout; the package is imported from
`src/`.  Standard library only.

Load model: one client in a closed loop.  Each job is one
`python -m fuzzybisim ...` subprocess, started only after the previous one
has ended, so the runner and one child share the machine.  The jobs are
started by `spawner.py`, a small helper process, so that their peak memory
is not the runner's.  Children run with FUZZYBISIM_MAX_ITERS unset, so the
documented default cap applies.

A run builds the workload's inputs from `--seed` (set-up, repeated
SETUP_REPEATS times and reported as the median), then runs the fixed job
list a fixed number of passes (about `--seconds` in total), checks every
answer against `reference.py` outside the timed region, and prints the
end-to-end metrics.  With `--trace 1` it instead runs one subprocess pass
plus in-process passes (untraced, traced, lattice counting, kernel sweeps,
lattice microbenchmark) and prints the per-layer metrics.  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Per-job records, spans and the full result go to bench/out/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("fixpoint", "verify", "explore")
# nominal seconds of one pass over any workload's job list on a 2-core host;
# a run makes round(--seconds / PASS_SECONDS) passes, so the sample count
# depends only on --seconds, never on how fast the host happens to be
PASS_SECONDS = 7.0
SETUP_REPEATS = 5
TAIL_BEYOND = 10

def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import fuzzybisim from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "fuzzybisim" / "__init__.py").is_file():
        fail(f"no fuzzybisim package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import fuzzybisim
    if Path(fuzzybisim.__file__).resolve().parent != (src / "fuzzybisim").resolve():
        fail(f"imported fuzzybisim from {fuzzybisim.__file__}, not from {src}")
    return fuzzybisim


# ---------------------------------------------------------------- host diagnostics

def host_ref_ms() -> float:
    """Median of five timings of a fixed pure-Python loop (diagnostic only)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


# ---------------------------------------------------------------- subprocess jobs

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FUZZYBISIM_MAX_ITERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Spawner:
    """The small process that starts every CLI job (see spawner.py)."""

    def __enter__(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py"), str(ROOT), str(OUT)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT, text=True)
        self.self_mb = 0.0
        return self

    def run(self, argv: list, limit: float) -> dict:
        """Run one CLI job; time it to the child's exit, kill it at the limit."""
        self.proc.stdin.write(json.dumps({"argv": argv, "limit": limit}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            fail(f"the job spawner exited with code {self.proc.wait()}")
        res = json.loads(line)
        self.self_mb = res.pop("self_mb")
        return res

    def __exit__(self, *_exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------- in-process jobs

class JobTimeout(BaseException):
    """Raised by SIGALRM inside an in-process job that overran its limit."""


def _on_alarm(_signum, _frame):
    raise JobTimeout()


def run_inprocess(cli, argv: list, limit: float, tracer=None, job_id=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    timed_out = False
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                code = cli.main(argv)
            else:
                tracer.job = job_id
                with tracer.span("cli.main", "cli"):
                    code = cli.main(argv)
    except JobTimeout:
        code, timed_out = None, True
    except SystemExit as exc:
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"code": code, "secs": time.perf_counter() - t0, "timed_out": timed_out,
            "stdout": out.getvalue()}


# ---------------------------------------------------------------- set-up

def setup(workload: str, seed: int, spawner: Spawner):
    """Build the inputs and warm up; returns (jobs, probe jobs, seconds)."""
    from workloads import InputWriter, build_jobs, probe_jobs
    t0 = time.perf_counter()
    outdir = OUT / "inputs" / f"{workload}-{seed}"
    shutil.rmtree(outdir, ignore_errors=True)
    writer = InputWriter(ROOT, outdir)
    jobs = build_jobs(workload, seed, writer)
    probes = probe_jobs(writer)
    warm = spawner.run(["lang", jobs[0]["argv"][1], "--word", ""], 60.0)
    if warm["code"] != 0:
        fail(f"warm-up call failed: {warm['stderr'].strip()[-200:]}")
    return jobs, probes, time.perf_counter() - t0


# ---------------------------------------------------------------- checking

DOCUMENTED_EXITS = (0, 1, 2, 3)
# commands whose exit 1 is a verdict (a failed check); any other exit 1 is a crash
VERDICT_EXIT_1 = ("check-sim", "check-bisim", "verify-preservation")


def decided(job: dict, res: dict) -> bool:
    if res["timed_out"]:
        return False
    return res["code"] == 0 or res["code"] == 1 and job["argv"][0] in VERDICT_EXIT_1


def check_samples(jobs: list, passes: list) -> dict:
    """Problems per job id; the first pass is checked against the reference,
    later passes must repeat it exactly."""
    from reference import check_job
    problems = {job["id"]: [] for job in jobs}
    for i, job in enumerate(jobs):
        faults = problems[job["id"]]
        first = None
        for p, res in enumerate(results[i] for results in passes):
            if res["timed_out"]:
                continue
            if "Traceback" in res["stderr"]:
                faults.append(f"pass {p}: traceback")
            if res["code"] not in DOCUMENTED_EXITS:
                faults.append(f"pass {p}: undocumented exit {res['code']}")
            if first is None:
                first = res
                faults.extend(check_job(ROOT, job, res["code"], res["stdout"]))
            elif (res["code"], res["stdout"]) != (first["code"], first["stdout"]):
                faults.append(f"pass {p}: output differs from an earlier pass")
    return problems


# ---------------------------------------------------------------- metrics

def tail(values: list):
    """(value, percentile): the order statistic with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def max_den_bits(stdout: str) -> int:
    try:
        obj = json.loads(stdout)
    except ValueError:
        return 0
    rel = obj.get("relation", []) if isinstance(obj, dict) else []
    return max((Fraction(e["degree"]).denominator.bit_length() for e in rel), default=0)


def job_record(job: dict, res: dict, pass_no: int, faults: list, counters: dict) -> dict:
    rec = dict(job["props"], **counters.get(job["id"], {}))
    rec.update({"id": job["id"], "cls": job["cls"], "cmd": job["argv"][0], "pass": pass_no,
                "exit": res["code"], "timed_out": res["timed_out"],
                "secs": res["secs"], "rss_mb": res.get("rss_mb"), "ok": not faults})
    try:
        obj = json.loads(res["stdout"]) if res["stdout"] else None
    except ValueError:
        obj = None
    if isinstance(obj, dict) and "relation" in obj:
        rec.update({"support": len(obj["relation"]), "sweeps": obj["iterations"],
                    "converged": obj["converged"], "max_den_bits": max_den_bits(res["stdout"])})
    elif isinstance(obj, list):
        rec["support"] = len(obj)
    return rec


# ---------------------------------------------------------------- timed run

def timed_run(seconds, jobs, spawner: Spawner):
    n_passes = max(1, round(seconds / PASS_SECONDS))
    passes, walls = [], []
    for _ in range(n_passes):
        t0 = time.perf_counter()
        passes.append([spawner.run(job["argv"], job["limit"]) for job in jobs])
        walls.append(time.perf_counter() - t0)
    return passes, walls


def e2e_metrics(jobs, passes, walls, setups) -> tuple:
    samples = [(job, res) for results in passes for job, res in zip(jobs, results)]
    lat_ms = [res["secs"] * 1000 for _job, res in samples]
    tail_ms, tail_pct = tail(lat_ms)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "latency_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "latency_tail_ms": metric(tail_ms, "ms"),
        "decided_ratio": metric(sum(decided(job, res) for job, res in samples) / len(samples),
                                "ratio"),
        "peak_rss_mb": metric(max(res["rss_mb"] for _job, res in samples), "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    return metrics, tail_pct, len(samples)


# ---------------------------------------------------------------- traced run

def traced_metrics(jobs, probes, sub_results) -> tuple:
    """Per-layer metrics from the in-process passes; also returns the tracer,
    the counting pass and in-process problems."""
    from fuzzybisim import cli, parse_automaton, refinement_steps
    from fuzzybisim.lattice import by_name
    from spans import LAYERS, LatticeCounter, Tracer

    all_jobs = jobs + probes
    signal.signal(signal.SIGALRM, _on_alarm)

    untraced = [run_inprocess(cli, job["argv"], job["limit"]) for job in all_jobs]
    tracer = Tracer()
    with tracer.installed():
        traced = [run_inprocess(cli, job["argv"], job["limit"], tracer, job["id"])
                  for job in all_jobs]
    counter = LatticeCounter()
    with counter.installed():
        for job in all_jobs:
            run_inprocess(cli, job["argv"], job["limit"])

    # in-process answers must match what the CLI printed
    problems = {}
    for job, res, sub in zip(jobs, untraced, sub_results):
        if not (res["timed_out"] or sub["timed_out"]) and \
                (res["code"], res["stdout"]) != (sub["code"], sub["stdout"]):
            problems.setdefault(job["id"], []).append("in-process output differs from the CLI")

    # kernel pass: one timed next() of refinement_steps per sweep; sweep_ms is
    # the median over jobs of each job's median sweep, so one long-running
    # job does not stand for all of them
    sweep_ms, lowered, reevaluated = [], 0, 0
    sweeps, greatest, converged, den_bits = 0, 0, 0, 0
    for job, res in zip(all_jobs, untraced):
        if not job["argv"][0].startswith("greatest-") or res["timed_out"]:
            continue
        report = json.loads(res["stdout"])
        greatest += 1
        converged += bool(report["converged"])
        sweeps += report["iterations"]
        den_bits = max(den_bits, max_den_bits(res["stdout"]))
        a = parse_automaton((ROOT / job["argv"][1]).read_text())
        b = parse_automaton((ROOT / job["argv"][2]).read_text())
        lat = by_name(job["argv"][job["argv"].index("--lattice") + 1])
        kind = "sim" if job["argv"][0] == "greatest-sim" else "bisim"
        steps = refinement_steps(lat, a, b, kind)
        prev = next(steps)
        job_ms = []
        for _ in range(report["iterations"]):
            t0 = time.perf_counter()
            cur = next(steps, None)
            job_ms.append((time.perf_counter() - t0) * 1000)
            if cur is None:
                break
            reevaluated += len(prev)
            lowered += sum(1 for (x, y), d in prev.items() if cur.degree(x, y) < d)
            prev = cur
        if job_ms:
            sweep_ms.append(statistics.median(job_ms))

    bench_ns = lattice_microbench(counter, jobs)

    def per_call_ms(name):
        durs = tracer.durations(name)
        return 1000 * statistics.fmean(durs) if durs else 0.0

    startup = [sub["secs"] - res["secs"] for job, sub, res in zip(jobs, sub_results, untraced)
               if decided(job, sub) and not res["timed_out"]]
    n_jobs = len(all_jobs)
    layer_self = tracer.layer_self()
    wall_untraced = sum(r["secs"] for r in untraced)
    wall_traced = sum(r["secs"] for r in traced)
    m = {}
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = metric(layer_self.get(layer, 0.0), "s")
    m.update({
        "simrel.fixpoint_s": metric(tracer.self_time(
            {"simrel.greatest_fuzzy_simulation", "simrel.greatest_fuzzy_bisimulation"}), "s"),
        "simrel.sweeps": metric(sweeps, "count"),
        "simrel.sweep_ms": metric(statistics.median(sweep_ms) if sweep_ms else 0.0, "ms"),
        "simrel.useful_ratio": metric(lowered / reevaluated if reevaluated else 0.0, "ratio"),
        "simrel.converged_ratio": metric(converged / greatest if greatest else 0.0, "ratio"),
        "lattice.max_den_bits": metric(den_bits, "bits"),
        "lattice.ops": metric(sum(counter.counts.values()), "count"),
        "simrel.check_s": metric(tracer.group_time(
            {s[0] for s in tracer.spans if s[0].startswith("simrel.check_")}), "s"),
        "simrel.norm_s": metric(tracer.group_time({"simrel.sim_norm", "simrel.bisim_norm"}), "s"),
        "fuzzyrel.compose_s": metric(tracer.group_time(
            {s[0] for s in tracer.spans if s[0].startswith("fuzzyrel.compose_")}), "s"),
        "fuzzyrel.compose.calls": metric(tracer.count("fuzzyrel.compose_"), "count"),
        "cli.startup_ms": metric(1000 * statistics.median(startup) if startup else 0.0, "ms"),
        "cli.self_ms": metric(1000 * layer_self.get("cli", 0.0) / n_jobs, "ms"),
        "automata.parse_ms": metric(per_call_ms("automata.parse_automaton"), "ms"),
        "fuzzyrel.parse_ms": metric(per_call_ms("fuzzyrel.parse_relation"), "ms"),
        "simrel.preservation_s": metric(tracer.group_time({"simrel.verify_preservation"}), "s"),
        "simrel.preservation.words": metric(
            sum(tracer.counter_values("preservation.words")), "count"),
        "hmlogic.hm_degree_s": metric(tracer.group_time({"hmlogic.hm_degree_bounded"}), "s"),
        "hmlogic.pool_size": metric(max(tracer.counter_values("hm.pool_size"), default=0),
                                    "count"),
        "hmlogic.atoms": metric(sum(tracer.counter_values("hm.atoms")), "count"),
        "hmlogic.eval_ms": metric(per_call_ms("hmlogic.eval_formula"), "ms"),
        "trace.overhead_ratio": metric(wall_traced / wall_untraced, "ratio"),
    })
    for (kind, op), ns in sorted(bench_ns.items()):
        m[f"lattice.{kind}.{op}_ns"] = metric(ns, "ns")
    return m, tracer, counter, problems


def lattice_microbench(counter, jobs) -> dict:
    """ns per call of each lattice op over operands this workload produced.

    Operands come from the counting pass's sample; a (kind, op) the workload
    never called falls back to all pairs of the degrees in its input files."""
    from fuzzybisim.lattice import by_name
    from reference import load_raw
    degrees = set()
    for job in jobs:
        for path in job["argv"][1:3]:
            if path.endswith(".json"):
                aut = load_raw(ROOT, path)
                degrees.update(aut.delta.values())
                degrees.update(aut.tau.values())
    fallback = [(x, y) for x in sorted(degrees) for y in sorted(degrees)]
    out = {}
    for kind in ("godel", "lukasiewicz", "product"):
        lat = by_name(kind)
        for op in counter.OPS:
            pairs = counter.samples.get((kind, op)) or fallback
            fn = getattr(lat, op)
            times = []
            for _ in range(5):
                t0 = time.perf_counter_ns()
                for x, y in pairs:
                    fn(x, y)
                times.append((time.perf_counter_ns() - t0) / len(pairs))
            out[(kind, op)] = statistics.median(times)
    return out


def layer_table(tracer) -> list:
    from spans import LAYERS
    totals = tracer.layer_self()
    whole = sum(totals.values()) or 1.0
    lines = ["layer      self_s    share"]
    for layer in LAYERS:
        lines.append(f"{layer:<10} {totals.get(layer, 0.0):8.3f} {totals.get(layer, 0.0) / whole:8.1%}")
    return lines


# ---------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="fuzzybisim CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="one job per workload, metric names and a corrupted output")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    os.environ.pop("FUZZYBISIM_MAX_ITERS", None)
    ref_start = host_ref_ms()
    setups = []
    with Spawner() as spawner:
        for _ in range(SETUP_REPEATS):
            jobs, probes, secs = setup(workload, seed, spawner)
            setups.append(secs)
        # a traced run needs one subprocess pass, for cli.startup_ms and the checks
        passes, walls = timed_run(0 if trace else seconds, jobs, spawner)
    ref_end = host_ref_ms()
    info = [f"workload {workload} seed {seed}: {len(jobs)} jobs per pass; "
            f"job spawner peak rss {spawner.self_mb:.1f} MB"]

    problems = check_samples(jobs, passes)
    counters: dict = {}
    if trace:
        metrics, tracer, counter, extra = traced_metrics(jobs, probes, passes[0])
        for job_id, faults in extra.items():
            problems[job_id].extend(faults)
        metrics["host.ref_ms"] = metric((ref_start + ref_end) / 2, "ms")
        for job_id, name, value in tracer.counters:
            counters.setdefault(job_id, {})[name] = value
        info.extend(layer_table(tracer))
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"spans-{workload}-{seed}.jsonl", "w") as fh:
            for name, layer, t0, t1, parent, job in tracer.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")
        info.append("lattice op counts: " + ", ".join(
            f"{k}.{o}={n}" for (k, o), n in sorted(counter.counts.items())))
    else:
        metrics, tail_pct, n_samples = e2e_metrics(jobs, passes, walls, setups)
        info.append(f"latency_tail_ms is p{tail_pct:.1f} of {n_samples} jobs "
                    f"({len(passes)} passes of {len(jobs)})")

    # a job with any problem counts as failed in every pass
    failed = sum(len(passes) for job in jobs if problems[job["id"]])
    attempted = len(jobs) * len(passes)
    info.append(f"error_ratio {failed / attempted:.4f} ratio ({failed} of {attempted})")
    info.append(f"host.ref_ms start {ref_start:.2f} end {ref_end:.2f}; python "
                f"{platform.python_version()}; src lines {src_line_count()}")
    for job in jobs:
        for fault in problems[job["id"]]:
            info.append(f"WRONG {job['id']} {' '.join(job['argv'])}: {fault}")

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"jobs-{workload}-{seed}.jsonl", "w") as fh:
        for p, results in enumerate(passes):
            for job, res in zip(jobs, results):
                fh.write(json.dumps(job_record(job, res, p, problems[job["id"]], counters)) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(dict(result, info=info), indent=1) + "\n")
    return result, info


def require(ok, msg: str) -> None:
    if not ok:
        raise SystemExit(f"self-test failed: {msg}")


def self_test() -> int:
    """One job per workload: metric names and units, no per-layer metric at 0,
    and the checker's teeth."""
    from reference import check_job, corrupt
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    signal.signal(signal.SIGALRM, _on_alarm)
    for workload in WORKLOADS:
        with Spawner() as spawner:
            jobs, probes, secs = setup(workload, 0, spawner)
            decided_jobs = [j for j in jobs if j["cls"] != "hm-timeout"]
            job = decided_jobs[0]
            res = spawner.run(job["argv"], job["limit"])
        faults = check_job(ROOT, job, res["code"], res["stdout"])
        require(not faults, f"{workload}: reference check failed: {faults}")
        bad = check_job(ROOT, job, res["code"], corrupt(res["stdout"]))
        require(bad, f"{workload}: corrupted output passed the reference check")
        metrics, _tail, _n = e2e_metrics([job], [[res]], [res["secs"]], [secs])
        got = {name: m["unit"] for name, m in metrics.items()}
        require(got == e2e, f"{workload}: end-to-end metrics differ: {sorted(set(got) ^ set(e2e))}")
        metrics, _tracer, _counter, extra = traced_metrics([job], probes, [res])
        require(not extra, f"{workload}: {extra}")
        metrics["host.ref_ms"] = metric(host_ref_ms(), "ms")
        got = {name: m["unit"] for name, m in metrics.items()}
        require(got == layer, f"{workload}: per-layer metrics differ: {sorted(set(got) ^ set(layer))}")
        zero = sorted(name for name, m in metrics.items() if not m["value"])
        require(not zero, f"{workload}: per-layer metrics read 0: {zero}")
        print(f"self-test {workload}: {job['argv'][0]} ok, corrupted output flagged, "
              f"{len(e2e)} end-to-end and {len(layer)} per-layer metrics present")
    print("self-test passed")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    os.chdir(ROOT)
    if args.self_test:
        return self_test()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result, info = run(workload, args.seed, args.seconds, bool(args.trace))
        for line in info:
            print(line)
        for name, m in result["metrics"].items():
            print(f"{workload}.{name} {m['value']:.6g} {m['unit']}")
        results[workload] = result
    if args.workload != "all":
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{name}": m for w, r in results.items()
                             for name, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
