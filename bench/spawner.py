"""Starts the benchmark's CLI jobs for run.py from a process that stays small.

    python3 bench/spawner.py ROOT OUTDIR      (run.py starts it; requests on stdin)

On Linux a child's ru_maxrss also counts the resident size of the process
that started it: the child begins as a copy of that process, and exec keeps
the copy's high-water mark.  run.py holds the catalog, the job lists and
every result, so jobs it started itself would all read at least its size and
peak_rss_mb would measure the runner, not the CLI.  This process imports
little and keeps nothing between jobs, so its size stays below any job's; it
reports its own peak (VmHWM, which unlike ru_maxrss leaves out run.py's
size at the exec) with every reply so that run.py can show it.

Each stdin line is a JSON request {"argv": [...], "limit": seconds}.  The job
runs as `python -m fuzzybisim ARGV` in ROOT with this process's environment,
timed from its start to its exit and killed at the limit.  Each reply is one
stdout line {"code", "secs", "timed_out", "rss_mb", "stdout", "stderr",
"self_mb"}.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time


def run_child(argv: list, limit: float, root: str, outdir: str) -> dict:
    with tempfile.TemporaryFile(dir=outdir) as fo, tempfile.TemporaryFile(dir=outdir) as fe:
        box: dict = {}
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "fuzzybisim", *argv],
                                stdout=fo, stderr=fe, cwd=root)

        def reap():
            _pid, status, usage = os.wait4(proc.pid, 0)
            box["t1"] = time.perf_counter()
            box["status"] = status
            box["usage"] = usage

        reaper = threading.Thread(target=reap)
        reaper.start()
        reaper.join(limit)
        timed_out = reaper.is_alive()
        if timed_out:
            proc.kill()
            reaper.join()
        proc.returncode = os.waitstatus_to_exitcode(box["status"])
        fo.seek(0)
        fe.seek(0)
        return {"code": proc.returncode, "secs": box["t1"] - t0, "timed_out": timed_out,
                "rss_mb": box["usage"].ru_maxrss / 1024.0,
                "stdout": fo.read().decode("utf-8", "replace"),
                "stderr": fe.read().decode("utf-8", "replace")}


def own_peak_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    root, outdir = sys.argv[1], sys.argv[2]
    for line in sys.stdin:
        req = json.loads(line)
        res = run_child(req["argv"], req["limit"], root, outdir)
        res["self_mb"] = own_peak_mb()
        sys.stdout.write(json.dumps(res) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
