"""Benchmark for lubintate: seeded job workloads run in a closed loop.

    python3 bench/run.py --workload periods --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client runs the workload's job list in a closed loop in this process:
one job at a time, pass after pass, until --seconds have elapsed.  Every
pass runs the same jobs in the same seeded order.  Outputs are captured,
compared with the first pass and checked by each job's oracle after the
timed loop.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, and with --trace 1 the per-layer metrics of one traced pass,
measured after an untraced pass over the same jobs.  `--workload all`
runs every workload in its own fresh process and prints each metric by
name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# Jobs are single-threaded, CPU-bound and do no I/O, so their time is
# measured as this process's CPU time: on a shared host the wall clock also
# counts time the hypervisor gave to other guests, which moved wall-clock
# job rates by 20% between back-to-back runs of one seed.
CLOCK = time.process_time

SETUP_REPS = 3      # fresh imports before and again after the timed loop
IMPORT_TIMER = "import time; t = time.process_time(); import {}; print(time.process_time() - t)"


def fresh_import_s(module: str, reps: int) -> list:
    """CPU seconds a fresh interpreter takes to import `module`, `reps` times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER.format(module)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout))
    return times


def run_job(job, tracer=None, job_id: int = 0):
    """One job with stdout and stderr captured: (seconds, exit code, out, err)."""
    if job.prepare is not None:
        job.prepare()
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_job(job_id)
    start = CLOCK()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = job.run()
        except SystemExit as exc:       # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:        # a failing job is counted, not fatal
            rc = f"{type(exc).__name__}: {exc}"
    elapsed = CLOCK() - start
    if tracer is not None:
        tracer.end_job()
    return elapsed, rc, out.getvalue(), err.getvalue()


class Ledger:
    """Outcome of every run of every job in the list."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.ref = [None] * len(jobs)    # first successful output of each job
        self.same = [0] * len(jobs)      # runs whose output equals ref
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def record(self, k: int, rc, out: str, err: str) -> None:
        self.attempted += 1
        cls = self.jobs[k].cls
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{cls}: exit {rc} {err.strip()[-300:]}")
            return
        if self.ref[k] is None:
            self.ref[k] = out
        if out == self.ref[k]:
            self.same[k] += 1
        else:
            self.failed += 1
            self.errors.append(f"{cls}: output differs from its first run")

    def settle(self) -> None:
        """Run each job's oracle once, on its reference output."""
        for k, job in enumerate(self.jobs):
            if not self.same[k]:
                continue
            try:
                ok = job.check(self.ref[k])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                ok, why = False, f"{type(exc).__name__}: {exc}"
            else:
                why = "wrong answer"
            if not ok:
                self.failed += self.same[k]
                self.errors.append(f"{job.cls}: oracle mismatch ({why})")

    def digest(self) -> str:
        """sha256 of the concatenated stdout of one pass, in job order."""
        return hashlib.sha256("".join(o or "" for o in self.ref).encode()).hexdigest()

    def output_bytes(self) -> int:
        return sum(len((o or "").encode()) for o in self.ref)


def run_pass(jobs, ledger: Ledger, latencies: list, tracer=None) -> None:
    for k, job in enumerate(jobs):
        elapsed, rc, out, err = run_job(job, tracer, k)
        latencies.append(elapsed)
        ledger.record(k, rc, out, err)


def nearest_rank(sorted_values, pct: float):
    """(value at percentile pct, number of samples beyond it)."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(workload, jobs, seconds: float, ledger: Ledger):
    setup = fresh_import_s("lubintate.cli", SETUP_REPS)
    latencies, pass_cpu = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while not pass_cpu or time.perf_counter() < deadline:
        cpu_start = CLOCK()
        run_pass(jobs, ledger, latencies)
        pass_cpu.append(CLOCK() - cpu_start)
    wall = time.perf_counter() - start
    # imports a minute apart see different loads on a shared host
    setup += fresh_import_s("lubintate.cli", SETUP_REPS)
    ledger.settle()
    ordered = sorted(latencies)
    tail, beyond = nearest_rank(ordered, workload.tail_pct)
    by_class = {}
    for k, elapsed in enumerate(latencies):
        by_class.setdefault(jobs[k % len(jobs)].cls, []).append(elapsed)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(jobs) / statistics.median(pass_cpu), "1/s"),
        "job_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "job_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((ledger.attempted - ledger.failed) / ledger.attempted, "ratio"),
    }
    info = {
        "passes": len(pass_cpu),
        "jobs_per_pass": len(jobs),
        "wall_s": round(wall, 3),
        "cpu_s": round(sum(pass_cpu), 3),
        "jobs_per_wall_s": round(len(latencies) / wall, 3),
        "tail_percentile": workload.tail_pct,
        "tail_samples": len(ordered),
        "tail_samples_beyond": beyond,
        "class_p50_ms": {cls: round(statistics.median(v) * 1e3, 2)
                         for cls, v in sorted(by_class.items())},
    }
    return metrics, info


def traced(jobs, seconds: float, ledger: Ledger):
    """Alternate untraced and traced passes until `seconds` have elapsed."""
    from tracing import Tracer

    tracer = Tracer()
    plain_wall = traced_wall = 0.0
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        start = time.perf_counter()
        run_pass(jobs, ledger, [])
        plain_wall += time.perf_counter() - start
        tracer.install()
        sites = tracer.binding_sites
        try:
            start = time.perf_counter()
            run_pass(jobs, ledger, [], tracer)
            traced_wall += time.perf_counter() - start
        finally:
            tracer.uninstall()
        passes += 1
    ledger.settle()
    metrics = tracer.metrics(passes)
    metrics["cli.output_bytes"] = (ledger.output_bytes(), "bytes")
    try:
        sympy_s = statistics.median(fresh_import_s("sympy", 3))
    except subprocess.CalledProcessError:
        sympy_s = 0.0               # sympy is not installed
    metrics["setup.sympy_import_s"] = (sympy_s, "s")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    info = {"passes": passes, "spans": len(tracer.start), "binding_sites": sites,
            "untraced_wall_s": round(plain_wall, 3), "traced_wall_s": round(traced_wall, 3)}
    return metrics, info


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "lubintate").glob("*.py"))


def sympy_version() -> str:
    try:
        return metadata.version("sympy")
    except metadata.PackageNotFoundError:
        return "absent"


def run_workload(args) -> int:
    try:
        import lubintate
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(lubintate.__file__).resolve().parent != SRC / "lubintate":
        print(f"error: lubintate was imported from {lubintate.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    jobs = workload.jobs(args.seed)
    run_job(jobs[0])                # warm-up outside the timed list
    ledger = Ledger(jobs)
    if args.trace:
        metrics, info = traced(jobs, args.seconds, ledger)
    else:
        metrics, info = end_to_end(workload, jobs, args.seconds, ledger)
    info.update({
        "workload": workload.name,
        "seed": args.seed,
        "digest": ledger.digest(),
        "fail_frac": ledger.failed / ledger.attempted,
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "sympy": sympy_version(),
    })
    for line in ledger.errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; prints every metric with its unit."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:45s} {m['value']:14.6g} {m['unit']}")
        print(f"  {lines[-2]}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
