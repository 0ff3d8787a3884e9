"""Runs one workload in its own process and writes the result as JSON.

    python perfbench/worker.py --workload scan --seed 1 --workdir DIR \
        --seconds 30 --trace 0 (--setup-only | --stop-at T --result out.json)

Set-up (imports, the seeded parameters, the first block of the job list,
warm-up) ends with the line ``ready`` on standard output, which ``run.py``
takes as the end of set-up time.  Then jobs run in a closed loop.  A run is
a fixed number of whole blocks, set by ``--seconds`` and each workload's
block cost on the reference VM, so every run does the same job mix.  Only
if the next job might not end before ``--stop-at`` (a wall-clock time) does
a run stop early, inside a block; the result then says where it was cut.
With ``--trace 1`` each job runs twice, untraced and traced, in alternating
order; the traced copies give the per-layer metrics and the pair gives the
tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads


def environment(args):
    src = workloads.ROOT / "src" / "sqdisp"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (workloads.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Tally:
    """Job counts, latencies and gate misses of one mode of a run.
    ``unexpected`` counts the misses outside the workload's known-defect
    slots; any such miss makes the run incorrect."""

    def __init__(self, known_defects):
        self.known_defects = known_defects
        self.latencies = []
        self.slots = {}
        self.failed = 0
        self.unexpected = 0
        self.failures = []
        self.accuracy = {}

    def record(self, job, seconds, verdict):
        self.latencies.append(seconds)
        self.slots.setdefault(job["slot"], []).append(seconds)
        for key, value in verdict.accuracy.items():
            self.accuracy[key] = max(self.accuracy.get(key, 0.0), value)
        if not verdict.ok:
            self.failed += 1
            self.unexpected += job["slot"] not in self.known_defects
            if len(self.failures) < 20:
                self.failures.append({"job": job["id"], "slot": job["slot"],
                                      "detail": verdict.detail})

    @property
    def busy(self):
        return sum(self.latencies)


def timed_job(wl, job, tally, tracer=None):
    if tracer is not None:
        tracer.job = job["id"]
        tracer.install()
    start = time.perf_counter()
    try:
        outcome = wl.run(job, tracer)
        error = None
    except Exception as exc:  # a job that raises is a failed job, not a stop
        outcome, error = None, f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        if outcome is not None:
            wl.absorb(tracer, outcome)
    if error is not None:
        verdict = workloads.fail(error)
    else:
        try:
            verdict = wl.check(job, outcome)
        except Exception as exc:  # a gate that cannot judge counts against the job
            traceback.print_exc(file=sys.stderr)
            verdict = workloads.fail(f"gate error {type(exc).__name__}: {exc}")
    tally.record(job, elapsed, verdict)


def paced(jobs, stop_at, cut):
    """Yield jobs until the next one might not end by ``stop_at``: the time
    left is under twice the longest job so far, gate included.  The id of
    the last job run before such a stop goes into ``cut``."""
    longest = 0.0
    for job in jobs:
        start = time.time()
        yield job
        longest = max(longest, time.time() - start)
        if time.time() + 2.0 * longest > stop_at:
            cut.append(job["id"])
            return


def run_plain(wl, stop_at, cut):
    tally = Tally(wl.known_defects)
    for job in paced(wl.jobs(), stop_at, cut):
        timed_job(wl, job, tally)
    return tally


def run_traced(wl, stop_at, cut):
    plain, traced = Tally(wl.known_defects), Tally(wl.known_defects)
    tracer = tracing.Tracer()
    cli_runs = []
    for i, job in enumerate(paced(wl.jobs(), stop_at, cut)):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                timed_job(wl, job, traced, tracer)
                cli_runs.append((job["id"], traced.latencies[-1]))
            else:
                timed_job(wl, job, plain)
    spans = tracer.records()
    metrics = tracing.layer_metrics(spans)
    metrics.update(cli_process_metrics(spans, cli_runs))
    for key in ("distribution.scan.max_rel_dev", "distribution.group_average.max_rel_err"):
        metrics[key] = max(plain.accuracy.get(key, 0.0), traced.accuracy.get(key, 0.0))
    metrics["trace.overhead_ratio"] = traced.busy / plain.busy
    return plain, traced, metrics, tracer


def cli_process_metrics(spans, cli_runs):
    """Import time and start-up time (process wall less import and main) of
    the traced CLI processes; ``cli_runs`` holds (job id, wall time)."""
    per_job = {}
    for s in spans:
        if s["name"] in ("cli.import", "cli.main") and s["parent"] is None:
            per_job.setdefault(s["job"], {})[s["name"]] = s["end"] - s["start"]
    imports, startups = [], []
    for job, wall in cli_runs:
        parts = per_job.get(job)
        if parts and len(parts) == 2:
            imports.append(parts["cli.import"])
            startups.append(wall - parts["cli.import"] - parts["cli.main"])
    return {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
    }


def high_percentile(latencies):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when that is not above the median."""
    n = len(latencies)
    k = n - 10
    if k <= n / 2:
        return None
    return 100.0 * k / n, sorted(latencies)[k - 1]


def summary(tally):
    lat = tally.latencies
    return {
        "jobs": len(lat),
        "job_high": high_percentile(lat),
        "busy_s": tally.busy,
        "jobs_per_s": len(lat) / tally.busy,
        "job_p50_s": statistics.median(lat),
        "failed": tally.failed,
        "unexpected": tally.unexpected,
        "error_rate": tally.failed / len(lat),
        "slot_p50_s": {k: statistics.median(v) for k, v in sorted(tally.slots.items())},
        "latencies": lat,
        "failures": tally.failures,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stop-at", type=float, default=float("inf"),
                        help="wall-clock time (time.time()) to end by")
    parser.add_argument("--result")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    kind = workloads.WORKLOADS[args.workload]
    wl = kind(args.seed, args.workdir, kind.blocks_for(args.seconds, args.trace))
    wl.setup()
    print(f"ready {time.time()!r}", flush=True)
    if args.setup_only:
        return 0

    result = {"env": environment(args), "blocks": wl.n_blocks}
    cut = []
    if args.trace:
        plain, traced, metrics, tracer = run_traced(wl, args.stop_at, cut)
        result.update(untraced=summary(plain), traced=summary(traced), layers=metrics)
        tallies = (plain, traced)
        tracer.dump(Path(args.result).with_suffix(".spans.jsonl"))
    else:
        plain = run_plain(wl, args.stop_at, cut)
        result.update(untraced=summary(plain), peak_rss_mb=wl.peak_rss_mb())
        tallies = (plain,)
    result["attempted"] = sum(len(t.latencies) for t in tallies)
    result["failed"] = sum(t.failed for t in tallies)
    result["unexpected"] = sum(t.unexpected for t in tallies)
    result["cut_after_job"] = cut[0] if cut else None
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
