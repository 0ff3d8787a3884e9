"""sqdisp benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload scan|oracle|cli --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/sqdisp`` and
``BENCHMARK.json``; the package is used from ``src`` as it stands.  With
``--trace 0`` it reports the end-to-end metrics named in BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  Standard output ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  The lines before
it give the environment, the sample counts and the error rate.  Full
results and spans are kept under ``.perfbench/results``.

Set-up time is the median over five processes, each timed from spawn
until it has imported sqdisp, drawn its seeded parameters and the first
block of its job list and warmed up: four that stop there and the one that
goes on to run the jobs.

The whole run must end within ``--seconds`` plus DEADLINE_MARGIN_S.  The
worker stops early, inside a block, when its next job might overrun that;
only a worker that still overruns is killed, and then no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4       # extra set-up-only processes per untraced run
BLAS_THREADS = "1"     # BLAS/OpenMP threads, at or below nproc
DEADLINE_MARGIN_S = 135.0  # run time allowed beyond --seconds: set-up probes,
                           # gates, a slower machine and the result
RESULT_MARGIN_S = 10.0     # kept free after the worker's last job


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def launch(args, workdir, extra, deadline):
    """Start a worker; return its set-up seconds (spawn to ``ready``)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    spawned = time.time()
    # own session, so a timeout also stops the CLI processes a worker started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker ran past the run's deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    first = out.split("\n", 1)[0].split()
    if len(first) != 2 or first[0] != "ready":
        raise BenchError("worker did not report ready")
    return float(first[1]) - spawned


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run(args):
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    if not (ROOT / "src" / "sqdisp" / "__init__.py").is_file():
        raise BenchError(f"no sqdisp sources under {ROOT / 'src'}")
    end_to_end, per_layer = declared_metrics()
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = results / f"{tag}.json"
    workdir = ROOT / ".perfbench" / f"work-{tag}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(launch(args, workdir, ["--setup-only"], deadline))
        stop_at = time.time() + deadline - time.monotonic() - RESULT_MARGIN_S
        setups.append(launch(args, workdir,
                             ["--stop-at", repr(stop_at), "--result", str(result_path)],
                             deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = json.loads(result_path.read_text())
    untraced = result["untraced"]
    if args.trace:
        values = result["layers"]
        declared = per_layer
    else:
        values = {"setup_s": statistics.median(setups),
                  "jobs_per_s": untraced["jobs_per_s"],
                  "job_p50_s": untraced["job_p50_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
        declared = end_to_end
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    result["setup_s_samples"] = setups
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    print("# env " + json.dumps(result["env"], sort_keys=True))
    print(f"# jobs {untraced['jobs']} untraced in {result['blocks']} blocks "
          "(job_p50_s sample count), "
          f"error_rate {untraced['error_rate']:.4f} ratio "
          f"({untraced['failed']} of {untraced['jobs']} failed, "
          f"{untraced['unexpected']} outside known-defect slots)")
    if untraced["job_high"]:
        pct, value = untraced["job_high"]
        print(f"# job latency p{pct:.0f} {value:.4f} s (ten samples above it)")
    if args.trace:
        traced = result["traced"]
        print(f"# traced jobs {traced['jobs']}; tracing overhead ratio "
              f"{values['trace.overhead_ratio']:.4f} = untraced/traced jobs_per_s "
              f"{untraced['jobs_per_s']:.4f}/{traced['jobs_per_s']:.4f} 1/s")
    else:
        print(f"# setup_s samples {', '.join(f'{s:.4f}' for s in setups)}")
    if result["cut_after_job"] is not None:
        print(f"# run cut inside a block after job {result['cut_after_job']}, "
              "to end before the deadline; the job mix is not whole")
    for failure in untraced["failures"]:
        print(f"# failed job {failure['job']} ({failure['slot']}): {failure['detail']}")
    for m in declared:
        print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["unexpected"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description="sqdisp benchmark")
    parser.add_argument("--workload", required=True, choices=("scan", "oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args)
    except (BenchError, OSError, ValueError, subprocess.CalledProcessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
