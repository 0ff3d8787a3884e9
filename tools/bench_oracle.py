"""Before/after record of the oracle jobs, written as BENCH_oracle.json.

    python3 tools/bench_oracle.py --parent OLD_SRC [--repeats N] [--out FILE]

OLD_SRC is the ``src`` directory of the checkout to compare against, as for
``tools/bench_scan_kernel.py``, whose loading and alternation this script
uses: both packages are imported into one process and timed in turn.

Each case is one slot of the ``perfbench`` oracle workload with every
parameter at the same point u of its range, u = 0.1, 0.5 and 0.9, run as
the workload runs it: the states are built inside the timed call, so no
result of an earlier call can be reused.

Recorded for each side:

- ``job_s``: best-of-N time of each case, and ``total_s``, their sum;
- ``minflt``: the median number of minor page faults per case
  (``resource.getrusage``).

``max_rel_dev`` is, for each case, |change - parent| / |parent| of the
oracle value: the group average or the normalization, and
``closed_form_rel_dev`` the same for the closed form of a group-average job.
The ``cross`` jobs return a cross-sector block that is round-off, so
``max_abs_dev`` records |change - parent| for them instead.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
from pathlib import Path

from bench_scan_kernel import ROOT, alternate, load_sides, machine

from perfbench.workloads import (NORM_WINDOW, ORACLE_SLICES, ORACLE_WINDOW, OracleWorkload,
                                 odd_amplitude, two_bump_amplitude)

POINTS = (0.1, 0.5, 0.9)


def run_job(pkg, job):
    """The job body of ``OracleWorkload.run``, on the package ``pkg``."""
    grids, distribution = pkg["grids"], pkg["distribution"]
    g = grids.default_grid(0.0)
    if job["kind"] == "ga":
        if job["state"] == "dsq":
            psi = grids.make_displaced_squeezed(job["a"], job["z"], grid=g)
        else:
            amp = (odd_amplitude(job["width"]) if job["state"] == "odd"
                   else two_bump_amplitude(job["b"]))
            psi = grids.make_sampled(g, amp(g.nodes))
        num = distribution.group_average_sandwich(psi, psi, psi, psi, ORACLE_WINDOW,
                                                  r_resolution=ORACLE_SLICES)
        return num, distribution.closed_form_sandwich(psi, psi, psi, psi)
    if job["kind"] == "cross":
        odd = grids.make_sampled(g, odd_amplitude(job["width"])(g.nodes))
        u = grids.make_displaced_squeezed(job["b"], job["z"], grid=g)
        v = grids.make_displaced_squeezed(-job["b"], job["z"], grid=g)
        return (distribution.group_average_sandwich(odd, odd, u, v, ORACLE_WINDOW,
                                                    r_resolution=ORACLE_SLICES),)
    psi = grids.make_coherent(job["a"], grid=g)
    seed = pkg["povm"].build_ml_seed(psi)
    return (distribution.normalization_check(seed, psi, NORM_WINDOW,
                                             r_resolution=ORACLE_SLICES),)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="src directory of the checkout to compare against")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_oracle.json")
    args = parser.parse_args(argv)

    sides = load_sides(args.parent)
    record = {side: {"job_s": {}, "minflt": {}} for side in sides}
    deviation = {"max_rel_dev": {}, "max_abs_dev": {}, "closed_form_rel_dev": {}}
    workload = OracleWorkload(seed=0, workdir=".", n_blocks=1)
    for slot in dict.fromkeys(OracleWorkload.slots):
        for u in POINTS:
            case = f"{slot}@{u}"
            job = getattr(workload, f"gen_{slot}")((u, u, u))
            calls = {side: functools.partial(run_job, pkg, job) for side, pkg in sides.items()}
            outs, times, faults = alternate(calls, args.repeats)
            for side in sides:
                record[side]["job_s"][case] = min(times[side])
                record[side]["minflt"][case] = statistics.median(faults[side])
            old, new = outs["parent"], outs["change"]
            if job["kind"] == "cross":
                deviation["max_abs_dev"][case] = abs(new[0] - old[0])
            else:
                deviation["max_rel_dev"][case] = abs(new[0] - old[0]) / abs(old[0])
            if job["kind"] == "ga":
                deviation["closed_form_rel_dev"][case] = abs(new[1] - old[1]) / abs(old[1])
    for side in sides:
        record[side]["total_s"] = sum(record[side]["job_s"].values())

    result = {"script": "tools/bench_oracle.py", "machine": machine(),
              "repeats": args.repeats, "points": POINTS, **record, **deviation}
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for case, old in record["parent"]["job_s"].items():
        new = record["change"]["job_s"][case]
        devs = " ".join(f"{key} {values[case]:.2g}" for key, values in deviation.items()
                        if case in values)
        print(f"{case:22s} {old:9.4f} -> {new:9.4f} s  ({new / old:5.2f}x)  {devs}")
    print(f"total_s {record['parent']['total_s']:.3f} -> {record['change']['total_s']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
