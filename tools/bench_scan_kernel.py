"""Before/after record of the scan row kernel and of the two-mode profile,
written as BENCH_scan_kernel.json.

    python3 tools/bench_scan_kernel.py --parent OLD_SRC [--repeats N] [--out FILE]

OLD_SRC is the ``src`` directory of the checkout to compare against, for
example ``git archive <commit> src | tar -x -C /tmp/old`` and then
``--parent /tmp/old/src``.  The tree this script sits in is the change.  Both
packages are imported into one process, as ``sqdisp`` and
``sqdisp_parent``, and timed in alternation, so machine load falls on both.

Recorded for each side:

- ``row_s``: best-of-N time of one ``fourier_at`` call on one scan row,
  128 x nodes against 4096 and 8192 quadrature nodes;
- ``scan_s``: best-of-N time of ``distribution.scan`` for each of the eight
  ``perfbench`` scan slot states, at the middle of every parameter range
  (the seed is built once, outside the timing), and ``scan_row_s``, that
  time over the number of r rows;
- ``profile_s``: best-of-N time of ``two_mode.concentration_profile`` at
  the ``sqdisp two-mode`` defaults (n_max 60, a 96 x 96 map over +-1.5, no
  tail check), one slot for each lambda of ``perfbench.workloads.LAMBDAS``;
- ``minflt``: the median number of minor page faults per scan or profile
  call (``resource.getrusage``).

``max_rel_dev`` is the largest |change - parent| / parent over the map
nodes holding at least 1e-3 of the peak, and ``max_abs_dev`` the largest
|change - parent| over the peak, for each scan slot; ``profile_max_rel_dev``
and ``profile_max_abs_dev`` are the same for each profile slot.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.workloads import (LAMBDAS, ScanWorkload, odd_amplitude,  # noqa: E402
                                 two_bump_amplitude)

ROW_NODES = (4096, 8192)
ROW_X = 128
PROFILE = (60, (-1.5, 1.5, -1.5, 1.5), 96)  # n_max, window, resolution


def load(name: str, src: Path):
    """The package under ``src/sqdisp`` imported as ``name``, with its modules."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, src / "sqdisp" / "__init__.py",
            submodule_search_locations=[str(src / "sqdisp")])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("grids", "povm", "distribution", "two_mode")}


def build(pkg, job):
    """State and ML seed of one scan slot job, as ``perfbench`` builds them."""
    grids = pkg["grids"]
    grid = grids.QuadratureGrid(job["y_max"], job["n"])
    kind = job["kind"]
    if kind == "vacuum":
        psi = grids.make_vacuum(grid)
    elif kind == "coherent":
        psi = grids.make_coherent(job["a"], grid=grid)
    elif kind == "displaced-squeezed":
        psi = grids.make_displaced_squeezed(job["a"], job["z"], grid=grid)
    else:
        amp = odd_amplitude(job["width"]) if kind == "odd" else two_bump_amplitude(job["b"])
        psi = grids.make_sampled(grid, amp(grid.nodes))
    return pkg["povm"].build_ml_seed(psi), psi


def load_sides(parent: Path):
    """The parent package under ``parent`` and this tree's, by side name."""
    return {"parent": load("sqdisp_parent", parent.resolve()),
            "change": load("sqdisp", ROOT / "src")}


def machine():
    return {"platform": platform.platform(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


def timed(fn):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    return out, elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def alternate(calls, repeats):
    """Run each side's call ``repeats`` times, the sides in turn, so machine
    load falls on both.  Per side: the last output, and the time and minor
    page faults of every run."""
    outs, times, faults = {}, {side: [] for side in calls}, {side: [] for side in calls}
    for _ in range(repeats):
        for side, call in calls.items():
            outs[side], elapsed, minflt = timed(call)
            times[side].append(elapsed)
            faults[side].append(minflt)
    return outs, times, faults


def row_case(pkg, n):
    """One scan row of the vacuum on n nodes: x' = -e^{-r} x at r = 0.3."""
    grids = pkg["grids"]
    y = grids.QuadratureGrid(10.0, n).nodes
    x = -np.exp(-0.3) * np.linspace(-3.0, 3.0, ROW_X)
    h = np.exp(-y ** 2 - np.exp(-0.6) * y ** 2) * (2.0 * y[1] - 2.0 * y[0])
    return lambda: grids.fourier_at(x, y, h)


def compare(calls, repeats, record, deviation, slot, time_key, prefix=""):
    """Time ``calls`` into ``record[side][time_key][slot]`` and ``minflt``, and
    the change's map against the parent's into ``deviation[prefix + ...][slot]``."""
    maps, times, faults = alternate(calls, repeats)
    for side in calls:
        record[side][time_key][slot] = min(times[side])
        record[side]["minflt"][slot] = statistics.median(faults[side])
    old, new = maps["parent"].values, maps["change"].values
    bulk = old >= 1e-3 * old.max()
    deviation[prefix + "max_rel_dev"][slot] = float(np.max(np.abs(new - old)[bulk] / old[bulk]))
    deviation[prefix + "max_abs_dev"][slot] = float(np.max(np.abs(new - old)) / old.max())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="src directory of the checkout to compare against")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scan_kernel.json")
    args = parser.parse_args(argv)

    sides = load_sides(args.parent)
    record = {side: {"row_s": {}, "scan_s": {}, "scan_row_s": {}, "profile_s": {},
                     "minflt": {}}
              for side in sides}

    for n in ROW_NODES:
        _, times, _ = alternate({side: row_case(pkg, n) for side, pkg in sides.items()},
                                20 * args.repeats)
        for side in sides:
            record[side]["row_s"][str(n)] = min(times[side])

    workload = ScanWorkload(seed=0, workdir=".", n_blocks=1)
    deviation = {key: {} for key in ("max_rel_dev", "max_abs_dev",
                                     "profile_max_rel_dev", "profile_max_abs_dev")}
    for slot in ScanWorkload.slots:
        job = getattr(workload, f"gen_{slot}")((0.5, 0.5, 0.5))
        calls = {side: functools.partial(pkg["distribution"].scan, *build(pkg, job),
                                         job["window"], job["res"])
                 for side, pkg in sides.items()}
        compare(calls, args.repeats, record, deviation, slot, "scan_s")
        for side in sides:
            record[side]["scan_row_s"][slot] = record[side]["scan_s"][slot] / job["res"]

    n_max, window, resolution = PROFILE
    for lam in LAMBDAS:
        calls = {side: lambda pkg=pkg: pkg["two_mode"].concentration_profile(
                     lam, n_max, window, resolution, tail_tol=None).map
                 for side, pkg in sides.items()}
        compare(calls, args.repeats, record, deviation, f"profile_{lam}", "profile_s",
                "profile_")

    result = {
        "script": "tools/bench_scan_kernel.py",
        "machine": machine(),
        "repeats": args.repeats,
        **record,
        **deviation,
    }
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for key in ("row_s", "scan_s", "profile_s", "minflt"):
        for case in record["parent"][key]:
            print(f"{key:8s} {case:20s} {record['parent'][key][case]:12.6g} -> "
                  f"{record['change'][key][case]:12.6g}")
    for key, cases in deviation.items():
        print(f"{key} {max(cases.values()):.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
