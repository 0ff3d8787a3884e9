"""Seeded job lists, job bodies and correctness gates of the three workloads.

Every workload is a closed loop with one client.  Its job list is a fixed
number of blocks of fixed slots: each block holds the same job kinds in the
same order, and only the parameters inside a slot's fixed range come from
the seed.  Those parameters are stratified over the run: the n jobs of a
slot take the midpoint of each n-th of every range once, and the seed sets
which values meet in one job and in what order.  Any run therefore sees the same job mix and
covers the same ranges whatever its seed.  ``run`` is the timed job body;
``check`` is the correctness gate and runs outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
from sqdisp import asymptotics, cli, distribution, grids, group, povm

ROOT = Path(__file__).resolve().parents[1]
CLI_ENTRY = Path(__file__).resolve().parent / "cli_entry.py"

ORACLE_WINDOW = (-12.0, 12.0, -8.0, 8.0)
NORM_WINDOW = (-1000.0, 1000.0, -8.0, 9.0)
ORACLE_SLICES = 128   # r slices per oracle call (the library default is 1024)
SPOT_POINTS = 4
GRID_N = 4096
CLI_TIMEOUT_S = 60    # a CLI job that runs longer is stopped and counts as failed


class Verdict:
    """Gate outcome of one job: ``ok`` is False for any miss."""

    def __init__(self, ok=True, detail="", accuracy=None):
        self.ok = ok
        self.detail = detail
        self.accuracy = accuracy or {}


def fail(detail, accuracy=None):
    return Verdict(False, detail, accuracy)


def gaussian_half_weights(a, z):
    """w_s = <psi| |Y| theta(sY) |psi> of the Gaussian family, exactly."""
    sigma = 0.5 * math.exp(-z)
    t = a / sigma
    tail = 0.5 * math.erfc(t / math.sqrt(2.0))   # P(Y < 0)
    pdf = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return a * (1.0 - tail) + sigma * pdf, max(sigma * pdf - a * tail, 0.0)


def sampled_half_weights(amplitude, y_max, n=2**17):
    """w_s of an analytic amplitude by a fine midpoint sum on [-y_max, y_max]."""
    dy = 2.0 * y_max / n
    y = -y_max + (np.arange(n) + 0.5) * dy
    dens = np.abs(amplitude(y)) ** 2
    dens /= dens.sum() * dy
    return (float((y * dens)[y > 0].sum() * dy),
            float((-y * dens)[y < 0].sum() * dy))


def ml_likelihood(w_plus, w_minus):
    return (math.sqrt(w_plus) + math.sqrt(w_minus)) ** 2 / math.pi


def odd_amplitude(width):
    return lambda y: y * np.exp(-(y / width) ** 2)


def two_bump_amplitude(b):
    return lambda y: np.exp(-(y - b) ** 2) + np.exp(-(y + b) ** 2)


def close(value, ref, rtol):
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def default_y_max(a=0.0, z=0.0):
    return grids.default_grid(a, z).y_max


def default_window(kind, a=0.0, z=0.0):
    """The window ``sqdisp density`` picks for a state."""
    return cli.default_window(cli.RunConfig(state=kind, a=a, z=z))


def lerp(lo, hi, u):
    return lo + (hi - lo) * u


class Workload:
    name = ""
    slots = ()
    block_s = 1.0        # seconds one block takes on the reference VM (README.md)
    known_defects = ()   # slots whose failure is a documented, still open defect

    def __init__(self, seed, workdir, n_blocks):
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.n_blocks = n_blocks
        self.blocks = 0      # blocks drawn so far; the index of the one being drawn
        self.first_block = []
        self.draws = {}

    @classmethod
    def blocks_for(cls, seconds, trace):
        """Blocks in a run of about ``seconds`` on the reference VM; a traced
        run runs every job twice."""
        return max(1, round(seconds / (cls.block_s * (2 if trace else 1))))

    def setup(self):
        """Draw the parameters, the first block and warm up; all count as set-up."""
        self.draws = self.stratified_draws()
        self.first_block = self.next_block()
        self.warm_up()

    def stratified_draws(self):
        """Three uniforms for every job of every slot, as a centred Latin
        hypercube: each coordinate of a slot's n draws takes every midpoint
        (k + 1/2)/n once, and the seed sets their order in each coordinate,
        that is, the order of the jobs and which values meet in one job.  So
        every run covers each range the same way, and the cost of a run
        hardly varies by seed."""
        draws = {}
        for slot in dict.fromkeys(self.slots):
            n = self.n_blocks * self.slots.count(slot)
            columns = []
            for _ in range(3):
                column = [(k + 0.5) / n for k in range(n)]
                self.rng.shuffle(column)
                columns.append(column)
            draws[slot] = list(zip(*columns))
        return draws

    def next_block(self):
        block = []
        for i, slot in enumerate(self.slots):
            job = getattr(self, f"gen_{slot}")(self.draws[slot].pop())
            job.update(id=self.blocks * len(self.slots) + i, slot=slot)
            block.append(job)
        self.blocks += 1
        return block

    def warm_up(self):
        pass

    def jobs(self):
        """The seeded job list, block by block; each later block is drawn
        when the run reaches it, outside any job's timed region."""
        yield from self.first_block
        while self.blocks < self.n_blocks:
            yield from self.next_block()

    def absorb(self, tracer, outcome):
        """Merge spans a traced job recorded elsewhere (CLI children)."""

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- scan ----


class ScanWorkload(Workload):
    """Estimation-density maps: seed, scan on the default window, argmax and
    moments.  Three slots make the scan resample before its row loop: two
    start from a coarse n=1024 grid, and one has a displaced-squeezed state
    whose window needs the 8192-node cap.

    Each slot's parameter ranges are fixed so that every state in them
    needs the same grid (``nodes``) under ``distribution._refine_for_window``
    as it stands; README.md lists them.  The gate computes its reference on
    that grid, so a change to the refinement rule shows as a gate miss."""

    name = "scan"
    slots = ("coherent_128", "vacuum_64", "dsq_refined_64", "two_bump_96",
             "coarse_coherent_128", "dsq_96", "odd_64", "coarse_vacuum_128")
    block_s = 14.0

    def warm_up(self):
        psi = grids.make_vacuum(grids.QuadratureGrid(10.0, 512))
        dmap = distribution.scan(povm.build_ml_seed(psi), psi, (-2, 2, -2, 2), 16)
        distribution.argmax(dmap)

    def _gaussian(self, kind, a_range, z_range, n, res, nodes, u):
        a, z = lerp(*a_range, u[0]), lerp(*z_range, u[1])
        return dict(kind=kind, a=a, z=z, n=n, res=res, nodes=nodes,
                    window=default_window(kind, a, z), y_max=default_y_max(a, z))

    def gen_coherent_128(self, u):
        return self._gaussian("coherent", (3.0, 15.0), (0.0, 0.0), GRID_N, 128, GRID_N, u)

    def gen_vacuum_64(self, u):
        return self._gaussian("vacuum", (0.0, 0.0), (0.0, 0.0), GRID_N, 64, GRID_N, u)

    def gen_dsq_refined_64(self, u):
        return self._gaussian("displaced-squeezed", (2.0, 2.1), (-0.2, 0.0), GRID_N, 64,
                              2 * GRID_N, u)

    def gen_dsq_96(self, u):
        return self._gaussian("displaced-squeezed", (4.0, 8.0), (-0.6, 0.6), GRID_N, 96,
                              GRID_N, u)

    def gen_coarse_coherent_128(self, u):
        return self._gaussian("coherent", (3.0, 4.7), (0.0, 0.0), 1024, 128, 2048, u)

    def gen_coarse_vacuum_128(self, u):
        return self._gaussian("vacuum", (0.0, 0.0), (0.0, 0.0), 1024, 128, GRID_N, u)

    def gen_two_bump_96(self, u):
        b = lerp(2.5, 4.0, u[0])
        return dict(kind="two-bump", b=b, n=GRID_N, res=96, y_max=10.0, nodes=GRID_N,
                    window=default_window("sampled-file", b))

    def gen_odd_64(self, u):
        # ``a`` only sets the window scale, as --a does for a sampled file
        return dict(kind="odd", width=lerp(0.7, 2.5, u[0]), n=GRID_N, res=64, y_max=10.0,
                    nodes=GRID_N, window=default_window("sampled-file", lerp(2.0, 3.0, u[1])))

    def build_state(self, job):
        grid = grids.QuadratureGrid(job["y_max"], job["n"])
        kind = job["kind"]
        if kind == "vacuum":
            return grids.make_vacuum(grid)
        if kind == "coherent":
            return grids.make_coherent(job["a"], grid=grid)
        if kind == "displaced-squeezed":
            return grids.make_displaced_squeezed(job["a"], job["z"], grid=grid)
        amp = odd_amplitude(job["width"]) if kind == "odd" else two_bump_amplitude(job["b"])
        return grids.make_sampled(grid, amp(grid.nodes))

    def run(self, job, tracer=None):
        psi = self.build_state(job)
        seed = povm.build_ml_seed(psi)
        dmap = distribution.scan(seed, psi, job["window"], job["res"])
        peak = distribution.argmax(dmap)
        stats = distribution.moments(dmap) if dmap.mass > 0.9 else None
        return psi, seed, dmap, peak, stats

    def check(self, job, outcome):
        psi, seed, dmap, peak, stats = outcome
        values = dmap.values
        if not np.all(np.isfinite(values)) or values.min() < 0:
            return fail("scan values not finite and non-negative")
        if not dmap.mass <= 1.0 + 1e-6:
            return fail(f"mass {dmap.mass} exceeds 1")
        if not all(math.isfinite(v) for v in peak):
            return fail("argmax not finite")
        # reference: density_at on the grid the slot's window needs
        fine = grids.QuadratureGrid(psi.grid.y_max, job["nodes"])
        ref_seed, ref_psi = seed.on_grid(fine), psi.with_grid(fine)
        spot_rng = np.random.default_rng([self.seed, job["id"]])
        bulk = np.argwhere(values >= 1e-3 * values.max())
        picks = [np.unravel_index(int(np.argmax(values)), values.shape)]
        picks += [tuple(p) for p in bulk[spot_rng.choice(len(bulk), SPOT_POINTS)]]
        worst = 0.0
        for i, j in picks:
            g = group.GroupElement(float(dmap.x_nodes[i]), float(dmap.r_nodes[j]))
            ref = distribution.density_at(ref_seed, ref_psi, g)
            worst = max(worst, abs(values[i, j] - ref) / abs(ref))
        accuracy = {"distribution.scan.max_rel_dev": worst}
        if not worst <= 1e-6:
            return fail(f"scan vs density_at {worst:.2e}", accuracy)
        gaussian = job["kind"] in ("coherent", "displaced-squeezed")
        if gaussian and job["a"] * math.exp(job["z"]) >= 10.0 and stats is not None:
            dx, dr = asymptotics.rms_predictions(job["a"], job["z"])
            if not (close(stats.delta_x, dx, 0.05) and close(stats.delta_r, dr, 0.05)):
                return fail("widths off the asymptotic law", accuracy)
        return Verdict(accuracy=accuracy)


# -------------------------------------------------------------- oracle ----


class OracleWorkload(Workload):
    """Brute-force validation oracles: group averages against the closed
    form, the cross-sector term, and POVM normalization checks."""

    name = "oracle"
    slots = ("ga_dsq_wide", "ga_odd", "norm_vacuum", "cross", "norm_coherent",
             "ga_two_bump", "ga_dsq_narrow", "norm_coherent")
    block_s = 7.5

    def warm_up(self):
        self.grid = grids.default_grid(0.0)
        psi = grids.make_vacuum(self.grid)
        distribution.normalization_check(povm.build_ml_seed(psi), psi,
                                         NORM_WINDOW, r_resolution=16)

    # a e^z >= 3 keeps a displaced-squeezed state admissible (negligible
    # mass near y = 0); z >= 0 sends most r slices down the direct branch
    def gen_ga_dsq_wide(self, u):
        z = lerp(0.0, 0.4, u[0])
        return dict(kind="ga", state="dsq", z=z,
                    a=lerp(max(2.5, 3.0 * math.exp(-z)), 5.0, u[1]))

    def gen_ga_dsq_narrow(self, u):
        z = lerp(-0.4, 0.0, u[0])
        return dict(kind="ga", state="dsq", z=z, a=lerp(3.0 * math.exp(-z), 5.0, u[1]))

    def gen_ga_odd(self, u):
        return dict(kind="ga", state="odd", width=lerp(0.7, 2.5, u[0]))

    def gen_ga_two_bump(self, u):
        return dict(kind="ga", state="two-bump", b=lerp(2.5, 4.0, u[0]))

    def gen_cross(self, u):
        return dict(kind="cross", width=lerp(0.7, 2.5, u[0]), b=lerp(2.5, 3.5, u[1]),
                    z=lerp(0.5, 0.9, u[2]))

    def gen_norm_vacuum(self, u):
        return dict(kind="norm", a=0.0)

    def gen_norm_coherent(self, u):
        return dict(kind="norm", a=lerp(0.5, 3.0, u[0]))

    def state(self, job):
        g = self.grid
        if job["state"] == "dsq":
            return grids.make_displaced_squeezed(job["a"], job["z"], grid=g)
        amp = odd_amplitude(job["width"]) if job["state"] == "odd" else two_bump_amplitude(job["b"])
        return grids.make_sampled(g, amp(g.nodes))

    def run(self, job, tracer=None):
        g = self.grid
        if job["kind"] == "ga":
            psi = self.state(job)
            num = distribution.group_average_sandwich(psi, psi, psi, psi, ORACLE_WINDOW,
                                                      r_resolution=ORACLE_SLICES)
            return num, distribution.closed_form_sandwich(psi, psi, psi, psi)
        if job["kind"] == "cross":
            odd = grids.make_sampled(g, odd_amplitude(job["width"])(g.nodes))
            u = grids.make_displaced_squeezed(job["b"], job["z"], grid=g)
            v = grids.make_displaced_squeezed(-job["b"], job["z"], grid=g)
            return distribution.group_average_sandwich(odd, odd, u, v, ORACLE_WINDOW,
                                                       r_resolution=ORACLE_SLICES), None
        psi = grids.make_coherent(job["a"], grid=g)
        seed = povm.build_ml_seed(psi)
        return distribution.normalization_check(seed, psi, NORM_WINDOW,
                                                r_resolution=ORACLE_SLICES), None

    def check(self, job, outcome):
        value, ref = outcome
        if job["kind"] == "ga":
            err = abs(value - ref) / abs(ref)
            return Verdict(err < 0.01, f"relative error {err:.2e}",
                           {"distribution.group_average.max_rel_err": err})
        if job["kind"] == "cross":
            return Verdict() if abs(value) < 1e-6 else fail(f"cross-sector {abs(value):.2e}")
        return Verdict() if abs(value - 1.0) <= 1e-2 else fail(f"normalization {value}")


# ----------------------------------------------------------------- cli ----

DENSITY_KEYS = {"likelihood", "argmax_x", "argmax_r", "mean_x", "mean_r", "delta_x",
                "delta_r", "mass", "seed_kind", "state"}
LIKELIHOOD_KEYS = {"likelihood", "seed_kind", "state", "w_plus", "w_minus", "certificates"}
COMPARE_KEYS = {"l_opt", "l_srm", "ratio"}
ASYMPTOTICS_KEYS = {"a", "z", "delta_x", "delta_r", "delta_x_opt", "delta_r_opt",
                    "product_ratio", "isotropic_a", "isotropic_z", "fig_split_a",
                    "fig_split_z", "nbar"}
TWO_MODE_KEYS = {"lam", "n_max", "width_x", "width_r", "mean_energy", "norm_deviation",
                 "parity_violation", "cross_overlap"}
BAD_CONFIGS = (
    ["two-mode", "--lam", "1.5"],
    ["density", "--state", "vacuum", "--x-lo", "2", "--x-hi", "1",
     "--r-lo", "0", "--r-hi", "1"],
    ["likelihood", "--state", "sampled-file"],
)
LAMBDAS = (0.9, 0.95, 0.99)
DENSITY_RANGES = {"vacuum": ((0.0, 0.0), (0.0, 0.0)),
                  "coherent": ((2.5, 8.0), (0.0, 0.0)),
                  "displaced-squeezed": ((4.0, 8.0), (-0.6, 0.6))}


class CliWorkload(Workload):
    """One ``python -m sqdisp.cli`` process per job.  Set-up writes the
    sampled-state CSVs, among them one with a ``nan`` amplitude."""

    name = "cli"
    known_defects = ("nan_sampled",)
    slots = ("likelihood_ml", "two_mode", "compare", "density", "likelihood_sampled",
             "likelihood_parity", "compare_vacuum", "density_refined", "asymptotics",
             "likelihood_srm", "bad_config", "density_sampled", "nan_sampled")
    block_s = 13.0

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.samples = {}
        for kind in ("odd", "two-bump", "coherent", "nan"):
            self.samples[kind] = self._write_sample(kind)
        self.counter = 0
        super().setup()

    def _write_sample(self, kind):
        """CSV y,re,im on a midpoint-offset grid; returns its path and reference."""
        rng = self.rng
        if kind == "odd":
            param = rng.uniform(0.7, 2.5)
            amp, y_max = odd_amplitude(param), 10.0
        elif kind == "coherent":
            param = rng.uniform(3.0, 6.0)
            amp, y_max = (lambda y, a=param: np.exp(-(y - a) ** 2)), default_y_max(param)
        else:
            param = rng.uniform(2.5, 4.0)
            amp, y_max = two_bump_amplitude(param), 10.0
        dy = 2.0 * y_max / GRID_N
        y = -y_max + (np.arange(GRID_N) + 0.5) * dy
        values = amp(y)
        if kind == "nan":
            values[GRID_N // 3] = np.nan
        path = self.workdir / f"state-{kind}.csv"
        rows = "\n".join(f"{yy:.17g},{vv:.17g},0" for yy, vv in zip(y, values))
        path.write_text("y,re,im\n" + rows + "\n")
        weights = None if kind == "nan" else sampled_half_weights(amp, y_max)
        return dict(path=str(path), param=param, weights=weights)

    def warm_up(self):
        subprocess.run([sys.executable, "-m", "sqdisp.cli", "asymptotics"],
                       capture_output=True, env=self.env, cwd=ROOT, check=True)

    def _gaussian_args(self, kind, a=0.0, z=0.0):
        if kind == "vacuum":
            return ["--state", "vacuum"], gaussian_half_weights(0.0, 0.0)
        if kind == "coherent":
            return ["--state", "coherent", "--a", repr(a)], gaussian_half_weights(a, 0.0)
        return (["--state", "displaced-squeezed", "--a", repr(a), "--z", repr(z)],
                gaussian_half_weights(a, z))

    @staticmethod
    def _srm_params(u):
        # the square-root seed needs sector mass below 1e-14 at y < 0,
        # which a e^z >= 4.5 gives
        return lerp(4.5, 8.0, u[0]), lerp(0.0, 0.5, u[1])

    def gen_likelihood_ml(self, u):
        args, w = self._gaussian_args("coherent", lerp(1.0, 12.0, u[0]))
        return dict(sub="likelihood", argv=["likelihood", *args, "--seed-kind", "ml"],
                    code=(0,), seed_kind="ml", weights=w)

    def gen_likelihood_parity(self, u):
        a = lerp(0.5, 8.0, u[0]) if self.blocks % 2 else 0.0
        args, w = self._gaussian_args("coherent" if a else "vacuum", a)
        return dict(sub="likelihood", argv=["likelihood", *args, "--seed-kind", "ml-parity"],
                    code=(0,), seed_kind="ml-parity", weights=w)

    def gen_likelihood_srm(self, u):
        args, w = self._gaussian_args("displaced-squeezed", *self._srm_params(u))
        return dict(sub="likelihood", argv=["likelihood", *args, "--seed-kind", "srm"],
                    code=(0,), seed_kind="srm", weights=w)

    def gen_likelihood_sampled(self, u):
        sample = self.samples[("odd", "two-bump", "coherent")[self.blocks % 3]]
        return dict(sub="likelihood", code=(0,), seed_kind="ml", weights=sample["weights"],
                    argv=["likelihood", "--state", "sampled-file",
                          "--sampled-path", sample["path"]])

    def gen_compare(self, u):
        kind = ("coherent", "displaced-squeezed")[self.blocks % 2]
        a, z = self._srm_params(u)
        args, w = self._gaussian_args(kind, a, 0.0 if kind == "coherent" else z)
        return dict(sub="compare-srm", argv=["compare-srm", *args], code=(0,), weights=w)

    def gen_compare_vacuum(self, u):
        return dict(sub="compare-srm", argv=["compare-srm", "--state", "vacuum"], code=(3,),
                    stderr="DomainViolation")

    def gen_asymptotics(self, u):
        a, z, nbar = lerp(3.0, 20.0, u[0]), lerp(-0.5, 0.5, u[1]), lerp(10.0, 200.0, u[2])
        return dict(sub="asymptotics", code=(0,), a=a, z=z, nbar=nbar,
                    argv=["asymptotics", "--a", repr(a), "--z", repr(z),
                          "--nbar", repr(nbar)])

    def gen_two_mode(self, u):
        lam = LAMBDAS[self.blocks % len(LAMBDAS)]
        return dict(sub="two-mode", argv=["two-mode", "--lam", repr(lam)], code=(0,), lam=lam)

    def _density(self, kind, a_range, z_range, u):
        args, w = self._gaussian_args(kind, lerp(*a_range, u[0]), lerp(*z_range, u[1]))
        res = 32 + int(17 * u[2])
        return dict(sub="density", argv=["density", *args, "--resolution", str(res)],
                    code=(0,), weights=w, res=res, csv=True)

    def gen_density(self, u):
        # ranges where the window needs no resampling (README.md)
        kind = ("vacuum", "coherent", "displaced-squeezed")[self.blocks % 3]
        return self._density(kind, *DENSITY_RANGES[kind], u)

    def gen_density_refined(self, u):
        # a displaced-squeezed state whose window needs 8192 nodes
        return self._density("displaced-squeezed", (2.0, 2.1), (-0.2, 0.0), u)

    def gen_density_sampled(self, u):
        sample = self.samples["two-bump"]
        return dict(sub="density", code=(0,), weights=sample["weights"], res=32, csv=True,
                    argv=["density", "--state", "sampled-file", "--sampled-path",
                          sample["path"], "--a", repr(sample["param"]), "--resolution", "32"])

    def gen_bad_config(self, u):
        argv = BAD_CONFIGS[self.blocks % len(BAD_CONFIGS)]
        return dict(sub=argv[0], argv=list(argv), code=(2,), stderr="config error")

    def gen_nan_sampled(self, u):
        # documented outcome: a typed rejection (exit 2 or 3)
        return dict(sub="likelihood", code=(2, 3), stderr="",
                    argv=["likelihood", "--state", "sampled-file",
                          "--sampled-path", self.samples["nan"]["path"]])

    def run(self, job, tracer=None):
        self.counter += 1
        argv = list(job["argv"])
        csv = None
        if job.get("csv"):
            csv = self.workdir / f"density-{self.counter}.csv"
            argv += ["--out-csv", str(csv)]
        spans = None
        if tracer is None:
            cmd = [sys.executable, "-m", "sqdisp.cli", *argv]
        else:
            spans = self.workdir / f"spans-{self.counter}.jsonl"
            cmd = [sys.executable, str(CLI_ENTRY), str(spans), str(job["id"]), "--", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=CLI_TIMEOUT_S)
        return dict(code=proc.returncode, out=proc.stdout, err=proc.stderr, csv=csv,
                    spans=spans)

    def absorb(self, tracer, outcome):
        path = outcome["spans"]
        if path is None or not path.exists():
            return
        offset = len(tracer.spans)
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        path.unlink()
        for s in spans:
            parent = s["parent"]
            tracer.spans.append([s["name"], s["start"], s["end"],
                                 None if parent is None else parent + offset,
                                 s["job"], s["work"]])

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self, job, outcome):
        try:
            return self._check(job, outcome)
        finally:
            if outcome["csv"] is not None and outcome["csv"].exists():
                outcome["csv"].unlink()

    def _check(self, job, outcome):
        code = outcome["code"]
        if code not in job["code"]:
            tail = outcome["err"].strip().splitlines()[-1:] or [""]
            return fail(f"exit {code}, expected {job['code']}: {tail[0]}")
        if code != 0:
            return Verdict() if job["stderr"] in outcome["err"] else fail("stderr lacks reason")
        try:
            payload = json.loads(outcome["out"])
        except ValueError:
            return fail("stdout is not JSON")
        return getattr(self, "_check_" + job["sub"].replace("-", "_"))(job, payload, outcome)

    def _check_likelihood(self, job, p, outcome):
        if set(p) != LIKELIHOOD_KEYS or p["seed_kind"] != job["seed_kind"]:
            return fail(f"likelihood keys {sorted(p)}")
        w_plus, w_minus = job["weights"]
        scale = w_plus + w_minus
        if abs(p["w_plus"] - w_plus) > 1e-6 * scale or abs(p["w_minus"] - w_minus) > 1e-6 * scale:
            return fail("sector weights off the closed form")
        if any(abs(c - 1.0) > 1e-6 for c in p["certificates"].values()):
            return fail("certificate off 1")
        l_opt = ml_likelihood(w_plus, w_minus)
        if job["seed_kind"] == "ml":
            ok = close(p["likelihood"], l_opt, 1e-6)
        elif job["seed_kind"] == "ml-parity":
            ok = close(p["likelihood"], scale / math.pi, 1e-6)
        else:
            ok = 0.5 * l_opt < p["likelihood"] <= l_opt * (1 + 1e-9)
        return Verdict() if ok else fail(f"likelihood {p['likelihood']} vs {l_opt}")

    def _check_compare_srm(self, job, p, outcome):
        if set(p) != COMPARE_KEYS:
            return fail(f"compare-srm keys {sorted(p)}")
        ok = (close(p["l_opt"], ml_likelihood(*job["weights"]), 1e-6)
              and p["ratio"] <= 1.0 + 1e-9
              and close(p["ratio"], p["l_srm"] / p["l_opt"], 1e-12))
        return Verdict() if ok else fail(f"compare-srm {p}")

    def _check_asymptotics(self, job, p, outcome):
        if set(p) != ASYMPTOTICS_KEYS:
            return fail(f"asymptotics keys {sorted(p)}")
        a, z, nbar = job["a"], job["z"], job["nbar"]
        ia, iz = p["isotropic_a"], p["isotropic_z"]
        ok = (close(p["delta_x"], math.exp(z) / math.sqrt(2.0), 1e-12)
              and close(p["delta_r"], 1.0 / (math.sqrt(2.0) * a * math.exp(z)), 1e-12)
              and close(p["product_ratio"], 2.0, 1e-12)
              and close(ia, math.exp(-2.0 * iz), 1e-9)
              and close(ia * ia + math.sinh(iz) ** 2, nbar, 1e-9)
              and close(p["fig_split_a"], math.sqrt(nbar - math.sqrt(nbar)), 1e-12)
              and close(p["fig_split_z"], -math.asinh(nbar ** 0.25), 1e-12))
        return Verdict() if ok else fail(f"asymptotics {p}")

    def _check_two_mode(self, job, p, outcome):
        if set(p) != TWO_MODE_KEYS:
            return fail(f"two-mode keys {sorted(p)}")
        ok = (p["lam"] == job["lam"] and p["norm_deviation"] < 1e-8
              and p["parity_violation"] == 0.0 and p["cross_overlap"] <= 0.05
              and p["width_x"] > 0 and p["width_r"] > 0 and p["mean_energy"] > 0)
        return Verdict() if ok else fail(f"two-mode {p}")

    def _check_density(self, job, p, outcome):
        if set(p) != DENSITY_KEYS:
            return fail(f"density keys {sorted(p)}")
        if not (close(p["likelihood"], ml_likelihood(*job["weights"]), 1e-6)
                and 0.0 < p["mass"] <= 1.0 + 1e-6):
            return fail(f"density summary {p}")
        lines = outcome["csv"].read_text().splitlines()
        if lines[0] != "x,r,density" or len(lines) != job["res"] ** 2 + 1:
            return fail("density CSV shape")
        values = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
        if not np.all(np.isfinite(values)) or values.min() < 0:
            return fail("density CSV values not finite and non-negative")
        return Verdict()


WORKLOADS = {w.name: w for w in (ScanWorkload, OracleWorkload, CliWorkload)}
