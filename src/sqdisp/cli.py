"""Command-line front end.

Subcommands: density, likelihood, compare-srm, asymptotics, two-mode,
validate.  Each ``RunConfig`` field is one option: the flag ``--`` + its name
with ``_`` as ``-``, and the key of that name in a flat key=value config file
(unknown keys rejected).  ``None`` means not given; a flag that ``_READS``
does not list for the subcommand is rejected.  ``--print-config`` dumps the
effective configuration, values not given as empty, so the dump fed back
through ``--config`` reproduces the run.  CSV output carries full double
precision (17 significant digits) and is bit-identical across runs for a
fixed configuration.

Exit codes: 0 success, 1 validation-suite failure, 2 configuration error
(also a config file or output path that cannot be opened), 3 numeric failure,
4 internal error (any other exception, reported on one line).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import asymptotics, distribution, two_mode, validate
from .errors import ConfigError, EstimationError
from .grids import (MAX_NODES, QuadratureGrid, StateVector, default_grid,
                    make_coherent, make_displaced_squeezed, make_sampled,
                    make_vacuum)
from .povm import (KIND_ML, KIND_PARITY, KIND_SRM, build_ml_seed,
                   build_parity_seed, build_srm_seed, optimal_likelihood,
                   srm_likelihood)

STATE_KINDS = ("vacuum", "coherent", "displaced-squeezed", "sampled-file")
SEED_KINDS = (KIND_ML, KIND_SRM, KIND_PARITY)


@dataclass
class RunConfig:
    state: str = field(default="vacuum", metadata={"choices": STATE_KINDS})
    a: float = 0.0
    z: float = 0.0
    sampled_path: Optional[str] = None
    y_max: Optional[float] = None       # None: the state's default grid
    n: Optional[int] = None
    x_lo: Optional[float] = None        # None: the state's default window
    x_hi: Optional[float] = None
    r_lo: Optional[float] = None
    r_hi: Optional[float] = None
    resolution: Optional[int] = None
    seed_kind: str = field(default=KIND_ML, metadata={"choices": SEED_KINDS})
    lam: float = 0.95
    n_max: int = two_mode.DEFAULT_N_MAX
    tail_tol: Optional[float] = None    # None: no truncation check
    nbar: float = 100.0
    out_csv: Optional[str] = None
    out_json: Optional[str] = None

    def validate(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if "choices" in f.metadata and v not in f.metadata["choices"]:
                raise ConfigError(f"unknown {f.name} {v!r}")
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {v}")
        if self.resolution is not None and not 16 <= self.resolution <= math.isqrt(MAX_NODES):
            raise ConfigError(f"resolution must lie in [16, {math.isqrt(MAX_NODES)}], "
                              f"a map of at most {MAX_NODES} cells")
        if not 0.0 < self.lam < 1.0:
            raise ConfigError("lam must lie strictly between 0 and 1")
        if self.y_max is not None and not self.y_max > 0:
            raise ConfigError("y_max must be positive")
        if self.n is not None and not (2 <= self.n <= MAX_NODES and self.n % 2 == 0):
            raise ConfigError(f"n must be an even integer in [2, {MAX_NODES}]")
        if self.tail_tol is not None and not self.tail_tol > 0:
            raise ConfigError("tail_tol must be positive")
        if not self.nbar > 1:
            raise ConfigError("nbar must exceed 1")
        if not two_mode.MIN_N_MAX <= self.n_max < math.isqrt(MAX_NODES):
            raise ConfigError(f"n_max must lie in [{two_mode.MIN_N_MAX}, "
                              f"{math.isqrt(MAX_NODES) - 1}], a coefficient table of at "
                              f"most {MAX_NODES} entries")
        for name in ("z", "r_lo", "r_hi"):
            v = getattr(self, name)
            if v is not None and abs(v) > math.log(MAX_NODES):
                # e^{|v|} would exceed the node count of the largest grid
                raise ConfigError(f"{name} must lie in [-ln {MAX_NODES}, ln {MAX_NODES}] = "
                                  f"±{math.log(MAX_NODES):.4g}")
        if self.state == "sampled-file":
            if not self.sampled_path:
                raise ConfigError("sampled-file state requires sampled_path")
            if self.y_max is not None or self.n is not None:
                raise ConfigError("a sampled file takes its grid from the file; "
                                  "y_max and n do not apply")
        window = (self.x_lo, self.x_hi, self.r_lo, self.r_hi)
        if any(v is not None for v in window):
            if any(v is None for v in window):
                raise ConfigError("window requires all of x_lo, x_hi, r_lo, r_hi")
            if not (self.x_lo < self.x_hi and self.r_lo < self.r_hi):
                raise ConfigError("window must satisfy x_lo < x_hi and r_lo < r_hi")


def _base_type(hint) -> type:
    """int, float or str: the annotation with ``Optional`` taken off."""
    args = [t for t in typing.get_args(hint) if t is not type(None)]
    return args[0] if args else hint


_FIELD_TYPES = {name: _base_type(hint)
                for name, hint in typing.get_type_hints(RunConfig).items()}

_STATE = dict.fromkeys(("state", "a", "z", "sampled_path", "y_max", "n"))
_WINDOW = dict.fromkeys(("x_lo", "x_hi", "r_lo", "r_hi"))

# The options each subcommand reads, each with what the subcommand assumes
# when it is not given (None: RunConfig's default).  Applied after
# validation, so a window given in part is rejected rather than completed.
_READS = {
    "density": {**_STATE, **_WINDOW, "resolution": 128, "seed_kind": None,
                "out_csv": None, "out_json": None},
    "likelihood": {**_STATE, "seed_kind": None, "out_json": None},
    "compare-srm": {**_STATE, "out_json": None},
    "asymptotics": {"a": 10.0, "z": None, "nbar": None, "out_json": None},
    "two-mode": {"lam": None, "n_max": None, "tail_tol": None, "x_lo": -1.5, "x_hi": 1.5,
                 "r_lo": -1.5, "r_hi": 1.5, "resolution": 96, "out_csv": None,
                 "out_json": None},
    "validate": {"n": None},
}


def load_config_file(path: str) -> dict:
    """Values given in a key = value file; an empty value is not given."""
    values = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if not raw:
            continue
        try:
            values[key] = _FIELD_TYPES[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def effective_config(args: argparse.Namespace) -> RunConfig:
    reads = _READS[args.command]
    flags = {key: getattr(args, key) for key in _FIELD_TYPES
             if getattr(args, key) is not None}
    unread = ["--" + key.replace("_", "-") for key in flags if key not in reads]
    if unread:
        raise ConfigError(f"{args.command} does not read {', '.join(unread)}")
    given = load_config_file(args.config) if args.config else {}
    given.update(flags)
    cfg = RunConfig(**given)
    cfg.validate()
    return dataclasses.replace(
        cfg, **{k: v for k, v in reads.items() if v is not None and k not in given})


def print_config(cfg: RunConfig):
    for f in dataclasses.fields(RunConfig):
        v = getattr(cfg, f.name)
        print(f"{f.name} =" if v is None else f"{f.name} = {v}")


def _state_label(cfg: RunConfig) -> str:
    if cfg.state == "vacuum":
        return "vacuum"
    if cfg.state == "coherent":
        return f"coherent(a={cfg.a:g})"
    if cfg.state == "displaced-squeezed":
        return f"displaced-squeezed(a={cfg.a:g}, z={cfg.z:g})"
    return f"sampled-file({cfg.sampled_path})"


def load_sampled_state(path: str) -> StateVector:
    """Read a state from CSV with header y,re,im on a midpoint-offset grid."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read sampled state: {exc}") from exc
    if data.shape[1] not in (2, 3):
        raise ConfigError("sampled state file needs columns y,re[,im]")
    y = data[:, 0]
    n = len(y)
    if n < 2 or n % 2:
        raise ConfigError("sampled state needs an even number of rows")
    dy = y[1] - y[0]
    y_max = y[-1] + dy / 2.0
    amps = data[:, 1] + (1j * data[:, 2] if data.shape[1] == 3 else 0.0)
    try:
        grid = QuadratureGrid(y_max, n)
        if not np.allclose(grid.nodes, y, rtol=0, atol=1e-9 * max(y_max, 1.0)):
            raise ConfigError("sampled state nodes are not a midpoint-offset grid")
        return make_sampled(grid, amps)
    except ValueError as exc:
        raise ConfigError(f"bad sampled state {path}: {exc}") from exc


def build_state(cfg: RunConfig) -> StateVector:
    grid = None
    if cfg.y_max is not None or cfg.n is not None:
        base = default_grid(cfg.a if cfg.state != "vacuum" else 0.0,
                            cfg.z if cfg.state == "displaced-squeezed" else 0.0, cfg.n)
        grid = QuadratureGrid(base.y_max if cfg.y_max is None else cfg.y_max, base.n)
    if cfg.state == "vacuum":
        return make_vacuum(grid)
    if cfg.state == "coherent":
        return make_coherent(cfg.a, grid=grid)
    if cfg.state == "displaced-squeezed":
        return make_displaced_squeezed(cfg.a, cfg.z, grid=grid)
    return load_sampled_state(cfg.sampled_path)


def build_seed(cfg: RunConfig, psi: StateVector):
    if cfg.seed_kind == KIND_ML:
        return build_ml_seed(psi)
    if cfg.seed_kind == KIND_SRM:
        return build_srm_seed(psi)
    return build_parity_seed(psi)


def default_window(cfg: RunConfig) -> Tuple[float, float, float, float]:
    if cfg.x_lo is not None:
        return (cfg.x_lo, cfg.x_hi, cfg.r_lo, cfg.r_hi)
    if cfg.state == "vacuum":
        return (-3.0, 3.0, -3.0, 3.0)
    scale = abs(cfg.a) * math.exp(cfg.z if cfg.state == "displaced-squeezed" else 0.0)
    r_half = 6.0 / max(scale, 1.0)
    x_half = 4.0 * math.exp(cfg.z) if cfg.state == "displaced-squeezed" else 4.0
    return (-max(x_half, 2.0), max(x_half, 2.0), -r_half, r_half)


def write_csv(path: str, dmap: distribution.DensityMap):
    lines = ["x,r,density"]
    for i, x in enumerate(dmap.x_nodes):
        for j, r in enumerate(dmap.r_nodes):
            lines.append(f"{x:.17g},{r:.17g},{dmap.values[i, j]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path: Optional[str], payload: dict):
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def run_density(cfg: RunConfig) -> int:
    psi = build_state(cfg)
    seed = build_seed(cfg, psi)
    window = default_window(cfg)
    dmap = distribution.scan(seed, psi, window, cfg.resolution)
    # statistics over the scanned window; moments() would also demand mass > 0.9
    stats = distribution.window_statistics(dmap)
    summary = {
        "likelihood": seed.likelihood,
        "argmax_x": stats.argmax_x,
        "argmax_r": stats.argmax_r,
        "mean_x": stats.mean_x,
        "mean_r": stats.mean_r,
        "delta_x": stats.delta_x,
        "delta_r": stats.delta_r,
        "mass": dmap.mass,
        "seed_kind": seed.kind,
        "state": _state_label(cfg),
    }
    if cfg.out_csv:
        write_csv(cfg.out_csv, dmap)
    write_json(cfg.out_json, summary)
    return 0


def run_likelihood(cfg: RunConfig) -> int:
    psi = build_state(cfg)
    seed = build_seed(cfg, psi)
    write_json(cfg.out_json, {
        "likelihood": seed.likelihood,
        "seed_kind": seed.kind,
        "state": _state_label(cfg),
        "w_plus": seed.w_plus,
        "w_minus": seed.w_minus,
        "certificates": seed.certificates,
    })
    return 0


def run_compare(cfg: RunConfig) -> int:
    psi = build_state(cfg)
    l_opt = optimal_likelihood(psi)
    l_srm = srm_likelihood(psi)
    ratio = l_srm / l_opt
    if ratio > 1.0 + 1e-9:
        raise EstimationError(f"L_srm/L_opt = {ratio} exceeds 1")
    write_json(cfg.out_json, {"l_opt": l_opt, "l_srm": l_srm, "ratio": ratio})
    return 0


def run_asymptotics(cfg: RunConfig) -> int:
    if not cfg.a > 0:
        raise ConfigError(f"asymptotics needs a > 0, got {cfg.a}")
    dx, dr = asymptotics.rms_predictions(cfg.a, cfg.z)
    ox, orr = asymptotics.separate_optima(cfg.a, cfg.z)
    iso = asymptotics.isotropic_params(cfg.nbar)
    write_json(cfg.out_json, {
        "a": cfg.a,
        "z": cfg.z,
        "delta_x": dx,
        "delta_r": dr,
        "delta_x_opt": ox,
        "delta_r_opt": orr,
        "product_ratio": (dx * dr) / (ox * orr),
        "isotropic_a": iso.a,
        "isotropic_z": iso.z,
        "fig_split_a": iso.fig_a,
        "fig_split_z": iso.fig_z,
        "nbar": cfg.nbar,
    })
    return 0


def run_two_mode(cfg: RunConfig) -> int:
    window = (cfg.x_lo, cfg.x_hi, cfg.r_lo, cfg.r_hi)
    prof = two_mode.concentration_profile(cfg.lam, cfg.n_max, window,
                                          cfg.resolution, tail_tol=cfg.tail_tol)
    plus = prof.plus
    # coeffs = N lambda^{n+m} c_nm, so odd n + m is as exactly zero as c_nm
    parity_max = float(np.max(np.abs(plus.coeffs[two_mode._degrees(cfg.n_max) % 2 == 1])))
    cross = abs(two_mode.pointer_overlap(prof.minus, two_mode.GroupElement(0.0, 0.0), plus))
    if cfg.out_csv:
        write_csv(cfg.out_csv, prof.map)
    write_json(cfg.out_json, {
        "lam": cfg.lam,
        "n_max": cfg.n_max,
        "width_x": prof.width_x,
        "width_r": prof.width_r,
        "mean_energy": plus.mean_energy,
        "norm_deviation": abs(float((plus.coeffs ** 2).sum()) - 1.0),
        "parity_violation": parity_max,
        "cross_overlap": cross,
    })
    return 0


def run_validate(cfg: RunConfig) -> int:
    results = validate.run_checks(cfg.n)
    return 0 if all(r.passed for r in results) else 1


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--print-config", action="store_true",
                        help="print the effective configuration and exit")
    for f in dataclasses.fields(RunConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            type=_FIELD_TYPES[f.name],
                            choices=f.metadata.get("choices"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqdisp",
        description="Joint maximum-likelihood estimation of real squeezing "
                    "and displacement")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("density", "scan the estimation density and write CSV/JSON"),
            ("likelihood", "report the seed likelihood for a state"),
            ("compare-srm", "compare square-root and optimal likelihoods"),
            ("asymptotics", "closed-form error laws and isotropic parameters"),
            ("two-mode", "entangled-pointer concentration study"),
            ("validate", "run the named invariant suite")):
        p = sub.add_parser(name, help=help_text)
        # a value such as -1e6 is a number, not a flag (as argparse reads it from 3.13)
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        _add_common(p)
    return parser


_RUNNERS = {
    "density": run_density,
    "likelihood": run_likelihood,
    "compare-srm": run_compare,
    "asymptotics": run_asymptotics,
    "two-mode": run_two_mode,
    "validate": run_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = effective_config(args)
        if args.print_config:
            print_config(cfg)
            return 0
        return _RUNNERS[args.command](cfg)
    except (ConfigError, OSError) as exc:
        # every path the program opens comes from the configuration
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}:", *str(exc).splitlines(), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
