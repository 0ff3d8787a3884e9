"""Command-line front end.

Subcommands: density, likelihood, compare-srm, asymptotics, two-mode, validate.  Each
``RunConfig`` field is one option: the flag ``--`` + its name with ``_`` as ``-``, and the
key of that name in a flat key=value config file (unknown keys rejected).  ``None`` means
not given; a flag that ``_READS`` does not list for the subcommand, or that
``_STATE_IGNORES`` lists for the state, is rejected.  ``--print-config`` dumps the
effective configuration, values not given as empty, so the dump fed back through
``--config`` reproduces the run.  CSV output carries full double precision (17
significant digits) and is bit-identical across runs for a fixed configuration.

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
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import asymptotics, distribution, two_mode, validate
from .errors import ConfigError, EstimationError
from .grids import (QuadratureGrid, StateVector, default_grid, make_displaced_squeezed,
                    make_sampled)
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
# The state options a state kind does not read (a sampled file reads a only as the scale
# of density's default window); like _READS, applied to flags only.
_STATE_IGNORES = {"vacuum": ("a", "z", "sampled_path"), "coherent": ("z", "sampled_path"),
                  "displaced-squeezed": ("sampled_path",), "sampled-file": ("a", "z"),
                  ("sampled-file", "density"): ("z",)}


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
    if "state" in reads:
        ignored = _STATE_IGNORES.get((cfg.state, args.command), _STATE_IGNORES[cfg.state])
        unread = ["--" + key.replace("_", "-") for key in flags if key in ignored]
        if unread:
            raise ConfigError(f"{args.command} does not read {', '.join(unread)} "
                              f"for state {cfg.state}")
    # the library's checks of a map's and a pointer's size, before any build or --print-config
    if cfg.resolution is not None:
        distribution._map_shape(cfg.resolution)
    if cfg.x_lo is not None:
        distribution._check_window((cfg.x_lo, cfg.x_hi, cfg.r_lo, cfg.r_hi))
    two_mode._check_n_max(cfg.n_max, two_mode.MIN_N_MAX)
    return dataclasses.replace(
        cfg, **{k: v for k, v in reads.items() if v is not None and k not in given})


def print_config(cfg: RunConfig):
    for f in dataclasses.fields(RunConfig):
        v = getattr(cfg, f.name)
        print(f"{f.name} =" if v is None else f"{f.name} = {v}")


def _state_az(cfg: RunConfig) -> Tuple[float, float]:
    """(a, z) of the state kind: a = 0 for the vacuum, z = 0 but for displaced-squeezed."""
    return (0.0 if cfg.state == "vacuum" else cfg.a,
            cfg.z if cfg.state == "displaced-squeezed" else 0.0)


def _state_label(cfg: RunConfig) -> str:
    a, z = _state_az(cfg)
    return cfg.state + {"vacuum": "", "coherent": f"(a={a:g})", "displaced-squeezed":
                        f"(a={a:g}, z={z:g})", "sampled-file": f"({cfg.sampled_path})"}[cfg.state]


def load_sampled_state(path: str) -> StateVector:
    """Read a state from CSV with header y,re,im on a midpoint-offset grid."""
    try:
        with warnings.catch_warnings():  # a file with no rows is refused below, in one line
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read sampled state: {exc}") from exc
    n = len(data)
    if n < 2:  # y[1] sets the spacing; QuadratureGrid checks the rest of n
        raise ConfigError("sampled state needs at least 2 rows")
    if data.shape[1] not in (2, 3):
        raise ConfigError("sampled state file needs columns y,re[,im]")
    y = data[:, 0]
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
    if cfg.state == "sampled-file":
        return load_sampled_state(cfg.sampled_path)
    a, z = _state_az(cfg)
    grid = None
    if cfg.y_max is not None or cfg.n is not None:
        base = default_grid(a, z, cfg.n)
        grid = QuadratureGrid(base.y_max if cfg.y_max is None else cfg.y_max, base.n)
    return make_displaced_squeezed(a, z, grid)


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
    a, z = _state_az(cfg)
    x_half, r_half = max(4.0 * math.exp(z), 2.0), 6.0 / max(abs(a) * math.exp(z), 1.0)
    return (-x_half, x_half, -r_half, r_half)


def write_csv(path: str, dmap: distribution.DensityMap):
    x, r = np.meshgrid(dmap.x_nodes, dmap.r_nodes, indexing="ij")  # x-major, as values
    with open(path, "w") as out:  # savetxt would compress a path named *.gz
        np.savetxt(out, np.column_stack([x.ravel(), r.ravel(), dmap.values.ravel()]),
                   fmt="%.17g", delimiter=",", header="x,r,density", comments="")


def write_json(path: Optional[str], payload: dict):
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
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
    # a and z, then nbar, are checked before rms_predictions can warn: a refusal is one line
    ox, orr = asymptotics.separate_optima(cfg.a, cfg.z)
    iso = asymptotics.isotropic_params(cfg.nbar)
    dx, dr = asymptotics.rms_predictions(cfg.a, cfg.z)
    payload = {
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
    }
    write_json(cfg.out_json, payload)
    return 0


def run_two_mode(cfg: RunConfig) -> int:
    window = (cfg.x_lo, cfg.x_hi, cfg.r_lo, cfg.r_hi)
    prof = two_mode.concentration_profile(cfg.lam, cfg.n_max, window,
                                          cfg.resolution, tail_tol=cfg.tail_tol)
    plus = prof.plus
    # coeffs = N lambda^{n+m} c_nm, so odd n + m is as exactly zero as c_nm
    parity_max = float(np.max(np.abs(plus.coeffs[two_mode._degrees(cfg.n_max) % 2 == 1])))
    cross = abs(float(np.sum(two_mode._flipped(plus.coeffs) * plus.coeffs)))  # <<Phi_-|Phi_+>>
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
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--print-config", action="store_true",
                       help="print the effective configuration and exit")
        for f in dataclasses.fields(RunConfig):
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=_FIELD_TYPES[f.name], choices=f.metadata.get("choices"))
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
