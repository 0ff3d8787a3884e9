"""Derandomized fuzz of the CLI and the public entry points over edge values.

Each run draws its options from small pools of edge values: amplitudes and
log-widths at the ends of their ranges, grids of 2 nodes and of 2^20, windows
of 1e-12 and 1e6, lambda next to 0 and 1, extreme tolerances and photon
numbers, and eight sampled-state files, most of them malformed.  Maps stay at
16 x 16 and pointers at n_max 20; the library calls take these sizes as a
Python int, a numpy int or a float (which raises ConfigError).  Each library
example runs every public entry point, each drawing its other numbers from the
pools and from +-inf and NaN.  Every library call must raise an
EstimationError or return, and a number it returns, or the norm of a state,
must be finite: no untyped error and no NaN.  A sampled state and any nonzero
multiple of it, from 1e-300 to 1e300 in modulus at any phase, are one ray and
give the same likelihoods, seed and map to round-off.
"""

import contextlib
import dataclasses
import functools
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqdisp
from sqdisp import EstimationError
from sqdisp.cli import _READS, _STATE_IGNORES, RunConfig, main

from helpers import vacuum_seed

POOLS = {
    "state": ("vacuum", "coherent", "displaced-squeezed", "sampled-file"),
    "a": ("0", "1e-300", "-4", "1e5"),
    "z": ("-13.8", "13"),
    "n": ("2", "4", "1048576"),
    "y_max": ("1e-9", "1e6"),
    "seed_kind": ("ml", "srm", "ml-parity"),
    "lam": ("1e-12", "0.999999999"),
    "tail_tol": ("1e-300", "1e300"),
    "nbar": ("1.0000000001", "1e300"),
}
ENDS = ("-1e6", "1e6", "-1e-12", "1e-12")
NON_FINITE = (float("inf"), float("-inf"), float("nan"))  # library calls only
FIXED = {"resolution": "16", "n_max": "20"}
SIZES = {"resolution": (16, np.int64(16), 16.0), "n_max": (20, np.int64(20), 20.0)}


def _state_files(directory):
    """Eight sampled-state CSVs: six malformed, a complex and a smooth one."""
    y = (np.arange(256) - 127.5) * (20.0 / 256)
    tables = {
        "one-node": [(0.0, 1.0, 0.0)],
        "two-nodes": [(-0.5, 1.0, 0.0), (0.5, 1.0, 0.0)],
        "all-zero": [(v, 0.0, 0.0) for v in y],
        "duplicate-y": [(v, 1.0, 0.0) for v in np.repeat(y[::2], 2)],
        "uneven-y": [(v, np.exp(-v * v), 0.0) for v in y * (1.0 + 0.01 * np.abs(y))],
        "off-centre": [(v + 0.3, np.exp(-v * v), 0.0) for v in y],
        "complex": [(v, np.exp(-v * v) * np.cos(1.4 * v), -np.exp(-v * v) * np.sin(1.4 * v))
                    for v in y],
        "smooth": [(v, v * np.exp(-v * v), 0.0) for v in y],
    }
    paths = []
    for name, rows in tables.items():
        path = directory / f"{name}.csv"
        path.write_text("y,re,im\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows))
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    return _state_files(tmp_path_factory.mktemp("states"))


@st.composite
def argvs(draw, files):
    sub = draw(st.sampled_from(["density", "likelihood", "compare-srm", "asymptotics",
                                "two-mode"]))
    reads = _READS[sub]
    argv = [sub]
    ignored = ()  # the options the drawn state does not read, which the CLI refuses
    for key in reads:
        if key in ignored:
            continue
        value = FIXED.get(key)
        if key in POOLS:
            value = draw(st.one_of(st.none(), st.sampled_from(POOLS[key])))
        if key == "state":
            state = value or RunConfig.state
            ignored = _STATE_IGNORES.get((state, sub), _STATE_IGNORES[state])
        if key == "sampled_path" and "sampled-file" in argv:
            value = draw(st.sampled_from(files))
        if value is not None:
            argv += ["--" + key.replace("_", "-"), value]
    if "x_lo" in reads and draw(st.booleans()):
        for key in ("x_lo", "x_hi", "r_lo", "r_hi"):
            argv += ["--" + key.replace("_", "-"), draw(st.sampled_from(ENDS))]
    return argv


def _strict(constant):
    raise ValueError(f"{constant} in JSON output")


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_cli_edge_values(state_files, data):
    argv = data.draw(argvs(state_files))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), err
    assert "internal error" not in err
    if code == 0:
        json.loads(out, parse_constant=_strict)
    else:
        # pytest captures warnings, so each one counts as the stderr line it would print
        assert len(err.splitlines()) + len(caught) == 1, (err, [str(w.message) for w in caught])


def _floats(values):
    return st.sampled_from([float(v) for v in values] + list(NON_FINITE))


WINDOWS = st.tuples(*[_floats(ENDS)] * 4)


_vacuum_seed = functools.cache(vacuum_seed)  # a state that every call accepts


@functools.cache
def _pointer():
    """A pointer that make_pointer accepts, so pointer_overlap reads its group element."""
    return sqdisp.make_pointer(0.5, 1, 20)


def library_calls(draw):
    """Every public entry point by name.  Each call draws its own arguments with
    ``draw`` as it runs, from the CLI's pools and NON_FINITE; the calls share the
    first state, seed and pointer that are built."""
    def num(key):
        return draw(_floats(POOLS[key]))

    def size(key):
        return draw(st.sampled_from(SIZES[key]))

    def nodes():
        return int(draw(st.sampled_from(POOLS["n"])))

    def element():
        return sqdisp.GroupElement(draw(_floats(ENDS)), draw(_floats(ENDS)))

    @functools.cache
    def state():
        grid = sqdisp.QuadratureGrid(num("y_max"), nodes())
        kind = draw(st.sampled_from(["vacuum", "coherent", "displaced-squeezed"]))
        if kind == "vacuum":
            return sqdisp.make_vacuum(grid)
        if kind == "coherent":
            return sqdisp.make_coherent(num("a"), grid=grid)
        return sqdisp.make_displaced_squeezed(num("a"), num("z"), grid=grid)

    @functools.cache
    def seed():
        psi = state()
        build = draw(st.sampled_from([sqdisp.build_ml_seed, sqdisp.build_srm_seed,
                                      sqdisp.build_parity_seed]))
        return build(psi), psi

    @functools.cache
    def pointer():
        return sqdisp.make_pointer(num("lam"), draw(st.sampled_from([1, -1])), size("n_max"),
                                   tail_tol=num("tail_tol"))

    return {
        "default_grid": lambda: sqdisp.default_grid(num("a"), num("z"), nodes()),
        "default_grid without n": lambda: sqdisp.default_grid(num("a"), num("z")),
        "state": state,
        "seed": seed,
        "optimal_likelihood": lambda: sqdisp.optimal_likelihood(state()),
        "srm_likelihood": lambda: sqdisp.srm_likelihood(state()),
        "scan": lambda: sqdisp.scan(*seed(), draw(WINDOWS), size("resolution")),
        "density_at": lambda: sqdisp.density_at(*seed(), element()),
        "density_at on the vacuum": lambda: sqdisp.density_at(*_vacuum_seed(), element()),
        "act": lambda: sqdisp.act(element(), state()),
        "act on the vacuum": lambda: sqdisp.act(element(), _vacuum_seed()[1]),
        "rms_predictions": lambda: sqdisp.rms_predictions(num("a"), num("z")),
        "separate_optima": lambda: sqdisp.separate_optima(num("a"), num("z")),
        "uncertainty_product_ratio": lambda: sqdisp.uncertainty_product_ratio(num("a"),
                                                                              num("z")),
        "heisenberg_ratio": lambda: sqdisp.heisenberg_ratio(state(), num("a")),
        # all but 1e-15 of its mass at y > 0, so the ratio reads a
        "heisenberg_ratio of a coherent state": lambda: sqdisp.heisenberg_ratio(
            sqdisp.make_coherent(4.0), num("a")),
        "model_density": lambda: sqdisp.model_density(
            sqdisp.AsymptoticModel(num("a"), num("z")), 0.0, 0.0),
        "isotropic_params": lambda: sqdisp.isotropic_params(num("nbar")),
        "make_pointer": pointer,
        "pointer_overlap": lambda: sqdisp.pointer_overlap(pointer(), element(), pointer()),
        "pointer_overlap of a valid pointer": lambda: sqdisp.pointer_overlap(
            _pointer(), element(), _pointer()),
        "concentration_profile": lambda: sqdisp.concentration_profile(
            num("lam"), size("n_max"), draw(WINDOWS), size("resolution"),
            tail_tol=num("tail_tol")),
    }


def _finite(result) -> bool:
    """Whether every number in a result is finite: a float, complex or array, the
    items of a tuple, the fields of a dataclass, and the norm of a state."""
    if isinstance(result, sqdisp.StateVector):
        return math.isfinite(result.norm_certificate)
    if dataclasses.is_dataclass(result):
        result = tuple(vars(result).values())
    if isinstance(result, tuple):
        return all(_finite(v) for v in result)
    if isinstance(result, (float, complex, np.ndarray)):
        return bool(np.all(np.isfinite(result)))
    return True


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_library_edge_values(data):
    for name, call in library_calls(data.draw).items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                result = call()
            except EstimationError:
                continue
        assert _finite(result), (name, result)


@functools.cache
def _ray_reference():
    """y e^{-y^2} on 512 nodes: its grid and samples, and its L_opt, L_srm, ML seed
    coefficients and 16^2 ML map."""
    grid = sqdisp.QuadratureGrid(10.0, 512)
    amps = grid.nodes * np.exp(-grid.nodes ** 2)
    return grid, amps, _ray_numbers(sqdisp.make_sampled(grid, amps))


def _ray_numbers(psi):
    seed = sqdisp.build_ml_seed(psi)
    return (sqdisp.optimal_likelihood(psi), sqdisp.srm_likelihood(psi), seed.sector_coeffs,
            sqdisp.scan(seed, psi, (-2.0, 2.0, -1.0, 1.0), 16).values)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(log_rho=st.floats(-300.0, 300.0), phi=st.floats(-math.pi, math.pi))
def test_sampled_ray_invariance(log_rho, phi):
    # measured: 6.7e-16, 1.1e-15 and 4.4e-16 relative, and 1.1e-15 of the map's peak
    grid, amps, (l_opt, l_srm, coeffs, values) = _ray_reference()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _ray_numbers(sqdisp.make_sampled(grid, 10.0 ** log_rho * np.exp(1j * phi) * amps))
    assert abs(got[0] - l_opt) <= 1e-14 * l_opt and abs(got[1] - l_srm) <= 1e-14 * l_srm
    assert got[2].keys() == coeffs.keys()
    assert all(abs(got[2][s] - c) <= 1e-14 * c for s, c in coeffs.items())
    assert np.max(np.abs(got[3] - values)) <= 1e-14 * values.max()
