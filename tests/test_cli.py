"""Command-line interface: subcommands, config handling, exit codes, outputs."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sqdisp
from perfbench.workloads import (ASYMPTOTICS_KEYS, COMPARE_KEYS, DENSITY_KEYS, LIKELIHOOD_KEYS,
                                 TWO_MODE_KEYS)
from sqdisp.cli import RunConfig, build_state, main, write_csv
from sqdisp.distribution import DensityMap

from helpers import spy


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDensity:
    def test_vacuum_csv_peak_off_origin(self, tmp_path, capsys):
        csv = tmp_path / "vac.csv"
        code, out, err = run(capsys, "density", "--state", "vacuum",
                             "--resolution", "48", "--out-csv", str(csv))
        assert code == 0
        rows = csv.read_text().strip().splitlines()
        assert rows[0] == "x,r,density"
        best = max(rows[1:], key=lambda line: float(line.split(",")[2]))
        x, r, _ = (float(v) for v in best.split(","))
        assert math.hypot(x, r) > 0.1

    def test_coherent_summary_fields(self, capsys):
        code, out, err = run(capsys, "density", "--state", "coherent",
                             "--a", "10", "--resolution", "64")
        assert code == 0
        summary = json.loads(out)
        assert set(summary) == DENSITY_KEYS
        assert summary["delta_r"] == pytest.approx(0.0707, rel=0.05)
        assert summary["likelihood"] == pytest.approx(10 / math.pi, rel=1e-3)

    def test_empty_window_rejected(self, capsys):
        code, out, err = run(capsys, "density", "--state", "vacuum",
                             "--x-lo", "2", "--x-hi", "1",
                             "--r-lo", "0", "--r-hi", "1")
        assert code == 2

    # the exact density peaks near 5e-454 and 7e-347 on these windows (200-digit mpmath),
    # below the least double, so every map value is 0; with a = 12 or dsq(2.82, 1.45) the
    # exact masses, 2.4e-116 and 1.1e-195, are representable and the closed form returns them
    @pytest.mark.parametrize("argv", [
        ("--state", "coherent", "--a", "24", "--x-lo", "-1", "--x-hi", "1",
         "--r-lo", "-4", "--r-hi", "-3"),
        ("--state", "displaced-squeezed", "--a", "4.5", "--z", "1.45", "--x-lo", "44.5",
         "--x-hi", "63.1", "--r-lo", "-3.08", "--r-hi", "-2.21"),
    ], ids=["coherent-far", "dsq-far"])
    def test_no_mass_is_numeric_failure(self, capsys, argv):
        # every map value underflows to 0 there: the window statistics have no mass to
        # divide by, which used to end in an internal ZeroDivisionError (exit 4)
        code, out, err = run(capsys, "density", *argv, "--resolution", "16")
        assert code == 3
        assert err.startswith("numeric failure: InsufficientMass:")
        assert len(err.splitlines()) == 1
        assert out == ""

    def test_csv_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(capsys, "density", "--state", "coherent",
                             "--a", "2", "--resolution", "24",
                             "--out-csv", str(p))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_srm_seed_on_vacuum_is_numeric_failure(self, capsys):
        code, out, err = run(capsys, "density", "--state", "vacuum",
                             "--seed-kind", "srm", "--resolution", "24")
        assert code == 3
        assert "DomainViolation" in err


class TestWriteCsv:
    @pytest.mark.parametrize("name", ["map.csv", "map.csv.gz"])
    def test_bytes_of_the_row_formatter(self, tmp_path, name):
        # negative, signed-zero, subnormal, tiny and near-overflow values; a *.gz name
        # is written as plain text, as it always was
        x = np.array([-1e6, -0.0, 1.0 / 3.0, 2.5e-7])
        r = np.array([-13.8, 0.1, 7.0])
        values = np.array([[-1e-17, 5e-324, 1e-300], [0.0, -0.0, 1.7e308],
                           [2.0 / 3.0, -123456.789, 1e-5], [4.9e-322, 3.0, -2.2e-308]])
        write_csv(str(tmp_path / name), DensityMap(x, r, values))
        rows = ["x,r,density"] + [f"{x[i]:.17g},{r[j]:.17g},{values[i, j]:.17g}"
                                  for i in range(len(x)) for j in range(len(r))]
        assert (tmp_path / name).read_bytes() == ("\n".join(rows) + "\n").encode()


def kind_dispatch(cfg):
    """The state of each kind from its own constructor, as build_state once chose it."""
    grid = None
    if cfg.y_max is not None or cfg.n is not None:
        base = sqdisp.default_grid(cfg.a if cfg.state != "vacuum" else 0.0,
                                   cfg.z if cfg.state == "displaced-squeezed" else 0.0, cfg.n)
        grid = sqdisp.QuadratureGrid(base.y_max if cfg.y_max is None else cfg.y_max, base.n)
    if cfg.state == "vacuum":
        return sqdisp.make_vacuum(grid)
    if cfg.state == "coherent":
        return sqdisp.make_coherent(cfg.a, grid=grid)
    return sqdisp.make_displaced_squeezed(cfg.a, cfg.z, grid=grid)


class TestBuildState:
    @pytest.mark.parametrize("state", ["vacuum", "coherent", "displaced-squeezed"])
    @pytest.mark.parametrize("n", [None, 2048])
    @pytest.mark.parametrize("y_max", [None, 14.5])
    def test_same_state_as_kind_dispatch(self, state, n, y_max):
        cfg = RunConfig(state=state, a=2.5, z=-0.4, n=n, y_max=y_max)
        got, ref = build_state(cfg), kind_dispatch(cfg)
        assert got.grid == ref.grid
        assert got.evaluator == ref.evaluator
        assert np.array_equal(got.amplitudes, ref.amplitudes)


class TestCompareSrm:
    def test_coherent_ratio_below_one(self, capsys):
        code, out, err = run(capsys, "compare-srm", "--state", "coherent",
                             "--a", "6")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == COMPARE_KEYS
        assert payload["ratio"] < 1.0
        assert payload["l_srm"] < payload["l_opt"]

    def test_vacuum_domain_violation(self, capsys):
        code, out, err = run(capsys, "compare-srm", "--state", "vacuum")
        assert code == 3
        assert "domain" in err.lower()

    def test_near_eigenstate_ratio(self, capsys):
        code, out, err = run(capsys, "compare-srm", "--state",
                             "displaced-squeezed", "--a", "2", "--z", "3")
        assert code == 0
        assert json.loads(out)["ratio"] == pytest.approx(1.0, abs=0.03)

    def test_ratio_above_one_refused(self, capsys, monkeypatch):
        # no admissible seed beats the optimal one, so a ratio above 1 is a numeric fault
        from sqdisp import cli
        monkeypatch.setattr(cli, "srm_likelihood", lambda psi: 2.0 * cli.optimal_likelihood(psi))
        code, out, err = run(capsys, "compare-srm", "--state", "coherent", "--a", "6")
        assert code == 3
        assert err.startswith("numeric failure: EstimationError: L_srm/L_opt")
        assert len(err.splitlines()) == 1
        assert out == ""


class TestConfigHandling:
    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("state = coherent\na = 4\nresolution = 24\n")
        code, out, err = run(capsys, "likelihood", "--config", str(cfg),
                             "--a", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["state"] == "coherent(a=6)"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("stat = coherent\n")
        code, out, err = run(capsys, "likelihood", "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in err

    def test_print_config_round_trip(self, tmp_path, capsys):
        code, out, err = run(capsys, "density", "--state", "coherent",
                             "--a", "3", "--print-config")
        assert code == 0
        cfg = tmp_path / "echo.cfg"
        kept = [line for line in out.splitlines()
                if not line.split("=")[1].strip() in ("nan", "")]
        cfg.write_text("\n".join(kept))
        code2, out2, err2 = run(capsys, "density", "--config", str(cfg),
                                "--resolution", "24", "--print-config")
        assert code2 == 0
        assert "a = 3.0" in out2

    def test_print_config_round_trip_unfiltered(self, tmp_path, capsys):
        # values not given print as empty and read back as not given
        code, out, err = run(capsys, "two-mode", "--lam", "0.9", "--print-config")
        assert code == 0
        assert "tail_tol =\n" in out
        cfg = tmp_path / "echo.cfg"
        cfg.write_text(out)
        code2, out2, err2 = run(capsys, "two-mode", "--config", str(cfg),
                                "--print-config")
        assert code2 == 0
        assert out2 == out

    def test_flag_surface(self):
        from sqdisp.cli import build_parser
        options = {"--state", "--a", "--z", "--sampled-path", "--y-max", "--n",
                   "--x-lo", "--x-hi", "--r-lo", "--r-hi", "--resolution",
                   "--seed-kind", "--lam", "--n-max", "--tail-tol", "--nbar",
                   "--out-csv", "--out-json"}
        subparsers = build_parser()._subparsers._group_actions[0].choices
        assert set(subparsers) == {"density", "likelihood", "compare-srm",
                                   "asymptotics", "two-mode", "validate"}
        for sub in subparsers.values():
            flags = {s for a in sub._actions for s in a.option_strings}
            assert flags - {"-h", "--help"} == options | {"--config", "--print-config"}

    def test_invalid_lambda(self, capsys):
        code, out, err = run(capsys, "two-mode", "--lam", "1.5")
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("state = foo\n", "unknown state 'foo'"),
        ("state coherent\n", "bad.cfg:1: expected key = value"),
        ("state = coherent\na = abc\n", "bad.cfg:2: could not convert"),
    ], ids=["unknown-choice", "no-equals", "unparsable-value"])
    def test_bad_config_file(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "likelihood", "--config", str(cfg))
        assert code == 2
        assert err.startswith("config error:") and message in err
        assert len(err.splitlines()) == 1
        assert out == ""

    def test_comment_and_blank_lines_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a coherent state\n\nstate = coherent\na = 4  # its displacement\n")
        code, out, err = run(capsys, "likelihood", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["state"] == "coherent(a=4)"


class TestSampledFile:
    def test_round_trip(self, tmp_path, capsys):
        import numpy as np
        from sqdisp import default_grid
        grid = default_grid(0.0, n=512)
        y = grid.nodes
        amp = y * np.exp(-y ** 2)
        path = tmp_path / "odd.csv"
        lines = ["y,re,im"] + [f"{yy:.17g},{aa:.17g},0" for yy, aa in zip(y, amp)]
        path.write_text("\n".join(lines))
        code, out, err = run(capsys, "likelihood", "--state", "sampled-file",
                             "--sampled-path", str(path))
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == LIKELIHOOD_KEYS
        assert payload["likelihood"] == pytest.approx(
            2.0 * math.sqrt(2.0 / math.pi) / math.pi, rel=1e-4)

    def test_complex_file_density_at_identity_is_likelihood(self, tmp_path, capsys):
        # the phase e^{-1.4iy} leaves |psi|^2 and so the optimal likelihood
        # unchanged; the ML map attains it at the true value, the identity
        from sqdisp import default_grid
        y = default_grid(0.0).nodes
        amp = (2.0 / math.pi) ** 0.25 * np.exp(-y ** 2 - 1.4j * y)
        path = tmp_path / "phased.csv"
        lines = ["y,re,im"] + [f"{yy:.17g},{aa.real:.17g},{aa.imag:.17g}"
                               for yy, aa in zip(y, amp)]
        path.write_text("\n".join(lines))
        csv = tmp_path / "map.csv"
        # an odd resolution puts a node at (0, 0)
        code, out, err = run(capsys, "density", "--state", "sampled-file",
                             "--sampled-path", str(path), "--x-lo", "-1", "--x-hi", "1",
                             "--r-lo", "-1", "--r-hi", "1", "--resolution", "17",
                             "--out-csv", str(csv))
        assert code == 0
        rows = csv.read_text().strip().splitlines()[1:]
        at_identity = [float(line.split(",")[2]) for line in rows
                       if line.startswith("0,0,")]
        assert at_identity == [pytest.approx(json.loads(out)["likelihood"], rel=1e-3)]

    def test_global_phase_in_file_leaves_likelihood_json(self, tmp_path, capsys):
        # e^{2i} (re + i im) is the same ray as the file without it
        from sqdisp import default_grid
        y = default_grid(0.0, n=512).nodes
        path, payloads = tmp_path / "state.csv", []
        for phase in (1.0, np.exp(2.0j)):
            amp = phase * y * np.exp(-y ** 2)
            path.write_text("\n".join(["y,re,im"] + [f"{yy:.17g},{aa.real:.17g},{aa.imag:.17g}"
                                                     for yy, aa in zip(y, amp)]))
            code, out, err = run(capsys, "likelihood", "--state", "sampled-file",
                                 "--sampled-path", str(path))
            assert code == 0 and err == ""
            payloads.append(json.loads(out))
        plain, phased = payloads
        assert phased.pop("certificates") == pytest.approx(plain.pop("certificates"), rel=1e-12)
        assert phased == pytest.approx(plain, rel=1e-12)

    def test_missing_path_rejected(self, capsys):
        code, out, err = run(capsys, "likelihood", "--state", "sampled-file")
        assert code == 2

    @pytest.mark.parametrize("defect", ["nan", "all-zero", "non-numeric"])
    def test_bad_amplitudes_are_config_errors(self, tmp_path, capsys, defect):
        import numpy as np
        from sqdisp import default_grid
        grid = default_grid(0.0, n=64)
        y = grid.nodes
        amps = [f"{aa:.17g}" for aa in y * np.exp(-y ** 2)]
        if defect == "all-zero":
            amps = ["0"] * len(amps)
        else:
            amps[20] = "nan" if defect == "nan" else "abc"
        path = tmp_path / f"{defect}.csv"
        lines = ["y,re,im"] + [f"{yy:.17g},{aa},0" for yy, aa in zip(y, amps)]
        path.write_text("\n".join(lines))
        code, out, err = run(capsys, "likelihood", "--state", "sampled-file",
                             "--sampled-path", str(path))
        assert code == 2
        assert "config error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rows", [1, 3], ids=["one-row", "three-rows"])
    def test_odd_row_count_is_config_error(self, tmp_path, capsys, rows):
        # one row gives no spacing; three reach QuadratureGrid's even-n rule
        y = -1.0 + np.arange(rows)
        path = tmp_path / "odd_rows.csv"
        path.write_text("\n".join(["y,re,im"] + [f"{yy:.17g},1,0" for yy in y]))
        code, out, err = run(capsys, "likelihood", "--state", "sampled-file",
                             "--sampled-path", str(path))
        assert code == 2
        assert err.startswith("config error:")
        assert ("at least 2 rows" if rows == 1 else "n must be an even integer") in err
        assert out == ""

    @pytest.mark.parametrize("text", ["", "y,re,im\n", "y,re,im\n\n\n"],
                             ids=["empty", "header-only", "header-and-blank-lines"])
    def test_file_without_rows_is_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "no_rows.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "likelihood", "--state", "sampled-file",
                                 "--sampled-path", str(path))
        assert code == 2
        assert err == "config error: sampled state needs at least 2 rows\n"
        assert caught == [] and out == ""

    @pytest.mark.parametrize("layout, message", [
        ("one-column", "needs columns y,re[,im]"),
        ("four-columns", "needs columns y,re[,im]"),
        ("off-grid", "not a midpoint-offset grid"),
    ])
    def test_bad_layout_is_config_error(self, tmp_path, capsys, layout, message):
        y = sqdisp.default_grid(0.0, n=64).nodes.copy()
        if layout == "off-grid":
            y[20] += 0.01
        amps = y * np.exp(-y ** 2)
        rows = {"one-column": [f"{yy:.17g}" for yy in y],
                "four-columns": [f"{yy:.17g},{aa:.17g},0,0" for yy, aa in zip(y, amps)],
                "off-grid": [f"{yy:.17g},{aa:.17g},0" for yy, aa in zip(y, amps)]}[layout]
        path = tmp_path / f"{layout}.csv"
        path.write_text("\n".join(["y,re,im"] + rows))
        code, out, err = run(capsys, "likelihood", "--state", "sampled-file",
                             "--sampled-path", str(path))
        assert code == 2
        assert err.startswith("config error:") and message in err
        assert len(err.splitlines()) == 1
        assert out == ""


SAMPLED = ("likelihood", "--state", "sampled-file", "--sampled-path", "{tmp}/state.csv")


def write_state(directory):
    """A valid sampled state.csv in ``directory``: y e^{-y^2} on 64 nodes."""
    y = sqdisp.default_grid(0.0, n=64).nodes
    rows = [f"{yy:.17g},{aa:.17g},0" for yy, aa in zip(y, y * np.exp(-y ** 2))]
    (directory / "state.csv").write_text("\n".join(["y,re,im"] + rows))


class TestOutOfRangeOptions:
    # "{tmp}" stands for a fresh directory holding a valid sampled state.csv
    @pytest.mark.parametrize("argv", [
        ("asymptotics", "--nbar", "0.5"),
        ("two-mode", "--n-max", "0"),
        ("likelihood", "--state", "coherent", "--a", "3", "--y-max", "-5"),
        ("likelihood", "--state", "coherent", "--a", "3", "--n", "-4096"),
        ("asymptotics", "--a", "-5"),
        ("two-mode", "--tail-tol", "-1", "--resolution", "16"),
        SAMPLED + ("--n", "64"),
        SAMPLED + ("--y-max", "3"),
        ("likelihood", "--state", "coherent", "--a", "3", "--n", "2097152"),
        ("likelihood", "--config", "{tmp}/missing.cfg"),
        ("density", "--resolution", "16", "--out-csv", "{tmp}/missing/map.csv"),
        ("asymptotics", "--out-json", "{tmp}/missing/summary.json"),
        ("density", "--resolution", "1000000", "--print-config"),
        ("likelihood", "--state", "displaced-squeezed", "--a", "5", "--z", "800"),
        ("likelihood", "--state", "displaced-squeezed", "--a", "5", "--z", "-800"),
        ("asymptotics", "--a", "5", "--z", "800"),
        ("two-mode", "--n-max", "100000", "--print-config"),
        ("likelihood", "--state", "vacuum", "--a", "5", "--out-csv", "{tmp}/x.csv"),
        ("validate", "--lam", "0.9"),
        ("compare-srm", "--seed-kind", "srm"),
        ("asymptotics", "--state", "coherent"),
        ("density", "--x-lo", "-1", "--x-hi", "1", "--r-lo", "-800", "--r-hi", "800",
         "--resolution", "16"),
        ("two-mode", "--x-lo", "-1", "--x-hi", "1", "--r-lo", "-800", "--r-hi", "800",
         "--resolution", "16"),
        ("density", "--x-lo", "-1", "--x-hi", "1", "--r-lo", "0", "--r-hi", "14",
         "--resolution", "16"),
        ("asymptotics", "--a", "1e-309"),
        ("density", "--x-lo", "-1"),
    ], ids=["nbar", "n-max", "y-max", "n", "asymptotics-a", "tail-tol",
            "sampled-n", "sampled-y-max", "n-above-cap", "missing-config",
            "out-csv-dir", "out-json-dir", "resolution-above-cap",
            "z-above-bound", "z-below-bound", "asymptotics-z", "n-max-above-cap",
            "likelihood-out-csv", "validate-lam", "compare-seed-kind",
            "asymptotics-state", "r-above-bound", "two-mode-r-above-bound",
            "r-hi-above-bound", "asymptotics-a-overflow", "window-in-part"])
    def test_config_error(self, tmp_path, capsys, argv):
        write_state(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert code == 2
        assert err.startswith("config error:")
        # pytest captures warnings, so each one counts as the stderr line it would print
        assert len(err.splitlines()) + len(caught) == 1
        assert out == ""

    # RunConfig.validate names a non-finite value before any library check reads it
    @pytest.mark.parametrize("argv, message", [
        (("likelihood", "--state", "coherent", "--a", "nan"), "a must be finite, got nan"),
        (("two-mode", "--lam", "inf"), "lam must be finite, got inf"),
        (("two-mode", "--tail-tol", "inf", "--resolution", "16"),
         "tail_tol must be finite, got inf"),
    ], ids=["a-nan", "lam-inf", "tail-tol-inf"])
    def test_non_finite_flag(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    # each range is checked by the library call that reads it; the CLI turns its
    # ConfigError into exit 2 with one line naming the argument and the bound.
    # validate builds its grid before any check runs: --n 0 ran on 4096 nodes
    DSQ = ("--state", "displaced-squeezed", "--a", "5")
    WINDOW = ("--x-lo", "-1", "--x-hi", "1", "--r-lo", "-1", "--r-hi", "1")

    @pytest.mark.parametrize("argv, named", [
        (("density", "--resolution", "15"), ("resolution", "16")),
        (("density", "--resolution", "1025"), ("resolution", "1048576")),
        (("likelihood", "--n", "3"), ("n must be an even integer", ">= 2")),
        (("likelihood", "--n", "2097152"), ("n = 2097152", "exceeds 1048576")),
        (("likelihood", "--y-max", "0"), ("y_max", "positive")),
        (("two-mode", "--lam", "0"), ("lam", "between 0 and 1")),
        (("two-mode", "--lam", "1"), ("lam", "between 0 and 1")),
        (("asymptotics", "--nbar", "1"), ("nbar", "exceed 1")),
        (("asymptotics", "--a", "1", "--nbar", "0.5"), ("nbar", "exceed 1")),
        (("two-mode", "--n-max", "19"), ("n_max", "at least 20")),
        (("two-mode", "--n-max", "1024"), ("n_max", "1048576")),
        (("two-mode", "--tail-tol", "0"), ("tail_tol", "positive")),
        (("density", *DSQ, "--z", "14"), ("z must", "ln 1048576")),
        (("density", *DSQ, "--z", "-14"), ("z must", "ln 1048576")),
        (("asymptotics", "--z", "14"), ("z must", "ln 1048576")),
        (("asymptotics", "--z", "-14"), ("z must", "ln 1048576")),
        (("density", *WINDOW[:4], "--r-lo", "-14", "--r-hi", "1"), ("r_lo", "ln 1048576")),
        (("density", "--x-lo", "1", "--x-hi", "-1", *WINDOW[4:]), ("x_lo < x_hi", "window")),
        (("two-mode", *WINDOW[:4], "--r-lo", "1", "--r-hi", "-1"), ("r_lo < r_hi", "window")),
        (("asymptotics", "--a", "0"), ("a must", "positive")),
        (("validate", "--n", "0"), ("n must be an even integer", ">= 2")),
        (("validate", "--n", "3"), ("n must be an even integer", ">= 2")),
    ], ids=["resolution-15", "resolution-1025", "n-3", "n-2^21", "y-max-0", "lam-0", "lam-1",
            "nbar-1", "nbar-after-warning", "n-max-19", "n-max-1024", "tail-tol-0",
            "density-z-14", "density-z-minus-14", "asymptotics-z-14",
            "asymptotics-z-minus-14", "r-lo-minus-14", "reversed-x", "reversed-r",
            "asymptotics-a-0", "validate-n-0", "validate-n-3"])
    def test_library_range_error(self, capsys, argv, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert code == 2
        # pytest captures warnings, so each one counts as the stderr line it would print
        assert len(err.splitlines()) + len(caught) == 1, (err, caught)
        assert err.startswith("config error:")
        assert all(word in err for word in named), err
        assert out == ""

    @pytest.mark.parametrize("argv, unread", [
        (("density", "--state", "vacuum", "--a", "3"), "--a"),
        (("likelihood", "--z", "1"), "--z"),
        (("compare-srm", "--state", "vacuum", "--a", "3", "--z", "1"), "--a, --z"),
        (("likelihood", "--state", "coherent", "--a", "3", "--z", "800"), "--z"),
        (("density", "--state", "coherent", "--a", "3", "--z", "1"), "--z"),
        (SAMPLED + ("--z", "1"), "--z"),
        (SAMPLED + ("--a", "3"), "--a"),
        (("compare-srm",) + SAMPLED[1:] + ("--a", "3"), "--a"),
        (("density",) + SAMPLED[1:] + ("--z", "1"), "--z"),
        (("likelihood", "--state", "coherent", "--a", "3", "--sampled-path", "{tmp}/state.csv"),
         "--sampled-path"),
        (("density", "--state", "displaced-squeezed", "--sampled-path", "{tmp}/state.csv"),
         "--sampled-path"),
    ], ids=["density-vacuum-a", "default-vacuum-z", "compare-vacuum-az", "coherent-z-800",
            "density-coherent-z", "sampled-z", "sampled-a", "compare-sampled-a",
            "density-sampled-z", "coherent-path", "dsq-path"])
    def test_state_option_the_state_does_not_read(self, tmp_path, capsys, argv, unread):
        write_state(tmp_path)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"config error: {argv[0]} does not read {unread} for state ")
        assert len(err.splitlines()) == 1
        assert out == ""

    def test_state_options_the_state_reads(self, tmp_path, capsys):
        # a sampled file's a scales density's default window; a config file's a and z
        # are read as --print-config wrote them, whatever the state
        write_state(tmp_path)
        path = str(tmp_path / "state.csv")
        assert run(capsys, "density", "--state", "sampled-file", "--sampled-path", path,
                   "--a", "2", "--print-config")[0] == 0
        cfg = tmp_path / "vacuum.cfg"
        cfg.write_text("state = vacuum\na = 3.0\nz = 1.0\n")
        code, out, err = run(capsys, "likelihood", "--config", str(cfg), "--print-config")
        assert (code, err) == (0, "")
        assert "a = 3.0" in out

    def test_unread_flag_named(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        code, out, err = run(capsys, "likelihood", "--state", "vacuum", "--a", "5",
                             "--out-csv", str(csv))
        assert code == 2
        assert err == "config error: likelihood does not read --out-csv\n"
        assert out == ""
        assert not csv.exists()


class TestGridLimits:
    @pytest.mark.parametrize("z", ["10", "11"])
    def test_unresolvable_squeezing(self, capsys, z):
        code, out, err = run(capsys, "likelihood", "--state", "displaced-squeezed",
                             "--a", "5", "--z", z)
        assert code == 3
        assert err.startswith("numeric failure: GridTooNarrow:")
        assert out == ""

    @pytest.mark.parametrize("x", ["1e308", "1e300"])
    def test_unresolvable_window(self, capsys, x):
        code, out, err = run(capsys, "density", "--state", "vacuum", f"--x-lo=-{x}",
                             f"--x-hi={x}", "--r-lo", "-1", "--r-hi", "1",
                             "--resolution", "16")
        assert code == 3
        assert err.startswith("numeric failure: GridTooNarrow:")
        assert len(err) < 200
        assert out == ""


class TestAsymptoticsCommand:
    def test_payload(self, capsys):
        code, out, err = run(capsys, "asymptotics", "--a", "10",
                             "--nbar", "100")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == ASYMPTOTICS_KEYS
        assert payload["delta_x"] == pytest.approx(1 / math.sqrt(2))
        assert payload["delta_r_opt"] == pytest.approx(0.05)
        assert payload["product_ratio"] == pytest.approx(2.0, abs=1e-12)
        assert payload["isotropic_a"] == pytest.approx(9.8995, abs=1e-3)

    @pytest.mark.parametrize("nbar", ["1e206", "1e300"])
    def test_large_nbar_strict_json(self, capsys, nbar):
        code, out, err = run(capsys, "asymptotics", "--nbar", nbar)
        assert code == 0, err

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")
        payload = json.loads(out, parse_constant=reject)
        assert all(math.isfinite(v) for v in payload.values())


class TestTwoModeCommand:
    def test_summary(self, capsys):
        code, out, err = run(capsys, "two-mode", "--lam", "0.9",
                             "--n-max", "40", "--resolution", "24")
        assert code == 0
        payload = json.loads(out)
        assert payload["parity_violation"] == 0.0
        assert payload["norm_deviation"] < 1e-8
        assert payload["width_x"] > 0

    def test_one_pointer_build_per_run(self, capsys, monkeypatch):
        from sqdisp import two_mode
        made = {name: spy(monkeypatch, two_mode, name, lambda *args, **kwargs: None)
                for name in ("make_pointer", "raw_pointer_coefficients", "pointer_overlap")}
        profiles = spy(monkeypatch, two_mode, "concentration_profile")
        code, out, err = run(capsys, "two-mode", "--lam", "0.95", "--n-max", "40",
                             "--resolution", "16")
        assert code == 0
        calls = {name: len(notes) for name, notes in made.items()}
        assert calls == {"make_pointer": 1, "raw_pointer_coefficients": 1, "pointer_overlap": 0}
        monkeypatch.undo()
        ref = two_mode.make_pointer(0.95, +1, 40, tail_tol=None)
        assert np.array_equal(profiles[0].plus.coeffs, ref.coeffs)
        assert json.loads(out)["mean_energy"] == ref.mean_energy

    @pytest.mark.parametrize("argv, error", [
        (("--x-lo", "-1.5", "--x-hi", "1.5", "--r-lo", "12", "--r-hi", "13"),
         "InsufficientMass"),
        (("--x-lo", "-1000", "--x-hi", "1000", "--r-lo", "-1", "--r-hi", "1", "--n-max", "20"),
         "GridTooNarrow"),
    ], ids=["no-mass", "x-beyond-pointer-grid"])
    def test_window_numeric_failure(self, capsys, argv, error):
        code, out, err = run(capsys, "two-mode", *argv, "--resolution", "16")
        assert code == 3
        assert err.startswith(f"numeric failure: {error}:")
        assert len(err.splitlines()) == 1
        assert out == ""

    @pytest.mark.parametrize("lam, code", [("0.95", 3), ("0.9", 0)])
    def test_tail_tol_gate(self, capsys, lam, code):
        # the exact tail beyond the shells n + m <= 60 is 5.3e-3 at 0.95 and 9.0e-6 at 0.9
        got, out, err = run(capsys, "two-mode", "--lam", lam, "--n-max", "60",
                            "--tail-tol", "1e-4", "--resolution", "16")
        assert got == code
        if code:
            assert err.startswith("numeric failure: CutoffTooSmall: dropped tail 5.297e-03")
            assert len(err.splitlines()) == 1
            assert out == ""
        else:
            assert set(json.loads(out)) == TWO_MODE_KEYS

    def test_resolution_honoured(self, tmp_path, capsys):
        csv = tmp_path / "map.csv"
        code, out, err = run(capsys, "two-mode", "--lam", "0.9", "--n-max", "40",
                             "--resolution", "100", "--out-csv", str(csv))
        assert code == 0
        assert len(csv.read_text().splitlines()) == 1 + 100 * 100


class TestValidateCommand:
    def test_coarse_grid_fails_convergence(self, capsys):
        code, out, err = run(capsys, "validate", "--n", "64")
        assert code == 1
        lines = out.splitlines()
        assert any(line.startswith("FAIL quadrature-convergence") for line in lines)

    def test_check_count(self):
        from sqdisp.validate import build_checks
        assert len(build_checks()) >= 12


def test_import_skips_scipy_signal():
    # scipy.signal takes over a second to import; keep it off the start-up path
    src = os.path.dirname(os.path.dirname(os.path.abspath(sqdisp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sqdisp, sqdisp.cli; print('scipy.signal' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_import_loads_no_scipy():
    # the library and CLI need numpy only; scipy is a test dependency
    src = os.path.dirname(os.path.dirname(os.path.abspath(sqdisp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sqdisp, sqdisp.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_import_loads_no_numpy_fft():
    # the Faddeeva coefficients are built on first use, so importing the CLI leaves
    # numpy.fft as importing numpy does, and CLI processes do not pay for it
    src = os.path.dirname(os.path.dirname(os.path.abspath(sqdisp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy; loaded = 'numpy.fft' in sys.modules; import sqdisp, sqdisp.cli; "
         "print(('numpy.fft' in sys.modules) == loaded)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "True"


class TestInternalError:
    def test_stray_exception_exits_4_on_one_line(self, capsys, monkeypatch):
        from sqdisp import cli

        def broken(cfg):
            raise RuntimeError("kernel broke\nsecond line")
        monkeypatch.setitem(cli._RUNNERS, "likelihood", broken)
        code, out, err = run(capsys, "likelihood", "--state", "vacuum")
        assert code == 4
        assert out == ""
        assert err == "internal error: RuntimeError: kernel broke second line\n"


class TestNegativeValues:
    """Option values in exponent form that start with a minus sign."""

    @pytest.mark.parametrize("argv, key, value", [
        (["asymptotics", "--z", "-2e-1"], "z", -0.2),
        (["asymptotics", "--z", "-2E-1"], "z", -0.2),
        (["density", "--x-lo", "-1e6", "--x-hi", "1", "--r-lo", "-1", "--r-hi", "1"],
         "x_lo", -1e6),
        (["density", "--x-lo=-1e6", "--x-hi", "1", "--r-lo", "-1", "--r-hi", "1"],
         "x_lo", -1e6),
        (["density", "--x-lo", "-1.5", "--x-hi", "1", "--r-lo", "-.5", "--r-hi", "1"],
         "r_lo", -0.5),
        (["two-mode", "--r-lo", "-1.5e0", "--r-hi", "1e-1", "--x-lo", "-1", "--x-hi", "1"],
         "r_lo", -1.5),
    ], ids=["asymptotics-z", "upper-case-e", "density-x-lo", "equals-form", "decimal",
            "two-mode-r-lo"])
    def test_accepted(self, capsys, argv, key, value):
        code, out, err = run(capsys, *argv, "--print-config")
        assert code == 0, err
        assert f"{key} = {value!r}" in out.splitlines()

    def test_asymptotics_runs(self, capsys):
        code, out, err = run(capsys, "asymptotics", "--z", "-2e-1")
        assert code == 0
        assert json.loads(out)["z"] == -0.2

    @pytest.mark.parametrize("argv", [
        ["density", "--x-lo", "--x-hi", "1"],
        ["asymptotics", "--z"],
        ["asymptotics", "--z", "-inf"],
        ["asymptotics", "--z", "-1x"],
    ], ids=["flag-without-value", "last-flag-without-value", "minus-inf", "not-a-number"])
    def test_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
