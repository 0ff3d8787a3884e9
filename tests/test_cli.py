"""Command-line interface: subcommands, config handling, exit codes, outputs."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sqdisp
from sqdisp.cli import main


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
        assert set(summary) == {"likelihood", "argmax_x", "argmax_r", "mean_x",
                                "mean_r", "delta_x", "delta_r", "mass",
                                "seed_kind", "state"}
        assert summary["delta_r"] == pytest.approx(0.0707, rel=0.05)
        assert summary["likelihood"] == pytest.approx(10 / math.pi, rel=1e-3)

    def test_empty_window_rejected(self, capsys):
        code, out, err = run(capsys, "density", "--state", "vacuum",
                             "--x-lo", "2", "--x-hi", "1",
                             "--r-lo", "0", "--r-hi", "1")
        assert code == 2

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


class TestCompareSrm:
    def test_coherent_ratio_below_one(self, capsys):
        code, out, err = run(capsys, "compare-srm", "--state", "coherent",
                             "--a", "6")
        assert code == 0
        payload = json.loads(out)
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
        assert payload["likelihood"] == pytest.approx(
            2.0 * math.sqrt(2.0 / math.pi) / math.pi, rel=1e-4)

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


SAMPLED = ("likelihood", "--state", "sampled-file", "--sampled-path", "{tmp}/state.csv")


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
    ], ids=["nbar", "n-max", "y-max", "n", "asymptotics-a", "tail-tol",
            "sampled-n", "sampled-y-max", "n-above-cap", "missing-config",
            "out-csv-dir", "out-json-dir", "resolution-above-cap",
            "z-above-bound", "z-below-bound", "asymptotics-z", "n-max-above-cap",
            "likelihood-out-csv", "validate-lam", "compare-seed-kind",
            "asymptotics-state", "r-above-bound", "two-mode-r-above-bound",
            "r-hi-above-bound"])
    def test_config_error(self, tmp_path, capsys, argv):
        import numpy as np
        from sqdisp import default_grid
        y = default_grid(0.0, n=64).nodes
        rows = [f"{yy:.17g},{aa:.17g},0" for yy, aa in zip(y, y * np.exp(-y ** 2))]
        (tmp_path / "state.csv").write_text("\n".join(["y,re,im"] + rows))
        code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert code == 2
        assert err.startswith("config error:")
        assert out == ""

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
        assert payload["delta_x"] == pytest.approx(1 / math.sqrt(2))
        assert payload["delta_r_opt"] == pytest.approx(0.05)
        assert payload["product_ratio"] == pytest.approx(2.0, abs=1e-12)
        assert payload["isotropic_a"] == pytest.approx(9.8995, abs=1e-3)


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
        calls = {"make_pointer": 0, "raw_pointer_coefficients": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(two_mode, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(two_mode, name, counted)
        profiles = []

        def recorded(*args, _fn=two_mode.concentration_profile, **kwargs):
            profiles.append(_fn(*args, **kwargs))
            return profiles[-1]
        monkeypatch.setattr(two_mode, "concentration_profile", recorded)
        code, out, err = run(capsys, "two-mode", "--lam", "0.95", "--n-max", "40",
                             "--resolution", "16")
        assert code == 0
        assert calls == {"make_pointer": 2, "raw_pointer_coefficients": 2}
        monkeypatch.undo()
        ref = two_mode.make_pointer(0.95, +1, 40, tail_tol=None)
        assert np.array_equal(profiles[0].plus.coeffs, ref.coeffs)
        assert json.loads(out)["mean_energy"] == ref.mean_energy

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
