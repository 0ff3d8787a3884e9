"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line with the measured numbers so the whole
gate can be read from `pytest -v -s tests/test_acceptance.py`.
"""

import math
import time

import numpy as np
import pytest

from sqdisp import (DomainViolation, GroupElement, argmax, build_ml_seed,
                    closed_form_sandwich, concentration_profile, default_grid,
                    density_at, group_average_sandwich, heisenberg_ratio,
                    make_coherent, make_displaced_squeezed, make_sampled,
                    make_vacuum, moments, normalization_check,
                    optimal_likelihood, scan, separate_optima, srm_likelihood,
                    raw_pointer_coefficients, make_pointer)
from sqdisp.validate import group_average_suite, srm_admissible_suite

from helpers import VACUUM_L_OPT


def report(name, detail):
    print(f"PASS {name}: {detail}")


@pytest.fixture(scope="module")
def coh10():
    psi = make_coherent(10.0)
    return build_ml_seed(psi), psi


@pytest.fixture(scope="module")
def coh10_scan(coh10):
    seed, psi = coh10
    t0 = time.perf_counter()
    dmap = scan(seed, psi, (-4.0, 4.0, -0.6, 0.6), 128)
    return dmap, time.perf_counter() - t0


def test_criterion_1_vacuum_likelihood():
    t0 = time.perf_counter()
    value = optimal_likelihood(make_vacuum())
    elapsed = time.perf_counter() - t0
    assert abs(value - VACUUM_L_OPT) < 1e-4
    assert elapsed < 1.0
    report("criterion 1 (vacuum optimal likelihood)",
           f"L = {value:.6f} vs closed form {VACUUM_L_OPT:.6f}, {elapsed:.2f} s")


def test_criterion_2_excited_coherent(coh10):
    seed, psi = coh10
    t0 = time.perf_counter()
    l_opt = optimal_likelihood(psi)
    target = 10.0 / math.pi
    assert abs(l_opt - target) / target < 1e-3
    p_weighted = density_at(seed, psi, GroupElement(0.0, 0.1)) * math.exp(-0.1)
    asy = target * math.exp(-1.0)
    assert abs(p_weighted - asy) / asy < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("criterion 2 (coherent a=10)",
           f"L = {l_opt:.6f} (10/pi = {target:.6f}), weighted density "
           f"{p_weighted:.5f} vs {asy:.5f}, {elapsed:.2f} s")


def test_criterion_3_scan_moments(coh10_scan):
    dmap, elapsed = coh10_scan
    stats = moments(dmap)
    dr_target = 1.0 / math.sqrt(200.0)
    dx_target = 1.0 / math.sqrt(2.0)
    assert abs(stats.delta_r - dr_target) / dr_target < 0.05
    assert abs(stats.delta_x - dx_target) / dx_target < 0.05
    assert elapsed < 120.0
    report("criterion 3 (exact-scan moments, 128x128)",
           f"delta_r = {stats.delta_r:.5f} (target {dr_target:.5f}), "
           f"delta_x = {stats.delta_x:.5f} (target {dx_target:.5f}), "
           f"{elapsed:.1f} s")


def test_criterion_4_uncertainty_product(coh10_scan):
    from sqdisp import rms_predictions
    dx, dr = rms_predictions(10.0)
    ox, orr = separate_optima(10.0)
    closed = (dx * dr) / (ox * orr)
    assert abs(closed - 2.0) < 1e-12
    dmap, _ = coh10_scan
    stats = moments(dmap)
    numeric = (stats.delta_x * stats.delta_r) / (ox * orr)
    assert abs(numeric - 2.0) / 2.0 < 0.10
    report("criterion 4 (uncertainty product)",
           f"closed-form ratio 2 + {closed - 2:.1e}, numeric ratio {numeric:.3f}")


def test_criterion_5_srm_suboptimality():
    margins = []
    for name, psi in srm_admissible_suite():
        l_opt = optimal_likelihood(psi)
        l_srm = srm_likelihood(psi)
        assert l_srm <= l_opt * (1.0 + 1e-12)
        margins.append((name, 1.0 - l_srm / l_opt))
    strict = [name for name, m in margins if m > 0.01]
    assert len(strict) >= 4
    with pytest.raises(DomainViolation):
        srm_likelihood(make_vacuum())
    report("criterion 5 (SRM suboptimality)",
           "; ".join(f"{n}: {m:.2%}" for n, m in margins)
           + "; vacuum raises DomainViolation")


def test_criterion_6_most_likely_vs_true(coh10_scan):
    vac = make_vacuum()
    vac_map = scan(build_ml_seed(vac), vac, (-3.0, 3.0, -3.0, 3.0), 96)
    ax, ar, _ = argmax(vac_map)
    vac_dist = math.hypot(ax, ar)
    assert vac_dist > 0.1
    dmap, _ = coh10_scan
    cx, cr, _ = argmax(dmap)
    assert abs(cx) < 0.05 and abs(cr) < 0.01
    report("criterion 6 (most-likely vs true value)",
           f"vacuum argmax at ({ax:.3f}, {ar:.3f}), distance {vac_dist:.3f}; "
           f"coh(10) argmax at ({cx:.4f}, {cr:.4f})")


def test_criterion_7_povm_normalization():
    window = (-1000.0, 1000.0, -8.0, 9.0)
    results = []
    for label, psi in (("vacuum", make_vacuum()), ("coh(2)", make_coherent(2.0))):
        val = normalization_check(build_ml_seed(psi), psi, window)
        assert abs(val - 1.0) < 1e-2
        results.append(f"{label}: {val:.4f}")
    report("criterion 7 (POVM normalization)", ", ".join(results))


def test_criterion_8_group_average_oracle():
    grid = default_grid(0.0)
    window = (-12.0, 12.0, -8.0, 8.0)
    worst = 0.0
    for name, psi in group_average_suite(grid):
        num = group_average_sandwich(psi, psi, psi, psi, window)
        ref = closed_form_sandwich(psi, psi, psi, psi)
        worst = max(worst, abs(num - ref) / abs(ref))
    assert worst < 0.01
    y = grid.nodes
    odd = make_sampled(grid, y * np.exp(-y ** 2))
    u = make_displaced_squeezed(3.0, 0.7, grid=grid)
    v = make_displaced_squeezed(-3.0, 0.7, grid=grid)
    cross = abs(group_average_sandwich(odd, odd, u, v, window))
    assert cross < 1e-6
    report("criterion 8 (group-average oracle)",
           f"max relative error {worst:.2e} over 5 states, "
           f"cross-sector {cross:.1e}")


def test_criterion_9_heisenberg_saturation():
    results = []
    for a, z in ((50.0, 0.0), (60.0, 0.2), (100.0, -0.3)):
        assert a * math.exp(z) >= 50.0
        ratio = heisenberg_ratio(make_displaced_squeezed(a, z), a)
        assert abs(ratio - 1.0) < 0.02
        results.append(f"a={a:g}, z={z:g}: {ratio:.5f}")
    report("criterion 9 (Heisenberg-Robertson saturation)", "; ".join(results))


def test_criterion_10_two_mode_concentration():
    t0 = time.perf_counter()
    widths = {}
    for lam in (0.9, 0.95, 0.99):
        prof = concentration_profile(lam, 60, (-1.5, 1.5, -1.5, 1.5), 41,
                                     tail_tol=None)
        widths[lam] = (prof.width_x, prof.width_r)
    assert widths[0.9][0] > widths[0.95][0] > widths[0.99][0]
    assert widths[0.9][1] > widths[0.95][1] > widths[0.99][1]
    C = raw_pointer_coefficients(60)
    k = np.arange(61)
    assert np.all(C[(k[:, None] + k[None, :]) % 2 == 1] == 0.0)
    for lam in (0.9, 0.95, 0.99):
        p = make_pointer(lam, +1, 60, tail_tol=None)
        assert abs(float((p.coeffs ** 2).sum()) - 1.0) < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report("criterion 10 (two-mode concentration)",
           "widths " + ", ".join(
               f"lam={lam}: ({w[0]:.3f}, {w[1]:.3f})" for lam, w in widths.items())
           + f"; parity exact; norms within 1e-8; {elapsed:.1f} s")


def test_criterion_11_validation_suite():
    from sqdisp.validate import run_checks
    t0 = time.perf_counter()
    results = run_checks()
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failing checks: {failed}"
    assert elapsed < 900.0
    report("criterion 11 (validation suite)",
           f"{len(results)} checks pass in {elapsed:.1f} s")
