"""Named invariant checks, runnable end to end from the command line.

Each check returns (ok, detail).  The runner prints one PASS/FAIL line per
check with its wall time, then a summary with the total; any failure makes
the suite fail.  The grid-size override exists so a deliberately coarse grid
demonstrably breaks the quadrature-convergence check without touching the
others.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import asymptotics, distribution, two_mode
from .errors import DomainViolation, EstimationError
from .grids import (QuadratureGrid, StateVector, abs_moment, default_grid,
                    half_line_moment, inner_product, make_coherent,
                    make_displaced_squeezed, make_sampled, make_vacuum)
from .group import GroupElement, act, compose, inverse
from .povm import (build_ml_seed, build_parity_seed, optimal_likelihood,
                   seed_overlap_likelihood, srm_likelihood)

CheckFn = Callable[[], Tuple[bool, str]]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _gaussian_overlap_closed_form(a1, z1, a2, z2) -> float:
    """Closed-form overlap of two real displaced squeezed wavefunctions."""
    s1, s2 = math.exp(2 * z1), math.exp(2 * z2)
    pref = (4 * s1 * s2 / math.pi ** 2) ** 0.25 * math.sqrt(math.pi / (s1 + s2))
    return pref * math.exp(-(a1 - a2) ** 2 * s1 * s2 / (s1 + s2))


def _odd_state(grid: QuadratureGrid, width: float = 1.0) -> StateVector:
    y = grid.nodes
    return make_sampled(grid, y * np.exp(-(y / width) ** 2))


def _two_bump(grid: QuadratureGrid) -> StateVector:
    y = grid.nodes
    return make_sampled(grid, np.exp(-(y - 3.0) ** 2) + np.exp(-(y + 3.0) ** 2))


def check_grid_symmetry() -> Tuple[bool, str]:
    worst = 0.0
    for y_max, n in ((10.0, 4096), (7.3, 128), (25.0, 2048)):
        g = QuadratureGrid(y_max, n)
        worst = max(worst, float(np.max(np.abs(g.nodes + g.nodes[::-1]))))
        if np.any(g.nodes == 0.0) or np.any(np.diff(g.nodes) <= 0):
            return False, "zero node or non-monotone nodes"
    return worst == 0.0, f"max |y_k + y_(n-1-k)| = {worst:.1e}"


def check_quadrature_convergence(n: int = 4096) -> Tuple[bool, str]:
    grid = default_grid(0.0, n=n)
    vac = make_vacuum(grid)
    w1 = half_line_moment(vac, +1, 1, adaptive=False)
    vac2 = make_vacuum(QuadratureGrid(grid.y_max, 2 * n))
    w2 = half_line_moment(vac2, +1, 1, adaptive=False)
    rel = abs(w2 - w1) / abs(w2)
    ok = rel < 1e-5
    return ok, f"half-line moment changes {rel:.2e} under doubling (n={n})"


def check_gaussian_overlaps() -> Tuple[bool, str]:
    grid = default_grid(0.0)
    worst = 0.0
    for (a1, z1, a2, z2) in ((0.0, 0.0, 1.0, 0.0), (1.0, 0.4, -0.5, -0.2),
                             (2.0, -0.6, 1.2, 0.3)):
        s1 = make_displaced_squeezed(a1, z1, grid=grid)
        s2 = make_displaced_squeezed(a2, z2, grid=grid)
        num = inner_product(s1, s2).real
        ref = _gaussian_overlap_closed_form(a1, z1, a2, z2)
        worst = max(worst, abs(num - ref) / abs(ref))
    return worst < 1e-8, f"max relative error vs closed form {worst:.2e}"


def check_half_line_partition() -> Tuple[bool, str]:
    grid = default_grid(0.0)
    worst = 0.0
    for psi in (make_vacuum(grid), make_displaced_squeezed(0.0, 0.5, grid=grid)):
        wp = half_line_moment(psi, +1, 1, adaptive=False)
        wm = half_line_moment(psi, -1, 1, adaptive=False)
        full = abs_moment(psi, 1, adaptive=False)
        worst = max(worst, abs(wp + wm - full) / full, abs(wp - wm) / full)
    return worst < 1e-12, f"max partition defect {worst:.2e}"


def check_homomorphism() -> Tuple[bool, str]:
    rng = np.random.default_rng(7)
    psi = make_displaced_squeezed(1.2, 0.3)
    worst = 0.0
    for _ in range(6):
        g1 = GroupElement(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
        g2 = GroupElement(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
        rhs = act(compose(g1, g2), psi)
        lhs = act(g1, act(g2, psi), grid=rhs.grid)
        worst = max(worst, float(np.max(np.abs(lhs.amplitudes - rhs.amplitudes))))
    return worst < 1e-9, f"max pointwise action defect {worst:.2e}"


def check_unitarity() -> Tuple[bool, str]:
    rng = np.random.default_rng(11)
    psi = make_displaced_squeezed(0.8, -0.2)
    worst = 0.0
    for _ in range(6):
        g = GroupElement(rng.uniform(-3, 3), rng.uniform(-3, 3))
        worst = max(worst, abs(act(g, psi).norm_certificate - 1.0))
    return worst < 1e-9, f"max norm defect {worst:.2e}"


def check_left_invariance() -> Tuple[bool, str]:
    h = GroupElement(0.7, 0.4)
    xs = rs = np.linspace(-9, 9, 601)
    g = GroupElement(*np.meshgrid(xs, rs, indexing="ij"))
    # the d_L g mass of exp(-x^2 - r^2) at g and at h g
    base, shifted = (distribution.DensityMap(xs, rs, np.exp(-e.x ** 2 - e.r ** 2)).mass
                     for e in (g, compose(h, g)))
    rel = abs(shifted - base) / abs(base)
    return rel < 1e-4, f"left-invariance defect {rel:.2e}"


def _seed_suite(grid: QuadratureGrid):
    return [
        ("vacuum", make_vacuum(grid)),
        ("coherent(4)", make_coherent(4.0, grid=grid)),
        ("dsq(3,-0.4)", make_displaced_squeezed(3.0, -0.4, grid=grid)),
        ("odd", _odd_state(grid)),
    ]


def check_certificates() -> Tuple[bool, str]:
    grid = default_grid(0.0)
    worst = 0.0
    for name, psi in _seed_suite(grid):
        for builder in (build_ml_seed, build_parity_seed):
            seed = builder(psi)
            for v in seed.certificates.values():
                worst = max(worst, abs(v - 1.0))
    return worst < 1e-6, f"max |certificate - 1| = {worst:.2e}"


def check_likelihood_consistency() -> Tuple[bool, str]:
    grid = default_grid(0.0)
    worst = 0.0
    for name, psi in _seed_suite(grid):
        seed = build_ml_seed(psi)
        rel = abs(seed_overlap_likelihood(seed) - seed.likelihood) / seed.likelihood
        worst = max(worst, rel)
    return worst < 1e-8, f"max |<eta|psi>|^2 vs closed form {worst:.2e}"


def check_displacement_invariance() -> Tuple[bool, str]:
    worst = 0.0
    for psi in (make_coherent(3.0), make_displaced_squeezed(2.0, 0.5)):
        base = optimal_likelihood(psi)
        moved = optimal_likelihood(act(GroupElement(1.3, 0.0), psi, grid=psi.grid))
        worst = max(worst, abs(moved - base) / base)
    return worst < 1e-9, f"max displacement defect {worst:.2e}"


def srm_admissible_suite():
    """Five admissible states for the square-root-measurement comparison."""
    grid = default_grid(10.0)
    return [
        ("coherent(4)", make_coherent(4.0, grid=grid)),
        ("coherent(10)", make_coherent(10.0, grid=grid)),
        ("dsq(5,-0.2)", make_displaced_squeezed(5.0, -0.2, grid=grid)),
        ("odd", _odd_state(grid)),
        ("two-bump(3)", _two_bump(grid)),
    ]


def check_srm_suboptimality() -> Tuple[bool, str]:
    margins = []
    for name, psi in srm_admissible_suite():
        l_opt = optimal_likelihood(psi)
        l_srm = srm_likelihood(psi)
        if l_srm > l_opt * (1 + 1e-12):
            return False, f"L_srm > L_opt for {name}"
        margins.append((name, 1.0 - l_srm / l_opt))
    try:
        srm_likelihood(make_vacuum())
        return False, "vacuum SRM did not raise DomainViolation"
    except DomainViolation:
        pass
    strict = sum(1 for _, m in margins if m > 0.01)
    detail = ", ".join(f"{n}:{m:.3%}" for n, m in margins)
    return strict >= 4, f"strict margins {strict}/5 ({detail})"


def check_density_nonnegative() -> Tuple[bool, str]:
    vac = make_vacuum()
    seed = build_ml_seed(vac)
    m = distribution.scan(seed, vac, (-2, 2, -2, 2), 24)
    ok = bool(np.all(m.values >= 0) and np.all(np.isfinite(m.values)))
    return ok, f"min value {m.values.min():.3e}"


def check_scan_covariance() -> Tuple[bool, str]:
    vac = make_vacuum()
    seed = build_ml_seed(vac)
    h = GroupElement(0.4, 0.3)
    shifted = act(h, vac, grid=vac.grid)
    worst = 0.0
    for g in (GroupElement(0.0, 0.0), GroupElement(0.5, -0.2),
              GroupElement(-0.8, 0.6), GroupElement(1.1, 0.9)):
        lhs = distribution.density_at(seed, shifted, g)
        rhs = distribution.density_at(seed, vac, compose(inverse(h), g))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    return worst < 1e-6, f"max covariance defect {worst:.2e}"


def check_mass_monotonic() -> Tuple[bool, str]:
    vac = make_vacuum()
    seed = build_ml_seed(vac)
    inner = distribution.scan(seed, vac, (-1.5, 1.5, -1.5, 1.5), 48).mass
    outer = distribution.scan(seed, vac, (-3, 3, -3, 3), 48).mass
    ok = inner < outer <= 1.0 + 1e-6
    return ok, f"mass {inner:.4f} < {outer:.4f} <= 1"


def group_average_suite(grid: Optional[QuadratureGrid] = None):
    """Five admissible states for the group-average oracle."""
    if grid is None:
        grid = default_grid(0.0)
    return [
        ("odd", _odd_state(grid)),
        ("odd-wide", _odd_state(grid, width=2.0)),
        ("dsq(3,0.2)", make_displaced_squeezed(3.0, 0.2, grid=grid)),
        ("dsq(4,-0.3)", make_displaced_squeezed(4.0, -0.3, grid=grid)),
        ("two-bump(3)", _two_bump(grid)),
    ]


def check_group_average() -> Tuple[bool, str]:
    grid = default_grid(0.0)
    window = (-12.0, 12.0, -8.0, 8.0)
    worst = 0.0
    for name, psi in group_average_suite(grid):
        num = distribution.group_average_sandwich(psi, psi, psi, psi, window)
        ref = distribution.closed_form_sandwich(psi, psi, psi, psi)
        worst = max(worst, abs(num - ref) / abs(ref))
    odd = _odd_state(grid)
    u = make_displaced_squeezed(3.0, 0.7, grid=grid)
    v = make_displaced_squeezed(-3.0, 0.7, grid=grid)
    cross = abs(distribution.group_average_sandwich(odd, odd, u, v, window))
    ok = worst < 0.01 and cross < 1e-6
    return ok, f"max relative error {worst:.2e}, cross-sector {cross:.1e}"


def check_modular_rescaling() -> Tuple[bool, str]:
    grid = default_grid(0.0)
    odd = _odd_state(grid)
    window = (-12.0, 12.0, -8.0, 8.0)
    base = distribution.group_average_sandwich(odd, odd, odd, odd, window)
    worst = 0.0
    for r_h in (0.5, -0.3):
        h = GroupElement(0.0, r_h)
        moved = act(h, odd, grid=grid)
        val = distribution.group_average_sandwich(moved, moved, odd, odd, window)
        # Delta(h)^{-1} = e^{r_h}, the inverse of the ax+b modular function (Folland 2.4)
        expected = math.exp(r_h)
        worst = max(worst, abs(abs(val) / abs(base) - expected) / expected)
    return worst < 0.02, f"max rescaling defect {worst:.2e}"


def check_uncertainty_product() -> Tuple[bool, str]:
    closed = abs(asymptotics.uncertainty_product_ratio(10.0) - 2.0)
    c10 = make_coherent(10.0)
    seed = build_ml_seed(c10)
    stats = distribution.moments(distribution.scan(seed, c10, (-4, 4, -0.6, 0.6), 64))
    ox, orr = asymptotics.separate_optima(10.0)
    numeric = stats.delta_x * stats.delta_r / (ox * orr)
    ok = closed < 1e-12 and abs(numeric - 2.0) < 0.2
    return ok, f"closed-form defect {closed:.1e}, numeric ratio {numeric:.3f}"


def check_model_normalization() -> Tuple[bool, str]:
    worst = 0.0
    for a, z in ((10.0, 0.0), (7.4, -1.0)):
        m = asymptotics.AsymptoticModel(a, z)
        sx, sr = (math.sqrt(2.0) * v for v in asymptotics.separate_optima(a, z))
        xs = np.linspace(-6 * sx, 6 * sx, 801)
        rs = np.linspace(-6 * sr, 6 * sr, 801)
        vals = asymptotics.model_density(m, *np.meshgrid(xs, rs, indexing="ij"))
        integral = float(vals.sum()) * (xs[1] - xs[0]) * (rs[1] - rs[0])
        worst = max(worst, abs(integral - 1.0))
    return worst < 1e-6, f"max |integral - 1| = {worst:.2e}"


def check_pointer_parity() -> Tuple[bool, str]:
    # c^s_nm = (1/sqrt(pi)) integral sqrt(|y|) h_n(y) h_m(s y) dy as defined: both
    # half lines y = u t^2 on raw_pointer_coefficients' t nodes, no parity rule
    dt = math.sqrt(two_mode._pointer_grid(40).y_max) / two_mode.COEFF_QUAD_NODES
    t = (np.arange(two_mode.COEFF_QUAD_NODES) + 0.5) * dt
    H = {u: two_mode.hermite_functions(40, u * t * t) for u in (+1, -1)}
    C = {s: 2.0 / math.sqrt(math.pi) * sum((H[u] * (t * t * dt)) @ H[s * u].T for u in (+1, -1))
         for s in (+1, -1)}
    max_odd = float(np.max(np.abs(C[+1][two_mode._degrees(40) % 2 == 1])))
    flip = float(np.max(np.abs(C[-1] - C[+1] * (-1.0) ** np.arange(41))))
    lib = max(float(np.max(np.abs(two_mode.raw_pointer_coefficients(40, s) - C[s])))
              for s in (+1, -1)) / float(np.max(np.abs(C[+1])))
    ok = max_odd == 0.0 and flip == 0.0 and lib <= 1e-14
    return ok, (f"odd-shell max {max_odd:.1e}, sign-flip defect {flip:.1e}, "
                f"library vs definition {lib:.1e}")


def check_pointer_normalization() -> Tuple[bool, str]:
    worst = 0.0
    for lam in two_mode.DEFAULT_TEST_LAMBDAS:
        p = two_mode.make_pointer(lam, +1, 60, tail_tol=None)
        worst = max(worst, abs(float((p.coeffs ** 2).sum()) - 1.0))
    return worst < 1e-8, f"max normalization defect {worst:.2e}"


def check_pointer_energy() -> Tuple[bool, str]:
    energies = [two_mode.make_pointer(lam, +1, 60, tail_tol=None).mean_energy
                for lam in two_mode.DEFAULT_TEST_LAMBDAS]
    ok = energies[0] < energies[1] < energies[2]
    return ok, "energies " + ", ".join(f"{e:.2f}" for e in energies)


def check_heisenberg() -> Tuple[bool, str]:
    worst = 0.0
    for a, z in ((50.0, 0.0), (60.0, 0.2)):
        psi = make_displaced_squeezed(a, z)
        worst = max(worst, abs(asymptotics.heisenberg_ratio(psi, a) - 1.0))
    return worst < 0.02, f"max |ratio - 1| = {worst:.2e}"


def build_checks(n_override: Optional[int] = None) -> List[Tuple[str, CheckFn]]:
    n = n_override or 4096
    return [
        ("grid-node-symmetry", check_grid_symmetry),
        ("quadrature-convergence", lambda: check_quadrature_convergence(n)),
        ("gaussian-overlap-closed-form", check_gaussian_overlaps),
        ("half-line-partition", check_half_line_partition),
        ("group-homomorphism", check_homomorphism),
        ("group-unitarity", check_unitarity),
        ("haar-left-invariance", check_left_invariance),
        ("seed-certificates", check_certificates),
        ("likelihood-consistency", check_likelihood_consistency),
        ("displacement-invariance", check_displacement_invariance),
        ("srm-suboptimality", check_srm_suboptimality),
        ("density-nonnegative", check_density_nonnegative),
        ("scan-covariance", check_scan_covariance),
        ("mass-monotonicity", check_mass_monotonic),
        ("group-average-closed-form", check_group_average),
        ("modular-rescaling", check_modular_rescaling),
        ("uncertainty-product", check_uncertainty_product),
        ("asymptotic-model-normalization", check_model_normalization),
        ("pointer-parity-rule", check_pointer_parity),
        ("pointer-normalization", check_pointer_normalization),
        ("pointer-energy-monotonic", check_pointer_energy),
        ("heisenberg-saturation", check_heisenberg),
    ]


def run_checks(n_override: Optional[int] = None,
               printer: Callable[[str], None] = print) -> List[CheckResult]:
    results = []
    suite_start = time.perf_counter()
    for name, fn in build_checks(n_override):
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except EstimationError as exc:
            ok, detail = False, f"error: {exc}"
        except Exception as exc:  # pragma: no cover - defensive
            ok, detail = False, f"unexpected error: {exc}"
        results.append(CheckResult(name, ok, detail))
        printer(f"{'PASS' if ok else 'FAIL'} {name}: {detail} ({time.perf_counter() - start:.2f} s)")
    failures = sum(1 for r in results if not r.passed)
    printer(f"done: {len(results)} checks, {failures} failures "
            f"in {time.perf_counter() - suite_start:.1f} s")
    return results
