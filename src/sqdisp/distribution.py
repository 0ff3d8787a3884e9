"""Estimation probability densities over the affine group.

``density_at`` returns the conditional probability density of estimating the
group element g when the true transformation is the identity,

    p(g) = Tr[M(g) |psi><psi|] = |<eta| U_{g^{-1}} |psi>|^2,

a density with respect to the left-invariant measure d_L g = e^{-r} dr dx.
With this convention the windowed mass  integral p e^{-r} dx dr  tends to 1
as the window grows (POVM completeness on the span probed by the seed), and
shifting the input state by h translates the density, p'(g) = p(h^{-1} g).

The asymptotic Gaussian law for excited coherent states approximates the
measure-weighted density p(g) e^{-r}; pointwise comparisons against that law
must therefore include the weight.

``group_average_sandwich`` is the brute-force oracle for the group average
integral d_L g U_g A U_g^dag of a rank-one A = |psi><phi|, evaluated between
<u| and |v> and compared against the two-sector closed form
sum_s pi <phi| theta(sY) |Y|^{-1} |psi> <u| theta(sY) |v>.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Tuple

import numpy as np

from .errors import ConfigError, DivergenceDetected, GridMismatch, InsufficientMass
from .grids import (MAX_NODES, StateVector, _fft_length, _sector_sum, fourier_at,
                    phase_resolving_grid, sector_integral)
from .group import GroupElement, inverse
from .povm import PovmSeed

# Relative gap below the maximum within which argmax treats grid nodes as tied.
ARGMAX_TIE_RTOL = 1e-12
_SCAN_CHUNK = 2**14  # complex elements per FFT array of a chunk of map rows


@dataclass
class DensityMap:
    """Sampled estimation density p(x, r) over a rectangular group window."""

    x_nodes: np.ndarray
    r_nodes: np.ndarray
    values: np.ndarray  # shape (len(x_nodes), len(r_nodes))

    @property
    def mass(self) -> float:
        """Windowed mass, the trapezoid integral of p e^{-r} dx dr."""
        return float(_marginals(self, np.exp(-self.r_nodes))[0].sum())


@dataclass
class SummaryStats:
    mean_x: float
    mean_r: float
    delta_x: float
    delta_r: float
    argmax_x: float
    argmax_r: float
    peak_value: float


def _check_window(window: Tuple[float, float, float, float]) -> None:
    """ValueError for a non-finite or unordered window (x_lo, x_hi, r_lo, r_hi)."""
    x_lo, x_hi, r_lo, r_hi = window
    if not all(math.isfinite(v) for v in window):
        raise ValueError("window must be finite")
    if not (x_lo < x_hi and r_lo < r_hi):
        raise ValueError("window must satisfy x_lo < x_hi and r_lo < r_hi")


def _map_shape(window: Tuple[float, float, float, float], resolution) -> Tuple[int, int]:
    """(nx, nr) of an int or pair, for a map over ``window``: ``_check_window``,
    then ConfigError above MAX_NODES cells, then ValueError below 16 per axis."""
    _check_window(window)
    nx, nr = (resolution, resolution) if isinstance(resolution, int) else resolution
    if nx * nr > MAX_NODES:
        raise ConfigError(f"a {nx} x {nr} map exceeds {MAX_NODES} cells")
    if nx < 16 or nr < 16:
        raise ValueError("resolution must be at least 16 per axis")
    return nx, nr


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def _marginals(density_map: DensityMap, r_weight) -> Tuple[np.ndarray, np.ndarray]:
    """Trapezoid marginals in x and in r of the map under r_weight dx dr,
    r_weight e^{-r} at each r node for d_L g, or 1."""
    wr = _trapezoid_weights(density_map.r_nodes) * r_weight
    weighted = density_map.values * np.outer(_trapezoid_weights(density_map.x_nodes), wr)
    return weighted.sum(axis=1), weighted.sum(axis=0)


def density_at(seed: PovmSeed, psi: StateVector, g: GroupElement) -> float:
    """p(g) = |<eta| U_{g^{-1}} |psi>|^2 at a single group element."""
    if seed.eta.grid != psi.grid:
        raise GridMismatch("seed and state must share a quadrature grid")
    gi = inverse(g)
    grid = psi.grid
    y = grid.nodes
    integrand = (np.conj(seed.eta.amplitudes)
                 * math.exp(gi.r / 2.0)
                 * np.exp(-2.0j * gi.x * y)
                 * psi.evaluate_at(math.exp(gi.r) * y))
    return abs(np.sum(integrand) * grid.dy) ** 2


def _refine_for_window(seed: PovmSeed, psi: StateVector,
                       window: Tuple[float, float, float, float]):
    """Resample seed and state so the grid resolves scan phase oscillations."""
    x_lo, x_hi, r_lo, r_hi = window
    freq = max(abs(x_lo), abs(x_hi)) * math.exp(max(-r_lo, -r_hi, 0.0))
    for src in (psi.evaluator, seed.source.evaluator):
        if src is not None:
            freq += abs(src.linear_phase)
    fine = phase_resolving_grid(psi.grid, psi.grid.y_max, freq)
    return seed.on_grid(fine), psi.with_grid(fine)


def _row_map(window: Tuple[float, float, float, float], nx: int, nr: int,
             y: np.ndarray, rows_at, per_row: int = 1) -> DensityMap:
    """DensityMap of sum_c |sum_k K_kc e^{-2i s x y_k}|^2, c over a row's per_row
    kernel columns.  ``rows_at(r)`` gives each row's x scale s and the kernels,
    (len(y), per_row * len(r)), for a chunk of r nodes.  A chunk holds max(1,
    _SCAN_CHUNK // (per_row L)) rows, L = _fft_length(nx + len(y) - 1), so an FFT
    array of ``grids.fourier_at`` holds at most _SCAN_CHUNK complex elements or
    one row; the map depends on neither order nor chunks."""
    x_nodes = np.linspace(*window[:2], nx)
    r_nodes = np.linspace(*window[2:], nr)
    values = np.empty((nx, nr))
    rows = max(1, _SCAN_CHUNK // (per_row * _fft_length(nx + len(y) - 1)))
    for j in range(0, nr, rows):
        scale, kernels = rows_at(r_nodes[j:j + rows])
        amps = fourier_at(np.outer(x_nodes, np.repeat(scale, per_row)), y, kernels)
        values[:, j:j + rows] = (np.abs(amps) ** 2).reshape(nx, -1, per_row).sum(axis=2)
    return DensityMap(x_nodes, r_nodes, values)


def scan(seed: PovmSeed, psi: StateVector,
         window: Tuple[float, float, float, float],
         resolution) -> DensityMap:
    """Fill a DensityMap with density_at over a tensor grid.

    ``resolution`` is an int or an (nx, nr) pair, at least 16 per axis and
    at most MAX_NODES cells.  Each r row is a chirp-z transform of length
    L >= nx + n - 1 on n quadrature nodes, in the row chunks of ``_row_map``.
    """
    nx, nr = _map_shape(window, resolution)
    seed, psi = _refine_for_window(seed, psi, window)
    y = psi.grid.nodes
    eta_conj = np.conj(seed.eta.amplitudes)

    def rows_at(r):
        scale = np.exp(-r)  # e^{r'} of the inverse elements
        base = psi.evaluate_at(np.outer(scale, y)) * eta_conj  # one row per r
        base *= (np.sqrt(scale) * psi.grid.dy)[:, None]
        return -scale, base.T  # x' = -e^{-r} x of the inverse elements

    return _row_map(window, nx, nr, y, rows_at)


def _quadratic_peak(values: np.ndarray, i: int, j: int,
                    x_nodes: np.ndarray, r_nodes: np.ndarray):
    """Refine a grid peak with the least-squares quadratic c0 + cu u + cv v +
    cuu u^2 + cvv v^2 + cuv u v on its 3x3 patch, u, v in {-1, 0, 1} along x and r:
    on this fixed stencil, fixed sums of the patch (Savitzky & Golay 1964)."""
    nx, nr = values.shape
    if not (0 < i < nx - 1 and 0 < j < nr - 1):
        return x_nodes[i], r_nodes[j], values[i, j]
    f = values[i - 1:i + 2, j - 1:j + 2] - values[i, j]  # no cancellation; moves c0 only
    R, C = f.sum(axis=1), f.sum(axis=0)
    cu, cv = (R[2] - R[0]) / 6.0, (C[2] - C[0]) / 6.0
    cuu, cvv = (R[0] - 2.0 * R[1] + R[2]) / 6.0, (C[0] - 2.0 * C[1] + C[2]) / 6.0
    cuv = (f[0, 0] - f[0, 2] - f[2, 0] + f[2, 2]) / 4.0
    det = 4.0 * cuu * cvv - cuv * cuv  # of the Hessian [[2 cuu, cuv], [cuv, 2 cvv]]
    if det <= 0:  # not a proper maximum; keep the grid point
        return x_nodes[i], r_nodes[j], values[i, j]
    u = np.clip((cuv * cv - 2.0 * cvv * cu) / det, -1.0, 1.0)
    v = np.clip((cuv * cu - 2.0 * cuu * cv) / det, -1.0, 1.0)
    c0 = values[i, j] + f.mean() - 2.0 * (cuu + cvv) / 3.0
    peak = float(c0 + cu * u + cv * v + cuu * u * u + cvv * v * v + cuv * u * v)
    dx = x_nodes[1] - x_nodes[0]
    dr = r_nodes[1] - r_nodes[0]
    return x_nodes[i] + u * dx, r_nodes[j] + v * dr, peak


def argmax(density_map: DensityMap) -> Tuple[float, float, float]:
    """Location and value of the density peak, refined by a quadratic fit.

    Grid ties resolve to the lexicographically smallest (x, r).  Nodes within
    ARGMAX_TIE_RTOL of the maximum count as tied, so the mirror-image twin
    peaks of a real state do not pick a side by round-off.
    """
    values = density_map.values
    near_peak = values >= values.max() * (1.0 - ARGMAX_TIE_RTOL)
    flat = int(np.argmax(near_peak))  # first True: smallest (x, r)
    i, j = np.unravel_index(flat, values.shape)
    return _quadratic_peak(values, i, j, density_map.x_nodes, density_map.r_nodes)


def window_statistics(density_map: DensityMap) -> SummaryStats:
    """Means, r.m.s. widths and peak under the weight p(x,r) e^{-r} over the
    scanned window, whatever mass the window captures."""
    x, r = density_map.x_nodes, density_map.r_nodes
    px, pr = _marginals(density_map, np.exp(-r))
    total = float(px.sum())
    mean_x = float((px * x).sum()) / total
    mean_r = float((pr * r).sum()) / total
    var_x = float((px * (x - mean_x) ** 2).sum()) / total
    var_r = float((pr * (r - mean_r) ** 2).sum()) / total
    ax, ar, peak = argmax(density_map)
    return SummaryStats(mean_x=mean_x, mean_r=mean_r,
                        delta_x=math.sqrt(max(var_x, 0.0)),
                        delta_r=math.sqrt(max(var_r, 0.0)),
                        argmax_x=ax, argmax_r=ar, peak_value=peak)


def moments(density_map: DensityMap) -> SummaryStats:
    """window_statistics of a map whose window captures mass > 0.9."""
    if density_map.mass <= 0.9:
        raise InsufficientMass(
            f"window captures mass {density_map.mass:.4f} <= 0.9")
    return window_statistics(density_map)


def _band_spectrum(n: int, dy: float, lo: float, hi: float) -> np.ndarray:
    """K with  integral_lo^hi FT[h1] conj(FT[h2]) dx = dy^2 sum_j F1_j conj(F2_j) K_j
    for FT[h](x) = sum_k h_k e^{-2i x y_k} dy on n uniform nodes and F = fft(h)
    zero-padded to L = len(K) = _fft_length(2n - 1).  K = ifft(T) of the Toeplitz
    kernel T(m) = (hi - lo) sinc((hi - lo) m dy / pi) e^{-i (hi + lo) m dy},
    with [lo, hi] first clipped to one period |x| <= pi/(2 dy) of FT[h].
    T(-m) = conj(T(m)) and n <= L/2 + 1, so K is the real inverse FFT of
    T(0 .. n-1) zero-padded, with no mirrored complex buffer."""
    band = math.pi / (2.0 * dy)
    lo, hi = max(lo, -band), min(hi, band)
    width = max(hi - lo, 0.0)
    m_dy = np.arange(n) * dy
    lags = width * np.sinc(width * m_dy / math.pi) * np.exp(-1j * (hi + lo) * m_dy)
    return np.fft.irfft(lags, _fft_length(2 * n - 1))


def _group_slices(psi: StateVector, phi: StateVector, u: StateVector, v: StateVector,
                  window: Tuple[float, float, float, float], r_resolution: int,
                  sigma: int) -> complex:
    """integral over the window of d_L g <u|U_h|psi> <phi|U_h^dag|v>, h = g^sigma.

    Node r maps to h = (c x, sigma r), c = sigma e^{(sigma-1) r/2}; its slice is
    the exact integral of FT[conj(u) psi(e^{sigma r} y)] conj(FT[conj(v) phi(...)])
    over the x_h band sorted((c x_lo, c x_hi)), Parseval once that holds the
    period |x_h| <= pi/(2 dy), times |c| and the r trapezoid weight.
    """
    _check_window(window)
    if r_resolution < 2:
        raise ValueError("r_resolution must be at least 2")
    if r_resolution > MAX_NODES:
        raise ConfigError(f"r_resolution {r_resolution} exceeds {MAX_NODES}")
    for other in (phi, u, v):
        if psi.grid != other.grid:
            raise GridMismatch("oracle states must share a quadrature grid")
    if sigma > 0:  # screen |psi><phi|; a seed's |eta><eta| (sigma = -1) is admissible
        _screened_cross_terms(phi, psi)

    x_lo, x_hi, r_lo, r_hi = window
    grid = psi.grid
    y, dy = grid.nodes, grid.dy
    band = math.pi / (2.0 * dy)
    spectrum_of = functools.lru_cache(maxsize=1)(
        lambda lo, hi: _band_spectrum(grid.n, dy, lo, hi) * dy ** 2)
    same = phi is psi and v is u
    u_conj, v_conj = np.conj(u.amplitudes), np.conj(v.amplitudes)
    r_nodes = np.linspace(r_lo, r_hi, r_resolution)
    total = 0.0 + 0.0j
    for r, wgt in zip(r_nodes, _trapezoid_weights(r_nodes)):
        c = sigma * math.exp((sigma - 1) * r / 2.0)
        lo, hi = sorted((c * x_lo, c * x_hi))
        sy = math.exp(sigma * r) * y
        f = psi.evaluate_at(sy)
        h1 = u_conj * f
        h2 = h1 if same else v_conj * (f if phi is psi else phi.evaluate_at(sy))
        if lo <= -band and hi >= band:
            # the whole period, where T(m) = (pi/dy) delta_m0
            slice_val = math.pi * dy * complex(np.vdot(h2, h1))
        else:
            spectrum = spectrum_of(lo, hi)
            f1 = np.fft.fft(h1, len(spectrum))
            f2 = f1 if same else np.fft.fft(h2, len(spectrum))
            slice_val = complex(np.vdot(f2, f1 * spectrum))
        total += wgt * abs(c) * slice_val
    return total


def normalization_check(seed: PovmSeed, psi_test: StateVector,
                        window: Tuple[float, float, float, float],
                        r_resolution: int = 128) -> float:
    """integral over the window of p(g) e^{-r} dx dr for input psi_test: with
    p(g) = |<psi_test|U_g|eta>|^2, the group average of |eta><eta| taken in
    h = g^{-1} (``_group_slices``, sigma = -1), so the seed keeps its grid.
    ValueError for a non-finite or unordered window or r_resolution < 2,
    ConfigError for r_resolution > MAX_NODES.  Tends to 1 on generous
    windows for states in the span probed by the seed."""
    return _group_slices(psi_test, psi_test, seed.eta, seed.eta, window, r_resolution,
                         -1).real


def group_average_sandwich(psi: StateVector, phi: StateVector,
                           u: StateVector, v: StateVector,
                           window: Tuple[float, float, float, float],
                           r_resolution: int = 128) -> complex:
    """Brute-force  integral d_L g <u|U_g|psi> <phi|U_g^dag|v>  over the window
    (``_group_slices``, sigma = +1).  ValueError for a non-finite or unordered
    window or r_resolution < 2, ConfigError for r_resolution > MAX_NODES,
    both before the screen.  The closed-form target is
    sum_s pi <phi| theta(sY)/|Y| |psi> <u| theta(sY) |v>.
    Raises DivergenceDetected (via the cross-sector screen) for inadmissible
    pairs, i.e. when <phi| theta(sY)/|Y| |psi> fails the growth test.  The
    screen is kept for the last (phi, psi) pair, so a ``closed_form_sandwich``
    of the same pair that follows does not repeat it.
    """
    return _group_slices(psi, phi, u, v, window, r_resolution, +1)


@functools.lru_cache(maxsize=1)
def _screened_cross_terms(phi: StateVector, psi: StateVector) -> Mapping[int, complex]:
    """Both sector cross terms <phi| theta(sY)/|Y| |psi> under grid doubling,
    flagging divergence only where it is material relative to the dominant
    sector (1e-6 relative floor).

    Kept for the last (phi, psi) pair: states are immutable and hash by
    identity, and the cache's reference keeps an id from being reused.  The
    result is read-only; a DivergenceDetected is raised again on every call.
    """
    terms = {s: sector_integral(phi, psi, s, -1, growth_floor=0.0) for s in (+1, -1)}
    scale = max(abs(values[-1]) for values, _ in terms.values())
    for s, (values, grows) in terms.items():
        if grows and abs(values[-1]) > max(1e-6 * scale, 1e-9):
            raise DivergenceDetected(
                f"cross-sector <theta({'+' if s > 0 else '-'}Y)/|Y|> grows under "
                f"grid doubling (magnitude {abs(values[-1]):.4g}); states inadmissible")
    return MappingProxyType({s: values[-1] for s, (values, _) in terms.items()})


def closed_form_sandwich(psi: StateVector, phi: StateVector,
                         u: StateVector, v: StateVector) -> complex:
    """sum_s pi <phi|theta(sY)/|Y||psi> <u|theta(sY)|v> (the two-sector
    closed form of the group average)."""
    cross = _screened_cross_terms(phi, psi)
    return complex(sum(math.pi * cross[s] * _sector_sum(u, v, u.grid, s, 0)
                       for s in (+1, -1)))
