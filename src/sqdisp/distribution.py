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

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DivergenceDetected, GridMismatch, InsufficientMass
from .grids import (StateVector, _fft_length, _sector_sum, fourier_at,
                    phase_resolving_grid, sector_integral)
from .group import GroupElement, inverse
from .povm import PovmSeed

# Relative gap below the maximum within which argmax treats grid nodes as tied.
ARGMAX_TIE_RTOL = 1e-12


@dataclass
class DensityMap:
    """Sampled estimation density p(x, r) over a rectangular group window."""

    x_nodes: np.ndarray
    r_nodes: np.ndarray
    values: np.ndarray  # shape (len(x_nodes), len(r_nodes))
    window: Tuple[float, float, float, float]  # (x_lo, x_hi, r_lo, r_hi)
    mass: float = 0.0

    @classmethod
    def from_values(cls, x_nodes: np.ndarray, r_nodes: np.ndarray, values: np.ndarray,
                    window: Tuple[float, float, float, float]) -> "DensityMap":
        """Map with its windowed mass, the integral of p e^{-r} dx dr."""
        wx, wr = _haar_weights(x_nodes, r_nodes)
        return cls(x_nodes=x_nodes, r_nodes=r_nodes, values=values, window=window,
                   mass=float(wx @ values @ wr))


@dataclass
class SummaryStats:
    mean_x: float
    mean_r: float
    delta_x: float
    delta_r: float
    argmax_x: float
    argmax_r: float
    peak_value: float


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros_like(nodes)
    if len(nodes) == 1:
        return np.ones(1)
    d = np.diff(nodes)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def _haar_weights(x_nodes: np.ndarray, r_nodes: np.ndarray):
    """Trapezoid weights in x and in r, the latter times the left-Haar e^{-r}."""
    return _trapezoid_weights(x_nodes), _trapezoid_weights(r_nodes) * np.exp(-r_nodes)


def _compatible_grids(seed: PovmSeed, psi: StateVector):
    if seed.eta.grid != psi.grid:
        raise GridMismatch("seed and state must share a quadrature grid")


def density_at(seed: PovmSeed, psi: StateVector, g: GroupElement) -> float:
    """p(g) = |<eta| U_{g^{-1}} |psi>|^2 at a single group element."""
    _compatible_grids(seed, psi)
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


def scan(seed: PovmSeed, psi: StateVector,
         window: Tuple[float, float, float, float],
         resolution) -> DensityMap:
    """Fill a DensityMap with density_at over a tensor grid.

    ``resolution`` is an int or an (nx, nr) pair, at least 16 per axis.
    Each r row is one chirp-z transform (``grids.fourier_at``) of the
    quadrature integrand over the uniformly spaced x nodes, so a row costs
    O((nx + n) log) time and O(nx + n) memory for n quadrature nodes, and
    the result does not depend on evaluation order.
    """
    x_lo, x_hi, r_lo, r_hi = window
    if not all(math.isfinite(v) for v in window):
        raise ValueError("window must be finite")
    if not (x_lo < x_hi and r_lo < r_hi):
        raise ValueError("window must satisfy x_lo < x_hi and r_lo < r_hi")
    if isinstance(resolution, int):
        nx = nr = resolution
    else:
        nx, nr = resolution
    if nx < 16 or nr < 16:
        raise ValueError("resolution must be at least 16 per axis")
    seed, psi = _refine_for_window(seed, psi, window)

    x_nodes = np.linspace(x_lo, x_hi, nx)
    r_nodes = np.linspace(r_lo, r_hi, nr)
    grid = psi.grid
    y = grid.nodes
    eta_conj = np.conj(seed.eta.amplitudes)
    values = np.empty((nx, nr))
    for j, r_hat in enumerate(r_nodes):
        rp = -r_hat
        xp = -math.exp(-r_hat) * x_nodes  # x components of the inverse elements
        base = eta_conj * psi.evaluate_at(math.exp(rp) * y) * (math.exp(rp / 2.0) * grid.dy)
        values[:, j] = np.abs(fourier_at(xp, y, base)) ** 2
    return DensityMap.from_values(x_nodes, r_nodes, values, (x_lo, x_hi, r_lo, r_hi))


def _quadratic_peak(values: np.ndarray, i: int, j: int,
                    x_nodes: np.ndarray, r_nodes: np.ndarray):
    """Refine a grid peak with a least-squares quadratic on its 3x3 patch."""
    nx, nr = values.shape
    if not (0 < i < nx - 1 and 0 < j < nr - 1):
        return x_nodes[i], r_nodes[j], values[i, j]
    du = np.array([-1.0, 0.0, 1.0])
    rows = []
    rhs = []
    for a in range(3):
        for b in range(3):
            u, v = du[a], du[b]
            rows.append([1.0, u, v, u * u, v * v, u * v])
            rhs.append(values[i - 1 + a, j - 1 + b])
    c = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0]
    hess = np.array([[2.0 * c[3], c[5]], [c[5], 2.0 * c[4]]])
    det = np.linalg.det(hess)
    if det <= 0:  # not a proper maximum; keep the grid point
        return x_nodes[i], r_nodes[j], values[i, j]
    shift = np.linalg.solve(hess, -np.array([c[1], c[2]]))
    shift = np.clip(shift, -1.0, 1.0)
    u, v = shift
    peak = float(c @ np.array([1.0, u, v, u * u, v * v, u * v]))
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
    x = density_map.x_nodes
    r = density_map.r_nodes
    weighted = density_map.values * np.outer(*_haar_weights(x, r))
    total = float(weighted.sum())
    mean_x = float((weighted.sum(axis=1) * x).sum()) / total
    mean_r = float((weighted.sum(axis=0) * r).sum()) / total
    var_x = float((weighted.sum(axis=1) * (x - mean_x) ** 2).sum()) / total
    var_r = float((weighted.sum(axis=0) * (r - mean_r) ** 2).sum()) / total
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
    zero-padded to len(K) = _fft_length(2n - 1).  K = ifft(T) of the Toeplitz
    kernel T(m) = (hi - lo) sinc((hi - lo) m dy / pi) e^{-i (hi + lo) m dy},
    with [lo, hi] first clipped to one period |x| <= pi/(2 dy) of FT[h]."""
    band = math.pi / (2.0 * dy)
    lo, hi = max(lo, -band), min(hi, band)
    width = max(hi - lo, 0.0)
    m_dy = np.arange(n) * dy
    lags = width * np.sinc(width * m_dy / math.pi) * np.exp(-1j * (hi + lo) * m_dy)
    t = np.zeros(_fft_length(2 * n - 1), dtype=complex)
    t[:n] = lags
    t[len(t) - n + 1:] = np.conj(lags[:0:-1])  # T(-m) = conj(T(m)), so K is real
    return np.fft.ifft(t).real


def normalization_check(seed: PovmSeed, psi_test: StateVector,
                        window: Tuple[float, float, float, float],
                        r_resolution: int = 1024) -> float:
    """integral over the window of p(g) e^{-r} dx dr for input psi_test.

    Each r slice is the exact integral of |FT[kernel]|^2 over the slice's x
    range (``_band_spectrum``); a range covering the whole band is its
    Parseval value.  Tends to 1 on generous windows for states in the span
    probed by the seed.
    """
    _compatible_grids(seed, psi_test)
    x_lo, x_hi, r_lo, r_hi = window
    grid = psi_test.grid
    y = grid.nodes
    dy = grid.dy
    band = math.pi / (2.0 * dy)
    eta = seed.eta.amplitudes
    r_nodes = np.linspace(r_lo, r_hi, r_resolution)
    wr = _trapezoid_weights(r_nodes)
    total = 0.0
    for r_hat, wgt in zip(r_nodes, wr):
        kernel = np.conj(eta) * psi_test.evaluate_at(math.exp(-r_hat) * y)
        # slice integral in the scaled frequency variable x' = -e^{-r} x
        scale = math.exp(-r_hat)
        lo, hi = sorted((-scale * x_lo, -scale * x_hi))
        if lo <= -band and hi >= band:
            # the whole period, where T(m) = (pi/dy) delta_m0
            slice_val = math.pi * dy * float(np.vdot(kernel, kernel).real)
        else:
            spectrum = _band_spectrum(grid.n, dy, lo, hi)
            power = np.abs(np.fft.fft(kernel, len(spectrum))) ** 2
            slice_val = dy * dy * float(power @ spectrum)
        # dx = e^{r} dx'; the squared e^{r'/2} = e^{-r_hat/2} amplitude factor
        # cancels it, leaving the bare slice value times the Haar weight.
        total += wgt * math.exp(-r_hat) * slice_val
    return total


def group_average_sandwich(psi: StateVector, phi: StateVector,
                           u: StateVector, v: StateVector,
                           window: Tuple[float, float, float, float],
                           r_resolution: int = 1024) -> complex:
    """Brute-force  integral d_L g <u|U_g|psi> <phi|U_g^dag|v>  over the window.

    Each r slice is the exact x integral of FT[conj(u) psi(e^r y)]
    conj(FT[conj(v) phi(e^r y)]) (``_band_spectrum``, built once per call).
    The closed-form comparison target is
    sum_s pi <phi| theta(sY)/|Y| |psi> <u| theta(sY) |v>.
    Raises DivergenceDetected (via the cross-sector screen) for inadmissible
    pairs, i.e. when <phi| theta(sY)/|Y| |psi> fails the growth test.
    """
    for other in (phi, u, v):
        if psi.grid != other.grid:
            raise GridMismatch("sandwich states must share a grid")
    _screened_cross_terms(phi, psi)  # admissibility screen

    x_lo, x_hi, r_lo, r_hi = window
    grid = psi.grid
    y = grid.nodes
    spectrum = _band_spectrum(grid.n, grid.dy, x_lo, x_hi) * grid.dy ** 2
    length = len(spectrum)
    same = phi is psi and v is u
    r_nodes = np.linspace(r_lo, r_hi, r_resolution)
    wr = _trapezoid_weights(r_nodes)
    total = 0.0 + 0.0j
    for r, wgt in zip(r_nodes, wr):
        s = math.exp(r)
        f1 = np.fft.fft(np.conj(u.amplitudes) * psi.evaluate_at(s * y), length)
        f2 = f1 if same else np.fft.fft(np.conj(v.amplitudes) * phi.evaluate_at(s * y), length)
        # e^{-r} Haar weight cancels the e^{r} from the two amplitude factors
        total += wgt * complex(np.vdot(f2, f1 * spectrum))
    return total


def _screened_cross_terms(phi: StateVector, psi: StateVector):
    """Both sector cross terms <phi| theta(sY)/|Y| |psi> under grid doubling,
    flagging divergence only where it is material relative to the dominant
    sector (1e-6 relative floor)."""
    terms = {s: sector_integral(phi, psi, s, -1, growth_floor=0.0) for s in (+1, -1)}
    scale = max(abs(values[-1]) for values, _ in terms.values())
    for s, (values, grows) in terms.items():
        if grows and abs(values[-1]) > max(1e-6 * scale, 1e-9):
            raise DivergenceDetected(
                f"cross-sector <theta({'+' if s > 0 else '-'}Y)/|Y|> grows under "
                f"grid doubling (magnitude {abs(values[-1]):.4g}); states inadmissible")
    return {s: values[-1] for s, (values, _) in terms.items()}


def closed_form_sandwich(psi: StateVector, phi: StateVector,
                         u: StateVector, v: StateVector) -> complex:
    """sum_s pi <phi|theta(sY)/|Y||psi> <u|theta(sY)|v> (the two-sector
    closed form of the group average)."""
    cross = _screened_cross_terms(phi, psi)
    return complex(sum(math.pi * cross[s] * _sector_sum(u, v, u.grid, s, 0)
                       for s in (+1, -1)))
