"""Estimation probability densities over the affine group.

``density_at`` returns the conditional probability density of estimating the
group element g when the true transformation is the identity,

    p(g) = Tr[M(g) |psi><psi|] = |<eta| U_{g^{-1}} |psi>|^2,

a density with respect to the left-invariant measure d_L g = e^{-r} dr dx.
With this convention the windowed mass  integral p e^{-r} dx dr  tends to 1
as the window grows (POVM completeness on the span probed by the seed), and
shifting the input state by h translates the density, p'(g) = p(h^{-1} g).  ``scan`` of
an ML or parity seed of a Gaussian and a Gaussian psi is in closed form; other pairs are
quadrature rows, a sampled state's on the halving of the grid that its end rows pick, and
these and ``density_at``, the reference of both, take out the kink's O(dy^2) and O(dy^4) terms.

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
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Tuple

import numpy as np

from .errors import ConfigError, DivergenceDetected, GridMismatch, InsufficientMass
from .grids import (MAX_NODES, QuadratureGrid, StateVector, _check_log_range, _check_phase,
                    _fft_length, _sector_sum, _size, fourier_at, phase_dy, resolving_grid,
                    sector_integral)
from .group import GroupElement, _act_on_nodes, _check_element, inverse
from .povm import PovmSeed

# Relative gap below the maximum within which argmax treats grid nodes as tied.
ARGMAX_TIE_RTOL = 1e-12
_SCAN_CHUNK = 2**14  # complex elements per FFT array of a chunk of map rows
_FORM_BLOCK = 2**12  # complex elements per array of a block of closed-form map columns
_PROBE_RTOL = 1e-10  # of the end rows' peak, within which a sampled scan's rows halve their grid
# of max|psi| at a file's ends, past which its rows r < 0 keep their grid (odd width >= 2.08)
_EDGE_RTOL = 1e-9


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
    """ConfigError for a window that is not 4 real values (x_lo, x_hi, r_lo, r_hi), is
    non-finite or unordered, or has |r| > ln MAX_NODES, where e^{|r|} exceeds the largest grid."""
    if (np.shape(np.array(window, dtype=object)) != (4,)  # ragged too: no ValueError
            or not all(isinstance(v, numbers.Real) for v in window)):
        raise ConfigError(f"window must be 4 values (x_lo, x_hi, r_lo, r_hi), got {window!r}")
    x_lo, x_hi, r_lo, r_hi = window
    if not all(math.isfinite(v) for v in window):
        raise ConfigError(f"window must be finite, got {window}")
    if not (x_lo < x_hi and r_lo < r_hi):
        raise ConfigError(f"window must satisfy x_lo < x_hi and r_lo < r_hi, got {window}")
    _check_log_range(r_lo=r_lo, r_hi=r_hi)


def _map_shape(resolution) -> Tuple[int, int]:
    """(nx, nr) of an integer or pair: ConfigError for neither, for a size that is not an
    integer, then above MAX_NODES cells, then below 16 per axis."""
    pair = (resolution,) * 2 if np.ndim(np.array(resolution, dtype=object)) == 0 else resolution
    if np.shape(np.array(pair, dtype=object)) != (2,):
        raise ConfigError(f"resolution must be one integer or a pair (nx, nr), got {resolution!r}")
    nx, nr = (_size(v, "resolution") for v in pair)
    if nx * nr > MAX_NODES:
        raise ConfigError(f"a resolution of {nx} x {nr} exceeds {MAX_NODES} cells")
    if nx < 16 or nr < 16:
        raise ConfigError(f"resolution must be at least 16 per axis, got {nx} x {nr}")
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


def _row_frequency(seed: PovmSeed, psi: StateVector, x: float, r: float) -> float:
    """(|x| + |c_psi|) e^{-r} + |c_eta| >= |f| in e^{2i f y} of the row integrand of g = (x, r),
    conj(eta(y)) psi(e^{-r} y) e^{2i e^{-r} x y}; c: a Gaussian source's ``linear_phase``, or 0."""
    c = [abs(s.evaluator.linear_phase) if s.evaluator else 0.0 for s in (psi, seed.source)]
    return (abs(x) + c[0]) * math.exp(-r) + c[1]


def density_at(seed: PovmSeed, psi: StateVector, g: GroupElement) -> float:
    """p(g) = |<eta| U_{g^{-1}} |psi>|^2 at one group element; ConfigError for a non-finite x
    or |r| > ln MAX_NODES, GridTooNarrow for a ``_row_frequency`` past pi/(2 dy)."""
    _check_element(g)
    if seed.eta.grid != psi.grid:
        raise GridMismatch("seed and state must share a quadrature grid")
    _check_phase(_row_frequency(seed, psi, g.x, g.r), psi.grid.dy)
    ket = _act_on_nodes(inverse(g), psi.grid, psi.evaluate_at)
    amp = np.vdot(seed.eta.amplitudes, ket) * psi.grid.dy
    return abs(amp - _kink_term(seed, psi)(g.x, g.r, psi.grid.dy)) ** 2


def _kink_term(seed: PovmSeed, psi: StateVector):
    """delta(x, r, dy) = J [(dy^2/24) G(0) - (7 dy^4/1920) G''(0)], J = c_+ + c_- + 2 c_0 for p = 1
    (else 0), G(y) = conj(source(y)) e^{r'/2} psi(e^{r'} y) e^{-2i x' y}, (x', r') = (x, r)^{-1}:
    the Euler-Maclaurin excess of the midpoint <eta|U_{(x', r')}|psi>, nodes dy apart, at the kink
    y = 0 of f = c_s |y| G, [f'] = J G(0), [f'''] = 3 J G''(0).  Source and psi to second order at
    0 by five-point stencils of step psi.grid.dy / 4, exact on a spline's cubic on the cell at 0.
    A p = 0 (SRM) seed needs none: it is built only where psi(0) = 0, so G(0) = G'(0) = 0 and f
    does not jump at 0; a jump term matters only for a call pairing it with a psi not its source."""
    c, h = seed.sector_coeffs, psi.grid.dy / 4.0
    jump = c.get(+1, 0.0) + c.get(-1, 0.0) + 2.0 * c.get(0, 0.0) if seed.weight_power == 1 else 0.0
    stencil = np.array([[0, 0, 12, 0, 0], [1, -8, 0, 8, -1], [-1, 16, -30, 16, -1]]) / (
        12.0 * h ** np.arange(3)[:, None])
    t = h * np.arange(-2.0, 3.0)
    s0, s1, s2 = stencil @ np.conj(seed.source.evaluate_at(t))
    p0, p1, p2 = stencil @ psi.evaluate_at(t)

    def delta(x, r, dy):
        e = np.exp(-r)  # e^{r'}, and x' = -e x
        a0, a1, a2 = s0 * p0, s1 * p0 + e * s0 * p1, s2 * p0 + e * (2.0 * s1 * p1 + e * s0 * p2)
        g2 = a2 + 4j * e * x * a1 - 4.0 * (e * x) ** 2 * a0  # G''(0) e^{-r'/2}
        return jump * np.sqrt(e) * (dy ** 2 / 24.0 * a0 - 7.0 * dy ** 4 / 1920.0 * g2)
    return delta


def _window_grid(seed: PovmSeed, psi: StateVector, window: Tuple[float, float, float, float]):
    """The grid resolving each row's ``_row_frequency`` and |psi(e^{-r} y)|^2 std 0.5 e^{r - z}."""
    x_lo, x_hi, r_lo, r_hi = window
    r_min, p = min(r_lo, 0.0), psi.evaluator
    width = 0.5 * math.exp(r_min - p.log_width) if p else math.inf
    dy = phase_dy(_row_frequency(seed, psi, max(abs(x_lo), abs(x_hi)), r_min))
    return resolving_grid(psi.grid, psi.grid.y_max, min(dy, width))


def _refine_for_window(seed: PovmSeed, psi: StateVector, window: Tuple[float, float, float, float]):
    """Seed and state resampled on ``_window_grid``."""
    fine = _window_grid(seed, psi, window)
    return seed.on_grid(fine), psi.with_grid(fine)


def _support(w: np.ndarray) -> Tuple[int, int]:
    """(lo, hi) left after dropping the longest head w[:lo] and tail w[hi:] of
    w >= 0 whose sums together hold at most 2^-53 of sum w; never empty, and
    all of w if its sum is 0 or not finite."""
    budget = 2.0 ** -53 * float(np.sum(w))
    if not 0.0 < budget < math.inf:
        return 0, len(w)
    head = np.concatenate([[0.0], np.cumsum(w)])
    tail = np.concatenate([[0.0], np.cumsum(w[::-1])])
    i = np.arange(np.searchsorted(head, budget, side="right"))  # heads within budget
    # the longest tail for each; a head and tail that met would hold all of sum w
    j = np.searchsorted(tail, budget - head[i], side="right") - 1
    best = int(np.argmax(i + j))
    return best, len(w) - int(j[best])


def _chunk_rows(nx: int, n: int, per_row: int = 1) -> int:
    """Rows per chunk of ``_row_map`` on n nodes: max(1, _SCAN_CHUNK // (per_row L)),
    L = _fft_length(nx + n - 1)."""
    return max(1, _SCAN_CHUNK // (per_row * _fft_length(nx + n - 1)))


def _row_map(window: Tuple[float, float, float, float], nx: int, nr: int, y: np.ndarray,
             weight: np.ndarray, rows_at, per_row: int = 1, shift=None) -> DensityMap:
    """DensityMap of sum_c |sum_k K_kc e^{-2i s x y_k} - o|^2, c over a row's per_row
    kernel columns, o ``shift(x, r)`` of each x and r of a chunk or 0, y a grid's nodes (y_k =
    -y_{n-1-k}).  ``weight`` >= 0 has |K_kc| <= B weight_k for one B over all rows, so
    ``rows_at(r, keep)`` gives each row's x scale s and the kernels, (len(y[keep]), per_row *
    len(r)), for a chunk of r nodes only on keep = slice(*_support(weight)).  Each chunk runs
    ``grids.fourier_at`` only on _support(max_c |K_kc|) of its own kernels: what it drops of
    any amplitude, all that the map owes to the chunks, is at most 2^-53 sum_k max_c |K_kc|
    <= 2^-53 B sum(weight).
    Float kernels (``rows_at`` on no rows tells) on a window x_lo = -x_hi fold a chunk whose
    own nodes straddle y = 0: Z, fourier_at of e + i o on nodes p > 0, e, o = K(p) +- K(-p)
    and K = 0 off them, gives ((1 - i) Re Z(x) + (1 + i) Re Z(-x))/2, Z(-x) on the x nodes
    reversed (linspace: antisymmetric to 4e-16 max|x|).  ``_chunk_rows(nx, n, per_row)`` rows
    per chunk, n = len(y[keep]) or, if the map folds, its longer side of y = 0, keep each FFT
    array to at most _SCAN_CHUNK complex elements or one row."""
    x_nodes = np.linspace(*window[:2], nx)
    r_nodes = np.linspace(*window[2:], nr)
    values = np.empty((nx, nr))
    keep = slice(*_support(weight))
    mid, half = len(y) // 2 - keep.start, y[len(y) // 2:]  # the first of y[keep] > 0, the y > 0
    y = y[keep]
    fold = (window[0] == -window[1] and 0 < mid < len(y)
            and not np.iscomplexobj(rows_at(r_nodes[:0], keep)[1]))
    rows = _chunk_rows(nx, max(mid, len(y) - mid) if fold else len(y), per_row)
    for j in range(0, nr, rows):
        scale, kernels = rows_at(r_nodes[j:j + rows], keep)
        lo, hi = _support(np.abs(kernels).max(axis=1))
        if folds := fold and lo < mid < hi:  # e + i o in place of the kernels, on nodes p > 0
            z = np.zeros((max(hi - mid, mid - lo), kernels.shape[1]), dtype=complex)
            z.real[:hi - mid] = z.imag[:hi - mid] = kernels[mid:hi]
            z.real[:mid - lo] += kernels[lo:mid][::-1]
            z.imag[:mid - lo] -= kernels[lo:mid][::-1]
            kernels, lo, hi = z, 0, len(z)
        amps = fourier_at(np.outer(x_nodes, np.repeat(scale, per_row)),
                          (half if folds else y)[lo:hi], kernels[lo:hi])
        if folds:
            amps = (0.5 - 0.5j) * amps.real + (0.5 + 0.5j) * amps.real[::-1]
        kernels = z = None  # freed before rows_at builds the next chunk
        if shift is not None:
            amps -= shift(x_nodes[:, None], r_nodes[j:j + rows])
        values[:, j:j + rows] = (np.abs(amps) ** 2).reshape(nx, -1, per_row).sum(axis=2)
    return DensityMap(x_nodes, r_nodes, values)


def scan(seed: PovmSeed, psi: StateVector,
         window: Tuple[float, float, float, float],
         resolution) -> DensityMap:
    """Fill a DensityMap with density_at over a tensor grid.

    ``resolution`` is an int or an (nx, nr) pair, at least 16 per axis and at most
    MAX_NODES cells.  A p = 1 seed of a Gaussian and a Gaussian psi take ``_gaussian_map``,
    refused where ``_scan_rows``, which every other pair takes, refuses."""
    if not (seed.weight_power == 1 and seed.source.evaluator and psi.evaluator):
        return _scan_rows(seed, psi, window, resolution)
    _check_window(window)
    nx, nr = _map_shape(resolution)
    _window_grid(seed, psi, window)  # the rows' GridTooNarrow, with no resampling
    return _gaussian_map(seed.source.evaluator, psi.evaluator, seed.sector_coeffs, window, nx, nr)


def _scan_rows(seed: PovmSeed, psi: StateVector,
               window: Tuple[float, float, float, float], resolution) -> DensityMap:
    """``scan`` by quadrature rows less ``_kink_term``, on ``_refine_for_window``'s grid or, for a
    sampled psi or seed source, its coarsest halving to an even n that ``_check_phase`` admits
    and whose end rows r_lo, r_hi, each one FFT, agree with the next finer grid's to _PROBE_RTOL
    of their peak, as must, if that grid resamples psi's, the row nearest r = 0 of its own peak;
    not if rows r < 0 see a sampled psi jump to 0 past its ends, unbounded by them."""
    _check_window(window)
    nx, nr = _map_shape(resolution)
    a = psi.amplitudes  # as given: resampled on a finer grid, psi is 0 past these ends
    cut = not psi.evaluator and window[2] < 0 and max(abs(a[[0, -1]])) > _EDGE_RTOL * abs(a).max()
    own, (seed, psi) = psi.grid, _refine_for_window(seed, psi, window)
    kink = _kink_term(seed, psi)

    def rows_on(grid):  # |eta| and ``rows_at`` of the map's rows on the nodes of grid
        eta_conj = np.conj(seed.on_grid(grid).eta.amplitudes)  # through the seed's own spline
        if real := not (eta_conj.imag.any() or psi.amplitudes.imag.any()):  # float kernels
            eta_conj = eta_conj.real.copy()

        def rows_at(r, keep=slice(None)):
            scale = np.exp(-r)  # e^{r'} of the inverse elements
            base = psi.evaluate_at(np.outer(scale, grid.nodes[keep])) * eta_conj[keep]  # row per r
            base *= (np.sqrt(scale) * grid.dy)[:, None]
            return -scale, (base.real if real else base).T  # x' = -e^{-r} x of the inverse g
        return np.abs(eta_conj), rows_at

    # the probe rows at the DFT bins 2 s x = pi m / y_max next to the map's x nodes, m (nx, rows),
    # where sum_k K_k e^{-2i s x y_k} = (-1)^m e^{-i pi m / n} FFT(K)_m on every halving
    r = np.array(window[2:])
    if psi.grid != own:  # resampled, the end rows do not bound the rows near r = 0: probe one
        r = np.append(r, min(np.linspace(*window[2:], nr), key=abs))
    per_x = -2.0 * psi.grid.y_max * np.exp(-r) / math.pi  # m / x
    m = np.rint(np.outer(np.linspace(*window[:2], nx), per_x)).astype(int)

    def end_rows(grid):
        spectra = np.fft.fft(rows_on(grid)[1](r)[1].T).T[m % grid.n, np.arange(len(r))]
        amps = np.exp(1j * math.pi * m * (1.0 - 1.0 / grid.n)) * spectra
        return np.abs(amps - kink(m / per_x, r, grid.dy)) ** 2

    grid = psi.grid
    if not (psi.evaluator and seed.source.evaluator or cut):
        freq = _row_frequency(seed, psi, max(abs(window[0]), abs(window[1])), window[2])
        ends = end_rows(grid)
        while grid.n % 4 == 0 and freq <= math.pi * grid.n / (8.0 * grid.y_max):
            new = end_rows(half := QuadratureGrid(grid.y_max, grid.n // 2))
            peaks = ends.max(axis=0)
            peaks[:2] = peaks[:2].max()
            if np.any(np.abs(new - ends) > _PROBE_RTOL * peaks):
                break
            grid, ends = half, new
    return _row_map(window, nx, nr, grid.nodes, *rows_on(grid),
                    shift=lambda x, r: kink(x, r, grid.dy))


@functools.lru_cache(maxsize=None)
def _weideman(n: int):
    """L and the coefficients, highest degree first, of ``_faddeeva``'s series, on first use."""
    length = math.sqrt(n / math.sqrt(2.0))
    t = length * np.tan(np.arange(4 * n) * math.pi / (4 * n))  # e^{-t^2} 0 at tan(pi/2)
    return length, tuple(np.fft.fft(np.exp(-t * t) * (length ** 2 + t * t)).real[n:0:-1] / (4 * n))


def _faddeeva(z: np.ndarray, n: int = 36) -> np.ndarray:
    """w(z) = e^{-z^2} erfc(-iz) (DLMF 7.2) for Im z >= 0 by Weideman's rational series in
    Z = (L + iz)/(L - iz) of degree n - 1 (SIAM J. Numer. Anal. 31(5), 1497-1518, 1994)."""
    length, coeffs = _weideman(n)
    inv = 1.0 / (length - 1j * z)
    big_z = (length + 1j * z) * inv
    p = np.full_like(big_z, coeffs[0])
    for c in coeffs[1:]:  # Horner in place, np.polyval's steps
        p *= big_z
        p += c
    return (2.0 * p * inv + 1.0 / math.sqrt(math.pi)) * inv


def _gaussian_map(p0, p, c, window, nx: int, nr: int) -> DensityMap:
    """``scan`` of the c_s of a p = 1 seed of a Gaussian (a0, z0, k0) and a Gaussian psi (a, z, k)
    in blocks of <= _FORM_BLOCK points: at g^{-1} = (x', r') A0 A e^{r'/2} e^delta sum_s c_s J(s
    gamma), J(g) = integral_0^inf t e^{-beta t^2 + g t} dt, beta = s0 + s e^{2r'}, gamma = 2 s0 a0
    + 2 s a e^{r'} + 2i (k0 - k e^{r'} - x'), delta = -s0 a0^2 - s a^2, s_i = e^{2 z_i}.  For Re g
    <= 0, J(g) = (1 + sqrt(pi) u w(-iu)) / 2 beta, u = g / 2 sqrt(beta), and J(-g) = J(g) + the
    whole line's (-g / 2 beta) sqrt(pi / beta) e^{g^2 / 4 beta}, its exponent folded with delta
    into one of real part <= 0.  With k0 = k = 0 and x_lo = -x_hi, gamma(-x) = conj gamma(x) makes
    the map even in x: blocks run on the ceil(nx / 2) nodes x >= 0 and the rest are their mirror."""
    s0, s = math.exp(2.0 * p0.log_width), math.exp(2.0 * p.log_width)
    c_plus, c_minus = c.get(+1, c.get(0, 0.0)), c.get(-1, c.get(0, 0.0))
    delta = -s0 * p0.center ** 2 - s * p.center ** 2
    x_nodes, r_nodes = np.linspace(*window[:2], nx), np.linspace(*window[2:], nr)
    mirror = p0.linear_phase == 0.0 == p.linear_phase and window[0] == -window[1]
    xs = x_nodes[nx // 2:] if mirror else x_nodes  # evaluated; the rest mirror them
    values, cols = np.empty((nx, nr)), max(1, _FORM_BLOCK // len(xs))
    norm = 2.0 * math.sqrt(s0 * s) / math.pi  # (A0 A)^2, times (e^{r'/2})^2 per column
    for j in range(0, nr, cols):
        e = np.exp(-r_nodes[j:j + cols])  # e^{r'}; x' = -e^{r'} x
        beta = s0 + s * e * e
        gamma = 2.0 * (s0 * p0.center + s * p.center * e) + 2j * (
            p0.linear_phase - p.linear_phase * e + np.outer(xs, e))
        u = np.where(flip := gamma.real > 0, -gamma, gamma) / (2.0 * np.sqrt(beta))
        half = (1.0 + math.sqrt(math.pi) * u * _faddeeva(-1j * u)) * math.exp(delta)
        whole = gamma * np.sqrt(math.pi / beta) * np.exp(delta + gamma * gamma / (4.0 * beta))
        amp = ((c_plus + c_minus) * half + whole * np.where(flip, c_plus, -c_minus)) / (2.0 * beta)
        values[nx - len(xs):, j:j + cols] = (amp.real ** 2 + amp.imag ** 2) * (norm * e)
    values[:nx - len(xs)] = values[::-1][:nx - len(xs)]
    return DensityMap(x_nodes, r_nodes, values)


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
    scanned window, whatever mass the window captures; InsufficientMass if it captures none."""
    x, r = density_map.x_nodes, density_map.r_nodes
    px, pr = _marginals(density_map, np.exp(-r))
    total = float(px.sum())
    if total == 0.0:
        raise InsufficientMass("window captures none of the density")
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
    for FT[h](x) = sum_k h_k e^{-2i x y_k} dy on at most n uniform nodes and F = fft(h)
    zero-padded to L = len(K) = _fft_length(2n - 1).  K = ifft(T) of the Toeplitz kernel
    T(m) = (hi - lo) sinc((hi - lo) m dy / pi) e^{-i (hi + lo) m dy}, m = j - k, with [lo, hi]
    first clipped to one period |x| <= pi/(2 dy) of FT[h]; the exponential is 1, and skipped,
    on a band hi + lo = 0.  T(-m) = conj(T(m)) and n <= L/2 + 1: K is the real inverse FFT
    of T(0 .. n-1) padded."""
    band = math.pi / (2.0 * dy)
    lo, hi = max(lo, -band), min(hi, band)
    width = max(hi - lo, 0.0)
    m_dy = np.arange(n) * dy
    shift = np.exp(-1j * (hi + lo) * m_dy) if hi + lo else 1.0
    lags = width * np.sinc(width * m_dy / math.pi) * shift
    return np.fft.irfft(lags, _fft_length(2 * n - 1))


def _group_slices(psi: StateVector, phi: StateVector, u: StateVector, v: StateVector,
                  window: Tuple[float, float, float, float], r_resolution: int,
                  sigma: int) -> complex:
    """integral over the window of d_L g <u|U_h|psi> <phi|U_h^dag|v>, h = g^sigma.

    Node r maps to h = (c x, sigma r), c = sigma e^{(sigma-1) r/2}; its slice is
    the exact integral of FT[conj(u) psi(e^{sigma r} y)] conj(FT[conj(v) phi(...)])
    over the x_h band sorted((c x_lo, c x_hi)), Parseval once that holds the
    period |x_h| <= pi/(2 dy), times |c| and the r trapezoid weight.  Slices run on
    the nodes keep = slice(*_support(|u| + |v|)), as |conj(u) psi(...)| <= |u| max|psi|,
    each on its span there: the y with e^{sigma r} y between the first and last nodes of
    _support(|psi|) and _support(|phi|), past which each holds at most 2^-53 of its own
    sum.  An empty span adds 0; the others widen to a power of two of nodes (<= len(keep)).
    sigma = +1 has one band for all r, so it keeps a band spectrum per size; sigma = -1 keeps
    one.  Real factors take rfft, and K folds to even_j = K_j + K_{L-j}, odd_j = K_j - K_{L-j}
    (K_j where L - j is no other rfft bin), so a slice is sum_j Re(F1_j conj F2_j) even_j +
    i Im(...) odd_j; sums are einsum, as BLAS dot kernels would add pages to resident memory."""
    _check_window(window)
    r_resolution = _size(r_resolution, "r_resolution")
    if not 2 <= r_resolution <= MAX_NODES:
        raise ConfigError(f"r_resolution must lie in [2, {MAX_NODES}], got {r_resolution}")
    for other in (phi, u, v):
        if psi.grid != other.grid:
            raise GridMismatch("oracle states must share a quadrature grid")
    if sigma > 0:  # screen |psi><phi|; a seed's |eta><eta| (sigma = -1) is admissible
        _screened_cross_terms(phi, psi)

    x_lo, x_hi, r_lo, r_hi = window
    keep = slice(*_support(np.abs(u.amplitudes) + np.abs(v.amplitudes)))
    u_conj, v_conj = np.conj(u.amplitudes[keep]), np.conj(v.amplitudes[keep])
    if real := not any(s.amplitudes.imag.any() for s in (psi, phi, u, v)):
        u_conj, v_conj = u_conj.real, v_conj.real
    y, dy = psi.grid.nodes[keep], psi.grid.dy
    spans = [_support(np.abs(s.amplitudes)) for s in {psi, phi}]
    y_lo, y_hi = psi.grid.nodes[[min(spans)[0], max(b for _, b in spans) - 1]]
    band = math.pi / (2.0 * dy)
    fft, part = (np.fft.rfft, np.real) if real else (np.fft.fft, np.asarray)

    @functools.lru_cache(maxsize=None if sigma > 0 else 1)
    def spectrum_of(size, lo, hi):
        k = _band_spectrum(size, dy, lo, hi) * dy ** 2
        if not real:
            return k, k
        mirror = np.zeros(len(k) // 2 + 1)
        mirror[1:(len(k) + 1) // 2] = k[:len(k) // 2:-1]  # K_{L-j} where 0 < j < L - j
        return k[:len(mirror)] + mirror, k[:len(mirror)] - mirror

    same = phi is psi and v is u
    r_nodes = np.linspace(r_lo, r_hi, r_resolution)
    starts, ends = (np.searchsorted(y, np.exp(-sigma * r_nodes) * end, side).tolist()
                    for end, side in ((y_lo, "left"), (y_hi, "right")))
    total = 0.0 + 0.0j
    for r, wgt, a, b in zip(r_nodes, _trapezoid_weights(r_nodes), starts, ends):
        if a >= b:
            continue
        # numpy keeps freed buffers under 1 kB by size: spans of every size would hold 0.4 MB
        size = min(1 << (b - a - 1).bit_length(), len(y))
        a = min(a, len(y) - size)
        b = a + size
        c = sigma * math.exp((sigma - 1) * r / 2.0)
        lo, hi = sorted((c * x_lo, c * x_hi))
        sy = math.exp(sigma * r) * y[a:b]
        f = part(psi.evaluate_at(sy))
        h1 = u_conj[a:b] * f
        h2 = h1 if same else v_conj[a:b] * (f if phi is psi else part(phi.evaluate_at(sy)))
        if lo <= -band and hi >= band:
            # the whole period, where T(m) = (pi/dy) delta_m0
            slice_val = math.pi * dy * complex(np.einsum("j,j", np.conj(h2), h1))
        else:
            even, odd = spectrum_of(size, lo, hi)
            length = _fft_length(2 * size - 1)
            f1 = fft(h1, length)
            p = f1 * np.conj(f1 if same else fft(h2, length))
            slice_val = complex(np.einsum("j,j", p.real, even), np.einsum("j,j", p.imag, odd))
        total += wgt * abs(c) * slice_val
    return total


def normalization_check(seed: PovmSeed, psi_test: StateVector,
                        window: Tuple[float, float, float, float],
                        r_resolution: int = 128) -> float:
    """integral over the window of p(g) e^{-r} dx dr for input psi_test: with
    p(g) = |<psi_test|U_g|eta>|^2, the group average of |eta><eta| taken in
    h = g^{-1} (``_group_slices``, sigma = -1), so the seed keeps its grid.
    ConfigError for a window that ``_check_window`` refuses or an r_resolution
    outside [2, MAX_NODES] or not an integer.  Tends to 1 on generous windows
    for states in the span probed by the seed."""
    return _group_slices(psi_test, psi_test, seed.eta, seed.eta, window, r_resolution,
                         -1).real


def group_average_sandwich(psi: StateVector, phi: StateVector,
                           u: StateVector, v: StateVector,
                           window: Tuple[float, float, float, float],
                           r_resolution: int = 128) -> complex:
    """Brute-force  integral d_L g <u|U_g|psi> <phi|U_g^dag|v>  over the window
    (``_group_slices``, sigma = +1).  ConfigError, before the screen, for
    the window and r_resolution that ``normalization_check`` refuses.  The
    closed-form target is sum_s pi <phi| theta(sY)/|Y| |psi> <u| theta(sY) |v>.
    Raises DivergenceDetected (via the cross-sector screen) for inadmissible
    pairs, i.e. when <phi| theta(sY)/|Y| |psi> fails the growth test.  The
    screen is kept for the last (phi, psi) pair, so a ``closed_form_sandwich``
    of the same pair that follows does not repeat it.

    A kinked psi, phi (a seed) has Fourier tails past the band |x| <= pi/(2 dy)
    that alias on wider x windows: the vacuum's ML seed on (-1000, 1000, -8, 9)
    is 5.5e-4 off.  ``normalization_check``, which squeezes the smooth test
    state, is the oracle for the integral of p d_L g (4.0e-6 off there).
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
