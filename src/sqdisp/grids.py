"""Quadrature grids and single-mode states in the Y-quadrature representation.

Wavefunctions are sampled on a midpoint-offset uniform grid

    y_k = -y_max + (k + 1/2) dy,    dy = 2 y_max / n,    k = 0 .. n-1,

so no node sits at y = 0 and the node set is exactly symmetric under
reflection.  Integrals are midpoint sums (identical to the trapezoid rule on
offset nodes), which converge superalgebraically only for integrands that
are smooth on the whole line and decay inside the window.  Every half-line
quantity is one sector integral,

    integral over s*y > 0 of |y|^p conj(phi(y)) psi(y) dy,

refined by grid doubling (``sector_integral``): the moments w_s of |psi|^2,
the square-root-measurement values <psi| D_s |psi>, the oracle cross terms
and the seed certificates <eta_s| D_s |eta_s>, which are adaptive
quadratures of the seed eta itself.  A half line ends at y = 0, a cell
edge, where the integrand f is in general not flat: there the midpoint sum
differs from the integral by the Euler-Maclaurin endpoint series
c_2 dy^2 + c_4 dy^4 + ... (c_2 = f'(0)/24 on y > 0), in even powers of dy
only.  ``refine_by_doubling`` therefore Richardson-extrapolates the doubling
sequence, two Romberg columns deep, and stops when the extrapolated values
agree.  Negative powers are screened by a grid-doubling growth test on the
raw values: a value that keeps growing by more than ``GROWTH_FACTOR`` per
doubling is reported as divergent rather than returned.

The Gaussian family used throughout is

    psi(y) = (2 e^{2z} / pi)^{1/4} e^{i phi} e^{-2 i c y} e^{-(y - a)^2 e^{2z}},

a displaced squeezed state with center ``a``, log-width ``z`` and linear
phase ``c``.  Its |psi|^2 standard deviation is 1/(2 e^z); the amplitude
Gaussian's width parameter is 1/(sqrt(2) e^z).  Statistics reported by this
package always refer to the probability (|psi|^2) standard deviation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, DivergenceDetected, GridMismatch, GridTooNarrow

DEFAULT_N = 4096
MAX_NODES = 2**20
ADAPTIVE_RTOL = 1e-9
GROWTH_FACTOR = 1.05
_CHIRP_BLOCK = 64  # B in the chirps' m = B q + p


@dataclass(frozen=True)
class QuadratureGrid:
    """Midpoint-offset uniform grid on [-y_max, y_max], n even and <= MAX_NODES."""

    y_max: float
    n: int

    def __post_init__(self):
        if not (self.y_max > 0 and math.isfinite(self.y_max)):
            raise ValueError("y_max must be positive and finite")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError("n must be an even integer >= 2")
        if self.n > MAX_NODES:
            raise ConfigError(f"a grid of {self.n} nodes exceeds {MAX_NODES}")
        object.__setattr__(self, "dy", 2.0 * self.y_max / self.n)

    @functools.cached_property
    def _positive_half(self) -> np.ndarray:
        """The n/2 nodes above 0, (k + 1/2) dy, read-only."""
        pos = (np.arange(self.n // 2) + 0.5) * self.dy
        pos.flags.writeable = False
        return pos

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """All n nodes, read-only, built on first use from the positive half
        mirrored, so y_k = -y_{n-1-k} holds exactly."""
        pos = self._positive_half
        nodes = np.concatenate([-pos[::-1], pos])
        nodes.flags.writeable = False
        return nodes

    def refined(self, factor: int = 2) -> "QuadratureGrid":
        return QuadratureGrid(self.y_max, self.n * factor)


@dataclass(frozen=True)
class GaussianStateParams:
    """Parameters of an exactly Gaussian wavefunction (see module docstring)."""

    center: float
    log_width: float = 0.0
    linear_phase: float = 0.0

    def __call__(self, y: np.ndarray) -> np.ndarray:
        s = math.exp(2.0 * self.log_width)
        amp = (2.0 * s / math.pi) ** 0.25
        wave = np.exp(-s * (y - self.center) ** 2).astype(complex)
        if self.linear_phase != 0.0:
            wave = wave * np.exp(-2.0j * self.linear_phase * y)
        return amp * wave

    @property
    def probability_std(self) -> float:
        return 0.5 * math.exp(-self.log_width)


def default_grid(center: float = 0.0, log_width: float = 0.0,
                 n: Optional[int] = None) -> QuadratureGrid:
    """Grid sized for a Gaussian at ``center``: y_max = |a| + 10 max(amp std, 1).

    Without ``n`` the node count is the smallest power of two >= DEFAULT_N
    with dy at most the |psi|^2 standard deviation 0.5 e^{-z}.  Above
    MAX_NODES / 2, where refinement could no longer double, that raises
    GridTooNarrow.
    """
    amp_std = math.exp(-log_width) / math.sqrt(2.0)
    y_max = abs(center) + 10.0 * max(amp_std, 1.0)
    if n is None:
        needed = 2.0 * y_max / (0.5 * math.exp(-log_width))
        if needed > MAX_NODES // 2:
            raise GridTooNarrow(
                f"state with log-width {log_width:.4g} needs {needed:.3g} nodes on "
                f"|y| <= {y_max:.4g} to resolve its std, cap is {MAX_NODES // 2}")
        n = max(DEFAULT_N, 2 ** math.ceil(math.log2(needed)))
    return QuadratureGrid(y_max, n)


class StateVector:
    """A pure single-mode state sampled on a quadrature grid.

    States are immutable after construction; ``amplitudes`` is read-only.
    When ``evaluator`` is present the state is exactly Gaussian and can be
    evaluated anywhere in closed form; sampled states fall back to a
    not-a-knot cubic spline (numpy) inside the grid window and zero outside.
    """

    def __init__(self, grid: QuadratureGrid, amplitudes: np.ndarray,
                 evaluator: Optional[GaussianStateParams] = None):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (grid.n,):
            raise ValueError("amplitude array does not match grid")
        amplitudes = amplitudes.copy()
        amplitudes.flags.writeable = False
        self.grid = grid
        self.amplitudes = amplitudes
        self.evaluator = evaluator
        self.norm_certificate = math.sqrt(float(np.sum(np.abs(amplitudes) ** 2)) * grid.dy)
        self._spline = None

    @classmethod
    def from_params(cls, params: GaussianStateParams, grid: QuadratureGrid) -> "StateVector":
        return cls(grid, params(grid.nodes), evaluator=params)

    def evaluate_at(self, y: np.ndarray) -> np.ndarray:
        """Amplitudes at arbitrary points: closed form for Gaussian states,
        not-a-knot cubic spline (zero outside the window) for sampled ones."""
        y = np.asarray(y, dtype=float)
        if self.evaluator is not None:
            return self.evaluator(y)
        if self._spline is None:
            self._spline = _NotAKnotSpline(self.grid, self.amplitudes)
        return self._spline(y)

    def with_grid(self, grid: QuadratureGrid) -> "StateVector":
        if grid == self.grid:
            return self
        return StateVector(grid, self.evaluate_at(grid.nodes), evaluator=self.evaluator)

    def probability_density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @property
    def is_real(self) -> bool:
        scale = float(np.max(np.abs(self.amplitudes))) or 1.0
        return float(np.max(np.abs(self.amplitudes.imag))) <= 1e-12 * scale


def _check_state_fits_grid(center: float, prob_std: float, grid: QuadratureGrid):
    if abs(center) + 6.0 * prob_std > grid.y_max:
        raise GridTooNarrow(
            f"state centered at {center} with std {prob_std:.4g} needs "
            f"y_max >= {abs(center) + 6.0 * prob_std:.4g}, grid has {grid.y_max:.4g}")


def make_coherent(a: float, grid: Optional[QuadratureGrid] = None) -> StateVector:
    """Coherent state |i a>: wavefunction (2/pi)^{1/4} exp(-(y - a)^2)."""
    return make_displaced_squeezed(a, 0.0, grid)


def make_displaced_squeezed(a: float, z: float,
                            grid: Optional[QuadratureGrid] = None) -> StateVector:
    """Displaced squeezed state: (2 e^{2z}/pi)^{1/4} exp(-(y - a)^2 e^{2z})."""
    params = GaussianStateParams(center=a, log_width=z)
    if grid is None:
        grid = default_grid(a, z)
    _check_state_fits_grid(a, params.probability_std, grid)
    return StateVector.from_params(params, grid)


def make_vacuum(grid: Optional[QuadratureGrid] = None) -> StateVector:
    return make_coherent(0.0, grid)


def make_sampled(grid: QuadratureGrid, amplitudes: np.ndarray) -> StateVector:
    """Sampled state with finite ``amplitudes``, normalized; ``StateVector(grid,
    amplitudes)`` keeps raw samples as given."""
    state = StateVector(grid, amplitudes)
    if not np.all(np.isfinite(state.amplitudes)):
        raise ValueError("state amplitudes must be finite")
    if state.norm_certificate == 0.0:
        raise ValueError("cannot normalize a zero state")
    return StateVector(grid, state.amplitudes / state.norm_certificate)


def inner_product(phi: StateVector, psi: StateVector) -> complex:
    """Midpoint quadrature of conj(phi(y)) psi(y); conjugate symmetric."""
    if phi.grid != psi.grid:
        raise GridMismatch("inner_product requires states on the same grid")
    return complex(np.sum(np.conj(phi.amplitudes) * psi.amplitudes) * phi.grid.dy)


def state_norm(psi: StateVector) -> float:
    return psi.norm_certificate


def phase_resolving_grid(grid: QuadratureGrid, y_max: float, freq: float) -> QuadratureGrid:
    """Grid on [-y_max, y_max] fine enough for both ``grid`` and e^{-2i freq y}.

    The phase needs dy <= pi / (8 max(1, |freq|)), 16 nodes per period.
    ``grid`` itself is kept when it spans the same window finely enough;
    otherwise the node count is the next power of two.
    """
    dy_req = min(grid.dy, math.pi / (8.0 * max(1.0, abs(freq))))
    if y_max == grid.y_max and dy_req == grid.dy:
        return grid
    needed = 2.0 * y_max / dy_req if dy_req > 0 else math.inf
    if needed > MAX_NODES:
        raise GridTooNarrow(
            f"resolving phase frequency {freq:.3g} on |y| <= {y_max:.4g} needs "
            f"{needed:.3g} nodes, cap is {MAX_NODES}")
    return QuadratureGrid(y_max, 2 ** math.ceil(math.log2(max(needed, 2.0))))


@functools.lru_cache(maxsize=None)
def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy.fft transforms quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=64)
def _chirp_integers(count: int) -> np.ndarray:
    """What _chirp multiplies alpha by (row 0) and theta by (row 1), read-only."""
    q = _CHIRP_BLOCK * np.arange(-(-count // _CHIRP_BLOCK), dtype=float)
    p = np.arange(_CHIRP_BLOCK, dtype=float)
    ints = np.array([np.r_[q * q, p * p, 2.0 * q], np.r_[q, p, 0.0 * q]])
    ints.flags.writeable = False
    return ints


def _chirp(alpha, count: int, theta=0.0) -> np.ndarray:
    """e^{-i (alpha m^2 + theta m)}, m = 0 .. count - 1 < 2^20, a row for each
    alpha and theta.  For m = B q + p, B = _CHIRP_BLOCK, only the anchors
    alpha (B q)^2 + theta B q, in-block terms alpha p^2 + theta p and steps
    2 alpha B q are exponentiated, each phase reduced exactly: c = alpha/2pi
    or theta/2pi is cut into parts of at most 13 bits, exact times an integer
    k < 2^40 and so modulo 1, and a rest whose product with k is below 2^4 c.
    The anchor times step^p is a running product over the block."""
    alpha, theta = np.broadcast_arrays(alpha, theta)
    c = np.stack([alpha, theta], axis=-1)[..., None] / (2.0 * math.pi)
    k = _chirp_integers(count)
    scale = np.ldexp(1.0, 12 * np.arange(1, 4).reshape((3,) + (1,) * c.ndim) - np.frexp(c)[1])
    prefix = np.round(c * scale) / scale
    turns = np.concatenate([prefix[:1], np.diff(prefix, axis=0)]) * k
    turns -= np.rint(turns)
    phase = np.exp(-2j * math.pi * (turns.sum(axis=0) + (c - prefix[-1]) * k).sum(axis=-2))
    nq = (phase.shape[-1] - _CHIRP_BLOCK) // 2
    block = np.repeat(phase[..., nq + _CHIRP_BLOCK:, None], _CHIRP_BLOCK, axis=-1)
    block[..., 0] = phase[..., :nq]
    np.cumprod(block, axis=-1, out=block)
    block *= phase[..., None, nq:nq + _CHIRP_BLOCK]
    return block.reshape(alpha.shape + (-1,))[..., :count]


def fourier_at(x: np.ndarray, y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sum_k h_k e^{-2i x_j y_k} for every x_j, by a chirp-z transform.

    ``y`` is uniformly spaced; ``h`` is one vector of length len(y) or a
    (len(y), m) stack.  ``x`` is uniformly spaced (increasing or decreasing)
    and shared by the columns of ``h``, or an (nx, m) array of one such grid
    per column.  With x_j = x_0 + j dx, y_k = y_0 + k dy and alpha = dx dy,
    Bluestein's identity 2jk = j^2 + k^2 - (j - k)^2 gives

        e^{-2i x_j y_0 - i alpha j^2} sum_k [h_k e^{-i (alpha k^2 + 2 x_0 dy k)}]
                                         e^{i alpha (j - k)^2},

    a convolution by FFTs of length L >= len(x) + len(y) - 1: per column
    O(L log L) time, O(L) memory and no exponential per node (``_chirp``).
    """
    y = np.asarray(y, dtype=float)
    h = np.asarray(h)
    nx, n = len(x), len(y)
    x = np.asarray(x, dtype=float).reshape(nx, -1).T  # one row per grid, as every array below
    dy = (y[-1] - y[0]) / (n - 1) if n > 1 else 0.0
    alpha = dy * (x[:, -1] - x[:, 0]) / (nx - 1) if nx > 1 else 0.0 * x[:, 0]
    length = _fft_length(nx + n - 1)
    # stage by stage, so at most three length-L arrays per row are alive
    conv = np.zeros((h.size // n, length), dtype=complex)
    np.multiply(_chirp(alpha, n, 2.0 * dy * x[:, 0]), h.reshape(n, -1).T, out=conv[:, :n])
    conv = np.fft.fft(conv)
    chirp = _chirp(alpha, max(nx, n))
    lags = np.zeros((len(alpha), length), dtype=complex)  # e^{i alpha m^2}, m = -(n-1) .. nx-1
    np.conjugate(chirp[:, :nx], out=lags[:, :nx])
    np.conjugate(chirp[:, n - 1:0:-1], out=lags[:, length - n + 1:])
    post = np.exp(-2.0j * y[0] * x) * chirp[:, :nx]
    del chirp
    conv *= np.fft.fft(lags)
    del lags
    return (np.fft.ifft(conv)[:, :nx] * post).T.reshape((nx,) + h.shape[1:])


_SPLINE_CHUNK = 2**12  # points per pass, so the temporaries stay in cache
# rho^|m| / (2 sqrt 3), |m| <= 64: the Green's function of (1, 4, 1) on the
# integers, rho = sqrt(3) - 2 the pole of the recursive cubic-spline prefilter
# (Unser, IEEE SPM 16(6), 1999).  Later taps are below |rho|^65 < 2e-37.
_GREEN = (math.sqrt(3.0) - 2.0) ** np.abs(np.arange(-64, 65)) / (2.0 * math.sqrt(3.0))


def _solve_141(b: np.ndarray) -> np.ndarray:
    """x with x_{i-1} + 4 x_i + x_{i+1} = b_i for i = 1..N, x_0 = x_{N+1} = 0.

    _GREEN convolved with the odd periodic extension of b, period
    [0, b, 0, -reversed(b)] of length 2(N + 1), obeys every row and is odd
    about i = 0 and i = N + 1, so both ends vanish.  For N < 64 the kernel
    spans more than a period, and the index modulo 2(N + 1) wraps it.
    """
    n = len(b)
    period = np.concatenate([[0.0], b, [0.0], -b[::-1]])
    return np.convolve(period[np.arange(-63, n + 65) % (2 * n + 2)], _GREEN, mode="valid")


class _NotAKnotSpline:
    """Not-a-knot cubic spline through samples on a QuadratureGrid, zero
    outside [nodes[0], nodes[-1]] and at NaN points.

    In the unit coordinate u = (y - y_i)/dy of interval i the spline is
    f_i + c1_i u + c2_i u^2 + c3_i u^3, written through the curvatures
    m_i = dy^2 S''(y_i).  These obey m_{i-1} + 4 m_i + m_{i+1} = 6 d_i at
    interior nodes, d_i = f_{i-1} - 2 f_i + f_{i+1}; not-a-knot (m_0 =
    2 m_1 - m_2 and its mirror; de Boor) folds the end rows into m_1 = d_1
    and m_{n-2} = d_{n-2}, and the rest is the (1, 4, 1) system that
    ``_solve_141`` solves by one O(n) convolution.  n = 2 gives the straight
    line and n = 4 the single cubic through all four points, as scipy's
    CubicSpline does.
    """

    def __init__(self, grid: QuadratureGrid, f: np.ndarray):
        n = grid.n
        m = np.zeros(n, dtype=complex)
        if n >= 4:
            d = f[:-2] - 2.0 * f[1:-1] + f[2:]
            m[1], m[-2] = d[0], d[-1]
            if n > 4:
                rhs = 6.0 * d[1:-1]
                rhs[0] -= m[1]
                rhs[-1] -= m[-2]
                m[2:-2] = _solve_141(rhs)
            m[0], m[-1] = 2.0 * m[1] - m[2], 2.0 * m[-2] - m[-3]
        # interval n-1 is the constant f_{n-1}, used only at y = nodes[-1]
        zero = np.zeros(1, dtype=complex)
        self.c0 = np.ascontiguousarray(f, dtype=complex)
        self.c1 = np.concatenate([f[1:] - f[:-1] - (2.0 * m[:-1] + m[1:]) / 6.0, zero])
        self.c2 = np.concatenate([m[:-1] / 2.0, zero])
        self.c3 = np.concatenate([(m[1:] - m[:-1]) / 6.0, zero])
        self.nodes = grid.nodes
        self.dy = grid.dy

    def __call__(self, y: np.ndarray) -> np.ndarray:
        flat = y.ravel()
        out = np.empty(flat.shape, dtype=complex)
        lo, hi = self.nodes[0], self.nodes[-1]
        for start in range(0, len(flat), _SPLINE_CHUNK):
            part = flat[start:start + _SPLINE_CHUNK]
            inside = (part >= lo) & (part <= hi)
            part = np.where(inside, part, lo)
            # nearest node k, then the interval on the side of y; at a node
            # u = 0 exactly, so node values come back exactly
            k = np.rint((part - lo) / self.dy).astype(np.intp)
            u = (part - self.nodes.take(k)) / self.dy
            left = u < 0.0
            i = k - left
            u += left
            val = self.c0.take(i) + u * (self.c1.take(i) + u * (self.c2.take(i)
                                                                + u * self.c3.take(i)))
            val[~inside] = 0.0
            out[start:start + _SPLINE_CHUNK] = val
        return out.reshape(y.shape)


def refine_by_doubling(grid: QuadratureGrid, evaluate: Callable[[QuadratureGrid], complex],
                       growth_floor: Optional[float] = None) -> Tuple[List[complex], bool]:
    """Limit of ``evaluate(grid)`` under doubling n at fixed y_max.

    The midpoint error of a sector integral expands in even powers of dy
    (Euler-Maclaurin, with y = 0 a cell edge), so each new value extends a
    Romberg table by two Richardson columns, weights (4, -1)/3 and then
    (16, -1)/15.  Doubling stops when the last entries of two successive
    rows (the raw value on the first grid, extrapolated ones after it)
    agree to ADAPTIVE_RTOL relative, or at the MAX_NODES cap, where the raw
    value is returned: a sequence whose extrapolation never settles is not
    one the table models.  No grid above the cap is evaluated.  With
    ``growth_floor`` set, the first three raw values are screened before
    convergence is first tested; a start above MAX_NODES / 4 nodes, short of
    those two doublings, raises GridTooNarrow before any evaluation.  A value
    of magnitude at least the floor that grows by more than GROWTH_FACTOR on
    both doublings is the signature of a logarithmic divergence at y = 0,
    and refinement stops there.

    Returns (values, grows): the raw value on each grid in turn, except that
    values[-1] is the extrapolated limit when that converged, so values[-1]
    is the result; and whether the growth screen fired.
    """
    if growth_floor is not None and grid.n * 4 > MAX_NODES:
        raise GridTooNarrow(f"screening needs 2 doublings of {grid.n} nodes, cap is {MAX_NODES}")
    values: List[complex] = []
    row: List[complex] = []  # latest Romberg row: raw, then extrapolated
    first_test = 2 if growth_floor is None else 3  # values before convergence is tested
    while True:
        new = [evaluate(grid)]
        for j, prev in enumerate(row[:2]):
            new.append(new[j] + (new[j] - prev) / (4 ** (j + 1) - 1))
        values.append(new[0])
        if growth_floor is not None and len(values) == 3:
            size = [abs(v) for v in values]
            if size[0] >= growth_floor and all(
                    later > earlier * GROWTH_FACTOR for earlier, later in zip(size, size[1:])):
                return values, True
        if (len(values) >= first_test
                and abs(new[-1] - row[-1]) <= ADAPTIVE_RTOL * abs(new[-1]) + 1e-300):
            values[-1] = new[-1]
            return values, False
        if grid.n * 2 > MAX_NODES:
            return values, False
        row = new
        grid = grid.refined(2)


def _sector_sum(phi, psi, grid: QuadratureGrid, sign: int, power: int):
    """Midpoint sum of |y|^power conj(phi(y)) psi(y) dy over sign*y > 0 on
    ``grid``, sign 0 the whole line; real when ``phi is psi``.

    The nodes mirror about y = 0 with none on it, so a half line is exactly
    one half of them, and psi is evaluated there once.  A half line reads
    the positive half alone (negated and reversed for sign < 0), so a grid
    made by doubling never builds its full ``nodes``.
    """
    pos = grid._positive_half
    y = pos if sign > 0 else -pos[::-1] if sign < 0 else grid.nodes
    f = psi.evaluate_at(y)
    f = np.abs(f) ** 2 if phi is psi else np.conj(phi.evaluate_at(y)) * f
    if power != 0:
        f = f * np.abs(y) ** power
    total = np.sum(f) * grid.dy
    return float(total) if phi is psi else complex(total)


def sector_integral(phi, psi, sign: int, power: int,
                    growth_floor: Optional[float] = None) -> Tuple[List[complex], bool]:
    """integral over sign*y > 0 (sign 0: the whole line) of
    |y|^power conj(phi(y)) psi(y) dy, by ``refine_by_doubling`` from psi.grid.

    ``phi`` and ``psi`` are states or seeds, anything with ``evaluate_at``
    and ``grid``.  Returns refine_by_doubling's (values, grows).
    """
    return refine_by_doubling(psi.grid, lambda g: _sector_sum(phi, psi, g, sign, power),
                              growth_floor)


def _moment(psi: StateVector, sign: int, power: int, adaptive: bool) -> float:
    """Moment of |y|^power under |psi|^2 over sign*y > 0, sign 0 the whole
    line.  For power <= -1 a value that keeps growing under the first two
    doublings raises DivergenceDetected."""
    if not adaptive:
        return _sector_sum(psi, psi, psi.grid, sign, power)
    values, grows = sector_integral(psi, psi, sign, power,
                                    growth_floor=1e-12 if power <= -1 else None)
    if grows:
        raise DivergenceDetected(
            f"quadrature grows by >{GROWTH_FACTOR}x per grid doubling "
            f"({' -> '.join(f'{v:.6g}' for v in values)})")
    return values[-1]


def half_line_moment(psi: StateVector, sign: int, power: int,
                     adaptive: bool = True) -> float:
    """integral over sign*y > 0 of |y|^power |psi(y)|^2 dy.

    Raises DivergenceDetected for power <= -1 when the grid-doubling growth
    test fires (psi(0) != 0 makes the integral log-divergent), and
    GridTooNarrow when psi's grid has more than MAX_NODES / 4 nodes, too
    many for the two doublings the screen needs.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return _moment(psi, sign, power, adaptive)


def abs_moment(psi: StateVector, power: int, adaptive: bool = True) -> float:
    """Full-line moment of |y|^power under |psi|^2."""
    return _moment(psi, 0, power, adaptive)
