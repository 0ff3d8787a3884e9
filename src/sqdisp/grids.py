"""Quadrature grids and single-mode states in the Y-quadrature representation.

Wavefunctions are sampled on a midpoint-offset uniform grid

    y_k = -y_max + (k + 1/2) dy,    dy = 2 y_max / n,    k = 0 .. n-1,

so no node sits at y = 0 and the node set is exactly symmetric under
reflection.  Integrals are midpoint sums (identical to the trapezoid rule on
offset nodes), which converge superalgebraically for smooth decaying
integrands.  Every half-line quantity is one sector integral,

    integral over s*y > 0 of |y|^p conj(phi(y)) psi(y) dy,

refined by grid doubling (``sector_integral``): the moments w_s of |psi|^2,
the square-root-measurement values <psi| D_s |psi>, the oracle cross terms
and the seed certificates <eta_s| D_s |eta_s>, which are adaptive
quadratures of the seed eta itself.  Negative powers are screened by a
grid-doubling growth test: a value that keeps growing by more than
``GROWTH_FACTOR`` per doubling is reported as divergent rather than returned.

The Gaussian family used throughout is

    psi(y) = (2 e^{2z} / pi)^{1/4} e^{i phi} e^{-2 i c y} e^{-(y - a)^2 e^{2z}},

a displaced squeezed state with center ``a``, log-width ``z`` and linear
phase ``c``.  Its |psi|^2 standard deviation is 1/(2 e^z); the amplitude
Gaussian's width parameter is 1/(sqrt(2) e^z).  Statistics reported by this
package always refer to the probability (|psi|^2) standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import DivergenceDetected, GridMismatch, GridTooNarrow

DEFAULT_N = 4096
MAX_NODES = 2**20
ADAPTIVE_RTOL = 1e-9
GROWTH_FACTOR = 1.05


@dataclass(frozen=True)
class QuadratureGrid:
    """Midpoint-offset uniform grid on [-y_max, y_max] with n (even) nodes."""

    y_max: float
    n: int

    def __post_init__(self):
        if not (self.y_max > 0 and math.isfinite(self.y_max)):
            raise ValueError("y_max must be positive and finite")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError("n must be an even integer >= 2")
        dy = 2.0 * self.y_max / self.n
        # build the positive half and mirror so y_k = -y_{n-1-k} holds exactly
        pos = (np.arange(self.n // 2) + 0.5) * dy
        nodes = np.concatenate([-pos[::-1], pos])
        nodes.flags.writeable = False
        object.__setattr__(self, "dy", dy)
        object.__setattr__(self, "nodes", nodes)

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


def _check_window(center: float, prob_std: float, grid: QuadratureGrid):
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
    _check_window(a, params.probability_std, grid)
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


def _chirp(alpha: float, m: np.ndarray) -> np.ndarray:
    """e^{-i alpha m^2} for integers |m| < 2^20.

    The phase is reduced modulo one turn in pieces: alpha/(2 pi) is split
    into 12-bit parts, each part times m^2 (< 2^40) is exact in float64 and
    so is its remainder modulo 1.  The phase error then stays at round-off
    of one turn however large alpha m^2 grows.
    """
    m2 = np.asarray(m, dtype=float) ** 2
    rest = alpha / (2.0 * math.pi)
    turns = np.zeros_like(m2)
    for _ in range(3):
        mant, e = math.frexp(rest)
        part = math.ldexp(round(math.ldexp(mant, 12)), e - 12)
        turns += np.mod(part * m2, 1.0)
        rest -= part
    turns += rest * m2
    return np.exp(-2.0j * math.pi * turns)


def fourier_at(x: np.ndarray, y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sum_k h_k e^{-2i x_j y_k} for every x_j, by a chirp-z transform.

    ``x`` and ``y`` are uniformly spaced, increasing or decreasing; ``h`` is
    one vector of length len(y) or a (len(y), m) stack of them.  With
    x_j = x_0 + j dx, y_k = y_0 + k dy and alpha = dx dy, Bluestein's
    identity 2jk = j^2 + k^2 - (j - k)^2 gives

        e^{-2i x_j y_0 - i alpha j^2} sum_k [h_k e^{-2i x_0 (y_k - y_0) - i alpha k^2}]
                                         e^{i alpha (j - k)^2},

    a convolution evaluated with FFTs of length >= len(x) + len(y) - 1:
    O((nx + n) log(nx + n)) time and O(nx + n) memory per column of ``h``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.asarray(h)
    nx, n = len(x), len(y)
    dx = (x[-1] - x[0]) / (nx - 1) if nx > 1 else 0.0
    dy = (y[-1] - y[0]) / (n - 1) if n > 1 else 0.0
    chirp = _chirp(dx * dy, np.arange(max(nx, n)))
    chirp_x, chirp_y = chirp[:nx], chirp[:n]
    length = _fft_length(nx + n - 1)
    lags = np.zeros(length, dtype=complex)  # e^{i alpha m^2} for m = -(n-1) .. nx-1
    lags[:nx] = np.conj(chirp_x)
    lags[length - n + 1:] = np.conj(chirp_y[:0:-1])
    column = (slice(None),) + (None,) * (h.ndim - 1)
    pre = np.exp(-2.0j * x[0] * (y - y[0])) * chirp_y
    conv = np.fft.ifft(np.fft.fft(pre[column] * h, length, axis=0)
                       * np.fft.fft(lags)[column], axis=0)[:nx]
    return conv * (np.exp(-2.0j * x * y[0]) * chirp_x)[column]


_SPLINE_CHUNK = 2**14  # points per pass, so the temporaries stay in cache
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

    Doubles until two successive values agree to ADAPTIVE_RTOL relative or
    the MAX_NODES cap is reached.  With ``growth_floor`` set, the first two
    doublings are screened first: a value of magnitude at least the floor
    that grows by more than GROWTH_FACTOR on both is the signature of a
    logarithmic divergence at y = 0, and refinement stops there.

    Returns (values, grows): the value on each grid in turn, so values[-1]
    is the result, and whether the growth screen fired.
    """
    values = [evaluate(grid)]
    if growth_floor is not None:
        values.append(evaluate(grid.refined(2)))
        grid = grid.refined(4)
        values.append(evaluate(grid))
        v0, v1, v2 = (abs(v) for v in values)
        if v0 >= growth_floor and v1 > v0 * GROWTH_FACTOR and v2 > v1 * GROWTH_FACTOR:
            return values, True
    while grid.n < MAX_NODES:
        grid = grid.refined(2)
        values.append(evaluate(grid))
        if abs(values[-1] - values[-2]) <= ADAPTIVE_RTOL * abs(values[-1]) + 1e-300:
            break
    return values, False


def _sector_sum(phi, psi, grid: QuadratureGrid, sign: int, power: int):
    """Midpoint sum of |y|^power conj(phi(y)) psi(y) dy over sign*y > 0 on
    ``grid``, sign 0 the whole line; real when ``phi is psi``.

    The nodes mirror about y = 0 with none on it, so a half line is exactly
    one half of them, and psi is evaluated there once.
    """
    half = grid.n // 2
    y = grid.nodes[half:] if sign > 0 else grid.nodes[:half] if sign < 0 else grid.nodes
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
            f"({values[0]:.6g} -> {values[1]:.6g} -> {values[2]:.6g})")
    return values[-1]


def half_line_moment(psi: StateVector, sign: int, power: int,
                     adaptive: bool = True) -> float:
    """integral over sign*y > 0 of |y|^power |psi(y)|^2 dy.

    Raises DivergenceDetected for power <= -1 when the grid-doubling growth
    test fires (psi(0) != 0 makes the integral log-divergent).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return _moment(psi, sign, power, adaptive)


def abs_moment(psi: StateVector, power: int, adaptive: bool = True) -> float:
    """Full-line moment of |y|^power under |psi|^2."""
    return _moment(psi, 0, power, adaptive)
