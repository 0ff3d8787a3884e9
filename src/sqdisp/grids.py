"""Quadrature grids and single-mode states in the Y-quadrature representation.

Wavefunctions are sampled on a midpoint-offset uniform grid

    y_k = -y_max + (k + 1/2) dy,    dy = 2 y_max / n,    k = 0 .. n-1,

so no node sits at y = 0 and the node set is exactly symmetric under
reflection.  Integrals are midpoint sums (identical to the trapezoid rule on
offset nodes), which converge superalgebraically only for integrands that
are smooth on the whole line and decay inside the window.  Every half-line
quantity is a sector integral,

    integral over s*y > 0 of |y|^p conj(phi(y)) psi(y) dy,    p in {-1, 0, 1},

and most are taken by ``sector_integral``: the moments w_s of |psi|^2, the
square-root-measurement values <psi| D_s |psi>, the oracle cross terms and
the seed certificates <eta_s| D_s |eta_s>, sums over the seed eta itself.
Four are raw midpoint sums (``_sector_sum``): ``closed_form_sandwich``'s
<u| theta(sY) |v>, ``heisenberg_ratio``'s mass at y < 0, and ``validate``'s
quadrature-convergence and half-line-partition checks, which test the raw
sum itself.  A sum makes its nodes in passes of 2^14 (``_SUM_PASS``), and
its temporaries stay below 2 MB at any n.

A half line ends at y = 0, a cell edge, where f = |y|^p conj(phi) psi is in
general not flat.  For f smooth on [0, inf) and resolved by the grid, the
midpoint sum's error is the Euler-Maclaurin endpoint series there (DLMF 2.10):

    integral_0^inf f = h sum_k f((k + 1/2) h) - (h^2/24) f'(0) + (7 h^4/5760) f'''(0)
                       - (31 h^6/967680) f^(5)(0) + O(h^8),

and ``sector_integral`` is one sum plus those terms, from the one-sided Taylor
coefficients at 0 of g = conj(phi) psi with |y|^p applied to them analytically.
A sampled state sums over its samples, its Taylor data fixed weights on the
first min(8, n/2) of them; Gaussians sum with dy <= sigma/16, sigma the |psi|^2
std, and read g on a 16 times finer stencil.  For p = -1, f is smooth only
when c = g(0) = 0; otherwise the integral diverges like c ln(1/dy), and the
sum holds about |c| ln(y_max/(dy/2)) = |c| ln n of it.  That log part, against
LOG_SHARE of the quantity's scale, is the divergence verdict.

The Gaussian family used throughout is

    psi(y) = (2 e^{2z} / pi)^{1/4} e^{i phi} e^{-2 i c y} e^{-(y - a)^2 e^{2z}},

a displaced squeezed state with center ``a``, log-width ``z`` and linear
phase ``c``.  Its |psi|^2 standard deviation is 1/(2 e^z); the amplitude
Gaussian's width parameter is 1/(sqrt(2) e^z).  Statistics reported by this
package always refer to the probability (|psi|^2) standard deviation.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, DivergenceDetected, GridMismatch, GridTooNarrow

DEFAULT_N = 4096
MAX_NODES = 2**20
LOG_SHARE = 1e-3  # the largest share of a scale that a log divergence at y = 0 may hold
_CHIRP_BLOCK = 64  # B in the chirps' m = B q + p


def _size(value, name: str) -> int:
    """``value`` as an int, by ``operator.index``: ConfigError naming ``name`` if
    it is not integral, so any integer type gives what a Python int gives."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _check_log_range(**values):
    """ConfigError for any |v| > ln MAX_NODES (or NaN): e^{|v|} would exceed the largest grid."""
    for name, v in values.items():
        if not abs(v) <= math.log(MAX_NODES):
            raise ConfigError(f"{name} must lie in [-ln {MAX_NODES}, ln {MAX_NODES}] = "
                              f"±{math.log(MAX_NODES):.4g}, got {v}")


@dataclass(frozen=True)
class QuadratureGrid:
    """Midpoint-offset uniform grid on [-y_max, y_max], n even and <= MAX_NODES."""

    y_max: float
    n: int

    def __post_init__(self):
        if not (self.y_max > 0 and math.isfinite(self.y_max)):
            raise ConfigError(f"y_max must be positive and finite, got {self.y_max}")
        object.__setattr__(self, "n", _size(self.n, "n"))
        if self.n < 2 or self.n % 2 != 0:
            raise ConfigError(f"n must be an even integer >= 2, got {self.n}")
        if self.n > MAX_NODES:
            raise ConfigError(f"n = {self.n} nodes exceeds {MAX_NODES}")
        object.__setattr__(self, "dy", 2.0 * self.y_max / self.n)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """All n nodes, read-only, built on first use from the positive half
        (k + 1/2) dy mirrored, so y_k = -y_{n-1-k} holds exactly."""
        pos = (np.arange(self.n // 2) + 0.5) * self.dy
        nodes = np.concatenate([-pos[::-1], pos])
        nodes.flags.writeable = False
        return nodes


@dataclass(frozen=True)
class GaussianStateParams:
    """Parameters of an exactly Gaussian wavefunction (see module docstring)."""

    center: float
    log_width: float = 0.0
    linear_phase: float = 0.0

    def __call__(self, y: np.ndarray) -> np.ndarray:
        s = math.exp(2.0 * self.log_width)
        amp = (2.0 * s / math.pi) ** 0.25
        t = y - self.center  # one real temporary, worked in place
        t *= t
        t *= -s
        np.exp(t, out=t)
        if self.linear_phase != 0.0:  # amp after the phase: amp e^{-s t^2} first rounds otherwise
            return amp * (t * np.exp(-2.0j * self.linear_phase * y))
        return np.multiply(t, amp, out=t).astype(complex)


def default_grid(center: float = 0.0, log_width: float = 0.0,
                 n: Optional[int] = None) -> QuadratureGrid:
    """Grid sized for a Gaussian at ``center``: y_max = |a| + 10 max(amp std, 1).

    Without ``n`` the node count is the smallest power of two >= DEFAULT_N
    with dy at most the |psi|^2 standard deviation 0.5 e^{-z}.  Above
    MAX_NODES / 2, where refinement could no longer double, that raises
    GridTooNarrow.  ConfigError for a non-finite center or |z| > ln MAX_NODES.
    """
    if not math.isfinite(center):
        raise ConfigError(f"center must be finite, got {center}")
    _check_log_range(z=log_width)
    amp_std = math.exp(-log_width) / math.sqrt(2.0)
    y_max = abs(center) + 10.0 * max(amp_std, 1.0)
    if n is not None:
        return QuadratureGrid(y_max, n)
    grid = resolving_grid(QuadratureGrid(y_max, DEFAULT_N), y_max, 0.5 * math.exp(-log_width))
    if grid.n > MAX_NODES // 2:
        raise GridTooNarrow(f"log-width {log_width:.4g} needs {grid.n} nodes, cap {MAX_NODES // 2}")
    return grid


def _samples(grid: QuadratureGrid, amplitudes) -> Tuple[np.ndarray, float]:
    """``amplitudes``, one per node of ``grid``, as a read-only complex copy, and sqrt(sum |a|^2 dy)
    by 2^e > max|a|: squares of |a| / 2^e neither overflow nor vanish, and scale exactly."""
    amplitudes = np.array(amplitudes, dtype=complex)
    if amplitudes.shape != (grid.n,):
        raise ConfigError(f"amplitudes of shape {amplitudes.shape} do not match n = {grid.n}")
    amplitudes.flags.writeable = False
    mag = np.abs(amplitudes)
    scale = math.ldexp(1.0, math.frexp(float(mag.max()))[1])
    return amplitudes, scale * math.sqrt(float(np.sum((mag / scale) ** 2)) * grid.dy)


class StateVector:
    """A pure single-mode state sampled on a quadrature grid.

    States are immutable after construction; ``amplitudes`` is read-only.
    When ``evaluator`` is present the state is exactly Gaussian and can be
    evaluated anywhere in closed form; sampled states fall back to a
    not-a-knot cubic spline (numpy) inside the grid window and zero outside.
    """

    def __init__(self, grid: QuadratureGrid, amplitudes: np.ndarray,
                 evaluator: Optional[GaussianStateParams] = None):
        self.grid = grid
        self.amplitudes, self.norm_certificate = _samples(grid, amplitudes)
        self.evaluator = evaluator
        if self.norm_certificate > math.sqrt(np.finfo(float).max) * math.sqrt(grid.dy):
            raise ConfigError(f"the squares of amplitudes up to {np.abs(self.amplitudes).max():.4g}"
                              " overflow; make_sampled normalizes them")

    @classmethod
    def from_params(cls, params: GaussianStateParams, grid: QuadratureGrid) -> "StateVector":
        return cls(grid, params(grid.nodes), evaluator=params)

    def evaluate_at(self, y: np.ndarray) -> np.ndarray:
        """Amplitudes at arbitrary points: closed form for Gaussian states,
        not-a-knot cubic spline (zero outside the window) for sampled ones, float for
        samples with no imaginary part."""
        y = np.asarray(y, dtype=float)
        if self.evaluator is not None:
            return self.evaluator(y)
        return self._spline(y)

    @functools.cached_property
    def _spline(self) -> "_NotAKnotSpline":
        return _NotAKnotSpline(self.grid, self.amplitudes)

    def with_grid(self, grid: QuadratureGrid) -> "StateVector":
        if grid == self.grid:
            return self
        return StateVector(grid, self.evaluate_at(grid.nodes), evaluator=self.evaluator)

    def probability_density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def make_coherent(a: float, grid: Optional[QuadratureGrid] = None) -> StateVector:
    """Coherent state |i a>: wavefunction (2/pi)^{1/4} exp(-(y - a)^2)."""
    return make_displaced_squeezed(a, 0.0, grid)


def make_displaced_squeezed(a: float, z: float,
                            grid: Optional[QuadratureGrid] = None) -> StateVector:
    """Displaced squeezed state (2 e^{2z}/pi)^{1/4} exp(-(y - a)^2 e^{2z}), a finite
    and |z| <= ln MAX_NODES."""
    _check_log_range(z=z)
    if not math.isfinite(a):
        raise ConfigError(f"a must be finite, got {a}")
    grid = default_grid(a, z) if grid is None else grid
    std = 0.5 * math.exp(-z)  # of |psi|^2
    if abs(a) + 6.0 * std > grid.y_max:
        raise GridTooNarrow(f"state centered at {a} with std {std:.4g} needs "
                            f"y_max >= {abs(a) + 6.0 * std:.4g}, grid has {grid.y_max:.4g}")
    return StateVector.from_params(GaussianStateParams(center=a, log_width=z), grid)


def make_vacuum(grid: Optional[QuadratureGrid] = None) -> StateVector:
    return make_coherent(0.0, grid)


def make_sampled(grid: QuadratureGrid, amplitudes: np.ndarray) -> StateVector:
    """Sampled state with finite, not all zero ``amplitudes``, normalized; ``StateVector(grid,
    amplitudes)`` keeps raw samples as given."""
    amplitudes, norm = _samples(grid, amplitudes)
    if not (np.all(np.isfinite(amplitudes)) and norm > 0.0):
        raise ConfigError("state amplitudes must be finite and not all zero")
    return StateVector(grid, amplitudes / norm)


def inner_product(phi: StateVector, psi: StateVector) -> complex:
    """Midpoint quadrature of conj(phi(y)) psi(y); conjugate symmetric."""
    if phi.grid != psi.grid:
        raise GridMismatch("inner_product requires states on the same grid")
    return complex(np.sum(np.conj(phi.amplitudes) * psi.amplitudes) * phi.grid.dy)


def _check_phase(x: float, dy: float):
    """GridTooNarrow for |x| > pi/(2 dy), where e^{-2i x y} aliases on nodes dy apart."""
    if abs(x) > math.pi / (2.0 * dy):
        raise GridTooNarrow(f"e^(-2ixy) at |x| = {abs(x):.4g} aliases on a grid whose "
                            f"pi/(2 dy) is {math.pi / (2.0 * dy):.4g}")


def phase_dy(freq: float) -> float:
    """The spacing e^{-2i freq y} needs, 16 nodes per period: pi / (8 max(1, |freq|))."""
    return math.pi / (8.0 * max(1.0, abs(freq)))


def resolving_grid(grid: QuadratureGrid, y_max: float, dy: float) -> QuadratureGrid:
    """``grid`` itself if it spans [-y_max, y_max] with spacing <= ``dy``, else the grid there
    with the next power of two nodes for min(dy, grid.dy); GridTooNarrow past MAX_NODES."""
    dy_req = min(grid.dy, dy)
    if y_max == grid.y_max and dy_req == grid.dy:
        return grid
    needed = 2.0 * y_max / dy_req if dy_req > 0 else math.inf
    if needed > MAX_NODES:
        raise GridTooNarrow(f"spacing {dy_req:.3g} on |y| <= {y_max:.4g} needs "
                            f"{needed:.3g} nodes, cap is {MAX_NODES}")
    return QuadratureGrid(y_max, 2 ** math.ceil(math.log2(max(needed, 2.0))))


# Every 2^a 3^b 5^c <= 2^21, sorted: all that _fft_length is asked for, nx + n - 1 <=
# 2^16 + 2^20 - 1 (``fourier_at``, nx <= 2^16 by distribution._map_shape) and 2n - 1 < 2^21
# (distribution._band_spectrum).  m << a <= 2^21 for a < bit_length(2^21 // m).
_FFT_LENGTHS = sorted(m << a for m in (3**b * 5**c for b in range(14) for c in range(10))
                      for a in range((2**21 // m).bit_length()))


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy.fft transforms quickly; n <= 2^21."""
    return _FFT_LENGTHS[bisect.bisect_left(_FFT_LENGTHS, n)]


_CHIRP_ANCHORS = _CHIRP_BLOCK * np.arange(MAX_NODES // _CHIRP_BLOCK, dtype=float)
_CHIRP_OFFSETS = np.arange(_CHIRP_BLOCK, dtype=float)


def _chirp(angle, count: int, power: int = 2) -> np.ndarray:
    """e^{-i angle m^power}, power 2 (a chirp) or 1 (a linear phase), m = 0 .. count - 1, a row for
    each angle; count <= MAX_NODES, the most ``fourier_at`` asks for.  For m = B q + p, only the
    anchors angle (B q)^power, in-block terms angle p^power and, for power 2, steps 2 angle B q are
    exponentiated, their integers cut from the fixed _CHIRP_ANCHORS (B q) and _CHIRP_OFFSETS (p),
    each phase reduced exactly: c = angle/2pi is cut into parts of at most 13 bits, exact times an
    integer k < 2^40 and so modulo 1, and a rest whose product with k is below 2^4 c.  A chirp is
    anchor times step^p, a running product over the block; a linear phase anchor times in-block."""
    c = np.asarray(angle)[..., None] / (2.0 * math.pi)
    nq = -(-count // _CHIRP_BLOCK)
    q, p = _CHIRP_ANCHORS[:nq], _CHIRP_OFFSETS
    k = np.concatenate([q * q, p * p, 2.0 * q] if power == 2 else [q, p, q])
    scale = np.ldexp(1.0, 12 * np.arange(1, 4).reshape((3,) + (1,) * c.ndim) - np.frexp(c)[1])
    prefix = np.round(c * scale) / scale
    turns = np.concatenate([prefix[:1], np.diff(prefix, axis=0)]) * k
    turns -= np.rint(turns)
    phase = np.exp(-2j * math.pi * (turns.sum(axis=0) + (c - prefix[-1]) * k))
    block = np.repeat(phase[..., nq + _CHIRP_BLOCK:, None], _CHIRP_BLOCK, axis=-1)
    if power == 2:  # steps, to anchor times step^p; power 1 fills the anchors themselves
        block[..., 0] = phase[..., :nq]
        np.cumprod(block, axis=-1, out=block)
    block *= phase[..., None, nq:nq + _CHIRP_BLOCK]
    return block.reshape(np.shape(angle) + (-1,))[..., :count]


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
    O(L log L) time, O(L) memory, one chirp per grid and no exponential per node (``_chirp``).
    """
    y = np.asarray(y, dtype=float)
    h = np.asarray(h)
    nx, n = len(x), len(y)
    x = np.asarray(x, dtype=float).reshape(nx, -1).T  # one row per grid, as every array below
    dy = (y[-1] - y[0]) / (n - 1) if n > 1 else 0.0
    alpha = dy * (x[:, -1] - x[:, 0]) / (nx - 1) if nx > 1 else 0.0 * x[:, 0]
    length = _fft_length(nx + n - 1)
    # stage by stage, so at most three length-L arrays per row are alive
    chirp = _chirp(alpha, max(nx, n))
    pre = _chirp(2.0 * dy * x[:, 0], n, power=1) * chirp[:, :n]
    conv = np.zeros((h.size // n, length), dtype=complex)
    np.multiply(pre, h.reshape(n, -1).T, out=conv[:, :n])
    del pre
    lags = np.zeros((len(alpha), length), dtype=complex)  # e^{i alpha m^2}, m = -(n-1) .. nx-1
    np.conjugate(chirp[:, :nx], out=lags[:, :nx])
    np.conjugate(chirp[:, n - 1:0:-1], out=lags[:, length - n + 1:])
    post = np.exp(-2.0j * y[0] * x) * chirp[:, :nx]
    del chirp
    conv = np.fft.fft(conv)
    conv *= np.fft.fft(lags)
    del lags
    return (np.fft.ifft(conv)[:, :nx] * post).T.reshape((nx,) + h.shape[1:])


_SPLINE_CHUNK = 2**12  # points per pass, so the temporaries stay in cache
_SUM_PASS = 2**14  # nodes per pass of _sector_sum: a grid of up to 2^15 sums each half in one
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
    CubicSpline does.  Samples with no imaginary part give floats, bit for bit
    the real parts of the complex spline's values.
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
        if not np.imag(f).any():  # real samples: the real parts alone, as floats
            self.c0, self.c1, self.c2, self.c3 = (c.real.copy() for c in (
                self.c0, self.c1, self.c2, self.c3))
        self.nodes = grid.nodes
        self.dy = grid.dy

    def __call__(self, y: np.ndarray) -> np.ndarray:
        flat = y.ravel()
        out = np.empty(flat.shape, dtype=self.c0.dtype)
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


def _sector_sum(phi, psi, grid: QuadratureGrid, sign: int, power: int):
    """Midpoint sum of |y|^power conj(phi(y)) psi(y) dy over sign*y > 0 on
    ``grid``, sign 0 the whole line (y < 0, then y > 0); real when ``phi is psi``.

    The nodes mirror about y = 0 with none on it, so a half line is exactly
    one half of them.  It is built and summed in passes of _SUM_PASS nodes,
    (k + 1/2) dy for a run of k, negated and reversed on y < 0 so that each
    pass is its slice of ``nodes``, into a running total: no temporary grows
    with n, and a half line of one pass sums exactly its half of ``nodes``.
    Factors are read by ``evaluate_at``, a sampled state's spline its samples at its nodes.
    """
    half, total = grid.n // 2, 0.0
    for s in (-1, +1) if sign == 0 else (sign,):
        for start in range(0, half, _SUM_PASS)[::s]:  # y < 0 from its far end
            y = np.arange(start, min(start + _SUM_PASS, half), dtype=float)[::s]
            y += 0.5
            y *= s * grid.dy
            f = psi.evaluate_at(y)
            f = np.abs(f) ** 2 if phi is psi else np.conj(phi.evaluate_at(y)) * f
            if power != 0:
                f *= np.abs(y) ** power
            total += np.sum(f)
    return float(total * grid.dy) if phi is psi else complex(total * grid.dy)


@functools.lru_cache(maxsize=None)
def _taylor_weights(m: int) -> np.ndarray:
    """W, 7 x m: W @ g(t_k h), t_k = k + 1/2, k < m, are the coefficients a_0 .. a_6 of tau^j
    of the degree m - 1 polynomial through those values in tau = t/h (0 past its degree).
    Column k is the Lagrange basis polynomial prod_{i != k} (tau - t_i) / (t_k - t_i): its
    numerator, of half-integer roots, and its integer denominator are exact in floats, so
    each weight rounds once, and no system is solved."""
    t = np.arange(m) + 0.5
    weights = np.zeros((7, m))
    for k in range(m):
        others = np.delete(t, k)
        basis = np.atleast_1d(np.poly(others))[::-1] / np.prod(t[k] - others)  # m = 1: 1.0
        weights[:min(m, 7), k] = basis[:7]
    return weights


# Euler-Maclaurin weights of a_(1-p), a_(3-p), a_(5-p): -B_2k(1/2) (2k-1)!/(2k)! (DLMF 24.4.27)
_EM_WEIGHTS = np.array([-1.0 / 24.0, 7.0 / 960.0, -31.0 / 8064.0])


def _sum_grid(phi, psi) -> Tuple[QuadratureGrid, int]:
    """Where ``sector_integral`` sums, and how many times finer than its nodes it reads the
    Taylor data: psi's grid and 1, or where both factors are Gaussian (a seed's source), which
    can be read anywhere, the grid on its window with dy <= sigma/16, sigma the lesser |psi|^2
    std 0.5 e^{-z}, and 16; GridTooNarrow past MAX_NODES."""
    params = [getattr(f, "source", f).evaluator for f in (phi, psi)]
    if any(p is None for p in params):
        return psi.grid, 1
    sigma = 0.5 * math.exp(-max(p.log_width for p in params))
    return resolving_grid(psi.grid, psi.grid.y_max, sigma / 16.0), 16


def sector_integral(phi, psi, sign: int, power: int):
    """(integral, log part): the integral over sign*y > 0 (sign 0: both half lines) of
    |y|^power conj(phi(y)) psi(y) dy, power -1, 0 or 1, real when ``phi is psi``, as one
    midpoint sum on ``_sum_grid`` plus the Euler-Maclaurin terms at y = 0 (module docstring).
    On a half line of step h, g = sum_j a_j (|y|/h)^j (``_taylor_weights`` on the first m nodes
    or, for Gaussians, on a stencil of step h/16, whose a_j are 16^j times) gives
    f^(j)(0) = j! h^(p-j) a_(j-p), so the terms are h^(p+1) (-a_(1-p)/24 + 7 a_(3-p)/960
    - 31 a_(5-p)/8064).  The log part is |a_0| ln n for power -1, about what the sum holds of
    a divergence a_0 / |y|, and 0 otherwise.

    ``phi`` and ``psi`` are states or seeds, anything with ``evaluate_at`` and ``grid``.
    """
    grid, q = _sum_grid(phi, psi)
    m = min(8, grid.n // 2)
    total, log_part = 0.0, 0.0
    for s in (-1, +1) if sign == 0 else (sign,):
        y = (np.arange(m) + 0.5) * (s * grid.dy / q)
        f = psi.evaluate_at(y)
        a = _taylor_weights(m) @ (np.abs(f) ** 2 if phi is psi else np.conj(phi.evaluate_at(y)) * f)
        a *= float(q) ** np.arange(7)
        total += (_sector_sum(phi, psi, grid, s, power)
                  + grid.dy ** (power + 1) * (_EM_WEIGHTS @ a[1 - power::2][:3]))
        if power == -1:
            log_part += abs(a[0]) * math.log(grid.n)
    return (float(total) if phi is psi else complex(total)), log_part


def check_log_part(log_part: float, scale: float, what: str):
    """DivergenceDetected when a ``sector_integral`` log part exceeds LOG_SHARE of ``scale``."""
    if log_part > LOG_SHARE * scale:
        share = log_part / scale if scale else math.inf
        raise DivergenceDetected(f"{what} diverges at y = 0: its log part is {share:.3g} of "
                                 f"{scale:.6g}, above {LOG_SHARE:g}")


def half_line_moment(psi: StateVector, sign: int, power: int) -> float:
    """integral over sign*y > 0 of |y|^power |psi(y)|^2 dy, power -1, 0 or 1, by
    ``sector_integral``; power 1 of a Gaussian psi, |psi|^2 normal (a, sigma = e^{-z}/2), is
    sigma phi(t) + |a| Phi(t), t = |a|/sigma, in the sector of a, and in the other
    sigma phi(t) - |a| Phi(-t), which cancels, or from t = 3 on sigma phi(t) K/(t + K), Mills'
    ratio Phi(-t)/phi(t) = 1/(t + K), K = 1/(t + 2/(t + ...)) to 10 + 500/t^2 terms, within
    3e-16 of its limit.

    Raises DivergenceDetected for power -1 when the log part exceeds LOG_SHARE of the value
    (psi(0) != 0 makes the integral log-divergent), and GridTooNarrow when a Gaussian's
    sigma/16 grid would pass MAX_NODES.
    """
    if _size(sign, "sign") not in (+1, -1):
        raise ConfigError(f"sign must be +1 or -1, got {sign!r}")
    if _size(power, "power") not in (-1, 0, 1):
        raise ConfigError(f"power must be -1, 0 or 1, got {power!r}")
    if power == 1 and psi.evaluator is not None:
        a, sigma = psi.evaluator.center, 0.5 * math.exp(-psi.evaluator.log_width)
        t = abs(a) / sigma
        head = sigma * math.exp(-0.5 * t ** 2) / math.sqrt(2.0 * math.pi)
        if sign * a >= 0 or t < 3.0:
            return head + sign * a * 0.5 * math.erfc(-sign * a / sigma / math.sqrt(2.0))
        k = functools.reduce(lambda k, j: j / (t + k), range(10 + int(500 / t ** 2), 0, -1), 0.0)
        return head * k / (t + k)
    value, log_part = sector_integral(psi, psi, sign, power)
    check_log_part(log_part, abs(value), f"<|Y|^{power}> on sector {sign:+d}")
    return value
