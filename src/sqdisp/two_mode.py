"""Regularized two-mode entangled pointers in a truncated Fock basis.

The ideal pointer vectors  (1/sqrt(pi)) integral dy sqrt(|y|) |y>|+-y>  make
an orthogonal joint measurement of squeezing and displacement possible but
are not normalizable.  Their lambda-regularized versions damp the two-mode
Fock amplitudes geometrically,

    <n, m| Phi(lambda)_s > = N_lambda lambda^{n+m} c_nm,
    c_nm = (1/sqrt(pi)) integral sqrt(|y|) h_n(y) h_m(s y) dy,

with h_n the oscillator eigenfunctions in the quadrature scaling, h_0(y) =
(2/pi)^{1/4} e^{-y^2}, from one stable three-term recurrence.  Parity forces
c_nm = 0 for odd n + m, and c^-_nm = (-1)^m c^+_nm (``make_pointer`` flips the
one + table), so a two-mode run builds only Phi_+: the profile sums its even
and odd parity blocks, order by order as the recurrence runs along each row.

By Mehler's kernel (DLMF 18.18) the untruncated mass is a bivariate-normal moment, M =
sum lambda^{2(n+m)} c_nm^2 = Gamma(3/4)^2 sqrt(2(1+rho^2)) F / (2 pi^2 (1-rho^2)^{3/2}) with
rho = lambda^2, F = 2F1(-1/4, -1/4; 1/2; u) and u = (2 rho/(1+rho^2))^2, a positive series
that ``_pointer_mass`` sums with a bound on the terms it leaves out.  ``make_pointer`` raises
CutoffTooSmall when the share of M beyond the complete shells n + m <= n_max exceeds
``tail_tol``; near lambda = 1 any practical cutoff fails the default 1e-4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (ConfigError, CutoffTooSmall, GridMismatch, GridTooNarrow,
                     InsufficientMass)
from .distribution import DensityMap, _check_window, _map_shape, _marginals, _row_map
from .grids import MAX_NODES, QuadratureGrid, _size, phase_dy
from .group import GroupElement, _act_on_nodes, _check_element

DEFAULT_TEST_LAMBDAS = (0.9, 0.95, 0.99)
DEFAULT_N_MAX = 60
MIN_N_MAX = 20
TAIL_TOL = 1e-4
COEFF_QUAD_NODES = 2048   # midpoint nodes in t for raw_pointer_coefficients


def _hermite_orders(n_max: int, y):
    """Yield the exponents e, then 2^e h_0 .. 2^e h_{n_max} at the points y."""
    u = math.sqrt(2.0) * np.asarray(y, dtype=float)
    half_u2 = 0.5 * u * u
    # e^{-u^2/2} leaves the normal range at |y| ~ 26.5, inside the oscillating region of
    # h_n for n >~ 700: beyond it the recurrence runs on 2^e h_n, e <= 1000 (|2^e h_n| < 2^1000)
    e = np.clip((half_u2 - 700.0) // math.log(2.0), 0.0, 1000.0)
    yield e
    h_prev, h = 0.0, (2.0 / math.pi) ** 0.25 * np.exp(e * math.log(2.0) - half_u2)
    del e, half_u2  # two arrays the size of y fewer while the orders run
    yield h
    for n in range(n_max):
        h_prev, h = h, math.sqrt(2.0 / (n + 1)) * u * h - math.sqrt(n / (n + 1)) * h_prev
        yield h


def hermite_functions(n_max: int, y: np.ndarray) -> np.ndarray:
    """Oscillator eigenfunctions h_0 .. h_{n_max} at the points y, of any shape.

    Quadrature scaling: h_n(y) = 2^{1/4} phi_n(sqrt(2) y) with phi_n the
    standard orthonormal Hermite functions, so that the h_n are orthonormal
    in integral dy.  The three-term recurrence starts from h_{-1} = 0.
    """
    n_max = _check_n_max(n_max, 0)
    orders = _hermite_orders(n_max, y)
    e = next(orders)
    h = np.fromiter(orders, np.dtype((float, e.shape)), n_max + 1)
    return np.multiply(h, np.exp2(-e), out=h)  # in place: no second table


def _check_n_max(n_max, minimum: int) -> int:
    """n_max as an int: ConfigError if it is not integral, below ``minimum``, or
    above 1023, where a (n_max+1)^2 coefficient table exceeds MAX_NODES entries."""
    n_max = _size(n_max, "n_max")
    if n_max < minimum:
        raise ConfigError(f"n_max must be at least {minimum}, got {n_max}")
    if (n_max + 1) ** 2 > MAX_NODES:
        raise ConfigError(f"n_max {n_max}: a {n_max + 1}^2 table exceeds {MAX_NODES} entries")
    return n_max


def _degrees(n_max: int) -> np.ndarray:
    """Total degree n + m of each two-mode Fock amplitude, (n_max+1)^2."""
    k = np.arange(n_max + 1)
    return np.add.outer(k, k)


def _pointer_grid(n_max: int) -> QuadratureGrid:
    # h_n lives inside |y| <= sqrt(2 n_max + 1)/sqrt(2); keep a safety margin.
    # There it oscillates about 2 sqrt(n) times per unit y, so the nodes a fixed
    # accuracy needs grow like n_max: 2048 up to n_max 400, doubled for each
    # doubling beyond (2048 nodes move an n_max 600 map by 6e-4 of its peak)
    y_max = 1.25 * math.sqrt(2.0 * n_max + 1.0) / math.sqrt(2.0) + 2.0
    return QuadratureGrid(y_max, 2048 << (max(n_max - 1, 0) // 400).bit_length())


@dataclass
class TwoModePointer:
    """lambda-regularized entangled pointer in a truncated two-mode Fock basis."""

    n_max: int
    coeffs: np.ndarray  # normalized N_lambda lambda^{n+m} c_nm, (n_max+1)^2

    @property
    def grid(self) -> QuadratureGrid:
        """Grid the mode-1 wavefunctions are synthesized on."""
        return _pointer_grid(self.n_max)

    @property
    def mean_energy(self) -> float:
        """<a^dag a + b^dag b> of the truncated pointer."""
        return float((_degrees(self.n_max) * self.coeffs ** 2).sum())


def raw_pointer_coefficients(n_max: int) -> np.ndarray:
    """c_nm = (1/sqrt(pi)) integral sqrt(|y|) h_n(y) h_m(y) dy, the + table.

    Parity reduces this to 2/sqrt(pi) times the half-line integral for even
    n + m (exactly zero otherwise); the substitution y = t^2 removes the
    sqrt(|y|) kink so the midpoint sum converges superalgebraically:

        c_nm = (4/sqrt(pi)) integral_0^inf t^2 h_n(t^2) h_m(t^2) dt.

    ConfigError above MAX_NODES coefficients (n_max >= 1024), before any table.
    """
    n_max = _check_n_max(n_max, 0)
    y_max = _pointer_grid(n_max).y_max
    dt = math.sqrt(y_max) / COEFF_QUAD_NODES
    t = (np.arange(COEFF_QUAD_NODES) + 0.5) * dt
    Ht = hermite_functions(n_max, t * t)
    C = (4.0 / math.sqrt(math.pi)) * (Ht * (t * t * dt)) @ Ht.T
    C[_degrees(n_max) % 2 == 1] = 0.0
    return C


def _flipped(coeffs: np.ndarray) -> np.ndarray:
    """The other sign's table, c^-_nm = (-1)^m c^+_nm: C_- = C_+ diag((-1)^m)."""
    return coeffs * (-1.0) ** np.arange(coeffs.shape[-1])


def _pointer_mass(lam: float) -> float:
    """M(lambda) of the module docstring.  t_{k+1}/t_k = u (k - 1/4)^2/((k + 1/2)(k + 1)) is at
    most u (k/(k+1))^2 for k >= 1, so the K terms summed leave out at most t_K min(K, u/(1-u))."""
    rho2 = lam ** 4
    u, one_minus_u = (2.0 * lam * lam / (1.0 + rho2)) ** 2, ((1.0 - rho2) / (1.0 + rho2)) ** 2
    k = np.arange(min(MAX_NODES, math.ceil(40.0 / one_minus_u)))
    t = np.cumprod(np.append(1.0, u * (k - 0.25) ** 2 / ((k + 0.5) * (k + 1.0))))  # t_0 .. t_K
    f = t[:-1].sum() + t[-1] * min(len(k), u / one_minus_u)
    return (math.gamma(0.75) ** 2 * math.sqrt(2.0 * (1.0 + rho2)) * f
            / (2.0 * math.pi ** 2 * (1.0 - rho2) ** 1.5))


def _tail_bound(lam: float, n_max: int, mass: float) -> float:
    """A bound on the share of ``mass`` = M(lam) beyond the shells n + m <= n_max, free of the
    cancellation in 1 - sum/M, which cannot resolve a share below about 1e-15.  Shell N holds
    lam'^{2N} S_N <= M(lam') for lam' in (lam, 1), so the shells past n_max hold at most
    M(lam') q^{n_max+1}/(1 - q), q = (lam/lam')^2; lam'^4 = N/(N + 3), N = n_max + 1, balances
    q^N against M(lam') ~ (1 - lam'^4)^{-3/2}.  inf when that lam' is not above lam."""
    lam_up = ((n_max + 1) / (n_max + 4)) ** 0.25
    if lam_up <= lam:
        return math.inf
    q = (lam / lam_up) ** 2
    return _pointer_mass(lam_up) * q ** (n_max + 1) / ((1.0 - q) * mass)


def make_pointer(lam: float, sign: int, n_max: int = DEFAULT_N_MAX,
                 tail_tol: Optional[float] = TAIL_TOL) -> TwoModePointer:
    """Build the normalized truncated pointer |Phi(lambda)_sign>.

    ``tail_tol`` bounds the share of M (``_pointer_mass``) that the shells n + m > n_max
    hold, 1 - (the other shells' mass)/M or, below that difference's round-off, the
    ``_tail_bound``; pass a larger value to accept a strongly truncated model, or None to
    skip the tail.  ConfigError for lam outside (0, 1), sign not the integer +1 or -1, tail_tol
    not in (0, inf) or n_max out of range.
    """
    if not 0.0 < lam < 1.0:
        raise ConfigError(f"lam must lie strictly between 0 and 1, got {lam}")
    n_max = _check_n_max(n_max, MIN_N_MAX)
    if _size(sign, "sign") not in (+1, -1):
        raise ConfigError(f"sign must be +1 or -1, got {sign!r}")
    if tail_tol is not None and not 0 < tail_tol < math.inf:
        raise ConfigError(f"tail_tol must be positive and finite, got {tail_tol}")
    degrees = _degrees(n_max)
    A = lam ** degrees * raw_pointer_coefficients(n_max)
    mass = A ** 2
    total = float(mass.sum())

    if tail_tol is not None:
        exact = _pointer_mass(lam)
        tail = 1.0 - float(mass[degrees <= n_max].sum()) / exact  # beyond the complete shells
        if tail > tail_tol and not _tail_bound(lam, n_max, exact) <= tail_tol:
            raise CutoffTooSmall(
                f"dropped tail {tail:.3e} exceeds {tail_tol:.1e} for lambda={lam}, n_max="
                f"{n_max}; the whole table drops {1.0 - total / exact:.3e}")

    return TwoModePointer(n_max, (1.0 / math.sqrt(total)) * (A if sign > 0 else _flipped(A)))


def pointer_overlap(p1: TwoModePointer, g: GroupElement,
                    p2: TwoModePointer) -> complex:
    """<<Phi(lambda1)_{s1}| U_g (x) 1 |Phi(lambda2)_{s2}>>.

    Synthesizes the mode-1 wavefunctions f_m(y) = sum_n coeffs[n, m] h_n(y)
    (``coeffs.T @ H``, one row per mode-2 index m) on the grid and applies the affine
    action (``_act_on_nodes``) to their contraction over the mode-2 Fock index.  ConfigError
    for a non-finite x or |r| > ln MAX_NODES, GridTooNarrow, before any table, for
    |x| past pi/(2 dy) of the pointer grid.
    """
    _check_element(g)
    if p1.n_max != p2.n_max:
        raise GridMismatch("pointers must share n_max")
    grid = p1.grid

    def kernel(t):  # sum_m f1_m(y) f2_m(t) at t = e^r y; coefficients are real
        bra = p1.coeffs.T @ hermite_functions(p1.n_max, grid.nodes)
        return (bra * (p2.coeffs.T @ hermite_functions(p1.n_max, t))).sum(axis=0)

    return complex(np.sum(_act_on_nodes(g, grid, kernel)) * grid.dy)


@dataclass
class ConcentrationProfile:
    """Self-overlap profile of the pointer pair with its second-moment widths,
    and the pointer ``plus`` it was computed from (Phi_- is ``_flipped`` Phi_+)."""

    map: DensityMap
    width_x: float
    width_r: float
    plus: TwoModePointer


def concentration_profile(lam: float, n_max: int,
                          window: Tuple[float, float, float, float],
                          resolution, tail_tol: Optional[float] = TAIL_TOL) -> ConcentrationProfile:
    """Map of sum_s |<<Phi(lambda)_s| U_{x,r} (x) 1 |Phi(lambda)_+>>|^2.

    Each chunk of map rows runs one Hermite recurrence, adding each order h_n(e^r y)
    to its parity's row kernel.  Widths, second moments about the origin over the
    window under dx dr, shrink as lambda -> 1; ``map.mass`` integrates the profile
    under d_L g = e^{-r} dx dr.  ``window``, ``resolution`` and ``n_max`` are checked
    as ``scan`` and ``make_pointer`` check them; GridTooNarrow for a pointer grid coarser
    than ``phase_dy`` of the window's |x| (the rule ``scan`` refines its grid by),
    InsufficientMass for a window that captures none of the profile.
    """
    _check_window(window)
    nx, nr = _map_shape(resolution)
    n_max = _check_n_max(n_max, MIN_N_MAX)
    grid, x_max = _pointer_grid(n_max), max(-window[0], window[1])
    if grid.dy > phase_dy(x_max):
        raise GridTooNarrow(f"|x| up to {x_max:.4g} needs dy <= {phase_dy(x_max):.4g}, the n_max "
                            f"{n_max} pointer grid has {grid.dy:.4g}")
    p_plus = make_pointer(lam, +1, n_max, tail_tol=tail_tol)
    y, C = grid.nodes, p_plus.coeffs
    # f_m = sum_n c_nm h_n; the Phi_s overlap is E + s O, the sums of <f_m|U|f_m> over even and
    # odd m: sum_s |.|^2 = 2(|E|^2 + |O|^2), G_j = C_j C_j^T H[j::2] on the blocks C[j::2, j::2]
    H = hermite_functions(n_max, y)
    G = [C[j::2, j::2] @ (C[j::2, j::2].T @ H[j::2]) for j in (0, 1)]

    def rows_at(r, keep):  # kernel_j = sum of G_j h_n(e^r y) over the orders n of parity j
        orders = _hermite_orders(n_max, np.outer(np.exp(r), y[keep]))
        scale = np.exp2(-next(orders)) * (math.sqrt(2.0) * np.exp(r / 2.0) * grid.dy)[:, None]
        kernels = np.zeros((len(r), 2, scale.shape[1]))  # row, parity, y: columns row-major
        for n, h in enumerate(orders):
            kernels[:, n % 2] += G[n % 2][n // 2, keep] * h
        kernels *= scale[:, None]
        return np.ones(len(r)), kernels.reshape(-1, scale.shape[1]).T

    weight = np.abs(G[0]).sum(axis=0) + np.abs(G[1]).sum(axis=0)  # |h_n| is bounded
    dmap = _row_map(window, nx, nr, y, weight, rows_at, per_row=2)
    px, pr = _marginals(dmap, 1.0)
    total = float(px.sum())
    if total == 0.0:
        raise InsufficientMass("window captures none of the profile")
    width_x, width_r = (math.sqrt(float((p * nodes ** 2).sum()) / total)
                        for p, nodes in ((px, dmap.x_nodes), (pr, dmap.r_nodes)))
    return ConcentrationProfile(map=dmap, width_x=width_x, width_r=width_r, plus=p_plus)
