"""Regularized two-mode entangled pointers in a truncated Fock basis.

The ideal pointer vectors  (1/sqrt(pi)) integral dy sqrt(|y|) |y>|+-y>  make
an orthogonal joint measurement of squeezing and displacement possible but
are not normalizable.  Their lambda-regularized versions damp the two-mode
Fock amplitudes geometrically,

    <n, m| Phi(lambda)_s > = N_lambda lambda^{n+m} c_nm,
    c_nm = (1/sqrt(pi)) integral sqrt(|y|) h_n(y) h_m(s y) dy,

with h_n the oscillator eigenfunctions in the quadrature scaling
(h_0(y) = (2/pi)^{1/4} e^{-y^2}), generated by the stable three-term
recurrence.  Parity forces c_nm = 0 for odd n + m, and the sign flip obeys
c^-_nm = (-1)^m c^+_nm.

The truncated coefficient mass drops like sqrt(k) lambda^{2k} across total
degree k = n + m, so cutting at n_max drops an estimable geometric tail;
``make_pointer`` raises CutoffTooSmall when that estimate exceeds
``tail_tol``.  Close to lambda = 1 any practical cutoff fails the default
1e-4 criterion, and callers that accept a truncated model pass a larger
tolerance (or None) explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, CutoffTooSmall, GridMismatch
from .distribution import DensityMap, _map_shape, _marginals, _row_map
from .grids import MAX_NODES, QuadratureGrid
from .group import GroupElement

DEFAULT_TEST_LAMBDAS = (0.9, 0.95, 0.99)
DEFAULT_N_MAX = 60
MIN_N_MAX = 20
TAIL_TOL = 1e-4
COEFF_QUAD_NODES = 2048   # midpoint nodes in t for raw_pointer_coefficients


def hermite_functions(n_max: int, y: np.ndarray) -> np.ndarray:
    """Oscillator eigenfunctions h_0 .. h_{n_max} at the points y, of any shape.

    Quadrature scaling: h_n(y) = 2^{1/4} phi_n(sqrt(2) y) with phi_n the
    standard orthonormal Hermite functions, so that the h_n are orthonormal
    in integral dy.
    """
    u = math.sqrt(2.0) * np.asarray(y, dtype=float)
    H = np.zeros((n_max + 1,) + u.shape)
    H[0] = (2.0 / math.pi) ** 0.25 * np.exp(-0.5 * u * u)
    if n_max >= 1:
        H[1] = math.sqrt(2.0) * u * H[0]
    for n in range(1, n_max):
        H[n + 1] = math.sqrt(2.0 / (n + 1)) * u * H[n] - math.sqrt(n / (n + 1)) * H[n - 1]
    return H


def _degrees(n_max: int) -> np.ndarray:
    """Total degree n + m of each two-mode Fock amplitude, (n_max+1)^2."""
    k = np.arange(n_max + 1)
    return np.add.outer(k, k)


def _pointer_grid(n_max: int) -> QuadratureGrid:
    # h_n lives inside |y| <= sqrt(2 n_max + 1)/sqrt(2); keep a safety margin
    y_max = 1.25 * math.sqrt(2.0 * n_max + 1.0) / math.sqrt(2.0) + 2.0
    return QuadratureGrid(y_max, 2048)


@dataclass
class TwoModePointer:
    """lambda-regularized entangled pointer in a truncated two-mode Fock basis."""

    lam: float
    sign: int
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


def raw_pointer_coefficients(n_max: int, sign: int = +1) -> np.ndarray:
    """c_nm = (1/sqrt(pi)) integral sqrt(|y|) h_n(y) h_m(sign y) dy.

    Parity reduces this to 2/sqrt(pi) times the half-line integral for even
    n + m (exactly zero otherwise); the substitution y = t^2 removes the
    sqrt(|y|) kink so the midpoint sum converges superalgebraically:

        c_nm = (4/sqrt(pi)) integral_0^inf t^2 h_n(t^2) h_m(t^2) dt.

    ConfigError above MAX_NODES coefficients (n_max >= 1024), before any table.
    """
    if (n_max + 1) ** 2 > MAX_NODES:
        raise ConfigError(f"a {n_max + 1}^2 coefficient table exceeds {MAX_NODES} entries")
    y_max = _pointer_grid(n_max).y_max
    dt = math.sqrt(y_max) / COEFF_QUAD_NODES
    t = (np.arange(COEFF_QUAD_NODES) + 0.5) * dt
    Ht = hermite_functions(n_max, t * t)
    C = (4.0 / math.sqrt(math.pi)) * (Ht * (t * t * dt)) @ Ht.T
    C[_degrees(n_max) % 2 == 1] = 0.0
    if sign < 0:
        C = C * (-1.0) ** np.arange(n_max + 1)
    return C


def _tail_estimate(shell_mass: np.ndarray) -> float:
    """Dropped-mass fraction beyond the last complete shell, by geometric
    extrapolation over the trailing even-degree shells."""
    nz = np.nonzero(shell_mass > 0)[0]
    if len(nz) < 4:
        return 0.0
    trail = nz[-4:]
    span = trail[-1] - trail[0]
    q = (shell_mass[trail[-1]] / shell_mass[trail[0]]) ** (1.0 / span)
    q = min(q, 0.999999)
    step = trail[-1] - trail[-2]
    ratio = q ** step
    tail = shell_mass[trail[-1]] * ratio / (1.0 - ratio)
    return float(tail / (shell_mass.sum() + tail))


def make_pointer(lam: float, sign: int, n_max: int = DEFAULT_N_MAX,
                 tail_tol: Optional[float] = TAIL_TOL) -> TwoModePointer:
    """Build the normalized truncated pointer |Phi(lambda)_sign>.

    ``tail_tol`` bounds the estimated coefficient mass dropped by the
    truncation; pass a larger value (or None) to accept a strongly truncated
    model, e.g. for lambda close to 1 at moderate n_max.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie strictly between 0 and 1")
    if n_max < MIN_N_MAX:
        raise ValueError(f"n_max must be at least {MIN_N_MAX}")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    C = raw_pointer_coefficients(n_max, sign)
    degrees = _degrees(n_max)
    A = lam ** degrees * C
    mass = A ** 2
    total = float(mass.sum())
    if total == 0.0:
        raise ValueError("pointer coefficients vanished")

    shell_mass = np.bincount(degrees.ravel(), mass.ravel())[:n_max + 1]  # complete shells only
    tail = _tail_estimate(shell_mass)
    if tail_tol is not None and tail > tail_tol:
        raise CutoffTooSmall(
            f"estimated dropped tail {tail:.3e} exceeds {tail_tol:.1e} for "
            f"lambda={lam}, n_max={n_max}")

    return TwoModePointer(lam=lam, sign=sign, n_max=n_max,
                          coeffs=(1.0 / math.sqrt(total)) * A)


def pointer_overlap(p1: TwoModePointer, g: GroupElement,
                    p2: TwoModePointer) -> complex:
    """<<Phi(lambda1)_{s1}| U_g (x) 1 |Phi(lambda2)_{s2}>>.

    Synthesizes the mode-1 wavefunctions f_m(y) = sum_n coeffs[n, m] h_n(y)
    (``coeffs.T @ H``, one row per mode-2 index m) on the grid, applies the
    affine action to the ket, and contracts over the mode-2 Fock index.
    """
    if p1.n_max != p2.n_max:
        raise GridMismatch("pointers must share n_max")
    grid = p1.grid
    y = grid.nodes
    H = hermite_functions(p1.n_max, y)
    Hs = hermite_functions(p1.n_max, math.exp(g.r) * y)
    bra = p1.coeffs.T @ H
    ket = p2.coeffs.T @ Hs
    kernel = (bra * ket).sum(axis=0)  # coefficients are real
    phase = np.exp(-2.0j * g.x * y)
    return complex(math.exp(g.r / 2.0) * np.sum(kernel * phase) * grid.dy)


@dataclass
class ConcentrationProfile:
    """Self-overlap profile of the pointer pair with its second-moment widths,
    and the pair ``plus`` and ``minus`` it was computed from."""

    map: DensityMap
    width_x: float
    width_r: float
    plus: TwoModePointer
    minus: TwoModePointer


def concentration_profile(lam: float, n_max: int,
                          window: Tuple[float, float, float, float],
                          resolution, tail_tol: Optional[float] = TAIL_TOL) -> ConcentrationProfile:
    """Map of sum_s |<<Phi(lambda)_s| U_{x,r} (x) 1 |Phi(lambda)_+>>|^2.

    Widths are the second moments of the profile about the origin over the
    window, under dx dr; ``map.mass`` integrates it under d_L g = e^{-r} dx dr.
    The widths shrink monotonically as lambda -> 1 (delta concentration).
    ``window`` and ``resolution`` are checked as ``scan`` checks them.
    """
    nx, nr = _map_shape(window, resolution)
    p_plus = make_pointer(lam, +1, n_max, tail_tol=tail_tol)
    p_minus = make_pointer(lam, -1, n_max, tail_tol=tail_tol)
    grid = p_plus.grid
    y = grid.nodes
    H = hermite_functions(n_max, y)
    # sum_m bra_sm(y) ket_m(e^r y) = sum_k h_k(e^r y) G_sk(y), G_s = C_+ C_s^T H
    G = np.stack([p_plus.coeffs @ (p.coeffs.T @ H) for p in (p_plus, p_minus)], axis=1)

    def rows_at(r):
        Hs = hermite_functions(n_max, np.outer(np.exp(r), y))  # one table per chunk
        kernels = np.einsum("kjy,ksy,j->yjs", Hs, G, np.exp(r / 2.0) * grid.dy)
        return np.ones(len(r)), kernels.reshape(len(y), -1)

    dmap = _row_map(window, nx, nr, y, rows_at, per_row=2)
    px, pr = _marginals(dmap, 1.0)
    width_x, width_r = (math.sqrt(float((p * nodes ** 2).sum()) / float(px.sum()))
                        for p, nodes in ((px, dmap.x_nodes), (pr, dmap.r_nodes)))
    return ConcentrationProfile(map=dmap, width_x=width_x, width_r=width_r,
                                plus=p_plus, minus=p_minus)
