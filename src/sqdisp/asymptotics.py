"""Closed-form asymptotic laws for excited Gaussian input states.

For a displaced squeezed input with center a >> 1 and log-width z the
estimation density (with the left-Haar weight included) approaches

    p(x, r) = (a / pi) exp(-(a e^z r)^2) exp(-(x e^{-z})^2),

with r.m.s. errors  Delta r = 1/(sqrt(2) a e^z)  and  Delta x = e^z/sqrt(2).
The optimal separate measurements achieve  Delta x_opt = e^z/2  (quadrature
X) and  Delta r_opt = 1/(2 a e^z)  (the observable ln(|Y|/a)), a factor
sqrt(2) below the joint values in each component, so the uncertainty
products satisfy  Delta x Delta r = 2 Delta x_opt Delta r_opt.

The same two observables obey the Heisenberg-Robertson inequality

    Delta X * Delta ln(|Y|/a) >= |<1/(4Y)>|,

which excited displaced squeezed states saturate; ``heisenberg_ratio``
evaluates LHS/RHS by quadrature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SupportViolation
from .grids import StateVector, _sector_sum

NEG_MASS_TOL = 1e-6
ASYMPTOTIC_WARN_THRESHOLD = 3.0


@dataclass(frozen=True)
class AsymptoticModel:
    """Parameters of the asymptotic Gaussian estimation density."""

    a: float
    z: float = 0.0

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("a must be positive")


def model_density(m: AsymptoticModel, x: float, r: float) -> float:
    """(a/pi) exp(-(a e^z r)^2) exp(-(x e^{-z})^2), elementwise on arrays."""
    sr = m.a * math.exp(m.z) * r
    sx = x * math.exp(-m.z)
    return (m.a / math.pi) * np.exp(-sr * sr) * np.exp(-sx * sx)


def rms_predictions(a: float, z: float = 0.0):
    """Joint-estimation r.m.s. errors (Delta x, Delta r).

    Built as sqrt(2) times the separate-measurement optima so the ratio
    holds exactly in floating point.  Warns outside the asymptotic regime.
    """
    if a * math.exp(z) < ASYMPTOTIC_WARN_THRESHOLD:
        warnings.warn("a e^z is small; asymptotic error laws are unreliable",
                      stacklevel=2)
    dx_opt, dr_opt = separate_optima(a, z)
    return math.sqrt(2.0) * dx_opt, math.sqrt(2.0) * dr_opt


def separate_optima(a: float, z: float = 0.0):
    """Optimal separate-measurement errors (Delta x_opt, Delta r_opt)."""
    return math.exp(z) / 2.0, 1.0 / (2.0 * a * math.exp(z))


def uncertainty_product_ratio(a: float, z: float = 0.0) -> float:
    """(Delta x Delta r) / (Delta x_opt Delta r_opt); equals 2 in exact algebra."""
    dx, dr = rms_predictions(a, z)
    ox, orr = separate_optima(a, z)
    return (dx * dr) / (ox * orr)


def heisenberg_ratio(psi: StateVector, a: float,
                     neg_mass_tol: float = NEG_MASS_TOL) -> float:
    """LHS/RHS of Delta X * Delta ln(|Y|/a) >= |<1/(4Y)>| for a state with <Y> = a.

    Delta X comes from spectral differentiation X = (i/2) d/dy.  Raises
    SupportViolation when the |psi|^2 mass at y < 0 exceeds ``neg_mass_tol``
    (the ln|Y| treatment degenerates there).
    """
    grid = psi.grid
    y = grid.nodes
    density = psi.probability_density()
    neg_mass = _sector_sum(psi, psi, grid, -1, 0)
    if neg_mass > neg_mass_tol:
        raise SupportViolation(
            f"mass {neg_mass:.3g} at y < 0 exceeds {neg_mass_tol:.1g}")

    k = 2.0 * math.pi * np.fft.fftfreq(grid.n, grid.dy)
    dpsi = np.fft.ifft(1.0j * k * np.fft.fft(psi.amplitudes))
    x_mean = float(np.real(0.5j * np.sum(np.conj(psi.amplitudes) * dpsi)) * grid.dy)
    x2_mean = 0.25 * float(np.sum(np.abs(dpsi) ** 2)) * grid.dy
    delta_x = math.sqrt(max(x2_mean - x_mean ** 2, 0.0))

    log_ratio = np.log(np.abs(y) / a)
    m1 = float(np.sum(log_ratio * density)) * grid.dy
    m2 = float(np.sum(log_ratio ** 2 * density)) * grid.dy
    delta_ln = math.sqrt(max(m2 - m1 * m1, 0.0))
    rhs = abs(0.25 * float(np.sum(density / y)) * grid.dy)
    if rhs == 0.0:
        raise SupportViolation("<1/(4Y)> vanishes; ratio undefined")
    return delta_x * delta_ln / rhs


@dataclass(frozen=True)
class IsotropicSolution:
    """Isotropy condition a = e^{-2z} solved against total photon number.

    ``fig_a`` and ``fig_z`` carry the alternative split a^2 = nbar - sqrt(nbar),
    sinh^2 z = sqrt(nbar); the two conventions differ by roughly a factor 4
    in sinh^2 z and are both reported, never silently interchanged.
    """

    a: float
    z: float
    fig_a: float
    fig_z: float


def isotropic_params(nbar: float) -> IsotropicSolution:
    """Solve a = e^{-2z} with a^2 + sinh^2 z = nbar for the isotropic input.

    With sinh^2 z = (a - 2 + 1/a)/4 the condition times 4a is the cubic
    4a^3 + a^2 - (2 + 4 nbar) a + 1 = 0: 1 at a = 0 and 4 - 4 nbar < 0 at a = 1,
    so its roots are real and the largest alone exceeds 1.  a = t - 1/12 gives
    t^3 - p t + q = 0, whose largest root is 2m cos(arccos(-q/2m^3)/3), m = sqrt(p/3).

    z needs d = a - 1 to full relative precision, which a - 1 loses as
    nbar -> 1.  d is the positive root of the shifted cubic
    4d^3 + 13d^2 + (8 - 4e) d - 4e = 0, e = nbar - 1, whose three roots
    multiply to e; the other two, a_k - 1 for the other roots a_k of the
    cubic in a, multiply to a + 5/4 - 1/(4a) by Vieta's formulas.  So
    d = e / (a + 5/4 - 1/(4a)), with no cancellation, and z = -log1p(d)/2.
    """
    if not nbar > 1:
        raise ValueError("nbar must exceed 1")
    m = math.sqrt((nbar + 0.5 + 1.0 / 48.0) / 3.0)
    q = (nbar + 0.5) / 12.0 + 0.25 + 1.0 / 864.0
    a = 2.0 * m * math.cos(math.acos(-q / (2.0 * m ** 3)) / 3.0) - 1.0 / 12.0
    z = -0.5 * math.log1p((nbar - 1.0) / (a + 1.25 - 0.25 / a))
    fig_a = math.sqrt(nbar - math.sqrt(nbar))
    fig_z = -math.asinh(nbar ** 0.25)
    return IsotropicSolution(a=a, z=z, fig_a=fig_a, fig_z=fig_z)
