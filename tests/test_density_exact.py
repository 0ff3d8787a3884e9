"""density_at against the exact estimation density of a Gaussian state.

For psi = A e^{-s (y - a)^2}, s = e^{2z}, A^2 = sqrt(2 s / pi), a >= 0, its ML
seed eta = c_s |y| theta(s y) psi and g^{-1} = (x', r'),

    <eta| U_{g^{-1}} |psi> = A^2 e^{r'/2} e^{-2 s a^2} sum_s c_s J(beta, s gamma),

with beta = s (1 + e^{2r'}), gamma = 2 a s (1 + e^{r'}) - 2 i x' and

    J(beta, gamma) = integral_0^inf t e^{-beta t^2 + gamma t} dt
                   = 1/(2 beta) + (gamma / 2 beta) (1/2) sqrt(pi/beta) w(-i gamma / 2 sqrt beta),

w the Faddeeva function (DLMF 7.2).  The coefficients are c_s = 1/sqrt(pi w_s)
with the sector weights w_- = sigma phi(t) (1 - t sqrt(pi/2) erfcx(t / sqrt 2)),
sigma = e^{-z}/2, t = a / sigma, and w_+ = a + w_-; a sector with w_s below
SECTOR_THRESHOLD is dropped, as the library does.  The parity seed
eta = c |y| psi has the same form with c_+ = c_- = c = 1/sqrt(pi (w_+ + w_-)).

The midpoint sum of ``density_at`` misses this value by the Euler-Maclaurin
term of the seed's kink at the cell edge y = 0: the amplitude is off by
delta = (dy^2 / 24)(c_+ + c_-) |psi(0)|^2 e^{r'/2} + O(dy^4).  The tests
check the reference against 30-digit mpmath, density_at (ML and parity
seeds) and ``scan`` against the reference once delta is taken out, and that
the O(dy^2) term is still there.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import wofz

from sqdisp import (GroupElement, build_ml_seed, build_parity_seed, density_at, inverse,
                    make_displaced_squeezed, scan)
from sqdisp.distribution import _refine_for_window
from sqdisp.povm import SECTOR_THRESHOLD

from helpers import gaussian_weights


def exact_coeffs(a, z, parity=False):
    """c_s = 1/sqrt(pi w_s) of the populated sectors, a >= 0; with ``parity``
    c_+ = c_- = 1/sqrt(pi (w_+ + w_-))."""
    weights = dict(zip((+1, -1), gaussian_weights(a, z)))
    if parity:
        c = 1.0 / math.sqrt(math.pi * (weights[+1] + weights[-1]))
        return {+1: c, -1: c}
    return {s: 1.0 / math.sqrt(math.pi * w) for s, w in weights.items() if w > SECTOR_THRESHOLD}


def _j(beta, gamma):
    """integral_0^inf t e^{-beta t^2 + gamma t} dt = (1 + gamma i0) / (2 beta),
    i0 = integral_0^inf e^{-beta t^2 + gamma t} dt."""
    root = math.sqrt(beta)
    i0 = 0.5 * math.sqrt(math.pi) / root * wofz(-1j * gamma / (2.0 * root))
    return (1.0 + gamma * i0) / (2.0 * beta)


def exact_amplitude(a, z, g, parity=False):
    """<eta| U_{g^{-1}} |psi> for the ML (or ``parity``) seed of psi = dsq(a, z)."""
    s = math.exp(2.0 * z)
    gi = inverse(g)
    beta = s * (1.0 + math.exp(2.0 * gi.r))
    gamma = 2.0 * a * s * (1.0 + math.exp(gi.r)) - 2.0j * gi.x
    total = sum(c * _j(beta, sign * gamma) for sign, c in exact_coeffs(a, z, parity).items())
    return math.sqrt(2.0 * s / math.pi) * math.exp(gi.r / 2.0 - 2.0 * s * a * a) * total


def mpmath_amplitude(a, z, g):
    """The same amplitude by 30-digit quadrature of its definition."""
    gi = inverse(g)
    with mpmath.workdps(30):
        a, z, x, r = (mpmath.mpf(v) for v in (a, z, gi.x, gi.r))
        s = mpmath.exp(2 * z)
        amp = (2 * s / mpmath.pi) ** mpmath.mpf(0.25)
        sigma = mpmath.exp(-z) / 2
        t = a / sigma
        weights = {sign: sigma * mpmath.npdf(t) + sign * a * mpmath.ncdf(sign * t)
                   for sign in (+1, -1)}

        def psi(y):
            return amp * mpmath.exp(-s * (y - a) ** 2)

        def integrand(y):
            return abs(y) * psi(y) * mpmath.exp(r / 2 - 2j * x * y) * psi(mpmath.exp(r) * y)

        halves = {+1: [0, a, mpmath.inf] if a > 0 else [0, mpmath.inf], -1: [-mpmath.inf, 0]}
        total = sum(mpmath.quad(integrand, halves[sign]) / mpmath.sqrt(mpmath.pi * w)
                    for sign, w in weights.items() if w > SECTOR_THRESHOLD)
        return complex(total)


def kink_term(seed, psi, g):
    """delta = (dy^2 / 24)(c_+ + c_-) |psi(0)|^2 e^{r'/2}, the O(dy^2) amplitude error;
    a parity seed's full-line c counts on both sides, c_+ + c_- = 2c."""
    coeffs = seed.sector_coeffs
    jump = coeffs.get(+1, 0.0) + coeffs.get(-1, 0.0) + 2.0 * coeffs.get(0, 0.0)
    psi0 = abs(psi.evaluate_at(np.zeros(1))[0]) ** 2
    return psi.grid.dy ** 2 / 24.0 * jump * psi0 * math.exp(inverse(g).r / 2.0)


def modelled_density(seed, psi, a, z, g):
    """|exact amplitude + delta|^2, delta the kink term on psi's grid."""
    amp = exact_amplitude(a, z, g, parity=seed.kind == "ml-parity")
    delta = kink_term(seed, psi, g)
    return abs(amp) ** 2 + 2.0 * (np.conj(amp) * delta).real + delta ** 2


def test_reference_matches_mpmath():
    for a, z, g in ((0.0, 0.0, GroupElement(0.3, -1.0)), (0.0, 0.4, GroupElement(0.5, 0.0)),
                    (1.5, 0.3, GroupElement(-1.2, 0.7)), (0.7, -0.5, GroupElement(0.4, 0.2)),
                    (3.0, 0.5, GroupElement(-0.6, 1.0))):
        ref = mpmath_amplitude(a, z, g)
        assert abs(exact_amplitude(a, z, g) - ref) <= 1e-14 * abs(ref), (a, z, g)


def test_reference_under_cancellation():
    # here e^{-2i x' y} cancels the amplitude to 1e-3 of its value at x' = 0,
    # and the sum in J loses that much relative precision (7.6e-14 against
    # mpmath); the error stays 1e-14 of the uncancelled amplitude
    ref = mpmath_amplitude(3.0, -0.4, GroupElement(2.0, -0.5))
    scale = abs(exact_amplitude(3.0, -0.4, GroupElement(0.0, -0.5)))
    assert abs(ref) < 1e-2 * scale
    assert abs(exact_amplitude(3.0, -0.4, GroupElement(2.0, -0.5)) - ref) <= 1e-14 * scale


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(a=st.floats(0.0, 3.0), z=st.floats(-0.5, 0.5), x=st.floats(-2.0, 2.0),
       r=st.floats(-1.0, 1.0))
@example(a=0.0, z=0.0, x=0.3, r=-1.0)
def test_density_at_matches_exact_up_to_kink_term(a, z, x, r):
    # a e^z <= 5, so e^{-2 s a^2} >= e^{-50} cannot underflow
    psi = make_displaced_squeezed(a, z)
    seed = build_ml_seed(psi)
    g = GroupElement(x, r)
    model = modelled_density(seed, psi, a, z, g)
    assert abs(density_at(seed, psi, g) - model) <= 1e-8 * seed.likelihood


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(a=st.floats(0.0, 3.0), z=st.floats(-0.5, 0.5), x=st.floats(-2.0, 2.0),
       r=st.floats(-1.0, 1.0))
def test_parity_density_at_matches_exact_up_to_kink_term(a, z, x, r):
    psi = make_displaced_squeezed(a, z)
    seed = build_parity_seed(psi)
    g = GroupElement(x, r)
    model = modelled_density(seed, psi, a, z, g)
    assert abs(density_at(seed, psi, g) - model) <= 1e-8 * seed.likelihood


@pytest.mark.parametrize("a, z", [(0.0, 0.0), (1.5, 0.3), (3.0, -0.4)])
def test_scan_matches_exact_up_to_kink_term(a, z):
    # e^{3.5} |x| resolves on no default grid, so scan samples on a finer
    # one and its kink term shrinks with that grid's dy
    window = (-4.0, 4.0, -3.5, 0.5)
    psi = make_displaced_squeezed(a, z)
    seed = build_ml_seed(psi)
    dmap = scan(seed, psi, window, 16)
    fine_seed, fine_psi = _refine_for_window(seed, psi, window)
    assert fine_psi.grid.dy < psi.grid.dy
    for i in range(0, 16, 3):
        for j in range(0, 16, 3):
            g = GroupElement(dmap.x_nodes[i], dmap.r_nodes[j])
            model = modelled_density(fine_seed, fine_psi, a, z, g)
            assert abs(dmap.values[i, j] - model) <= 1e-8 * seed.likelihood, (i, j)


def test_kink_floor_is_present():
    # the vacuum's O(dy^2) error at g = (0.3, -1); the kink correction flips this
    g = GroupElement(0.3, -1.0)
    psi = make_displaced_squeezed(0.0, 0.0)
    exact = abs(exact_amplitude(0.0, 0.0, g)) ** 2
    assert abs(density_at(build_ml_seed(psi), psi, g) - exact) > 1e-6 * exact
