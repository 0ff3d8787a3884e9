"""density_at and scan against the exact estimation density of a Gaussian state.

The reference is ``helpers.exact_amplitude``, a sum over the seed's sectors of half-line
Gaussian integrals closed by the Faddeeva function.  The raw midpoint sum misses it by the
Euler-Maclaurin terms of the seed's kink at the cell edge y = 0: the amplitude is off by
delta = (dy^2 / 24)(c_+ + c_-) |psi(0)|^2 e^{r'/2} + O(dy^4), whose O(dy^2) term and O(dy^4)
term density_at and the quadrature rows of scan take out.  The tests check the reference
against 30-digit mpmath, density_at (ML and parity seeds) and the quadrature rows against the
reference, that the raw sum holds the O(dy^2) term, that without it the sum errs at O(dy^4)
and density_at at O(dy^6), that scan's closed form for Gaussian pairs matches the
reference to round-off, and that an SRM seed's quadrature rows, which need no kink term,
match the reference's J_0 sum.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import wofz

from sqdisp import (GaussianStateParams, GroupElement, StateVector, act, build_ml_seed,
                    build_parity_seed, build_srm_seed, cli, default_grid, density_at,
                    distribution, inverse, make_displaced_squeezed, optimal_likelihood, scan)
from sqdisp.distribution import _faddeeva, _refine_for_window, _scan_rows
from sqdisp.povm import SECTOR_THRESHOLD

from helpers import exact_amplitude, exact_map, map_devs, spy


def mpmath_amplitude(a, z, g, c=0.0):
    """The same amplitude by 30-digit quadrature of its definition."""
    gi = inverse(g)
    with mpmath.workdps(30):
        a, z, x, r, c = (mpmath.mpf(v) for v in (a, z, gi.x, gi.r, c))
        s = mpmath.exp(2 * z)
        amp = (2 * s / mpmath.pi) ** mpmath.mpf(0.25)
        sigma = mpmath.exp(-z) / 2
        t = a / sigma
        weights = {sign: sigma * mpmath.npdf(t) + sign * a * mpmath.ncdf(sign * t)
                   for sign in (+1, -1)}

        def psi(y):
            return amp * mpmath.exp(-s * (y - a) ** 2 - 2j * c * y)

        def integrand(y):
            return (abs(y) * mpmath.conj(psi(y)) * mpmath.exp(r / 2 - 2j * x * y)
                    * psi(mpmath.exp(r) * y))

        halves = {+1: [0, a, mpmath.inf] if a > 0 else [0, mpmath.inf], -1: [-mpmath.inf, 0]}
        total = sum(mpmath.quad(integrand, halves[sign]) / mpmath.sqrt(mpmath.pi * w)
                    for sign, w in weights.items() if w > SECTOR_THRESHOLD)
        return complex(total)


def kink_term(seed, psi, g):
    """delta = (dy^2 / 24)(c_+ + c_-) |psi(0)|^2 e^{r'/2}, the O(dy^2) amplitude error of the
    raw sum; a parity seed's full-line c counts on both sides, c_+ + c_- = 2c."""
    coeffs = seed.sector_coeffs
    jump = coeffs.get(+1, 0.0) + coeffs.get(-1, 0.0) + 2.0 * coeffs.get(0, 0.0)
    psi0 = abs(psi.evaluate_at(np.zeros(1))[0]) ** 2
    return psi.grid.dy ** 2 / 24.0 * jump * psi0 * math.exp(inverse(g).r / 2.0)


def exact_density(seed, a, z, g):
    return abs(exact_amplitude(a, z, g, parity=seed.kind == "ml-parity")) ** 2


def test_reference_matches_mpmath():
    for a, z, g in ((0.0, 0.0, GroupElement(0.3, -1.0)), (0.0, 0.4, GroupElement(0.5, 0.0)),
                    (1.5, 0.3, GroupElement(-1.2, 0.7)), (0.7, -0.5, GroupElement(0.4, 0.2)),
                    (3.0, 0.5, GroupElement(-0.6, 1.0))):
        ref = mpmath_amplitude(a, z, g)
        assert abs(exact_amplitude(a, z, g) - ref) <= 1e-14 * abs(ref), (a, z, g)
    for a, z, c, g in ((1.5, 0.3, 0.7, GroupElement(-1.2, 0.7)),
                       (-0.8, -0.2, -1.5, GroupElement(0.4, -0.6))):
        ref = mpmath_amplitude(a, z, g, c)
        assert abs(exact_amplitude(a, z, g, c=c) - ref) <= 1e-14 * abs(ref), (a, z, c, g)


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
    # a e^z <= 5, so e^{-2 s a^2} >= e^{-50} cannot underflow; density_at takes
    # the kink term out, so it meets the exact value itself
    psi = make_displaced_squeezed(a, z)
    seed = build_ml_seed(psi)
    g = GroupElement(x, r)
    assert abs(density_at(seed, psi, g) - exact_density(seed, a, z, g)) <= 1e-8 * seed.likelihood


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(a=st.floats(0.0, 3.0), z=st.floats(-0.5, 0.5), x=st.floats(-2.0, 2.0),
       r=st.floats(-1.0, 1.0))
def test_parity_density_at_matches_exact_up_to_kink_term(a, z, x, r):
    psi = make_displaced_squeezed(a, z)
    seed = build_parity_seed(psi)
    g = GroupElement(x, r)
    assert abs(density_at(seed, psi, g) - exact_density(seed, a, z, g)) <= 1e-8 * seed.likelihood


@pytest.mark.parametrize("a, z", [(0.0, 0.0), (1.5, 0.3), (3.0, -0.4)])
def test_scan_matches_exact_up_to_kink_term(a, z):
    # the quadrature rows (a Gaussian pair's scan takes the closed form): e^{3.5} |x|
    # resolves on no default grid, so the rows sample on a finer one and take out
    # that grid's kink terms: at most 3.4e-12 of L off (2.6e-10 with the O(dy^2) term alone)
    window = (-4.0, 4.0, -3.5, 0.5)
    psi = make_displaced_squeezed(a, z)
    seed = build_ml_seed(psi)
    dmap = _scan_rows(seed, psi, window, 16)
    assert _refine_for_window(seed, psi, window)[1].grid.dy < psi.grid.dy
    assert np.max(np.abs(dmap.values - exact_map(psi, dmap))) <= 1e-11 * seed.likelihood


def test_kink_floor_is_present():
    # the vacuum's raw midpoint sum at g = (0.3, -1) holds the O(dy^2) kink term, 3.9e-5
    # relative on the default grid; with it taken out, the sum errs at O(dy^4), about 16
    # times less per doubling of the nodes, and density_at, which takes out the O(dy^4)
    # term too, at O(dy^6), about 64 times less (64.3, 64.1 and 63.6; 9.7e-14 relative on 4096)
    g = GroupElement(0.3, -1.0)
    exact_amp = exact_amplitude(0.0, 0.0, g)
    exact = abs(exact_amp) ** 2
    errors, dy2_errors = [], []
    for n in (512, 1024, 2048, 4096):
        psi = make_displaced_squeezed(0.0, 0.0, grid=default_grid(n=n))
        seed = build_ml_seed(psi)
        errors.append(abs(density_at(seed, psi, g) - exact))
        ket = act(inverse(g), psi, grid=psi.grid).amplitudes
        raw = np.vdot(seed.eta.amplitudes, ket) * psi.grid.dy
        dy2_errors.append(abs(abs(raw - kink_term(seed, psi, g)) ** 2 - exact))
    assert abs(abs(raw) ** 2 - exact) > 1e-6 * exact
    assert abs(raw - exact_amp - kink_term(seed, psi, g)) <= 1e-3 * kink_term(seed, psi, g)
    for low, high, errs in ((14.0, 18.0, dy2_errors), (60.0, 68.0, errors)):
        ratios = [coarse / fine for coarse, fine in zip(errs, errs[1:])]
        assert all(low < ratio < high for ratio in ratios), (ratios, errs)
    assert dy2_errors[-1] <= 1e-8 * exact
    assert errors[-1] <= 3e-13 * exact


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(a=st.floats(-4.0, 4.0), z=st.floats(-0.5, 0.5), c=st.floats(-2.0, 2.0),
       parity=st.booleans(), x_lo=st.floats(-6.0, -0.5), x_hi=st.floats(0.5, 6.0),
       r_lo=st.floats(-1.5, -0.1), r_hi=st.floats(0.1, 1.5))
def test_closed_form_scan_matches_exact(a, z, c, parity, x_lo, x_hi, r_lo, r_hi):
    # an ML or parity seed of a Gaussian state and the state itself: scan's closed form
    params = GaussianStateParams(center=a, log_width=z, linear_phase=c)
    psi = StateVector.from_params(params, default_grid(a, z))
    seed = (build_parity_seed if parity else build_ml_seed)(psi)
    dmap = scan(seed, psi, (x_lo, x_hi, r_lo, r_hi), 16)
    exact = exact_map(psi, dmap, parity)
    assert np.max(np.abs(dmap.values - exact)) <= 1e-12 * np.max(exact)


# an SRM seed c_s theta(s y) psi is built only where psi(0) = 0, so its rows need no kink
# term: on each state's default window they match the exact sum of c_s J_0 over the
# seed's own c_s (6.5e-14 to 1.9e-13 relative on bulk nodes, 9.4e-14 of the peak at most)
@pytest.mark.parametrize("a, z", [(4.5, 0.0), (6.0, 0.0), (5.0, -0.2), (5.0, 0.5), (8.0, 0.0)])
def test_srm_rows_match_exact(a, z):
    psi = make_displaced_squeezed(a, z)
    seed = build_srm_seed(psi)
    window = cli.default_window(cli.RunConfig(state="displaced-squeezed", a=a, z=z))
    dmap = scan(seed, psi, window, 48)
    rel, of_peak = map_devs(dmap.values, exact_map(psi, dmap, srm=seed.sector_coeffs))
    assert rel <= 6e-13 and of_peak <= 3e-13


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(a=st.floats(-6.0, 6.0), z=st.floats(-0.6, 0.6), parity=st.booleans(),
       nx=st.integers(16, 41), x_hi=st.floats(0.5, 8.0), r_lo=st.floats(-1.5, 0.0),
       r_hi=st.floats(0.1, 1.5))
def test_mirrored_map_matches_full_evaluation(a, z, parity, nx, x_hi, r_lo, r_hi):
    # a real psi and seed on x_lo = -x_hi: the map's x < 0 half is the mirror of its
    # x >= 0 half; moving x_lo one ulp takes the full evaluation on the same nodes
    psi = make_displaced_squeezed(a, z)
    seed = (build_parity_seed if parity else build_ml_seed)(psi)
    mirrored = scan(seed, psi, (-x_hi, x_hi, r_lo, r_hi), (nx, 16)).values
    full = scan(seed, psi, (np.nextafter(-x_hi, -np.inf), x_hi, r_lo, r_hi), (nx, 16)).values
    bulk = full >= 1e-3 * full.max()
    assert np.max(np.abs(mirrored - full)[bulk] / full[bulk]) <= 1e-12
    assert np.max(np.abs(mirrored - full)) <= 1e-12 * full.max()


@pytest.mark.parametrize("nx", [32, 33])
@pytest.mark.parametrize("window, phases, mirrored", [
    ((-3.0, 3.0, -1.0, 1.0), (0.0, 0.0), True),
    ((-3.0, 2.5, -1.0, 1.0), (0.0, 0.0), False),
    ((-3.0, 3.0, -1.0, 1.0), (0.7, 0.0), False),
    ((-3.0, 3.0, -1.0, 1.0), (0.0, -0.7), False)], ids=["mirror", "asymmetric",
                                                         "seed-phase", "state-phase"])
def test_mirror_only_for_real_states_on_symmetric_windows(monkeypatch, nx, window, phases,
                                                          mirrored):
    # Faddeeva points of one map: ceil(nx / 2) columns of x >= 0 for real states on a
    # symmetric window, all nx otherwise
    grid = default_grid(1.5, 0.2)
    source, psi = (StateVector.from_params(GaussianStateParams(1.5, 0.2, k), grid)
                   for k in phases)
    points = spy(monkeypatch, distribution, "_faddeeva", lambda z: z.size)
    scan(build_ml_seed(source), psi, window, (nx, 20))
    assert sum(points) == (-(-nx // 2) if mirrored else nx) * 20


def test_faddeeva_matches_scipy():
    rng = np.random.default_rng(7)
    z = rng.uniform(-30.0, 30.0, 20000) + 1j * rng.uniform(0.0, 30.0, 20000)
    z = np.concatenate([z, [0.0, 5.0, -5.0, 1e3 + 1j, 1e6 + 1e6j, 1e8j]])
    ref = wofz(z)
    assert np.max(np.abs(_faddeeva(z) - ref) / np.abs(ref)) <= 1e-13


def test_closed_form_scan_at_large_amplitude():
    # e^{-2 s a^2} = e^{-3200} underflows and e^{gamma^2 / 4 beta} would overflow; folded
    # into one exponent they give the map, with no warning, and at the identity, the
    # window's middle node, the ML seed attains L_opt
    psi = make_displaced_squeezed(40.0, 0.0)
    seed = build_ml_seed(psi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dmap = scan(seed, psi, (-1.0, 1.0, -0.5, 0.5), 17)
    assert np.all(np.isfinite(dmap.values)) and dmap.values.min() >= 0.0
    assert dmap.x_nodes[8] == dmap.r_nodes[8] == 0.0
    assert abs(dmap.values[8, 8] - optimal_likelihood(psi)) <= 1e-9 * optimal_likelihood(psi)
