"""Pinned values of the numerical primitives, asserted at relative 1e-9.

The values were recorded with the implementation that still carried
separate copies of the grid-doubling loop, the Fourier phase-matrix kernel,
the r-slice integral and the seed assembly, before those were merged into
one implementation each.  They cover the seed builders and likelihoods on
the validation suites, the normalization and group-average oracles, scan
statistics and the pointer profile widths.  A value near zero is compared
against the scale of its quantity instead of against itself.

Five oracle values were re-recorded when the oracles' r slices became the
exact band-limited x integral in place of a trapezoid x quadrature:
NORMALIZATION for vacuum and coherent(2) on the wide and the narrow window,
and GROUP_AVERAGE_ODD.  The old values carried that quadrature's error, up
to 1.5e-3 relative on the narrow window; each new value lies within 1e-11
relative of a 40,001-node Simpson quadrature in x.

Twelve SEEDS w_minus values were re-recorded when the grid-doubling loop
gained Richardson extrapolation: coherent(4) in both suites, coherent(10)
and dsq(5,-0.2), each in its ml, ml-parity and srm rows.  The old loop
stopped at its 2^20-node cap before the O(dy^2) endpoint error at y = 0 had
fallen below 1e-9, and its values lay 4e-9 to 1e-7 relative from the limit.
Each new value is the closed form E[|Y|; Y < 0] = sigma phi(a/sigma) -
a Phi(-a/sigma), sigma = e^{-z}/2, evaluated with mpmath at 40 digits.
"""

import pytest

from sqdisp import (DomainViolation, build_ml_seed, build_parity_seed,
                    build_srm_seed, concentration_profile, default_grid,
                    group_average_sandwich, make_coherent,
                    make_displaced_squeezed, make_vacuum, moments,
                    normalization_check, optimal_likelihood, scan,
                    srm_likelihood)
from sqdisp.validate import _odd_state, _seed_suite, srm_admissible_suite

RTOL = 1e-9

# (suite, state, seed kind): (likelihood, w_plus, w_minus, certificates)
SEEDS = {
    ('seed_suite', 'coherent(4)', 'ml'): (1.2732395447351625, 3.9999999999999996, 3.7751312059732495e-17,
        {'+': 0.9999999999999999}),
    ('seed_suite', 'coherent(4)', 'ml-parity'): (1.2732395447351625, 3.9999999999999996, 3.7751312059732495e-17,
        {'full': 0.9999999999999999}),
    ('seed_suite', 'coherent(4)', 'srm'): (1.2526682605104646, 3.9999999999999996, 3.7751312059732495e-17,
        {'+': 0.9999999999999452}),
    ('seed_suite', 'dsq(3,-0.4)', 'ml'): (0.95735737983212, 3.0000048352296176, 4.835188812400619e-06,
        {'+': 1.0000000000000004, '-': 1.0000000000000002}),
    ('seed_suite', 'dsq(3,-0.4)', 'ml-parity'): (0.9549327367541507, 3.0000048352296176, 4.835188812400619e-06,
        {'full': 1.0}),
    ('seed_suite', 'dsq(3,-0.4)', 'srm'): DomainViolation,
    ('seed_suite', 'odd', 'ml'): (0.5079490874694917, 0.39894228039794843, 0.39894228039794855,
        {'+': 0.9999999999999999, '-': 0.9999999999999999}),
    ('seed_suite', 'odd', 'ml-parity'): (0.2539745437347458, 0.39894228039794843, 0.39894228039794855,
        {'full': 0.9999999999999998}),
    ('seed_suite', 'odd', 'srm'): (0.3989422803023828, 0.39894228039794843, 0.39894228039794855,
        {'+': 0.9999999999999999, '-': 0.9999999999999999}),
    ('seed_suite', 'vacuum', 'ml'): (0.25397454379856077, 0.1994711402490944, 0.1994711402490944,
        {'+': 1.0000000000000004, '-': 1.0000000000000004}),
    ('seed_suite', 'vacuum', 'ml-parity'): (0.12698727189928039, 0.1994711402490944, 0.1994711402490944,
        {'full': 1.0000000000000007}),
    ('seed_suite', 'vacuum', 'srm'): DomainViolation,
    ('srm_suite', 'coherent(10)', 'ml'): (3.1830988618379075, 10.0, 6.8500624736478997e-91,
        {'+': 0.9999999999999998}),
    ('srm_suite', 'coherent(10)', 'ml-parity'): (3.183098861837907, 10.0, 6.8500624736478997e-91,
        {'full': 0.9999999999999998}),
    ('srm_suite', 'coherent(10)', 'srm'): (3.175100819161171, 10.0, 6.8500624736478997e-91,
        {'+': 0.9999999999999999}),
    ('srm_suite', 'coherent(4)', 'ml'): (1.2732395447351625, 3.9999999999999996, 3.7751312059732495e-17,
        {'+': 0.9999999999999998}),
    ('srm_suite', 'coherent(4)', 'ml-parity'): (1.2732395447351625, 3.9999999999999996, 3.7751312059732495e-17,
        {'full': 0.9999999999999998}),
    ('srm_suite', 'coherent(4)', 'srm'): (1.2526682605104988, 3.9999999999999996, 3.7751312059732495e-17,
        {'+': 0.9999999999999447}),
    ('srm_suite', 'dsq(5,-0.2)', 'ml'): (1.5915494309189537, 5.0, 9.6857264882152562e-18,
        {'+': 1.0}),
    ('srm_suite', 'dsq(5,-0.2)', 'ml-parity'): (1.5915494309189535, 5.0, 9.6857264882152562e-18,
        {'full': 1.0}),
    ('srm_suite', 'dsq(5,-0.2)', 'srm'): (1.567038205529678, 5.0, 9.6857264882152562e-18,
        {'+': 0.999999999999988}),
    ('srm_suite', 'odd', 'ml'): (0.5079490874029534, 0.3989422803456896, 0.3989422803456896,
        {'+': 1.0000000000000002, '-': 1.0000000000000002}),
    ('srm_suite', 'odd', 'ml-parity'): (0.25397454370147676, 0.3989422803456896, 0.3989422803456896,
        {'full': 1.0000000000000004}),
    ('srm_suite', 'odd', 'srm'): (0.3989422802679738, 0.3989422803456896, 0.3989422803456896,
        {'+': 0.9999999999999999, '-': 0.9999999999999999}),
    ('srm_suite', 'two-bump(3)', 'ml'): (1.9098592918305406, 1.4999999801512576, 1.4999999801512576,
        {'+': 0.9999999999999999, '-': 0.9999999999999999}),
    ('srm_suite', 'two-bump(3)', 'ml-parity'): (0.9549296459152702, 1.4999999801512576, 1.4999999801512576,
        {'full': 1.0000000000000002}),
    ('srm_suite', 'two-bump(3)', 'srm'): (1.8533294547686987, 1.4999999801512576, 1.4999999801512576,
        {'+': 1.0, '-': 1.0}),
}

# (suite, state): (L_opt, L_srm)
LIKELIHOODS = {
    ('seed_suite', 'coherent(4)'): (1.2732395447351625, 1.2526682605104646),
    ('seed_suite', 'dsq(3,-0.4)'): (0.95735737983212, DomainViolation),
    ('seed_suite', 'odd'): (0.5079490874694917, 0.3989422803023828),
    ('seed_suite', 'vacuum'): (0.25397454379856077, DomainViolation),
    ('srm_suite', 'coherent(10)'): (3.1830988618379075, 3.175100819161171),
    ('srm_suite', 'coherent(4)'): (1.2732395447351625, 1.2526682605104988),
    ('srm_suite', 'dsq(5,-0.2)'): (1.5915494309189537, 1.567038205529678),
    ('srm_suite', 'odd'): (0.5079490874029534, 0.3989422802679738),
    ('srm_suite', 'two-bump(3)'): (1.9098592918305406, 1.8533294547686987),
}

# r_resolution = 64; the wide window covers the whole band |x| <= pi/(2 dy)
# in about half of its slices, the narrow one in none.  All four were re-recorded from the
# exact band-limited slice integral; each lies within 1e-11 relative of a
# 40,001-node Simpson quadrature in x.
NORMALIZATION = {
    ('vacuum', 'wide'): 0.9994803754962932,
    ('vacuum', 'narrow'): 0.46442685467310535,
    ('coherent(2)', 'wide'): 0.999999656236899,
    ('coherent(2)', 'narrow'): 0.7887377332239555,
}
NORM_WINDOWS = {'wide': (-1000.0, 1000.0, -8.0, 9.0), 'narrow': (-1.0, 1.0, -1.0, 1.0)}

GROUP_AVERAGE_ODD = complex(2.5054704397433203, -4.25960734501919e-21)
GROUP_AVERAGE_CROSS = complex(-2.1357657554471015e-15, 1.5843074029911032e-15)

# 32 x 32 scan of coherent(10) on (-4, 4, -0.6, 0.6)
SCAN_COH10 = {
    'mass': 0.999999957686829,
    'mean_x': 0.0,
    'mean_r': 0.0025062940938935145,
    'delta_x': 0.7106665262703231,
    'delta_r': 0.07080005589607305,
    'argmax_x': 0.006684101349881233,
    'argmax_r': 0.005119464012845595,
    'peak_value': 3.1597442458816336,
}

# concentration_profile(0.9, 60, (-1.5, 1.5, -1.5, 1.5), 24, tail_tol=None)
PROFILE = {'width_x': 0.472179921092849, 'width_r': 0.4446151545661217,
           'mass': 0.504102441268674}

BUILDERS = {'ml': build_ml_seed, 'srm': build_srm_seed, 'ml-parity': build_parity_seed}


def assert_close(actual, expected, scale=0.0):
    """|actual - expected| <= RTOL * max(|expected|, scale)."""
    assert abs(actual - expected) <= RTOL * max(abs(expected), scale), (actual, expected)


@pytest.fixture(scope="module")
def suites():
    return {'seed_suite': dict(_seed_suite(default_grid(0.0))),
            'srm_suite': dict(srm_admissible_suite())}


@pytest.mark.parametrize("key", sorted(SEEDS))
def test_seed(suites, key):
    suite, state, kind = key
    psi = suites[suite][state]
    expected = SEEDS[key]
    if expected is DomainViolation:
        with pytest.raises(DomainViolation):
            BUILDERS[kind](psi)
        return
    seed = BUILDERS[kind](psi)
    likelihood, w_plus, w_minus, certificates = expected
    assert seed.kind == kind
    assert_close(seed.likelihood, likelihood)
    assert_close(seed.w_plus, w_plus)
    assert_close(seed.w_minus, w_minus)
    assert seed.certificates.keys() == certificates.keys()
    for label, value in certificates.items():
        assert_close(seed.certificates[label], value)


@pytest.mark.parametrize("key", sorted(LIKELIHOODS))
def test_likelihoods(suites, key):
    psi = suites[key[0]][key[1]]
    l_opt, l_srm = LIKELIHOODS[key]
    assert_close(optimal_likelihood(psi), l_opt)
    if l_srm is DomainViolation:
        with pytest.raises(DomainViolation):
            srm_likelihood(psi)
    else:
        assert_close(srm_likelihood(psi), l_srm)


@pytest.mark.parametrize("key", sorted(NORMALIZATION))
def test_normalization_check(key):
    state, window = key
    psi = make_vacuum() if state == 'vacuum' else make_coherent(2.0)
    value = normalization_check(build_ml_seed(psi), psi, NORM_WINDOWS[window],
                                r_resolution=64)
    assert_close(value, NORMALIZATION[key])


def test_group_average_sandwich():
    grid = default_grid(0.0)
    odd = _odd_state(grid)
    u = make_displaced_squeezed(3.0, 0.7, grid=grid)
    v = make_displaced_squeezed(-3.0, 0.7, grid=grid)
    window = (-12.0, 12.0, -8.0, 8.0)
    scale = abs(GROUP_AVERAGE_ODD)
    own = group_average_sandwich(odd, odd, odd, odd, window, r_resolution=64)
    assert_close(own, GROUP_AVERAGE_ODD, scale)
    cross = group_average_sandwich(odd, odd, u, v, window, r_resolution=64)
    assert_close(cross, GROUP_AVERAGE_CROSS, scale)


def test_scan_mass_and_moments():
    c10 = make_coherent(10.0)
    dmap = scan(build_ml_seed(c10), c10, (-4.0, 4.0, -0.6, 0.6), 32)
    stats = moments(dmap)
    assert_close(dmap.mass, SCAN_COH10['mass'])
    for name in ('mean_x', 'delta_x', 'argmax_x'):
        assert_close(getattr(stats, name), SCAN_COH10[name], SCAN_COH10['delta_x'])
    for name in ('mean_r', 'delta_r', 'argmax_r'):
        assert_close(getattr(stats, name), SCAN_COH10[name], SCAN_COH10['delta_r'])
    assert_close(stats.peak_value, SCAN_COH10['peak_value'])


def test_concentration_profile_widths():
    prof = concentration_profile(0.9, 60, (-1.5, 1.5, -1.5, 1.5), 24, tail_tol=None)
    assert_close(prof.width_x, PROFILE['width_x'])
    assert_close(prof.width_r, PROFILE['width_r'])
    assert_close(prof.map.mass, PROFILE['mass'])
