"""What several test files and ``tools/bench_pair.py`` share: one call spy, the vacuum's
reference values, the exact half-line weights and estimation density of a Gaussian, one
deviation measure of a map, the row loop's chunk records and one traced-memory peak.  These
are the only code that observes the library's internals.  pytest puts this directory on
``sys.path``; ``conftest.py`` makes ``vacuum_seed`` a fixture."""

import math
import tracemalloc

import numpy as np
from scipy.special import erfcx, wofz

from sqdisp import GroupElement, build_ml_seed, inverse, make_vacuum
from sqdisp import distribution
from sqdisp.povm import SECTOR_THRESHOLD

VACUUM_L_OPT = math.sqrt(2.0 / math.pi) / math.pi  # 0.25397454373696393


def vacuum_seed():
    """The vacuum's ML seed and the vacuum, on its default grid."""
    vac = make_vacuum()
    return build_ml_seed(vac), vac


def spy(monkeypatch, module, name, note=None, calls=None):
    """Wrap ``module.name`` while ``monkeypatch`` holds and call through.  Each call
    appends ``note(*args, **kwargs)`` to ``calls`` before it runs, so a call that
    raises is noted too, or, with no ``note``, its result after it returns.  Pass
    ``calls`` to share one list between spies; the list is returned."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        if note is not None:
            calls.append(note(*args, **kwargs))
            return original(*args, **kwargs)
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(module, name, wrapper)
    return calls


def gaussian_weights(a, z):
    """Exact (w_+, w_-), w_s the integral of |y| |psi|^2 over sY > 0, for psi =
    make_displaced_squeezed(a, z): with sigma = e^{-z}/2 and t = |a| / sigma, the sector
    without a holds sigma phi(t) (1 - t sqrt(pi/2) erfcx(t / sqrt 2)), the other |a| more."""
    sigma = math.exp(-z) / 2.0
    t = abs(a) / sigma
    phi = math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    far = sigma * phi * (1.0 - t * math.sqrt(math.pi / 2.0) * erfcx(t / math.sqrt(2.0)))
    return (abs(a) + far, far) if a >= 0 else (far, abs(a) + far)


def exact_coeffs(a, z, parity=False):
    """c_s = 1/sqrt(pi w_s) of the populated sectors, as the library drops a sector with
    w_s below SECTOR_THRESHOLD; with ``parity`` c_+ = c_- = 1/sqrt(pi (w_+ + w_-))."""
    weights = dict(zip((+1, -1), gaussian_weights(a, z)))
    if parity:
        c = 1.0 / math.sqrt(math.pi * (weights[+1] + weights[-1]))
        return {+1: c, -1: c}
    return {s: 1.0 / math.sqrt(math.pi * w) for s, w in weights.items() if w > SECTOR_THRESHOLD}


def _j0(beta, gamma):
    """J_0 = integral_0^inf e^{-beta t^2 + gamma t} dt, by the Faddeeva function w (DLMF 7.2)."""
    root = math.sqrt(beta)
    return 0.5 * math.sqrt(math.pi) / root * wofz(-1j * gamma / (2.0 * root))


def _j(beta, gamma):
    """integral_0^inf t e^{-beta t^2 + gamma t} dt = (1 + gamma J_0) / (2 beta)."""
    return (1.0 + gamma * _j0(beta, gamma)) / (2.0 * beta)


def exact_amplitude(a, z, g, parity=False, c=0.0, srm=None):
    """<eta| U_{g^{-1}} |psi> = A^2 e^{r'/2} e^{-2 s a^2} sum_s c_s _j(beta, s gamma), g^{-1} =
    (x', r'), for the ML (or ``parity``) seed eta = c_s |y| theta(s y) psi of psi = A e^{-2i c y}
    e^{-s (y - a)^2}, s = e^{2z}, A^2 = sqrt(2 s / pi): beta = s (1 + e^{2r'}) and gamma =
    2 a s (1 + e^{r'}) + 2i (c (1 - e^{r'}) - x').  With ``srm``, the c_s of an SRM seed
    eta = c_s theta(s y) psi, the sum is of c_s _j0(beta, s gamma)."""
    s = math.exp(2.0 * z)
    gi = inverse(g)
    beta = s * (1.0 + math.exp(2.0 * gi.r))
    gamma = 2.0 * a * s * (1.0 + math.exp(gi.r)) + 2.0j * (c * (1.0 - math.exp(gi.r)) - gi.x)
    j, coeffs = (_j, exact_coeffs(a, z, parity)) if srm is None else (_j0, srm)
    total = sum(cs * j(beta, sign * gamma) for sign, cs in coeffs.items())
    return math.sqrt(2.0 * s / math.pi) * math.exp(gi.r / 2.0 - 2.0 * s * a * a) * total


def exact_map(psi, dmap, parity=False, srm=None):
    """|exact_amplitude|^2 at every node of ``dmap`` for the ML (or ``parity``, or with
    ``srm`` its c_s, SRM) seed of the Gaussian ``psi`` and ``psi`` itself."""
    p = psi.evaluator
    return np.array([[abs(exact_amplitude(p.center, p.log_width, GroupElement(x, r), parity,
                                          p.linear_phase, srm)) ** 2 for r in dmap.r_nodes]
                     for x in dmap.x_nodes])


def map_devs(values, reference):
    """The largest |values - reference| / reference on the nodes where the reference is at
    least 1e-3 of its peak, and the largest |values - reference| over that peak."""
    bulk, dev = reference >= 1e-3 * reference.max(), np.abs(values - reference)
    return float(np.max(dev[bulk] / reference[bulk])), float(np.max(dev) / reference.max())


def record_chunks(monkeypatch, grid_ns=None, module=distribution):
    """(nodes, kernel columns) of each ``fourier_at`` call of the row loop, after
    the (lo, hi) of each ``_support`` call: the row loop's trim by its weight, then
    one per chunk, of the chunk's own kernels.  A sampled scan's probe rows call
    neither.  ``grid_ns``, a list if given, gets the node count of the grid of each
    ``_row_map`` call, one per map.  ``module`` is the ``distribution`` watched, another
    copy of the package's for a before/after record."""
    calls = spy(monkeypatch, module, "fourier_at", lambda x, y, h: (len(y), h.shape[1]))
    if grid_ns is not None:
        spy(monkeypatch, module, "_row_map", lambda window, nx, nr, y, *_, **__: len(y), grid_ns)
    return spy(monkeypatch, module, "_support", calls=calls)


def chunk_rows(nx, calls, per_row=1, grid_n=None):
    """Rows per chunk by the library's own rule, on the nodes the weight keeps or, for a
    map that folds (``grid_n``, its grid's node count, given), on the longer side of y = 0
    of them; every chunk but the last holds that many, and each runs on the nodes its own
    support keeps or, folded where those straddle y = 0, on their longer side of it, no
    more than the weight's."""
    (lo, hi), *chunks = calls
    mid = None if grid_n is None else grid_n // 2 - lo  # the first kept node y > 0
    folds = mid is not None and 0 < mid < hi - lo
    rows = distribution._chunk_rows(nx, max(mid, hi - lo - mid) if folds else hi - lo, per_row)
    supports, runs = chunks[0::2], chunks[1::2]
    assert len(supports) == len(runs) >= 1
    assert [c // per_row for _, c in runs[:-1]] == [rows] * (len(runs) - 1)
    assert [n for n, _ in runs] == [max(b - mid, mid - a) if folds and a < mid < b else b - a
                                    for a, b in supports]
    assert all(n <= hi - lo for n, _ in runs)
    return rows


def kept(calls):
    """Nodes the weight keeps, and those each chunk's own support keeps."""
    (lo, hi), *chunks = calls
    return hi - lo, [b - a for a, b in chunks[0::2]]


def traced(call):
    """``call()`` and the tracemalloc peak of that call, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
