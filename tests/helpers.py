"""What several test files share: one call spy, the vacuum's reference values, the
exact half-line weights of a Gaussian and the row loop's chunk records.  pytest puts
this directory on ``sys.path``; ``conftest.py`` makes ``vacuum_seed`` a fixture."""

import math

from scipy.special import erfcx

from sqdisp import build_ml_seed, make_vacuum
from sqdisp import distribution

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


def record_chunks(monkeypatch):
    """(nodes, kernel columns) of each ``fourier_at`` call of the row loop, after
    the (lo, hi) of each ``_support`` call: the row loop's trim by its weight, then
    one per chunk, of the chunk's own kernels."""
    calls = spy(monkeypatch, distribution, "fourier_at", lambda x, y, h: (len(y), h.shape[1]))
    return spy(monkeypatch, distribution, "_support", calls=calls)


def chunk_rows(nx, calls, per_row=1):
    """Rows per chunk on the nodes the weight keeps, by the library's own rule;
    every chunk but the last holds that many, and each runs on the nodes its
    own support keeps, no more than the weight's."""
    (lo, hi), *chunks = calls
    rows = distribution._chunk_rows(nx, hi - lo, per_row)
    supports, runs = chunks[0::2], chunks[1::2]
    assert len(supports) == len(runs) >= 1
    assert [c // per_row for _, c in runs[:-1]] == [rows] * (len(runs) - 1)
    assert [n for n, _ in runs] == [b - a for a, b in supports]
    assert all(n <= hi - lo for n, _ in runs)
    return rows


def kept(calls):
    """Nodes the weight keeps, and those each chunk ran on."""
    (lo, hi), *chunks = calls
    return hi - lo, [n for n, _ in chunks[1::2]]
