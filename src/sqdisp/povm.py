"""Measurement seeds for covariant joint estimation of squeezing and displacement.

The representation splits into two irreducible sectors, wavefunctions
supported on y > 0 and y < 0, with sector projectors theta(+-Y) and
operators D_+- = pi theta(+-Y) / |Y| entering the nonunimodular
orthogonality relations.  For an input state psi with half-line weights

    w_s = <psi| |Y| theta(sY) |psi>,

the maximum-likelihood seed and its likelihood are

    eta = sum_s |Y| theta(sY) |psi> / sqrt(pi w_s),
    L_opt = (sqrt(w_+) + sqrt(w_-))^2 / pi,

the square-root-measurement seed divides each sector by
sqrt(<psi| D_s |psi>) instead (defined only when that expectation is
finite), and the parity-extended seed uses the full-line weight |Y| with
D = pi / |Y|.  Every sector coefficient is real and positive, for complex
inputs too: on each sector eta is a positive multiple of |Y|^p theta(sY) psi,
so <eta|psi> is a sum of positive sector moments and the ML seed attains
L_opt for every psi.  A seed's normalization certificates <eta_s| D_s |eta_s>,
which equal 1 by construction up to quadrature error, are derived on first
read like eta.  Each is an adaptive quadrature of eta itself
(``grids.sector_integral`` through ``PovmSeed.evaluate_at``), so it checks
the seed as built rather than restating the identity pi c_s^2 w_s = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

import numpy as np

from .errors import DivergenceDetected, DomainViolation, EmptySupport
from .grids import StateVector, half_line_moment, sector_integral

SECTOR_THRESHOLD = 1e-14

KIND_ML = "ml"
KIND_SRM = "srm"
KIND_PARITY = "ml-parity"

_SECTOR_LABELS = {+1: "+", -1: "-", 0: "full"}


@dataclass(frozen=True)
class PovmSeed:
    """Covariant POVM seed vector |eta> with per-sector metadata.

    ``sector_coeffs`` maps sector sign (+1, -1, or 0 for the full line) to
    the real coefficient multiplying |y|^weight_power theta(sector) psi(y);
    this lets the seed be re-evaluated exactly at arbitrary points when the
    source state has a Gaussian evaluator.
    """

    kind: str
    source: StateVector
    w_plus: float
    w_minus: float
    likelihood: float
    sector_coeffs: Dict[int, float] = field(repr=False)
    weight_power: int = field(repr=False)

    @functools.cached_property
    def eta(self) -> StateVector:
        """The seed on the source's grid, multiplier times source, derived on
        first use so that it always follows ``source``."""
        grid = self.source.grid
        return StateVector(grid, self.multiplier(grid.nodes) * self.source.amplitudes)

    @functools.cached_property
    def certificates(self) -> Dict[str, float]:
        """<eta_s| D_s |eta_s> per sector, the sector integral of
        pi |eta|^2 / |y| refined like the weights, derived on first read."""
        return {_SECTOR_LABELS[s]: math.pi * sector_integral(self, self, s, -1)[0][-1]
                for s in self.sector_coeffs}

    @property
    def grid(self):
        """Grid of ``eta``, where quadratures of the seed start."""
        return self.source.grid

    def multiplier(self, y: np.ndarray) -> np.ndarray:
        """sum_s c_s |y|^weight_power theta(s y), with s = 0 the full line (the
        default of a sector without its own; y = 0, never a node, counts as -)."""
        c = self.sector_coeffs
        full = c.get(0, 0.0)
        return np.where(y > 0, c.get(+1, full), c.get(-1, full)) * np.abs(y) ** self.weight_power

    def evaluate_at(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return self.multiplier(y) * self.source.evaluate_at(y)

    def on_grid(self, grid) -> "PovmSeed":
        """Same seed resampled on another grid (exact for Gaussian sources)."""
        if grid == self.grid:
            return self
        return replace(self, source=self.source.with_grid(grid))


def dmc_expectation(psi: StateVector, sign: int, power: float) -> float:
    """<psi| D_sign^power |psi>; raises DivergenceDetected when it blows up."""
    return math.pi ** power * half_line_moment(psi, sign, int(-power))


def _half_line_weights(psi: StateVector) -> Dict[int, float]:
    """w_s = <psi| |Y| theta(sY) |psi> for s = +1, -1."""
    return {s: half_line_moment(psi, s, 1) for s in (+1, -1)}


def _populated(values: Dict[int, float], message: str) -> Dict[int, float]:
    kept = {s: v for s, v in values.items() if v > SECTOR_THRESHOLD}
    if not kept:
        raise EmptySupport(message)
    return kept


def _ml(psi: StateVector) -> Tuple[Dict[int, float], Dict[int, float], float]:
    """Half-line weights w_s, coefficients 1/sqrt(pi w_s) of the populated
    sectors and L_opt = (sqrt(w_+) + sqrt(w_-))^2 / pi."""
    weights = _half_line_weights(psi)
    kept = _populated(weights, "both sector weights are below threshold")
    coeffs = {s: 1.0 / math.sqrt(math.pi * w) for s, w in kept.items()}
    return weights, coeffs, sum(math.sqrt(w) for w in kept.values()) ** 2 / math.pi


def _srm(psi: StateVector) -> Tuple[Dict[int, float], float]:
    """Coefficients 1/sqrt(<D_s>) of the populated sectors and
    L_srm = (sum_s m_s / sqrt(<D_s>))^2 with m_s the sector mass;
    DomainViolation when some <D_s> diverges."""
    masses = _populated({s: half_line_moment(psi, s, 0) for s in (+1, -1)},
                        "state has no sector mass")
    dvals = {}
    for s in masses:
        try:
            dvals[s] = dmc_expectation(psi, s, 1.0)
        except DivergenceDetected as exc:
            raise DomainViolation(
                "square-root measurement undefined: <D> diverges on sector "
                f"{_SECTOR_LABELS[s]}; the state is outside the domain of "
                f"D^(1/2) ({exc})") from exc
    coeffs = {s: 1.0 / math.sqrt(d) for s, d in dvals.items()}
    return coeffs, sum(m / math.sqrt(dvals[s]) for s, m in masses.items()) ** 2


def build_ml_seed(psi: StateVector) -> PovmSeed:
    """Optimal maximum-likelihood seed eta = sum_s |Y| theta(sY) psi / sqrt(pi w_s)."""
    weights, coeffs, likelihood = _ml(psi)
    return PovmSeed(KIND_ML, psi, weights[+1], weights[-1], likelihood, coeffs, 1)


def optimal_likelihood(psi: StateVector) -> float:
    """L_opt = (sqrt(w_+) + sqrt(w_-))^2 / pi."""
    return _ml(psi)[2]


def build_srm_seed(psi: StateVector) -> PovmSeed:
    """Square-root-measurement seed: each sector divided by sqrt(<D_s>).

    Defined only when every populated sector lies in the domain of
    D_s^{1/2}; the grid-doubling growth test operationalizes that condition
    and a divergent <D_s> raises DomainViolation.
    """
    coeffs, likelihood = _srm(psi)
    weights = _half_line_weights(psi)
    return PovmSeed(KIND_SRM, psi, weights[+1], weights[-1], likelihood, coeffs, 0)


def srm_likelihood(psi: StateVector) -> float:
    """L_srm = (sum_s m_s / sqrt(<psi| D_s |psi>))^2 with m_s the sector mass."""
    return _srm(psi)[1]


def build_parity_seed(psi: StateVector) -> PovmSeed:
    """Seed for the parity-extended group: eta = |Y| psi / sqrt(pi <|Y|>)."""
    weights = _half_line_weights(psi)
    t = weights[+1] + weights[-1]  # <|Y|>: the two half lines hold every node
    if t <= SECTOR_THRESHOLD:
        raise EmptySupport("<|Y|> vanishes")
    return PovmSeed(KIND_PARITY, psi, weights[+1], weights[-1], t / math.pi,
                    {0: 1.0 / math.sqrt(math.pi * t)}, 1)


def seed_overlap_likelihood(seed: PovmSeed) -> float:
    """|<eta|psi>|^2 for the seed's source psi, recomputed by adaptive
    quadrature (consistency oracle)."""
    return abs(sector_integral(seed, seed.source, 0, 0)[0][-1]) ** 2
