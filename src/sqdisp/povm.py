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
D = pi / |Y|.  Every constructed seed carries normalization certificates
<eta_s| D_s |eta_s>, which equal 1 by construction up to quadrature error.
Each is an adaptive quadrature of eta itself (``grids.sector_integral``
through ``PovmSeed.evaluate_at``), so it checks the seed as built rather
than restating the identity pi |c_s|^2 w_s = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict

import numpy as np

from .errors import DivergenceDetected, DomainViolation, EmptySupport
from .grids import StateVector, abs_moment, half_line_moment, sector_integral

SECTOR_THRESHOLD = 1e-14

KIND_ML = "ml"
KIND_SRM = "srm"
KIND_PARITY = "ml-parity"

_SECTOR_LABELS = {+1: "+", -1: "-", 0: "full"}


def _multiplier(coeffs: Dict[int, complex], power: float, y: np.ndarray) -> np.ndarray:
    """sum_s coeffs[s] |y|^power theta(s y), with s = 0 the full line (the
    default of a sector without its own; y = 0, never a node, counts as -)."""
    full = coeffs.get(0, 0.0)
    return np.where(y > 0, coeffs.get(+1, full), coeffs.get(-1, full)) * np.abs(y) ** power


@dataclass(frozen=True)
class PovmSeed:
    """Covariant POVM seed vector |eta> with per-sector metadata.

    ``sector_coeffs`` maps sector sign (+1, -1, or 0 for the full line) to
    the coefficient multiplying |y|^weight_power theta(sector) psi(y); this
    lets the seed be re-evaluated exactly at arbitrary points when the
    source state has a Gaussian evaluator.
    """

    kind: str
    eta: StateVector
    source: StateVector
    w_plus: float
    w_minus: float
    sector_phases: Dict[int, complex]
    certificates: Dict[str, float]
    likelihood: float
    sector_coeffs: Dict[int, complex] = field(repr=False, default_factory=dict)
    weight_power: int = field(repr=False, default=1)

    @property
    def grid(self):
        """Grid of ``eta``, where quadratures of the seed start."""
        return self.eta.grid

    def multiplier(self, y: np.ndarray) -> np.ndarray:
        return _multiplier(self.sector_coeffs, self.weight_power, y)

    def evaluate_at(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return self.multiplier(y) * self.source.evaluate_at(y)

    def on_grid(self, grid) -> "PovmSeed":
        """Same seed resampled on another grid (exact for Gaussian sources)."""
        if grid == self.eta.grid:
            return self
        src = self.source.with_grid(grid)
        eta = StateVector(grid, self.multiplier(grid.nodes) * src.amplitudes)
        return replace(self, eta=eta, source=src)


def dmc_apply(psi: StateVector, sign: int, power: float) -> StateVector:
    """Apply D_sign^power = (pi/|Y|)^power theta(sign Y) at the node level.

    power = 0 gives the bare sector projection.  The result is generally not
    normalized; divergences surface only in downstream quadratures.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return StateVector(psi.grid, _multiplier({sign: math.pi ** power}, -power, psi.grid.nodes)
                       * psi.amplitudes)


def dmc_expectation(psi: StateVector, sign: int, power: float) -> float:
    """<psi| D_sign^power |psi>; raises DivergenceDetected when it blows up."""
    return math.pi ** power * half_line_moment(psi, sign, int(-power))


def _sector_phase(psi: StateVector, sign: int) -> complex:
    """Phase of the sector coefficient against a real positive reference.

    For real inputs the sign is absorbed into the sector state (positive
    decomposition), so the phase is +1.  Complex inputs get the phase of the
    |Y|-weighted sector integral.
    """
    if psi.is_real:
        return 1.0 + 0.0j
    y = psi.grid.nodes
    mask = sign * y > 0
    u = complex(np.sum(np.abs(y[mask]) * psi.amplitudes[mask]) * psi.grid.dy)
    if u == 0:
        return 1.0 + 0.0j
    return u / abs(u)


def _half_line_weights(psi: StateVector) -> Dict[int, float]:
    """w_s = <psi| |Y| theta(sY) |psi> for s = +1, -1."""
    return {s: half_line_moment(psi, s, 1) for s in (+1, -1)}


def _populated(values: Dict[int, float], message: str) -> Dict[int, float]:
    kept = {s: v for s, v in values.items() if v > SECTOR_THRESHOLD}
    if not kept:
        raise EmptySupport(message)
    return kept


def _ml_likelihood(kept: Dict[int, float]) -> float:
    return sum(math.sqrt(w) for w in kept.values()) ** 2 / math.pi


def _srm_sectors(psi: StateVector):
    """Populated sector masses m_s and <psi| D_s |psi> for the square-root
    measurement; DomainViolation when some <D_s> diverges."""
    masses = _populated({s: half_line_moment(psi, s, 0) for s in (+1, -1)},
                        "state has no sector mass")
    dvals = {}
    for s in masses:
        try:
            dvals[s] = math.pi * half_line_moment(psi, s, -1)
        except DivergenceDetected as exc:
            raise DomainViolation(
                "square-root measurement undefined: <D> diverges on sector "
                f"{_SECTOR_LABELS[s]}; the state is outside the domain of "
                f"D^(1/2) ({exc})") from exc
    return masses, dvals


def _srm_likelihood(masses: Dict[int, float], dvals: Dict[int, float]) -> float:
    return sum(m / math.sqrt(dvals[s]) for s, m in masses.items()) ** 2


def _make_seed(kind: str, psi: StateVector, weights: Dict[int, float],
               phases: Dict[int, complex], coeffs: Dict[int, complex],
               weight_power: int, likelihood: float) -> PovmSeed:
    """Seed eta = multiplier * psi with a certificate <eta_s| D_s |eta_s> per
    sector: the sector integral of pi |eta|^2 / |y|, refined like the weights."""
    eta = StateVector(psi.grid, _multiplier(coeffs, weight_power, psi.grid.nodes)
                      * psi.amplitudes)
    seed = PovmSeed(
        kind=kind,
        eta=eta,
        source=psi,
        w_plus=weights[+1],
        w_minus=weights[-1],
        sector_phases=phases,
        certificates={},
        likelihood=likelihood,
        sector_coeffs=coeffs,
        weight_power=weight_power,
    )
    return replace(seed, certificates={
        _SECTOR_LABELS[s]: math.pi * sector_integral(seed, seed, s, -1)[0][-1]
        for s in coeffs})


def build_ml_seed(psi: StateVector) -> PovmSeed:
    """Optimal maximum-likelihood seed eta = sum_s |Y| theta(sY) psi / sqrt(pi w_s)."""
    weights = _half_line_weights(psi)
    kept = _populated(weights, "both sector weights are below threshold")
    phases = {s: _sector_phase(psi, s) for s in kept}
    coeffs = {s: phases[s] / math.sqrt(math.pi * w) for s, w in kept.items()}
    return _make_seed(KIND_ML, psi, weights, phases, coeffs, 1, _ml_likelihood(kept))


def optimal_likelihood(psi: StateVector) -> float:
    """L_opt = (sqrt(w_+) + sqrt(w_-))^2 / pi."""
    return _ml_likelihood(
        _populated(_half_line_weights(psi), "both sector weights are below threshold"))


def build_srm_seed(psi: StateVector) -> PovmSeed:
    """Square-root-measurement seed: each sector divided by sqrt(<D_s>).

    Defined only when every populated sector lies in the domain of
    D_s^{1/2}; the grid-doubling growth test operationalizes that condition
    and a divergent <D_s> raises DomainViolation.
    """
    masses, dvals = _srm_sectors(psi)
    phases = {s: _sector_phase(psi, s) for s in masses}
    coeffs = {s: phases[s] / math.sqrt(dvals[s]) for s in masses}
    return _make_seed(KIND_SRM, psi, _half_line_weights(psi), phases, coeffs, 0,
                      _srm_likelihood(masses, dvals))


def srm_likelihood(psi: StateVector) -> float:
    """L_srm = (sum_s m_s / sqrt(<psi| D_s |psi>))^2 with m_s the sector mass."""
    return _srm_likelihood(*_srm_sectors(psi))


def build_parity_seed(psi: StateVector) -> PovmSeed:
    """Seed for the parity-extended group: eta = |Y| psi / sqrt(pi <|Y|>)."""
    t = abs_moment(psi, 1)
    if t <= SECTOR_THRESHOLD:
        raise EmptySupport("<|Y|> vanishes")
    phase = 1.0 + 0.0j if psi.is_real else _sector_phase(psi, +1)
    coeffs = {0: phase / math.sqrt(math.pi * t)}
    return _make_seed(KIND_PARITY, psi, _half_line_weights(psi), {0: phase}, coeffs, 1,
                      t / math.pi)


def seed_overlap_likelihood(seed: PovmSeed) -> float:
    """|<eta|psi>|^2 for the seed's source psi, recomputed by adaptive
    quadrature (consistency oracle)."""
    return abs(sector_integral(seed, seed.source, 0, 0)[0][-1]) ** 2
