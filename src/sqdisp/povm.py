"""Measurement seeds for covariant joint estimation of squeezing and displacement.

The representation splits into two irreducible sectors, wavefunctions
supported on y > 0 and y < 0, with sector projectors theta(+-Y) and
operators D_+- = pi theta(+-Y) / |Y| entering the nonunimodular
orthogonality relations.  Every seed of an input state psi follows one
rule.  With <A>_s = <psi| A theta_s |psi> on a sector s,

    eta = sum_s c_s |Y|^p theta_s psi,    c_s = 1 / sqrt(pi <|Y|^(2p-1)>_s),

so <eta_s| D_s |eta_s> = 1, and L = |<eta|psi>|^2 = (sum_s c_s <|Y|^p>_s)^2.
The kinds differ only in the weight power p and in the sectors (``_RULES``):

    kind        p   sectors   c_s                L
    ml          1   +, -      1/sqrt(pi w_s)     (sqrt(w_+) + sqrt(w_-))^2 / pi
    srm         0   +, -      1/sqrt(<D_s>)      (sum_s m_s / sqrt(<D_s>))^2
    ml-parity   1   full      1/sqrt(pi <|Y|>)   <|Y|> / pi

with w_s = <|Y|>_s, m_s = <1>_s and the full line (sector 0) both half
lines, so <|Y|> = w_+ + w_-.  A sector with <|Y|^p>_s <= SECTOR_THRESHOLD
is left out; the square-root measurement is defined only when each kept
<D_s> is finite.  Every c_s is real and positive, for complex inputs too,
so the ML seed attains L_opt for every psi.  The normalization certificates
<eta_s| D_s |eta_s> are derived on first read like eta, each a sector
integral of eta itself (``grids.sector_integral`` through
``PovmSeed.evaluate_at``): they check the seed as built rather than
restating pi c_s^2 <|Y|^(2p-1)>_s = 1.
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

# kind: (weight power p, sectors), sector 0 the full line
_RULES = {KIND_ML: (1, (+1, -1)), KIND_SRM: (0, (+1, -1)), KIND_PARITY: (1, (0,))}
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

    @property
    def weight_power(self) -> int:
        """p of the seed's kind: 1 for ML and parity seeds, 0 for SRM seeds."""
        return _RULES[self.kind][0]

    @functools.cached_property
    def eta(self) -> StateVector:
        """The seed on the source's grid, multiplier times source, derived on
        first use so that it always follows ``source``."""
        grid = self.source.grid
        return StateVector(grid, self.multiplier(grid.nodes) * self.source.amplitudes)

    @functools.cached_property
    def certificates(self) -> Dict[str, float]:
        """<eta_s| D_s |eta_s> per sector, the sector integral of
        pi |eta|^2 / |y| taken like the weights, derived on first read."""
        return {_SECTOR_LABELS[s]: math.pi * sector_integral(self, self, s, -1)[0]
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


def _rule(psi: StateVector, kind: str) -> Tuple[Dict[int, float], Dict[int, float], float]:
    """Half-line moments <|Y|^p>_+-, coefficients c_s of the kept sectors and
    L of a ``kind`` seed of psi (module docstring); DomainViolation when some
    <|Y|^(2p-1)>_s diverges."""
    power, sectors = _RULES[kind]
    half = {s: half_line_moment(psi, s, power) for s in (+1, -1)}
    moments = {s: half[s] if s else half[+1] + half[-1] for s in sectors}
    kept = {s: m for s, m in moments.items() if m > SECTOR_THRESHOLD}
    if not kept:
        raise EmptySupport(f"<|Y|^{power}> is below threshold on every {kind} sector")
    coeffs, overlap = {}, 0.0
    # lightest sector first: a psi(0) != 0 divergence of <D_s> is largest there relative to
    # its value, so that sector's verdict refuses soonest
    for s, m in sorted(kept.items(), key=lambda item: item[1]):
        norm = m
        if 2 * power - 1 != power:
            try:
                norm = half_line_moment(psi, s, 2 * power - 1)
            except DivergenceDetected as exc:
                raise DomainViolation(
                    "square-root measurement undefined: <D> diverges on sector "
                    f"{_SECTOR_LABELS[s]}; the state is outside the domain of "
                    f"D^(1/2) ({exc})") from exc
        root = math.sqrt(math.pi * norm)
        coeffs[s] = 1.0 / root
        overlap += m / root
    return half, coeffs, overlap ** 2


def _seed(psi: StateVector, kind: str) -> PovmSeed:
    """A ``kind`` seed of psi; its w_+- are the rule's half-line moments if p = 1."""
    half, coeffs, likelihood = _rule(psi, kind)
    w = half if _RULES[kind][0] == 1 else {s: half_line_moment(psi, s, 1) for s in (+1, -1)}
    return PovmSeed(kind, psi, w[+1], w[-1], likelihood, coeffs)


def build_ml_seed(psi: StateVector) -> PovmSeed:
    """Optimal maximum-likelihood seed eta = sum_s |Y| theta(sY) psi / sqrt(pi w_s)."""
    return _seed(psi, KIND_ML)


def optimal_likelihood(psi: StateVector) -> float:
    """L_opt = (sqrt(w_+) + sqrt(w_-))^2 / pi."""
    return _rule(psi, KIND_ML)[2]


def build_srm_seed(psi: StateVector) -> PovmSeed:
    """Square-root-measurement seed, each sector divided by sqrt(<D_s>);
    DomainViolation when the log-divergence verdict finds a kept <D_s> divergent."""
    return _seed(psi, KIND_SRM)


def srm_likelihood(psi: StateVector) -> float:
    """L_srm = (sum_s m_s / sqrt(<psi| D_s |psi>))^2 with m_s the sector mass."""
    return _rule(psi, KIND_SRM)[2]


def build_parity_seed(psi: StateVector) -> PovmSeed:
    """Seed for the parity-extended group: eta = |Y| psi / sqrt(pi <|Y|>)."""
    return _seed(psi, KIND_PARITY)


def seed_overlap_likelihood(seed: PovmSeed) -> float:
    """|<eta|psi>|^2 for the seed's source psi, recomputed as a sector integral
    (consistency oracle)."""
    return abs(sector_integral(seed, seed.source, 0, 0)[0]) ** 2
