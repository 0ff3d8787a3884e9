"""The affine group of real squeezing and displacement, acting on Y-representation states.

An element g = (x, r) realizes the affine map t -> e^r t + x.  The unitary
U_{x,r} = D(x) S(r) acts on Y-representation wavefunctions as

    (U_{x,r} psi)(y) = e^{r/2} e^{-2 i x y} psi(e^r y),

which is derived from the transformation rule of the Y eigenstates and is
validated against the group law by the homomorphism property tests.  The
composition convention matches affine-map composition:

    g1 * g2 = (x1 + e^{r1} x2, r1 + r2).

The group is nonunimodular: the left-invariant Haar measure is
e^{-r} dr dx while the right-invariant one is dr dx.  Conjugating a group
average by U_h rescales it by Delta(h)^{-1} = e^{r_h}, the inverse of the
ax+b modular function (Folland, A Course in Abstract Harmonic Analysis, 2.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GridTooNarrow
from .grids import (GaussianStateParams, QuadratureGrid, StateVector, default_grid,
                    phase_resolving_grid)

SAMPLED_ACTION_RMAX = 3.0


@dataclass(frozen=True)
class GroupElement:
    x: float
    r: float


@dataclass(frozen=True)
class ExtendedElement:
    """Affine element extended by a parity (reflection) bit."""

    eps: int
    g: GroupElement

    def __post_init__(self):
        if self.eps not in (0, 1):
            raise ValueError("parity flag must be 0 or 1")


IDENTITY = GroupElement(0.0, 0.0)


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    return GroupElement(g1.x + math.exp(g1.r) * g2.x, g1.r + g2.r)


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(-math.exp(-g.r) * g.x, -g.r)


def left_haar_weight(g: GroupElement) -> float:
    """Density of the left-invariant measure e^{-r} dr dx at g."""
    return math.exp(-g.r)


def right_haar_weight(g: GroupElement) -> float:
    """Density of the right-invariant measure dr dx at g."""
    return 1.0


def act(g: GroupElement, psi: StateVector,
        grid: Optional[QuadratureGrid] = None) -> StateVector:
    """Apply U_{x,r} = D(x) S(r) to a state.

    Gaussian states transform in closed form, (a, z, c) -> (e^{-r} a, z + r,
    e^r c + x), with no interpolation.  Sampled states are evaluated by cubic
    interpolation at the scaled nodes, with |r| capped per application.
    """
    p = psi.evaluator
    if p is not None:
        new = GaussianStateParams(
            center=math.exp(-g.r) * p.center,
            log_width=p.log_width + g.r,
            linear_phase=math.exp(g.r) * p.linear_phase + g.x,
        )
        if grid is None:
            y_max = default_grid(new.center, new.log_width).y_max
            grid = phase_resolving_grid(psi.grid, y_max, new.linear_phase)
        return StateVector.from_params(new, grid)

    if abs(g.r) > SAMPLED_ACTION_RMAX:
        raise GridTooNarrow(
            f"sampled-state action limited to |r| <= {SAMPLED_ACTION_RMAX} per "
            "application; compose smaller steps")
    if grid is None:
        y_max = psi.grid.y_max * max(1.0, math.exp(-g.r))
        grid = phase_resolving_grid(psi.grid, y_max, g.x)
    y = grid.nodes
    amps = math.exp(g.r / 2.0) * np.exp(-2.0j * g.x * y) * psi.evaluate_at(math.exp(g.r) * y)
    return StateVector(grid, amps)


def parity_act(psi: StateVector) -> StateVector:
    """Reflection psi(y) -> psi(-y); exact on the symmetric node set."""
    p = psi.evaluator
    if p is not None:
        new = GaussianStateParams(center=-p.center, log_width=p.log_width,
                                  linear_phase=-p.linear_phase)
        return StateVector.from_params(new, psi.grid)
    return StateVector(psi.grid, psi.amplitudes[::-1])


def act_extended(e: ExtendedElement, psi: StateVector,
                 grid: Optional[QuadratureGrid] = None) -> StateVector:
    """Apply P^eps D(x) S(r)."""
    out = act(e.g, psi, grid=grid)
    if e.eps:
        out = parity_act(out)
    return out
