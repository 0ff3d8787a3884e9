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

from .errors import ConfigError, GridTooNarrow
from .grids import (GaussianStateParams, QuadratureGrid, StateVector, _check_log_range,
                    _check_phase, default_grid, phase_dy, resolving_grid)

SAMPLED_ACTION_RMAX = 3.0


@dataclass(frozen=True)
class GroupElement:
    x: float
    r: float


IDENTITY = GroupElement(0.0, 0.0)


def _check_element(g: GroupElement) -> None:
    """ConfigError for a non-finite x or |r| > ln MAX_NODES, the r a scan window may
    hold: what ``act``, ``density_at`` and ``pointer_overlap`` check before U_g."""
    if not math.isfinite(g.x):
        raise ConfigError(f"x must be finite, got {g.x}")
    _check_log_range(r=g.r)


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    return GroupElement(g1.x + math.exp(g1.r) * g2.x, g1.r + g2.r)


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(-math.exp(-g.r) * g.x, -g.r)


def _act_on_nodes(g: GroupElement, grid: QuadratureGrid, f) -> np.ndarray:
    """(U_g f)(y) = e^{r/2} e^{-2ixy} f(e^r y) at the grid's nodes y, f called once on all e^r y;
    GridTooNarrow (``_check_phase``) first for |x| past pi/(2 dy), where the phase aliases."""
    _check_phase(g.x, grid.dy)
    y = grid.nodes
    return math.exp(g.r / 2.0) * np.exp(-2.0j * g.x * y) * f(math.exp(g.r) * y)


def act(g: GroupElement, psi: StateVector,
        grid: Optional[QuadratureGrid] = None) -> StateVector:
    """Apply U_{x,r} = D(x) S(r) to a state.

    Gaussian states transform in closed form, (a, z, c) -> (e^{-r} a, z + r, e^r c + x), with
    no interpolation, on a grid with dy at most psi's, the new |psi|^2 std 0.5 e^{-(z + r)} and
    ``phase_dy`` of the new phase (GridTooNarrow past the node cap, as ``default_grid``).
    Sampled states are evaluated by cubic interpolation at the scaled nodes (``_act_on_nodes``),
    with |r| capped per application.  ConfigError first for a g that ``_check_element``
    refuses, GridTooNarrow (``_check_phase``) for a given grid on which the new phase aliases.
    """
    _check_element(g)
    p = psi.evaluator
    if p is not None:
        new = GaussianStateParams(
            center=math.exp(-g.r) * p.center,
            log_width=p.log_width + g.r,
            linear_phase=math.exp(g.r) * p.linear_phase + g.x,
        )
        if grid is None:
            target = default_grid(new.center, new.log_width)
            grid = resolving_grid(psi.grid, target.y_max,
                                  min(target.dy, phase_dy(new.linear_phase)))
        _check_phase(new.linear_phase, grid.dy)
        return StateVector.from_params(new, grid)

    if abs(g.r) > SAMPLED_ACTION_RMAX:
        raise GridTooNarrow(
            f"sampled-state action limited to |r| <= {SAMPLED_ACTION_RMAX} per "
            "application; compose smaller steps")
    if grid is None:
        y_max = psi.grid.y_max * max(1.0, math.exp(-g.r))
        grid = resolving_grid(psi.grid, y_max, phase_dy(g.x))
    return StateVector(grid, _act_on_nodes(g, grid, psi.evaluate_at))


def parity_act(psi: StateVector) -> StateVector:
    """Reflection psi(y) -> psi(-y); exact on the symmetric node set."""
    p = psi.evaluator
    if p is not None:
        new = GaussianStateParams(center=-p.center, log_width=p.log_width,
                                  linear_phase=-p.linear_phase)
        return StateVector.from_params(new, psi.grid)
    return StateVector(psi.grid, psi.amplitudes[::-1])
