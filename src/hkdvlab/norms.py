"""Weighted and mixed space-time norms; cutoffs; window energies."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowExitsGrid
from .propagators import Trajectory
from .spectral import DECAY_GATE, RealField, derivative, frac_deriv, require_decay


def weighted_norm(f: RealField, r: float, gate: float | None = DECAY_GATE) -> float:
    """``|| |x|^r f ||_2`` by node quadrature.

    The weight grows toward the box edges, so the field must pass the decay
    gate (disable with ``gate=None``).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    require_decay(f, rel=gate, what="weighted_norm input")
    w = np.abs(f.grid.nodes) ** r
    return math.sqrt(f.grid.dx * float(np.sum((w * f.samples) ** 2)))


def _lebesgue(values: np.ndarray, weights: np.ndarray, p: float, axis: int) -> np.ndarray:
    if math.isinf(p):
        return np.max(np.abs(values), axis=axis)
    a = np.abs(values) ** p
    shape = [1, 1]
    shape[axis] = -1
    return (np.sum(a * weights.reshape(shape), axis=axis)) ** (1.0 / p)


def mixed_norm(traj: Trajectory, p: float, q: float, order: str = "x_outer_t_inner",
               js: float | None = None, da: float | None = None,
               dx_order: int = 0) -> float:
    """Mixed space-time Lebesgue norm over stored slices, with optional
    smoothing weights.

    ``order`` chooses the nesting: ``x_outer_t_inner`` is ``L^p_x L^q_T``,
    ``t_outer_x_inner`` is ``L^q_T L^p_x``.  ``js``/``da`` apply ``J^s``/
    ``D^a`` multipliers and ``dx_order`` an integer derivative, all before
    the norm.  Infinite exponents are discrete sups.  Time integrals use
    trapezoid weights on the stored times; space integrals use the exact
    periodic node quadrature.
    """
    if p < 1 or q < 1:
        raise ValueError("exponents must be >= 1 (inf allowed)")
    if order not in ("x_outer_t_inner", "t_outer_x_inner"):
        raise ValueError(f"unknown order {order!r}")
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    mats = []
    for f in traj.slices:
        if js is not None:
            f = frac_deriv(f, js, "inhomogeneous")
        if da is not None:
            f = frac_deriv(f, da)
        if dx_order:
            f = derivative(f, dx_order)
        mats.append(f.samples)
    mats = np.stack(mats)
    nt = len(traj)
    tw = np.zeros(nt)
    if nt == 1:
        tw[:] = 1.0
    else:
        dts = np.diff(traj.times)
        tw[:-1] += 0.5 * dts
        tw[1:] += 0.5 * dts
    xw = np.full(traj.grid.n, traj.grid.dx)
    if order == "x_outer_t_inner":
        inner = _lebesgue(mats, tw, q, axis=0)   # over time, per x
        outer = _lebesgue(inner[None, :], xw, p, axis=1)
    else:
        inner = _lebesgue(mats, xw, p, axis=1)   # over space, per t
        outer = _lebesgue(inner[None, :], tw, q, axis=1)
    return float(outer[0])


class CutoffFunction:
    """Smooth ramp from 0 to 1 supported on [eps, b], with b >= 5 eps: the
    normalized integral of the standard bump, rescaled to [eps, b].

    ``chi(x) = (1/Z) * integral of exp(-1/(s(1-s)))`` over the rescaled
    coordinate, tabulated by the trapezoid rule on ``_QUAD_POINTS`` nodes and
    interpolated.  Accepts scalar or array arguments.
    """

    _QUAD_POINTS = 20001

    def __init__(self, eps: float, b: float):
        if eps <= 0:
            raise ValueError("eps must be positive")
        if b < 5.0 * eps:
            raise ValueError(f"b must be >= 5*eps ({5.0 * eps}), got {b}")
        self._eps = eps
        self._h = b - eps
        s = np.linspace(0.0, 1.0, self._QUAD_POINTS)
        rho = np.zeros_like(s)
        inner = s[1:-1]
        rho[1:-1] = np.exp(-1.0 / (inner * (1.0 - inner)))
        cdf = np.concatenate(([0.0], np.cumsum((rho[1:] + rho[:-1]) * 0.5 * np.diff(s))))
        self._sgrid = s
        self._cdf = cdf / cdf[-1]

    def __call__(self, x):
        s = np.clip((np.asarray(x, dtype=float) - self._eps) / self._h, 0.0, 1.0)
        vals = np.interp(s, self._sgrid, self._cdf)
        return vals if vals.ndim else float(vals)


@dataclass(frozen=True)
class WindowSpec:
    """Moving half-line / band windows for propagation energies.

    Half-line lower limit ``x0 + eps - v t``; band upper limit
    ``x0 + R - v t``.  Derivative orders run 0..m for the half-line
    energies and ``m + j`` for the space-time band integral.
    """

    x0: float
    eps: float
    R: float
    v: float = 0.0
    m: int = 1

    def __post_init__(self):
        if self.eps <= 0 or self.R <= self.eps:
            raise ValueError("need 0 < eps < R")
        if self.v < 0:
            raise ValueError("v must be >= 0")


def _halfline_integral(g: np.ndarray, grid, a: float) -> float:
    """Integral of sampled ``g >= 0`` over [a, right edge], linear sub-cell fix;
    ``a`` lies between the first and the last node."""
    x = grid.nodes
    dx = grid.dx
    i0 = int(np.searchsorted(x, a, side="left"))
    # composite trapezoid from node i0 rightward (field decayed at right edge)
    total = dx * (0.5 * g[i0] + float(np.sum(g[i0 + 1:])))
    if i0 > 0 and x[i0] > a:
        # partial cell [a, x_{i0}] with linearly interpolated integrand
        frac = (x[i0] - a) / dx
        ga = g[i0 - 1] + (g[i0] - g[i0 - 1]) * (1.0 - frac)
        total += 0.5 * (ga + g[i0]) * (x[i0] - a)
    return float(total)


def _band_integral(g: np.ndarray, grid, a: float, b: float) -> float:
    return _halfline_integral(g, grid, a) - _halfline_integral(g, grid, b)


def window_energy(traj: Trajectory, w: WindowSpec):
    """Half-line energies at every stored time and the band space-time integral.

    Returns ``(table, spacetime)``.  ``table`` has shape ``(len(traj), m + 1)``
    and ``table[i, l]`` is the window integral of ``(d^l u)^2`` at the i-th
    stored time, so ``table.max(axis=0)`` are the sup-in-time energies and
    ``table[0]`` the initial ones.  ``spacetime`` integrates ``(d^(m+j) u)^2``
    over the moving band and [0, T], with ``j`` the trajectory's dispersion
    order.  Raises :class:`WindowExitsGrid` when the half-line edge or the
    band edge lies outside the nodes at a stored time.
    """
    j = traj.params.j
    grid = traj.grid
    x_lo, x_hi = grid.nodes[0], grid.nodes[-1]
    for t in traj.times:
        for edge in (w.x0 + w.eps - w.v * t, w.x0 + w.R - w.v * t):
            if edge < x_lo or edge > x_hi:
                raise WindowExitsGrid(f"window edge {edge:.3g} outside grid at t={t:.3g}")
    max_order = w.m + j
    if max_order > grid.n // 8:
        raise ValueError(f"derivative order {max_order} exceeds the n/8 margin")
    table = np.empty((len(traj), w.m + 1))
    band = np.empty(len(traj))
    for i, (t, s) in enumerate(zip(traj.times, traj.slices)):
        a = w.x0 + w.eps - w.v * t
        for ell in range(0, w.m + 1):
            table[i, ell] = _halfline_integral(derivative(s, ell).samples ** 2, grid, a)
        b = w.x0 + w.R - w.v * t
        band[i] = _band_integral(derivative(s, max_order).samples ** 2, grid, a, b)
    if len(traj) > 1:
        spacetime = float(np.trapezoid(band, traj.times))
    else:
        spacetime = 0.0
    return table, spacetime
