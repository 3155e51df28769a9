"""Weighted and mixed space-time norms; cutoffs; window energies."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowExitsGrid
from .propagators import Trajectory
from .spectral import RealField, derivative, frac_deriv, require_decay


def weighted_norm(f: RealField, r: float, gate: float | None = 1e-6) -> float:
    """``|| |x|^r f ||_2`` by node quadrature.

    The weight grows toward the box edges, so the field must pass the decay
    gate (disable with ``gate=None``).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if gate is not None:
        require_decay(f, rel=gate, what="weighted_norm input")
    w = np.abs(f.grid.nodes) ** r
    return math.sqrt(f.grid.dx * float(np.sum((w * f.samples) ** 2)))


@dataclass(frozen=True)
class MixedNormSpec:
    """Mixed space-time Lebesgue norm with optional smoothing weights.

    ``order`` chooses the nesting: ``x_outer_t_inner`` is ``L^p_x L^q_T``,
    ``t_outer_x_inner`` is ``L^q_T L^p_x``.  ``js``/``da`` apply ``J^s``/
    ``D^a`` multipliers and ``dx_order`` an integer derivative, all before
    the norm.  Infinite exponents are discrete sups.
    """

    p: float
    q: float
    order: str = "x_outer_t_inner"
    js: float | None = None
    da: float | None = None
    dx_order: int = 0

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("exponents must be >= 1 (inf allowed)")
        if self.order not in ("x_outer_t_inner", "t_outer_x_inner"):
            raise ValueError(f"unknown order {self.order!r}")


def _apply_smoothing(f: RealField, spec: MixedNormSpec) -> RealField:
    g = f
    if spec.js is not None:
        g = frac_deriv(g, spec.js, "inhomogeneous")
    if spec.da is not None:
        g = frac_deriv(g, spec.da)
    if spec.dx_order:
        g = derivative(g, spec.dx_order)
    return g


def _lebesgue(values: np.ndarray, weights: np.ndarray, p: float, axis: int) -> np.ndarray:
    if math.isinf(p):
        return np.max(np.abs(values), axis=axis)
    a = np.abs(values) ** p
    shape = [1, 1]
    shape[axis] = -1
    return (np.sum(a * weights.reshape(shape), axis=axis)) ** (1.0 / p)


def mixed_norm(traj: Trajectory, spec: MixedNormSpec) -> float:
    """Evaluate a mixed norm over stored slices.

    Time integrals use trapezoid weights on the stored times; space integrals
    use the exact periodic node quadrature.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    mats = np.stack([_apply_smoothing(s, spec).samples for s in traj.slices])
    nt = len(traj)
    tw = np.zeros(nt)
    if nt == 1:
        tw[:] = 1.0
    else:
        dts = np.diff(traj.times)
        tw[:-1] += 0.5 * dts
        tw[1:] += 0.5 * dts
    xw = np.full(traj.grid.n, traj.grid.dx)
    if spec.order == "x_outer_t_inner":
        inner = _lebesgue(mats, tw, spec.q, axis=0)   # over time, per x
        outer = _lebesgue(inner[None, :], xw, spec.p, axis=1)
    else:
        inner = _lebesgue(mats, xw, spec.p, axis=1)   # over space, per t
        outer = _lebesgue(inner[None, :], tw, spec.q, axis=1)
    return float(outer[0])


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth ramp from 0 to 1 supported on [eps, b], with b >= 5 eps."""

    eps: float
    b: float

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.b < 5.0 * self.eps:
            raise ValueError(f"b must be >= 5*eps ({5.0 * self.eps}), got {self.b}")


class CutoffFunction:
    """Normalized integral of the standard bump, rescaled to [eps, b].

    ``chi(x) = (1/Z) * integral of exp(-1/(s(1-s)))`` over the rescaled
    coordinate; derivatives up to order three are evaluated in closed form
    from the bump, never by differencing.  Values and derivatives accept
    scalar or array arguments.
    """

    _QUAD_POINTS = 20001

    def __init__(self, spec: CutoffSpec):
        self.spec = spec
        self._h = spec.b - spec.eps
        s = np.linspace(0.0, 1.0, self._QUAD_POINTS)
        rho = self._bump(s)
        cdf = np.concatenate(([0.0], np.cumsum((rho[1:] + rho[:-1]) * 0.5 * np.diff(s))))
        self._Z = float(cdf[-1])
        self._sgrid = s
        self._cdf = cdf / self._Z

    @staticmethod
    def _bump(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        inside = (s > 0.0) & (s < 1.0)
        g = 1.0 / (s[inside] * (1.0 - s[inside]))
        out[inside] = np.exp(-g)
        return out

    @staticmethod
    def _bump_d1(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        inside = (s > 0.0) & (s < 1.0)
        si = s[inside]
        p = si * (1.0 - si)
        gp = (2.0 * si - 1.0) / p ** 2
        out[inside] = -gp * np.exp(-1.0 / p)
        return out

    @staticmethod
    def _bump_d2(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        inside = (s > 0.0) & (s < 1.0)
        si = s[inside]
        p = si * (1.0 - si)
        gp = (2.0 * si - 1.0) / p ** 2
        gpp = 2.0 / p ** 2 + 2.0 * (2.0 * si - 1.0) ** 2 / p ** 3
        out[inside] = (gp * gp - gpp) * np.exp(-1.0 / p)
        return out

    def _to_unit(self, x):
        return (np.asarray(x, dtype=float) - self.spec.eps) / self._h

    def __call__(self, x):
        s = np.clip(self._to_unit(x), 0.0, 1.0)
        vals = np.interp(s, self._sgrid, self._cdf)
        return vals if vals.ndim else float(vals)

    def derivative(self, x, order: int = 1):
        s = self._to_unit(x)
        if order == 1:
            vals = self._bump(s) / (self._Z * self._h)
        elif order == 2:
            vals = self._bump_d1(s) / (self._Z * self._h ** 2)
        elif order == 3:
            vals = self._bump_d2(s) / (self._Z * self._h ** 3)
        else:
            raise ValueError("derivative orders 1..3 supported")
        return vals if np.ndim(vals) else float(vals)


def make_cutoff(spec: CutoffSpec) -> CutoffFunction:
    return CutoffFunction(spec)


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
    """Integral of sampled ``g >= 0`` over [a, right edge], linear sub-cell fix."""
    x = grid.nodes
    dx = grid.dx
    if a <= x[0]:
        i0 = 0
    else:
        i0 = int(np.searchsorted(x, a, side="left"))
    if i0 >= grid.n:
        return 0.0
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
    order.
    """
    j = traj.params.j
    grid = traj.grid
    x_lo, x_hi = grid.nodes[0], grid.nodes[-1]
    for t in traj.times:
        a = w.x0 + w.eps - w.v * t
        if a < x_lo or a > x_hi:
            raise WindowExitsGrid(f"window edge {a:.3g} outside grid at t={t:.3g}")
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
