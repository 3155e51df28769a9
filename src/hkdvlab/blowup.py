"""Singular profiles, focusing data, jump quotients, and tail gains.

The construction superposes back-propagated copies of the profile
``exp(-2 |x - c|^(j+1))``, which for even ``j`` has one derivative-jump
point.  Under the linear flow each copy refocuses exactly at its own rational
time (group law on the grid), recreating the jump at a predictable location,
while at generic irrational times every copy is a dispersed smooth wave.  A
second-difference quotient of the j-th derivative, over steps of 16, 8, 4
and 2 grid cells, witnesses the jump; spectral tail exponents quantify
smoothness gains of the nonlinear (Duhamel) part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import TailFitError
from .propagators import DispersionParams, Trajectory, _group
from .spectral import (Grid, RealField, _bin_weights, _irfft, _rfft, dealias_cutoff,
                       deriv_symbol, synthesize_at)

#: steps ``h`` of the jump quotient, in grid cells
_H_CELLS = (16, 8, 4, 2)
#: log bins of a tail fit
_TAIL_BINS = 10
#: the largest ``pmax * qmax``: a datum sums ``|pairs|^2`` n-point terms over
#: the coprime pairs ``p <= pmax``, ``q <= qmax``
_MAX_PAIR_BOX = 256


def singular_profile(grid: Grid, alpha: float, center: float) -> RealField:
    """Profile ``exp(-2 |x - center|^alpha)``.

    Smooth except at the center whenever ``alpha`` is not an even integer,
    where the ``ceil(alpha)``-th derivative jumps; for even integer ``alpha``
    the profile is analytic.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if abs(center) > 0.4 * grid.L:
        raise ValueError(f"center {center} outside the decay-safe region "
                         f"of a box of length {grid.L}")
    x = grid.nodes
    return RealField(grid, np.exp(-2.0 * np.abs(x - center) ** alpha))


def coprime_pairs(pmax: int, qmax: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(1, pmax + 1) for q in range(1, qmax + 1)
            if gcd(p, q) == 1]


@dataclass(frozen=True)
class BlowupDatumSpec:
    """Truncation and weighting of the focusing superposition.

    ``scheme="paper"`` uses ``exp(-exp(q1+q2)) * exp(-(p1^2+p2^2))`` (every
    nontrivial term then sits at 1e-5 or below); ``scheme="normalized"``
    keeps the polynomial part with an amplitude floor ``delta`` so each
    refocused jump stays numerically visible.
    """

    qmax: int = 2
    pmax: int = 2
    scheme: str = "normalized"
    delta: float = 0.15

    def __post_init__(self):
        if self.qmax < 1 or self.pmax < 1:
            raise ValueError("truncation bounds must be >= 1")
        if self.pmax * self.qmax > _MAX_PAIR_BOX:
            raise ValueError(f"pmax * qmax must be <= {_MAX_PAIR_BOX}, got "
                             f"{self.pmax} * {self.qmax}")
        if self.scheme not in ("paper", "normalized"):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def weight(self, p1: int, q1: int, p2: int, q2: int) -> float:
        poly = math.exp(-(p1 * p1 + p2 * p2))
        if self.scheme == "paper":
            return math.exp(-math.exp(q1 + q2)) * poly
        return max(poly, self.delta)


@dataclass(frozen=True)
class DatumTerm:
    p1: int
    q1: int
    p2: int
    q2: int
    weight: float

    @property
    def singular_time(self) -> float:
        return self.p2 / self.q2

    @property
    def singular_location(self) -> float:
        return self.p1 / self.q1


def build_blowup_datum(spec: BlowupDatumSpec, params: DispersionParams,
                       grid: Grid) -> tuple[RealField, list[DatumTerm]]:
    """Superpose back-propagated translated profiles; return field + manifest."""
    alpha = params.j + 1.0
    pairs = coprime_pairs(spec.pmax, spec.qmax)
    if not pairs:
        raise ValueError("empty truncation")
    back = {(p, q): _group(params, grid, -(p / q)) for p, q in pairs}
    prof = {(p, q): _rfft(singular_profile(grid, alpha, p / q).samples) for p, q in pairs}
    total = np.zeros(grid.n // 2 + 1, dtype=complex)
    manifest = []
    for (p2, q2) in pairs:
        for (p1, q1) in pairs:
            w = spec.weight(p1, q1, p2, q2)
            total += w * (back[p2, q2] * prof[p1, q1])
            manifest.append(DatumTerm(p1, q1, p2, q2, w))
    return RealField(grid, _irfft(total, grid.n)), manifest


def irrationality_gap(t: float, kmax: int) -> float:
    """Brute-force lower bound ``min |t - p/q| (p+q)^3`` over p,q <= kmax.

    The gap is ``0.0`` exactly when ``t`` is such a ``p/q``.
    """
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    best = math.inf
    for p, q in coprime_pairs(kmax, kmax):
        best = min(best, abs(t - p / q) * (p + q) ** 3)
        if best == 0.0:
            return 0.0
    return best


def tail_exponent(grid: Grid, coeffs: np.ndarray, xi_lo: float, xi_hi: float) -> float:
    """Decay exponent p of ``|coeffs| ~ |xi|^-p`` on ``xi_lo < |xi| < xi_hi``.

    Log-binned geometric means over the rfft bins are fitted to tame
    random-phase scatter; a bin counts when it holds two modes, and the range
    must hold two modes per bin.  Positive return means decay.  Raises
    :class:`TailFitError` when fewer than four populated bins or less than
    one octave are available.
    """
    xi = grid.xi
    if not xi_hi > 2.0 * xi_lo:
        raise TailFitError("need at least one octave between xi_lo and xi_hi")
    sel = (xi > xi_lo) & (xi < xi_hi)
    if np.count_nonzero(sel) < 2 * _TAIL_BINS:
        raise TailFitError("too few modes in the fit range")
    lx = np.log(xi[sel])
    ly = np.log(np.abs(coeffs[sel]) + 1e-300)
    edges = np.linspace(lx.min(), lx.max() * (1 + 1e-12), _TAIL_BINS + 1)
    # below xi = 1 the top edge shrinks under the top mode; keep it in the top bin
    idx = np.minimum(np.digitize(lx, edges) - 1, _TAIL_BINS - 1)
    bx, by = [], []
    for b in range(_TAIL_BINS):
        m = idx == b
        if np.count_nonzero(m) >= 2:
            bx.append(float(lx[m].mean()))
            by.append(float(ly[m].mean()))
    if len(bx) < 4:
        raise TailFitError("too few populated bins for a tail fit")
    slope = float(np.polyfit(bx, by, 1)[0])
    return -slope


def _quotient(grid: Grid, dh: np.ndarray, x_star: float, h_set) -> float:
    """Second-difference quotient at ``x_star`` of the field whose half
    spectrum is ``dh``, maximized over the steps ``h_set``."""
    pts = [x_star]
    for h in h_set:
        pts += [x_star - h, x_star + h]
    vals = synthesize_at(grid, dh, np.array(pts))
    return max(abs(vals[2 * i + 2] - 2.0 * vals[0] + vals[2 * i + 1]) / (2.0 * h)
               for i, h in enumerate(h_set))


def jump_quotients(params: DispersionParams, t: float, u0: RealField,
                   locations) -> list[float]:
    """Jump quotients of ``d^j W(t) u0`` at each of ``locations``.

    The quotient ``|d^j f(x*+h) - 2 d^j f(x*) + d^j f(x*-h)| / (2h)`` is
    maximized over steps of 16, 8, 4 and 2 grid cells by band-limited
    off-node evaluation.  A jump of size ``J`` in ``d^(j+1) f`` at ``x*``
    drives it to ``J`` as ``h -> 0``; for ``f`` smooth to order ``j + 2`` it
    vanishes linearly in ``h``.  The spectrum of ``d^j W(t) u0`` is built
    once for all locations.
    """
    grid = u0.grid
    dh = deriv_symbol(grid, params.j) * _group(params, grid, t) * _rfft(u0.samples)
    h_set = tuple(grid.dx * c for c in _H_CELLS)
    return [_quotient(grid, dh, x, h_set) for x in locations]


def _parseval(grid: Grid, c: np.ndarray) -> float:
    """Norm of the full spectrum whose half is ``c``."""
    return math.sqrt(float(np.einsum("q,q->", _bin_weights(grid.n), np.abs(c) ** 2)))


@dataclass
class SmoothingGainReport:
    gain: float | None
    tail_linear: float | None
    tail_duhamel: float | None
    drift: float


def smoothing_gain(traj: Trajectory, u0: RealField) -> SmoothingGainReport:
    """Tail-exponent gain of the Duhamel part over the linear evolution.

    Fits decay exponents of ``z(T)`` and ``W(T) u0`` over the top two octaves
    of the dealiased band; the predicted gain is the dispersion order ``j``.
    For ``(j, k) = (1, 2)`` the exactly resonant part of ``u^2 u_x`` is
    ``<u^2> u_x`` (the renormalized periodic mKdV), a rigid translation at
    the conserved mean of ``u^2`` that is not part of the smoothing
    statement; it is removed as ``drift = -T <u^2>``, taken on the stored
    (dealiased) initial slice, before the fit.  Returns a report with
    ``gain=None`` when the Duhamel part sits at the solver's noise floor
    (e.g. linear-limit amplitudes).
    """
    params = traj.params
    g = traj.grid
    T = float(traj.times[-1])
    wh = _group(params, g, T) * _rfft(u0.samples)
    uh = _rfft(traj.final().samples)
    if _parseval(g, uh - wh) < 1e-10 * max(_parseval(g, uh), 1e-300):
        return SmoothingGainReport(None, None, None, 0.0)
    drift = 0.0
    if (params.j, params.k) == (1, 2):
        drift = -T * float(np.mean(traj.slices[0].samples ** 2))
    zh = uh - np.exp(1j * drift * g.xi) * wh
    cut_xi = g.xi[dealias_cutoff(g.n, params.k)]
    tw = tail_exponent(g, wh, cut_xi / 4.0, cut_xi)
    tz = tail_exponent(g, zh, cut_xi / 4.0, cut_xi)
    return SmoothingGainReport(tz - tw, tw, tz, drift)
