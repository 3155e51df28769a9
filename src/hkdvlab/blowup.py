"""Singular profiles, focusing data, rational-time contrasts, and tail gains.

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
from scipy.fft import irfft, rfft

from .errors import TailFitError
from .propagators import DispersionParams, Trajectory, dispersion_phase
from .spectral import (Grid, RealField, SpectralField, _context, dealias_cutoff,
                       deriv_symbol, forward, synthesize_at)

#: steps ``h`` of the jump quotient, in grid cells
_H_CELLS = (16, 8, 4, 2)
#: range ``p, q <= _PROBE_KMAX`` of the irrational probe's gap certificate
_PROBE_KMAX = 50
#: log bins of a tail fit
_TAIL_BINS = 10


@dataclass(frozen=True)
class SingularProfileSpec:
    """Profile ``exp(-2 |x - center|^alpha)``.

    Smooth except at the center whenever ``alpha`` is not an even integer,
    where the ``ceil(alpha)``-th derivative jumps; for even integer ``alpha``
    the profile is analytic.
    """

    alpha: float
    center: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


def singular_profile(spec: SingularProfileSpec, grid: Grid) -> RealField:
    if abs(spec.center) > 0.4 * grid.L:
        raise ValueError(f"center {spec.center} outside the decay-safe region "
                         f"of a box of length {grid.L}")
    x = grid.nodes
    return RealField(grid, np.exp(-2.0 * np.abs(x - spec.center) ** spec.alpha))


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
    theta = dispersion_phase(params, grid)
    total = np.zeros(grid.n // 2 + 1, dtype=complex)
    manifest = []
    for (p2, q2) in pairs:
        for (p1, q1) in pairs:
            w = spec.weight(p1, q1, p2, q2)
            prof = singular_profile(
                SingularProfileSpec(alpha, center=p1 / q1), grid)
            term = np.exp(-1j * (p2 / q2) * theta) * rfft(prof.samples)
            total += w * term
            manifest.append(DatumTerm(p1, q1, p2, q2, w))
    return RealField(grid, irfft(total, grid.n)), manifest


@dataclass(frozen=True)
class GapCertificate:
    t: float
    kmax: int
    gap: float
    closest: tuple[int, int]
    rational_in_range: bool


def irrationality_gap(t: float, kmax: int) -> GapCertificate:
    """Brute-force lower bound ``min |t - p/q| (p+q)^3`` over p,q <= kmax."""
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    best, arg = math.inf, (0, 0)
    for q in range(1, kmax + 1):
        for p in range(1, kmax + 1):
            if gcd(p, q) != 1:
                continue
            val = abs(t - p / q) * (p + q) ** 3
            if val < best:
                best, arg = val, (p, q)
            if val == 0.0:
                return GapCertificate(t, kmax, 0.0, (p, q), True)
    return GapCertificate(t, kmax, best, arg, False)


def tail_exponent(F: SpectralField, xi_lo: float, xi_hi: float) -> float:
    """Decay exponent p of ``|coeff| ~ |xi|^-p`` on ``xi_lo < |xi| < xi_hi``.

    Log-binned geometric means over the rfft bins are fitted to tame
    random-phase scatter; a bin counts when it holds two modes, and the range
    must hold two modes per bin.  Positive return means decay.  Raises
    :class:`TailFitError` when fewer than four populated bins or less than
    one octave are available.
    """
    xi = _context(F.grid).xi
    if not xi_hi > 2.0 * xi_lo:
        raise TailFitError("need at least one octave between xi_lo and xi_hi")
    sel = (xi > xi_lo) & (xi < xi_hi)
    if np.count_nonzero(sel) < 2 * _TAIL_BINS:
        raise TailFitError("too few modes in the fit range")
    lx = np.log(xi[sel])
    ly = np.log(np.abs(F.coeffs[sel]) + 1e-300)
    edges = np.linspace(lx.min(), lx.max() * (1 + 1e-12), _TAIL_BINS + 1)
    idx = np.digitize(lx, edges) - 1
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


def _quotient(params: DispersionParams, u0h: np.ndarray, grid: Grid, t: float,
              x_star: float, h_set) -> float:
    """Second-difference quotient of ``d^j W(t)u0`` at ``x_star``.

    The quotient ``|d^j f(x*+h) - 2 d^j f(x*) + d^j f(x*-h)| / (2h)`` is
    maximized over ``h_set`` by band-limited off-node evaluation.  A jump of
    size ``J`` in ``d^(j+1) f`` at ``x*`` drives it to ``J`` as ``h -> 0``;
    for ``f`` smooth to order ``j + 2`` it vanishes linearly in ``h``.
    ``u0h`` holds the coefficients of ``forward(u0)``.
    """
    theta = dispersion_phase(params, grid)
    dF = SpectralField(grid, deriv_symbol(grid, params.j) * np.exp(1j * t * theta) * u0h)
    pts = [x_star]
    for h in h_set:
        pts += [x_star - h, x_star + h]
    vals = synthesize_at(dF, np.array(pts))
    return max(abs(vals[2 * i + 2] - 2.0 * vals[0] + vals[2 * i + 1]) / (2.0 * h)
               for i, h in enumerate(h_set))


@dataclass
class ContrastRecord:
    t_rational: float
    x_star: float
    quotient_rational: float
    quotient_irrational: float

    @property
    def contrast(self) -> float:
        return self.quotient_rational / self.quotient_irrational


def blowup_contrast(datum: tuple[RealField, list[DatumTerm]],
                    params: DispersionParams,
                    t_rational: float,
                    t_irrational: float = math.sqrt(2.0)) -> list[ContrastRecord]:
    """Jump-quotient contrast between a manifest time and an irrational probe.

    ``datum`` is the ``(u0, manifest)`` pair of :func:`build_blowup_datum`.
    It is evolved linearly to both times; at each singular location of
    ``t_rational`` the ratio of the second-difference quotients is reported.
    The irrational probe must carry a positive gap certificate.
    """
    cert = irrationality_gap(t_irrational, _PROBE_KMAX)
    if cert.rational_in_range:
        raise ValueError(f"probe time {t_irrational} is rational within kmax={_PROBE_KMAX}")
    u0, manifest = datum
    grid = u0.grid
    locations = sorted({t.singular_location for t in manifest
                        if abs(t.singular_time - t_rational) < 1e-12})
    if not locations:
        raise ValueError(f"t={t_rational} is not a singular time of the manifest")
    h_set = tuple(grid.dx * c for c in _H_CELLS)
    u0h = forward(u0).coeffs
    out = []
    for loc in locations:
        qr = _quotient(params, u0h, grid, t_rational, loc, h_set)
        qi = _quotient(params, u0h, grid, t_irrational, loc, h_set)
        out.append(ContrastRecord(t_rational, loc, qr, qi))
    return out


def excluded_time_ratio(datum: tuple[RealField, list[DatumTerm]],
                        params: DispersionParams, t_excluded: float,
                        t_irrational: float = math.sqrt(2.0)) -> float:
    """Geometric-mean quotient ratio at the manifest locations.

    ``datum`` is the ``(u0, manifest)`` pair of :func:`build_blowup_datum`.
    For rational times absent from the truncation every term is a dispersed
    smooth wave, so the quotient should match the irrational probe's to
    within a factor ~2; the geometric mean across the singular locations
    stabilizes the pointwise ripple ratio.
    """
    u0, manifest = datum
    grid = u0.grid
    if any(abs(trm.singular_time - t_excluded) < 1e-12 for trm in manifest):
        raise ValueError(f"t={t_excluded} is a manifest singular time")
    locations = sorted({trm.singular_location for trm in manifest})
    h_set = tuple(grid.dx * c for c in _H_CELLS)
    u0h = forward(u0).coeffs
    logs = []
    for loc in locations:
        qe = _quotient(params, u0h, grid, t_excluded, loc, h_set)
        qi = _quotient(params, u0h, grid, t_irrational, loc, h_set)
        logs.append(math.log(qe / qi))
    return math.exp(sum(logs) / len(logs))


def _parseval(grid: Grid, c: np.ndarray) -> float:
    """Norm of the full spectrum whose half is ``c``."""
    return math.sqrt(float(np.dot(_context(grid).weights, np.abs(c) ** 2)))


@dataclass
class SmoothingGainReport:
    gain: float | None
    tail_linear: float | None
    tail_duhamel: float | None
    drift: float
    reason: str = ""


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
    theta = dispersion_phase(params, g)
    wh = np.exp(1j * T * theta) * rfft(u0.samples)
    uh = rfft(traj.final().samples)
    if _parseval(g, uh - wh) < 1e-10 * max(_parseval(g, uh), 1e-300):
        return SmoothingGainReport(None, None, None, 0.0,
                                   "duhamel part at noise floor")
    drift = 0.0
    if (params.j, params.k) == (1, 2):
        drift = -T * float(np.mean(traj.slices[0].samples ** 2))
    zh = uh - np.exp(1j * drift * _context(g).xi) * wh
    cut_xi = 2 * math.pi * dealias_cutoff(g.n, params.k) / g.L
    tw = tail_exponent(SpectralField(g, wh), cut_xi / 4.0, cut_xi)
    tz = tail_exponent(SpectralField(g, zh), cut_xi / 4.0, cut_xi)
    return SmoothingGainReport(tz - tw, tw, tz, drift)
