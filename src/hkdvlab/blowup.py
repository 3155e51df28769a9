"""Singular profiles, focusing data, rational-time probes, and tail gains.

The construction superposes back-propagated copies of a profile with one
derivative-jump point.  Under the linear flow each copy refocuses exactly at
its own rational time (group law on the grid), recreating the jump at a
predictable location, while at generic irrational times every copy is a
dispersed smooth wave.  A second-difference quotient of the j-th derivative
witnesses the jump; spectral tail exponents quantify smoothness gains of the
nonlinear (Duhamel) part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import TailFitError
from .propagators import DispersionParams, Trajectory, dispersion_phase
from .spectral import (Grid, RealField, SpectralField, dealias_cutoff, forward,
                       synthesize_at)


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

    @property
    def holder_failure_order(self) -> int | None:
        """Order of the first derivative jump, or None when analytic."""
        a = self.alpha
        if a == int(a) and int(a) % 2 == 0:
            return None
        return math.ceil(a)

    @property
    def jump_magnitude(self) -> float | None:
        """|coefficient| of the sign-type jump for integer odd alpha."""
        a = self.alpha
        if a == int(a) and int(a) % 2 == 1:
            return 2.0 * math.factorial(int(a))
        return None


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
    profile_alpha: float | None = None    # default j+1

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
    alpha = spec.profile_alpha if spec.profile_alpha is not None else params.j + 1.0
    pairs = coprime_pairs(spec.pmax, spec.qmax)
    if not pairs:
        raise ValueError("empty truncation")
    theta = dispersion_phase(params, grid)
    total = np.zeros(grid.n, dtype=complex)
    manifest = []
    for (p2, q2) in pairs:
        for (p1, q1) in pairs:
            w = spec.weight(p1, q1, p2, q2)
            prof = singular_profile(
                SingularProfileSpec(alpha, center=p1 / q1), grid)
            term = np.exp(-1j * (p2 / q2) * theta) * np.fft.fft(prof.samples)
            total += w * term
            manifest.append(DatumTerm(p1, q1, p2, q2, w))
    return RealField(grid, np.fft.ifft(total).real), manifest


@dataclass(frozen=True)
class TimeProbe:
    """Rational refocusing times plus algebraic irrational controls."""

    rationals: tuple[Fraction, ...]
    irrationals: tuple[float, ...] = (math.sqrt(2.0), (1 + math.sqrt(5.0)) / 2, math.sqrt(3.0))
    gap_exponent: int = 3

    def __post_init__(self):
        for r in self.rationals:
            if r.denominator < 1 or r != Fraction(r.numerator, r.denominator):
                raise ValueError("rationals must be in lowest terms")


@dataclass(frozen=True)
class GapCertificate:
    t: float
    kmax: int
    gap: float
    closest: tuple[int, int]
    rational_in_range: bool


def irrationality_gap(t: float, kmax: int, exponent: int = 3) -> GapCertificate:
    """Brute-force lower bound ``min |t - p/q| (p+q)^exponent`` over p,q <= kmax."""
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    best, arg = math.inf, (0, 0)
    for q in range(1, kmax + 1):
        for p in range(1, kmax + 1):
            if gcd(p, q) != 1:
                continue
            val = abs(t - p / q) * (p + q) ** exponent
            if val < best:
                best, arg = val, (p, q)
            if val == 0.0:
                return GapCertificate(t, kmax, 0.0, (p, q), True)
    return GapCertificate(t, kmax, best, arg, False)


def tail_exponent(F: SpectralField, xi_lo: float | None = None,
                  xi_hi: float | None = None, nbins: int = 10) -> float:
    """Decay exponent p of ``|coeff| ~ |xi|^-p`` over the top two octaves.

    Log-binned geometric means are fitted to tame random-phase scatter.
    Positive return means decay.  Raises :class:`TailFitError` when fewer
    than four populated bins or less than two octaves are available.
    """
    xi = np.abs(F.grid.frequencies)
    if xi_hi is None:
        xi_hi = float(xi.max())
    if xi_lo is None:
        xi_lo = xi_hi / 4.0
    if not xi_hi > 2.0 * xi_lo:
        raise TailFitError("need at least one octave between xi_lo and xi_hi")
    sel = (xi > xi_lo) & (xi < xi_hi)
    if np.count_nonzero(sel) < 4 * nbins:
        raise TailFitError("too few modes in the fit range")
    lx = np.log(xi[sel])
    ly = np.log(np.abs(F.coeffs[sel]) + 1e-300)
    edges = np.linspace(lx.min(), lx.max() * (1 + 1e-12), nbins + 1)
    idx = np.digitize(lx, edges) - 1
    bx, by = [], []
    for b in range(nbins):
        m = idx == b
        if np.count_nonzero(m) >= 3:
            bx.append(float(lx[m].mean()))
            by.append(float(ly[m].mean()))
    if len(bx) < 4:
        raise TailFitError("too few populated bins for a tail fit")
    slope = float(np.polyfit(bx, by, 1)[0])
    return -slope


def singularity_indicator(f: RealField, order: int, x_star: float,
                          h_set=None) -> tuple[float, float]:
    """Jump witness and spectral tail exponent at a candidate point.

    The witness is the largest second-symmetric-difference quotient

        |d^m f(x*+h) - 2 d^m f(x*) + d^m f(x*-h)| / (2h)

    over dyadic steps ``h`` (band-limited off-node evaluation).  A jump of
    size ``J`` in ``d^(m+1)`` at ``x*`` drives the quotient to ``J`` as
    ``h -> 0``, while for fields smooth to order ``m + 2`` it vanishes
    linearly in ``h``.  Returns ``(quotient, tail_exponent)``.
    """
    g = f.grid
    if not g.nodes[0] <= x_star <= g.nodes[-1]:
        raise ValueError(f"x*={x_star} outside the grid")
    if order + 1 > g.n // 8:
        raise ValueError("requested order unresolvable at this band limit")
    if h_set is None:
        h_set = tuple(g.dx * c for c in (16, 8, 4, 2))
    xi = g.frequencies.copy()
    if order % 2 == 1:
        xi[g.nyquist_slot] = 0.0
    dF = SpectralField(g, (1j * xi) ** order * forward(f).coeffs)
    best = 0.0
    for h in h_set:
        vals = synthesize_at(dF, np.array([x_star - h, x_star, x_star + h]))
        q = abs(vals[2] - 2.0 * vals[1] + vals[0]) / (2.0 * h)
        best = max(best, q)
    return best, tail_exponent(forward(f))


def _quotient(params: DispersionParams, u0h: np.ndarray, grid: Grid, t: float,
              order: int, x_star: float, h_set, halfwidth: float,
              n_offsets: int) -> float:
    """Second-difference quotient of d^order W(t)u0, optionally window-sup.

    ``u0h`` holds raw FFT coefficients; they are rescaled to the package
    coefficient convention before off-node synthesis.
    """
    theta = dispersion_phase(params, grid)
    xi = grid.frequencies.copy()
    if order % 2 == 1:
        xi[grid.nyquist_slot] = 0.0
    pkg = grid.dx * grid.phase_signs() * u0h
    dF = SpectralField(grid, (1j * xi) ** order * np.exp(1j * t * theta) * pkg)
    offsets = (np.linspace(-halfwidth, halfwidth, n_offsets)
               if halfwidth > 0 else np.array([0.0]))
    best = 0.0
    for off in offsets:
        pts = [x_star + off]
        for h in h_set:
            pts += [x_star + off - h, x_star + off + h]
        vals = synthesize_at(dF, np.array(pts))
        center = vals[0]
        for i, h in enumerate(h_set):
            q = abs(vals[2 * i + 2] - 2.0 * center + vals[2 * i + 1]) / (2.0 * h)
            best = max(best, q)
    return best


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
                    t_rational: float, t_irrational: float = math.sqrt(2.0),
                    x_star: float | None = None, h_set=None,
                    probe_halfwidth: float = 0.0, n_offsets: int = 9,
                    kmax: int = 50) -> list[ContrastRecord]:
    """Jump-quotient contrast between a manifest time and an irrational probe.

    ``datum`` is the ``(u0, manifest)`` pair of :func:`build_blowup_datum`.
    It is evolved linearly to both times; at each singular location of
    ``t_rational`` (or at ``x_star`` only, when given) the ratio of the
    second-difference quotients is reported.  ``probe_halfwidth > 0`` takes a
    local sup over a window of offsets, stabilizing background comparisons.
    The irrational probe must carry a positive gap certificate.
    """
    cert = irrationality_gap(t_irrational, kmax)
    if cert.rational_in_range:
        raise ValueError(f"probe time {t_irrational} is rational within kmax={kmax}")
    u0, manifest = datum
    grid = u0.grid
    locations = sorted({t.singular_location for t in manifest
                        if abs(t.singular_time - t_rational) < 1e-12})
    if not locations:
        raise ValueError(f"t={t_rational} is not a singular time of the manifest")
    if x_star is not None:
        locations = [x_star]
    if h_set is None:
        h_set = tuple(grid.dx * c for c in (16, 8, 4, 2))
    u0h = np.fft.fft(u0.samples)
    out = []
    for loc in locations:
        qr = _quotient(params, u0h, grid, t_rational, params.j, loc, h_set,
                       probe_halfwidth, n_offsets)
        qi = _quotient(params, u0h, grid, t_irrational, params.j, loc, h_set,
                       probe_halfwidth, n_offsets)
        out.append(ContrastRecord(t_rational, loc, qr, qi))
    return out


def excluded_time_ratio(datum: tuple[RealField, list[DatumTerm]],
                        params: DispersionParams, t_excluded: float,
                        t_irrational: float = math.sqrt(2.0),
                        h_set=None) -> float:
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
    if h_set is None:
        h_set = tuple(grid.dx * c for c in (16, 8, 4, 2))
    u0h = np.fft.fft(u0.samples)
    logs = []
    for loc in locations:
        qe = _quotient(params, u0h, grid, t_excluded, params.j, loc, h_set, 0.0, 1)
        qi = _quotient(params, u0h, grid, t_irrational, params.j, loc, h_set, 0.0, 1)
        logs.append(math.log(qe / qi))
    return math.exp(sum(logs) / len(logs))


@dataclass
class SmoothingGainReport:
    gain: float | None
    tail_linear: float | None
    tail_duhamel: float | None
    drift: float
    reason: str = ""


def smoothing_gain(traj: Trajectory, u0: RealField,
                   params: DispersionParams | None = None,
                   remove_drift: bool | None = None) -> SmoothingGainReport:
    """Tail-exponent gain of the Duhamel part over the linear evolution.

    Fits decay exponents of ``z(T)`` and ``W(T) u0`` over the top two octaves
    of the dealiased band; the predicted gain is the dispersion order ``j``.
    For ``k >= 2`` the exactly resonant mode pairs generate a secular rigid
    translation (velocity tied to the conserved L2 mass) that is not part of
    the smoothing statement; ``remove_drift`` (default: ``k >= 2``) estimates
    that translation by a grid search and removes it before the fit.  Returns
    a report with ``gain=None`` when the Duhamel part sits at the solver's
    noise floor (e.g. linear-limit amplitudes).
    """
    params = params or traj.params
    if params is None:
        raise ValueError("dispersion parameters unavailable")
    if remove_drift is None:
        remove_drift = params.k >= 2
    g = traj.grid
    T = float(traj.times[-1])
    theta = dispersion_phase(params, g)
    u0h = np.fft.fft(u0.samples)
    wh = np.exp(1j * T * theta) * u0h
    uh = np.fft.fft(traj.final().samples)
    znorm = float(np.linalg.norm(uh - wh))
    unorm = float(np.linalg.norm(uh))
    if znorm < 1e-10 * max(unorm, 1e-300):
        return SmoothingGainReport(None, None, None, 0.0,
                                   "duhamel part at noise floor")
    drift = 0.0
    if remove_drift:
        cut_xi = 2 * math.pi * dealias_cutoff(g.n, params.k) / g.L
        sel = (np.abs(g.freq_index) >= 1) & (np.abs(g.frequencies) < cut_xi / 3.0)
        xs, ws, us = g.frequencies[sel], wh[sel], uh[sel]
        cands = np.linspace(-0.25, 0.25, 2001)
        res = np.array([np.sum(np.abs(us - np.exp(1j * c * xs) * ws) ** 2)
                        for c in cands])
        i0 = int(np.argmin(res))
        drift = float(cands[i0])
        if 0 < i0 < cands.size - 1:
            y0, y1, y2 = res[i0 - 1], res[i0], res[i0 + 1]
            denom = y0 - 2 * y1 + y2
            if denom > 0:
                drift += 0.5 * float((y0 - y2) / denom) * (cands[1] - cands[0])
    zh = uh - np.exp(1j * drift * g.frequencies) * wh
    cut_xi = 2 * math.pi * dealias_cutoff(g.n, params.k) / g.L
    sign_fix = g.phase_signs() * g.dx
    tw = tail_exponent(SpectralField(g, sign_fix * wh), cut_xi / 4.0, cut_xi)
    tz = tail_exponent(SpectralField(g, sign_fix * zh), cut_xi / 4.0, cut_xi)
    return SmoothingGainReport(tz - tw, tw, tz, drift)
