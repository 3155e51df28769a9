"""Exact algebraic identities and the dispersive-decay probe.

The reduction-coefficient system is solved in exact rational arithmetic; the
weight/commutator identity is evaluated spectrally; the time decay of the
kernel of ``|xi|^((2j-1)/2)`` under the linear group is fitted from its sup
on the Airy window, one envelope width at a time.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import KernelWindowError
from .fields import weighted
from .propagators import DispersionParams, _group, _phase
from .spectral import (DECAY_GATE, RealField, _irfft, _rfft, band_limit_check, deriv_symbol,
                       derivative, require_decay)

MAX_COEFF_ORDER = 32


@dataclass(frozen=True)
class CoefficientVector:
    """Rational coefficients turning ``u^(2j+1) u`` into perfect derivatives."""

    j: int
    c: tuple[Fraction, ...]

    def as_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.c])


def solve_coefficients(j: int) -> CoefficientVector:
    """Back-substitute the triangular binomial system.

    Row ``m`` (for m = j-1 down to 0) reads
    ``sum_{l=m}^{j} c_l * binom(2l+1, l-m) = 0`` with ``c_j = 1``; the
    diagonal entry ``binom(2m+1, 0) = 1`` makes the system triangular.
    The solution satisfies ``c_0 != 0``.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if j > MAX_COEFF_ORDER:
        raise ValueError(f"j > {MAX_COEFF_ORDER} not supported")
    c: list[Fraction | None] = [None] * j + [Fraction(1)]
    for m in range(j - 1, -1, -1):
        acc = Fraction(0)
        for ell in range(m + 1, j + 1):
            acc += c[ell] * math.comb(2 * ell + 1, ell - m)
        c[m] = -acc
    vec = CoefficientVector(j, tuple(c))
    for m in range(j):
        row = sum(vec.c[ell] * math.comb(2 * ell + 1, ell - m)
                  for ell in range(m, j + 1))
        assert row == 0, f"row {m} not satisfied"
    assert vec.c[0] != 0, "leading coefficient vanished"
    return vec


def verify_reduction_identity(j: int, f: RealField) -> float:
    """Relative L2 residual of the perfect-derivative reduction.

    Compares ``d^(2j+1)f * f`` with ``1/2 sum_l c_l d^(2l+1)[(d^(j-l)f)^2]``,
    all derivatives spectral.  Requires band-limiting to ``|q| <= n/4`` so
    the quadratic products stay representable.  Residual is absolute when the
    left side is numerically zero.

    Content exactly at ``|q| = n/4`` puts the squared field's top mode on the
    Nyquist slot, where odd-order derivatives are conventionally zeroed; keep
    one mode of margin for clean spectral residuals.
    """
    band_limit_check(f, f.grid.n // 4)
    coeffs = solve_coefficients(j).as_floats()
    lhs = derivative(f, 2 * j + 1).samples * f.samples
    rhs = np.zeros_like(lhs)
    for ell in range(j + 1):
        gsq = derivative(f, j - ell).samples ** 2
        rhs += coeffs[ell] * derivative(RealField(f.grid, gsq), 2 * ell + 1).samples
    rhs *= 0.5
    dx = f.grid.dx
    num = math.sqrt(dx * float(np.sum((lhs - rhs) ** 2)))
    den = math.sqrt(dx * float(np.sum(lhs ** 2)))
    if den < 1e-14:
        return num
    return num / den


def x_weight_commutator(params: DispersionParams, t: float, u0: RealField,
                        gate: float | None = DECAY_GATE) -> float:
    """Relative error of the first-moment commutator identity.

    The group satisfies ``W(t)(x u0) = x W(t) u0 - (2j+1) t W(t) u0^(2j)``
    (Galilean-type first moment transport; for j=1 this is the classical
    ``x - 3t d^2`` commuting vector field).  The multiplication by ``x`` uses
    node coordinates, so validity is gated by boundary decay of ``u0``,
    ``x*u0``, and ``x*W(t)u0``, checked in that order (``gate=None`` skips
    it).  The group symbol ``E`` is built once, and ``W(t)(x u0)`` and the
    correction share one inverse transform, ``irfft(E (rfft(x u0) + (2j+1) t
    (i xi)^(2j) rfft(u0)))``: four transforms in all.  The work runs in
    place, so at most four ``n``-point arrays are alive at once.
    """
    g = u0.grid
    x = g.nodes
    require_decay(u0, rel=gate, what="u0")
    xu0 = weighted(u0, x)
    require_decay(xu0, rel=gate, what="x*u0")
    rhs = _rfft(xu0.samples)
    del xu0
    u0h = _rfft(u0.samples)
    # the correction's symbol is real, so it scales both parts of the spectrum
    corr = (2 * params.j + 1) * t * deriv_symbol(g, 2 * params.j)
    re, im = rhs.real, rhs.imag
    re += corr * u0h.real
    im += corr * u0h.imag
    del corr
    group = _group(params, g, t)
    wu0 = _irfft(np.multiply(group, u0h, out=u0h), g.n)
    del u0h
    xwu0 = RealField(g, np.multiply(x, wu0, out=wu0))
    require_decay(xwu0, rel=gate, what="x*W(t)u0")
    resid = _irfft(np.multiply(group, rhs, out=rhs), g.n)
    resid -= xwu0.samples
    resid *= resid
    den = xwu0.l2()
    num = math.sqrt(g.dx * float(np.sum(resid)))
    return num / den if den > 0 else num


# ---------------------------------------------------------------------------
# dispersive decay probe


@dataclass
class DecayFit:
    """Slope fit of the oscillatory-kernel sup against time, per envelope."""

    j: int
    envelopes: tuple[float, ...]
    t_list: tuple[float, ...]
    sups: dict          # envelope -> list of sup|I_t|
    slopes: dict        # envelope -> fitted slope
    grid_sizes: dict    # envelope -> list of window node counts 2m+1

    @property
    def slope_shift(self) -> float:
        """Largest slope change between consecutive envelope widths."""
        s = [self.slopes[x] for x in self.envelopes]
        return max((abs(b - a) for a, b in zip(s, s[1:])), default=0.0)


#: half-width of the sup window in units of t^(1/(2j+1)); the suite's argmax
#: lies at |x| <= 19
_WINDOW_REACH = 24.0
#: Gauss-Legendre nodes per contour panel, and the largest change of the
#: exponent across one panel, in radians, at the window's worst node
_PANEL_NODES = 20
_PANEL_PHASE = 16.0
#: the ray ends where the integrand is below exp(-_RAY_DEPTH) of its start
_RAY_DEPTH = 40.0
#: window nodes per block of the running-product synthesis
_CHUNK = 64


@functools.cache
def _rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count``-node Gauss-Legendre nodes and weights on ``[-1, 1]``,
    read-only.

    Built on first use, not at import: ``numpy.polynomial`` costs a cold
    start several milliseconds, and ``leggauss`` (eigenvalues, a Newton step)
    up to about a millisecond a call.
    """
    z, w = np.polynomial.legendre.leggauss(count)
    z.flags.writeable = w.flags.writeable = False
    return z, w


def _panels(bound, top: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on ``[0, top]``.

    ``bound(p)`` is increasing from ``bound(0) = 0`` and bounds the change of
    the integrand's exponent over ``[0, p]``; the panels split it into equal
    parts of at most ``_PANEL_PHASE``, each carrying the ``_PANEL_NODES``-node
    rule of ``_rule``, which a process builds once.
    """
    p = np.linspace(0.0, top, 4097)
    cum = bound(p)
    edges = np.interp(np.linspace(0.0, cum[-1], math.ceil(cum[-1] / _PANEL_PHASE) + 1), cum, p)
    z, w = _rule(_PANEL_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (1.0 + z)).ravel(), (half * w).ravel()


def _kernel_window(j: int, t: float, env: float) -> tuple[float, np.ndarray]:
    """The node spacing ``dx`` and the kernel on the window's ``2m+1`` nodes.

    ``K(x) = 2 Re int_0^inf xi^(j-1/2) e^(i t theta(xi) + i x xi - (xi/env)^2)
    dxi`` (``theta`` odd, ``propagators._phase``) on ``x_k = k dx``, ``dx = pi
    / (3.2 env)``, ``|k| <= m = int(24 t^(1/(2j+1)) / dx)``, by steepest
    descent: the real segment ``xi = u^2`` up to ``R0``, 1.3 times the
    farthest saddle ``(x_m / ((2j+1) t))^(1/(2j))``, then the ray ``xi = R0 +
    s e^(i sigma pi / (2(2j+1)))``, ``sigma = (-1)^(j+1)``, along which
    ``|e^(i t theta)|`` falls like ``e^(-t s^(2j+1))`` and every node's
    integrand decays.  Both parts use composite Gauss-Legendre panels sized
    from a bound on the exponent's change at the window's worst node, and the
    ray ends where that node's integrand is below ``e^(-_RAY_DEPTH)`` of its
    start or of 1.  ``e^(i x_k xi)`` is built by a running product over blocks of 64
    nodes and reduced by row sums.
    """
    dx = math.pi / (3.2 * env)
    m = max(1, int(_WINDOW_REACH * t ** (1.0 / (2 * j + 1)) / dx))
    p, reach = 2 * j + 1, m * dx
    r0 = 1.3 * (reach / (p * t)) ** (1.0 / (2 * j))
    u, wu = _panels(lambda u: t * u ** (2 * p) + reach * u * u + u ** 4 / env ** 2,
                    math.sqrt(r0))
    ray = cmath.rect(1.0, (1 if j % 2 else -1) * math.pi / (2 * p))
    # log of the worst node's integrand along the ray, up to where t s^(2j+1)
    # alone reaches the depth
    table = np.linspace(0.0, (_RAY_DEPTH / t) ** (1.0 / p), 4097)
    z = r0 + table * ray
    level = (-_phase(z, j, t).imag + reach * abs(ray.imag) * table - (z * z).real / env ** 2
             + (j - 0.5) * np.log(np.abs(z)))
    below = np.flatnonzero(level < max(level[0], 0.0) - _RAY_DEPTH)
    s, ws = _panels(lambda s: t * ((r0 + s) ** p - r0 ** p) + reach * s
                    + ((r0 + s) ** 2 - r0 ** 2) / env ** 2,
                    table[below[0]] if below.size else table[-1])
    xi = np.concatenate([u * u, r0 + s * ray])
    weight = np.concatenate([2.0 * u ** (2 * j) * wu, xi[u.size:] ** (j - 0.5) * (ws * ray)])
    weight *= np.exp(1j * _phase(xi, j, t) - (xi / env) ** 2)
    step = np.exp((1j * dx) * xi)
    kern = np.empty(2 * m + 1)
    rows = np.empty((_CHUNK, xi.size), dtype=complex)
    for k0 in range(0, kern.size, _CHUNK):
        block = rows[:min(_CHUNK, kern.size - k0)]
        np.multiply(np.exp((1j * (k0 - m) * dx) * xi), weight, out=block[0])
        block[1:] = step
        np.cumprod(block, axis=0, out=block)
        kern[k0:k0 + block.shape[0]] = block.real.sum(axis=1)
    return dx, 2.0 * kern


def _kernel_sup(j: int, t: float, env: float) -> tuple[float, int]:
    """sup of the envelope-regularized oscillatory kernel on the window of
    ``_kernel_window`` and the window's node count ``2m+1``.

    The window holds the Airy region; an argmax on its edge raises
    ``KernelWindowError``.
    """
    dx, kern = _kernel_window(j, t, env)
    i, m = int(np.argmax(np.abs(kern))), kern.size // 2
    if i in (0, kern.size - 1):
        raise KernelWindowError(
            f"kernel sup for j={j}, t={t:g}, env={env:g} lies at argmax index {i}, on "
            f"the edge of the window |x| <= {m * dx:.4g} of m={m} nodes each side")
    return abs(float(kern[i])), kern.size


def dispersive_decay_probe(j: int, t_list=(1, 2, 4, 8, 16, 32, 64),
                           envelopes: tuple[float, ...] | None = None) -> DecayFit:
    """Fit the time-decay exponent of the weighted oscillatory kernel.

    For each envelope width the kernel ``int |xi|^{(2j-1)/2}
    exp(i t theta(xi) + i x xi) exp(-(xi/env)^2) dxi`` is evaluated by a
    steepest-descent contour on the nodes of its Airy window
    (``_kernel_window``), its sup over those nodes recorded per t, and the
    log-log slope fitted; ``grid_sizes`` holds the window's node counts.
    Default envelopes: ``(4, 8)`` for j=1 and ``(3, 6)`` for j >= 2;
    robustness is judged by the slope shift under envelope doubling.
    """
    if min(t_list) < 1.0:
        raise ValueError("t_list entries must be >= 1")
    if envelopes is None:
        envelopes = (4.0, 8.0) if j == 1 else (3.0, 6.0)
    fit = DecayFit(j, tuple(envelopes), tuple(float(t) for t in t_list), {}, {}, {})
    for env in envelopes:
        sups, ns = zip(*(_kernel_sup(j, float(t), env) for t in t_list))
        fit.sups[env], fit.grid_sizes[env] = list(sups), list(ns)
        fit.slopes[env] = float(np.polyfit(np.log(np.asarray(t_list, float)),
                                           np.log(sups), 1)[0])
    return fit
