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
from .spectral import (DECAY_GATE, RealField, _hc_band, _hc_forward, _hc_inverse,
                       band_limit_check, deriv_symbol, derivative, require_decay)

_MAX_COEFF_ORDER = 32


@dataclass(frozen=True)
class CoefficientVector:
    """Rational coefficients turning ``u^(2j+1) u`` into perfect derivatives."""

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
    if j > _MAX_COEFF_ORDER:
        raise ValueError(f"j > {_MAX_COEFF_ORDER} not supported")
    c: list[Fraction | None] = [None] * j + [Fraction(1)]
    for m in range(j - 1, -1, -1):
        acc = Fraction(0)
        for ell in range(m + 1, j + 1):
            acc += c[ell] * math.comb(2 * ell + 1, ell - m)
        c[m] = -acc
    vec = CoefficientVector(tuple(c))
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
    (i xi)^(2j) rfft(u0)))``: four transforms in all.  They run in place on
    two buffers, ``x*u0`` and a copy of ``u0``, through ``spectral``'s
    halfcomplex pair, and both symbols act through ``spectral._hc_band``'s
    views of the whole spectrum.  At the suite's largest call (n = 800,000,
    the inputs already built) tracemalloc peaks at 3.52 arrays of ``8n``
    bytes, while the group is built.  In a fresh process the resident peak
    rises 2.57 such arrays above its pre-call high-water mark, which still
    counts the freed temporaries that built the inputs, and 4.05 above the
    pre-call resident set; about one array is the kernel's length-n plan.
    """
    g = u0.grid
    x = g.nodes
    require_decay(u0, rel=gate, what="u0")
    xu0 = weighted(u0, x)
    require_decay(xu0, rel=gate, what="x*u0")
    rhs = _hc_forward(xu0.samples)
    del xu0
    u0h = _hc_forward(u0.samples.copy())
    top = g.n // 2 - 1
    bands = (r0, r_in, r_nyq), (u_0, u_in, u_nyq) = _hc_band(rhs, top), _hc_band(u0h, top)
    c = (2 * params.j + 1) * t * deriv_symbol(g, 2 * params.j)
    r0 += c[0] * u_0
    r_in.real += c[1:-1] * u_in.real
    r_in.imag += c[1:-1] * u_in.imag
    r_nyq += c[-1] * u_nyq
    del c
    group = _group(params, g, t)
    for zero, inner, nyquist in bands:
        zero *= group[0].real
        np.multiply(group[1:-1], inner, out=inner)
        nyquist *= group[-1].real
    del group
    wu0 = _hc_inverse(u0h)
    xwu0 = RealField(g, np.multiply(x, wu0, out=wu0))
    require_decay(xwu0, rel=gate, what="x*W(t)u0")
    resid = _hc_inverse(rhs)
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
#: rows of the phase table ``e^(i r dx xi)``: window nodes per block of one seed
_CHUNK = 64
#: the unit table ``k / 64``, ``k <= 64``, scaled per contour to place the panel
#: edges and the ray's end
_TABLE = np.arange(65) / 64.0
_TABLE.flags.writeable = False


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
    parts, each carrying the ``_PANEL_NODES``-node rule of ``_rule``, which a
    process builds once.  The edges invert ``bound`` by linear interpolation
    on ``_TABLE`` scaled to ``[0, top]``; where that misplaces an edge, one
    more panel is added, until no panel's bound grows by more than
    ``_PANEL_PHASE``.
    """
    p = top * _TABLE
    cum = bound(p)
    edges = p[:1]
    count = math.ceil(cum[-1] / _PANEL_PHASE)
    while count:
        # the last fraction is exactly 1, so the last edge is exactly top
        edges = np.interp(np.arange(count + 1) / count * cum[-1], cum, p)
        if np.diff(bound(edges)).max() <= _PANEL_PHASE:
            break
        count += 1
    z, w = _rule(_PANEL_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (1.0 + z)).ravel(), (half * w).ravel()


def _contour(j: int, t: float, env: float) -> tuple[float, int, np.ndarray, np.ndarray]:
    """The window's node spacing ``dx`` and half-width ``m``, and the contour's
    nodes ``xi`` and weights ``w``: ``K(x_k) = 2 Re sum w e^(i x_k xi)``.

    ``K(x) = 2 Re int_0^inf xi^(j-1/2) e^(i t theta(xi) + i x xi - (xi/env)^2)
    dxi`` (``theta`` odd, ``propagators._phase``) on ``x_k = k dx``, ``dx = pi
    / (3.2 env)``, ``|k| <= m = int(24 t^(1/(2j+1)) / dx)``, by steepest
    descent: the real segment ``xi = u^2`` up to ``R0``, 1.3 times the
    farthest saddle ``(x_m / ((2j+1) t))^(1/(2j))``, then the ray ``xi = R0 +
    s e^(i sigma pi / (2(2j+1)))``, ``sigma = (-1)^(j+1)``, along which
    ``|e^(i t theta)|`` falls like ``e^(-t s^(2j+1))`` and every node's
    integrand decays.  Both parts use composite Gauss-Legendre panels sized
    from a bound on the exponent's change at the window's worst node, and the
    ray ends at the first point where that node's integrand is below
    ``e^(-_RAY_DEPTH)`` of its start or of 1, searched on ``_TABLE`` scaled to
    where ``t s^(2j+1)`` alone reaches ``_RAY_DEPTH`` and refined on a second
    copy across the step that crosses.
    """
    dx = math.pi / (3.2 * env)
    m = max(1, int(_WINDOW_REACH * t ** (1.0 / (2 * j + 1)) / dx))
    p, reach = 2 * j + 1, m * dx
    r0 = 1.3 * (reach / (p * t)) ** (1.0 / (2 * j))
    u, wu = _panels(lambda u: t * u ** (2 * p) + reach * u * u + u ** 4 / env ** 2,
                    math.sqrt(r0))
    ray = cmath.rect(1.0, (1 if j % 2 else -1) * math.pi / (2 * p))

    def level(s):
        """Log of the worst node's integrand at ``xi = r0 + s ray``."""
        z = r0 + s * ray
        return (-_phase(z, j, t).imag + reach * abs(ray.imag) * s - (z * z).real / env ** 2
                + (j - 0.5) * np.log(np.abs(z)))

    # the second table puts the end on the 4097-point grid of the whole span
    table = (_RAY_DEPTH / t) ** (1.0 / p) * _TABLE
    levels = level(table)
    floor = max(levels[0], 0.0) - _RAY_DEPTH
    below = np.flatnonzero(levels < floor)
    if below.size and below[0]:
        table = table[below[0] - 1] + table[1] * _TABLE
        below = np.flatnonzero(level(table) < floor)
    s, ws = _panels(lambda s: t * ((r0 + s) ** p - r0 ** p) + reach * s
                    + ((r0 + s) ** 2 - r0 ** 2) / env ** 2,
                    table[below[0]] if below.size else table[-1])
    xi = np.concatenate([u * u, r0 + s * ray])
    weight = np.concatenate([2.0 * u ** (2 * j) * wu, xi[u.size:] ** (j - 0.5) * (ws * ray)])
    weight *= np.exp(1j * _phase(xi, j, t) - (xi / env) ** 2)
    return dx, m, xi, weight


def _kernel_window(j: int, t: float, env: float) -> tuple[float, np.ndarray]:
    """The node spacing ``dx`` and the kernel on the window's ``2m+1`` nodes,
    summed over the contour of ``_contour``.

    The nodes fall into blocks of ``_CHUNK``; block ``b`` starts at ``x_b =
    (b _CHUNK - m) dx``, so ``e^(i x_(b _CHUNK + r) xi) = e^(i x_b xi) e^(i r
    dx xi)``.  One table ``powers[r] = e^(i r dx xi)``, ``r < _CHUNK``, is a
    running product (one ``np.cumprod``), the seeds ``e^(i x_b xi) w`` are
    exact exponentials, and ``Re(seeds powers^T)`` gives every node at once.
    ``_CHUNK = 1`` is the direct-exponential sum.
    """
    dx, m, xi, weight = _contour(j, t, env)
    count = 2 * m + 1
    powers = np.empty((min(_CHUNK, count), xi.size), dtype=complex)
    powers[0] = 1.0
    powers[1:] = np.exp((1j * dx) * xi)
    np.cumprod(powers, axis=0, out=powers)
    starts = np.arange(0, count, _CHUNK)
    seeds = np.exp((1j * dx * (starts - m))[:, None] * xi)
    seeds *= weight
    # unit-stride copies of the parts: einsum's inner products run faster on them
    kern = np.einsum("bq,rq->br", seeds.real.copy(), powers.real.copy())
    kern -= np.einsum("bq,rq->br", seeds.imag.copy(), powers.imag.copy())
    return dx, 2.0 * kern.ravel()[:count]


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
    fit = DecayFit(tuple(envelopes), tuple(float(t) for t in t_list), {}, {}, {})
    for env in envelopes:
        sups, ns = zip(*(_kernel_sup(j, float(t), env) for t in t_list))
        fit.sups[env], fit.grid_sizes[env] = list(sups), list(ns)
        fit.slopes[env] = float(np.polyfit(np.log(np.asarray(t_list, float)),
                                           np.log(sups), 1)[0])
    return fit
