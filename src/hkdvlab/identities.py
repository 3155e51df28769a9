"""Exact algebraic identities and the dispersive-decay probe.

The reduction-coefficient system is solved in exact rational arithmetic; the
weight/commutator identity is evaluated spectrally; the time decay of the
kernel of ``|xi|^((2j-1)/2)`` under the linear group is fitted from its sup
on the Airy window, one envelope width at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.fft import ifft, next_fast_len

from .errors import KernelGridTooLarge, KernelWindowError, PhaseRangeError
from .fields import weighted
from .propagators import DispersionParams, linear_flow
from .spectral import (RealField, _REDUCE_RANGE, _power, _reduce_2pi,
                       band_limit_check, derivative, require_decay)

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
                        gate: float = 1e-6) -> float:
    """Relative error of the first-moment commutator identity.

    The group satisfies ``W(t)(x u0) = x W(t) u0 - (2j+1) t W(t) u0^(2j)``
    (Galilean-type first moment transport; for j=1 this is the classical
    ``x - 3t d^2`` commuting vector field).  The multiplication by ``x`` uses
    node coordinates, so validity is gated by boundary decay of ``u0``,
    ``x*u0``, and ``x*W(t)u0``.
    """
    x = u0.grid.nodes
    xu0 = weighted(u0, x)
    wu0 = linear_flow(params, t, u0)
    xwu0 = weighted(wu0, x)
    require_decay(u0, rel=gate, what="u0")
    require_decay(xu0, rel=gate, what="x*u0")
    require_decay(xwu0, rel=gate, what="x*W(t)u0")
    lhs = linear_flow(params, t, xu0)
    corr = linear_flow(params, t, derivative(u0, 2 * params.j))
    resid = lhs.samples - xwu0.samples + (2 * params.j + 1) * t * corr.samples
    den = xwu0.l2()
    num = math.sqrt(u0.grid.dx * float(np.sum(resid ** 2)))
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
    grid_sizes: dict    # envelope -> list of kernel grid sizes

    @property
    def slope_shift(self) -> float:
        """Largest slope change between consecutive envelope widths."""
        s = [self.slopes[x] for x in self.envelopes]
        return max((abs(b - a) for a, b in zip(s, s[1:])), default=0.0)


_MAX_KERNEL_N = 2 ** 26
#: length added to the kernel grid's span beyond the stationary-phase reach
_PAD = 300.0
#: half-width of the automatic sup window in units of t^(1/(2j+1)); the
#: suite's argmax lies at |x| <= 19
_WINDOW_REACH = 24.0
#: smallest inverse-DFT length of the folded spectrum
_MIN_FOLD = 1 << 14
#: folded-spectrum bins evaluated and transformed per block.  A block holds
#: about a dozen temporaries of 8 or 16 bytes per bin; on the decay suite
#: 2^17 bins ran faster than 2^18 and 2^20, and with less peak memory
_BLOCK_BINS = 1 << 17


def _kernel_grid(j: int, t: float, env: float, kappa: float) -> tuple[float, float, int]:
    """Span, node spacing and size ``n`` of the oscillatory-kernel grid.

    The span suppresses the stationary-phase fold from periodization by
    ``exp(-kappa^2)`` at the box edge; the spacing resolves the envelope up to
    ``xi = 3.2 env``, where it is below ``exp(-10.2) ~ 3.6e-5``.
    """
    span = 2.0 * ((2 * j + 1) * t * (kappa * env) ** (2 * j)) + _PAD
    dx = math.pi / (3.2 * env)
    return span, dx, next_fast_len(max(1024, int(math.ceil(span / dx))), real=False)


def _kernel_sup(j: int, t: float, env: float, kappa: float) -> tuple[float, int]:
    """sup of the envelope-regularized oscillatory kernel on a window of nodes.

    The grid comes from ``_kernel_grid``.  The sup is taken over the ``2m+1``
    nodes ``|x_k| <= 24 t^(1/(2j+1))``, which hold the Airy region; an argmax
    on the edge of the window raises ``KernelWindowError``.  No array of grid
    length is built: with ``Q`` the smallest divisor of ``n`` of at least
    ``max(2^14, 2m+1)`` and ``P = n/Q``, every bin ``q = aP + b`` (``a < Q``, ``b < P``) of the full spectrum is
    given its signed frequency (``q - n`` where ``q > n//2``), and
    ``K(x_k) = sum_b e^(2 pi i b k/n) G_b(k mod Q)``, where ``G_b`` is the
    unnormalized ``Q``-point inverse DFT over ``a`` of the symbol on row
    ``b``.  The amplitude is even in ``xi`` (it is built from ``|xi|``) and
    ``t theta`` exactly odd, so row ``P - b`` is the conjugate mirror of row
    ``b`` and only rows ``b <= P/2`` are evaluated:
    ``K = sum_b w_b Re(e^(2 pi i b k/n) G_b)`` with ``w_b = 2``, except
    ``w = 1`` for row 0 and, for even ``P``, row ``P/2``, which are their own
    mirrors.  The Nyquist bin of an even ``n`` lies on one of those two rows,
    so it enters by the real part of its symbol.  Rows are evaluated a block
    of about ``2^17`` bins at a time, and each block is transformed by one
    batched ``ifft``.  The phase ``t theta`` is reduced by ``_reduce_2pi`` in
    double; grids of ``2^22`` points and more then take the amplitude, the
    trig and the transform in single precision (the sup is needed to ~1e-3).  Raises ``KernelGridTooLarge`` past ``_MAX_KERNEL_N``
    points and ``PhaseRangeError`` when the largest phase is past the exact
    reduction.
    """
    _, dx, n = _kernel_grid(j, t, env, kappa)
    if n > _MAX_KERNEL_N:
        raise KernelGridTooLarge(f"kernel grid n={n} for j={j}, t={t:g}, env={env:g} "
                                 f"exceeds the supported maximum {_MAX_KERNEL_N}")
    two_pi_over_L = 2.0 * math.pi / (n * dx)
    half = n // 2
    top = t * (two_pi_over_L * half) ** (2 * j + 1)
    if top >= _REDUCE_RANGE:
        raise PhaseRangeError(f"kernel phase up to {top:.4g} rad on n={n} for j={j}, "
                              f"t={t:g}, env={env:g} exceeds the exact reduction "
                              f"range {_REDUCE_RANGE:.4g}")
    big = n >= (1 << 22)
    real = np.float32 if big else np.float64
    m = min(max(1, int(_WINDOW_REACH * t ** (1.0 / (2 * j + 1)) / dx)), half)
    k = np.arange(-m, m + 1)
    fold = min(n, max(_MIN_FOLD, k.size))
    Q = min(d for i in range(1, math.isqrt(n) + 1) if n % i == 0
            for d in (i, n // i) if d >= fold)
    P = n // Q
    aP = P * np.arange(Q, dtype=np.float64)
    cols = k % Q
    sign = 1.0 if (j + 1) % 2 == 0 else -1.0
    rows = np.arange(P // 2 + 1)
    weight = np.where((rows == 0) | (2 * rows == P), 1.0, 2.0)
    block = max(1, _BLOCK_BINS // Q)
    kern = np.zeros(k.size)
    for b0 in range(0, rows.size, block):
        b = rows[b0:b0 + block]
        xi = b[:, None] + aP
        np.subtract(xi, n, out=xi, where=xi > half)     # signed bins, then
        xi *= two_pi_over_L                             # their frequencies
        phase = _power(xi, 2 * j + 1)
        phase *= sign * t
        ph = _reduce_2pi(phase).astype(real, copy=False)
        cos, sin = np.cos(ph), np.sin(ph)
        axi = np.abs(xi).astype(real, copy=False)
        amp = np.sqrt(axi)
        for _ in range(j - 1):
            amp *= axi
        amp *= np.exp(-(axi / env) ** 2)
        sym = np.empty(xi.shape, dtype=np.complex64 if big else np.complex128)
        np.multiply(cos, amp, out=sym.real)
        np.multiply(sin, amp, out=sym.imag)
        g = ifft(sym, axis=-1, norm="forward", overwrite_x=True)[:, cols]
        twiddle = weight[b, None] * np.exp((2j * math.pi / n) * ((b[:, None] * k) % n))
        kern += np.einsum("bw,bw->w", g, twiddle).real
    i = int(np.argmax(np.abs(kern)))
    if m < half and i in (0, k.size - 1):
        raise KernelWindowError(
            f"kernel sup for j={j}, t={t:g}, env={env:g} lies at argmax index {i}, on "
            f"the edge of the window |x| <= {m * dx:.4g} of m={m} nodes each side")
    return abs(float(kern[i])) * two_pi_over_L, n


def dispersive_decay_probe(j: int, t_list=(1, 2, 4, 8, 16, 32, 64),
                           envelopes: tuple[float, ...] | None = None) -> DecayFit:
    """Fit the time-decay exponent of the weighted oscillatory kernel.

    For each envelope width the kernel ``int |xi|^{(2j-1)/2}
    exp(i t theta(xi) + i x xi) exp(-(xi/env)^2) dxi`` is synthesized on an
    auto-sized grid, its sup over x recorded per t, and the log-log slope
    fitted.  Default envelopes: ``(4, 8)`` for j=1 and ``(3, 6)`` for j=2;
    robustness is judged by the slope shift under envelope doubling.
    """
    if min(t_list) < 1.0:
        raise ValueError("t_list entries must be >= 1")
    if envelopes is None:
        envelopes = (4.0, 8.0) if j == 1 else (3.0, 6.0)
    fit = DecayFit(j, tuple(envelopes), tuple(float(t) for t in t_list), {}, {}, {})
    for env in envelopes:
        sups, ns = [], []
        for t in t_list:
            span, dx, _ = _kernel_grid(j, t, env, 2.0)
            kappa = 1.62 if span / dx > (1 << 23) else 2.0
            sup, n = _kernel_sup(j, float(t), env, kappa)
            sups.append(sup)
            ns.append(n)
        fit.sups[env] = sups
        fit.grid_sizes[env] = ns
        fit.slopes[env] = float(np.polyfit(np.log(np.asarray(t_list, float)),
                                           np.log(sups), 1)[0])
    return fit
