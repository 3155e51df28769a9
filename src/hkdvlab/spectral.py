"""Uniform periodic grid and Fourier-side operators.

Conventions
-----------
The grid covers ``[-L/2, L/2)`` with ``n`` evenly spaced nodes
``x_m = -L/2 + m*dx`` and carries the frequencies ``xi_q = 2*pi*q/L``.

Spectral coefficients are the ``n//2 + 1`` bins ``q = 0, ..., n/2`` of
``scipy.fft.rfft`` of the samples, in its raw normalization: the half
spectrum the solver holds.  Every operator multiplies it by a symbol's
values on the non-negative frequencies and returns ``irfft(..., n)``; real
fields have Hermitian spectra, so the half spectrum determines the field.
A grid caches its ``nodes`` and ``xi``, read-only; ``_bin_weights`` forms
the weights ``w`` below.

Off the nodes a field is the band-limited sum

    f(x) = (1/n) * Re sum_q w_q (-1)^q coeff[q] e^{i xi_q x},

with ``w = 1`` at bins 0 and ``n/2`` and ``w = 2`` elsewhere; ``(-1)^q``
accounts for the node origin at ``x = -L/2``.

Odd-order symbols (``i*xi``, ``xi**(2j+1)``) are evaluated with the Nyquist
frequency zeroed: that mode has no well-defined sign under an odd symbol on an
even grid.

The in-place pair ``_hc_forward``/``_hc_inverse`` stores the same bins,
bit for bit, privately as ``n`` reals in FFTPACK's halfcomplex order
``[r0, r1, i1, r2, i2, ..., r_{n/2}]``: the real parts of bins 0 to ``n/2``
at indices 0, 1, 3, ..., ``n - 1``, the imaginary parts of bins 1 to
``n/2 - 1`` at indices 2, 4, ..., ``n - 2``.  A transform overwrites its
input, so a spectrum costs no array beyond the field's own.  Only this
module indexes that order: ``_hc_add_scaled`` and ``_hc_multiply`` apply
symbols, given on the rfft bins, to it.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BandLimitError, BoundaryDecayError

#: default relative boundary amplitude above which decay gates abort
DECAY_GATE = 1e-6
#: kernel periods summed exactly before the closed-form fold tail
_KERNEL_FOLDS = 3
#: the import name scipy gives its pocketfft extension
_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def _load_pocketfft():
    """scipy's compiled pocketfft extension, without importing ``scipy.fft``.

    ``import scipy.fft`` and ``import scipy.special`` each cost about 0.3 s
    on a 2-core x86_64 box, most of a cold start, and the package uses
    neither module's Python layer.  The extension file is loaded from
    scipy's directory and left unregistered: ``import scipy.fft`` loads it
    again under its own name, binds it to its parent package, and gets the
    same module object, since the interpreter initializes an extension once
    per process.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("hkdvlab needs scipy's pocketfft extension, "
                                  "and scipy is not installed", name="scipy")
    where = os.path.join(scipy_spec.submodule_search_locations[0], "fft", "_pocketfft")
    spec = importlib.machinery.PathFinder.find_spec(_POCKETFFT, [where])
    if spec is None:
        import scipy
        raise ImportError(f"scipy {scipy.__version__} has no pocketfft extension "
                          f"(pypocketfft) in {where}, where hkdvlab loads its FFT kernel from",
                          name=_POCKETFFT, path=where)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pypocketfft = _load_pocketfft()

#: the most nodes a grid may have; the largest grid a suite builds is the
#: 800,000-point commutator box
_MAX_GRID_N = 2 ** 24


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on ``[-L/2, L/2)``."""

    n: int
    L: float

    def __post_init__(self):
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 16, got {self.n}")
        if self.n > _MAX_GRID_N:
            raise ValueError(f"n must be <= {_MAX_GRID_N}, got {self.n}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")

    @property
    def dx(self) -> float:
        return self.L / self.n

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """``x_m = -L/2 + m*dx``, built once per grid and read-only."""
        x = -self.L / 2 + self.dx * np.arange(self.n)
        x.flags.writeable = False
        return x

    @property
    def freq_index(self) -> np.ndarray:
        """Integer frequency indices q in numpy FFT order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)

    @functools.cached_property
    def xi(self) -> np.ndarray:
        """Frequencies of the ``n//2 + 1`` rfft bins, built once per grid and
        read-only."""
        # FFT order puts q = -n/2 in the last half-spectrum slot; rfft has +n/2
        xi = np.abs((2.0 * np.pi / self.L) * self.freq_index[: self.n // 2 + 1])
        xi.flags.writeable = False
        return xi


def _rfft(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``scipy.fft.rfft(x)`` along the last axis, bit for bit, written into
    ``out`` when given.

    This module is the package's one binding of the real transforms: it
    calls scipy's pocketfft kernel directly (see ``_load_pocketfft``), with
    scipy's default normalization, and skips the public function's per-call
    dispatch and argument checks, which cost about as much as the kernel at
    solver sizes.  ``x`` must be a real ndarray.
    """
    return pypocketfft.r2c(x, (-1,), True, 0, out, 1)


def _irfft(X: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """``scipy.fft.irfft(X, n)`` along the last axis, bit for bit, written
    into ``out`` when given; ``X`` must be a complex ndarray of exactly
    ``n//2 + 1`` bins on that axis."""
    return pypocketfft.c2r(X, (-1,), n, False, 2, out, 1)


def _hc_forward(a: np.ndarray) -> np.ndarray:
    """``_rfft(a)`` of a real contiguous 1-D ``a`` of even length ``n``,
    written over ``a`` as ``n`` reals in FFTPACK's halfcomplex order
    ``[r0, r1, i1, ..., r_{n/2}]`` (module docstring); returns ``a``.

    The call needs no buffer beyond the transform's plan, where ``_rfft``
    allocates the complex output and a real work copy.  Equal to ``_rfft``
    bit for bit after reordering.
    """
    return pypocketfft.r2r_fftpack(a, (-1,), True, True, 0, a, 1)


def _hc_inverse(a: np.ndarray) -> np.ndarray:
    """``_irfft(X, n)`` of the halfcomplex spectrum ``a`` of ``_hc_forward``,
    written over ``a``, which it returns; equal to ``_irfft`` bit for bit."""
    return pypocketfft.r2r_fftpack(a, (-1,), False, False, 2, a, 1)


def _hc_add_scaled(acc: np.ndarray, sym: np.ndarray, a: np.ndarray) -> None:
    """``acc += sym * a`` in place on halfcomplex spectra, for a real symbol
    ``sym`` on the ``n//2 + 1`` rfft bins: each part of bin ``q`` is scaled
    by ``sym[q]``, as the complex product scales them."""
    acc[0] += sym[0] * a[0]
    acc[1::2] += sym[1:] * a[1::2]
    acc[2::2] += sym[1:-1] * a[2::2]


def _hc_multiply(a: np.ndarray, sym: np.ndarray) -> None:
    """``a *= sym`` in place on a halfcomplex spectrum, for a complex symbol
    ``sym`` on the ``n//2 + 1`` rfft bins; bins 1 to ``n/2 - 1`` multiply
    through a complex view of ``a``.  Bins 0 and ``n/2`` hold real values,
    so the real part of the product there is ``sym.real * a``."""
    a[[0, -1]] *= sym[[0, -1]].real
    inner = a[1:-1].view(complex)
    np.multiply(sym[1:-1], inner, out=inner)


def _fast_len(n: int) -> int:
    """The smallest length ``>= n`` that the kernel transforms fastest,
    ``scipy.fft.next_fast_len(n)``."""
    return pypocketfft.good_size(n, False)


def make_grid(n: int, L: float) -> Grid:
    """Build a grid, rejecting odd, too-small or too-large ``n`` and nonpositive ``L``."""
    return Grid(int(n), float(L))


def _bin_weights(n: int) -> np.ndarray:
    """Weights ``w`` on the ``n//2 + 1`` rfft bins: 1 at bins 0 and ``n/2``,
    2 elsewhere, counting each bin's conjugate partner."""
    weights = np.full(n // 2 + 1, 2.0)
    weights[[0, -1]] = 1.0
    return weights


def _power(xi: np.ndarray, order: int) -> np.ndarray:
    """``xi**order`` by a multiply chain, ``xi * (xi*xi)**(order//2)`` for
    odd orders (``pow`` is the hot spot on big grids)."""
    sq = xi * xi
    out = xi.copy() if order % 2 else np.ones_like(xi)
    for _ in range(order // 2):
        out *= sq
    return out


def deriv_symbol(grid: Grid, order: int) -> np.ndarray:
    """``(i xi)^order`` on the ``n//2 + 1`` rfft bins, Nyquist zeroed for odd
    orders.

    Even orders give a real array, odd orders a purely imaginary one.
    """
    p = _power(grid.xi, order)
    if order % 2:
        p[-1] = 0.0
    return (1.0, 1j, -1.0, -1j)[order % 4] * p


@dataclass(frozen=True)
class RealField:
    """Real samples attached to one grid."""

    grid: Grid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("field samples must be finite")
        object.__setattr__(self, "samples", s)

    def l2(self) -> float:
        """Discrete L2 norm ``sqrt(dx * sum f^2)``."""
        s = self.samples
        return math.sqrt(self.grid.dx * float(np.einsum("i,i->", s, s)))

    def linf(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def boundary_amplitude(self) -> float:
        """Largest magnitude among the outermost two nodes on each side."""
        s = self.samples
        return float(max(np.max(np.abs(s[:2])), np.max(np.abs(s[-2:]))))


def synthesize_at(grid: Grid, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Band-limited evaluation at arbitrary points of the field whose
    half-spectrum coefficients on ``grid`` are ``coeffs``.

    Direct Fourier sum over the half spectrum (module docstring), one
    ``(points, n//2 + 1)`` phase table per call; intended for small point
    sets.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    # the node-origin signs are applied exactly to the coefficients; folded
    # into the phase as e^{i xi (x + L/2)} they would raise its argument from
    # xi |x| to up to xi L, and its rounding with it
    signs = np.ones(grid.n // 2 + 1)
    signs[1::2] = -1.0
    c = _bin_weights(grid.n) * signs * coeffs
    phases = np.exp(1j * np.multiply.outer(pts, grid.xi))
    return np.einsum("pq,q->p", phases, c).real / grid.n


def _apply_half(f: RealField, sym: np.ndarray) -> RealField:
    """Real field of the Hermitian multiplier with half-spectrum values ``sym``."""
    return RealField(f.grid, _irfft(sym * _rfft(f.samples), f.grid.n))


def derivative(f: RealField, order: int) -> RealField:
    """Spectral derivative of integer order; odd orders use the Nyquist rule."""
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if order == 0:
        return RealField(f.grid, f.samples.copy())
    return _apply_half(f, deriv_symbol(f.grid, order))


def frac_deriv(f: RealField, s: float, kind: str = "homogeneous") -> RealField:
    """Fractional derivative by Fourier multiplier.

    ``homogeneous`` applies ``|xi|^s`` (zero at the origin, removing the
    mean); ``inhomogeneous`` applies ``(1 + xi^2)^{s/2}``, for any real
    ``s`` (the Bessel potential when ``s < 0``).
    """
    xi = f.grid.xi
    if kind == "homogeneous":
        if s < 0:
            raise ValueError("negative-order homogeneous derivatives are out of scope")
        sym = np.zeros(xi.size)
        sym[1:] = xi[1:] ** s
    elif kind == "inhomogeneous":
        sym = (1.0 + xi * xi) ** (s / 2.0)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return _apply_half(f, sym)


def require_decay(f: RealField, rel: float | None = DECAY_GATE, what: str = "field") -> None:
    """Abort when the boundary amplitude exceeds ``rel * max|f|``; ``None`` is off."""
    if rel is None:
        return
    peak = f.linf()
    if peak == 0.0:
        return
    edge = f.boundary_amplitude()
    if edge > rel * peak:
        raise BoundaryDecayError(
            f"{what}: boundary amplitude {edge:.3e} exceeds {rel:.1e} * max|f| "
            f"({rel * peak:.3e}); enlarge the box or recentre the data")


def stein_constant(alpha: float) -> float:
    """Normalization of the principal-value fractional derivative (1-D).

    ``c_alpha = sqrt(pi) * Gamma(-alpha/2) / (2^alpha * Gamma((1+alpha)/2))``;
    negative on (0, 2), consistent with ``|xi|^alpha`` on oscillatory modes.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    return (math.sqrt(math.pi) * math.gamma(-alpha / 2.0)
            / (2.0 ** alpha * math.gamma((1.0 + alpha) / 2.0)))


#: cephes' Euler-Maclaurin coefficients (2k)!/B_2k for the Hurwitz zeta
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
           7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
           -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16


def _hurwitz_zeta(x: float, q: float) -> float:
    """``sum_{m>=0} (m + q)^(-x)`` for ``x > 1`` and ``0 < q <= 1e8``, equal
    bit for bit to ``scipy.special.zeta(x, q)``.

    A line-for-line port of the cephes routine that function runs: a head
    sum of at least 9 terms that reaches past 9, then the Euler-Maclaurin
    tail.
    """
    s = q ** -x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coeff in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coeff
        s += t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _stein_truncated(f: RealField, alpha: float, m_min: int) -> np.ndarray:
    """Trapezoid evaluation of the truncated principal-value integral.

    Integrates the even difference ``f(x+y) + f(x-y) - 2 f(x)`` against the
    periodized kernel ``sum_m |y + m L|^{-1-alpha}`` over ``|y| in
    [m_min*dx, L/2]``.  The fold tail beyond ``_KERNEL_FOLDS`` periods is added
    in closed form through its constant and quadratic Taylor terms (Hurwitz
    zeta sums); without those terms the quadrature stalls at O(L^{alpha-1}).
    """
    g = f.grid
    n, L, dx = g.n, g.L, g.dx
    s = f.samples
    half = n // 2
    # sum_m w_m ker_m (s[x+m] + s[x-m] - 2 s[x]) as one circular convolution
    # with the kernel placed at the offsets +m and -m (both are n/2 at m = n/2)
    y = np.arange(m_min, half + 1) * dx
    ker = y ** (-1.0 - alpha)
    for fold in range(1, _KERNEL_FOLDS + 1):
        ker += (fold * L + y) ** (-1.0 - alpha) + (fold * L - y) ** (-1.0 - alpha)
    ker[[0, -1]] *= 0.5
    kern = np.zeros(n)
    kern[m_min:half + 1] = ker
    kern[n - half:n - m_min + 1] += ker[::-1]
    acc = _irfft(_rfft(s) * _rfft(kern), n) - (2.0 * np.sum(ker)) * s
    acc *= dx
    x = g.nodes
    c0 = 2.0 * _hurwitz_zeta(1.0 + alpha, _KERNEL_FOLDS + 1) / L ** (1.0 + alpha)
    c2 = ((1.0 + alpha) * (2.0 + alpha) * _hurwitz_zeta(3.0 + alpha, _KERNEL_FOLDS + 1)
          / L ** (3.0 + alpha))
    m0 = dx * np.sum(s)
    m1 = dx * np.sum(x * s)
    m2 = dx * np.sum(x * x * s)
    acc += c0 * (m0 - L * s)
    acc += c2 * ((m2 - 2.0 * x * m1 + x * x * m0) - s * L ** 3 / 12.0)
    return acc / stein_constant(alpha)


def stein_deriv(f: RealField, alpha: float, eps_seq: Sequence[float] | None = None) -> RealField:
    """Principal-value fractional derivative of order ``alpha`` in (0, 2).

    ``eps_seq`` holds one or two inner cutoffs, snapped to whole grid cells
    and decreasing; each yields one truncated-quadrature evaluation.  One
    cutoff returns the plain truncated evaluation, two the Richardson
    extrapolant with the truncation exponent ``2 - alpha``.  Default
    ``eps_seq`` is ``(8*dx, 4*dx)``.

    Requires boundary decay of ``f``; agrees with
    ``frac_deriv(f, alpha, "homogeneous")`` up to quadrature error.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    require_decay(f, rel=1e-8, what="stein_deriv input")
    g = f.grid
    if eps_seq is None:
        eps_seq = (8 * g.dx, 4 * g.dx)
    if not 1 <= len(eps_seq) <= 2:
        raise ValueError("eps_seq must hold one or two cutoffs")
    ms = []
    for eps in eps_seq:
        if eps <= 0:
            raise ValueError("eps_seq entries must be positive")
        m = max(1, int(math.ceil(eps / g.dx - 1e-12)))
        if m > g.n // 4:
            raise ValueError(f"inner cutoff {eps} too large for the grid")
        if ms and m >= ms[-1]:
            raise ValueError("eps_seq must strictly decrease after cell snapping")
        ms.append(m)
    vals = [_stein_truncated(f, alpha, m) for m in ms]
    if len(vals) == 1:
        return RealField(g, vals[0])
    (v1, v2), (w1, w2) = vals, [(m * g.dx) ** (2.0 - alpha) for m in ms]
    return RealField(g, (v2 * w1 - v1 * w2) / (w1 - w2))


def dealias_cutoff(n: int, k: int = 1) -> int:
    """Largest retained |q| for a degree-(k+1) product on an n-point grid.

    A product of ``k + 1`` factors with ``|q| <= c`` reaches ``(k + 1) c``,
    which folds onto ``(k + 1) c - n``; it stays outside the kept band when
    ``(k + 2) c < n``, so the top kept mode never aliases.
    """
    return (n - 1) // (k + 2)


def band_limit_check(f: RealField, max_index: int) -> None:
    """Reject fields with spectral content beyond ``|q| <= max_index`` above
    ``1e-10`` of the peak coefficient."""
    mags = np.abs(_rfft(f.samples))
    peak = float(mags.max()) or 1.0
    outside = mags[np.arange(mags.size) > max_index]
    if outside.size and float(outside.max()) > 1e-10 * peak:
        raise BandLimitError(
            f"field has spectral content beyond |q| = {max_index} "
            f"({float(outside.max()):.2e} vs peak {peak:.2e})")
