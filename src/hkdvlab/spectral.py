"""Uniform periodic grid and Fourier-side operators.

Conventions
-----------
The grid covers ``[-L/2, L/2)`` with ``n`` evenly spaced nodes
``x_m = -L/2 + m*dx`` and carries the frequencies ``xi_q = 2*pi*q/L``
for integer ``q in {-n/2, ..., n/2-1}`` (numpy FFT ordering).

Spectral coefficients approximate the transform ``int f(x) e^{-i xi x} dx``
of the box-supported function:

    coeff[q] = dx * (-1)^q * FFT(samples)[q]

so that the discrete Parseval identity reads

    sum(samples**2) * dx == sum(|coeff|**2) / L.

The ``(-1)^q`` factor accounts for the node origin at ``x = -L/2``; with it a
real, even, origin-centered bump has real positive coefficients, matching the
integral transform it discretizes.

Odd-order symbols (``i*xi``, ``xi**(2j+1)``) are evaluated with the Nyquist
frequency zeroed: that mode has no well-defined sign under an odd symbol on an
even grid.  ``odd_frequencies`` returns the adjusted frequency array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import zeta

from .errors import BandLimitError, BoundaryDecayError

#: default relative boundary amplitude above which decay gates abort
DECAY_GATE = 1e-6


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on ``[-L/2, L/2)``."""

    n: int
    L: float

    def __post_init__(self):
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 16, got {self.n}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")

    @property
    def dx(self) -> float:
        return self.L / self.n

    @property
    def nodes(self) -> np.ndarray:
        return -self.L / 2 + self.dx * np.arange(self.n)

    @property
    def freq_index(self) -> np.ndarray:
        """Integer frequency indices q in numpy FFT order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)

    @property
    def frequencies(self) -> np.ndarray:
        """xi_q = 2*pi*q/L in numpy FFT order."""
        return (2.0 * np.pi / self.L) * self.freq_index

    @property
    def nyquist_slot(self) -> int:
        return self.n // 2

    def phase_signs(self) -> np.ndarray:
        """(-1)^q factors aligning FFT output with the -L/2 node origin."""
        return np.where(self.freq_index.astype(np.int64) % 2 == 0, 1.0, -1.0)


def make_grid(n: int, L: float) -> Grid:
    """Build a grid, rejecting odd or too-small ``n`` and nonpositive ``L``."""
    return Grid(int(n), float(L))


def odd_frequencies(grid: Grid) -> np.ndarray:
    """Frequency array with the Nyquist mode zeroed, for odd symbols."""
    xi = grid.frequencies.copy()
    xi[grid.nyquist_slot] = 0.0
    return xi


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
        return math.sqrt(self.grid.dx * float(np.dot(self.samples, self.samples)))

    def linf(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def boundary_amplitude(self) -> float:
        """Largest magnitude among the outermost two nodes on each side."""
        s = self.samples
        return float(max(np.max(np.abs(s[:2])), np.max(np.abs(s[-2:]))))


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients in numpy FFT order."""

    grid: Grid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} coefficients, got {c.shape}")
        object.__setattr__(self, "coeffs", c)

    def coeff(self, q: int) -> complex:
        """Coefficient for integer frequency index q (negative allowed)."""
        return complex(self.coeffs[q % self.grid.n])

    def l2(self) -> float:
        """Parseval norm ``sqrt(sum |coeff|^2 / L)``."""
        return math.sqrt(float(np.vdot(self.coeffs, self.coeffs).real) / self.grid.L)


def forward(f: RealField) -> SpectralField:
    """Forward transform; see module docstring for the normalization."""
    g = f.grid
    coeffs = g.dx * g.phase_signs() * np.fft.fft(f.samples)
    return SpectralField(g, coeffs)


def inverse(F: SpectralField) -> RealField:
    """Inverse transform back to real samples.

    The imaginary residue (roundoff for Hermitian input) is discarded after a
    sanity check; genuinely non-Hermitian coefficient sets are rejected.
    """
    g = F.grid
    raw = np.fft.ifft(F.coeffs * g.phase_signs()) / g.dx
    scale = float(np.max(np.abs(raw))) or 1.0
    # high-order multipliers amplify rounding at the top frequencies, so the
    # tolerance is loose; genuinely one-sided coefficients give O(1) residue
    if float(np.max(np.abs(raw.imag))) > 1e-6 * scale:
        raise ValueError("coefficients are not Hermitian-symmetric")
    return RealField(g, raw.real)


def synthesize_at(F: SpectralField, points: np.ndarray) -> np.ndarray:
    """Band-limited evaluation of a spectral field at arbitrary points.

    Direct Fourier sum; O(n) per point, intended for small point sets.
    """
    g = F.grid
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    # samples(x) = (1/L) * sum_q coeff[q] e^{i xi_q x}
    out = np.empty(pts.shape, dtype=float)
    for i, p in enumerate(pts):
        out[i] = np.sum(F.coeffs * np.exp(1j * g.frequencies * p)).real / g.L
    return out


@dataclass(frozen=True)
class MultiplierSpec:
    """Pointwise Fourier multiplier ``coeff_out = symbol(xi) * coeff_in``."""

    symbol: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def evaluate(self, grid: Grid) -> np.ndarray:
        vals = np.asarray(self.symbol(grid.frequencies), dtype=complex)
        if vals.shape != (grid.n,):
            vals = np.broadcast_to(vals, (grid.n,)).astype(complex)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"multiplier {self.label!r} is not finite on the grid")
        return vals


def is_real_preserving(values: np.ndarray, grid: Grid, tol: float = 1e-12) -> bool:
    """Check the Hermitian property m(-xi) = conj(m(xi)) on evaluated values."""
    n = grid.n
    idx = (-np.arange(n)) % n
    herm = np.conj(values[idx])
    scale = float(np.max(np.abs(values))) or 1.0
    if float(np.max(np.abs(values - herm))) > tol * scale:
        return False
    ny = values[grid.nyquist_slot]
    return abs(ny.imag) <= tol * scale


def apply_multiplier(spec: MultiplierSpec, f: RealField) -> RealField:
    """Apply a real-preserving multiplier to a real field."""
    vals = spec.evaluate(f.grid)
    if not is_real_preserving(vals, f.grid):
        raise ValueError(
            f"multiplier {spec.label!r} does not preserve real fields; "
            "apply it to a SpectralField instead")
    F = forward(f)
    return inverse(SpectralField(f.grid, vals * F.coeffs))


def apply_multiplier_spectral(spec: MultiplierSpec, F: SpectralField) -> SpectralField:
    vals = spec.evaluate(F.grid)
    return SpectralField(F.grid, vals * F.coeffs)


def derivative(f: RealField, order: int) -> RealField:
    """Spectral derivative of integer order; odd orders use the Nyquist rule."""
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if order == 0:
        return RealField(f.grid, f.samples.copy())
    xi = odd_frequencies(f.grid) if order % 2 == 1 else f.grid.frequencies
    sym = (1j * xi) ** order
    F = forward(f)
    return inverse(SpectralField(f.grid, sym * F.coeffs))


def frac_deriv(f: RealField, s: float, kind: str = "homogeneous") -> RealField:
    """Fractional derivative by Fourier multiplier.

    ``homogeneous`` applies ``|xi|^s`` (zero at the origin, removing the
    mean); ``inhomogeneous`` applies ``(1 + xi^2)^{s/2}``.
    """
    if s < 0:
        raise ValueError("negative-order derivatives are out of scope")
    xi = f.grid.frequencies
    if kind == "homogeneous":
        sym = np.zeros(f.grid.n)
        nz = xi != 0.0
        sym[nz] = np.abs(xi[nz]) ** s
        if s == 0.0:
            sym[~nz] = 0.0  # mean removed even at s=0 for consistency
    elif kind == "inhomogeneous":
        sym = (1.0 + xi * xi) ** (s / 2.0)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    F = forward(f)
    return inverse(SpectralField(f.grid, sym * F.coeffs))


def require_decay(f: RealField, rel: float = DECAY_GATE, what: str = "field") -> None:
    """Abort when the field's boundary amplitude exceeds ``rel * max|f|``."""
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


def _stein_truncated(f: RealField, alpha: float, m_min: int, kernel_folds: int) -> np.ndarray:
    """Trapezoid evaluation of the truncated principal-value integral.

    Integrates the even difference ``f(x+y) + f(x-y) - 2 f(x)`` against the
    periodized kernel ``sum_m |y + m L|^{-1-alpha}`` over ``|y| in
    [m_min*dx, L/2]``.  The fold tail beyond ``kernel_folds`` periods is added
    in closed form through its constant and quadratic Taylor terms (Hurwitz
    zeta sums); without those terms the quadrature stalls at O(L^{alpha-1}).
    """
    g = f.grid
    n, L, dx = g.n, g.L, g.dx
    s = f.samples
    half = n // 2
    acc = np.zeros(n)
    for m in range(m_min, half + 1):
        w = 0.5 if (m == m_min or m == half) else 1.0
        y = m * dx
        ker = y ** (-1.0 - alpha)
        for fold in range(1, kernel_folds + 1):
            ker += (fold * L + y) ** (-1.0 - alpha) + (fold * L - y) ** (-1.0 - alpha)
        acc += (w * ker) * (np.roll(s, -m) + np.roll(s, m) - 2.0 * s)
    acc *= dx
    x = g.nodes
    c0 = 2.0 * zeta(1.0 + alpha, kernel_folds + 1) / L ** (1.0 + alpha)
    c2 = (1.0 + alpha) * (2.0 + alpha) * zeta(3.0 + alpha, kernel_folds + 1) / L ** (3.0 + alpha)
    m0 = dx * np.sum(s)
    m1 = dx * np.sum(x * s)
    m2 = dx * np.sum(x * x * s)
    acc += c0 * (m0 - L * s)
    acc += c2 * ((m2 - 2.0 * x * m1 + x * x * m0) - s * L ** 3 / 12.0)
    return acc / stein_constant(alpha)


def stein_deriv(f: RealField, alpha: float, eps_seq: Sequence[float] | None = None,
                kernel_folds: int = 3) -> RealField:
    """Principal-value fractional derivative of order ``alpha`` in (0, 2).

    Each entry of ``eps_seq`` (decreasing inner cutoffs, snapped to whole grid
    cells) yields one truncated-quadrature evaluation; consecutive pairs are
    Richardson-extrapolated with the truncation exponent ``2 - alpha`` and the
    final extrapolant is returned.  A one-entry sequence returns the plain
    truncated evaluation.  Default ``eps_seq`` is ``(8*dx, 4*dx)``.

    Requires boundary decay of ``f``; agrees with
    ``frac_deriv(f, alpha, "homogeneous")`` up to quadrature error.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    require_decay(f, rel=1e-8, what="stein_deriv input")
    g = f.grid
    if eps_seq is None:
        eps_seq = (8 * g.dx, 4 * g.dx)
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
    vals = [_stein_truncated(f, alpha, m, kernel_folds) for m in ms]
    if len(vals) == 1:
        return RealField(g, vals[0])
    p = 2.0 - alpha
    out = vals[0]
    for (m1, v1), (m2, v2) in zip(zip(ms, vals), zip(ms[1:], vals[1:])):
        e1, e2 = m1 * g.dx, m2 * g.dx
        out = (v2 * e1 ** p - v1 * e2 ** p) / (e1 ** p - e2 ** p)
    return RealField(g, out)


def dealias_cutoff(n: int, k: int = 1) -> int:
    """Largest retained |q| for a degree-(k+1) product on an n-point grid."""
    return n // (k + 2)


def dealias(F: SpectralField, k: int = 1) -> SpectralField:
    """Zero all modes with ``|q| > n/(k+2)`` (2/3 rule for k=1)."""
    cut = dealias_cutoff(F.grid.n, k)
    keep = np.abs(F.grid.freq_index) <= cut
    return SpectralField(F.grid, np.where(keep, F.coeffs, 0.0))


def band_limit_check(f: RealField, max_index: int, rel: float = 1e-10) -> None:
    """Reject fields with spectral content beyond ``|q| <= max_index``."""
    F = forward(f)
    mags = np.abs(F.coeffs)
    peak = float(mags.max()) or 1.0
    outside = mags[np.abs(f.grid.freq_index) > max_index]
    if outside.size and float(outside.max()) > rel * peak:
        raise BandLimitError(
            f"field has spectral content beyond |q| = {max_index} "
            f"({float(outside.max()):.2e} vs peak {peak:.2e})")


def save_field(f: RealField, path) -> None:
    """CSV serialization: header ``n,L`` then one sample per row."""
    with open(path, "w") as fh:
        fh.write(f"{f.grid.n},{float(f.grid.L)!r}\n")
        for v in f.samples:
            fh.write(f"{float(v)!r}\n")


def load_field(path) -> RealField:
    with open(path) as fh:
        head = fh.readline().strip().split(",")
        n, L = int(head[0]), float(head[1])
        samples = np.array([float(line) for line in fh if line.strip()])
    return RealField(make_grid(n, L), samples)


def save_spectral(F: SpectralField, path) -> None:
    """CSV serialization: header ``n,L`` then ``q,re,im`` rows."""
    with open(path, "w") as fh:
        fh.write(f"{F.grid.n},{float(F.grid.L)!r}\n")
        for q, c in zip(F.grid.freq_index.astype(int), F.coeffs):
            fh.write(f"{q},{float(c.real)!r},{float(c.imag)!r}\n")


def load_spectral(path) -> SpectralField:
    with open(path) as fh:
        head = fh.readline().strip().split(",")
        n, L = int(head[0]), float(head[1])
        grid = make_grid(n, L)
        coeffs = np.zeros(n, dtype=complex)
        for line in fh:
            if not line.strip():
                continue
            qs, re, im = line.strip().split(",")
            coeffs[int(qs) % n] = float(re) + 1j * float(im)
    return SpectralField(grid, coeffs)
