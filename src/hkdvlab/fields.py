"""Datum constructors of the suites: Gaussians, zero-mean random fields of
prescribed spectral decay, the glued datum, reflection and weights."""

from __future__ import annotations

import numpy as np

from .spectral import Grid, RealField, _irfft


def gaussian(grid: Grid, center: float = 0.0, width: float = 1.0,
             amplitude: float = 1.0) -> RealField:
    # amplitude * exp(-((x - center) / width)**2), in place on one array
    y = grid.nodes - center
    y /= width
    y *= y
    np.exp(np.negative(y, out=y), out=y)
    y *= amplitude
    return RealField(grid, y)


def random_band_limited(grid: Grid, rng: np.random.Generator, band: int,
                        decay: float = 0.0) -> RealField:
    """Random real field supported on ``1 <= |q| <= band``, with ``max|f| = 1``.

    Coefficient magnitudes fall off like ``q**-decay``; phases are uniform.
    Zero mean by construction.
    """
    if band < 1 or band >= grid.n // 2:
        raise ValueError(f"band must lie in [1, n/2), got {band}")
    mags = np.zeros(grid.n // 2 + 1)
    q = np.arange(1, band + 1)
    mags[1:band + 1] = q.astype(float) ** (-decay)
    return _random_phases(grid, rng, mags, 1.0)


def _random_phases(grid: Grid, rng: np.random.Generator, mags: np.ndarray,
                   amplitude: float) -> RealField:
    """Field of half-spectrum magnitudes ``mags`` with uniform random phases,
    scaled to ``max|f| = |amplitude|``."""
    phases = rng.uniform(0.0, 2.0 * np.pi, mags.size)
    samples = _irfft(mags * np.exp(1j * phases), grid.n)
    peak = float(np.max(np.abs(samples))) or 1.0
    return RealField(grid, samples * (amplitude / peak))


def _enveloped_zero_mean(grid: Grid, samples: np.ndarray,
                         envelope: tuple[float, float]) -> np.ndarray:
    """``samples`` times the Gaussian ``envelope = (center, width)``, with the
    mean removed by a multiple of the envelope.

    Subtracting a constant instead would leave an offset on the whole box
    that jumps at the periodic seam ``x = +-L/2``, so the datum's spectrum
    would decay only like ``1/xi``.
    """
    c, w = envelope
    env = np.exp(-(((grid.nodes - c) / w) ** 2))
    out = samples * env
    out -= np.sum(out) / np.sum(env) * env
    return out


def rough_spectrum_field(grid: Grid, rng: np.random.Generator, s: float,
                         amplitude: float = 1.0) -> RealField:
    """Random field with spectral tail ``|coeff| ~ (1+|xi|)^-(s+1/2)``.

    Zero mean.  The tail exponent makes the field a grid representative of
    Sobolev regularity ``s``.
    """
    mags = np.zeros(grid.n // 2 + 1)
    mags[1:] = (1.0 + grid.xi[1:]) ** (-(s + 0.5))
    return _random_phases(grid, rng, mags, amplitude)


def band_noise_by_index(grid: Grid, rng: np.random.Generator, q_lo: int,
                        q_hi: int, xi_decay: float, amplitude: float = 1.0,
                        envelope: tuple[float, float] | None = None) -> RealField:
    """Random field with ``|coeff(q)| ~ xi_q^-xi_decay`` on ``q in [q_lo, q_hi]``.

    Phases are drawn in increasing-q order, so for a fixed box length the
    datum is independent of the grid resolution (refinement studies resample
    the same function).  Zero mean; optional Gaussian envelope re-centers
    mass away from the box edges.
    """
    if not 1 <= q_lo <= q_hi < grid.n // 2:
        raise ValueError("need 1 <= q_lo <= q_hi < n/2")
    coeffs = np.zeros(grid.n // 2 + 1, dtype=complex)
    xi0 = 2.0 * np.pi / grid.L
    for q in range(q_lo, q_hi + 1):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        coeffs[q] = (xi0 * q) ** (-xi_decay) * np.exp(1j * phase)
    samples = _irfft(coeffs, grid.n) * grid.n
    if envelope is not None:
        samples = _enveloped_zero_mean(grid, samples, envelope)
    peak = float(np.max(np.abs(samples))) or 1.0
    return RealField(grid, samples * (amplitude / peak))


def glued_datum(grid: Grid, rough: RealField, smooth: RealField,
                cutoff) -> RealField:
    """``(1 - chi) * rough + chi * smooth`` with ``chi`` rising left to right."""
    chi = cutoff(grid.nodes)
    return RealField(grid, (1.0 - chi) * rough.samples + chi * smooth.samples)


def reflect(f: RealField) -> RealField:
    """Spatial reflection ``u(x) -> u(-x)`` on the periodic grid."""
    n = f.grid.n
    idx = (-np.arange(n)) % n
    return RealField(f.grid, f.samples[idx])


def weighted(f: RealField, weight: np.ndarray) -> RealField:
    return RealField(f.grid, f.samples * np.asarray(weight, dtype=float))
