"""Reusable datum constructors for tests and experiments."""

from __future__ import annotations

import numpy as np

from .spectral import Grid, RealField


def gaussian(grid: Grid, center: float = 0.0, width: float = 1.0,
             amplitude: float = 1.0) -> RealField:
    x = grid.nodes
    return RealField(grid, amplitude * np.exp(-((x - center) / width) ** 2))


def random_band_limited(grid: Grid, rng: np.random.Generator, band: int,
                        amplitude: float = 1.0, decay: float = 0.0) -> RealField:
    """Random real field supported on ``1 <= |q| <= band``.

    Coefficient magnitudes fall off like ``q**-decay``; phases are uniform.
    Zero mean by construction.
    """
    if band < 1 or band >= grid.n // 2:
        raise ValueError(f"band must lie in [1, n/2), got {band}")
    nf = grid.n // 2 + 1
    mags = np.zeros(nf)
    q = np.arange(1, band + 1)
    mags[1:band + 1] = q.astype(float) ** (-decay)
    phases = rng.uniform(0.0, 2.0 * np.pi, nf)
    half = mags * np.exp(1j * phases)
    samples = np.fft.irfft(half, grid.n)
    peak = float(np.max(np.abs(samples))) or 1.0
    return RealField(grid, samples * (amplitude / peak))


def rough_spectrum_field(grid: Grid, rng: np.random.Generator, s: float,
                         amplitude: float = 1.0, band: tuple[float, float] | None = None,
                         envelope: tuple[float, float] | None = None) -> RealField:
    """Random field with spectral tail ``|coeff| ~ (1+|xi|)^-(s+1/2)``.

    Zero mean; optional frequency band restriction and Gaussian spatial
    envelope ``(center, width)``.  The tail exponent makes the field a grid
    representative of Sobolev regularity ``s``.
    """
    nf = grid.n // 2 + 1
    xif = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.dx)
    mags = np.zeros(nf)
    mags[1:] = (1.0 + xif[1:]) ** (-(s + 0.5))
    if band is not None:
        lo, hi = band
        mags[(xif < lo) | (xif > hi)] = 0.0
    phases = rng.uniform(0.0, 2.0 * np.pi, nf)
    samples = np.fft.irfft(mags * np.exp(1j * phases), grid.n)
    if envelope is not None:
        c, w = envelope
        samples = samples * np.exp(-(((grid.nodes - c) / w) ** 2))
        samples = samples - np.mean(samples)
    peak = float(np.max(np.abs(samples))) or 1.0
    return RealField(grid, samples * (amplitude / peak))


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
    coeffs = np.zeros(grid.n, dtype=complex)
    xi0 = 2.0 * np.pi / grid.L
    for q in range(q_lo, q_hi + 1):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        c = (xi0 * q) ** (-xi_decay) * np.exp(1j * phase)
        coeffs[q] = c
        coeffs[-q] = np.conj(c)
    samples = np.fft.ifft(coeffs).real * grid.n
    if envelope is not None:
        c0, w = envelope
        samples = samples * np.exp(-(((grid.nodes - c0) / w) ** 2))
        samples = samples - np.mean(samples)
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


def scale(f: RealField, factor: float) -> RealField:
    return RealField(f.grid, factor * f.samples)


def weighted(f: RealField, weight: np.ndarray) -> RealField:
    return RealField(f.grid, f.samples * np.asarray(weight, dtype=float))
