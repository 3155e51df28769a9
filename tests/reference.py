"""Full-complex spectral reference for the oracle tests.

The package keeps one coefficient layout, the ``n//2 + 1`` bins of
``scipy.fft.rfft``.  This module keeps the independent layout the oracle
tests compare against: all ``n`` coefficients in numpy FFT order, scaled to
approximate the transform ``int f(x) e^{-i xi x} dx`` of the box-supported
function,

    coeff[q] = dx * (-1)^q * FFT(samples)[q],

so that ``sum(samples**2) * dx == sum(|coeff|**2) / L``.  The ``(-1)^q``
factor accounts for the node origin at ``x = -L/2``.
"""

from __future__ import annotations

import math

import numpy as np

from hkdvlab.fields import weighted
from hkdvlab.propagators import linear_flow
from hkdvlab.spectral import RealField, derivative


def phase_signs(grid) -> np.ndarray:
    """``(-1)^q`` in FFT order; ``n`` is even, so ``q`` has its slot's parity."""
    signs = np.ones(grid.n)
    signs[1::2] = -1.0
    return signs


def odd_frequencies(grid) -> np.ndarray:
    """FFT-order frequencies with the Nyquist mode zeroed, for odd symbols."""
    xi = grid.frequencies.copy()
    xi[grid.n // 2] = 0.0
    return xi


def full_symbol(half: np.ndarray) -> np.ndarray:
    """Hermitian extension of a symbol on the rfft bins to FFT order."""
    return np.concatenate([half[:-1], np.conj(half[:0:-1])])


def forward(f: RealField) -> np.ndarray:
    """The ``n`` coefficients ``dx * (-1)^q * FFT(samples)`` in FFT order."""
    g = f.grid
    return g.dx * phase_signs(g) * np.fft.fft(f.samples)


def inverse(grid, coeffs: np.ndarray) -> RealField:
    """Inverse of :func:`forward`.

    The imaginary residue (roundoff for Hermitian input) is discarded after a
    sanity check; genuinely non-Hermitian coefficient sets are rejected.
    """
    raw = np.fft.ifft(coeffs * phase_signs(grid)) / grid.dx
    scale = float(np.max(np.abs(raw))) or 1.0
    # high-order multipliers amplify rounding at the top frequencies, so the
    # tolerance is loose; genuinely one-sided coefficients give O(1) residue
    if float(np.max(np.abs(raw.imag))) > 1e-6 * scale:
        raise ValueError("coefficients are not Hermitian-symmetric")
    return RealField(grid, raw.real)


def scale(f: RealField, factor: float) -> RealField:
    return RealField(f.grid, factor * f.samples)


def x_weight_commutator(params, t: float, u0: RealField) -> float:
    """Relative L2 residual of ``W(t)(x u0) = x W(t) u0 - (2j+1) t W(t) u0^(2j)``
    composed from three applications of the group and one derivative, each
    its own transform pair; no boundary-decay gate."""
    x = u0.grid.nodes
    xwu0 = weighted(linear_flow(params, t, u0), x)
    lhs = linear_flow(params, t, weighted(u0, x))
    corr = linear_flow(params, t, derivative(u0, 2 * params.j))
    resid = lhs.samples - xwu0.samples + (2 * params.j + 1) * t * corr.samples
    num = math.sqrt(u0.grid.dx * float(np.sum(resid ** 2)))
    den = xwu0.l2()
    return num / den if den > 0 else num
