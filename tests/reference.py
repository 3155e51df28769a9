"""Full-complex spectral reference for the oracle tests, the plain
allocating IF-RK4 loop that ``evolve`` must match bit for bit, the plain
allocating commutator that ``x_weight_commutator`` must match bit for bit,
and a brute-force quadrature of the decay probe's kernel.

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
from scipy.fft import irfft, rfft

from hkdvlab.fields import weighted
from hkdvlab.propagators import dispersion_phase, linear_flow
from hkdvlab.spectral import (DECAY_GATE, RealField, dealias_cutoff, deriv_symbol, derivative,
                              require_decay)


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


def x_weight_commutator_plain(params, t: float, u0: RealField,
                              gate: float | None = DECAY_GATE) -> float:
    """``x_weight_commutator`` written the plain way: public ``scipy.fft``
    calls, a fresh array for every intermediate, all four transforms before
    the three decay checks, the same expressions in the same operand order."""
    g = u0.grid
    x = g.nodes
    u0h = rfft(u0.samples)
    group = np.exp(1j * t * dispersion_phase(params, g))
    xu0 = weighted(u0, x)
    xwu0 = RealField(g, x * irfft(group * u0h, g.n))
    require_decay(u0, rel=gate, what="u0")
    require_decay(xu0, rel=gate, what="x*u0")
    require_decay(xwu0, rel=gate, what="x*W(t)u0")
    rhs = rfft(xu0.samples)
    rhs += (2 * params.j + 1) * t * deriv_symbol(g, 2 * params.j) * u0h
    resid = irfft(group * rhs, g.n) - xwu0.samples
    den = xwu0.l2()
    num = math.sqrt(g.dx * float(np.sum(resid ** 2)))
    return num / den if den > 0 else num


def kernel_trapezoid(j: int, t: float, env: float, x: np.ndarray, step: float,
                     reach: float = 6.0, block: int = 1 << 16) -> np.ndarray:
    """The decay probe's kernel ``int |xi|^(j-1/2) e^(i t (-1)^(j+1) xi^(2j+1)
    + i x xi - (xi/env)^2) dxi`` at the points ``x``, by brute force.

    The substitution ``xi = s|s|`` (as in ``bench/checks.py``) makes the
    integrand smooth, and it is even in ``s``, so the trapezoid rule with step
    ``step`` on ``0 <= s <= sqrt(reach * env)``, where the envelope falls to
    ``e^(-reach^2)``, gives ``K(x) = 2 int_0^inf 2 s^(2j) cos(t theta(s^2) +
    x s^2) e^(-(s^2/env)^2) ds`` with the accuracy of the whole-line rule.
    """
    sign = 1.0 if j % 2 else -1.0
    count = int(math.sqrt(reach * env) / step) + 1
    out = np.zeros(len(x))
    for i0 in range(0, count, block):
        s = step * np.arange(i0, min(i0 + block, count))
        xi = s * s
        amp = 2.0 * s ** (2 * j) * np.exp(-(xi / env) ** 2)
        phase = (sign * t) * xi ** (2 * j + 1)
        for a, xa in enumerate(x):
            out[a] += np.sum(amp * np.cos(phase + xa * xi))
    return 2.0 * step * out


def plain_ifrk4(params, u0: RealField, T: float, dt: float, stride: int = 1,
                xi_cut: float | None = None) -> tuple[list[float], list[np.ndarray]]:
    """``evolve`` written the plain way: public ``scipy.fft`` calls, a fresh
    array for every intermediate, the same expressions in the same operand
    order.  Returns the stored times and samples."""
    g = u0.grid
    n, k = g.n, params.k
    dj = deriv_symbol(g, params.j)
    keep = np.arange(n // 2 + 1) <= dealias_cutoff(n, k)
    if xi_cut is not None:
        keep &= g.xi <= xi_cut
    neg_keep = np.where(keep, -1.0, 0.0)
    mult = 0.5 * neg_keep * dj

    def rhs(uh):
        if (params.j, k) == (1, 1):
            u = irfft(uh, n)
            return mult * rfft(u * u)
        u, du = irfft(np.stack([uh, dj * uh]), n)
        return neg_keep * rfft((u ** k) * du)

    E = np.exp(1j * dispersion_phase(params, g) * (dt / 2.0))
    E2 = E * E
    uh = rfft(u0.samples)
    uh[~keep] = 0.0
    nsteps = int(round(T / dt))
    times, slices = [0.0], [irfft(uh, n)]
    for step in range(1, nsteps + 1):
        na = rhs(uh)
        b = E * (uh + (dt / 2.0) * na)
        nb = rhs(b)
        c = E * uh + (dt / 2.0) * nb
        nc = rhs(c)
        E2uh = E2 * uh
        d = E2uh + dt * E * nc
        nd = rhs(d)
        uh = E2uh + (dt / 6.0) * (E2 * na + 2.0 * E * (nb + nc) + nd)
        if step % stride == 0 or step == nsteps:
            times.append(step * dt)
            slices.append(irfft(uh, n))
    return times, slices
