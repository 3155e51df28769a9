"""Full-complex spectral reference for the oracle tests, the plain
allocating IF-RK4 loop that ``evolve`` must match bit for bit and its
right-hand side ``plain_rhs``, the Duhamel split and its Simpson quadrature
over ``plain_rhs``, the conjugated semigroup ``conjugated_flow``, the plain
allocating commutator that ``x_weight_commutator`` must match bit for bit,
the solver's right-hand side read out as a rfft half spectrum, a
brute-force quadrature of the decay probe's kernel, the running-product
synthesis that the probe's phase-table synthesis replaced, the bounds that
size the probe's contour panels, the exact Talbot sum of the linear group
at rational times, and the cutoff ramp's closed-form ``cutoff_derivative``.

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
from types import SimpleNamespace

import numpy as np
from scipy.fft import irfft, rfft

from hkdvlab.fields import weighted
from hkdvlab.propagators import _BandRHS, Trajectory, dispersion_phase, linear_flow
from hkdvlab.spectral import (DECAY_GATE, RealField, dealias_cutoff, deriv_symbol, derivative,
                              require_decay)


def phase_signs(grid) -> np.ndarray:
    """``(-1)^q`` in FFT order; ``n`` is even, so ``q`` has its slot's parity."""
    signs = np.ones(grid.n)
    signs[1::2] = -1.0
    return signs


def frequencies(grid) -> np.ndarray:
    """``xi_q = 2*pi*q/L`` in numpy FFT order."""
    return (2.0 * np.pi / grid.L) * grid.freq_index


def odd_frequencies(grid) -> np.ndarray:
    """FFT-order frequencies with the Nyquist mode zeroed, for odd symbols."""
    xi = frequencies(grid)
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


def retained_bins(params, grid, band=None) -> np.ndarray:
    """The mask of the ``n//2 + 1`` rfft bins that ``evolve`` retains: the
    band ``0..top`` of its right-hand side."""
    return np.arange(grid.n // 2 + 1) <= _BandRHS(params, grid, band).top


def band_rhs(params, grid, uh: np.ndarray, band=None) -> tuple[np.ndarray, np.ndarray]:
    """The solver's right-hand side at the rfft half spectrum ``uh`` as a
    half spectrum, zero above the retained band, and the mask of retained
    bins; ``uh``'s bins above the band are not read."""
    rhs = _BandRHS(params, grid, band)
    keep = np.arange(grid.n // 2 + 1) <= rhs.top
    out = np.zeros(grid.n // 2 + 1, dtype=complex)
    rhs.load(uh[keep])
    rhs(out[rhs.bins])
    return out, keep


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


def kernel_window_running_product(dx: float, m: int, xi: np.ndarray, weight: np.ndarray,
                                  chunk: int = 64) -> np.ndarray:
    """``2 Re sum weight e^(i x_k xi)`` on ``x_k = (k - m) dx``, ``0 <= k <= 2m``,
    the earlier way: per block of ``chunk`` nodes an exact seed ``e^(i x_k0
    xi) weight``, then ``chunk - 1`` running-product rows, reduced by row sums."""
    step = np.exp((1j * dx) * xi)
    kern = np.empty(2 * m + 1)
    rows = np.empty((chunk, xi.size), dtype=complex)
    for k0 in range(0, kern.size, chunk):
        block = rows[:min(chunk, kern.size - k0)]
        np.multiply(np.exp((1j * (k0 - m) * dx) * xi), weight, out=block[0])
        block[1:] = step
        np.cumprod(block, axis=0, out=block)
        kern[k0:k0 + block.shape[0]] = block.real.sum(axis=1)
    return 2.0 * kern


def contour_bounds(j: int, t: float, env: float) -> SimpleNamespace:
    """The decay contour's geometry and its panel bounds, written from the
    formulas of ``identities._contour``'s docstring.

    The window's worst node sits at ``|x| = reach = m dx``, with ``dx = pi /
    (3.2 env)`` and ``m = int(24 t^(1/(2j+1)) / dx)``; the segment ``xi = u^2``
    ends at ``r0 = 1.3 (reach / ((2j+1) t))^(1/(2j))``, where the ray ``xi = r0
    + s e^(i phi)``, ``phi = (-1)^(j+1) pi / (2(2j+1))``, starts.  ``segment(u)``
    and ``ray(s)`` bound the change of the exponent ``i t theta(xi) + i x xi -
    (xi/env)^2`` over ``[0, u]`` and ``[0, s]``; ``level(s)`` is the log of the
    worst node's integrand ``|xi^(j-1/2) e^(...)|`` on the ray.
    """
    p = 2 * j + 1
    dx = math.pi / (3.2 * env)
    reach = max(1, int(24.0 * t ** (1.0 / p) / dx)) * dx
    r0 = 1.3 * (reach / (p * t)) ** (1.0 / (2 * j))
    phi = (1 if j % 2 else -1) * math.pi / (2 * p)
    sign = 1.0 if j % 2 else -1.0

    def segment(u):
        return t * u ** (2 * p) + reach * u ** 2 + u ** 4 / env ** 2

    def ray(s):
        return (t * ((r0 + s) ** p - r0 ** p) + reach * s
                + ((r0 + s) ** 2 - r0 ** 2) / env ** 2)

    def level(s):
        z = r0 + np.asarray(s) * complex(math.cos(phi), math.sin(phi))
        return (-sign * t * (z ** p).imag + reach * abs(math.sin(phi)) * np.asarray(s)
                - (z ** 2).real / env ** 2 + (j - 0.5) * np.log(np.abs(z)))

    return SimpleNamespace(phi=phi, segment=segment, ray=ray, level=level)


def panel_ends(nodes: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ends ``a, b`` of each composite Gauss-Legendre panel, recovered from
    its ``count`` nodes ``a + (b - a)(1 + z) / 2`` by the rule's first and last
    node ``z``."""
    z = np.polynomial.legendre.leggauss(count)[0]
    blocks = np.asarray(nodes).reshape(-1, count)
    half = (blocks[:, -1] - blocks[:, 0]) / (z[-1] - z[0])
    a = blocks[:, 0] - half * (1.0 + z[0])
    return a, a + 2.0 * half


def talbot_flow(u0: RealField, j: int, P: int, Q: int) -> np.ndarray:
    """``W(t) u0`` at ``t = 2 pi P / Q`` on a box of length ``2 pi``, exactly.

    With ``L = 2 pi`` the frequencies are the integers ``q``, and ``e^(i t
    theta(q))``, ``theta(q) = (-1)^(j+1) q^(2j+1)``, depends only on ``q mod
    Q``.  So ``W(t) u0 = sum_(r<Q) c_r u0(x - 2 pi r / Q)`` with ``c_r = Q^-1
    sum_(a<Q) e^(2 pi i ((-1)^(j+1) P a^(2j+1) + a r) / Q)``, whose residues
    come from ``pow(a, 2j+1, Q)`` in exact integers.  ``c_r`` is real, since
    ``theta`` is odd.  ``Q`` divides ``n``, so each translate is an exact
    ``np.roll`` by ``r n / Q`` nodes.  Exact for data with a zero Nyquist bin.
    """
    g = u0.grid
    if not math.isclose(g.L, 2.0 * math.pi, rel_tol=1e-15) or g.n % Q:
        raise ValueError("talbot_flow needs L = 2 pi and Q dividing n")
    sign = 1 if j % 2 else -1
    out = np.zeros(g.n)
    for r in range(Q):
        residues = [(sign * P * pow(a, 2 * j + 1, Q) + a * r) % Q for a in range(Q)]
        c = math.fsum(math.cos(2.0 * math.pi * m / Q) for m in residues) / Q
        out += c * np.roll(u0.samples, r * (g.n // Q))
    return out


def plain_rhs(params, grid, band: int | None = None):
    """The solver's right-hand side on rfft half spectra, written the plain
    way like ``plain_ifrk4``, and the mask of retained bins, off which the
    right-hand side is zero."""
    n, k = grid.n, params.k
    dj = deriv_symbol(grid, params.j)
    keep = np.arange(n // 2 + 1) <= dealias_cutoff(n, k)
    if band is not None:
        keep &= np.arange(n // 2 + 1) <= band
    neg_keep = np.where(keep, -1.0, 0.0)
    mult = 0.5 * neg_keep * dj

    def rhs(uh):
        if (params.j, k) == (1, 1):
            u = irfft(uh, n)
            return mult * rfft(u * u)
        u, du = irfft(np.stack([uh, dj * uh]), n)
        return neg_keep * rfft((u ** k) * du)

    return rhs, keep


def plain_ifrk4(params, u0: RealField, T: float, dt: float, stride: int = 1,
                band: int | None = None) -> tuple[list[float], list[np.ndarray]]:
    """``evolve`` written the plain way: public ``scipy.fft`` calls, a fresh
    array for every intermediate, the same expressions in the same operand
    order.  Returns the stored times and samples."""
    g = u0.grid
    n = g.n
    rhs, keep = plain_rhs(params, g, band)
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


def duhamel_split(traj: Trajectory, u0: RealField) -> Trajectory:
    """Nonlinear part ``z(t) = u(t) - W(t) u0`` at every stored time."""
    if u0.grid != traj.grid:
        raise ValueError("datum grid differs from trajectory grid")
    slices = [RealField(traj.grid, s.samples - linear_flow(traj.params, t, u0).samples)
              for t, s in zip(traj.times, traj.slices)]
    return Trajectory(traj.grid, traj.times.copy(), slices, traj.params, traj.dt)


def duhamel_quadrature(traj: Trajectory) -> RealField:
    """Composite-Simpson Duhamel integral ``int W(T - t') N(u(t')) dt'`` over
    the stored slices, each cut to the retained band, with ``plain_rhs``: the
    cross-check of :func:`duhamel_split`.  Needs an even number of uniformly
    spaced intervals."""
    params, g = traj.params, traj.grid
    m = len(traj) - 1
    if m < 2 or m % 2 != 0:
        raise ValueError("Simpson quadrature needs an even interval count")
    hsteps = np.diff(traj.times)
    h = float(hsteps[0])
    if not np.allclose(hsteps, h, rtol=1e-8):
        raise ValueError("stored times must be uniformly spaced")
    rhs, keep = plain_rhs(params, g)
    theta, T = dispersion_phase(params, g), float(traj.times[-1])
    acc = np.zeros(g.n // 2 + 1, dtype=complex)
    for i, (t, s) in enumerate(zip(traj.times, traj.slices)):
        w = 1.0 if i in (0, m) else (4.0 if i % 2 == 1 else 2.0)
        acc += w * np.exp(1j * (T - t) * theta) * rhs(np.where(keep, rfft(s.samples), 0.0))
    return RealField(g, irfft(acc * (h / 3.0), g.n))


class UnstableConjugation(Exception):
    """``conjugated_flow`` called with a growing symbol."""


def conjugated_flow(params, sigma: int, t: float, w0: RealField) -> RealField:
    """Exponentially conjugated semigroup ``exp(-t (i xi - sigma)^(2j+1))``.

    The exponent's real part leads with ``(-1)^j (2j+1) sigma t xi^(2j)``,
    so the symbol is bounded exactly when ``(-1)^(j+1) t sigma > 0``; its sup
    is then ``exp(c_j |t|)``, with ``c_j`` = 1, 4 and 64 for ``j`` = 1, 2 and
    3.  Any other pairing raises :class:`UnstableConjugation`, which reports
    the growth the symbol reaches on the grid.
    """
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +1 or -1")
    if t == 0.0:
        return RealField(w0.grid, w0.samples.copy())
    z = (1j * w0.grid.xi - sigma) ** (2 * params.j + 1)
    if (-1) ** (params.j + 1) * t * sigma < 0:
        growth = float((-t * z.real).max())
        raise UnstableConjugation(
            f"symbol magnitude reaches exp({growth:.3g}) on this grid and grows "
            f"without bound in xi; sigma={sigma:+d} with t={t} is unstable "
            f"for j={params.j}")
    # irfft reads only the real part of the Nyquist bin
    return RealField(w0.grid, irfft(np.exp(-t * z) * rfft(w0.samples), w0.grid.n))


def _bump(s: np.ndarray, order: int) -> np.ndarray:
    """Derivative of order 0, 1 or 2 of ``exp(-1/(s(1-s)))`` on (0, 1), zero outside."""
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    p = si * (1.0 - si)
    rho = np.exp(-1.0 / p)
    gp = (2.0 * si - 1.0) / p ** 2
    if order == 1:
        rho = -gp * rho
    elif order == 2:
        rho = (gp * gp - (2.0 / p ** 2 + 2.0 * (2.0 * si - 1.0) ** 2 / p ** 3)) * rho
    out[inside] = rho
    return out


def cutoff_derivative(eps: float, b: float, x, order: int) -> np.ndarray:
    """Derivative of order 1, 2 or 3 of ``CutoffFunction(eps, b)`` in closed form: the
    bump's derivative of order ``order - 1`` at ``(x - eps)/(b - eps)`` over
    ``Z (b - eps)^order``, ``Z`` the ramp's 20,001-point trapezoid integral of the bump."""
    assert order in (1, 2, 3), order
    s = np.linspace(0.0, 1.0, 20001)
    rho = _bump(s, 0)
    z = float(np.cumsum((rho[1:] + rho[:-1]) * 0.5 * np.diff(s))[-1])
    unit = (np.asarray(x, dtype=float) - eps) / (b - eps)
    return _bump(unit, order - 1) / (z * (b - eps) ** order)
