"""Linear group, conjugated smoothing semigroup, and the nonlinear integrator.

The equation family is ``u_t + u^(2j+1)_x + u^k u^(j)_x = 0``.  Its linear
part is solved exactly by the unitary multiplier
``exp(i t (-1)^(j+1) xi^(2j+1))``; the full flow uses an integrating-factor
classical RK4 with the nonlinear product dealiased by the degree-dependent
rule.  Every operator here runs on real half-spectra, the ``n//2 + 1`` bins
of ``scipy.fft.rfft``; the solver's state is such a half spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, rfft

from .errors import SolverBlowup, UnstableConjugation
from .spectral import (Grid, RealField, _apply_half, _context, dealias_cutoff,
                       deriv_symbol)


@dataclass(frozen=True)
class DispersionParams:
    """Equation selector: dispersion order j (equation order 2j+1), power k."""

    j: int
    k: int = 1

    def __post_init__(self):
        if self.j < 1 or self.k < 1:
            raise ValueError("j and k must be positive integers")


@dataclass(frozen=True)
class ConjugationSpec:
    """Orientation of the exponential weight and intended time direction."""

    sigma: int = 1
    time_sign: int = 1

    def __post_init__(self):
        if self.sigma not in (-1, 1) or self.time_sign not in (-1, 1):
            raise ValueError("sigma and time_sign must be +1 or -1")


def dispersion_phase(params: DispersionParams, grid: Grid) -> np.ndarray:
    """Phase ``theta`` on the rfft bins, with the odd-symbol Nyquist rule: the
    linear part is ``-(i xi)^(2j+1) = i theta``, so
    ``theta = (-1)^(j+1) xi^(2j+1)``."""
    return -deriv_symbol(grid, 2 * params.j + 1).imag


def linear_flow(params: DispersionParams, t: float, u0: RealField) -> RealField:
    """Apply the unitary group at time ``t``."""
    return _apply_half(u0, np.exp(1j * t * dispersion_phase(params, u0.grid)))


def conjugated_flow(params: DispersionParams, spec: ConjugationSpec, t: float,
                    w0: RealField) -> RealField:
    """Exponentially conjugated semigroup ``exp(-t (i xi - sigma)^(2j+1))``.

    The symbol magnitude is checked on every grid frequency before use: the
    call is rejected with :class:`UnstableConjugation` when it exceeds
    ``exp(2 |t|)`` anywhere, which catches the wrong pairing of weight
    orientation and time direction for ``j = 1``.  Every ``j >= 2`` grows
    past that bound (``j = 2``, ``sigma = -1``, ``t > 0`` is of type 4).
    """
    if t == 0.0:
        return RealField(w0.grid, w0.samples.copy())
    if t * spec.time_sign < 0:
        raise ValueError(f"t={t} contradicts time_sign={spec.time_sign}")
    g = w0.grid
    xi = _context(g).xi
    z = (1j * xi - spec.sigma) ** (2 * params.j + 1)
    growth = -t * z.real
    if float(growth.max()) > 2.0 * abs(t):
        raise UnstableConjugation(
            f"symbol magnitude reaches exp({float(growth.max()):.3g}) > "
            f"exp({2.0 * abs(t):.3g}); sigma={spec.sigma:+d} with this "
            f"time direction is unstable for j={params.j}")
    # irfft reads only the real part of the Nyquist bin
    return _apply_half(w0, np.exp(-t * z))


@dataclass
class Trajectory:
    """Time-indexed field slices on one grid."""

    grid: Grid
    times: np.ndarray
    slices: list[RealField]
    params: DispersionParams
    dt: float | None = None
    stride: int | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.slices) != self.times.size:
            raise ValueError("times and slices disagree in length")
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        for s in self.slices:
            if s.grid != self.grid:
                raise ValueError("all slices must share the trajectory grid")

    def __len__(self) -> int:
        return len(self.slices)

    def final(self) -> RealField:
        return self.slices[-1]


def _nonlinear_rhs(params: DispersionParams, grid: Grid,
                   xi_cut: float | None = None):
    """Half-spectrum evaluator of ``- F[u^k * d^j u]``, dealiased.

    States are ``rfft`` half spectra.  One real multiplier applies the
    dealias mask and the minus sign.  For (j, k) = (1, 1) the product is
    taken in conservative form, ``- F[(u^2)_x] / 2``, which needs one inverse
    transform instead of two.  ``xi_cut`` optionally pins the retained
    band below the degree-dependent dealias rule, so grid-refinement studies
    compare the same truncated system.  Returns the evaluator and the
    boolean mask of retained bins.
    """
    n, k = grid.n, params.k
    dj = deriv_symbol(grid, params.j)
    keep = np.arange(n // 2 + 1) <= dealias_cutoff(n, k)
    if xi_cut is not None:
        keep &= _context(grid).xi <= xi_cut
    neg_keep = np.where(keep, -1.0, 0.0)
    if (params.j, k) == (1, 1):
        # conservative form u u_x = (u^2)_x / 2: one inverse transform
        mult = 0.5 * neg_keep * dj

        def rhs(uh: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore"):
                u = irfft(uh, n)
                return mult * rfft(u * u)

        return rhs, keep
    # u and d^j u come back from one batched inverse transform
    pair = np.empty((2, dj.size), dtype=complex)

    def rhs(uh: np.ndarray) -> np.ndarray:
        # overflow here only means the state is diverging; evolve() detects
        # the non-finite result and raises with the surviving slices
        with np.errstate(over="ignore", invalid="ignore"):
            pair[0] = uh
            np.multiply(dj, uh, out=pair[1])
            u, du = irfft(pair, n)
            return neg_keep * rfft((u ** k) * du)

    return rhs, keep


def evolve(params: DispersionParams, u0: RealField, T: float, dt: float,
           stride: int = 1, xi_cut: float | None = None) -> Trajectory:
    """Integrate the full equation on [0, T] with integrating-factor RK4.

    ``T`` must be an integer multiple of ``dt`` (within rounding).  One slice
    is stored every ``stride`` steps, always including t=0 and t=T.  Raises
    :class:`SolverBlowup` carrying the surviving slices when the state stops
    being finite.  ``xi_cut`` pins the retained nonlinear band (see
    ``_nonlinear_rhs``); the default follows the grid's dealias rule.

    The state is the dealiased ``rfft`` half spectrum; the phase factors and
    the right-hand side's symbols are built once, before the step loop.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    nsteps = int(round(T / dt))
    if nsteps < 1 or abs(nsteps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError(f"T={T} is not an integer multiple of dt={dt}")
    g = u0.grid
    theta = dispersion_phase(params, g)
    rhs, keep = _nonlinear_rhs(params, g, xi_cut)
    E = np.exp(1j * theta * (dt / 2.0))
    E2 = E * E
    uh = rfft(u0.samples)
    uh[~keep] = 0.0

    def snapshot(coeffs: np.ndarray) -> RealField:
        return RealField(g, irfft(coeffs, g.n))

    times = [0.0]
    slices = [snapshot(uh)]
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
        if not np.all(np.isfinite(uh.view(float))):
            partial = Trajectory(g, np.array(times), slices, params, dt, stride)
            raise SolverBlowup(
                f"state became non-finite at step {step} (t={step * dt:.6g}); "
                f"max|u| before failure {slices[-1].linf():.3e}", partial)
        if step % stride == 0 or step == nsteps:
            times.append(step * dt)
            slices.append(snapshot(uh))
    return Trajectory(g, np.array(times), slices, params, dt, stride)


def duhamel_split(traj: Trajectory, u0: RealField) -> Trajectory:
    """Nonlinear part ``z(t) = u(t) - W(t) u0`` at every stored time."""
    params = traj.params
    if u0.grid != traj.grid:
        raise ValueError("datum grid differs from trajectory grid")
    g = traj.grid
    theta = dispersion_phase(params, g)
    u0h = rfft(u0.samples)
    slices = []
    for t, s in zip(traj.times, traj.slices):
        lin = irfft(np.exp(1j * t * theta) * u0h, g.n)
        slices.append(RealField(g, s.samples - lin))
    return Trajectory(g, traj.times.copy(), slices, params, traj.dt, traj.stride)


def duhamel_quadrature(traj: Trajectory) -> RealField:
    """Composite-Simpson evaluation of the Duhamel integral at the final time.

    Independent cross-check of :func:`duhamel_split`: integrates
    ``W(T - t') N(u(t'))`` over the stored slices.  Needs an even number of
    uniformly spaced intervals.
    """
    params = traj.params
    m = len(traj) - 1
    if m < 2 or m % 2 != 0:
        raise ValueError("Simpson quadrature needs an even interval count")
    hsteps = np.diff(traj.times)
    h = float(hsteps[0])
    if not np.allclose(hsteps, h, rtol=1e-8):
        raise ValueError("stored times must be uniformly spaced")
    g = traj.grid
    theta = dispersion_phase(params, g)
    rhs, _ = _nonlinear_rhs(params, g)
    T = float(traj.times[-1])
    acc = np.zeros(g.n // 2 + 1, dtype=complex)
    for i, (t, s) in enumerate(zip(traj.times, traj.slices)):
        w = 1.0 if i in (0, m) else (4.0 if i % 2 == 1 else 2.0)
        nh = rhs(rfft(s.samples))
        acc += w * np.exp(1j * (T - t) * theta) * nh
    acc *= h / 3.0
    return RealField(g, irfft(acc, g.n))

