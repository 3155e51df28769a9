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

from .errors import SolverBlowup, UnstableConjugation
from .spectral import (Grid, RealField, _apply_half, _irfft, _power, _rfft, dealias_cutoff,
                       deriv_symbol)


@dataclass(frozen=True)
class DispersionParams:
    """Equation selector: dispersion order j (equation order 2j+1), power k."""

    j: int
    k: int = 1

    def __post_init__(self):
        if self.j < 1 or self.k < 1:
            raise ValueError("j and k must be positive integers")


def _phase(xi: np.ndarray, j: int, t: float) -> np.ndarray:
    """``t theta = t (-1)^(j+1) xi^(2j+1)`` by a multiply chain."""
    phase = _power(xi, 2 * j + 1)
    phase *= t if j % 2 else -t
    return phase


def dispersion_phase(params: DispersionParams, grid: Grid) -> np.ndarray:
    """Phase ``theta = (-1)^(j+1) xi^(2j+1)`` of the linear part
    ``-(i xi)^(2j+1) = i theta`` on the rfft bins, Nyquist zeroed."""
    theta = _phase(grid.xi, params.j, 1.0)
    theta[-1] = 0.0
    return theta


def _group(params: DispersionParams, grid: Grid, t: float) -> np.ndarray:
    """Symbol ``exp(i t theta)`` of the group ``W(t)`` on the rfft bins."""
    z = 1j * t * dispersion_phase(params, grid)
    return np.exp(z, out=z)


def linear_flow(params: DispersionParams, t: float, u0: RealField) -> RealField:
    """Apply the unitary group at time ``t``."""
    return _apply_half(u0, _group(params, u0.grid, t))


def conjugated_flow(params: DispersionParams, sigma: int, t: float,
                    w0: RealField) -> RealField:
    """Exponentially conjugated semigroup ``exp(-t (i xi - sigma)^(2j+1))``.

    The exponent's real part, ``-t Re (i xi - sigma)^(2j+1)``, leads with
    ``(-1)^j (2j+1) sigma t xi^(2j)``, so the symbol is bounded exactly when
    ``(-1)^(j+1) t sigma > 0``; its sup is then ``exp(c_j |t|)``, with
    ``c_j`` = 1, 4 and 64 for ``j`` = 1, 2 and 3.  Any other pairing of
    weight orientation and time direction raises
    :class:`UnstableConjugation`, which reports the growth the symbol
    reaches on the grid.
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
    return _apply_half(w0, np.exp(-t * z))


@dataclass
class Trajectory:
    """Time-indexed field slices on one grid."""

    grid: Grid
    times: np.ndarray
    slices: list[RealField]
    params: DispersionParams
    dt: float | None = None

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


def _nonlinear_rhs(params: DispersionParams, grid: Grid, band: int | None = None):
    """Half-spectrum evaluator of ``- F[u^k * d^j u]``, dealiased.

    States are ``rfft`` half spectra.  One real multiplier applies the
    dealias mask and the minus sign.  For (j, k) = (1, 1) the product is
    taken in conservative form, ``- F[(u^2)_x] / 2``, which needs one inverse
    transform instead of two.  ``band``, the largest retained ``|q|``,
    optionally pins the retained bins below the degree-dependent dealias
    rule, so grid-refinement studies on a fixed ``L`` compare the same
    truncated system; a band above the rule changes nothing.  Returns the
    evaluator and the boolean mask of retained bins.

    The evaluator ``rhs(uh, out)`` writes the result for the half spectrum
    ``uh`` into the caller's ``out`` and returns it; its real work buffers
    are its own, allocated here once.
    """
    n, k = grid.n, params.k
    dj = deriv_symbol(grid, params.j)
    top = dealias_cutoff(n, k)
    if band is not None:
        if band < 0:
            raise ValueError(f"band must be >= 0, got {band}")
        top = min(band, top)
    keep = np.arange(n // 2 + 1) <= top
    neg_keep = np.where(keep, -1.0, 0.0)
    if (params.j, k) == (1, 1):
        # conservative form u u_x = (u^2)_x / 2: one inverse transform
        mult = 0.5 * neg_keep * dj
        u = np.empty(n)

        def rhs(uh: np.ndarray, out: np.ndarray) -> np.ndarray:
            _irfft(uh, n, out=u)
            np.multiply(u, u, out=u)
            _rfft(u, out=out)
            return np.multiply(mult, out, out=out)

        return rhs, keep
    # u and d^j u come back from one batched inverse transform
    pair = np.empty((2, dj.size), dtype=complex)
    real = np.empty((2, n))
    u, du = real

    def rhs(uh: np.ndarray, out: np.ndarray) -> np.ndarray:
        pair[0] = uh
        np.multiply(dj, uh, out=pair[1])
        _irfft(pair, n, out=real)
        if k == 2:      # np.power's bits at about a quarter of its cost
            np.square(u, out=u)
        elif k > 1:
            np.power(u, k, out=u)
        np.multiply(u, du, out=u)
        _rfft(u, out=out)
        return np.multiply(neg_keep, out, out=out)

    return rhs, keep


def _steps(T: float, dt: float) -> int:
    """The number of steps of size ``dt`` that reach ``T``: at least one, and
    ``T`` an integer multiple of ``dt`` within rounding."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T <= 0:
        raise ValueError(f"T must be positive, got T={T}")
    nsteps = int(round(T / dt))
    if nsteps < 1:
        raise ValueError(f"dt={dt} is longer than T={T}")
    if abs(nsteps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError(f"T={T} is not an integer multiple of dt={dt}")
    return nsteps


def evolve(params: DispersionParams, u0: RealField, T: float, dt: float,
           stride: int = 1, band: int | None = None) -> Trajectory:
    """Integrate the full equation on [0, T] with integrating-factor RK4.

    ``T`` must be an integer multiple of ``dt`` (within rounding).  One slice
    is stored every ``stride`` steps, always including t=0 and t=T.  Raises
    :class:`SolverBlowup` carrying the surviving slices, and the step, time
    and max|u| of the last finite step, when the state stops being finite.
    ``band`` pins the largest retained ``|q|`` (see ``_nonlinear_rhs``); the
    default follows the grid's dealias rule.

    The state is the dealiased ``rfft`` half spectrum; the phase factors, the
    right-hand side's symbols and every stage buffer are built once, before
    the step loop, and each stage is formed in place with the operands of
    ``E (uh + dt/2 na)``, ``E uh + dt/2 nb``, ``E^2 uh + (dt E) nc`` and
    ``E^2 uh + dt/6 (E^2 na + (2E)(nb + nc) + nd)`` in that order (a complex
    product's last bits depend on the operand order).
    """
    nsteps = _steps(T, dt)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    g = u0.grid
    rhs, keep = _nonlinear_rhs(params, g, band)
    E = _group(params, g, dt / 2.0)
    E2 = E * E
    dtE = dt * E
    twoE = 2.0 * E
    half, sixth = dt / 2.0, dt / 6.0
    uh = _rfft(u0.samples)
    uh[~keep] = 0.0
    na, nb, nc, nd, stage, tmp, E2uh = (np.empty_like(uh) for _ in range(7))

    def snapshot(coeffs: np.ndarray) -> RealField:
        return RealField(g, _irfft(coeffs, g.n))

    times = [0.0]
    slices = [snapshot(uh)]
    # overflow here only means the state is diverging; the finiteness test
    # below raises with the surviving slices
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, nsteps + 1):
            rhs(uh, na)
            # b = E (uh + dt/2 na)
            np.multiply(half, na, out=stage)
            np.add(uh, stage, out=stage)
            np.multiply(E, stage, out=stage)
            rhs(stage, nb)
            # c = E uh + dt/2 nb
            np.multiply(E, uh, out=stage)
            np.multiply(half, nb, out=tmp)
            stage += tmp
            rhs(stage, nc)
            # d = E^2 uh + (dt E) nc
            np.multiply(E2, uh, out=E2uh)
            np.multiply(dtE, nc, out=stage)
            np.add(E2uh, stage, out=stage)
            rhs(stage, nd)
            # uh = E^2 uh + dt/6 (E^2 na + (2E)(nb + nc) + nd)
            nb += nc
            np.multiply(twoE, nb, out=nb)
            np.multiply(E2, na, out=na)
            na += nb
            na += nd
            np.multiply(sixth, na, out=na)
            # into the free stage buffer: the last finite state survives a failure
            np.add(E2uh, na, out=stage)
            if not np.all(np.isfinite(stage.view(float))):
                t, max_abs = step * dt, snapshot(uh).linf()
                raise SolverBlowup(
                    f"state became non-finite at step {step} (t={t:.6g}); "
                    f"max|u| before failure {max_abs:.3e}",
                    Trajectory(g, np.array(times), slices, params, dt),
                    step=step, t=t, max_abs=max_abs)
            uh, stage = stage, uh
            if step % stride == 0 or step == nsteps:
                times.append(step * dt)
                slices.append(snapshot(uh))
    return Trajectory(g, np.array(times), slices, params, dt)


def duhamel_split(traj: Trajectory, u0: RealField) -> Trajectory:
    """Nonlinear part ``z(t) = u(t) - W(t) u0`` at every stored time."""
    params = traj.params
    if u0.grid != traj.grid:
        raise ValueError("datum grid differs from trajectory grid")
    slices = [RealField(traj.grid, s.samples - linear_flow(params, t, u0).samples)
              for t, s in zip(traj.times, traj.slices)]
    return Trajectory(traj.grid, traj.times.copy(), slices, params, traj.dt)


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
    rhs, _ = _nonlinear_rhs(params, g)
    T = float(traj.times[-1])
    acc = np.zeros(g.n // 2 + 1, dtype=complex)
    nh = np.empty_like(acc)
    for i, (t, s) in enumerate(zip(traj.times, traj.slices)):
        w = 1.0 if i in (0, m) else (4.0 if i % 2 == 1 else 2.0)
        rhs(_rfft(s.samples), nh)
        acc += w * _group(params, g, T - t) * nh
    acc *= h / 3.0
    return RealField(g, _irfft(acc, g.n))

