"""Linear group, conjugated smoothing semigroup, and the nonlinear integrator.

The equation family is ``u_t + u^(2j+1)_x + u^k u^(j)_x = 0``.  Its linear
part is solved exactly by the unitary multiplier
``exp(i t (-1)^(j+1) xi^(2j+1))``; the full flow uses an integrating-factor
classical RK4 with the nonlinear product dealiased by the degree-dependent
rule.  The solver (``evolve``, ``duhamel_quadrature``) runs on real
half-spectra: its state is the ``n//2 + 1`` bins of ``scipy.fft.rfft``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, rfft

from .errors import SolverBlowup, UnstableConjugation
from .spectral import (Grid, RealField, SpectralField, dealias_cutoff, forward,
                       inverse, load_field, make_grid, odd_frequencies, save_field)


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
    """Phase polynomial ``(-1)^(j+1) xi^(2j+1)`` with the odd-symbol Nyquist rule."""
    xi = odd_frequencies(grid)
    sign = 1.0 if (params.j + 1) % 2 == 0 else -1.0
    return sign * xi ** (2 * params.j + 1)


def linear_flow(params: DispersionParams, t: float, u0: RealField) -> RealField:
    """Apply the unitary group at time ``t``."""
    theta = dispersion_phase(params, u0.grid)
    F = forward(u0)
    return inverse(SpectralField(u0.grid, np.exp(1j * t * theta) * F.coeffs))


def conjugated_flow(params: DispersionParams, spec: ConjugationSpec, t: float,
                    w0: RealField, growth_cap: float = 2.0) -> RealField:
    """Exponentially conjugated semigroup ``exp(-t (i xi - sigma)^(2j+1))``.

    The symbol magnitude is checked on every grid frequency before use: the
    call is rejected with :class:`UnstableConjugation` when it exceeds
    ``exp(growth_cap * |t|)`` anywhere, which catches the wrong pairing of
    weight orientation and time direction for the given parity of ``j``.  The
    default cap of 2 suits ``j`` odd; the conjugation for ``j = 2`` is a
    legitimate semigroup of type 4 and needs ``growth_cap >= 4``.
    """
    if t == 0.0:
        return RealField(w0.grid, w0.samples.copy())
    if t * spec.time_sign < 0:
        raise ValueError(f"t={t} contradicts time_sign={spec.time_sign}")
    g = w0.grid
    xi = g.frequencies
    z = (1j * xi - spec.sigma) ** (2 * params.j + 1)
    growth = -t * z.real
    if float(growth.max()) > growth_cap * abs(t):
        raise UnstableConjugation(
            f"symbol magnitude reaches exp({float(growth.max()):.3g}) > "
            f"exp({growth_cap * abs(t):.3g}); sigma={spec.sigma:+d} with this "
            f"time direction is unstable for j={params.j}")
    sym = np.exp(-t * z)
    sym[g.nyquist_slot] = sym[g.nyquist_slot].real
    F = forward(w0)
    return inverse(SpectralField(g, sym * F.coeffs))


@dataclass
class Trajectory:
    """Time-indexed field slices on one grid.

    ``cfl_phase`` records ``dt * max|theta|`` for solver outputs (a sanity
    diagnostic only: the integrating factor absorbs the linear stiffness).
    """

    grid: Grid
    times: np.ndarray
    slices: list[RealField]
    params: DispersionParams | None = None
    dt: float | None = None
    stride: int | None = None
    cfl_phase: float | None = None

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

    def stack(self) -> np.ndarray:
        """(n_times, n) array of samples."""
        return np.stack([s.samples for s in self.slices])

    def final(self) -> RealField:
        return self.slices[-1]


def _nonlinear_rhs(params: DispersionParams, grid: Grid,
                   xi_cut: float | None = None):
    """Half-spectrum evaluator of ``- F[u^k * d^j u]``, dealiased.

    States are ``rfft`` half spectra.  One real multiplier applies the
    dealias mask and the minus sign.  ``xi_cut`` optionally pins the retained
    band below the degree-dependent dealias rule, so grid-refinement studies
    compare the same truncated system.  Returns the evaluator and the
    boolean mask of retained bins.
    """
    n, k = grid.n, params.k
    half = slice(0, n // 2 + 1)
    xi = odd_frequencies(grid) if params.j % 2 == 1 else grid.frequencies
    dj = (1j * xi[half]) ** params.j
    keep = np.abs(grid.freq_index[half]) <= dealias_cutoff(n, k)
    if xi_cut is not None:
        keep &= np.abs(grid.frequencies[half]) <= xi_cut
    neg_keep = np.where(keep, -1.0, 0.0)
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
    theta = dispersion_phase(params, g)[: g.n // 2 + 1]
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
    cfl = dt * float(np.max(np.abs(theta)))
    return Trajectory(g, np.array(times), slices, params, dt, stride, cfl)


def duhamel_split(traj: Trajectory, u0: RealField,
                  params: DispersionParams | None = None) -> Trajectory:
    """Nonlinear part ``z(t) = u(t) - W(t) u0`` at every stored time."""
    params = params or traj.params
    if params is None:
        raise ValueError("dispersion parameters unavailable")
    if u0.grid != traj.grid:
        raise ValueError("datum grid differs from trajectory grid")
    theta = dispersion_phase(params, traj.grid)
    F0 = forward(u0).coeffs
    g = traj.grid
    slices = []
    for t, s in zip(traj.times, traj.slices):
        lin = inverse(SpectralField(g, np.exp(1j * t * theta) * F0))
        slices.append(RealField(g, s.samples - lin.samples))
    return Trajectory(g, traj.times.copy(), slices, params, traj.dt, traj.stride)


def duhamel_quadrature(traj: Trajectory, params: DispersionParams | None = None) -> RealField:
    """Composite-Simpson evaluation of the Duhamel integral at the final time.

    Independent cross-check of :func:`duhamel_split`: integrates
    ``W(T - t') N(u(t'))`` over the stored slices.  Needs an even number of
    uniformly spaced intervals.
    """
    params = params or traj.params
    if params is None:
        raise ValueError("dispersion parameters unavailable")
    m = len(traj) - 1
    if m < 2 or m % 2 != 0:
        raise ValueError("Simpson quadrature needs an even interval count")
    hsteps = np.diff(traj.times)
    h = float(hsteps[0])
    if not np.allclose(hsteps, h, rtol=1e-8):
        raise ValueError("stored times must be uniformly spaced")
    g = traj.grid
    theta = dispersion_phase(params, g)[: g.n // 2 + 1]
    rhs, _ = _nonlinear_rhs(params, g)
    T = float(traj.times[-1])
    acc = np.zeros(g.n // 2 + 1, dtype=complex)
    for i, (t, s) in enumerate(zip(traj.times, traj.slices)):
        w = 1.0 if i in (0, m) else (4.0 if i % 2 == 1 else 2.0)
        nh = rhs(rfft(s.samples))
        acc += w * np.exp(1j * (T - t) * theta) * nh
    acc *= h / 3.0
    return RealField(g, irfft(acc, g.n))


def save_trajectory(traj: Trajectory, directory) -> None:
    """Directory layout: ``meta.json`` plus one CSV field file per slice."""
    os.makedirs(directory, exist_ok=True)
    meta = {
        "n": traj.grid.n, "L": traj.grid.L,
        "j": traj.params.j if traj.params else None,
        "k": traj.params.k if traj.params else None,
        "dt": traj.dt, "stride": traj.stride,
        "T": float(traj.times[-1]) if len(traj) else 0.0,
        "cfl_phase": traj.cfl_phase,
        "times": [float(t) for t in traj.times],
    }
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1)
    for i, s in enumerate(traj.slices):
        save_field(s, os.path.join(directory, f"slice_{i:06d}.csv"))


def load_trajectory(directory) -> Trajectory:
    with open(os.path.join(directory, "meta.json")) as fh:
        meta = json.load(fh)
    grid = make_grid(meta["n"], meta["L"])
    times = np.array(meta["times"], dtype=float)
    slices = [load_field(os.path.join(directory, f"slice_{i:06d}.csv"))
              for i in range(times.size)]
    params = None
    if meta.get("j") is not None:
        params = DispersionParams(meta["j"], meta.get("k") or 1)
    return Trajectory(grid, times, slices, params, meta.get("dt"),
                      meta.get("stride"), meta.get("cfl_phase"))
