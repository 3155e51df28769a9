"""Linear group and the nonlinear integrator.

The equation family is ``u_t + u^(2j+1)_x + u^k u^(j)_x = 0``.  Its linear
part is solved exactly by the unitary multiplier
``exp(i t (-1)^(j+1) xi^(2j+1))``; the full flow uses an integrating-factor
classical RK4 with the nonlinear product dealiased by the degree-dependent
rule.  The linear operators run on real half spectra, the ``n//2 + 1`` bins
of ``scipy.fft.rfft``.  The solver's state is the retained band of such a
half spectrum, the bins ``0..top`` below the dealias cut; its right-hand
side transforms each stage in place in one preallocated buffer, in the
halfcomplex order that ``spectral._hc_band`` gives views of.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverBlowup
from .spectral import (Grid, RealField, _apply_half, _hc_band, _hc_forward, _hc_inverse, _power,
                       dealias_cutoff, deriv_symbol)


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


def _band_spectrum(samples: np.ndarray, top: int) -> np.ndarray:
    """Bins ``0..top`` of ``rfft(samples)``, as a new band spectrum."""
    zero, inner, _ = _hc_band(_hc_forward(samples.copy()), top)
    return np.concatenate((zero, inner))


def _band_samples(spec: np.ndarray, n: int) -> np.ndarray:
    """``irfft`` on ``n`` points of the band spectrum ``spec``, bins ``0..top``
    with every bin above them zero, as a new array."""
    a = np.empty(n)
    zero, inner, tail = _hc_band(a, spec.size - 1)
    zero[0] = spec[0].real
    inner[...] = spec[1:]
    tail[...] = 0.0
    return _hc_inverse(a)


class _BandRHS:
    """Evaluator of ``- F[u^k * d^j u]``, dealiased, on the retained band.

    The retained band is the bins ``0..top`` with ``top = dealias_cutoff(n,
    k)``, always below Nyquist; a band spectrum holds those ``top + 1`` rfft
    bins, every bin above them being zero.  ``band``, the largest retained
    ``|q|``, optionally pins ``top`` below the degree-dependent rule, so
    grid-refinement studies on a fixed ``L`` compare the same truncated
    system; a band above the rule changes nothing.

    The evaluator owns one buffer of ``n`` reals per transformed row, in
    halfcomplex order; ``spectral._hc_band`` gives its bin-0 slot, its complex
    view of bins ``1..top`` and its tail.  A call writes the stage into the
    buffer and zeroes the tail, inverts the buffer in place, forms the
    product there, transforms it forward in place and applies the multiplier
    on the band alone, writing bins ``lo..top`` (the slice ``bins`` of a band
    spectrum) into the caller's ``out``.  ``load(uh)`` makes a band spectrum
    the stage; a caller may instead write bins ``lo..top`` of a stage
    straight into ``stage``.

    For (j, k) = (1, 1) the product is taken in conservative form, ``-
    F[(u^2)_x] / 2``, which needs one inverse transform instead of two.  Its
    multiplier ``-(i xi)/2`` is exactly zero at ``xi = 0``, so bin 0 of a
    state is a constant, held from the last ``load``, and ``lo = 1``:
    ``stage`` is the buffer's own complex view of bins ``1..top``, where a
    stage is transformed as it lies.  Otherwise bin 0 moves (for j = 2, ``int
    u u_xx != 0``) and ``lo = 0``: ``stage`` is a band array that a call
    copies into row 0 of a 2-row buffer, with ``d^j u`` in row 1, and one
    transform inverts both rows.  ``dj`` and the minus sign multiply in the
    operand order of the rfft-bin products they replace, so the bits match.
    """

    def __init__(self, params: DispersionParams, grid: Grid, band: int | None = None):
        n, k = grid.n, params.k
        if band is not None and band < 0:
            raise ValueError(f"band must be >= 0, got {band}")
        self.top = dealias_cutoff(n, k) if band is None else min(band, dealias_cutoff(n, k))
        self.lo = int((params.j, k) == (1, 1))
        self.bins = slice(self.lo, self.top + 1)
        self._k = k
        self._bin0 = 0.0
        dj = deriv_symbol(grid, params.j)[self.bins]
        if self.lo:
            self._buf = np.empty(n)
            self._zero, self.stage, self._tail = _hc_band(self._buf, self.top)
            # the 1/2 of (u^2)_x / 2 and the minus sign, times i xi
            self._mult = -0.5 * dj
        else:
            self._buf = np.empty((2, n))
            self._zero, (self._row0, self._row1), self._tail = _hc_band(self._buf, self.top)
            self._dj = dj[1:]
            self.stage = np.empty(self.top + 1, dtype=complex)
            self._stage_inner = self.stage[1:]

    def load(self, uh: np.ndarray) -> None:
        """Make the band spectrum ``uh`` the stage."""
        self._bin0 = uh[0].real
        np.copyto(self.stage, uh[self.bins])

    def __call__(self, out: np.ndarray) -> np.ndarray:
        """Write bins ``lo..top`` of the stage's right-hand side into ``out``
        and return it."""
        buf, zero = self._buf, self._zero
        self._tail.fill(0.0)
        if self.lo:
            zero[0] = self._bin0
            _hc_inverse(buf)
            np.multiply(buf, buf, out=buf)
            _hc_forward(buf)
            return np.multiply(self._mult, self.stage, out=out)
        zero[0] = self.stage[0].real
        zero[1] = 0.0       # d^j u has no mean
        np.copyto(self._row0, self._stage_inner)
        np.multiply(self._dj, self._stage_inner, out=self._row1)
        _hc_inverse(buf)
        u, du = buf
        if self._k == 2:      # np.power's bits at about a quarter of its cost
            np.square(u, out=u)
        elif self._k > 1:
            np.power(u, self._k, out=u)
        np.multiply(u, du, out=u)
        _hc_forward(u)
        out[0] = -zero[0, 0]
        np.multiply(-1.0, self._row0, out=out[1:])
        return out


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
    ``band`` pins the largest retained ``|q|`` (see ``_BandRHS``); the
    default follows the grid's dealias rule.

    The state is the retained band of the datum's ``rfft`` half spectrum,
    bins ``0..top``; every slice, and the last finite state of an aborted
    run, is synthesized from it.  The phase factors, the right-hand side's
    symbols and every stage buffer are built once, on the bins ``lo..top``
    that a stage carries, before the step loop.  Stages b, c and d are formed
    in place in the right-hand side's ``stage``, with the operands of ``E (uh
    + dt/2 na)``, ``E uh + dt/2 nb``, ``E^2 uh + (dt E) nc`` and ``E^2 uh +
    dt/6 (E^2 na + (2E)(nb + nc) + nd)`` in that order (a complex product's
    last bits depend on the operand order).  A step runs 8 in-place real
    transforms.
    """
    nsteps = _steps(T, dt)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    g = u0.grid
    rhs = _BandRHS(params, g, band)
    E = _group(params, g, dt / 2.0)[rhs.bins]
    E2 = E * E
    dtE = dt * E
    twoE = 2.0 * E
    half, sixth = dt / 2.0, dt / 6.0
    # two band states, each with a view of the bins a step updates; bin 0 of
    # a conservative run is never written, so both start as the datum
    uh = _band_spectrum(u0.samples, rhs.top)
    nxt = uh.copy()
    cur, new = uh[rhs.bins], nxt[rhs.bins]
    na, nb, nc, nd, tmp, E2uh = (np.empty_like(cur) for _ in range(6))
    stage = rhs.stage

    def snapshot(spec: np.ndarray) -> RealField:
        return RealField(g, _band_samples(spec, g.n))

    times = [0.0]
    slices = [snapshot(uh)]
    # overflow here only means the state is diverging; the finiteness test
    # below raises with the surviving slices
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, nsteps + 1):
            rhs.load(uh)
            rhs(na)
            # b = E (uh + dt/2 na)
            np.multiply(half, na, out=stage)
            np.add(cur, stage, out=stage)
            np.multiply(E, stage, out=stage)
            rhs(nb)
            # c = E uh + dt/2 nb
            np.multiply(E, cur, out=stage)
            np.multiply(half, nb, out=tmp)
            stage += tmp
            rhs(nc)
            # d = E^2 uh + (dt E) nc
            np.multiply(E2, cur, out=E2uh)
            np.multiply(dtE, nc, out=stage)
            np.add(E2uh, stage, out=stage)
            rhs(nd)
            # uh = E^2 uh + dt/6 (E^2 na + (2E)(nb + nc) + nd)
            nb += nc
            np.multiply(twoE, nb, out=nb)
            np.multiply(E2, na, out=na)
            na += nb
            na += nd
            np.multiply(sixth, na, out=na)
            # into the other state: the last finite state survives a failure
            np.add(E2uh, na, out=new)
            if not np.isfinite(new.view(float)).all():
                t, max_abs = step * dt, snapshot(uh).linf()
                raise SolverBlowup(
                    f"state became non-finite at step {step} (t={t:.6g}); "
                    f"max|u| before failure {max_abs:.3e}",
                    Trajectory(g, np.array(times), slices, params, dt),
                    step=step, t=t, max_abs=max_abs)
            uh, nxt, cur, new = nxt, uh, new, cur
            if step % stride == 0 or step == nsteps:
                times.append(step * dt)
                slices.append(snapshot(uh))
    return Trajectory(g, np.array(times), slices, params, dt)

