import math

import numpy as np
import pytest
from scipy.fft import irfft, rfft

import hkdvlab.fields as fields
import reference
from hkdvlab.errors import SolverBlowup, UnstableConjugation
from hkdvlab.propagators import (ConjugationSpec, DispersionParams, Trajectory,
                                 _nonlinear_rhs, conjugated_flow, dispersion_phase,
                                 duhamel_quadrature, duhamel_split, evolve,
                                 linear_flow)
from hkdvlab.spectral import RealField, dealias_cutoff, derivative, make_grid

KDV = DispersionParams(1, 1)


class TestParams:
    @pytest.mark.parametrize("j,k", [(0, 1), (1, 0)])
    def test_nonpositive_orders_rejected(self, j, k):
        with pytest.raises(ValueError, match="positive"):
            DispersionParams(j, k)

    def test_conjugation_signs_must_be_unit(self):
        for kw in ({"sigma": 0}, {"time_sign": 2}):
            with pytest.raises(ValueError, match="must be"):
                ConjugationSpec(**kw)


class TestDispersionPhase:
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_phase_polynomial(self, j):
        # theta = (-1)^(j+1) xi^(2j+1) on the rfft bins, Nyquist zeroed like
        # every odd symbol
        g = make_grid(128, 2 * math.pi)
        xi = reference.odd_frequencies(g)[: g.n // 2 + 1]
        expect = (-1) ** (j + 1) * xi ** (2 * j + 1)
        got = dispersion_phase(DispersionParams(j), g)
        assert np.allclose(got, expect, rtol=1e-13, atol=0.0)


class TestLinearFlow:
    def test_time_zero_is_identity(self, grid, rng):
        u0 = fields.random_band_limited(grid, rng, band=50)
        out = linear_flow(DispersionParams(2), 0.0, u0)
        assert np.allclose(out.samples, u0.samples, atol=1e-15)

    def test_single_mode_dispersion_relation(self):
        # u_t + u_xxx = 0: cos(kx) -> cos(kx + k^3 t)
        g = make_grid(128, 2 * math.pi)
        k, t = 4, 0.3
        u0 = RealField(g, np.cos(k * g.nodes))
        out = linear_flow(KDV, t, u0)
        assert np.allclose(out.samples, np.cos(k * g.nodes + k ** 3 * t), atol=1e-12)

    def test_unitarity_on_random_data(self, rng):
        g = make_grid(1024, 200.0)
        u0 = fields.random_band_limited(g, rng, band=g.n // 2 - 1, decay=0.0)
        for j in (1, 2, 3):
            for t in (0.1, 1.0, 10.0):
                wt = linear_flow(DispersionParams(j), t, u0)
                assert abs(wt.l2() - u0.l2()) < 1e-12 * u0.l2()

    def test_group_law(self, rng):
        # dispersive phases must stay within float resolution for 1e-12 checks
        g = make_grid(1024, 1100.0)
        u0 = fields.random_band_limited(g, rng, band=g.n // 2 - 1, decay=0.0)
        for j in (1, 2, 3):
            p = DispersionParams(j)
            a = linear_flow(p, 0.3, linear_flow(p, 0.2, u0))
            b = linear_flow(p, 0.5, u0)
            assert np.max(np.abs(a.samples - b.samples)) < 1e-12 * u0.linf()


class TestConjugatedFlow:
    @pytest.fixture
    def w0(self, fine_grid):
        x = fine_grid.nodes
        return RealField(fine_grid, np.exp(x) * np.exp(-2.0 * x ** 2))

    def test_time_zero_identity(self, w0):
        out = conjugated_flow(KDV, ConjugationSpec(1, 1), 0.0, w0)
        assert np.array_equal(out.samples, w0.samples)

    def test_decay_ratio_bounded(self, w0):
        # || d^l w(t) || * t^(l/2) * e^(-t) / ||w0|| stays O(1) on [0.05, 1]
        spec = ConjugationSpec(1, 1)
        for ell in range(5):
            ratios = []
            for t in (0.05, 0.1, 0.2, 0.5, 1.0):
                wt = conjugated_flow(KDV, spec, t, w0)
                ratios.append(derivative(wt, ell).l2() * t ** (ell / 2.0)
                              * math.exp(-t) / w0.l2())
            assert max(ratios) < 5.0
            assert min(ratios) > 0.0

    def test_inverted_time_sign_unstable(self, w0):
        with pytest.raises(UnstableConjugation):
            conjugated_flow(KDV, ConjugationSpec(1, -1), -0.5, w0)

    def test_sign_mismatch_rejected(self, w0):
        with pytest.raises(ValueError, match="time_sign"):
            conjugated_flow(KDV, ConjugationSpec(1, 1), -0.5, w0)

    @pytest.mark.parametrize("j", [2, 3])
    def test_orders_above_one_rejected(self, w0, j):
        # the growth exceeds 2|t| in every pairing; j = 2 with sigma = -1 and
        # t > 0 is a semigroup of type 4
        for sigma in (1, -1):
            for time_sign in (1, -1):
                with pytest.raises(UnstableConjugation):
                    conjugated_flow(DispersionParams(j), ConjugationSpec(sigma, time_sign),
                                    0.3 * time_sign, w0)


class TestEvolve:
    def test_zero_datum(self):
        g = make_grid(64, 20.0)
        traj = evolve(KDV, RealField(g, np.zeros(g.n)), 0.1, 1e-2)
        assert all(np.all(s.samples == 0) for s in traj.slices)

    def test_fourth_order_self_convergence(self):
        g = make_grid(128, 40.0)
        u0 = fields.gaussian(g, width=1.5, amplitude=1.5)
        sols = {}
        for dt in (4e-3, 2e-3, 1e-3):
            sols[dt] = evolve(KDV, u0, 1.0, dt, stride=10 ** 9).final().samples
        e1 = np.linalg.norm(sols[4e-3] - sols[2e-3])
        e2 = np.linalg.norm(sols[2e-3] - sols[1e-3])
        assert 14.0 <= e1 / e2 <= 18.0

    def test_linear_limit(self):
        g = make_grid(128, 40.0)
        u0 = fields.gaussian(g, width=1.5, amplitude=1e-8)
        traj = evolve(KDV, u0, 0.5, 1e-3, stride=10 ** 9)
        lin = linear_flow(KDV, 0.5, u0)
        rel = (np.linalg.norm(traj.final().samples - lin.samples)
               / np.linalg.norm(lin.samples))
        assert rel < 1e-8

    @pytest.mark.parametrize("k,expect", [(1, 4.0), (2, 8.0)])
    def test_nonlinear_error_scales_with_power(self, k, expect):
        # || u(T) - W(T)u0 || ~ amplitude^(k+1); datum inside the dealias band
        # so the mask does not clip it
        g = make_grid(128, 40.0)
        p = DispersionParams(1, k)
        r = np.random.default_rng(3)
        shape = fields.random_band_limited(g, r, band=g.n // 8, decay=1.0)
        errs = []
        for amp in (0.05, 0.1):
            u0 = reference.scale(shape, amp)
            traj = evolve(p, u0, 0.25, 1e-3, stride=10 ** 9)
            lin = linear_flow(p, 0.25, u0)
            errs.append(np.linalg.norm(traj.final().samples - lin.samples))
        ratio = errs[1] / errs[0]
        assert expect * 0.9 < ratio < expect * 1.1

    def test_blowup_detected_with_partial(self):
        g = make_grid(128, 10.0)
        u0 = fields.gaussian(g, width=1.0, amplitude=50.0)
        with pytest.raises(SolverBlowup) as exc:
            evolve(KDV, u0, 2.0, 0.05, stride=1)
        assert exc.value.partial is not None
        assert len(exc.value.partial) >= 1

    def test_dt_must_divide(self):
        g = make_grid(64, 20.0)
        with pytest.raises(ValueError, match="multiple"):
            evolve(KDV, fields.gaussian(g), 1.0, 0.3)

    def test_nonpositive_dt_rejected(self):
        g = make_grid(64, 20.0)
        with pytest.raises(ValueError, match="positive"):
            evolve(KDV, fields.gaussian(g), 1.0, 0.0)

    def test_stride_keeps_both_endpoints(self):
        g = make_grid(64, 20.0)
        traj = evolve(KDV, fields.gaussian(g, amplitude=0.1), 1.0, 0.1, stride=3)
        assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], rtol=0.0, atol=1e-12)
        assert (traj.params, traj.dt, traj.stride) == (KDV, 0.1, 3)


class TestDuhamel:
    @pytest.fixture
    def setup(self):
        g = make_grid(256, 60.0)
        u0 = fields.gaussian(g, width=2.0, amplitude=1.0)
        traj = evolve(KDV, u0, 0.5, 1e-3, stride=5)
        return g, u0, traj

    def test_zero_at_time_zero(self, setup):
        _, u0, traj = setup
        z = duhamel_split(traj, u0)
        assert np.max(np.abs(z.slices[0].samples)) < 1e-14

    def test_linear_limit_vanishes(self):
        g = make_grid(128, 40.0)
        u0 = fields.gaussian(g, width=1.5, amplitude=1e-8)
        traj = evolve(KDV, u0, 0.2, 1e-3, stride=10 ** 9)
        z = duhamel_split(traj, u0)
        assert z.final().l2() < 1e-8 * u0.l2()

    def test_subtraction_matches_quadrature(self, setup):
        _, u0, traj = setup
        z = duhamel_split(traj, u0)
        zq = duhamel_quadrature(traj)
        rel = (np.linalg.norm(z.final().samples - zq.samples)
               / np.linalg.norm(z.final().samples))
        assert rel < 1e-5

    def test_grid_mismatch_rejected(self, setup):
        _, _, traj = setup
        other = fields.gaussian(make_grid(128, 60.0))
        with pytest.raises(ValueError, match="grid"):
            duhamel_split(traj, other)

    def test_quadrature_needs_even_uniform_intervals(self):
        g = make_grid(64, 20.0)
        f = fields.gaussian(g)
        odd = Trajectory(g, np.array([0.0, 0.1, 0.2, 0.3]), [f] * 4, KDV)
        with pytest.raises(ValueError, match="even"):
            duhamel_quadrature(odd)
        uneven = Trajectory(g, np.array([0.0, 0.1, 0.3]), [f] * 3, KDV)
        with pytest.raises(ValueError, match="uniformly"):
            duhamel_quadrature(uneven)


class TestTrajectory:
    def test_times_must_increase(self):
        g = make_grid(64, 20.0)
        f = fields.gaussian(g)
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(g, np.array([0.0, 0.0]), [f, f], KDV)

    def test_slices_must_match_times_and_grid(self):
        g = make_grid(64, 20.0)
        f = fields.gaussian(g)
        with pytest.raises(ValueError, match="length"):
            Trajectory(g, np.array([0.0, 1.0]), [f], KDV)
        other = fields.gaussian(make_grid(128, 20.0))
        with pytest.raises(ValueError, match="grid"):
            Trajectory(g, np.array([0.0, 1.0]), [f, other], KDV)

    def test_len_and_final(self):
        g = make_grid(64, 20.0)
        f = fields.gaussian(g)
        h = reference.scale(f, 2.0)
        traj = Trajectory(g, [0.0, 0.5], [f, h], KDV)
        assert len(traj) == 2
        assert traj.final() is h


class TestBandPinning:
    def test_xi_cut_freezes_truncation_across_grids(self):
        # same retained band on n and 2n gives matching Galerkin dynamics
        L, T, dt = 60.0, 0.2, 1e-3
        finals = {}
        for n in (128, 256):
            g = make_grid(n, L)
            x = g.nodes
            u0 = RealField(g, 0.8 * np.exp(-((x + 3.0) / 2.0) ** 2))
            xi_cut = 2 * np.pi * (128 // 3) / L
            traj = evolve(KDV, u0, T, dt, stride=10 ** 9, xi_cut=xi_cut)
            finals[n] = traj.final()
        coarse = finals[128].samples
        fine = finals[256].samples[::2]
        assert np.linalg.norm(fine - coarse) < 1e-9 * np.linalg.norm(coarse)


def _reference_ifrk4(params, u0, T, dt, xi_cut=None):
    """IF-RK4 on full complex spectra, written out apart from ``evolve``."""
    g = u0.grid
    xi, xi_odd = g.frequencies, reference.odd_frequencies(g)
    theta = (-1.0) ** (params.j + 1) * xi_odd ** (2 * params.j + 1)
    dj = (1j * (xi_odd if params.j % 2 else xi)) ** params.j
    keep = np.abs(g.freq_index) <= dealias_cutoff(g.n, params.k)
    if xi_cut is not None:
        keep &= np.abs(xi) <= xi_cut

    def rhs(uh):
        u = np.fft.ifft(uh).real
        du = np.fft.ifft(dj * uh).real
        return -np.where(keep, np.fft.fft(u ** params.k * du), 0.0)

    E = np.exp(1j * theta * (dt / 2.0))
    uh = np.where(keep, np.fft.fft(u0.samples), 0.0)
    for _ in range(int(round(T / dt))):
        na = rhs(uh)
        nb = rhs(E * (uh + dt / 2.0 * na))
        nc = rhs(E * uh + dt / 2.0 * nb)
        nd = rhs(E * E * uh + dt * E * nc)
        uh = E * E * uh + dt / 6.0 * (E * E * na + 2.0 * E * (nb + nc) + nd)
    return np.fft.ifft(uh).real


class TestAgainstComplexReference:
    """``evolve`` on rfft half spectra against the full complex-FFT scheme."""

    @pytest.mark.parametrize("j,k,xi_cut", [(1, 1, None), (1, 2, None),
                                            (2, 1, None), (1, 1, 2.0)])
    def test_matches_reference(self, j, k, xi_cut):
        g = make_grid(256, 60.0)
        x = g.nodes
        u0 = RealField(g, np.exp(-(x / 2.0) ** 2)
                       + 0.5 * np.sin(x) * np.exp(-(x / 4.0) ** 2))
        p = DispersionParams(j, k)
        T, dt = 0.05, 1e-3
        traj = evolve(p, u0, T, dt, stride=10, xi_cut=xi_cut)
        ref = _reference_ifrk4(p, u0, T, dt, xi_cut)
        got = traj.final().samples
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        # the nonlinear part is far above the tolerance
        lin = linear_flow(p, T, u0).samples
        assert np.max(np.abs(got - lin)) > 1e-3 * np.max(np.abs(ref))
        if j == 1:
            # the truncated j = 1 system conserves the mean and the L2 mass
            mean0, mass0 = traj.slices[0].samples.sum(), traj.slices[0].l2()
            for s in traj.slices[1:]:
                assert abs(s.samples.sum() - mean0) <= 1e-12 * abs(mean0)
                assert abs(s.l2() - mass0) <= 1e-12 * mass0


class TestConservativeRHS:
    """The (1, 1) right-hand side ``-(u^2)_x / 2`` against the product form."""

    @staticmethod
    def _product_rhs(g, uh, keep):
        xi = 2.0 * np.pi * np.arange(g.n // 2 + 1) / g.L
        xi[-1] = 0.0                # odd symbol: zero Nyquist bin
        u = irfft(uh, g.n)
        ux = irfft(1j * xi * uh, g.n)
        return np.where(keep, -rfft(u * ux), 0.0)

    @pytest.mark.parametrize("xi_cut", [None, 20.0])
    def test_matches_product_form(self, rng, xi_cut):
        g = make_grid(4096, 160.0)
        rhs, keep = _nonlinear_rhs(KDV, g, xi_cut)
        q = np.arange(g.n // 2 + 1)
        want = q <= dealias_cutoff(g.n, 1)
        if xi_cut is not None:
            want &= 2.0 * np.pi * q / g.L <= xi_cut
        assert np.array_equal(keep, want)
        uh = rfft(rng.standard_normal(g.n))
        uh[~keep] = 0.0
        got, ref = rhs(uh), self._product_rhs(g, uh, keep)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_evolve_conserves_mean_and_mass(self, rng):
        g = make_grid(4096, 160.0)
        x = g.nodes
        bump = RealField(g, 0.5 * np.exp(-(x / 4.0) ** 2))
        noise = fields.rough_spectrum_field(g, rng, s=2.0, amplitude=0.5)
        u0 = RealField(g, bump.samples + noise.samples)
        traj = evolve(KDV, u0, 2e-3, 5e-5, stride=10)
        mean0, mass0 = traj.slices[0].samples.sum(), traj.slices[0].l2()
        for s in traj.slices[1:]:
            assert abs(s.samples.sum() - mean0) <= 1e-12 * abs(mean0)
            assert abs(s.l2() - mass0) <= 1e-12 * mass0
        assert np.max(np.abs(traj.final().samples - u0.samples)) > 1e-3
