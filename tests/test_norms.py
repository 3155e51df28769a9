import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import hkdvlab.fields as fields
import reference
from hkdvlab.errors import BoundaryDecayError, WindowExitsGrid
from hkdvlab.norms import (CutoffSpec, MixedNormSpec, WindowSpec, _halfline_integral,
                           make_cutoff, mixed_norm, weighted_norm, window_energy)
from hkdvlab.propagators import DispersionParams, Trajectory, evolve
from hkdvlab.spectral import RealField, derivative, make_grid

KDV = DispersionParams(1, 1)


def _hs_norm(f, s):
    """The H^s norm as the persistence suite's ``sup_T_Hs`` column takes it:
    ``||J^s f||_{L^2}`` over a one-slice trajectory."""
    traj = Trajectory(f.grid, np.array([0.0]), [f], KDV)
    return mixed_norm(traj, MixedNormSpec(p=2, q=math.inf, order="t_outer_x_inner", js=s))


class TestSobolevNorm:
    def test_s0_is_l2(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=40)
        assert _hs_norm(f, 0.0) == pytest.approx(f.l2(), rel=1e-13)

    def test_single_mode_closed_form(self):
        g = make_grid(128, 2 * math.pi)
        k = 5
        f = RealField(g, np.sin(k * g.nodes))
        assert _hs_norm(f, 1.5) == pytest.approx((1 + k * k) ** 0.75 * f.l2(), rel=1e-12)

    def test_monotone_in_s(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=40)
        vals = [_hs_norm(f, s) for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_matches_quadrature_of_smoothed_field(self, rng):
        # the node quadrature of |J^s f|^2 equals the Parseval sum of
        # (1 + xi^2)^s |coeff|^2
        g = make_grid(256, 40.0)
        f = fields.random_band_limited(g, rng, band=60, decay=1.0)
        s = 1.25
        coeffs = reference.forward(f)
        parseval = math.sqrt(float(np.sum((1.0 + g.frequencies ** 2) ** s
                                          * np.abs(coeffs) ** 2)) / g.L)
        assert _hs_norm(f, s) == pytest.approx(parseval, rel=1e-10)


class TestWeightedNorm:
    def test_nonpositive_r_rejected(self, grid):
        f = fields.gaussian(grid)
        for r in (0.0, -0.5):
            with pytest.raises(ValueError, match="positive"):
                weighted_norm(f, r)

    def test_single_node_closed_form(self, grid):
        # one unit sample at x_m weighs |x_m|^r, times the node weight sqrt(dx)
        samples = np.zeros(grid.n)
        m = grid.n // 2 + 40
        samples[m] = 1.0
        f = RealField(grid, samples)
        expect = abs(grid.nodes[m]) ** 0.75 * math.sqrt(grid.dx)
        assert weighted_norm(f, 0.75) == pytest.approx(expect, rel=1e-14)

    def test_gaussian_against_quadrature_oracle(self):
        # |x|^(2r) has a kink at the origin, so the node quadrature converges
        # at second order; a fine grid is needed for 1e-8 absolute agreement
        g = make_grid(1 << 20, 60.0)
        f = fields.gaussian(g, width=1.0)   # exp(-x^2)
        got = weighted_norm(f, 0.5)
        oracle = math.sqrt(quad(lambda x: abs(x) * math.exp(-2 * x * x),
                                -30.0, 30.0, limit=200)[0])
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_decay_gate(self):
        g = make_grid(256, 10.0)
        f = fields.gaussian(g, width=4.0)
        with pytest.raises(BoundaryDecayError):
            weighted_norm(f, 0.5)


def _constant_trajectory(grid, f, T=0.5, m=11):
    times = np.linspace(0.0, T, m)
    return Trajectory(grid, times, [RealField(grid, f.samples.copy()) for _ in times],
                      KDV)


class TestMixedNorm:
    def test_constant_in_time_separates(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=40)
        traj = _constant_trajectory(grid, f, T=0.5)
        got = mixed_norm(traj, MixedNormSpec(p=4, q=2, order="x_outer_t_inner"))
        lp4 = (grid.dx * np.sum(np.abs(f.samples) ** 4)) ** 0.25
        assert got == pytest.approx(0.5 ** 0.5 * lp4, rel=1e-12)

    def test_fubini_at_p_q_two(self, grid, rng):
        u0 = reference.scale(fields.random_band_limited(grid, rng, band=30), 0.3)
        traj = evolve(KDV, u0, 0.2, 2e-3, stride=10)
        a = mixed_norm(traj, MixedNormSpec(p=2, q=2, order="x_outer_t_inner"))
        b = mixed_norm(traj, MixedNormSpec(p=2, q=2, order="t_outer_x_inner"))
        assert a == pytest.approx(b, rel=1e-12)

    def test_holder_consistency(self, grid, rng):
        # L^1_x L^2_T (f g) <= L^2_x L^inf_T(f) * L^2_xT(g)
        for _ in range(3):
            u = reference.scale(fields.random_band_limited(grid, rng, band=30), 0.5)
            v = reference.scale(fields.random_band_limited(grid, rng, band=30), 0.5)
            tu = evolve(KDV, u, 0.2, 2e-3, stride=10)
            tv = evolve(KDV, v, 0.2, 2e-3, stride=10)
            prod = Trajectory(grid, tu.times,
                              [RealField(grid, a.samples * b.samples)
                               for a, b in zip(tu.slices, tv.slices)], KDV)
            lhs = mixed_norm(prod, MixedNormSpec(p=1, q=2, order="x_outer_t_inner"))
            rhs = (mixed_norm(tu, MixedNormSpec(p=2, q=math.inf, order="x_outer_t_inner"))
                   * mixed_norm(tv, MixedNormSpec(p=2, q=2, order="x_outer_t_inner")))
            assert lhs <= rhs * (1 + 1e-12)

    @pytest.mark.parametrize("js, da", [(2.0, None), (None, 0.25), (2.0, 0.125), (-0.6, None)])
    def test_smoothing_weights_match_full_spectrum(self, grid, rng, js, da):
        # J^s and D^a applied to the full complex spectrum, written out here;
        # a negative js (a persistence config with small s) stays allowed
        f = fields.random_band_limited(grid, rng, band=grid.n // 2 - 2)
        xi = 2.0 * np.pi * np.fft.fftfreq(grid.n, grid.dx)
        sym = np.ones(grid.n)
        if js is not None:
            sym *= (1.0 + xi * xi) ** (js / 2.0)
        if da is not None:
            sym *= np.where(xi == 0.0, 0.0, np.abs(xi) ** da)
        g = np.fft.ifft(sym * np.fft.fft(f.samples)).real
        traj = Trajectory(grid, np.array([0.0]), [f], KDV)
        got = mixed_norm(traj, MixedNormSpec(p=2, q=2, js=js, da=da))
        assert got == pytest.approx(math.sqrt(grid.dx * np.sum(g * g)), rel=1e-12)

    def test_empty_trajectory_rejected(self, grid):
        traj = Trajectory(grid, np.array([]), [], KDV)
        with pytest.raises(ValueError, match="empty"):
            mixed_norm(traj, MixedNormSpec(p=2, q=2))


CUTOFF_MATRIX = [(0.1, 0.5), (0.2, 1.0), (0.05, 0.25)]


class TestCutoff:
    @pytest.mark.parametrize("eps,b", CUTOFF_MATRIX)
    def test_support_property(self, eps, b):
        chi = make_cutoff(CutoffSpec(eps, b))
        assert chi(eps / 2) == 0.0
        assert chi(b + 1.0) == 1.0
        xs = np.linspace(eps - 1.0, b + 1.0, 10001)
        d1 = chi.derivative(xs, 1)
        assert np.all(d1[(xs < eps) | (xs > b)] == 0.0)
        assert np.all(chi(xs[xs < eps]) == 0.0)

    @pytest.mark.parametrize("eps,b", CUTOFF_MATRIX)
    def test_lower_bound_at_three_eps(self, eps, b):
        chi = make_cutoff(CutoffSpec(eps, b))
        floor = eps / (2.0 * (b - 3.0 * eps))
        assert chi(3 * eps) >= floor
        xs = np.linspace(3 * eps, b + 1.0, 10001)
        assert np.all(chi(xs) >= chi(3 * eps) - 1e-15)

    @pytest.mark.parametrize("eps,b", CUTOFF_MATRIX)
    def test_derivatives_dominated_by_wider_ramp(self, eps, b):
        chi = make_cutoff(CutoffSpec(eps, b))
        ref = make_cutoff(CutoffSpec(eps / 3.0, b + eps))
        xs = np.linspace(eps / 6.0, b + 2.0 * eps, 10001)
        ramp = ref.derivative(xs, 1)
        assert np.max(ramp) <= 1.0 / (b - 3.0 * eps) + 1e-12
        for order in (1, 2, 3):
            vals = np.abs(chi.derivative(xs, order))
            mask = vals > 1e-12 * vals.max()
            c = np.max(vals[mask] / ramp[mask])
            assert math.isfinite(c) and c > 0

    @pytest.mark.parametrize("eps,b", CUTOFF_MATRIX)
    def test_ramp_products_dominate(self, eps, b):
        chi = make_cutoff(CutoffSpec(eps, b))
        ref = make_cutoff(CutoffSpec(eps / 3.0, b + eps))
        inner = make_cutoff(CutoffSpec(eps / 5.0, eps))
        xs = np.linspace(eps / 6.0, b + 2.0 * eps, 10001)
        d1 = chi.derivative(xs, 1)
        mask = d1 > 1e-12 * d1.max()
        prod = ref.derivative(xs, 1) * ref(xs)
        c1 = np.max(d1[mask] / prod[mask])
        c2 = np.max(d1[mask] / inner(xs)[mask])
        assert math.isfinite(c1) and math.isfinite(c2)

    def test_hypothesis_b_below_5eps_rejected(self):
        with pytest.raises(ValueError, match="5\\*eps"):
            CutoffSpec(0.1, 0.49)


class TestWindowEnergy:
    def test_zero_field(self):
        g = make_grid(128, 40.0)
        traj = _constant_trajectory(g, RealField(g, np.zeros(g.n)), T=0.2, m=3)
        table, st_int = window_energy(traj, WindowSpec(0.0, 1.0, 5.0, v=0.0, m=1))
        sup = table.max(axis=0)
        assert sup[0] == 0.0 and sup[1] == 0.0 and st_int == 0.0

    def test_whole_domain_matches_mixed_norm(self):
        # decayed data: the half-line quadrature covers the whole box
        g = make_grid(256, 60.0)
        u0 = fields.gaussian(g, width=2.0, amplitude=0.8)
        traj = evolve(KDV, u0, 0.2, 2e-3, stride=20)
        w = WindowSpec(x0=g.nodes[0] + 1e-9, eps=1e-9, R=g.L - 1.0, v=0.0, m=0)
        table, _ = window_energy(traj, w)
        sup = table.max(axis=0)
        linf_l2 = mixed_norm(traj, MixedNormSpec(p=2, q=math.inf,
                                                 order="t_outer_x_inner"))
        assert sup[0] == pytest.approx(linf_l2 ** 2, rel=1e-9)

    def test_monotone_under_window_inclusion(self, rng):
        g = make_grid(256, 60.0)
        u0 = reference.scale(fields.random_band_limited(g, rng, band=30), 0.4)
        traj = evolve(KDV, u0, 0.2, 2e-3, stride=20)
        vals = []
        for eps in (0.5, 1.5, 3.0):
            table, _ = window_energy(traj, WindowSpec(0.0, eps, 10.0, v=1.0, m=1))
            vals.append(table.max(axis=0)[1])
        assert vals[0] >= vals[1] >= vals[2]

    def test_table_entries_are_the_window_integrals(self, rng):
        g = make_grid(256, 60.0)
        u0 = reference.scale(fields.random_band_limited(g, rng, band=30), 0.4)
        traj = evolve(KDV, u0, 0.2, 2e-3, stride=20)
        w = WindowSpec(0.0, 1.0, 10.0, v=1.0, m=2)
        table, _ = window_energy(traj, w)
        assert table.shape == (len(traj), w.m + 1)

        def integral(t, sl, ell):
            return _halfline_integral(derivative(sl, ell).samples ** 2, g,
                                      w.x0 + w.eps - w.v * t)

        for i, (t, sl) in enumerate(zip(traj.times, traj.slices)):
            for ell in range(w.m + 1):
                assert table[i, ell] == integral(t, sl, ell)
        # per-order sups over the stored times, as a running max from 0
        old_sups = [max([0.0] + [integral(t, sl, ell)
                                 for t, sl in zip(traj.times, traj.slices)])
                    for ell in range(w.m + 1)]
        assert list(table.max(axis=0)) == old_sups

    def test_window_exits_grid(self, rng):
        g = make_grid(128, 20.0)
        u0 = reference.scale(fields.random_band_limited(g, rng, band=20), 0.1)
        traj = evolve(KDV, u0, 0.2, 2e-3, stride=100)
        with pytest.raises(WindowExitsGrid):
            window_energy(traj, WindowSpec(-9.5, 0.1, 5.0, v=10.0, m=1))

    def test_order_cap(self, rng):
        g = make_grid(64, 20.0)
        u0 = reference.scale(fields.random_band_limited(g, rng, band=5), 0.1)
        traj = _constant_trajectory(g, u0, m=3)
        with pytest.raises(ValueError, match="n/8"):
            window_energy(traj, WindowSpec(0.0, 0.5, 5.0, m=9))


@settings(max_examples=20, deadline=None)
@given(eps=st.floats(0.01, 0.5), mult=st.floats(5.0, 6.0))
def test_cutoff_bounds_hold_in_matrix_range(eps, mult):
    # the (4.2) floor holds across b/eps in [5, 6] for this bump construction
    b = mult * eps
    chi = make_cutoff(CutoffSpec(eps, b))
    assert chi(3 * eps) >= eps / (2.0 * (b - 3.0 * eps)) - 1e-15
