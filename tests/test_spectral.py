import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta

import hkdvlab.fields as fields
from hkdvlab.errors import BandLimitError, BoundaryDecayError
from hkdvlab.propagators import DispersionParams, linear_flow
from hkdvlab.spectral import (MultiplierSpec, RealField, SpectralField,
                              _context, _stein_truncated, apply_multiplier,
                              apply_multiplier_spectral, band_limit_check,
                              dealias, dealias_cutoff, deriv_symbol, derivative,
                              forward, frac_deriv, inverse, load_field,
                              load_spectral, make_grid, odd_frequencies,
                              require_decay, save_field, save_spectral,
                              stein_constant, stein_deriv)


class TestGrid:
    def test_unit_circle_grid(self):
        g = make_grid(64, 2 * math.pi)
        assert g.dx == pytest.approx(2 * math.pi / 64)
        q = np.sort(g.freq_index.astype(int))
        assert q[0] == -32 and q[-1] == 31
        assert np.allclose(np.sort(g.frequencies), np.arange(-32, 32), atol=1e-12)

    def test_frequency_spacing(self):
        g = make_grid(256, 100.0)
        xi = np.sort(g.frequencies)
        assert np.allclose(np.diff(xi), 2 * math.pi / 100.0)

    @pytest.mark.parametrize("n,L", [(15, 10.0), (14, 10.0), (64, 0.0), (64, -2.0)])
    def test_rejects_bad_params(self, n, L):
        with pytest.raises(ValueError):
            make_grid(n, L)

    def test_nodes_start_at_left_edge(self, grid):
        assert grid.nodes[0] == pytest.approx(-grid.L / 2)
        assert grid.nodes[-1] == pytest.approx(grid.L / 2 - grid.dx)


class TestTransforms:
    def test_single_cosine_mode(self):
        g = make_grid(64, 10.0)
        f = RealField(g, np.cos(2 * np.pi * g.nodes / g.L))
        F = forward(f)
        mags = np.abs(F.coeffs)
        nz = np.flatnonzero(mags > 1e-12 * mags.max())
        assert sorted(g.freq_index[nz].astype(int).tolist()) == [-1, 1]

    def test_zero_field(self, grid):
        F = forward(RealField(grid, np.zeros(grid.n)))
        assert np.all(F.coeffs == 0)

    def test_round_trip_ensemble(self, grid, rng):
        for _ in range(5):
            f = fields.random_band_limited(grid, rng, band=grid.n // 3, decay=0.5)
            r = inverse(forward(f))
            assert np.linalg.norm(r.samples - f.samples) < 1e-13 * np.linalg.norm(f.samples)

    def test_plancherel(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=grid.n // 3, decay=0.0)
        F = forward(f)
        assert abs(f.l2() - F.l2()) < 1e-13 * f.l2()

    def test_coefficients_match_integral_transform(self):
        # Gaussian: hat(f)(xi) = sqrt(pi) exp(-xi^2/4), real and positive
        g = make_grid(512, 60.0)
        f = fields.gaussian(g, width=1.0)
        F = forward(f)
        xi = g.frequencies
        expect = math.sqrt(math.pi) * np.exp(-(xi ** 2) / 4.0)
        assert np.max(np.abs(F.coeffs - expect)) < 1e-12

    def test_inverse_rejects_non_hermitian(self, grid):
        coeffs = np.zeros(grid.n, dtype=complex)
        coeffs[3] = 1.0  # no conjugate partner
        with pytest.raises(ValueError, match="Hermitian"):
            inverse(SpectralField(grid, coeffs))


@settings(max_examples=20, deadline=None)
@given(k=st.integers(min_value=1, max_value=60), s=st.floats(0.1, 3.0))
def test_frac_deriv_eigenmode(k, s):
    g = make_grid(128, 2 * math.pi)
    f = RealField(g, np.sin(k * g.nodes))
    d = frac_deriv(f, s, "homogeneous")
    assert np.allclose(d.samples, k ** s * f.samples, rtol=1e-11, atol=1e-11 * k ** s)


class TestMultipliers:
    def test_identity(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=50)
        out = apply_multiplier(MultiplierSpec(lambda xi: np.ones_like(xi), "one"), f)
        assert np.allclose(out.samples, f.samples, atol=1e-14)

    def test_first_derivative_of_sine(self):
        g = make_grid(128, 2 * math.pi)
        k = 5
        f = RealField(g, np.sin(k * g.nodes))
        d = derivative(f, 1)
        assert np.allclose(d.samples, k * np.cos(k * g.nodes), atol=1e-11)

    def test_semigroup_composition(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=60, decay=0.5)
        m1 = MultiplierSpec(lambda xi: np.exp(-xi ** 2 / 9.0), "heat")
        m2 = MultiplierSpec(lambda xi: 1.0 / (1.0 + xi ** 2), "bessel")
        once = apply_multiplier(
            MultiplierSpec(lambda xi: np.exp(-xi ** 2 / 9.0) / (1.0 + xi ** 2), "prod"), f)
        twice = apply_multiplier(m2, apply_multiplier(m1, f))
        assert np.linalg.norm(once.samples - twice.samples) < 1e-13 * np.linalg.norm(f.samples)

    def test_non_real_preserving_rejected(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=30)
        with pytest.raises(ValueError, match="preserve"):
            apply_multiplier(MultiplierSpec(lambda xi: np.exp(1j * np.abs(xi)), "bad"), f)
        # same symbol is fine on the spectral side
        F = apply_multiplier_spectral(
            MultiplierSpec(lambda xi: np.exp(1j * np.abs(xi)), "bad"), forward(f))
        assert F.coeffs.shape == (grid.n,)

    def test_nan_symbol_rejected(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=30)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            apply_multiplier(MultiplierSpec(lambda xi: xi / np.abs(xi), "sign"), f)


class TestFracDeriv:
    def test_j0_is_identity(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=40)
        out = frac_deriv(f, 0.0, "inhomogeneous")
        assert np.allclose(out.samples, f.samples, atol=1e-13)

    def test_half_derivative_composes(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=60, decay=0.5)
        half_twice = frac_deriv(frac_deriv(f, 0.5), 0.5)
        d1 = frac_deriv(f, 1.0)
        resid = np.linalg.norm(half_twice.samples - d1.samples) / np.linalg.norm(d1.samples)
        assert resid < 1e-12

    def test_negative_order_rejected(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=20)
        with pytest.raises(ValueError):
            frac_deriv(f, -0.5)


class TestSteinDeriv:
    def test_matches_fourier_on_gaussian(self):
        g = make_grid(4096, 60.0)
        f = fields.gaussian(g, width=1.0)
        for alpha in (0.3, 0.5, 1.5):
            ref = frac_deriv(f, alpha)
            got = stein_deriv(f, alpha)
            rel = np.linalg.norm(got.samples - ref.samples) / np.linalg.norm(ref.samples)
            assert rel < 1e-3, f"alpha={alpha}: {rel}"

    def test_zero_field(self):
        g = make_grid(512, 40.0)
        out = stein_deriv(RealField(g, np.zeros(g.n)), 0.7)
        assert np.allclose(out.samples, 0.0)

    def test_windowed_sine_matches_fourier(self):
        g = make_grid(2048, 80.0)
        window = np.exp(-(g.nodes / 9.0) ** 2)
        f = RealField(g, np.sin(3.0 * g.nodes) * window)
        ref = frac_deriv(f, 1.0)
        got = stein_deriv(f, 1.0)
        rel = np.linalg.norm(got.samples - ref.samples) / np.linalg.norm(ref.samples)
        assert rel < 1e-2

    def test_monotone_in_eps(self):
        g = make_grid(2048, 60.0)
        f = fields.gaussian(g, width=1.0)
        for alpha in (0.5, 1.5):
            ref = frac_deriv(f, alpha)
            errs = []
            for m in (32, 16, 8, 4):
                got = stein_deriv(f, alpha, eps_seq=(m * g.dx,))
                errs.append(np.linalg.norm(got.samples - ref.samples))
            assert all(a > b for a, b in zip(errs, errs[1:])), (alpha, errs)

    def test_rejects_non_decaying(self):
        g = make_grid(512, 40.0)
        f = RealField(g, np.cos(2 * np.pi * g.nodes / g.L))
        with pytest.raises(BoundaryDecayError):
            stein_deriv(f, 0.5)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.3, 2.5])
    def test_rejects_alpha_out_of_range(self, alpha):
        g = make_grid(512, 40.0)
        with pytest.raises(ValueError):
            stein_deriv(fields.gaussian(g), alpha)


class TestHalfSpectrumOracle:
    """The rfft operators against the full-complex forward/multiplier/inverse
    path, and the Stein convolution against the O(n^2) shift loop."""

    @staticmethod
    def _full_symbol(g, order):
        xi = odd_frequencies(g) if order % 2 == 1 else g.frequencies
        return (1j * xi) ** order

    @pytest.mark.parametrize("order", range(6))
    def test_derivative(self, order):
        g = make_grid(256, 40.0)
        # white noise: every bin, the Nyquist bin included, carries content
        f = RealField(g, np.random.default_rng(order).standard_normal(g.n))
        ref = inverse(SpectralField(g, self._full_symbol(g, order) * forward(f).coeffs))
        got = derivative(f, order)
        scale = np.max(np.abs(ref.samples))
        assert np.max(np.abs(got.samples - ref.samples)) <= 1e-12 * scale
        # the FFT-order extension used for off-node evaluation; the odd-order
        # Nyquist rule shows only here, as irfft drops that bin's imaginary part
        full = self._full_symbol(g, order)
        err = np.max(np.abs(deriv_symbol(g, order, full=True) - full))
        assert err <= 1e-12 * np.max(np.abs(full))

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_linear_flow(self, j):
        g = make_grid(256, 40.0)
        u0 = RealField(g, np.random.default_rng(j).standard_normal(g.n))
        sign = 1.0 if (j + 1) % 2 == 0 else -1.0
        theta = sign * odd_frequencies(g) ** (2 * j + 1)
        # t keeps t * max|theta| near 10, so the phase is not dominated by rounding
        t = 10.0 / np.max(np.abs(theta))
        ref = inverse(SpectralField(g, np.exp(1j * t * theta) * forward(u0).coeffs))
        got = linear_flow(DispersionParams(j), t, u0)
        assert np.max(np.abs(got.samples - ref.samples)) <= 1e-12 * np.max(np.abs(ref.samples))

    def test_context_is_read_only(self):
        ctx = _context(make_grid(64, 10.0))
        for a in (ctx.xi, ctx.signs):
            with pytest.raises(ValueError):
                a[0] = 1.0

    @staticmethod
    def _stein_loop(f, alpha, m_min, kernel_folds):
        # the O(n^2) reference: one np.roll pair per offset m, then the same
        # Hurwitz-zeta fold tail
        g = f.grid
        n, L, dx = g.n, g.L, g.dx
        s = f.samples
        half = n // 2
        acc = np.zeros(n)
        for m in range(m_min, half + 1):
            w = 0.5 if (m == m_min or m == half) else 1.0
            y = m * dx
            ker = y ** (-1.0 - alpha)
            for fold in range(1, kernel_folds + 1):
                ker += (fold * L + y) ** (-1.0 - alpha) + (fold * L - y) ** (-1.0 - alpha)
            acc += (w * ker) * (np.roll(s, -m) + np.roll(s, m) - 2.0 * s)
        acc *= dx
        x = g.nodes
        c0 = 2.0 * zeta(1.0 + alpha, kernel_folds + 1) / L ** (1.0 + alpha)
        c2 = ((1.0 + alpha) * (2.0 + alpha) * zeta(3.0 + alpha, kernel_folds + 1)
              / L ** (3.0 + alpha))
        m0, m1, m2 = dx * np.sum(s), dx * np.sum(x * s), dx * np.sum(x * x * s)
        acc += c0 * (m0 - L * s)
        acc += c2 * ((m2 - 2.0 * x * m1 + x * x * m0) - s * L ** 3 / 12.0)
        return acc / stein_constant(alpha)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5])
    @pytest.mark.parametrize("m_min", [4, 32])
    def test_stein_convolution_matches_roll_loop(self, alpha, m_min):
        g = make_grid(512, 30.0)
        # noise, so the offset m = n/2 (counted from both sides) carries weight
        f = RealField(g, np.random.default_rng(7).standard_normal(g.n))
        ref = self._stein_loop(f, alpha, m_min, 3)
        got = _stein_truncated(f, alpha, m_min, 3)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestDealias:
    def test_band_limited_unchanged(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=grid.n // 3 - 1)
        F = forward(f)
        assert np.allclose(dealias(F).coeffs, F.coeffs)

    def test_top_mode_zeroed(self):
        g = make_grid(64, 10.0)
        coeffs = np.zeros(g.n, dtype=complex)
        q = g.n // 2 - 1
        coeffs[q] = 1.0
        coeffs[-q] = 1.0
        out = dealias(SpectralField(g, coeffs))
        assert np.all(out.coeffs == 0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), k=st.integers(1, 3))
    def test_idempotent(self, seed, k):
        g = make_grid(64, 10.0)
        r = np.random.default_rng(seed)
        F = forward(fields.random_band_limited(g, r, band=30))
        once = dealias(F, k)
        assert np.allclose(dealias(once, k).coeffs, once.coeffs)

    def test_product_matches_direct_convolution(self, rng):
        # pointwise product then dealias == linear coefficient convolution
        g = make_grid(64, 10.0)
        band = g.n // 3
        f = fields.random_band_limited(g, rng, band=band // 2, decay=0.3)
        h = fields.random_band_limited(g, rng, band=band // 2, decay=0.3)
        prod = RealField(g, f.samples * h.samples)
        got = dealias(forward(prod))
        cf, ch = forward(f).coeffs, forward(h).coeffs
        qs = g.freq_index.astype(int)
        conv = np.zeros(g.n, dtype=complex)
        cut = dealias_cutoff(g.n, 1)
        for i, q in enumerate(qs):
            if abs(q) > cut:
                continue
            total = 0.0j
            for m, qm in enumerate(qs):
                q2 = q - qm
                if -g.n // 2 <= q2 <= g.n // 2 - 1:
                    total += cf[m] * ch[q2 % g.n]
            conv[i] = total / g.L
        denom = np.max(np.abs(conv))
        assert np.max(np.abs(got.coeffs - conv)) < 1e-12 * denom


class TestGatesAndIO:
    def test_decay_gate_fires(self):
        g = make_grid(256, 10.0)
        f = fields.gaussian(g, width=5.0)  # too wide for the box
        with pytest.raises(BoundaryDecayError):
            require_decay(f)

    def test_band_limit_check(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=100)
        with pytest.raises(BandLimitError):
            band_limit_check(f, 50)
        band_limit_check(f, 101)  # no raise

    def test_field_csv_round_trip(self, tmp_path, grid, rng):
        f = fields.random_band_limited(grid, rng, band=30)
        p = tmp_path / "f.csv"
        save_field(f, p)
        r = load_field(p)
        assert r.grid == f.grid
        assert np.array_equal(r.samples, f.samples)

    def test_spectral_csv_round_trip(self, tmp_path, grid, rng):
        F = forward(fields.random_band_limited(grid, rng, band=30))
        p = tmp_path / "F.csv"
        save_spectral(F, p)
        R = load_spectral(p)
        assert np.array_equal(R.coeffs, F.coeffs)
