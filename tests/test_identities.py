import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len

import hkdvlab.fields as fields
import reference
import hkdvlab.identities as identities
from hkdvlab.errors import (BandLimitError, KernelGridTooLarge, KernelWindowError,
                            PhaseRangeError)
from hkdvlab.identities import (_MAX_KERNEL_N, _kernel_grid, _kernel_sup,
                                dispersive_decay_probe, solve_coefficients,
                                verify_reduction_identity, x_weight_commutator)
from hkdvlab.propagators import DispersionParams
from hkdvlab.spectral import RealField, _REDUCE_RANGE, make_grid


class TestCoefficients:
    def test_j1(self):
        assert solve_coefficients(1).c == (Fraction(-3), Fraction(1))

    def test_j2(self):
        assert solve_coefficients(2).c == (Fraction(5), Fraction(-5), Fraction(1))

    @settings(max_examples=12, deadline=None)
    @given(j=st.integers(1, 12))
    def test_system_rows_and_normalization(self, j):
        cv = solve_coefficients(j)
        assert cv.c[j] == 1
        assert cv.c[0] != 0
        for m in range(j):
            row = sum(cv.c[ell] * math.comb(2 * ell + 1, ell - m)
                      for ell in range(m, j + 1))
            assert row == 0

    def test_j1_reduction_against_expansion(self):
        # u''' u == 1/2 d^3(u^2) - 3/2 d((u')^2) follows from (c0, c1) = (-3, 1)
        # (small grid: high-order spectral derivatives amplify rounding at
        # large Nyquist frequencies)
        g = make_grid(32, 2 * math.pi)
        u = RealField(g, np.sin(g.nodes))
        from hkdvlab.spectral import derivative
        lhs = derivative(u, 3).samples * u.samples
        usq = RealField(g, u.samples ** 2)
        dup = RealField(g, derivative(u, 1).samples ** 2)
        rhs = 0.5 * derivative(usq, 3).samples - 1.5 * derivative(dup, 1).samples
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            solve_coefficients(0)
        with pytest.raises(ValueError):
            solve_coefficients(33)


class TestReductionIdentity:
    def test_constant_field(self):
        g = make_grid(64, 10.0)
        res = verify_reduction_identity(1, RealField(g, np.full(g.n, 2.5)))
        assert res == 0.0

    def test_sine_j1(self):
        g = make_grid(32, 2 * math.pi)
        res = verify_reduction_identity(1, RealField(g, np.sin(g.nodes)))
        assert res < 1e-12

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_random_band_limited(self, j, rng):
        g = make_grid(256, 2 * math.pi)
        for _ in range(3):
            f = fields.random_band_limited(g, rng, band=g.n // 4 - 2, decay=1.0)
            assert verify_reduction_identity(j, f) < 1e-8

    def test_residual_sits_on_rounding_floor(self):
        # once the band respects the precondition the only error left is the
        # derivative-amplified rounding floor ~ (n/2)^(2j+1) eps / band^(2j+1);
        # it stays far below 1e-8 across the admissible bands at this size
        g = make_grid(256, 2 * math.pi)
        for band in (62, 30):
            r = np.random.default_rng(5)
            f = fields.random_band_limited(g, r, band=band, decay=1.0)
            assert verify_reduction_identity(3, f) < 1e-9

    def test_insufficient_band_rejected(self, rng):
        g = make_grid(128, 10.0)
        f = fields.random_band_limited(g, rng, band=g.n // 2 - 4)
        with pytest.raises(BandLimitError):
            verify_reduction_identity(1, f)


class TestCommutator:
    def test_time_zero_collapses(self):
        g = make_grid(512, 40.0)
        u0 = fields.gaussian(g, width=1.0)
        assert x_weight_commutator(DispersionParams(1), 0.0, u0) < 1e-13

    def test_j1_gaussian(self):
        g = make_grid(1024, 60.0)
        u0 = fields.gaussian(g, width=1.0)
        assert x_weight_commutator(DispersionParams(1), 0.1, u0) < 1e-6

    def test_j2_gaussian(self):
        g = make_grid(40960, 4096.0)
        u0 = fields.gaussian(g, width=1.0)
        assert x_weight_commutator(DispersionParams(2), 0.05, u0) < 1e-6

    def test_scale_invariance(self):
        g = make_grid(1024, 60.0)
        u0 = fields.gaussian(g, width=1.0)
        e1 = x_weight_commutator(DispersionParams(1), 0.1, u0)
        e2 = x_weight_commutator(DispersionParams(1), 0.1, reference.scale(u0, 7.5))
        assert e2 == pytest.approx(e1, rel=1e-10)


class TestDecayProbe:
    def test_t_below_one_rejected(self):
        with pytest.raises(ValueError):
            dispersive_decay_probe(1, t_list=(0.5, 1, 2))

    def test_grid_cap_error_names_the_point(self):
        with pytest.raises(MemoryError, match=f"n=170698752 for j=2, t=10000, env=3 "
                                              f"exceeds the supported maximum {_MAX_KERNEL_N}") as err:
            dispersive_decay_probe(2, t_list=(1, 1e4), envelopes=(3.0,))
        assert err.type is KernelGridTooLarge

    @pytest.mark.parametrize("j", [1, 2])
    def test_phases_below_the_grid_cap_reduce_exactly(self, j):
        # the largest phase t xi^(2j+1) at the top bin of every grid the cap
        # admits, for both kappa values of the probe's rule
        top = 0.0
        for kappa in (1.62, 2.0):
            for env in (3.0, 4.0, 6.0, 8.0):
                for t in np.geomspace(1.0, 1e5, 400):
                    _, dx, n = _kernel_grid(j, t, env, kappa)
                    if n <= _MAX_KERNEL_N:
                        top = max(top, t * (2.0 * math.pi / (n * dx) * (n // 2)) ** (2 * j + 1))
        assert top < _REDUCE_RANGE

    def test_phase_past_the_reduction_range_raises(self):
        # j = 3 at t = 80: n = 45,106,875 is below the cap, the top phase 6.0e8 rad is not
        with pytest.raises(PhaseRangeError, match=r"6\.012e\+08 rad on n=45106875 for j=3, t=80"):
            dispersive_decay_probe(3, t_list=(1, 80), envelopes=(3.0,))

    def test_argmax_on_window_edge_raises(self, monkeypatch):
        # a window far inside the Airy region puts the sup on its edge
        monkeypatch.setattr(identities, "_WINDOW_REACH", 0.5)
        with pytest.raises(KernelWindowError, match=r"j=1, t=2, env=4 lies at argmax "
                                                    r"index (0|4), .* m=2 nodes"):
            _kernel_sup(1, 2.0, 4.0, 2.0)

    def test_memory_is_bounded_by_the_block(self):
        # n = 5,080,320: a full-grid synthesis holds the half-spectrum symbol
        # and the kernel, 103 MiB traced; the folded one 40 MiB
        _kernel_sup(1, 1.0, 4.0, 2.0)     # load the FFT backend
        tracemalloc.start()
        try:
            _, n = _kernel_sup(2, 4.0, 6.0, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 5_080_320
        assert peak < 64 * 2 ** 20

    def test_memory_of_the_dense_mirror_rows(self):
        # the same n = 5,080,320 call: dense rows b <= P/2 in blocks of 2^17
        # bins peak near 8 MiB traced; rows filled only up to n//2 in blocks
        # of 2^20 bins held 40 MiB
        _kernel_sup(1, 1.0, 4.0, 2.0)     # load the FFT backend
        tracemalloc.start()
        try:
            _kernel_sup(2, 4.0, 6.0, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


def _reference_kernel_sup(j, t, env, kappa):
    """The kernel sup from the full complex symbol and a complex inverse FFT."""
    xi_cut = 3.2 * env
    span = 2.0 * ((2 * j + 1) * t * (kappa * env) ** (2 * j)) + 300.0
    dx = math.pi / xi_cut
    n = next_fast_len(max(1024, int(math.ceil(span / dx))), real=False)
    big = n >= (1 << 22)
    q = np.fft.fftfreq(n, 1.0 / n)
    xi = 2.0 * math.pi / (n * dx) * q
    axi = np.abs(xi)
    amp = np.sqrt(axi) * axi ** (j - 1) * np.exp(-(axi / env) ** 2)
    sign = 1.0 if j % 2 == 1 else -1.0
    phase = np.mod(sign * t * xi ** (2 * j + 1), 2.0 * math.pi)
    if big:
        sym = (amp.astype(np.float32) * np.exp(1j * phase.astype(np.float32))).astype(np.complex64)
    else:
        sym = amp * np.exp(1j * phase)
    kern = np.abs(np.fft.ifft(sym))
    return float(np.max(kern)) * 2.0 * xi_cut, n


class TestKernelAgainstComplexReference:
    """``_kernel_sup`` (half spectrum folded onto the sup window) against the
    full complex symbol synthesized on the whole grid with ``np.fft.ifft``."""

    @pytest.mark.parametrize("j, env, t, rtol, n_expected", [
        (1, 4.0, 1.0, 1e-11, None),
        (2, 3.0, 4.0, 1e-11, None),
        (1, 3.0, 8.0, 1e-11, 6237),          # odd n: no Nyquist bin
        (2, 6.0, 4.0, 1e-6, 5_080_320),
    ])
    def test_matches_reference(self, j, env, t, rtol, n_expected):
        sup, n = _kernel_sup(j, t, env, 2.0)
        ref, n_ref = _reference_kernel_sup(j, t, env, 2.0)
        assert n == n_ref
        assert n == n_expected if n_expected else n < (1 << 22)
        assert sup == pytest.approx(ref, rel=rtol)

    @pytest.mark.parametrize("j, env, t", [
        (j, env, t) for j, envs in ((1, (4.0, 8.0)), (2, (3.0, 6.0))) for env in envs
        for t in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0) if (j, env, t) < (2, 6.0, 4.0)])
    def test_suite_grid_window_holds_the_sup(self, j, env, t):
        # every decay-suite grid below 2^22 points: the sup over the window
        # equals the sup over the whole grid
        sup, n = _kernel_sup(j, t, env, 2.0)
        ref, n_ref = _reference_kernel_sup(j, t, env, 2.0)
        assert n == n_ref < (1 << 22)
        assert sup == pytest.approx(ref, rel=1e-12)
