import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import irfft, rfft
from scipy.special import zeta

import hkdvlab.fields as fields
import reference
from hkdvlab.errors import BandLimitError, BoundaryDecayError
from hkdvlab.propagators import DispersionParams, evolve, linear_flow
from hkdvlab.spectral import (RealField, _bin_weights, _hc_band, _hc_forward,
                              _hc_inverse, _hurwitz_zeta, _irfft, _rfft,
                              _stein_truncated, band_limit_check, dealias_cutoff,
                              deriv_symbol, derivative, frac_deriv, make_grid, require_decay,
                              stein_constant, stein_deriv, synthesize_at)


SRC = Path(__file__).resolve().parents[1] / "src"


class TestGrid:
    def test_unit_circle_grid(self):
        g = make_grid(64, 2 * math.pi)
        assert g.dx == pytest.approx(2 * math.pi / 64)
        q = np.sort(g.freq_index.astype(int))
        assert q[0] == -32 and q[-1] == 31
        # the rfft bins carry q = 0, ..., n/2
        assert np.allclose(g.xi, np.arange(33), atol=1e-12)

    def test_frequency_spacing(self):
        g = make_grid(256, 100.0)
        assert np.allclose(np.diff(g.xi), 2 * math.pi / 100.0)

    @pytest.mark.parametrize("n,L", [(15, 10.0), (14, 10.0), (64, 0.0), (64, -2.0),
                                     (2 ** 24 + 2, 10.0), (2 ** 62, 10.0)])
    def test_rejects_bad_params(self, n, L):
        with pytest.raises(ValueError):
            make_grid(n, L)

    def test_nodes_start_at_left_edge(self, grid):
        assert grid.nodes[0] == pytest.approx(-grid.L / 2)
        assert grid.nodes[-1] == pytest.approx(grid.L / 2 - grid.dx)

    def test_xi_holds_the_rfft_bins(self, grid):
        # bins q = 0, ..., n/2 with the Nyquist frequency positive, as in rfft
        q = np.arange(grid.n // 2 + 1)
        assert np.allclose(grid.xi, 2 * math.pi * q / grid.L)

    @pytest.mark.parametrize("n,L", [(64, 2 * math.pi), (512, 60.0), (2048, 320.0),
                                     (16384, 320.0), (800000, 80000.0)])
    def test_xi_is_the_fft_order_frequencies_bit_for_bit(self, n, L):
        g = make_grid(n, L)
        assert np.array_equal(g.xi, np.abs(reference.frequencies(g)[: n // 2 + 1]))


class TestFieldValidation:
    def test_sample_count_checked(self, grid):
        with pytest.raises(ValueError, match="samples"):
            RealField(grid, np.zeros(grid.n - 1))

    def test_non_finite_samples_rejected(self, grid):
        samples = np.zeros(grid.n)
        samples[7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            RealField(grid, samples)

    def test_boundary_amplitude_reads_two_outer_nodes(self, grid):
        samples = np.zeros(grid.n)
        samples[1], samples[2], samples[-2] = 3.0, 5.0, -4.0
        f = RealField(grid, samples)
        assert f.boundary_amplitude() == 4.0
        assert f.linf() == 5.0


class TestTransforms:
    def test_single_cosine_mode(self):
        g = make_grid(64, 10.0)
        f = RealField(g, np.cos(2 * np.pi * g.nodes / g.L))
        c = rfft(f.samples)
        assert c.shape == (g.n // 2 + 1,)
        mags = np.abs(c)
        assert np.flatnonzero(mags > 1e-12 * mags.max()).tolist() == [1]

    def test_zero_field(self, grid):
        c = rfft(RealField(grid, np.zeros(grid.n)).samples)
        assert np.all(c == 0)

    def test_round_trip_ensemble(self, grid, rng):
        for _ in range(5):
            f = fields.random_band_limited(grid, rng, band=grid.n // 3, decay=0.5)
            r = irfft(rfft(f.samples), grid.n)
            assert np.linalg.norm(r - f.samples) < 1e-13 * np.linalg.norm(f.samples)

    def test_plancherel(self, grid, rng):
        # sum f^2 = (1/n) sum_q w_q |c_q|^2 over the half spectrum
        f = fields.random_band_limited(grid, rng, band=grid.n // 3, decay=0.0)
        c = rfft(f.samples)
        l2 = math.sqrt(grid.dx / grid.n * float(np.sum(_bin_weights(grid.n) * np.abs(c) ** 2)))
        assert abs(f.l2() - l2) < 1e-13 * f.l2()

    def test_coefficients_match_integral_transform(self):
        # Gaussian: hat(f)(xi) = sqrt(pi) exp(-xi^2/4), real and positive;
        # dx (-1)^q c_q is the trapezoid rule for the integral on [-L/2, L/2)
        g = make_grid(512, 60.0)
        f = fields.gaussian(g, width=1.0)
        signs = (-1.0) ** np.arange(g.n // 2 + 1)
        approx = g.dx * signs * rfft(f.samples)
        expect = math.sqrt(math.pi) * np.exp(-(g.xi ** 2) / 4.0)
        assert np.max(np.abs(approx - expect)) < 1e-12


def _halfcomplex(X: np.ndarray) -> np.ndarray:
    """The ``n//2 + 1`` bins ``X`` of an even ``n`` in FFTPACK's halfcomplex
    order ``[r0, r1, i1, ..., r_{n/2}]``."""
    hc = np.empty(2 * X.size - 2)
    hc[0], hc[1::2], hc[2::2] = X[0].real, X[1:].real, X[1:-1].imag
    return hc


class TestTransformBinding:
    """``_rfft``/``_irfft`` call scipy's private ``pypocketfft`` kernel; they
    must stay bit for bit equal to the public ``scipy.fft`` pair, so a scipy
    upgrade that changes the kernel's signature or normalization fails here."""

    @pytest.mark.parametrize("n", [64, 510, 1024, 4096, 1025])
    @pytest.mark.parametrize("shape", [(), (2,)])
    def test_equals_public_pair(self, n, shape):
        r = np.random.default_rng(n)
        x = r.standard_normal((*shape, n))
        X = rfft(x) + 1e-3 * (r.standard_normal((*shape, n // 2 + 1))
                              + 1j * r.standard_normal((*shape, n // 2 + 1)))
        want_f, want_i = rfft(x), irfft(X, n)
        got_f, got_i = _rfft(x), _irfft(X, n)
        for got, want in ((got_f, want_f), (got_i, want_i)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", [64, 510, 1024, 4096])
    def test_halfcomplex_pair_equals_public_pair(self, n):
        # the in-place pair stores the rfft bins in FFTPACK's halfcomplex
        # order; rfft's bins 0 and n/2 have zero imaginary parts, and irfft
        # disregards them, so reordering loses nothing either way
        r = np.random.default_rng(n)
        x = r.standard_normal(n)
        X = rfft(x) + 1e-3 * (r.standard_normal(n // 2 + 1) + 1j * r.standard_normal(n // 2 + 1))
        want_f, want_i = rfft(x), irfft(X, n)
        assert not np.any(want_f.imag[[0, -1]])
        got_f, got_i = x.copy(), _halfcomplex(X)
        assert _hc_forward(got_f) is got_f
        assert _hc_inverse(got_i) is got_i
        for got, want in ((got_f, _halfcomplex(want_f)), (got_i, want_i)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", [64, 510, 4096])
    def test_two_row_inverse_equals_one_row_inverses(self, n):
        # the solver inverts u and d^j u in one call over a 2-row buffer
        r = np.random.default_rng(n)
        rows = r.standard_normal((2, n))
        want = [_hc_inverse(row.copy()) for row in rows]
        got = _hc_inverse(rows)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))

    @pytest.mark.parametrize("n", [64, 510])
    @pytest.mark.parametrize("below", [1, 0])
    def test_band_views_are_the_rfft_bins(self, n, below):
        # bins 0..top of a band up to n/2 - 1 (below = 1) or about n/4,
        # bit for bit, and views of the buffer they were split from
        x = np.random.default_rng(n).standard_normal(n)
        want, top = rfft(x), n // 2 - 1 if below else n // 4
        a = _hc_forward(x.copy())
        zero, inner, tail = _hc_band(a, top)
        for got, ref in ((zero, want[:1].real), (inner, want[1:top + 1]),
                         (tail, _halfcomplex(want)[2 * top + 1:])):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        if below:
            assert np.array_equal(tail.view(np.int64), want[-1:].real.view(np.int64))
        zero[0], inner[-1], tail[-1] = 3.0, 5.0 + 7.0j, 9.0
        assert (a[0], a[2 * top - 1], a[2 * top], a[-1]) == (3.0, 5.0, 7.0, 9.0)

    @pytest.mark.parametrize("n", [64, 510])
    def test_halfcomplex_symbols_equal_complex_products(self, n):
        # a real symbol added by parts and a complex one multiplied through
        # the band views of the whole spectrum give the bits of the complex
        # products on the rfft bins; a Hermitian symbol is real at bins 0 and n/2
        r = np.random.default_rng(n)
        a, b = rfft(r.standard_normal(n)), rfft(r.standard_normal(n))
        real = r.standard_normal(n // 2 + 1)
        group = np.exp(1j * r.standard_normal(n // 2 + 1))
        group[[0, -1]] = group[[0, -1]].real
        acc, hb = _halfcomplex(a), _halfcomplex(b)
        top = n // 2 - 1
        (a0, a_in, a_nyq), (b0, b_in, b_nyq) = _hc_band(acc, top), _hc_band(hb, top)
        a0 += real[0] * b0
        a_in.real += real[1:-1] * b_in.real
        a_in.imag += real[1:-1] * b_in.imag
        a_nyq += real[-1] * b_nyq
        a0 *= group[0].real
        np.multiply(group[1:-1], a_in, out=a_in)
        a_nyq *= group[-1].real
        want = _halfcomplex(group * (a + real * b))
        assert np.array_equal(acc.view(np.int64), want.view(np.int64))

    _IMPORT_ORDER = """
import sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "hkdvlab":
    from hkdvlab import spectral
    import scipy.fft
else:
    import scipy.fft
    from hkdvlab import spectral
import numpy as np
from scipy.fft._pocketfft import basic, pypocketfft
assert spectral.pypocketfft is pypocketfft is basic.pfft
import scipy.fft._pocketfft as parent
assert parent.pypocketfft is pypocketfft
for n in (256, 4096):
    for shape in ((), (2,)):
        r = np.random.default_rng(n)
        x = r.standard_normal((*shape, n))
        X = r.standard_normal((*shape, n // 2 + 1)) + 1j * r.standard_normal((*shape, n // 2 + 1))
        for got, want in ((spectral._rfft(x), scipy.fft.rfft(x)),
                          (spectral._irfft(X, n), scipy.fft.irfft(X, n))):
            assert got.dtype == want.dtype and got.shape == want.shape, (n, shape)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, shape)
bad = [t for t in range(1, 40001) if spectral._fast_len(t) != scipy.fft.next_fast_len(t)]
assert not bad, bad[:10]
"""

    @pytest.mark.parametrize("first", ["hkdvlab", "scipy"])
    def test_either_import_order_shares_scipys_kernel(self, first):
        # spectral loads the extension file itself and leaves scipy.fft to
        # load and bind it on its own; either order must end with one module
        # object, reachable as an attribute of scipy.fft._pocketfft.  The test
        # modules import scipy.fft first, so a fresh process runs both orders
        proc = subprocess.run([sys.executable, "-c", self._IMPORT_ORDER, str(SRC), first],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_moved_kernel_raises_a_typed_import_error(self, tmp_path):
        # a scipy without fft/_pocketfft/pypocketfft*.so, as a release that
        # moved the extension would be
        stub = tmp_path / "scipy"
        stub.mkdir()
        (stub / "__init__.py").write_text('__version__ = "0.0.stub"\n')
        code = ("import sys\nsys.path[:0] = sys.argv[1:3]\n"
                "try:\n    import hkdvlab.spectral\n"
                "except ImportError as e:\n    print(type(e).__name__, e.path, e)\n")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), str(SRC)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        where = str(stub / "fft" / "_pocketfft")
        kind, path, message = proc.stdout.strip().split(" ", 2)
        assert (kind, path) == ("ImportError", where)
        assert where in message and "scipy 0.0.stub" in message

    def test_missing_scipy_raises_module_not_found(self):
        code = ("import sys\nsys.path.insert(0, sys.argv[1])\nsys.modules['scipy'] = None\n"
                "try:\n    import hkdvlab.spectral\n"
                "except ModuleNotFoundError as e:\n    print(e.name)\n")
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "scipy"


class TestHurwitzZeta:
    """``_hurwitz_zeta`` ports the cephes routine behind
    ``scipy.special.zeta``; ``stein_deriv``'s fold tail needs it to the bit
    for ``stein.csv`` to stay byte-identical."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5])
    def test_suite_arguments(self, alpha):
        for x in (1.0 + alpha, 3.0 + alpha):
            assert _hurwitz_zeta(x, 4.0).hex() == float(zeta(x, 4.0)).hex()

    @pytest.mark.parametrize("q", [1.0, 2.0, 4.0, 7.5])
    def test_equals_scipy_bit_for_bit(self, q):
        # 1 - random() lies in (0, 1], so x in (1, 6]
        x = 1.0 + 5.0 * (1.0 - np.random.default_rng(int(4 * q)).random(20_000))
        got = np.array([_hurwitz_zeta(float(v), q) for v in x])
        assert np.array_equal(got.view(np.int64), zeta(x, q).view(np.int64))


@settings(max_examples=20, deadline=None)
@given(k=st.integers(min_value=1, max_value=60), s=st.floats(0.1, 3.0))
def test_frac_deriv_eigenmode(k, s):
    g = make_grid(128, 2 * math.pi)
    f = RealField(g, np.sin(k * g.nodes))
    d = frac_deriv(f, s, "homogeneous")
    # |xi|^s lifts the rounding in every bin, by up to (n/2)^s at the top one
    atol = 1e-11 * k ** s + 4 * np.finfo(float).eps * (g.n // 2) ** s
    assert np.allclose(d.samples, k ** s * f.samples, rtol=1e-11, atol=atol)


class TestMultipliers:
    def test_identity(self, grid, rng):
        # order 0 of the derivative, and |xi|^0 on a zero-mean field
        f = fields.random_band_limited(grid, rng, band=50)
        for out in (derivative(f, 0), frac_deriv(f, 0.0, "homogeneous")):
            assert np.allclose(out.samples, f.samples, atol=1e-14)

    def test_first_derivative_of_sine(self):
        g = make_grid(128, 2 * math.pi)
        k = 5
        f = RealField(g, np.sin(k * g.nodes))
        d = derivative(f, 1)
        assert np.allclose(d.samples, k * np.cos(k * g.nodes), atol=1e-11)

    def test_semigroup_composition(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=60, decay=0.5)
        once = frac_deriv(f, -1.3, "inhomogeneous")
        twice = frac_deriv(frac_deriv(f, 0.7, "inhomogeneous"), -2.0, "inhomogeneous")
        assert np.linalg.norm(once.samples - twice.samples) < 1e-13 * np.linalg.norm(f.samples)
        d3 = derivative(f, 3)
        d12 = derivative(derivative(f, 1), 2)
        assert np.linalg.norm(d12.samples - d3.samples) < 1e-13 * np.linalg.norm(d3.samples)


class TestSymbols:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_full_symbol_is_hermitian_power(self, grid, order):
        sym = reference.full_symbol(deriv_symbol(grid, order))
        xi = reference.odd_frequencies(grid) if order % 2 else reference.frequencies(grid)
        assert np.allclose(sym, (1j * xi) ** order, rtol=1e-13, atol=0.0)
        # slot n - m holds q = -m, the conjugate of slot m
        assert np.array_equal(sym[:0:-1], np.conj(sym[1:]))

    def test_odd_symbols_zero_the_nyquist(self, grid):
        for order in (1, 3, 5):
            assert deriv_symbol(grid, order)[-1] == 0.0
        xi = reference.odd_frequencies(grid)
        assert xi[grid.n // 2] == 0.0
        keep = np.arange(grid.n) != grid.n // 2
        assert np.array_equal(xi[keep], reference.frequencies(grid)[keep])


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

    def test_bessel_potential_inverts_j_s(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=60, decay=0.5)
        back = frac_deriv(frac_deriv(f, 1.5, "inhomogeneous"), -1.5, "inhomogeneous")
        assert np.linalg.norm(back.samples - f.samples) < 1e-13 * np.linalg.norm(f.samples)

    def test_unknown_kind_rejected(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=20)
        with pytest.raises(ValueError, match="kind"):
            frac_deriv(f, 0.5, "riesz")


class TestSynthesize:
    def test_reproduces_samples_at_nodes(self, grid, rng):
        # white noise carries the Nyquist bin, which enters with weight 1
        for f in (fields.random_band_limited(grid, rng, band=80, decay=0.5),
                  RealField(grid, rng.standard_normal(grid.n))):
            got = synthesize_at(grid, rfft(f.samples), grid.nodes)
            assert np.max(np.abs(got - f.samples)) < 1e-13 * f.linf()

    def test_trig_polynomial_between_nodes(self, rng):
        g = make_grid(64, 2 * math.pi)
        f = RealField(g, np.sin(3 * g.nodes) + 0.5 * np.cos(7 * g.nodes))
        x = rng.uniform(-math.pi, math.pi, 25)
        got = synthesize_at(g, rfft(f.samples), x)
        assert np.allclose(got, np.sin(3 * x) + 0.5 * np.cos(7 * x), rtol=0.0, atol=1e-13)
        assert synthesize_at(g, rfft(f.samples), 0.25).shape == (1,)


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

    def test_constant_closed_form_at_alpha_one(self):
        # c_1 = sqrt(pi) * Gamma(-1/2) / (2 * Gamma(1)) = -pi
        assert stein_constant(1.0) == pytest.approx(-math.pi, rel=1e-15)
        assert all(stein_constant(a) < 0 for a in (0.1, 0.5, 1.5, 1.9))

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

    def test_rejects_three_cutoffs(self):
        g = make_grid(512, 40.0)
        with pytest.raises(ValueError, match="one or two cutoffs"):
            stein_deriv(fields.gaussian(g), 0.5, eps_seq=(8 * g.dx, 4 * g.dx, 2 * g.dx))

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.3, 2.5])
    def test_rejects_alpha_out_of_range(self, alpha):
        g = make_grid(512, 40.0)
        with pytest.raises(ValueError):
            stein_deriv(fields.gaussian(g), alpha)


class TestHalfSpectrumOracle:
    """The rfft operators against the full-complex forward/multiplier/inverse
    path of ``reference``, and the Stein convolution against the O(n^2) shift
    loop."""

    @staticmethod
    def _full_symbol(g, order):
        xi = reference.odd_frequencies(g) if order % 2 == 1 else reference.frequencies(g)
        return (1j * xi) ** order

    @pytest.mark.parametrize("order", range(6))
    def test_derivative(self, order):
        g = make_grid(256, 40.0)
        # white noise: every bin, the Nyquist bin included, carries content
        f = RealField(g, np.random.default_rng(order).standard_normal(g.n))
        ref = reference.inverse(g, self._full_symbol(g, order) * reference.forward(f))
        got = derivative(f, order)
        scale = np.max(np.abs(ref.samples))
        assert np.max(np.abs(got.samples - ref.samples)) <= 1e-12 * scale
        # the symbol extended to FFT order; the odd-order Nyquist rule shows
        # only here, as irfft drops that bin's imaginary part
        full = self._full_symbol(g, order)
        err = np.max(np.abs(reference.full_symbol(deriv_symbol(g, order)) - full))
        assert err <= 1e-12 * np.max(np.abs(full))

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_linear_flow(self, j):
        g = make_grid(256, 40.0)
        u0 = RealField(g, np.random.default_rng(j).standard_normal(g.n))
        sign = 1.0 if (j + 1) % 2 == 0 else -1.0
        theta = sign * reference.odd_frequencies(g) ** (2 * j + 1)
        # t keeps t * max|theta| near 10, so the phase is not dominated by rounding
        t = 10.0 / np.max(np.abs(theta))
        ref = reference.inverse(g, np.exp(1j * t * theta) * reference.forward(u0))
        got = linear_flow(DispersionParams(j), t, u0)
        assert np.max(np.abs(got.samples - ref.samples)) <= 1e-12 * np.max(np.abs(ref.samples))

    def test_grid_geometry_is_read_only(self):
        g = make_grid(64, 10.0)
        for name in ("xi", "nodes"):
            a = getattr(g, name)
            assert getattr(g, name) is a          # built once per grid
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
        got = _stein_truncated(f, alpha, m_min)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestDealias:
    """The solver's dealias rule: ``evolve`` truncates its datum and
    its right-hand side its products to ``|q| <= dealias_cutoff(n, k)``."""

    @staticmethod
    def _start(params, f):
        return evolve(params, f, 1e-3, 1e-3).slices[0]

    def test_band_limited_unchanged(self, grid, rng):
        f = fields.random_band_limited(grid, rng, band=grid.n // 3 - 1)
        assert np.allclose(self._start(DispersionParams(1, 1), f).samples, f.samples)

    def test_top_mode_zeroed(self):
        g = make_grid(64, 10.0)
        q = g.n // 2 - 1
        f = RealField(g, np.cos(2 * np.pi * q * g.nodes / g.L))
        # only the rounding of the datum's transform survives in the band
        assert self._start(DispersionParams(1, 1), f).linf() < 1e-14

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), k=st.integers(1, 3))
    def test_idempotent(self, seed, k):
        g = make_grid(64, 10.0)
        r = np.random.default_rng(seed)
        params = DispersionParams(1, k)
        once = self._start(params, fields.random_band_limited(g, r, band=30))
        assert np.allclose(self._start(params, once).samples, once.samples)

    @pytest.mark.parametrize("j,k", [(1, 1), (2, 1), (1, 3)])
    def test_rhs_vanishes_outside_band(self, rng, j, k):
        g = make_grid(64, 10.0)
        uh = np.fft.rfft(fields.random_band_limited(g, rng, band=30).samples)
        out, keep = reference.band_rhs(DispersionParams(j, k), g, uh)
        assert np.array_equal(keep, np.arange(g.n // 2 + 1) <= dealias_cutoff(g.n, k))
        assert np.all(out[~keep] == 0) and np.any(out[keep] != 0)

    def test_top_kept_mode_does_not_alias(self):
        # u = cos(c x) at the cutoff c of the cubic nonlinearity: -(u^2 u_x) is
        # (c/4)(sin cx + sin 3cx), and 3c must not fold back onto a kept bin
        g = make_grid(64, 2 * math.pi)
        c = dealias_cutoff(g.n, 2)
        uh = np.fft.rfft(np.cos(c * g.nodes))
        got, keep = reference.band_rhs(DispersionParams(1, 2), g, uh)
        # each kept bin holds the exact coefficient of its own mode; 3c lies
        # beyond the Nyquist bin and is dropped, not folded
        expect = np.zeros(g.n // 2 + 1, dtype=complex)
        for m in (c, 3 * c):
            if m <= g.n // 2:
                expect[m] += c / 4.0 * np.fft.rfft(np.sin(m * g.nodes))[m]
        assert np.max(np.abs(got[keep] - expect[keep])) < 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @settings(max_examples=10, deadline=None)
    @given(m=st.integers(1, 16), seed=st.integers(0, 10 ** 6))
    def test_product_matches_direct_convolution(self, j, k, m, seed):
        # the kept bins of -F[u^k d^j u] are the (k+1)-fold linear convolution
        # of the factors' coefficients when u is band-limited to the cutoff:
        # on grids where k + 2 divides n, where a cutoff of n // (k + 2) would
        # let the top kept mode alias, and on one grid where it does not
        step = math.lcm(2, k + 2)
        for n in (step * max(m, -(-16 // step)), 62):
            g = make_grid(n, 10.0)
            c = dealias_cutoff(n, k)
            f = fields.random_band_limited(g, np.random.default_rng(seed), band=c, decay=0.5)
            uh = np.fft.rfft(f.samples)
            got, keep = reference.band_rhs(DispersionParams(j, k), g, uh)
            cu = reference.forward(f)
            cd = (1j * reference.frequencies(g)) ** j * cu
            band = np.arange(-c, c + 1) % n
            conv = cd[band]
            for _ in range(k):
                conv = np.convolve(conv, cu[band])
            q = np.arange(c + 1)
            # forward coefficients carry dx * (-1)^q over the raw FFT, and a
            # product of k + 1 of them carries 1 / L^k
            expect = -conv[q + (k + 1) * c] / g.L ** k * (-1.0) ** q / g.dx
            assert np.array_equal(np.flatnonzero(keep), q)
            assert np.max(np.abs(got[keep] - expect)) <= 1e-12 * np.max(np.abs(expect))


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

    def test_zero_field_passes_decay_gate(self, grid):
        require_decay(RealField(grid, np.zeros(grid.n)))  # no raise
