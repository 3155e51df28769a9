import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import hkdvlab.fields as fields
import reference
from hkdvlab.blowup import (BlowupDatumSpec, DatumTerm, SingularProfileSpec,
                            _quotient, blowup_contrast, build_blowup_datum,
                            coprime_pairs, excluded_time_ratio, irrationality_gap,
                            singular_profile, smoothing_gain, tail_exponent)
from hkdvlab.errors import TailFitError
from hkdvlab.experiments import default_config
from hkdvlab.propagators import DispersionParams, evolve, linear_flow
from hkdvlab.spectral import forward, make_grid

J2 = DispersionParams(2, 1)


def _jump_quotient(f, order, x_star, h_set=None):
    """The suite's second-difference quotient of ``d^order f`` at ``x_star``,
    taken at ``t = 0``, where ``W(0)`` is the identity for every ``j``."""
    g = f.grid
    if h_set is None:
        h_set = tuple(g.dx * c for c in (16, 8, 4, 2))
    return _quotient(DispersionParams(order), forward(f).coeffs, g, 0.0, x_star, h_set)


def _top_octaves_tail(F):
    """``tail_exponent`` over the top two octaves of the grid."""
    xi_hi = float(np.max(np.abs(F.grid.frequencies)))
    return tail_exponent(F, xi_hi / 4.0, xi_hi)


class TestSingularProfile:
    def test_even_exponent_is_analytic(self):
        spec = SingularProfileSpec(alpha=2.0)
        g = make_grid(512, 40.0)
        prof = singular_profile(spec, g)
        assert np.allclose(prof.samples, np.exp(-2.0 * g.nodes ** 2))

    def test_alpha3_failure_order_and_tail(self):
        spec = SingularProfileSpec(alpha=3.0)
        g = make_grid(8192, 160.0)
        prof = singular_profile(spec, g)
        te = _top_octaves_tail(forward(prof))
        assert 3.5 < te < 4.5   # |profile_hat| ~ |xi|^-(alpha+1)

    def test_l2_against_quadrature(self):
        g = make_grid(4096, 60.0)
        prof = singular_profile(SingularProfileSpec(alpha=3.0), g)
        oracle = math.sqrt(quad(lambda x: math.exp(-4.0 * abs(x) ** 3),
                                -30.0, 30.0)[0])
        assert prof.l2() == pytest.approx(oracle, abs=1e-8)


class TestBlowupDatum:
    def test_single_term(self):
        g = make_grid(2048, 80.0)
        spec = BlowupDatumSpec(qmax=1, pmax=1)
        u0, manifest = build_blowup_datum(spec, J2, g)
        assert len(manifest) == 1
        term = manifest[0]
        assert term.singular_time == 1.0
        assert term.singular_location == 1.0
        prof = singular_profile(SingularProfileSpec(3.0, center=1.0), g)
        direct = linear_flow(J2, -1.0, prof)
        assert np.allclose(u0.samples, term.weight * direct.samples, atol=1e-12)

    def test_linear_in_weights(self):
        # the datum is the weighted superposition of its manifest terms, so
        # doubling every weight doubles the field
        g = make_grid(1024, 80.0)
        spec = BlowupDatumSpec(qmax=2, pmax=2, scheme="normalized", delta=0.1)
        u0, manifest = build_blowup_datum(spec, J2, g)
        rebuilt = np.zeros(g.n)
        for t in manifest:
            prof = singular_profile(SingularProfileSpec(3.0, center=t.singular_location), g)
            rebuilt += t.weight * linear_flow(J2, -t.singular_time, prof).samples
        assert np.allclose(rebuilt, u0.samples, atol=1e-12)
        assert np.allclose(2.0 * rebuilt, 2.0 * u0.samples, atol=1e-12)

    def test_paper_weights_are_tiny(self):
        g = make_grid(1024, 80.0)
        spec = BlowupDatumSpec(qmax=2, pmax=2, scheme="paper")
        _, manifest = build_blowup_datum(spec, J2, g)
        wmax = max(t.weight for t in manifest)
        assert wmax == pytest.approx(math.exp(-math.exp(2.0)) * math.exp(-2.0),
                                     rel=1e-12)
        assert wmax < 1e-4

    def test_datum_smooth_at_singular_points_initially(self):
        # every term is back-propagated, so no derivative jump at t = 0
        g = make_grid(16384, 320.0)
        spec = BlowupDatumSpec(qmax=2, pmax=2, scheme="normalized", delta=0.15)
        u0, _ = build_blowup_datum(spec, J2, g)
        q0 = _jump_quotient(u0, 2, 1.0)
        prof = singular_profile(SingularProfileSpec(3.0, center=1.0), g)
        qprof = _jump_quotient(prof, 2, 1.0)
        assert q0 < 0.1 * qprof


class TestDatumSpec:
    def test_coprime_pairs(self):
        assert coprime_pairs(2, 2) == [(1, 1), (1, 2), (2, 1)]
        pairs = coprime_pairs(4, 4)
        assert len(pairs) == 11
        assert all(math.gcd(p, q) == 1 for p, q in pairs)

    def test_weight_schemes(self):
        paper = BlowupDatumSpec(scheme="paper")
        assert paper.weight(1, 2, 2, 1) == pytest.approx(
            math.exp(-math.exp(3.0)) * math.exp(-5.0), rel=1e-14)
        normalized = BlowupDatumSpec(scheme="normalized", delta=0.1)
        assert normalized.weight(1, 1, 1, 1) == math.exp(-2.0)
        assert normalized.weight(2, 1, 2, 1) == 0.1   # exp(-8) sits below the floor

    def test_term_time_and_location(self):
        term = DatumTerm(p1=1, q1=2, p2=3, q2=4, weight=0.5)
        assert term.singular_time == 0.75
        assert term.singular_location == 0.5

    def test_invalid_specs_rejected(self):
        for kw in ({"qmax": 0}, {"pmax": 0}, {"scheme": "uniform"}):
            with pytest.raises(ValueError):
                BlowupDatumSpec(**kw)
        with pytest.raises(ValueError, match="alpha"):
            SingularProfileSpec(0.0)
        with pytest.raises(ValueError, match="center"):
            singular_profile(SingularProfileSpec(3.0, center=40.0), make_grid(256, 80.0))


class TestIrrationalityGap:
    @settings(max_examples=30, deadline=None)
    @given(p=st.integers(1, 40), q=st.integers(1, 40))
    def test_rationals_in_range_have_zero_gap(self, p, q):
        cert = irrationality_gap(p / q, 50)
        assert cert.rational_in_range
        assert cert.gap == 0.0

    def test_sqrt2_positive(self):
        cert = irrationality_gap(math.sqrt(2.0), 50)
        assert cert.gap > 0
        assert not cert.rational_in_range

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            irrationality_gap(0.5, 1)


class TestSingularityIndicator:
    def test_smooth_gaussian_decreases_with_h(self):
        g = make_grid(4096, 80.0)
        f = fields.gaussian(g, width=2.0)
        quotients = []
        for h in (16, 8, 4, 2):
            q = _jump_quotient(f, 4, 0.5, h_set=(h * g.dx,))
            quotients.append(q)
        assert all(a > b for a, b in zip(quotients, quotients[1:]))

    def test_profile_jump_bounded_below(self):
        g = make_grid(16384, 320.0)
        prof = singular_profile(SingularProfileSpec(3.0), g)
        for h in (16, 8, 4, 2):
            q = _jump_quotient(prof, 2, 0.0, h_set=(h * g.dx,))
            assert q > 0.7 * 12.0   # sign-jump of size 2*(j+1)! = 12

    def test_evolved_profile_smooth_at_irrational_time(self):
        g = make_grid(16384, 320.0)
        prof = singular_profile(SingularProfileSpec(3.0), g)
        wt = linear_flow(J2, math.sqrt(2.0), prof)
        quotients = []
        for h in (16, 8, 4):
            q = _jump_quotient(wt, 2, 0.0, h_set=(h * g.dx,))
            quotients.append(q)
        assert all(a > b for a, b in zip(quotients, quotients[1:]))


class TestTailExponent:
    def test_prescribed_tail_recovered(self, rng):
        g = make_grid(4096, 160.0)
        f = fields.rough_spectrum_field(g, rng, s=2.0)
        te = _top_octaves_tail(forward(f))
        assert 2.0 < te < 3.0   # fitted on (1+xi)^-2.5 over the top octaves

    def test_too_few_octaves(self, rng):
        g = make_grid(256, 40.0)
        F = forward(fields.gaussian(g))
        with pytest.raises(TailFitError):
            tail_exponent(F, xi_lo=5.0, xi_hi=8.0)


@pytest.fixture(scope="module")
def contrast_grid():
    return make_grid(16384, 320.0)


class TestContrast:
    def test_one_term_contrast(self, contrast_grid):
        spec = BlowupDatumSpec(qmax=1, pmax=1, scheme="normalized", delta=0.15)
        rec = blowup_contrast(build_blowup_datum(spec, J2, contrast_grid), J2, 1.0)[0]
        assert rec.contrast >= 10.0
        # refocusing is exact: the quotient equals the weighted raw profile's
        prof = singular_profile(SingularProfileSpec(3.0, center=1.0), contrast_grid)
        qprof = _jump_quotient(prof, 2, 1.0)
        w = spec.weight(1, 1, 1, 1)
        assert rec.quotient_rational == pytest.approx(w * qprof, rel=1e-6)

    def test_weight_scheme_only_rescales_one_term(self, contrast_grid):
        a = blowup_contrast(build_blowup_datum(BlowupDatumSpec(1, 1, "normalized", 0.15),
                                               J2, contrast_grid), J2, 1.0)[0]
        b = blowup_contrast(build_blowup_datum(BlowupDatumSpec(1, 1, "paper"),
                                               J2, contrast_grid), J2, 1.0)[0]
        # contrast is scale-free; quotients scale with the term weight
        assert a.contrast == pytest.approx(b.contrast, rel=1e-6)
        wa = BlowupDatumSpec(1, 1, "normalized", 0.15).weight(1, 1, 1, 1)
        wb = BlowupDatumSpec(1, 1, "paper").weight(1, 1, 1, 1)
        assert (a.quotient_rational / b.quotient_rational
                == pytest.approx(wa / wb, rel=1e-6))

    def test_excluded_time_behaves_like_irrational(self, contrast_grid):
        spec = BlowupDatumSpec(qmax=2, pmax=2, scheme="normalized", delta=0.15)
        ratio = excluded_time_ratio(build_blowup_datum(spec, J2, contrast_grid), J2, 2.5)
        assert 0.5 <= ratio <= 2.0

    def test_rational_probe_rejected(self, contrast_grid):
        spec = BlowupDatumSpec(qmax=1, pmax=1)
        with pytest.raises(ValueError, match="rational"):
            blowup_contrast(build_blowup_datum(spec, J2, contrast_grid), J2, 1.0,
                            t_irrational=0.5)

    def test_non_manifest_time_rejected(self, contrast_grid):
        spec = BlowupDatumSpec(qmax=1, pmax=1)
        with pytest.raises(ValueError, match="singular time"):
            blowup_contrast(build_blowup_datum(spec, J2, contrast_grid), J2, 0.75)


class TestSmoothingGain:
    def test_linear_limit_reports_undefined(self):
        g = make_grid(512, 60.0)
        u0 = fields.gaussian(g, width=2.0, amplitude=1e-9)
        p = DispersionParams(1, 1)
        traj = evolve(p, u0, 0.1, 1e-3, stride=10 ** 9)
        rep = smoothing_gain(traj, u0)
        assert rep.gain is None
        assert "noise floor" in rep.reason

    def test_gain_invariant_under_amplitude_scaling(self, rng):
        # tail exponents are scale-free: halving the amplitude moves the
        # Duhamel term by 4x but not its fitted slope
        g = make_grid(1024, 160.0)
        p = DispersionParams(1, 1)
        shape = fields.rough_spectrum_field(g, rng, s=2.0)
        gains = []
        for amp in (0.5, 0.25):
            u0 = reference.scale(shape, amp / shape.linf())
            traj = evolve(p, u0, 0.25, 2e-4, stride=10 ** 9)
            rep = smoothing_gain(traj, u0)
            gains.append(rep.gain)
        assert gains[0] == pytest.approx(gains[1], abs=0.1)

    def test_k2_gain_at_seed_3(self):
        # the smoothing suite's k = 2 integration at seed 3, where a drift
        # fitted to the modes below cut/3 took up nonlinear content and the
        # gain fell to 0.44; the closed-form drift gives 1.04
        v = default_config("smoothing").values
        u0 = _smoothing_k2_datum(v, 3)
        p = DispersionParams(1, 2)
        T = v[("suite", "T")]
        traj = evolve(p, u0, T, v[("suite", "dt_k2")], stride=10 ** 9)
        rep = smoothing_gain(traj, u0)
        assert rep.gain >= 0.5
        assert rep.drift == -T * float(np.mean(traj.slices[0].samples ** 2))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_k2_gain_converged_in_dt(self, seed):
        # the suite's k = 2 step: halving it moves the gain by far less than
        # the margin to the gate
        v = default_config("smoothing").values
        u0 = _smoothing_k2_datum(v, seed)
        p = DispersionParams(1, 2)
        T, dt = v[("suite", "T")], v[("suite", "dt_k2")]
        gains = [smoothing_gain(evolve(p, u0, T, h, stride=10 ** 9), u0).gain
                 for h in (dt, dt / 2)]
        assert abs(gains[0] - gains[1]) <= 1e-5


def _smoothing_k2_datum(v, seed):
    """The smoothing suite's k = 2 datum at ``seed``."""
    g = make_grid(v[("grid", "n")], v[("suite", "L_k2")])
    return fields.rough_spectrum_field(g, np.random.default_rng(seed), s=v[("suite", "s")],
                                       amplitude=v[("suite", "amplitude")])
