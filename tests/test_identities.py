import cmath
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hkdvlab.fields as fields
import reference
import hkdvlab.identities as identities
from hkdvlab.experiments import (_COMMUTATOR_L, _MAX_SHIFT, _SLOPE_HI, _SLOPE_LO,
                                 _commutator_grid)
from hkdvlab.errors import BandLimitError, BoundaryDecayError, KernelWindowError
from hkdvlab.identities import (_contour, _kernel_sup, _kernel_window, dispersive_decay_probe,
                                solve_coefficients, verify_reduction_identity,
                                x_weight_commutator)
from hkdvlab.propagators import DispersionParams
from hkdvlab.spectral import DECAY_GATE, RealField, make_grid


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


#: the identities suite's paddings: scale of the base box and decay gate
_PADDINGS = (("half", 0.5, None), ("base", 1.0, DECAY_GATE), ("double", 2.0, None))


@pytest.fixture(scope="module")
def suite_commutators():
    """``(j, t) -> {padding: (value, three-flow reference)}`` on the 18 grids
    of the identities suite."""
    out = {}
    for (j, t), L in _COMMUTATOR_L.items():
        params = DispersionParams(j)
        out[j, t] = {}
        for label, scale, gate in _PADDINGS:
            u0 = fields.gaussian(_commutator_grid(scale * L), width=1.0)
            out[j, t][label] = (x_weight_commutator(params, t, u0, gate=gate),
                                reference.x_weight_commutator(params, t, u0))
    return out


class TestCommutator:
    def test_matches_three_flow_composition(self, suite_commutators):
        # one group symbol and four transforms against three linear flows
        # and a derivative, each with its own transform pair
        gaps = {(case, label): abs(value - ref)
                for case, errs in suite_commutators.items()
                for label, (value, ref) in errs.items()}
        assert len(gaps) == 18
        assert max(gaps.values()) <= 1e-12, gaps

    @pytest.mark.parametrize("case", sorted(_COMMUTATOR_L))
    def test_padding_order(self, suite_commutators, case):
        errs = {label: value for label, (value, _) in suite_commutators[case].items()}
        assert errs["half"] > errs["base"] > errs["double"], errs

    @pytest.mark.parametrize("gate", [None, DECAY_GATE])
    def test_bit_identical_to_the_plain_formula(self, gate):
        # in-place buffers and checks moved ahead of the transforms change
        # neither the value's bits nor which check raises, on every grid of
        # the suite; with the gate on, each half box fails at x*W(t)u0
        raised = 0
        for (j, t), L in _COMMUTATOR_L.items():
            params = DispersionParams(j)
            for label, scale, _ in _PADDINGS:
                u0 = fields.gaussian(_commutator_grid(scale * L), width=1.0)
                try:
                    want = reference.x_weight_commutator_plain(params, t, u0, gate=gate)
                except BoundaryDecayError as err:
                    with pytest.raises(BoundaryDecayError) as got:
                        x_weight_commutator(params, t, u0, gate=gate)
                    assert str(got.value) == str(err)
                    raised += 1
                    continue
                got = x_weight_commutator(params, t, u0, gate=gate)
                assert got.hex() == want.hex(), (j, t, label)
        assert raised == (0 if gate is None else 6)

    @pytest.mark.parametrize("tail", ["u0", "x*u0"])
    def test_checks_raise_in_order(self, tail):
        # the gate is 1e-6 of the peak: a box of length 7 cuts u0 at 4.8e-6,
        # one of length 7.6 at 5.4e-7, where x u0 reads 4.8e-6 of its peak
        g = make_grid(512, 7.0 if tail == "u0" else 7.6)
        u0 = fields.gaussian(g, width=1.0)
        with pytest.raises(BoundaryDecayError, match=rf"^{re.escape(tail)}: ") as got:
            x_weight_commutator(DispersionParams(1), 0.1, u0)
        with pytest.raises(BoundaryDecayError) as want:
            reference.x_weight_commutator_plain(DispersionParams(1), 0.1, u0)
        assert str(got.value) == str(want.value)

    def test_peak_memory_is_four_arrays(self):
        # the (2, 0.5) double box of the suite sets the lab's resident peak;
        # the plain formula holds 7.0 arrays of 8n bytes at once, the in-place
        # one 4.0 (the caller's u0 and the grid's cached nodes and xi excluded)
        g = make_grid(2 ** 18, 26214.4)
        u0 = fields.gaussian(g, width=1.0)
        g.nodes, g.xi
        tracemalloc.start()
        try:
            x_weight_commutator(DispersionParams(2), 0.5, u0, gate=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 8 * g.n, peak / (8 * g.n)

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


#: (j, envelope, t) of the decay suite's 28 sups, and of j = 3 on j = 2's envelopes
_SUITE_CASES = [(j, env, t) for j, envs in ((1, (4.0, 8.0)), (2, (3.0, 6.0))) for env in envs
                for t in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)]
_J3_CASES = [(3, env, t) for env in (3.0, 6.0) for t in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)]


class TestDecayProbe:
    def test_t_below_one_rejected(self):
        with pytest.raises(ValueError):
            dispersive_decay_probe(1, t_list=(0.5, 1, 2))

    def test_argmax_on_window_edge_raises(self, monkeypatch):
        # a window far inside the Airy region puts the sup on its edge
        monkeypatch.setattr(identities, "_WINDOW_REACH", 0.5)
        with pytest.raises(KernelWindowError, match=r"j=1, t=2, env=4 lies at argmax "
                                                    r"index (0|4), .* m=2 nodes"):
            _kernel_sup(1, 2.0, 4.0)

    def test_window_node_count(self):
        # dx = pi / (3.2 env) and m = int(24 t^(1/(2j+1)) / dx): 97 and 336
        assert _kernel_sup(1, 1.0, 4.0)[1] == 195
        assert _kernel_sup(2, 64.0, 6.0)[1] == 673

    @pytest.mark.parametrize("j, env, t", _SUITE_CASES + _J3_CASES)
    def test_doubling_the_panel_nodes_moves_no_sup(self, monkeypatch, j, env, t):
        base = _kernel_sup(j, t, env)[0]
        monkeypatch.setattr(identities, "_PANEL_NODES", 2 * identities._PANEL_NODES)
        assert _kernel_sup(j, t, env)[0] == pytest.approx(base, rel=1e-8, abs=0.0)

    def test_running_product_matches_direct_exponentials(self, monkeypatch):
        # a one-row phase table makes every node a seed, e^(i x_k xi) by a direct exp
        cases = [(1, 8.0, 64.0), (2, 6.0, 64.0), (3, 3.0, 8.0)]
        base = [_kernel_window(j, t, env)[1] for j, env, t in cases]
        monkeypatch.setattr(identities, "_CHUNK", 1)
        for (j, env, t), b in zip(cases, base):
            direct = _kernel_window(j, t, env)[1]
            assert np.max(np.abs(b - direct)) < 1e-13 * np.max(np.abs(direct))

    @pytest.mark.parametrize("j, env, t", _SUITE_CASES + _J3_CASES)
    def test_matches_the_block_running_product(self, j, env, t):
        # the phase table reassociates the block loop's sums, and moves nothing
        # beyond rounding
        kern = _kernel_window(j, t, env)[1]
        ref = reference.kernel_window_running_product(*_contour(j, t, env))
        assert np.max(np.abs(kern - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("j, env, t", _SUITE_CASES + _J3_CASES)
    def test_matches_the_direct_sum(self, j, env, t):
        # 2 Re sum w e^(i x xi) over the same contour, one exact exponential per
        # node and a correctly rounded sum, at the argmax, both edges and the centre
        dx, m, xi, w = _contour(j, t, env)
        kern = _kernel_window(j, t, env)[1]
        for k in {0, m, 2 * m, int(np.argmax(np.abs(kern)))}:
            x = (k - m) * dx
            direct = 2.0 * math.fsum((wq * cmath.exp(1j * x * q)).real for wq, q in zip(w, xi))
            assert abs(kern[k] - direct) <= 1e-14 * np.max(np.abs(kern)), k

    def test_one_running_product_per_window(self, monkeypatch):
        # the suite's two probes synthesize 28 windows, each from one phase table
        calls = []
        cumprod = np.cumprod

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return cumprod(*args, **kwargs)

        monkeypatch.setattr(np, "cumprod", counted)
        dispersive_decay_probe(1)
        dispersive_decay_probe(2)
        assert len(calls) == 28

    @pytest.mark.parametrize("j, env, step", [(1, 4.0, 2e-4), (2, 3.0, 2e-6), (3, 1.5, 3.3e-7)])
    def test_matches_the_trapezoid_reference(self, j, env, step):
        # the step resolves the phase wherever the integrand exceeds about 1e-12;
        # j = 3 takes envelope 1.5, since envelope 3 would need about 1e9 points
        dx, kern = _kernel_window(j, 1.0, env)
        i = int(np.argmax(np.abs(kern)))
        x = (np.arange(i - 1, i + 2) - kern.size // 2) * dx
        ref = reference.kernel_trapezoid(j, 1.0, env, x, step)
        assert np.max(np.abs(kern[i - 1:i + 2] / ref - 1.0)) < 1e-10

    def test_j3_passes_the_suite_bounds(self):
        fit = dispersive_decay_probe(3, envelopes=(3.0, 6.0))
        for env in fit.envelopes:
            assert _SLOPE_LO <= fit.slopes[env] <= _SLOPE_HI, fit.slopes
        assert fit.slope_shift < _MAX_SHIFT
        # envelopes (2, 4) give a shift of 0.0258, which fails the 0.02 bound

    def test_j4_passes_the_suite_bounds(self):
        fit = dispersive_decay_probe(4, envelopes=(3.0, 6.0))
        for env in fit.envelopes:
            assert _SLOPE_LO <= fit.slopes[env] <= _SLOPE_HI, fit.slopes
        assert fit.slope_shift < _MAX_SHIFT

    @pytest.mark.parametrize("j, env, t", _SUITE_CASES + _J3_CASES + [(3, 2.0, 1.0)])
    def test_panels_keep_the_sizing_contract(self, j, env, t):
        # each panel's bound grows by at most _PANEL_PHASE, and at the ray's far
        # end, the last panel's outer edge, the worst node's integrand has fallen
        # by _RAY_DEPTH; the panel ends come from the nodes, the bounds from
        # reference.contour_bounds.  At (3, 2, 1) the segment's bound is 63.99,
        # and four interpolated panels would let one grow past _PANEL_PHASE
        xi = _contour(j, t, env)[2]
        ref = reference.contour_bounds(j, t, env)
        on_ray = xi.imag != 0.0
        count = identities._PANEL_NODES
        for bound, nodes in ((ref.segment, np.sqrt(xi[~on_ray].real)),
                             (ref.ray, xi[on_ray].imag / math.sin(ref.phi))):
            a, b = reference.panel_ends(nodes, count)
            assert np.max(bound(b) - bound(a)) <= identities._PANEL_PHASE
        far = reference.panel_ends(xi[on_ray].imag / math.sin(ref.phi), count)[1][-1]
        floor = max(float(ref.level(0.0)), 0.0) - identities._RAY_DEPTH
        assert float(ref.level(far)) <= floor

    def test_contour_tables_have_at_most_65_points(self, monkeypatch):
        # the panel edges and the ray's end come from tables of at most 65
        # points and no np.linspace; the 28 windows hold at most 8400 nodes
        sizes = {"linspace": [], "interp": [], "phase": [], "nodes": []}

        def spy(name, fn, arg):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                sizes[name].append(np.size(out[2] if name == "nodes" else args[arg]))
                return out
            return wrapped

        monkeypatch.setattr(np, "linspace", spy("linspace", np.linspace, 0))
        monkeypatch.setattr(np, "interp", spy("interp", np.interp, 1))
        monkeypatch.setattr(identities, "_phase", spy("phase", identities._phase, 0))
        monkeypatch.setattr(identities, "_contour", spy("nodes", identities._contour, 0))
        dispersive_decay_probe(1)
        dispersive_decay_probe(2)
        assert sizes["linspace"] == []
        assert len(sizes["interp"]) >= 56 and max(sizes["interp"]) <= 65
        # the phase runs on the ray's tables and, once per window, on its nodes
        assert sorted(n for n in sizes["phase"] if n > 65) == sorted(sizes["nodes"])
        assert len(sizes["nodes"]) == 28 and sum(sizes["nodes"]) <= 8400

    def test_the_rule_is_built_once_per_process(self, monkeypatch):
        # the suite's two probes evaluate 56 contours of two panel sets each
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counted(deg):
            calls.append(deg)
            return leggauss(deg)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        identities._rule.cache_clear()
        try:
            dispersive_decay_probe(1)
            dispersive_decay_probe(2)
        finally:
            identities._rule.cache_clear()
        assert calls == [identities._PANEL_NODES]

    def test_the_rule_is_read_only(self):
        z, w = identities._rule(identities._PANEL_NODES)
        assert not z.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_memory_of_a_probe_call(self):
        # 240 contour nodes and 673 window nodes: the 64-row phase table is
        # 0.23 MiB, a unit-stride copy of its real part 0.12 MiB, the peak 0.43 MiB
        _kernel_sup(2, 64.0, 6.0)
        tracemalloc.start()
        try:
            _kernel_sup(2, 64.0, 6.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
