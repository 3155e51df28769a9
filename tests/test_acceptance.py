"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every threshold is frozen here; nothing is calibrated at run time.  Criteria
that are exactly a suite's default configuration reuse the suite runner so
the shipped CLI demonstrates the same numbers.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import hkdvlab.fields as fields
from hkdvlab.experiments import default_config, run
from hkdvlab.identities import (dispersive_decay_probe, solve_coefficients,
                                verify_reduction_identity)
from hkdvlab.norms import CutoffSpec, make_cutoff
from hkdvlab.propagators import (ConjugationSpec, DispersionParams,
                                 conjugated_flow, duhamel_quadrature,
                                 duhamel_split, evolve, linear_flow)
from hkdvlab.spectral import RealField, derivative, frac_deriv, make_grid, stein_deriv


def _verdict(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def suite_reports(outdir):
    """Suites with nontrivial runtimes, executed once and reused."""
    reports = {}
    for name in ("persistence", "propagation", "blowup", "smoothing"):
        reports[name] = run(default_config(name, output_dir=str(outdir / "a")))
    return reports


def test_criterion_01_coefficient_system():
    t0 = time.perf_counter()
    c1 = solve_coefficients(1).c
    c2 = solve_coefficients(2).c
    exact = (c1 == (Fraction(-3), Fraction(1))
             and c2 == (Fraction(5), Fraction(-5), Fraction(1)))
    g = make_grid(256, 2 * math.pi)
    rng = np.random.default_rng(0)
    worst = 0.0
    for j in range(1, 6):
        for _ in range(20):
            f = fields.random_band_limited(g, rng, band=g.n // 4 - 2, decay=1.0)
            worst = max(worst, verify_reduction_identity(j, f))
    elapsed = time.perf_counter() - t0
    ok = exact and worst < 1e-8 and elapsed < 10.0
    _verdict(1, ok, f"coefficients exact={exact}, max residual {worst:.2e} < 1e-8, "
                    f"{elapsed:.1f}s < 10s")


def test_criterion_02_linear_flow_algebra():
    t0 = time.perf_counter()
    g = make_grid(1024, 1100.0)   # dispersive phases stay within float resolution
    rng = np.random.default_rng(1)
    worst_u = worst_g = 0.0
    for _ in range(50):
        u0 = fields.random_band_limited(g, rng, band=g.n // 2 - 1, decay=0.0)
        for j in (1, 2, 3):
            p = DispersionParams(j)
            for t in (0.1, 1.0, 10.0):
                worst_u = max(worst_u, abs(linear_flow(p, t, u0).l2() - u0.l2()) / u0.l2())
            a = linear_flow(p, 0.3, linear_flow(p, 0.2, u0))
            b = linear_flow(p, 0.5, u0)
            worst_g = max(worst_g, float(np.max(np.abs(a.samples - b.samples))) / u0.linf())
    elapsed = time.perf_counter() - t0
    ok = worst_u < 1e-12 and worst_g < 1e-12 and elapsed < 10.0
    _verdict(2, ok, f"unitarity {worst_u:.2e}, group law {worst_g:.2e} < 1e-12, "
                    f"{elapsed:.1f}s < 10s")


def test_criterion_03_dispersive_decay():
    t0 = time.perf_counter()
    lines = []
    ok = True
    for j in (1, 2):
        fit = dispersive_decay_probe(j)
        for env in fit.envelopes:
            sl = fit.slopes[env]
            ok &= -0.55 <= sl <= -0.45
            lines.append(f"j={j} env={env:g}: {sl:.4f}")
        ok &= fit.slope_shift < 0.02
        lines.append(f"j={j} shift={fit.slope_shift:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(3, ok, "; ".join(lines) + f"; {elapsed:.0f}s < 60s")


def test_criterion_04_x_commutator(outdir):
    cfg = default_config("identities", output_dir=str(outdir / "id"))
    report = run(cfg)
    by_name = {c.name: c for c in report.checks}
    cm = by_name["commutator_max"]
    mono = by_name["commutator_padding_monotone"]
    ok = cm.passed and mono.passed
    _verdict(4, ok, f"max relative error {cm.measured:.2e} < 1e-6, "
                    f"padding monotone={bool(mono.measured)}")
    # stash for criteria 1/6 companions
    test_criterion_04_x_commutator.report = report


def test_criterion_05_conjugated_semigroup_decay():
    spec = ConjugationSpec(sigma=1, time_sign=1)
    p = DispersionParams(1)
    ts = (0.05, 0.1, 0.2, 0.5, 1.0)
    ratios = {}
    for n in (1024, 2048):
        g = make_grid(n, 60.0)
        x = g.nodes
        w0 = RealField(g, np.exp(x) * np.exp(-2.0 * x ** 2))
        for ell in range(5):
            for t in ts:
                wt = conjugated_flow(p, spec, t, w0)
                ratios[(n, ell, t)] = (derivative(wt, ell).l2() * t ** (ell / 2.0)
                                       * math.exp(-t) / w0.l2())
    bound = max(v for (n, _, _), v in ratios.items() if n == 1024)
    drift = max(abs(ratios[(2048, ell, t)] - ratios[(1024, ell, t)])
                / ratios[(1024, ell, t)] for ell in range(5) for t in ts)
    ok = math.isfinite(bound) and bound < 5.0 and drift < 0.05
    _verdict(5, ok, f"normalized ratio bounded by {bound:.3f}, "
                    f"refinement drift {drift:.2e} < 5%")


def test_criterion_06_stein_vs_fourier():
    g = make_grid(4096, 60.0)
    f = fields.gaussian(g, width=1.0)
    worst = 0.0
    mono = True
    for alpha in (0.3, 0.5, 1.5):
        ref = frac_deriv(f, alpha)
        refn = np.linalg.norm(ref.samples)
        rich = stein_deriv(f, alpha)   # Richardson over the default pair
        worst = max(worst, float(np.linalg.norm(rich.samples - ref.samples) / refn))
        plain = [float(np.linalg.norm(stein_deriv(f, alpha, eps_seq=(m * g.dx,)).samples
                                      - ref.samples) / refn)
                 for m in (32, 16, 8, 4)]
        mono &= all(a > b for a, b in zip(plain, plain[1:]))
    ok = worst < 1e-3 and mono
    _verdict(6, ok, f"max relative error {worst:.2e} < 1e-3, eps-monotone={mono}")


def test_criterion_07_solver_order():
    p = DispersionParams(1, 1)
    g = make_grid(128, 40.0)
    u0 = fields.gaussian(g, width=1.5, amplitude=1.5)
    sols = {dt: evolve(p, u0, 1.0, dt, stride=10 ** 9).final().samples
            for dt in (4e-3, 2e-3, 1e-3)}
    e1 = np.linalg.norm(sols[4e-3] - sols[2e-3])
    e2 = np.linalg.norm(sols[2e-3] - sols[1e-3])
    ratio = e1 / e2
    g2 = make_grid(256, 60.0)
    u2 = fields.gaussian(g2, width=2.0, amplitude=1.0)
    traj = evolve(p, u2, 0.5, 1e-3, stride=5)
    z = duhamel_split(traj, u2)
    zq = duhamel_quadrature(traj)
    cross = float(np.linalg.norm(z.final().samples - zq.samples)
                  / np.linalg.norm(z.final().samples))
    ok = 14.0 <= ratio <= 18.0 and cross < 1e-5
    _verdict(7, ok, f"self-convergence ratio {ratio:.1f} in [14, 18], "
                    f"duhamel cross-check {cross:.2e} < 1e-5")


def test_criterion_08_persistence(suite_reports):
    rep = suite_reports["persistence"]
    by = {c.name: c for c in rep.checks}
    ok = rep.passed
    _verdict(8, ok, f"seven norms finite={bool(by['all_components_finite'].measured)}, "
                    f"dt drift {by['stability_dt'].measured:.2e}, "
                    f"n drift {by['stability_n'].measured:.2e} < 10%")


def test_criterion_09_propagation(suite_reports):
    rep = suite_reports["propagation"]
    by = {c.name: c for c in rep.checks}
    ok = rep.passed
    _verdict(9, ok, f"rightward sup ratio {by['right_window_sup_ratio'].measured:.3f} < 2, "
                    f"leftward growth {by['left_window_growth'].measured:.0f}x > 10x, "
                    f"spacetime drift {by['spacetime_band_stable'].measured:.2e} < 10%")


def test_criterion_10_blowup_contrast(suite_reports):
    rep = suite_reports["blowup"]
    by = {c.name: c for c in rep.checks}
    exc = [c for c in rep.checks if c.name.startswith("excluded_ratio")]
    ok = rep.passed
    _verdict(10, ok, f"min manifest contrast {by['manifest_contrast_min'].measured:.1f} > 10, "
                     f"excluded ratios {[round(c.measured, 2) for c in exc]} in [0.5, 2]")


def test_criterion_11_duhamel_smoothing(suite_reports):
    rep = suite_reports["smoothing"]
    by = {c.name: c for c in rep.checks}
    ok = rep.passed
    _verdict(11, ok, f"tail gains k=1: {by['gain_j1_k1'].measured:.2f}, "
                     f"k=2: {by['gain_j1_k2'].measured:.2f}, both >= 0.5")


def test_criterion_12_cutoff_suite():
    ok = True
    details = []
    for eps, b in ((0.1, 0.5), (0.2, 1.0), (0.05, 0.25)):
        chi = make_cutoff(CutoffSpec(eps, b))
        ref = make_cutoff(CutoffSpec(eps / 3.0, b + eps))
        inner = make_cutoff(CutoffSpec(eps / 5.0, eps))
        xs = np.linspace(eps / 6.0, b + 2.0 * eps, 10 ** 4)
        # support
        p1 = (chi(eps / 2) == 0.0 and chi(b + 1.0) == 1.0
              and np.all(chi.derivative(xs, 1)[(xs < eps) | (xs > b)] == 0.0))
        # lower bound at 3 eps
        p2 = chi(3 * eps) >= eps / (2.0 * (b - 3.0 * eps))
        # higher derivatives dominated by the wider ramp, ramp <= 1/(b - 3eps)
        ramp = ref.derivative(xs, 1)
        p3 = np.max(ramp) <= 1.0 / (b - 3.0 * eps) + 1e-12
        for order in (1, 2, 3):
            vals = np.abs(chi.derivative(xs, order))
            mask = vals > 1e-12 * vals.max()
            p3 &= bool(np.all(ramp[mask] > 0)) and math.isfinite(
                float(np.max(vals[mask] / ramp[mask])))
        # ramp bounded by ramp-product and by the inner plateau
        d1 = chi.derivative(xs, 1)
        mask = d1 > 1e-12 * d1.max()
        prod = ref.derivative(xs, 1) * ref(xs)
        p4 = (math.isfinite(float(np.max(d1[mask] / prod[mask])))
              and math.isfinite(float(np.max(d1[mask] / inner(xs)[mask]))))
        ok &= bool(p1 and p2 and p3 and p4)
        details.append(f"({eps},{b}): {'ok' if (p1 and p2 and p3 and p4) else 'FAIL'}")
    _verdict(12, ok, "ramp properties on 1e4-point samples: " + ", ".join(details))


def test_criterion_13_determinism(outdir, suite_reports):
    # the suites of ``suite_reports`` already ran once; one fresh run each
    # gives the second independent run to compare with
    mismatched = []
    for name in ("decay", "identities", "persistence", "propagation", "blowup",
                 "smoothing"):
        paths = []
        if name in suite_reports:
            paths.append([a for a in suite_reports[name].artifacts if a.endswith(".csv")])
        for sub in ("d1", "d2")[len(paths):]:
            cfg = default_config(name, seed=0, output_dir=str(outdir / sub))
            rep = run(cfg)
            paths.append([a for a in rep.artifacts if a.endswith(".csv")])
        for a, b in zip(*paths):
            if open(a, "rb").read() != open(b, "rb").read():
                mismatched.append(a)
    ok = not mismatched
    _verdict(13, ok, "bitwise-identical CSVs for all six suites"
             if ok else f"mismatches: {mismatched}")
