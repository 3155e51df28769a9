"""Experiment registry: configuration, deterministic suites, reports, plots.

Six named suites (``decay``, ``identities``, ``persistence``,
``propagation``, ``blowup``, ``smoothing``) each run a fixed set of checks
against frozen thresholds, write their measurements as CSV files plus a JSON
report, and return a machine-readable :class:`ExperimentReport`.  Each suite
is one :class:`Suite` record in ``_REGISTRY``.  Configs are flat sectioned
``key=value`` files; every run echoes the resolved configuration and the RNG
algorithm (PCG64) so ensembles reproduce bit for bit.
"""

from __future__ import annotations

import configparser
import json
import math
import operator
import os
import time
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from . import fields
from .blowup import (BlowupDatumSpec, build_blowup_datum, coprime_pairs, irrationality_gap,
                     jump_quotients, smoothing_gain)
from .errors import ConfigError, HkdvError, SolverBlowup
from .identities import (MAX_COEFF_ORDER, dispersive_decay_probe, solve_coefficients,
                         verify_reduction_identity, x_weight_commutator)
from .norms import CutoffFunction, WindowSpec, mixed_norm, window_energy, weighted_norm
from .propagators import DispersionParams, Trajectory, evolve, linear_flow
from .spectral import (DECAY_GATE, Grid, RealField, _fast_len, dealias_cutoff, frac_deriv,
                       make_grid, stein_deriv)

RNG_ALGORITHM = "PCG64"


@dataclass
class Check:
    name: str
    measured: float
    threshold: str
    passed: bool

    def __post_init__(self):
        self.measured = float(self.measured)
        self.passed = bool(self.passed)


_OPS = {"<": operator.lt, ">": operator.gt, ">=": operator.ge}


def _compare(name: str, value: float, op: str, bound: float) -> Check:
    """The check ``value op bound``, whose threshold text is ``"op bound"``."""
    return Check(name, value, f"{op} {bound}", _OPS[op](value, bound))


def _in_range(name: str, value: float, lo: float, hi: float) -> Check:
    """The check ``lo <= value <= hi``."""
    return Check(name, value, f"in [{lo}, {hi}]", lo <= value <= hi)


@dataclass
class ExperimentReport:
    suite: str
    config: dict
    rng: str
    checks: list[Check] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    wall_clock: float = 0.0
    #: ``{"type", "message"}`` of the typed error that aborted the run, plus
    #: ``step``, ``t`` and ``max_abs`` for a :class:`SolverBlowup`
    error: dict | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "config": self.config,
            "rng": self.rng,
            "checks": [asdict(c) for c in self.checks],
            "artifacts": self.artifacts,
            "error": self.error,
            "pass": self.passed,
            "wall_clock": self.wall_clock,
        }
        return json.dumps(payload, indent=1, sort_keys=True)


def _write_csv(outdir: str, name: str, header: list[str], rows: list[tuple]) -> str:
    """Write ``outdir/name``, repr() for floats, no trailing spaces; return its path."""
    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return str(v)

    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
    return path


@dataclass(frozen=True)
class Suite:
    """Everything the registry knows about one suite.

    ``defaults`` maps ``(section, key)`` to the default value, whose type is
    the option's type.  ``validate`` raises :class:`ConfigError` on resolved
    values the runner cannot use; ``plots`` maps a CSV artifact name to the
    body of its plot script.
    """

    name: str
    runner: Callable
    validate: Callable
    claim: str
    defaults: dict
    plots: dict


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    name: str
    seed: int = 0
    output_dir: str = "out"
    values: dict = field(default_factory=dict)   # (section, key) -> typed value

    def flat(self) -> dict:
        out = {"experiment.name": self.name, "run.seed": self.seed,
               "run.output_dir": self.output_dir, "rng": RNG_ALGORITHM}
        for (sec, key), val in sorted(self.values.items()):
            out[f"{sec}.{key}"] = val
        return out


def _suite(name: str) -> Suite:
    for suite in _REGISTRY:
        if suite.name == name:
            return suite
    raise ConfigError(f"unknown suite {name!r}; valid: {', '.join(SUITES)}")


def default_config(name: str, seed: int = 0, output_dir: str = "out") -> ExperimentConfig:
    return parse_config(f"[experiment]\nname = {name}\n", seed, output_dir)


def parse_config(text: str, seed: int | None = None,
                 output_dir: str | None = None) -> ExperimentConfig:
    """Parse the flat sectioned key=value format.

    A value is converted to the type of the option's default.  A ``seed`` or
    ``output_dir`` other than None replaces the text's before validation.
    """
    cp = configparser.ConfigParser()
    cp.optionxform = str            # keys are case-sensitive (dt vs T)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not cp.has_option("experiment", "name"):
        raise ConfigError("missing [experiment] name")
    suite = _suite(cp.get("experiment", "name").strip())
    defaults = {("run", "seed"): 0, ("run", "output_dir"): "out", **suite.defaults}
    values = dict(defaults)
    for section in cp.sections():
        for key, raw in cp.items(section):
            if (section, key) == ("experiment", "name"):
                continue
            if (section, key) not in defaults:
                raise ConfigError(f"unknown option {section}.{key} for suite {suite.name}")
            typ = type(defaults[(section, key)])
            try:
                values[(section, key)] = typ(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{section}.{key}: cannot parse {raw!r} as {typ.__name__}") from exc
    file_seed, file_outdir = values.pop(("run", "seed")), values.pop(("run", "output_dir"))
    cfg = ExperimentConfig(suite.name, file_seed if seed is None else seed,
                           file_outdir if output_dir is None else output_dir, values)
    _validate(cfg)
    return cfg


def _need(cond, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _validate(cfg: ExperimentConfig) -> None:
    """Check every referenced parameter against module preconditions."""
    v = cfg.values
    _need(isinstance(cfg.seed, int) and cfg.seed >= 0,
          "run.seed must be a nonnegative integer")
    if ("grid", "n") in v:
        n = v[("grid", "n")]
        _need(n >= 16 and n % 2 == 0, "grid.n must be even and >= 16")
    if ("grid", "L") in v:
        _need(v[("grid", "L")] > 0, "grid.L must be positive")
    if ("params", "j") in v:
        _need(v[("params", "j")] >= 1, "params.j must be >= 1")
    if ("params", "k") in v:
        _need(v[("params", "k")] >= 1, "params.k must be >= 1")
    if ("suite", "amplitude") in v:
        # a negative amplitude is a valid datum; zero leaves nothing to measure
        _need(v[("suite", "amplitude")] != 0, "suite.amplitude must be nonzero")
    for key in ("dt", "dt_k1", "dt_k2"):
        if ("suite", key) not in v:
            continue
        dt, T = v[("suite", key)], v[("suite", "T")]
        _need(dt > 0 and T > 0, f"positive suite.{key} and suite.T required")
        # the same test evolve() applies
        _need(abs(round(T / dt) * dt - T) <= 1e-9 * max(1.0, T),
              f"suite.{key} = {dt} does not divide suite.T = {T}")
    _suite(cfg.name).validate(v)


def _excluded_times(v: dict) -> list[tuple[int, int]]:
    """``suite.excluded_times`` as ``(p, q)`` pairs; an entry is ``p/q`` or ``p``."""
    pairs = []
    for tok in v[("suite", "excluded_times")].split(","):
        num, slash, den = tok.strip().partition("/")
        try:
            p, q = int(num), int(den) if slash else 1
        except ValueError as exc:
            raise ConfigError(
                f"suite.excluded_times: cannot parse {tok!r} as p/q") from exc
        _need(q != 0, f"suite.excluded_times: zero denominator in {tok!r}")
        pairs.append((p, q))
    return pairs


# ---------------------------------------------------------------------------
# suites


#: range of each envelope's fitted slope, and the largest shift between envelopes
_SLOPE_LO, _SLOPE_HI, _MAX_SHIFT = -0.55, -0.45, 0.02


def _run_decay(cfg: ExperimentConfig, outdir: str):
    checks, artifacts = [], []
    rows = []
    # the probe's own times and envelopes are the suite's
    for j in (1, 2):
        fit = dispersive_decay_probe(j)
        for env in fit.envelopes:
            for t, sup, n in zip(fit.t_list, fit.sups[env], fit.grid_sizes[env]):
                rows.append((j, env, t, sup, n))
            checks.append(_in_range(f"slope_j{j}_env{env:g}", fit.slopes[env],
                                    _SLOPE_LO, _SLOPE_HI))
        checks.append(_compare(f"envelope_shift_j{j}", fit.slope_shift, "<", _MAX_SHIFT))
    artifacts.append(_write_csv(outdir, "decay.csv",
                                ["j", "envelope", "t", "sup", "grid_n"], rows))
    return checks, artifacts


def _check_identities(v: dict) -> None:
    _need(1 <= v[("suite", "reduction_j_max")] <= MAX_COEFF_ORDER,
          f"suite.reduction_j_max must lie in [1, {MAX_COEFF_ORDER}]")


#: bounds of the reduction, linear-flow algebra, commutator and Richardson errors
_REDUCTION_TOL = 1e-8
_ALGEBRA_TOL = 1e-12
_COMMUTATOR_TOL = 1e-6
_STEIN_TOL = 1e-3
#: random fields per reduction order, and per linear-flow algebra case
_REDUCTION_FIELDS, _ALGEBRA_FIELDS = 20, 50
#: the algebra grid: on this box dispersive phases stay within float resolution
_ALGEBRA_N, _ALGEBRA_L = 1024, 1100.0
#: base box length of each (j, t) commutator case; each case also runs on half
#: the box (the error must grow) and on twice the box (it must shrink)
_COMMUTATOR_L = {(1, 0.05): 32.0, (1, 0.1): 48.0, (1, 0.5): 256.0,
                 (2, 0.05): 4000.0, (2, 0.1): 8000.0, (2, 0.5): 40000.0}


def _commutator_grid(L: float) -> Grid:
    """Even grid of spacing about 0.1 on a box of length ``L``."""
    n = _fast_len(int(L / 0.1))
    return make_grid(n + n % 2, L)


def _run_identities(cfg: ExperimentConfig, outdir: str):
    v = cfg.values
    checks, artifacts = [], []
    rng = np.random.default_rng(cfg.seed)

    # exact coefficient solutions
    rows = []
    for j in range(1, v[("suite", "reduction_j_max")] + 1):
        cv = solve_coefficients(j)
        rows.append((j, ";".join(str(c) for c in cv.c)))
    artifacts.append(_write_csv(outdir, "coefficients.csv", ["j", "coefficients"], rows))
    c1 = solve_coefficients(1).as_floats()
    c2 = solve_coefficients(2).as_floats()
    checks.append(Check("coefficients_j1", float(np.max(np.abs(c1 - [-3.0, 1.0]))),
                        "== (-3, 1) exactly", tuple(c1) == (-3.0, 1.0)))
    checks.append(Check("coefficients_j2", float(np.max(np.abs(c2 - [5.0, -5.0, 1.0]))),
                        "== (5, -5, 1) exactly", tuple(c2) == (5.0, -5.0, 1.0)))

    # reduction identity residuals
    g = make_grid(256, 2 * math.pi)
    rows, worst = [], 0.0
    for j in range(1, v[("suite", "reduction_j_max")] + 1):
        for i in range(_REDUCTION_FIELDS):
            f = fields.random_band_limited(g, rng, band=g.n // 4 - 2, decay=1.0)
            res = verify_reduction_identity(j, f)
            rows.append((j, i, res))
            worst = max(worst, res)
    artifacts.append(_write_csv(outdir, "reduction.csv", ["j", "field", "residual"], rows))
    checks.append(_compare("reduction_residual_max", worst, "<", _REDUCTION_TOL))

    # linear-flow algebra on a phase-resolved grid
    ga = make_grid(_ALGEBRA_N, _ALGEBRA_L)
    worst_u, worst_g = 0.0, 0.0
    rows = []
    for i in range(_ALGEBRA_FIELDS):
        u0 = fields.random_band_limited(ga, rng, band=ga.n // 2 - 1, decay=0.0)
        for j in (1, 2, 3):
            p = DispersionParams(j)
            for t in (0.1, 1.0, 10.0):
                du = abs(linear_flow(p, t, u0).l2() - u0.l2()) / u0.l2()
                worst_u = max(worst_u, du)
            a = linear_flow(p, 0.3, linear_flow(p, 0.2, u0))
            b = linear_flow(p, 0.5, u0)
            dg = float(np.max(np.abs(a.samples - b.samples))) / u0.linf()
            worst_g = max(worst_g, dg)
            rows.append((i, j, du, dg))
    artifacts.append(_write_csv(outdir, "algebra.csv",
                                ["field", "j", "unitarity_err", "group_law_err"], rows))
    checks.append(_compare("unitarity_max", worst_u, "<", _ALGEBRA_TOL))
    checks.append(_compare("group_law_max", worst_g, "<", _ALGEBRA_TOL))

    # first-moment commutator with padding study
    rows = []
    worst_c, mono_ok = 0.0, True
    for (j, t), L in sorted(_COMMUTATOR_L.items()):
        params = DispersionParams(j)
        errs = {}
        for label, LL, gate in (("half", L / 2, None), ("base", L, DECAY_GATE),
                                ("double", 2 * L, None)):
            u0 = fields.gaussian(_commutator_grid(LL), width=1.0)
            errs[label] = x_weight_commutator(params, t, u0, gate=gate)
            rows.append((j, t, label, LL, errs[label]))
        worst_c = max(worst_c, errs["base"])
        mono_ok = mono_ok and errs["half"] > errs["base"] > errs["double"]
    artifacts.append(_write_csv(outdir, "commutator.csv",
                                ["j", "t", "padding", "L", "relative_error"], rows))
    checks.append(_compare("commutator_max", worst_c, "<", _COMMUTATOR_TOL))
    checks.append(Check("commutator_padding_monotone", float(mono_ok),
                        "halve degrades, double improves", mono_ok))

    # principal-value fractional derivative vs Fourier definition
    gs = make_grid(4096, 60.0)
    f = fields.gaussian(gs, width=1.0)
    rows, worst_s, mono_all = [], 0.0, True
    for alpha in (0.3, 0.5, 1.5):
        ref = frac_deriv(f, alpha)
        refn = ref.l2()
        plain_errs = []
        for m in (32, 16, 8, 4):
            sd = stein_deriv(f, alpha, eps_seq=(m * gs.dx,))
            err = RealField(gs, sd.samples - ref.samples).l2() / refn
            plain_errs.append(err)
            rows.append((alpha, f"plain_eps_{m}dx", err))
        rich = stein_deriv(f, alpha, eps_seq=(8 * gs.dx, 4 * gs.dx))
        rerr = RealField(gs, rich.samples - ref.samples).l2() / refn
        rows.append((alpha, "richardson_8_4", rerr))
        worst_s = max(worst_s, rerr)
        mono_all = mono_all and all(a > b for a, b in zip(plain_errs, plain_errs[1:]))
    artifacts.append(_write_csv(outdir, "stein.csv",
                                ["alpha", "evaluation", "relative_error"], rows))
    checks.append(_compare("stein_richardson_max", worst_s, "<", _STEIN_TOL))
    checks.append(Check("stein_eps_monotone", float(mono_all),
                        "plain error decreases with eps", mono_all))
    return checks, artifacts


def _xt_norms(traj: Trajectory, s: float, r: float, j: int) -> dict:
    """The seven work-space component norms of a stored trajectory, in CSV order."""
    eps = 0.05
    tx, xt = "t_outer_x_inner", "x_outer_t_inner"
    return {
        "sup_T_Hs": mixed_norm(traj, 2, math.inf, order=tx, js=s),
        # |x|^r u in L^inf_T L^2_x, slice-wise
        "weight_sup_T": max(weighted_norm(sl, r, gate=None) for sl in traj.slices),
        "maximal_Js": mixed_norm(traj, 2, math.inf, order=xt,
                                 js=s - (2 * j + 1) / 4.0 - eps),
        "smoothing_Js_dj": mixed_norm(traj, math.inf, 2, order=xt, js=s, dx_order=j),
        "strichartz_half": mixed_norm(traj, math.inf, 2, order=tx, js=j + 0.5,
                                      da=(2 * j - 1) / 4.0),
        "strichartz_84": mixed_norm(traj, 4, 8, order=tx, js=s, da=(2 * j - 1) / 8.0),
        "strichartz_66": mixed_norm(traj, 6, 6, order=tx, js=s, da=(2 * j - 1) / 6.0),
    }


def _check_persistence(v: dict) -> None:
    _need(v[("suite", "r")] > 0 and v[("suite", "r")] < 1, "suite.r must lie in (0,1)")
    _need(v[("suite", "s")] >= 2 * v[("params", "j")] * v[("suite", "r")],
          "suite.s must satisfy s >= 2*j*r")
    _need(v[("suite", "width")] > 0, "suite.width must be positive")


#: largest relative drift under dt/2 or 2n refinement (persistence and propagation)
_STABILITY_TOL = 0.10


def _refine(run: Callable, n: int, dt: float, measure: Callable):
    """``run`` at the base ``(n, dt)``, at ``dt/2`` and at ``2n``: the three results and,
    per refinement, the largest relative drift of a quantity in ``measure(result)``."""
    results = run(n, dt), run(n, dt / 2), run(2 * n, dt)
    base = measure(results[0])
    return results, [max(abs(fine[q] - base[q]) / base[q] for q in base)
                     for fine in map(measure, results[1:])]


def _run_persistence(cfg: ExperimentConfig, outdir: str):
    v = cfg.values
    checks, artifacts = [], []
    n, L = v[("grid", "n")], v[("grid", "L")]
    j, k = v[("params", "j")], v[("params", "k")]
    s, r = v[("suite", "s")], v[("suite", "r")]
    T, dt = v[("suite", "T")], v[("suite", "dt")]
    params = DispersionParams(j, k)
    store_every = 0.02

    def run(nn, ddt):
        g = make_grid(nn, L)
        u0 = fields.gaussian(g, width=v[("suite", "width")],
                             amplitude=v[("suite", "amplitude")])
        stride = max(1, int(round(store_every / ddt)))
        traj = evolve(params, u0, T, ddt, stride=stride)
        return _xt_norms(traj, s, r, j)

    (base, fine_t, fine_x), (dev_t, dev_x) = _refine(run, n, dt, lambda norms: norms)
    rows = [(name, base[name], fine_t[name], fine_x[name]) for name in base]
    artifacts.append(_write_csv(outdir, "persistence.csv",
                                ["component", "base", "dt_halved", "n_doubled"], rows))
    finite = all(math.isfinite(b) and b > 0 for b in base.values())
    checks.append(Check("all_components_finite", float(finite), "finite and > 0", finite))
    checks.append(_compare("stability_dt", dev_t, "<", _STABILITY_TOL))
    checks.append(_compare("stability_n", dev_x, "<", _STABILITY_TOL))
    return checks, artifacts


def _rough_band(v: dict) -> tuple[int, int]:
    """Indices ``(q_lo, q_hi)`` of the rough datum's modes, those with
    ``rough_band_lo < xi_q <= rough_band_hi`` on the box ``grid.L`` at any ``n``."""
    dxi = 2 * math.pi / v[("grid", "L")]
    return (max(1, int(v[("suite", "rough_band_lo")] / dxi) + 1),
            int(v[("suite", "rough_band_hi")] / dxi))


def _propagation_datum(g, rng, band, amplitude):
    rough = fields.band_noise_by_index(g, rng, *band, xi_decay=2.0,
                                       amplitude=amplitude, envelope=(-5.0, 4.0))
    smooth = fields.gaussian(g, center=6.0, width=3.0, amplitude=amplitude)
    return fields.glued_datum(g, rough, smooth, CutoffFunction(0.5, 2.5))


def _check_propagation(v: dict) -> None:
    # the n-refinement doubles n, so the base grid is the one that must hold the band
    q_lo, q_hi = _rough_band(v)
    _need(1 <= q_lo <= q_hi < v[("grid", "n")] // 2, "suite.rough_band_lo and "
          f"suite.rough_band_hi give q_lo = {q_lo}, q_hi = {q_hi}; need 1 <= q_lo <= q_hi < n/2")


#: bounds of the rightward windows' energy ratio and the leftward window's growth
_RIGHT_RATIO_MAX, _LEFT_GROWTH_MIN = 2.0, 10.0
#: base steps between stored times, and the window geometry: ramp width eps,
#: reach R and speed v; the leftward window sits at x0 on the reflected data
_STRIDE = 25
_WINDOW_EPS, _WINDOW_R, _WINDOW_V, _MIRROR_X0 = 1.0, 10.0, 1.0, 10.0


def _run_propagation(cfg: ExperimentConfig, outdir: str):
    v = cfg.values
    checks, artifacts = [], []
    n, L = v[("grid", "n")], v[("grid", "L")]
    j, k = v[("params", "j")], v[("params", "k")]
    params = DispersionParams(j, k)
    T, dt = v[("suite", "T")], v[("suite", "dt")]
    m = j + 1
    wspec = WindowSpec(x0=0.0, eps=_WINDOW_EPS, R=_WINDOW_R, v=_WINDOW_V, m=m)
    mirror = WindowSpec(x0=_MIRROR_X0, eps=_WINDOW_EPS, R=_WINDOW_R, v=_WINDOW_V, m=m)

    xi_cut = 2 * math.pi * dealias_cutoff(n, k) / L   # base-grid band, held fixed

    def run(nn, ddt):
        g = make_grid(nn, L)
        rng = np.random.default_rng(cfg.seed)
        u0 = _propagation_datum(g, rng, _rough_band(v), v[("suite", "amplitude")])
        sstride = max(1, int(round(_STRIDE * dt / ddt)))
        traj = evolve(params, u0, T, ddt, stride=sstride, xi_cut=xi_cut)
        return (traj, *window_energy(traj, wspec))

    ((traj, right, spacetime), (_, _, st_dt), (_, _, st_n)), drifts = _refine(
        run, n, dt, lambda res: {"spacetime": res[2]})
    # right[i, ell], left[i, ell]: window energies at the i-th stored time
    refl = Trajectory(traj.grid, traj.times,
                      [fields.reflect(sl) for sl in traj.slices], params)
    left, _ = window_energy(refl, mirror)
    sup_r, sup_l = right.max(axis=0), left.max(axis=0)

    rows = []
    for i, t in enumerate(traj.times):
        for ell in range(0, m + 1):
            rows.append((t, ell, wspec.v, wspec.eps, "right", right[i, ell]))
            rows.append((t, ell, mirror.v, mirror.eps, "left", left[i, ell]))
    artifacts.append(_write_csv(outdir, "window_energies.csv",
                                ["t", "ell", "v", "eps", "side", "energy"], rows))
    summary_json = os.path.join(outdir, "window_summary.json")
    with open(summary_json, "w") as fh:
        json.dump({"sup_energy_right": {str(ell): float(e) for ell, e in enumerate(sup_r)},
                   "sup_energy_left": {str(ell): float(e) for ell, e in enumerate(sup_l)},
                   "spacetime_integral": spacetime}, fh, indent=1, sort_keys=True)
    artifacts.append(summary_json)

    worst_ratio = float(np.max(sup_r / right[0]))
    checks.append(_compare("right_window_sup_ratio", worst_ratio, "<", _RIGHT_RATIO_MAX))
    growth = float(sup_l[m] / left[0, m])
    checks.append(_compare("left_window_growth", growth, ">", _LEFT_GROWTH_MIN))
    checks.append(Check("spacetime_band_finite", spacetime, "finite and > 0",
                        math.isfinite(spacetime) and spacetime > 0))
    checks.append(_compare("spacetime_band_stable", max(drifts), "<", _STABILITY_TOL))
    artifacts.append(_write_csv(outdir, "propagation_summary.csv", ["quantity", "value"],
                                [("right_sup_ratio_max", worst_ratio),
                                 ("left_growth", growth),
                                 ("spacetime_base", spacetime),
                                 ("spacetime_dt_halved", st_dt),
                                 ("spacetime_n_doubled", st_n)]))
    return checks, artifacts


def _check_blowup(v: dict) -> None:
    qmax, pmax = v[("suite", "qmax")], v[("suite", "pmax")]
    _need(qmax >= 1 and pmax >= 1, "truncation bounds must be >= 1")
    _need(v[("suite", "scheme")] in ("paper", "normalized"),
          "suite.scheme must be 'paper' or 'normalized'")
    _need(pmax <= 0.4 * v[("grid", "L")],
          "suite.pmax must be <= 0.4 grid.L: every singular location p1/q1 "
          "stays in the profile's decay-safe region")
    for p, q in _excluded_times(v):
        _need(not any(p * q2 == p2 * q for p2, q2 in coprime_pairs(pmax, qmax)),
              f"suite.excluded_times: {p}/{q} is a manifest singular time")


#: bound of every manifest contrast, and range of the ratio at an excluded time
_CONTRAST_MIN = 10.0
_EXCLUDED_LO, _EXCLUDED_HI = 0.5, 2.0
#: range ``p, q <= _PROBE_KMAX`` of the irrational probe's irrationality gap
_PROBE_KMAX = 50


def _run_blowup(cfg: ExperimentConfig, outdir: str):
    v = cfg.values
    checks, artifacts = [], []
    g = make_grid(v[("grid", "n")], v[("grid", "L")])
    params = DispersionParams(v[("params", "j")])
    spec = BlowupDatumSpec(qmax=v[("suite", "qmax")], pmax=v[("suite", "pmax")],
                           scheme=v[("suite", "scheme")], delta=v[("suite", "delta")])
    probe_t = math.sqrt(2.0)
    checks.append(_compare("probe_gap_positive", irrationality_gap(probe_t, _PROBE_KMAX),
                           ">", 0))

    u0, manifest = build_blowup_datum(spec, params, g)
    artifacts.append(_write_csv(
        outdir, "manifest.csv",
        ["p1", "q1", "p2", "q2", "weight", "t_singular", "x_singular"],
        [(t.p1, t.q1, t.p2, t.q2, t.weight, t.singular_time, t.singular_location)
         for t in manifest]))

    # the manifest pairs every location with every time, so each time shares
    # one location list and the probe's quotients serve them all
    locations = sorted({t.singular_location for t in manifest})
    probe = jump_quotients(params, probe_t, u0, locations)
    rows = []
    worst = math.inf
    for t_rat in sorted({t.singular_time for t in manifest}):
        for x, qr, qi in zip(locations, jump_quotients(params, t_rat, u0, locations), probe):
            rows.append((t_rat, x, qr, qi, qr / qi, "singular"))
            worst = min(worst, qr / qi)
    checks.append(_compare("manifest_contrast_min", worst, ">", _CONTRAST_MIN))

    # at an excluded time every term is a dispersed smooth wave: the
    # geometric mean of its ratios to the probe stabilizes the pointwise ripple
    for p, q in _excluded_times(v):
        t_ex = p / q
        qe = jump_quotients(params, t_ex, u0, locations)
        logs = [math.log(a / b) for a, b in zip(qe, probe)]
        ratio = math.exp(sum(logs) / len(logs))
        rows.append((t_ex, float("nan"), float("nan"), float("nan"), ratio, "excluded"))
        checks.append(_in_range(f"excluded_ratio_{p}_{q}", ratio, _EXCLUDED_LO, _EXCLUDED_HI))
    artifacts.append(_write_csv(outdir, "contrast.csv",
                                ["t", "x_star", "q_rational", "q_probe", "contrast", "kind"],
                                rows))
    return checks, artifacts


def _check_smoothing(v: dict) -> None:
    _need(v[("suite", "s")] >= 2, "suite.s must be >= j+1 = 2")
    for key in ("L_k1", "L_k2"):
        _need(v[("suite", key)] > 0, f"suite.{key} must be positive")


#: lower bound of the Duhamel tail-exponent gain
_GAIN_MIN = 0.5


def _run_smoothing(cfg: ExperimentConfig, outdir: str):
    v = cfg.values
    checks, artifacts = [], []
    n = v[("grid", "n")]
    rows = []
    for k in (1, 2):
        L = v[("suite", f"L_k{k}")]
        g = make_grid(n, L)
        rng = np.random.default_rng(cfg.seed)
        u0 = fields.rough_spectrum_field(g, rng, s=v[("suite", "s")],
                                         amplitude=v[("suite", "amplitude")])
        params = DispersionParams(1, k)
        traj = evolve(params, u0, v[("suite", "T")], v[("suite", f"dt_k{k}")],
                      stride=10 ** 9)
        rep = smoothing_gain(traj, u0)
        rows.append((1, k, L, cfg.seed, rep.tail_linear, rep.tail_duhamel,
                     rep.drift, rep.gain))
        checks.append(_compare(f"gain_j1_k{k}", rep.gain if rep.gain is not None else -99.0,
                               ">=", _GAIN_MIN))
    artifacts.append(_write_csv(outdir, "smoothing.csv",
                                ["j", "k", "L", "seed", "tail_linear", "tail_duhamel",
                                 "drift", "gain"], rows))
    return checks, artifacts


# ---------------------------------------------------------------------------
# the registry

_PLOT_HEADER = """\
#!/usr/bin/env python3
# Self-contained plot script: reads only the CSV next to it.
import csv
import os
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = os.path.dirname(os.path.abspath(__file__))

def read(name):
    with open(os.path.join(HERE, name)) as fh:
        rdr = csv.DictReader(fh)
        return list(rdr)
"""

_REGISTRY = (
    Suite("decay", _run_decay, lambda v: None,
          "sup-norm of the weighted dispersive kernel decays like t^(-1/2), "
          "robust to envelope doubling",
          {},
          {"decay.csv": """
rows = read("decay.csv")
fig, ax = plt.subplots()
import math
series = {}
for r in rows:
    series.setdefault((r["j"], r["envelope"]), []).append((float(r["t"]), float(r["sup"])))
for (j, env), pts in sorted(series.items()):
    pts.sort()
    ts = [p[0] for p in pts]; sups = [p[1] for p in pts]
    n = len(ts)
    sx = sum(math.log(t) for t in ts) / n
    sy = sum(math.log(s) for s in sups) / n
    sl = (sum(math.log(t) * math.log(s) for t, s in pts) / n - sx * sy) / \\
         (sum(math.log(t) ** 2 for t in ts) / n - sx * sx)
    ax.loglog(ts, sups, "o-", label=f"j={j} env={env} slope={sl:.3f}")
ax.set_xlabel("t"); ax.set_ylabel("sup |I_t|"); ax.legend()
fig.savefig(os.path.join(HERE, "decay.png"), dpi=150)
"""}),
    Suite("identities", _run_identities, _check_identities,
          "reduction coefficients, linear-flow algebra, first-moment "
          "commutator, and principal-value fractional derivative agree "
          "with their independent evaluations",
          {("suite", "reduction_j_max"): 5},
          {"stein.csv": """
rows = read("stein.csv")
fig, ax = plt.subplots()
series = {}
for r in rows:
    if r["evaluation"].startswith("plain"):
        series.setdefault(r["alpha"], []).append((r["evaluation"], float(r["relative_error"])))
for a, pts in sorted(series.items()):
    ax.semilogy(range(len(pts)), [p[1] for p in pts], "o-", label=f"alpha={a}")
ax.set_xlabel("inner-cutoff refinement step"); ax.set_ylabel("relative error")
ax.legend()
fig.savefig(os.path.join(HERE, "stein_convergence.png"), dpi=150)
"""}),
    Suite("persistence", _run_persistence, _check_persistence,
          "all seven work-space component norms stay finite and "
          "refinement-stable along a nonlinear evolution",
          {("grid", "n"): 512,
           ("grid", "L"): 60.0,
           ("params", "j"): 1,
           ("params", "k"): 1,
           ("suite", "s"): 2.0,
           ("suite", "r"): 0.4,
           ("suite", "T"): 0.4,
           ("suite", "dt"): 2e-3,
           ("suite", "amplitude"): 1.0,
           ("suite", "width"): 1.5},
          {"persistence.csv": """
rows = read("persistence.csv")
fig, ax = plt.subplots()
idx = range(len(rows))
ax.bar([r["component"] for r in rows], [float(r["base"]) for r in rows])
ax.set_ylabel("component norm"); plt.xticks(rotation=45, fontsize=7)
fig.tight_layout()
fig.savefig(os.path.join(HERE, "persistence.png"), dpi=150)
"""}),
    Suite("propagation", _run_propagation, _check_propagation,
          "one-sided smoothness is preserved in rightward-moving "
          "windows while leftward windows absorb radiated roughness",
          {("grid", "n"): 2048,
           ("grid", "L"): 320.0,
           ("params", "j"): 1,
           ("params", "k"): 1,
           ("suite", "T"): 0.5,
           ("suite", "dt"): 1e-3,
           ("suite", "rough_band_lo"): 0.5,
           ("suite", "rough_band_hi"): 8.0,
           ("suite", "amplitude"): 0.4},
          {"window_energies.csv": """
rows = read("window_energies.csv")
fig, ax = plt.subplots()
series = {}
for r in rows:
    series.setdefault((r["ell"], r["side"]), []).append((float(r["t"]), float(r["energy"])))
for (ell, side), pts in sorted(series.items()):
    pts.sort()
    ax.semilogy([p[0] for p in pts], [p[1] for p in pts], "o-", label=f"l={ell} {side}")
ax.set_xlabel("t"); ax.set_ylabel("window energy"); ax.legend()
fig.savefig(os.path.join(HERE, "window_energies.png"), dpi=150)
"""}),
    Suite("blowup", _run_blowup, _check_blowup,
          "refocused derivative jumps appear at truncation rational times "
          "and at no generic irrational probe time",
          {("grid", "n"): 16384,
           ("grid", "L"): 320.0,
           ("params", "j"): 2,
           ("suite", "qmax"): 2,
           ("suite", "pmax"): 2,
           ("suite", "scheme"): "normalized",
           ("suite", "delta"): 0.15,
           ("suite", "excluded_times"): "5/2,4/3"},
          {"contrast.csv": """
rows = [r for r in read("contrast.csv") if r["kind"] == "singular"]
fig, ax = plt.subplots()
labels = [f"t={r['t']} x={r['x_star']}" for r in rows]
ax.bar(labels, [float(r["contrast"]) for r in rows])
""" f'ax.axhline({_CONTRAST_MIN!r}, color="r", ls="--")' """
ax.set_ylabel("jump-quotient contrast"); plt.xticks(rotation=60, fontsize=6)
fig.tight_layout()
fig.savefig(os.path.join(HERE, "contrast.png"), dpi=150)
"""}),
    Suite("smoothing", _run_smoothing, _check_smoothing,
          "the nonlinear (Duhamel) part carries a positive spectral "
          "tail-exponent gain over the linear evolution",
          {("grid", "n"): 4096,
           ("suite", "L_k1"): 160.0,
           ("suite", "L_k2"): 320.0,
           ("suite", "s"): 2.0,
           ("suite", "T"): 0.5,
           # k = 1 needs the small step; the k = 2 gain agrees with its
           # value at 5e-5 to 3e-6 (seeds 0-3)
           ("suite", "dt_k1"): 5e-5,
           ("suite", "dt_k2"): 5e-4,
           ("suite", "amplitude"): 0.5},
          {"smoothing.csv": """
rows = read("smoothing.csv")
fig, ax = plt.subplots()
ks = [r["k"] for r in rows]
for key, color in (("tail_linear", "C0"), ("tail_duhamel", "C1")):
    ax.bar([f"k={k} {key}" for k in ks], [float(r[key]) for r in rows], color=color)
ax.set_ylabel("tail exponent")
fig.savefig(os.path.join(HERE, "smoothing_tails.png"), dpi=150)
"""}),
)

SUITES = tuple(s.name for s in _REGISTRY)
#: name -> runner; ``run`` looks the runner up here on every call
_RUNNERS = {s.name: s.runner for s in _REGISTRY}
_PLOT_BODIES = {csv: body for s in _REGISTRY for csv, body in s.plots.items()}


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute a suite: write CSV artifacts + JSON report, return the report.

    A typed error (:class:`HkdvError`) that aborts the suite is recorded in
    the report, which then does not pass, and raised again; a
    :class:`SolverBlowup` record also carries the failing step, its time and
    the max|u| of the last finite step.
    """
    outdir = os.path.join(cfg.output_dir, cfg.name)
    os.makedirs(outdir, exist_ok=True)
    t0 = time.perf_counter()
    checks, artifacts, error, record = [], [], None, None
    try:
        checks, artifacts = _RUNNERS[cfg.name](cfg, outdir)
    except HkdvError as exc:
        error = exc
        record = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SolverBlowup):
            record.update(step=exc.step, t=exc.t, max_abs=exc.max_abs)
    report = ExperimentReport(cfg.name, cfg.flat(), RNG_ALGORITHM, checks, artifacts,
                              time.perf_counter() - t0, record)
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        fh.write(report.to_json())
    if error is not None:
        raise error
    return report


def list_suites() -> list[dict]:
    """Stable-ordered catalogue of suites with one-line claims."""
    return [{"name": s.name, "claim": s.claim} for s in _REGISTRY]


def emit_plots(report_path: str) -> list[str]:
    """Write one renderer-agnostic plot script per plottable CSV artifact.

    Each script carries the report's flat config as ``CONFIG``; the contrast
    script draws the frozen bound its verdict is checked against.
    """
    with open(report_path) as fh:
        report = json.load(fh)
    outdir = os.path.dirname(os.path.abspath(report_path))
    config = report.get("config", {})
    written = []
    for art in report.get("artifacts", []):
        base = os.path.basename(art)
        if base not in _PLOT_BODIES:
            continue
        if not os.path.exists(os.path.join(outdir, base)):
            raise FileNotFoundError(f"artifact {base} missing next to the report")
        script = os.path.join(outdir, f"plot_{base.replace('.csv', '')}.py")
        with open(script, "w") as fh:
            fh.write(_PLOT_HEADER + f"\nCONFIG = {config!r}\n" + _PLOT_BODIES[base])
        written.append(script)
    return written
