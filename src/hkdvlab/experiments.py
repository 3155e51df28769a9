"""Experiment registry: configuration, deterministic suites, reports, plots.

Six named suites (``decay``, ``identities``, ``persistence``,
``propagation``, ``blowup``, ``smoothing``) each run a fixed set of checks
against frozen thresholds, write their measurements as CSV files plus a JSON
report, and return a machine-readable :class:`ExperimentReport`.  Configs are
flat sectioned ``key=value`` files; every run echoes the resolved
configuration and the RNG algorithm (PCG64) so ensembles reproduce bit for
bit.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.fft import next_fast_len

from . import fields
from .blowup import (BlowupDatumSpec, blowup_contrast, build_blowup_datum,
                     excluded_time_ratio, irrationality_gap, smoothing_gain)
from .errors import ConfigError
from .identities import (dispersive_decay_probe, solve_coefficients,
                         verify_reduction_identity, x_weight_commutator)
from .norms import (MixedNormSpec, mixed_norm, CutoffSpec, make_cutoff,
                    WindowSpec, window_energy, weighted_norm)
from .propagators import DispersionParams, Trajectory, evolve, linear_flow
from .spectral import frac_deriv, make_grid, stein_deriv

RNG_ALGORITHM = "PCG64"

SUITES = ("decay", "identities", "persistence", "propagation", "blowup",
          "smoothing")

#: one-line claims probed by each suite, shown by the catalogue
SUITE_CLAIMS = {
    "decay": "sup-norm of the weighted dispersive kernel decays like t^(-1/2), "
             "robust to envelope doubling",
    "identities": "reduction coefficients, linear-flow algebra, first-moment "
                  "commutator, and principal-value fractional derivative agree "
                  "with their independent evaluations",
    "persistence": "all seven work-space component norms stay finite and "
                   "refinement-stable along a nonlinear evolution",
    "propagation": "one-sided smoothness is preserved in rightward-moving "
                   "windows while leftward windows absorb radiated roughness",
    "blowup": "refocused derivative jumps appear at truncation rational times "
              "and at no generic irrational probe time",
    "smoothing": "the nonlinear (Duhamel) part carries a positive spectral "
                 "tail-exponent gain over the linear evolution",
}


@dataclass
class Check:
    name: str
    measured: float
    threshold: str
    passed: bool


@dataclass
class ExperimentReport:
    suite: str
    config: dict
    rng: str
    checks: list[Check] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    wall_clock: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "config": self.config,
            "rng": self.rng,
            "checks": [asdict(c) for c in self.checks],
            "artifacts": self.artifacts,
            "pass": self.passed,
            "wall_clock": self.wall_clock,
        }

        def coerce(o):
            if isinstance(o, (np.bool_,)):
                return bool(o)
            if isinstance(o, np.integer):
                return int(o)
            if isinstance(o, np.floating):
                return float(o)
            raise TypeError(f"not JSON serializable: {type(o)}")

        return json.dumps(payload, indent=1, sort_keys=True, default=coerce)


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    """Deterministic CSV writer: repr() for floats, no trailing spaces."""
    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return str(v)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# configuration

_COMMON_SCHEMA = {
    ("experiment", "name"): str,
    ("run", "seed"): int,
    ("run", "output_dir"): str,
}

_SUITE_SCHEMA = {
    "decay": {
        ("suite", "j_list"): str,
        ("suite", "t_list"): str,
        ("suite", "envelopes_j1"): str,
        ("suite", "envelopes_j2"): str,
        ("suite", "slope_lo"): float,
        ("suite", "slope_hi"): float,
        ("suite", "max_shift"): float,
    },
    "identities": {
        ("suite", "reduction_j_max"): int,
        ("suite", "reduction_fields"): int,
        ("suite", "reduction_tol"): float,
        ("suite", "algebra_n"): int,
        ("suite", "algebra_L"): float,
        ("suite", "algebra_fields"): int,
        ("suite", "algebra_tol"): float,
        ("suite", "commutator_tol"): float,
        ("suite", "stein_tol"): float,
    },
    "persistence": {
        ("grid", "n"): int,
        ("grid", "L"): float,
        ("params", "j"): int,
        ("params", "k"): int,
        ("suite", "s"): float,
        ("suite", "r"): float,
        ("suite", "T"): float,
        ("suite", "dt"): float,
        ("suite", "amplitude"): float,
        ("suite", "width"): float,
        ("suite", "stability_tol"): float,
    },
    "propagation": {
        ("grid", "n"): int,
        ("grid", "L"): float,
        ("params", "j"): int,
        ("params", "k"): int,
        ("suite", "T"): float,
        ("suite", "dt"): float,
        ("suite", "stride"): int,
        ("suite", "rough_band_lo"): float,
        ("suite", "rough_band_hi"): float,
        ("suite", "amplitude"): float,
        ("suite", "window_v"): float,
        ("suite", "window_eps"): float,
        ("suite", "window_R"): float,
        ("suite", "mirror_x0"): float,
        ("suite", "right_ratio_max"): float,
        ("suite", "left_growth_min"): float,
        ("suite", "stability_tol"): float,
    },
    "blowup": {
        ("grid", "n"): int,
        ("grid", "L"): float,
        ("params", "j"): int,
        ("suite", "qmax"): int,
        ("suite", "pmax"): int,
        ("suite", "scheme"): str,
        ("suite", "delta"): float,
        ("suite", "contrast_min"): float,
        ("suite", "excluded_times"): str,
        ("suite", "excluded_lo"): float,
        ("suite", "excluded_hi"): float,
        ("suite", "gap_kmax"): int,
    },
    "smoothing": {
        ("grid", "n"): int,
        ("suite", "L_k1"): float,
        ("suite", "L_k2"): float,
        ("suite", "s"): float,
        ("suite", "T"): float,
        ("suite", "dt"): float,
        ("suite", "amplitude"): float,
        ("suite", "gain_min"): float,
    },
}

_DEFAULTS = {
    "decay": {
        ("suite", "j_list"): "1,2",
        ("suite", "t_list"): "1,2,4,8,16,32,64",
        ("suite", "envelopes_j1"): "4,8",
        ("suite", "envelopes_j2"): "3,6",
        ("suite", "slope_lo"): -0.55,
        ("suite", "slope_hi"): -0.45,
        ("suite", "max_shift"): 0.02,
    },
    "identities": {
        ("suite", "reduction_j_max"): 5,
        ("suite", "reduction_fields"): 20,
        ("suite", "reduction_tol"): 1e-8,
        ("suite", "algebra_n"): 1024,
        ("suite", "algebra_L"): 1100.0,
        ("suite", "algebra_fields"): 50,
        ("suite", "algebra_tol"): 1e-12,
        ("suite", "commutator_tol"): 1e-6,
        ("suite", "stein_tol"): 1e-3,
    },
    "persistence": {
        ("grid", "n"): 512,
        ("grid", "L"): 60.0,
        ("params", "j"): 1,
        ("params", "k"): 1,
        ("suite", "s"): 2.0,
        ("suite", "r"): 0.4,
        ("suite", "T"): 0.4,
        ("suite", "dt"): 2e-3,
        ("suite", "amplitude"): 1.0,
        ("suite", "width"): 1.5,
        ("suite", "stability_tol"): 0.10,
    },
    "propagation": {
        ("grid", "n"): 2048,
        ("grid", "L"): 320.0,
        ("params", "j"): 1,
        ("params", "k"): 1,
        ("suite", "T"): 0.5,
        ("suite", "dt"): 1e-3,
        ("suite", "stride"): 25,
        ("suite", "rough_band_lo"): 0.5,
        ("suite", "rough_band_hi"): 8.0,
        ("suite", "amplitude"): 0.4,
        ("suite", "window_v"): 1.0,
        ("suite", "window_eps"): 1.0,
        ("suite", "window_R"): 10.0,
        ("suite", "mirror_x0"): 10.0,
        ("suite", "right_ratio_max"): 2.0,
        ("suite", "left_growth_min"): 10.0,
        ("suite", "stability_tol"): 0.10,
    },
    "blowup": {
        ("grid", "n"): 16384,
        ("grid", "L"): 320.0,
        ("params", "j"): 2,
        ("suite", "qmax"): 2,
        ("suite", "pmax"): 2,
        ("suite", "scheme"): "normalized",
        ("suite", "delta"): 0.15,
        ("suite", "contrast_min"): 10.0,
        ("suite", "excluded_times"): "5/2,4/3",
        ("suite", "excluded_lo"): 0.5,
        ("suite", "excluded_hi"): 2.0,
        ("suite", "gap_kmax"): 50,
    },
    "smoothing": {
        ("grid", "n"): 4096,
        ("suite", "L_k1"): 160.0,
        ("suite", "L_k2"): 320.0,
        ("suite", "s"): 2.0,
        ("suite", "T"): 0.5,
        ("suite", "dt"): 5e-5,
        ("suite", "amplitude"): 0.5,
        ("suite", "gain_min"): 0.5,
    },
}


@dataclass
class ExperimentConfig:
    name: str
    seed: int = 0
    output_dir: str = "out"
    values: dict = field(default_factory=dict)   # (section, key) -> typed value

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    def flat(self) -> dict:
        out = {"experiment.name": self.name, "run.seed": self.seed,
               "run.output_dir": self.output_dir, "rng": RNG_ALGORITHM}
        for (sec, key), val in sorted(self.values.items()):
            out[f"{sec}.{key}"] = val
        return out


def default_config(name: str, seed: int = 0, output_dir: str = "out",
                   overrides: dict | None = None) -> ExperimentConfig:
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; valid: {', '.join(SUITES)}")
    values = dict(_DEFAULTS[name])
    if overrides:
        for k, v in overrides.items():
            if k not in values:
                raise ConfigError(f"unknown option {k[0]}.{k[1]} for suite {name}")
            values[k] = v
    cfg = ExperimentConfig(name, seed, output_dir, values)
    _validate(cfg)
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat sectioned key=value format."""
    cp = configparser.ConfigParser()
    cp.optionxform = str            # keys are case-sensitive (dt vs T)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not cp.has_option("experiment", "name"):
        raise ConfigError("missing [experiment] name")
    name = cp.get("experiment", "name").strip()
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; valid: {', '.join(SUITES)}")
    schema = _SUITE_SCHEMA[name]
    values = dict(_DEFAULTS[name])
    seed, outdir = 0, "out"
    for section in cp.sections():
        for key, raw in cp.items(section):
            if (section, key) == ("experiment", "name"):
                continue
            if (section, key) == ("run", "seed"):
                seed = int(raw)
                continue
            if (section, key) == ("run", "output_dir"):
                outdir = raw
                continue
            if (section, key) not in schema:
                raise ConfigError(f"unknown option {section}.{key} for suite {name}")
            typ = schema[(section, key)]
            try:
                values[(section, key)] = typ(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{section}.{key}: cannot parse {raw!r} as {typ.__name__}") from exc
    cfg = ExperimentConfig(name, seed, outdir, values)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    """Check every referenced parameter against module preconditions."""
    v = cfg.values

    def need(cond, msg):
        if not cond:
            raise ConfigError(msg)

    need(isinstance(cfg.seed, int) and cfg.seed >= 0, "run.seed must be a nonnegative integer")
    if ("grid", "n") in v:
        n = v[("grid", "n")]
        need(n >= 16 and n % 2 == 0, "grid.n must be even and >= 16")
    if ("grid", "L") in v:
        need(v[("grid", "L")] > 0, "grid.L must be positive")
    if ("params", "j") in v:
        need(v[("params", "j")] >= 1, "params.j must be >= 1")
    if ("params", "k") in v:
        need(v[("params", "k")] >= 1, "params.k must be >= 1")
    if cfg.name == "decay":
        ts = _float_list(v[("suite", "t_list")])
        need(all(t >= 1 for t in ts), "suite.t_list entries must be >= 1")
        need(all(a < b for a, b in zip(ts, ts[1:])), "suite.t_list must increase")
        need(v[("suite", "slope_lo")] < v[("suite", "slope_hi")],
             "suite.slope_lo must be below suite.slope_hi")
        for key in ("envelopes_j1", "envelopes_j2"):
            es = _float_list(v[("suite", key)])
            need(all(e > 0 for e in es), f"suite.{key} must be positive")
    if cfg.name == "persistence":
        need(v[("suite", "r")] > 0 and v[("suite", "r")] < 1, "suite.r must lie in (0,1)")
        need(v[("suite", "s")] >= 2 * v[("params", "j")] * v[("suite", "r")],
             "suite.s must satisfy s >= 2*j*r")
        need(v[("suite", "dt")] > 0 and v[("suite", "T")] > 0, "positive dt and T required")
    if cfg.name == "propagation":
        need(v[("suite", "window_eps")] > 0, "suite.window_eps must be positive")
        need(v[("suite", "window_R")] > v[("suite", "window_eps")],
             "suite.window_R must exceed suite.window_eps")
        need(v[("suite", "dt")] > 0 and v[("suite", "T")] > 0, "positive dt and T required")
        need(v[("suite", "stride")] >= 1, "suite.stride must be >= 1")
    if cfg.name == "blowup":
        need(v[("suite", "qmax")] >= 1 and v[("suite", "pmax")] >= 1,
             "truncation bounds must be >= 1")
        need(v[("suite", "scheme")] in ("paper", "normalized"),
             "suite.scheme must be 'paper' or 'normalized'")
        need(v[("suite", "gap_kmax")] >= 2, "suite.gap_kmax must be >= 2")
        for tok in v[("suite", "excluded_times")].split(","):
            _parse_rational(tok)
    if cfg.name == "smoothing":
        need(v[("suite", "s")] >= 2, "suite.s must be >= j+1 = 2")
        need(v[("suite", "dt")] > 0 and v[("suite", "T")] > 0, "positive dt and T required")


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_rational(tok: str) -> tuple[int, int]:
    tok = tok.strip()
    if "/" in tok:
        p, q = tok.split("/")
        return int(p), int(q)
    return int(tok), 1


# ---------------------------------------------------------------------------
# suites


def _run_decay(cfg: ExperimentConfig, outdir: str):
    v = cfg.values
    checks, artifacts = [], []
    rows = []
    slope_lo, slope_hi = v[("suite", "slope_lo")], v[("suite", "slope_hi")]
    t_list = tuple(_float_list(v[("suite", "t_list")]))
    for j in [int(x) for x in _float_list(v[("suite", "j_list")])]:
        envs = tuple(_float_list(v[("suite", f"envelopes_j{j}")]))
        fit = dispersive_decay_probe(j, t_list=t_list, envelopes=envs)
        for env in envs:
            for t, sup, n in zip(fit.t_list, fit.sups[env], fit.grid_sizes[env]):
                rows.append((j, env, t, sup, n))
            checks.append(Check(
                f"slope_j{j}_env{env:g}", fit.slopes[env],
                f"in [{slope_lo}, {slope_hi}]",
                slope_lo <= fit.slopes[env] <= slope_hi))
        checks.append(Check(f"envelope_shift_j{j}", fit.slope_shift,
                            f"< {v[('suite', 'max_shift')]}",
                            fit.slope_shift < v[("suite", "max_shift")]))
    path = os.path.join(outdir, "decay.csv")
    _write_csv(path, ["j", "envelope", "t", "sup", "grid_n"], rows)
    artifacts.append(path)
    return checks, artifacts


def _run_identities(cfg: ExperimentConfig, outdir: str):
    v = cfg.values
    checks, artifacts = [], []
    rng = np.random.default_rng(cfg.seed)

    # exact coefficient solutions
    rows = []
    for j in range(1, v[("suite", "reduction_j_max")] + 1):
        cv = solve_coefficients(j)
        rows.append((j, ";".join(str(c) for c in cv.c)))
    path = os.path.join(outdir, "coefficients.csv")
    _write_csv(path, ["j", "coefficients"], rows)
    artifacts.append(path)
    c1 = solve_coefficients(1).as_floats()
    c2 = solve_coefficients(2).as_floats()
    checks.append(Check("coefficients_j1", float(np.max(np.abs(c1 - [-3.0, 1.0]))),
                        "== (-3, 1) exactly", tuple(c1) == (-3.0, 1.0)))
    checks.append(Check("coefficients_j2", float(np.max(np.abs(c2 - [5.0, -5.0, 1.0]))),
                        "== (5, -5, 1) exactly", tuple(c2) == (5.0, -5.0, 1.0)))

    # reduction identity residuals
    g = make_grid(256, 2 * math.pi)
    tol = v[("suite", "reduction_tol")]
    rows, worst = [], 0.0
    for j in range(1, v[("suite", "reduction_j_max")] + 1):
        for i in range(v[("suite", "reduction_fields")]):
            f = fields.random_band_limited(g, rng, band=g.n // 4 - 2, decay=1.0)
            res = verify_reduction_identity(j, f)
            rows.append((j, i, res))
            worst = max(worst, res)
    path = os.path.join(outdir, "reduction.csv")
    _write_csv(path, ["j", "field", "residual"], rows)
    artifacts.append(path)
    checks.append(Check("reduction_residual_max", worst, f"< {tol}", worst < tol))

    # linear-flow algebra on a phase-resolved grid
    ga = make_grid(v[("suite", "algebra_n")], v[("suite", "algebra_L")])
    atol = v[("suite", "algebra_tol")]
    worst_u, worst_g = 0.0, 0.0
    rows = []
    for i in range(v[("suite", "algebra_fields")]):
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
    path = os.path.join(outdir, "algebra.csv")
    _write_csv(path, ["field", "j", "unitarity_err", "group_law_err"], rows)
    artifacts.append(path)
    checks.append(Check("unitarity_max", worst_u, f"< {atol}", worst_u < atol))
    checks.append(Check("group_law_max", worst_g, f"< {atol}", worst_g < atol))

    # first-moment commutator with padding study
    ctol = v[("suite", "commutator_tol")]
    base_L = {(1, 0.05): 32.0, (1, 0.1): 48.0, (1, 0.5): 256.0,
              (2, 0.05): 4000.0, (2, 0.1): 8000.0, (2, 0.5): 40000.0}
    rows = []
    worst_c, mono_ok = 0.0, True
    for (j, t), L in sorted(base_L.items()):
        params = DispersionParams(j)
        errs = {}
        for label, LL, gate in (("half", L / 2, 1e6), ("base", L, 1e-6),
                                ("double", 2 * L, 1e6)):
            n = next_fast_len(int(LL / 0.1))
            n += n % 2
            gg = make_grid(n, LL)
            u0 = fields.gaussian(gg, width=1.0)
            errs[label] = x_weight_commutator(params, t, u0, gate=gate)
            rows.append((j, t, label, LL, errs[label]))
        worst_c = max(worst_c, errs["base"])
        mono_ok = mono_ok and errs["half"] > errs["base"] > errs["double"]
    path = os.path.join(outdir, "commutator.csv")
    _write_csv(path, ["j", "t", "padding", "L", "relative_error"], rows)
    artifacts.append(path)
    checks.append(Check("commutator_max", worst_c, f"< {ctol}", worst_c < ctol))
    checks.append(Check("commutator_padding_monotone", float(mono_ok),
                        "halve degrades, double improves", mono_ok))

    # principal-value fractional derivative vs Fourier definition
    stol = v[("suite", "stein_tol")]
    gs = make_grid(4096, 60.0)
    f = fields.gaussian(gs, width=1.0)
    rows, worst_s, mono_all = [], 0.0, True
    for alpha in (0.3, 0.5, 1.5):
        ref = frac_deriv(f, alpha)
        refn = np.linalg.norm(ref.samples)
        plain_errs = []
        for m in (32, 16, 8, 4):
            sd = stein_deriv(f, alpha, eps_seq=(m * gs.dx,))
            err = float(np.linalg.norm(sd.samples - ref.samples) / refn)
            plain_errs.append(err)
            rows.append((alpha, f"plain_eps_{m}dx", err))
        rich = stein_deriv(f, alpha, eps_seq=(8 * gs.dx, 4 * gs.dx))
        rerr = float(np.linalg.norm(rich.samples - ref.samples) / refn)
        rows.append((alpha, "richardson_8_4", rerr))
        worst_s = max(worst_s, rerr)
        mono_all = mono_all and all(a > b for a, b in zip(plain_errs, plain_errs[1:]))
    path = os.path.join(outdir, "stein.csv")
    _write_csv(path, ["alpha", "evaluation", "relative_error"], rows)
    artifacts.append(path)
    checks.append(Check("stein_richardson_max", worst_s, f"< {stol}", worst_s < stol))
    checks.append(Check("stein_eps_monotone", float(mono_all),
                        "plain error decreases with eps", mono_all))
    return checks, artifacts


_XT_COMPONENTS = (
    ("sup_T_Hs", dict(p=2, q=math.inf, order="t_outer_x_inner", js="s")),
    ("weight_sup_T", None),  # |x|^r u in L^inf_T L^2_x, handled slice-wise
    ("maximal_Js", dict(p=2, q=math.inf, order="x_outer_t_inner", js="s-eps")),
    ("smoothing_Js_dj", dict(p=math.inf, q=2, order="x_outer_t_inner", js="s", dxj=True)),
    ("strichartz_half", dict(p=math.inf, q=2, order="t_outer_x_inner", js="j+1/2", da="(2j-1)/4")),
    ("strichartz_84", dict(p=4, q=8, order="t_outer_x_inner", js="s", da="(2j-1)/8")),
    ("strichartz_66", dict(p=6, q=6, order="t_outer_x_inner", js="s", da="(2j-1)/6")),
)


def _xt_norms(traj: Trajectory, s: float, r: float, j: int) -> dict:
    """The seven work-space component norms of a stored trajectory."""
    eps = 0.05
    out = {}
    for name, recipe in _XT_COMPONENTS:
        if recipe is None:
            out[name] = max(weighted_norm(sl, r, "homogeneous", gate=None)
                            for sl in traj.slices)
            continue
        js = {"s": s, "s-eps": s - (2 * j + 1) / 4.0 - eps, "j+1/2": j + 0.5}[recipe["js"]]
        da = {None: None, "(2j-1)/4": (2 * j - 1) / 4.0, "(2j-1)/8": (2 * j - 1) / 8.0,
              "(2j-1)/6": (2 * j - 1) / 6.0}[recipe.get("da")]
        spec = MixedNormSpec(p=recipe["p"], q=recipe["q"], order=recipe["order"],
                             js=js, da=da, dx_order=j if recipe.get("dxj") else 0)
        out[name] = mixed_norm(traj, spec)
    return out


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

    base = run(n, dt)
    fine_t = run(n, dt / 2)
    fine_x = run(2 * n, dt)
    rows = [(name, base[name], fine_t[name], fine_x[name])
            for name, _ in _XT_COMPONENTS]
    path = os.path.join(outdir, "persistence.csv")
    _write_csv(path, ["component", "base", "dt_halved", "n_doubled"], rows)
    artifacts.append(path)
    tol = v[("suite", "stability_tol")]
    finite = all(math.isfinite(base[name]) and base[name] > 0 for name, _ in _XT_COMPONENTS)
    checks.append(Check("all_components_finite", float(finite), "finite and > 0", finite))
    dev_t = max(abs(fine_t[nm] - base[nm]) / base[nm] for nm, _ in _XT_COMPONENTS)
    dev_x = max(abs(fine_x[nm] - base[nm]) / base[nm] for nm, _ in _XT_COMPONENTS)
    checks.append(Check("stability_dt", dev_t, f"< {tol}", dev_t < tol))
    checks.append(Check("stability_n", dev_x, f"< {tol}", dev_x < tol))
    return checks, artifacts


def _propagation_datum(g, rng, band_lo, band_hi, amplitude):
    dxi = 2 * math.pi / g.L
    q_lo = max(1, int(band_lo / dxi) + 1)
    q_hi = int(band_hi / dxi)
    rough = fields.band_noise_by_index(g, rng, q_lo=q_lo, q_hi=q_hi, xi_decay=2.0,
                                       amplitude=amplitude, envelope=(-5.0, 4.0))
    smooth = fields.gaussian(g, center=6.0, width=3.0, amplitude=amplitude)
    chi = make_cutoff(CutoffSpec(0.5, 2.5))
    return fields.glued_datum(g, rough, smooth, chi)


def _run_propagation(cfg: ExperimentConfig, outdir: str):
    v = cfg.values
    checks, artifacts = [], []
    n, L = v[("grid", "n")], v[("grid", "L")]
    j, k = v[("params", "j")], v[("params", "k")]
    params = DispersionParams(j, k)
    T, dt, stride = v[("suite", "T")], v[("suite", "dt")], v[("suite", "stride")]
    m = j + 1
    wspec = WindowSpec(x0=0.0, eps=v[("suite", "window_eps")],
                       R=v[("suite", "window_R")], v=v[("suite", "window_v")],
                       ell=0, m=m)
    mirror = WindowSpec(x0=v[("suite", "mirror_x0")], eps=v[("suite", "window_eps")],
                        R=v[("suite", "window_R")], v=v[("suite", "window_v")],
                        ell=m, m=m)

    xi_cut = 2 * math.pi * (n // (k + 2)) / L   # base-grid band, held fixed

    def run(nn, ddt, sstride):
        g = make_grid(nn, L)
        rng = np.random.default_rng(cfg.seed)
        u0 = _propagation_datum(g, rng, v[("suite", "rough_band_lo")],
                                v[("suite", "rough_band_hi")],
                                v[("suite", "amplitude")])
        traj = evolve(params, u0, T, ddt, stride=sstride, xi_cut=xi_cut)
        sup_r, spacetime = window_energy(traj, wspec)
        refl = Trajectory(g, traj.times,
                          [fields.reflect(sl) for sl in traj.slices], params)
        sup_l, _ = window_energy(refl, mirror)
        # initial energies for the growth ratios
        first_r, _ = window_energy(Trajectory(g, traj.times[:1], traj.slices[:1], params), wspec)
        first_l, _ = window_energy(Trajectory(g, refl.times[:1], refl.slices[:1], params), mirror)
        return traj, sup_r, first_r, sup_l, first_l, spacetime

    traj, sup_r, first_r, sup_l, first_l, spacetime = run(n, dt, stride)
    from .norms import _halfline_integral
    from .spectral import derivative

    rows = []
    for t, sl in zip(traj.times, traj.slices):
        refl = fields.reflect(sl)
        for ell in range(0, m + 1):
            a = wspec.x0 + wspec.eps - wspec.v * t
            gsq = derivative(sl, ell).samples ** 2
            rows.append((t, ell, wspec.v, wspec.eps, "right",
                         _halfline_integral(gsq, traj.grid, a)))
            am = mirror.x0 + mirror.eps - mirror.v * t
            gsq_l = derivative(refl, ell).samples ** 2
            rows.append((t, ell, mirror.v, mirror.eps, "left",
                         _halfline_integral(gsq_l, traj.grid, am)))
    path = os.path.join(outdir, "window_energies.csv")
    _write_csv(path, ["t", "ell", "v", "eps", "side", "energy"], rows)
    artifacts.append(path)
    summary_json = os.path.join(outdir, "window_summary.json")
    with open(summary_json, "w") as fh:
        json.dump({"sup_energy_right": {str(k): v for k, v in sup_r.items()},
                   "sup_energy_left": {str(k): v for k, v in sup_l.items()},
                   "spacetime_integral": spacetime}, fh, indent=1, sort_keys=True)
    artifacts.append(summary_json)

    rmax = v[("suite", "right_ratio_max")]
    worst_ratio = max(sup_r[ell] / first_r[ell] for ell in range(0, m + 1))
    checks.append(Check("right_window_sup_ratio", worst_ratio, f"< {rmax}",
                        worst_ratio < rmax))
    growth = sup_l[m] / first_l[m]
    checks.append(Check("left_window_growth", growth,
                        f"> {v[('suite', 'left_growth_min')]}",
                        growth > v[("suite", "left_growth_min")]))
    checks.append(Check("spacetime_band_finite", spacetime, "finite and > 0",
                        math.isfinite(spacetime) and spacetime > 0))
    _, _, _, _, _, st_dt = run(n, dt / 2, 2 * stride)
    _, _, _, _, _, st_n = run(2 * n, dt, stride)
    tol = v[("suite", "stability_tol")]
    dev = max(abs(st_dt - spacetime), abs(st_n - spacetime)) / spacetime
    checks.append(Check("spacetime_band_stable", dev, f"< {tol}", dev < tol))
    summary = os.path.join(outdir, "propagation_summary.csv")
    _write_csv(summary, ["quantity", "value"],
               [("right_sup_ratio_max", worst_ratio),
                ("left_growth", growth),
                ("spacetime_base", spacetime),
                ("spacetime_dt_halved", st_dt),
                ("spacetime_n_doubled", st_n)])
    artifacts.append(summary)
    return checks, artifacts


def _run_blowup(cfg: ExperimentConfig, outdir: str):
    v = cfg.values
    checks, artifacts = [], []
    g = make_grid(v[("grid", "n")], v[("grid", "L")])
    params = DispersionParams(v[("params", "j")])
    spec = BlowupDatumSpec(qmax=v[("suite", "qmax")], pmax=v[("suite", "pmax")],
                           scheme=v[("suite", "scheme")], delta=v[("suite", "delta")])
    kmax = v[("suite", "gap_kmax")]
    probe_t = math.sqrt(2.0)
    cert = irrationality_gap(probe_t, kmax)
    checks.append(Check("probe_gap_positive", cert.gap, "> 0", cert.gap > 0))

    datum = build_blowup_datum(spec, params, g)
    manifest = datum[1]
    man_path = os.path.join(outdir, "manifest.csv")
    _write_csv(man_path, ["p1", "q1", "p2", "q2", "weight", "t_singular", "x_singular"],
               [(t.p1, t.q1, t.p2, t.q2, t.weight, t.singular_time,
                 t.singular_location) for t in manifest])
    artifacts.append(man_path)

    rows = []
    cmin = v[("suite", "contrast_min")]
    worst = math.inf
    for t_rat in sorted({t.singular_time for t in manifest}):
        for rec in blowup_contrast(datum, params, t_rat, probe_t):
            rows.append((rec.t_rational, rec.x_star, rec.quotient_rational,
                         rec.quotient_irrational, rec.contrast, "singular"))
            worst = min(worst, rec.contrast)
    checks.append(Check("manifest_contrast_min", worst, f"> {cmin}", worst > cmin))

    lo, hi = v[("suite", "excluded_lo")], v[("suite", "excluded_hi")]
    for tok in v[("suite", "excluded_times")].split(","):
        p, q = _parse_rational(tok)
        t_ex = p / q
        ratio = excluded_time_ratio(datum, params, t_ex, probe_t)
        rows.append((t_ex, float("nan"), float("nan"), float("nan"), ratio, "excluded"))
        checks.append(Check(f"excluded_ratio_{p}_{q}", ratio, f"in [{lo}, {hi}]",
                            lo <= ratio <= hi))
    path = os.path.join(outdir, "contrast.csv")
    _write_csv(path, ["t", "x_star", "q_rational", "q_probe", "contrast", "kind"], rows)
    artifacts.append(path)
    return checks, artifacts


def _run_smoothing(cfg: ExperimentConfig, outdir: str):
    v = cfg.values
    checks, artifacts = [], []
    n = v[("grid", "n")]
    rows = []
    gmin = v[("suite", "gain_min")]
    for k, L in ((1, v[("suite", "L_k1")]), (2, v[("suite", "L_k2")])):
        g = make_grid(n, L)
        rng = np.random.default_rng(cfg.seed)
        u0 = fields.rough_spectrum_field(g, rng, s=v[("suite", "s")],
                                         amplitude=v[("suite", "amplitude")])
        params = DispersionParams(1, k)
        traj = evolve(params, u0, v[("suite", "T")], v[("suite", "dt")],
                      stride=10 ** 9)
        rep = smoothing_gain(traj, u0, params)
        rows.append((1, k, L, cfg.seed, rep.tail_linear, rep.tail_duhamel,
                     rep.drift, rep.gain))
        checks.append(Check(f"gain_j1_k{k}", rep.gain if rep.gain is not None else -99.0,
                            f">= {gmin}", rep.gain is not None and rep.gain >= gmin))
    path = os.path.join(outdir, "smoothing.csv")
    _write_csv(path, ["j", "k", "L", "seed", "tail_linear", "tail_duhamel",
                      "drift", "gain"], rows)
    artifacts.append(path)
    return checks, artifacts


_RUNNERS = {
    "decay": _run_decay,
    "identities": _run_identities,
    "persistence": _run_persistence,
    "propagation": _run_propagation,
    "blowup": _run_blowup,
    "smoothing": _run_smoothing,
}


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute a suite: write CSV artifacts + JSON report, return the report."""
    outdir = os.environ.get("HKDVLAB_OUTPUT", cfg.output_dir)
    outdir = os.path.join(outdir, cfg.name)
    os.makedirs(outdir, exist_ok=True)
    t0 = time.perf_counter()
    checks, artifacts = _RUNNERS[cfg.name](cfg, outdir)
    report = ExperimentReport(cfg.name, cfg.flat(), RNG_ALGORITHM, checks,
                              artifacts, time.perf_counter() - t0)
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        fh.write(report.to_json())
    return report


def list_suites(as_json: bool = False):
    """Stable-ordered catalogue of suites with one-line claims."""
    entries = [{"name": s, "claim": SUITE_CLAIMS[s]} for s in SUITES]
    if as_json:
        return json.dumps(entries, indent=1)
    return entries


# ---------------------------------------------------------------------------
# plot scripts

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

_PLOT_BODIES = {
    "decay.csv": """
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
""",
    "window_energies.csv": """
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
""",
    "smoothing.csv": """
rows = read("smoothing.csv")
fig, ax = plt.subplots()
ks = [r["k"] for r in rows]
for key, color in (("tail_linear", "C0"), ("tail_duhamel", "C1")):
    ax.bar([f"k={k} {key}" for k in ks], [float(r[key]) for r in rows], color=color)
ax.set_ylabel("tail exponent")
fig.savefig(os.path.join(HERE, "smoothing_tails.png"), dpi=150)
""",
    "contrast.csv": """
rows = [r for r in read("contrast.csv") if r["kind"] == "singular"]
fig, ax = plt.subplots()
labels = [f"t={r['t']} x={r['x_star']}" for r in rows]
ax.bar(labels, [float(r["contrast"]) for r in rows])
ax.axhline(10.0, color="r", ls="--")
ax.set_ylabel("jump-quotient contrast"); plt.xticks(rotation=60, fontsize=6)
fig.tight_layout()
fig.savefig(os.path.join(HERE, "contrast.png"), dpi=150)
""",
    "stein.csv": """
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
""",
    "persistence.csv": """
rows = read("persistence.csv")
fig, ax = plt.subplots()
idx = range(len(rows))
ax.bar([r["component"] for r in rows], [float(r["base"]) for r in rows])
ax.set_ylabel("component norm"); plt.xticks(rotation=45, fontsize=7)
fig.tight_layout()
fig.savefig(os.path.join(HERE, "persistence.png"), dpi=150)
""",
}


def emit_plots(report_path: str) -> list[str]:
    """Write one renderer-agnostic plot script per plottable CSV artifact."""
    with open(report_path) as fh:
        report = json.load(fh)
    outdir = os.path.dirname(os.path.abspath(report_path))
    written = []
    for art in report.get("artifacts", []):
        base = os.path.basename(art)
        if base not in _PLOT_BODIES:
            continue
        if not os.path.exists(os.path.join(outdir, base)):
            raise FileNotFoundError(f"artifact {base} missing next to the report")
        script = os.path.join(outdir, f"plot_{base.replace('.csv', '')}.py")
        with open(script, "w") as fh:
            fh.write(_PLOT_HEADER + _PLOT_BODIES[base])
        written.append(script)
    return written
