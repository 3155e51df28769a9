import ast
import json
import os
import re
import runpy
import subprocess
import sys
import types

import numpy as np
import pytest

import hkdvlab.experiments as experiments
import hkdvlab.fields as fields
import reference
from hkdvlab.cli import main
from hkdvlab.errors import ConfigError, SolverBlowup
from hkdvlab.experiments import (SUITES, _compare, _in_range, default_config, emit_plots,
                                 list_suites, parse_config, run)
from hkdvlab.propagators import DispersionParams, evolve
from hkdvlab.spectral import dealias_cutoff, make_grid


def _assert_rejected(tmp_path, suite, body, message):
    """The config ``body`` of ``suite`` is a ConfigError whose message contains
    ``message``, and exits 2 from the CLI before the suite's output directory
    exists."""
    text = f"[experiment]\nname = {suite}\n{body}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
    path = tmp_path / "c.ini"
    path.write_text(text)
    assert main(["run", suite, "--config", str(path), "--output-dir", str(tmp_path)]) == 2
    assert not (tmp_path / suite).exists()


def _assert_unknown_option(tmp_path, suite, option, raw):
    """Setting ``suite.<option>`` is an unknown option to the parser."""
    _assert_rejected(tmp_path, suite, f"[suite]\n{option} = {raw}\n",
                     f"unknown option suite.{option}")


class TestConfig:
    def test_defaults_validate(self):
        for name in SUITES:
            cfg = default_config(name)
            assert cfg.name == name

    def test_parse_round_trip(self):
        text = """
[experiment]
name = persistence

[run]
seed = 7
output_dir = /tmp/somewhere

[suite]
T = 0.2
dt = 0.004
"""
        cfg = parse_config(text)
        assert cfg.name == "persistence"
        assert cfg.seed == 7
        assert cfg.values[("suite", "T")] == 0.2
        assert cfg.values[("suite", "dt")] == 0.004
        # untouched keys keep defaults
        assert cfg.values[("suite", "r")] == 0.4

    def test_unknown_suite(self):
        with pytest.raises(ConfigError, match="unknown suite"):
            parse_config("[experiment]\nname = wavelets\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown option"):
            parse_config("[experiment]\nname = decay\n[suite]\nwhatever = 1\n")

    def test_bad_type(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("[experiment]\nname = persistence\n[suite]\nT = fast\n")

    def test_option_types_round_trip(self):
        # an option's type is the type of its default
        for name in SUITES:
            for (section, key), default in default_config(name).values.items():
                head = f"[experiment]\nname = {name}\n[{section}]\n"
                got = parse_config(f"{head}{key} = {default}\n").values[(section, key)]
                assert got == default and type(got) is type(default), (name, key)
                bad = {int: "1.5", float: "fast"}.get(type(default))
                if bad is not None:
                    with pytest.raises(ConfigError, match="cannot parse"):
                        parse_config(f"{head}{key} = {bad}\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("[experiment]\nname = decay\n[run]\nseed = 1.5\n")

    @pytest.mark.parametrize("suite,option,raw", [
        ("blowup", "excluded_times", "5/2/1"),
        ("blowup", "excluded_times", "5/0"),
        ("persistence", "dt", "0.3"),
        ("smoothing", "dt_k1", "3e-5"),
        ("smoothing", "dt_k2", "3e-4"),
        ("smoothing", "L_k1", "-5"),
        ("smoothing", "L_k2", "-5"),
        ("persistence", "width", "0"),
        ("identities", "reduction_j_max", "40"),
        ("propagation", "rough_band_hi", "0.1"),
        ("blowup", "excluded_times", "1/2"),
        ("blowup", "excluded_times", "2/4"),
        ("blowup", "pmax", "200"),
        ("persistence", "amplitude", "0"),
        ("propagation", "amplitude", "0.0"),
        ("smoothing", "amplitude", "-0"),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, suite, option, raw):
        _assert_rejected(tmp_path, suite, f"[suite]\n{option} = {raw}\n", f"suite.{option}")

    @pytest.mark.parametrize("suite,option,raw", [
        ("persistence", "grid.n", "15"),
        ("persistence", "grid.L", "-1"),
        ("persistence", "params.j", "0"),
        ("propagation", "params.k", "0"),
        ("blowup", "suite.qmax", "0"),
        ("blowup", "suite.scheme", "foo"),
    ])
    def test_module_precondition_is_config_error(self, tmp_path, suite, option, raw):
        # the grid, the equation and the datum spec check these themselves
        section, key = option.split(".")
        _assert_rejected(tmp_path, suite, f"[{section}]\n{key} = {raw}\n", option)

    @pytest.mark.parametrize("suite,body,message", [
        ("persistence", "[grid]\nn = 4611686018427387904\n",
         "grid.n, grid.L: n must be <= 16777216, got 4611686018427387904"),
        ("blowup", "[suite]\nqmax = 300\n", "pmax * qmax must be <= 256, got 2 * 300"),
        *(("propagation", f"[grid]\nn = {n}\n[params]\nj = {j}\n[suite]\nrough_band_lo = 0.02\n"
           "rough_band_hi = 0.05\n", f"grid.n, params.j: n must be >= 8 (2j+1) = {n_min}, got {n}")
          for n, j, n_min in ((16, 1, 24), (22, 1, 24), (32, 2, 40), (38, 2, 40))),
    ])
    def test_absurd_size_is_config_error(self, tmp_path, suite, body, message):
        # unchecked, numpy fails on the 2^62-point array inside the run, the
        # 2 x 300 pair box makes a datum of about 2e5 n-point terms, and a
        # propagation grid below 8 (2j+1) points fails in the window energies
        _assert_rejected(tmp_path, suite, body, message)

    @pytest.mark.parametrize("suite,steps,raw", [("persistence", "dt", "1"),
                                                 ("smoothing", "dt_k1,dt_k2", "0.5")])
    def test_step_longer_than_the_run_is_config_error(self, tmp_path, suite, steps, raw):
        # T / dt rounds to zero steps, which evolve() refuses; T is within
        # rounding of that zero multiple, so only the step count catches it
        keys = steps.split(",")
        body = "".join(f"{key} = {raw}\n" for key in keys)
        _assert_rejected(tmp_path, suite, f"[suite]\nT = 1e-10\n{body}",
                         f"suite.T, suite.{keys[0]}: dt={float(raw)} is longer than T=1e-10")

    @pytest.mark.parametrize("suite,step", [("persistence", "dt"), ("smoothing", "dt_k1")])
    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_nonpositive_run_is_config_error(self, tmp_path, suite, step, raw):
        _assert_rejected(tmp_path, suite, f"[suite]\nT = {raw}\n",
                         f"suite.T, suite.{step}: T must be positive, got T={float(raw)}")

    @pytest.mark.parametrize("suite,option,raw", [
        ("persistence", "suite.T", "inf"),
        ("propagation", "suite.rough_band_hi", "inf"),
        ("propagation", "suite.rough_band_lo", "nan"),
        ("persistence", "grid.L", "inf"),
        ("blowup", "grid.L", "inf"),
        ("persistence", "suite.s", "inf"),
        ("persistence", "suite.width", "inf"),
        ("persistence", "suite.amplitude", "nan"),
        ("propagation", "suite.amplitude", "nan"),
        ("smoothing", "suite.amplitude", "inf"),
        ("blowup", "suite.delta", "nan"),
        ("smoothing", "suite.L_k1", "inf"),
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, suite, option, raw):
        section, key = option.split(".")
        _assert_rejected(tmp_path, suite, f"[{section}]\n{key} = {raw}\n",
                         f"{option}: {raw!r} is not a finite number")

    @pytest.mark.parametrize("suite", SUITES)
    def test_every_option_at_its_edge_values(self, suite):
        # a config is either usable or a ConfigError, never a raw exception;
        # no huge ints: the blowup check lists every pmax x qmax coprime pair
        edges = {float: ("0", "-1", "nan", "inf", "-inf"), int: ("0", "-1")}
        options = {("run", "seed"): 0, **default_config(suite).values}
        raised = []
        for (section, key), default in options.items():
            for raw in edges.get(type(default), ()):
                try:
                    parse_config(f"[experiment]\nname = {suite}\n[{section}]\n{key} = {raw}\n")
                except ConfigError:
                    pass
                except Exception as exc:
                    raised.append(f"{section}.{key} = {raw}: {type(exc).__name__}: {exc}")
        assert not raised

    @pytest.mark.parametrize("suite,option,raw", [
        ("decay", "slope_lo", "-0.55"),
        ("decay", "slope_hi", "-0.45"),
        ("decay", "max_shift", "0.02"),
        ("identities", "reduction_tol", "1e-8"),
        ("identities", "algebra_tol", "1e-12"),
        ("identities", "commutator_tol", "1e-6"),
        ("identities", "stein_tol", "1e-3"),
        ("persistence", "stability_tol", "0.10"),
        ("propagation", "right_ratio_max", "2.0"),
        ("propagation", "left_growth_min", "10.0"),
        ("propagation", "stability_tol", "0.10"),
        ("blowup", "contrast_min", "10.0"),
        ("blowup", "excluded_lo", "0.5"),
        ("blowup", "excluded_hi", "2.0"),
        ("blowup", "gap_kmax", "50"),
        ("smoothing", "gain_min", "0.5"),
    ])
    def test_verdict_bound_is_not_an_option(self, tmp_path, suite, option, raw):
        # the bounds are frozen constants: a config cannot set one, even to
        # the value it had when it was an option
        _assert_unknown_option(tmp_path, suite, option, raw)

    @pytest.mark.parametrize("suite,option,raw", [
        ("decay", "j_list", "1,2"),
        ("decay", "t_list", "1,2,4,8,16,32,64"),
        ("decay", "envelopes_j1", "4,8"),
        ("decay", "envelopes_j2", "3,6"),
        ("identities", "reduction_fields", "20"),
        ("identities", "algebra_n", "1024"),
        ("identities", "algebra_L", "1100.0"),
        ("identities", "algebra_fields", "50"),
        ("propagation", "stride", "25"),
        ("propagation", "window_v", "1.0"),
        ("propagation", "window_eps", "1.0"),
        ("propagation", "window_R", "10.0"),
        ("propagation", "mirror_x0", "10.0"),
    ])
    def test_measurement_geometry_is_not_an_option(self, tmp_path, suite, option, raw):
        # the decay times and envelopes, the algebra box and the propagation
        # windows are the geometry the frozen bounds were calibrated on
        _assert_unknown_option(tmp_path, suite, option, raw)

    def test_precondition_validation(self):
        with pytest.raises(ConfigError, match="s >= 2"):
            parse_config("[experiment]\nname = persistence\n[suite]\nr = 0.9\ns = 1.0\n")
        with pytest.raises(ConfigError, match="even"):
            parse_config("[experiment]\nname = persistence\n[grid]\nn = 511\n")
        # the singular location 2 = pmax lies outside 0.4 L of a box of length 4
        with pytest.raises(ConfigError, match="suite.pmax"):
            parse_config("[experiment]\nname = blowup\n[grid]\nL = 4\n")

    def test_config_echo_lists_everything(self):
        cfg = default_config("smoothing", seed=3)
        flat = cfg.flat()
        assert flat["experiment.name"] == "smoothing"
        assert flat["run.seed"] == 3
        assert flat["rng"] == "PCG64"
        assert "suite.dt_k1" in flat


class TestRunAndReport:
    def test_persistence_report(self, tmp_path):
        cfg = default_config("persistence", output_dir=str(tmp_path))
        report = run(cfg)
        assert report.passed
        rp = tmp_path / "persistence" / "report.json"
        payload = json.loads(rp.read_text())
        assert payload["pass"] is True
        assert payload["rng"] == "PCG64"
        assert payload["config"]["experiment.name"] == "persistence"
        assert all(os.path.exists(a) for a in payload["artifacts"])

    def test_margins_are_signed_distances(self):
        # positive on the passing side: over |bound| for a comparison (over 1
        # for a zero bound), over the width for a range
        assert _compare("a", 0.5, "<", 2.0).margin == 0.75
        assert _compare("a", 3.0, "<", 2.0).margin == -0.5
        assert _compare("a", 12.0, ">", 10.0).margin == pytest.approx(0.2, rel=1e-15)
        assert _compare("a", 0.25, ">=", -1.0).margin == 1.25
        assert _compare("a", 0.125, ">", 0).margin == 0.125
        assert _in_range("a", -0.48, -0.55, -0.45).margin == pytest.approx(0.3, rel=1e-12)
        assert _in_range("a", -0.6, -0.55, -0.45).margin == pytest.approx(-0.5, rel=1e-12)

    def test_every_report_check_carries_a_margin(self, suite_runs):
        # report.json only gains the key; it is null exactly for the checks
        # that are true or false, and positive exactly for the passing others
        flags = {"coefficients_j1", "coefficients_j2", "commutator_padding_monotone",
                 "stein_eps_monotone", "all_components_finite", "spacetime_band_finite"}
        seen = set()
        for name in SUITES:
            payload = json.loads((suite_runs.root / name / "report.json").read_text())
            for check in payload["checks"]:
                assert set(check) == {"name", "measured", "threshold", "passed", "margin"}
                if check["margin"] is None:
                    seen.add(check["name"])
                else:
                    assert (check["margin"] > 0) == check["passed"], check
        assert seen == flags

    def test_repeat_runs_bitwise_identical(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            cfg = default_config("persistence", output_dir=str(tmp_path / sub))
            run(cfg)
            csv = tmp_path / sub / "persistence" / "persistence.csv"
            blobs.append(csv.read_bytes())
        assert blobs[0] == blobs[1]

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # every reduction runs on the calling thread, so the BLAS thread
        # count cannot change a summation order
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for threads in ("1", "2"):
            for suite in ("identities", "blowup"):
                subprocess.run([sys.executable, "-m", "hkdvlab.cli", "run", suite,
                                "--seed", "0", "--output-dir", str(tmp_path / threads)],
                               env={**env, "OPENBLAS_NUM_THREADS": threads},
                               check=True, capture_output=True, timeout=300)
        one, two = ({p.relative_to(tmp_path / t): p.read_bytes()
                     for p in (tmp_path / t).rglob("*.csv")} for t in ("1", "2"))
        assert len(one) == 7 and one.keys() == two.keys()
        assert [str(p) for p in one if one[p] != two[p]] == []

    def test_propagation_passes_at_seeds_0_to_7(self, tmp_path):
        # the datum's verdicts must not rest on one seed
        failed = {}
        for seed in range(8):
            cfg = default_config("propagation", seed=seed,
                                 output_dir=str(tmp_path / str(seed)))
            bad = [(c.name, c.measured) for c in run(cfg).checks if not c.passed]
            if bad:
                failed[seed] = bad
        assert not failed


class _BaseRun(Exception):
    """Stops a suite at its first integration, carrying the grid and the
    bins that integration retains."""


class TestPropagationBand:
    """The propagation suite's base run, its ``dt/2`` run and its ``2n`` run
    integrate one truncated system, pinned at the base grid's dealias band."""

    @pytest.mark.parametrize("k,n", [(1, 2048), (2, 2048), (1, 4096)])
    def test_base_run_retains_the_dealias_band(self, monkeypatch, tmp_path, k, n):
        def spy(params, u0, T, dt, stride=1, **pin):
            # evolve hands its band pin on to _BandRHS under the same name
            raise _BaseRun(u0.grid, reference.retained_bins(params, u0.grid, **pin))

        monkeypatch.setattr(experiments, "evolve", spy)
        cfg = parse_config(f"[experiment]\nname = propagation\n[params]\nk = {k}\n"
                           f"[grid]\nn = {n}\n", output_dir=str(tmp_path))
        with pytest.raises(_BaseRun) as stop:
            run(cfg)
        grid, keep = stop.value.args
        assert grid.n == n
        assert np.array_equal(np.flatnonzero(keep), np.arange(dealias_cutoff(n, k) + 1))


class TestCatalogue:
    def test_six_suites_listed(self):
        entries = list_suites()
        assert [e["name"] for e in entries] == list(SUITES)
        assert len(entries) == 6
        assert all(e["claim"] for e in entries)

    def test_json_catalogue(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["name"] == "decay"


class _Anything:
    """Accepts every method call, as a matplotlib ``Axes`` would."""

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


@pytest.fixture
def saved_figures(monkeypatch):
    """Put a stub ``matplotlib`` in ``sys.modules``; returns the paths that
    the scripts pass to ``savefig``."""
    saved = []
    fig = _Anything()
    fig.savefig = lambda path, **kwargs: saved.append(path)
    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = lambda *args, **kwargs: (fig, _Anything())
    pyplot.xticks = lambda *args, **kwargs: None
    mpl = types.ModuleType("matplotlib")
    mpl.use = lambda backend: None
    mpl.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", mpl)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return saved


class TestPlots:
    def test_scripts_reference_only_csvs(self, tmp_path):
        cfg = default_config("persistence", output_dir=str(tmp_path))
        run(cfg)
        scripts = emit_plots(str(tmp_path / "persistence" / "report.json"))
        assert scripts
        for s in scripts:
            text = open(s).read()
            assert "hkdvlab" not in text    # renderer-agnostic, no package import
            assert ".csv" in text

    def test_missing_csv_rejected(self, tmp_path):
        cfg = default_config("persistence", output_dir=str(tmp_path))
        run(cfg)
        os.remove(tmp_path / "persistence" / "persistence.csv")
        with pytest.raises(FileNotFoundError):
            emit_plots(str(tmp_path / "persistence" / "report.json"))

    def test_contrast_plot_draws_the_report_threshold(self, suite_runs):
        rp = suite_runs.root / "blowup" / "report.json"
        [check] = [c for c in json.loads(rp.read_text())["checks"]
                   if c["name"] == "manifest_contrast_min"]
        [script] = emit_plots(str(rp))
        tree = ast.parse(open(script).read())
        [line] = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "axhline"]
        op, bound = check["threshold"].split()
        assert op == ">" and ast.literal_eval(line.args[0]) == float(bound)

    def test_every_plot_script_runs(self, suite_runs, saved_figures):
        # matplotlib is stubbed, so each script's own code runs on its
        # suite's CSV and must get as far as saving its figure
        for name in SUITES:
            scripts = emit_plots(str(suite_runs.root / name / "report.json"))
            assert scripts, name
            for script in scripts:
                before = len(saved_figures)
                runpy.run_path(script)
                [png] = saved_figures[before:]
                assert png.endswith(".png")
                assert os.path.dirname(png) == os.path.dirname(script)

    def test_report_without_plottables(self, tmp_path):
        rp = tmp_path / "report.json"
        rp.write_text(json.dumps({"artifacts": []}))
        assert emit_plots(str(rp)) == []


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "persistence" in out and "blowup" in out

    def test_run_pass_exit_zero(self, tmp_path, capsys):
        rc = main(["run", "persistence", "--output-dir", str(tmp_path)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_prints_each_margin_and_the_smallest(self, tmp_path, capsys):
        assert main(["run", "decay", "--output-dir", str(tmp_path)]) == 0
        *lines, summary = capsys.readouterr().out.splitlines()
        checks = json.loads((tmp_path / "decay" / "report.json").read_text())["checks"]
        assert len(lines) == len(checks)
        for line, check in zip(lines, checks):
            assert line.endswith(f", margin {check['margin']:+.3g})"), line
        smallest = min(checks, key=lambda c: c["margin"])
        assert summary.endswith(f", smallest margin {smallest['margin']:+.3g} "
                                f"({smallest['name']})"), summary

    def test_unknown_suite_exit_two(self, capsys):
        assert main(["run", "fourier_circus"]) == 2

    @pytest.mark.parametrize("suite", ["identities", "blowup"])
    @pytest.mark.parametrize("with_file", [False, True])
    def test_override_is_validated(self, tmp_path, capsys, suite, with_file):
        # --seed is checked like a seed in the file, before any output exists
        args = ["run", suite, "--seed", "-1", "--output-dir", str(tmp_path)]
        if with_file:
            path = tmp_path / "c.ini"
            path.write_text(f"[experiment]\nname = {suite}\n")
            args += ["--config", str(path)]
        assert main(args) == 2
        assert "run.seed must be a nonnegative integer" in capsys.readouterr().err
        assert not (tmp_path / suite).exists()

    def test_config_mismatch_exit_two(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[experiment]\nname = decay\n")
        assert main(["run", "persistence", "--config", str(p)]) == 2

    def test_aborted_run_exit_three(self, tmp_path, capsys):
        # persistence at j = 2 leaves the solver's stable range at step 114
        p = tmp_path / "c.ini"
        p.write_text("[experiment]\nname = persistence\n[params]\nj = 2\n")
        assert main(["run", "persistence", "--config", str(p),
                     "--output-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("run aborted: SolverBlowup: ") and err.count("\n") == 1
        # the aborted run still reports, and its report does not pass
        payload = json.loads((tmp_path / "persistence" / "report.json").read_text())
        error = payload["error"]
        assert error.pop("step") == 114 and error.pop("t") == pytest.approx(0.228)
        assert f"max|u| before failure {error.pop('max_abs'):.3e}" in err
        assert error == {"type": "SolverBlowup", "message": err.strip().split(": ", 2)[2]}
        assert payload["checks"] == [] and payload["pass"] is False

    def test_aborted_run_reports_the_last_finite_step(self, tmp_path):
        # the abort comes from the 2n refinement run; it stores every 10th
        # step, so the slice of step 110 is not the last finite state
        text = "[experiment]\nname = persistence\n[params]\nj = 2\n"
        cfg = parse_config(text, output_dir=str(tmp_path))
        with pytest.raises(SolverBlowup):
            run(cfg)
        error = json.loads((tmp_path / "persistence" / "report.json").read_text())["error"]
        v = cfg.values
        dt = v[("suite", "dt")]
        g = make_grid(2 * v[("grid", "n")], v[("grid", "L")])
        u0 = fields.gaussian(g, width=v[("suite", "width")], amplitude=v[("suite", "amplitude")])
        last = evolve(DispersionParams(2, v[("params", "k")]), u0, 113 * dt, dt)
        assert (g.n, dt, error["step"]) == (1024, 2e-3, 114)
        assert error["max_abs"] == last.final().linf()

    def test_plots_subcommand(self, tmp_path, capsys):
        main(["run", "persistence", "--output-dir", str(tmp_path)])
        rc = main(["plots", str(tmp_path / "persistence" / "report.json")])
        assert rc == 0

    @pytest.mark.parametrize("kind", ["not_json", "directory", "list", "artifacts_int",
                                      "artifact_int", "config_list"])
    def test_plots_unreadable_report_exit_two(self, tmp_path, capsys, kind):
        report = tmp_path / "report.json"
        if kind == "directory":
            report.mkdir()
        else:
            report.write_text({"not_json": "pass = true\n", "list": "[]",
                               "artifacts_int": '{"artifacts": 5}',
                               "artifact_int": '{"artifacts": [5]}',
                               "config_list": '{"config": []}'}[kind])
        assert main(["plots", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
