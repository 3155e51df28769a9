import ast
import json
import os
import re

import pytest

from hkdvlab.cli import main
from hkdvlab.errors import ConfigError
from hkdvlab.experiments import (SUITES, default_config, emit_plots,
                                 list_suites, parse_config, run)


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
        assert cfg.get("suite", "T") == 0.2
        assert cfg.get("suite", "dt") == 0.004
        # untouched keys keep defaults
        assert cfg.get("suite", "r") == 0.4

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
                got = parse_config(f"{head}{key} = {default}\n").get(section, key)
                assert got == default and type(got) is type(default), (name, key)
                bad = {int: "1.5", float: "fast"}.get(type(default))
                if bad is not None:
                    with pytest.raises(ConfigError, match="cannot parse"):
                        parse_config(f"{head}{key} = {bad}\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("[experiment]\nname = decay\n[run]\nseed = 1.5\n")

    @pytest.mark.parametrize("suite,option,raw", [
        ("decay", "t_list", "1,x"),
        ("blowup", "excluded_times", "5/2/1"),
        ("blowup", "excluded_times", "5/0"),
        ("decay", "j_list", "1,3"),
        ("identities", "algebra_n", "7"),
        ("persistence", "dt", "0.3"),
        ("decay", "t_list", "2"),
        ("smoothing", "dt_k1", "3e-5"),
        ("smoothing", "dt_k2", "3e-4"),
        ("smoothing", "L_k1", "-5"),
        ("smoothing", "L_k2", "-5"),
        ("propagation", "window_v", "-1"),
        ("persistence", "width", "0"),
        ("identities", "reduction_j_max", "40"),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, suite, option, raw):
        text = f"[experiment]\nname = {suite}\n[suite]\n{option} = {raw}\n"
        with pytest.raises(ConfigError, match=re.escape(f"suite.{option}")):
            parse_config(text)
        path = tmp_path / "c.ini"
        path.write_text(text)
        assert main(["run", suite, "--config", str(path),
                     "--output-dir", str(tmp_path)]) == 2
        assert not (tmp_path / suite).exists()

    def test_precondition_validation(self):
        with pytest.raises(ConfigError, match="s >= 2"):
            parse_config("[experiment]\nname = persistence\n[suite]\nr = 0.9\ns = 1.0\n")
        with pytest.raises(ConfigError, match="even"):
            parse_config("[experiment]\nname = persistence\n[grid]\nn = 511\n")

    def test_config_echo_lists_everything(self):
        cfg = default_config("smoothing", seed=3)
        flat = cfg.flat()
        assert flat["experiment.name"] == "smoothing"
        assert flat["run.seed"] == 3
        assert flat["rng"] == "PCG64"
        assert "suite.gain_min" in flat


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

    def test_repeat_runs_bitwise_identical(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            cfg = default_config("persistence", output_dir=str(tmp_path / sub))
            run(cfg)
            csv = tmp_path / sub / "persistence" / "persistence.csv"
            blobs.append(csv.read_bytes())
        assert blobs[0] == blobs[1]

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

    def test_output_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HKDVLAB_OUTPUT", str(tmp_path / "envdir"))
        cfg = default_config("persistence", output_dir=str(tmp_path / "ignored"))
        run(cfg)
        assert (tmp_path / "envdir" / "persistence" / "report.json").exists()
        assert not (tmp_path / "ignored").exists()


class TestCatalogue:
    def test_six_suites_listed(self):
        entries = list_suites()
        assert [e["name"] for e in entries] == list(SUITES)
        assert len(entries) == 6
        assert all(e["claim"] for e in entries)

    def test_json_catalogue(self):
        payload = json.loads(list_suites(as_json=True))
        assert payload[0]["name"] == "decay"


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

    def test_contrast_plot_draws_the_report_threshold(self, tmp_path):
        (tmp_path / "contrast.csv").write_text("t,x_star,q_rational,q_probe,contrast,kind\n")
        rp = tmp_path / "report.json"
        rp.write_text(json.dumps({"artifacts": ["contrast.csv"],
                                  "config": {"suite.contrast_min": 12.5}}))
        [script] = emit_plots(str(rp))
        tree = ast.parse(open(script).read())
        [config] = [ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "CONFIG"]
        [line] = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "axhline"]
        assert eval(compile(ast.Expression(line.args[0]), script, "eval"),
                    {"CONFIG": config}) == 12.5

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

    def test_unknown_suite_exit_two(self, capsys):
        assert main(["run", "fourier_circus"]) == 2

    def test_config_mismatch_exit_two(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[experiment]\nname = decay\n")
        assert main(["run", "persistence", "--config", str(p)]) == 2

    def test_plots_subcommand(self, tmp_path, capsys):
        main(["run", "persistence", "--output-dir", str(tmp_path)])
        rc = main(["plots", str(tmp_path / "persistence" / "report.json")])
        assert rc == 0
