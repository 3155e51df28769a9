"""Command-line entry point.

Subcommands::

    hkdvlab run <suite> [--config FILE] [--seed N] [--output-dir DIR]
    hkdvlab list [--json]
    hkdvlab plots <report.json>

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration error,
or for ``plots`` a report it cannot read or a file that is not a report, 3
the run aborted with a typed error (``HkdvError``) before its verdicts; its
``report.json`` records the error.
``--seed`` and ``--output-dir`` replace the config's values before
validation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, HkdvError
from .experiments import SUITES, default_config, emit_plots, list_suites, parse_config, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hkdvlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment suite")
    p_run.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    p_run.add_argument("--config", help="flat sectioned key=value config file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--output-dir", default=None)

    p_list = sub.add_parser("list", help="show the suite catalogue")
    p_list.add_argument("--json", action="store_true")

    p_plots = sub.add_parser("plots", help="emit plot scripts for a report")
    p_plots.add_argument("report", help="path to a report.json")

    args = parser.parse_args(argv)

    if args.command == "list":
        if args.json:
            print(json.dumps(list_suites(), indent=1))
        else:
            for entry in list_suites():
                print(f"{entry['name']:12s} {entry['claim']}")
        return 0

    if args.command == "plots":
        try:
            written = emit_plots(args.report)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for path in written:
            print(path)
        return 0

    # run: the overrides are applied before the one validation
    try:
        if args.config:
            with open(args.config) as fh:
                cfg = parse_config(fh.read(), args.seed, args.output_dir)
        else:
            cfg = default_config(args.suite, args.seed, args.output_dir)
        if cfg.name != args.suite:
            raise ConfigError(
                f"config names suite {cfg.name!r} but {args.suite!r} requested")
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(cfg)
    except HkdvError as exc:
        print(f"run aborted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        margin = "" if check.margin is None else f", margin {check.margin:+.3g}"
        print(f"[{status}] {check.name}: {check.measured:.6g} (want {check.threshold}{margin})")
    margins = [c for c in report.checks if c.margin is not None]
    smallest = min(margins, key=lambda c: c.margin, default=None)
    print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'} "
          f"({report.wall_clock:.1f}s)"
          + ("" if smallest is None else
             f", smallest margin {smallest.margin:+.3g} ({smallest.name})"))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
