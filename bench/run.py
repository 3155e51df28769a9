"""End-to-end benchmark of hkdvlab's suites.

Run from the root of a source checkout::

    python3 bench/run.py --workload lab --seed 0 --seconds 30 --trace 0

One process imports ``hkdvlab`` from ``src`` and runs the workload's suites
through ``hkdvlab.experiments.run`` in whole rounds until the next round would
end after ``--seconds``.  Every suite execution is one operation; it fails if
the suite raises, if a check in its ``report.json`` fails, or if one of this
benchmark's own checks (``checks.py``) rejects its outputs.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics of ``spans.py`` with ``--trace 1``.  Outputs and the run record go to
``.bench_runs/`` in the checkout, never to the suites' default ``out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")

#: workload -> suites of one round, run in this order
WORKLOADS = {
    "smoothing": ("smoothing",),
    "decay": ("decay",),
    "lab": ("identities", "persistence", "propagation", "blowup"),
}
#: suites whose verdict depends on the seed (a check fails at seed 1 or 3);
#: they always run at their default seed 0, see README
SEED_PINNED = {"propagation", "smoothing"}
#: suites whose trajectories are checked for conservation
EVOLVING = {"smoothing", "persistence", "propagation"}
#: fresh processes timed for ``setup_s`` in every run
SETUP_SAMPLES = 5

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import hkdvlab
from hkdvlab.experiments import default_config
for token in sys.argv[2:]:
    name, seed = token.split("=")
    default_config(name, seed=int(seed))
print(repr(time.monotonic()))
"""


def suite_seed(suite: str, seed: int) -> int:
    return 0 if suite in SEED_PINNED else seed


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def setup_seconds(suites, seed: int) -> float:
    """Time from spawning a fresh interpreter until ``hkdvlab`` is imported
    and the workload's configs are resolved (both ends on CLOCK_MONOTONIC)."""
    args = [sys.executable, "-c", _SETUP_CODE, SRC,
            *(f"{s}={suite_seed(s, seed)}" for s in suites)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hkdvlab", "__init__.py")):
        print(f"error: no hkdvlab sources under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    os.environ.pop("HKDVLAB_OUTPUT", None)
    suites = WORKLOADS[args.workload]

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import checks
    import spans
    from hkdvlab import experiments

    outdir = os.path.join(RUNS, args.workload, f"seed{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    configs = [experiments.default_config(s, seed=suite_seed(s, args.seed), output_dir=outdir)
               for s in suites]

    setup = [setup_seconds(suites, args.seed) for _ in range(SETUP_SAMPLES)]

    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer)
    trajectories = []
    evolve = experiments.evolve

    def keep_trajectory(*a, **kw):
        traj = evolve(*a, **kw)
        trajectories.append(traj)
        return traj

    experiments.evolve = keep_trajectory

    kernel_cache: dict = {}
    rounds, layer_rounds, failures = [], [], []
    attempted = failed = 0
    began = time.monotonic()
    while True:
        tracer.reset_round()
        ops = []
        for cfg in configs:
            trajectories.clear()
            tracer.begin_operation()
            problems, drift = [], 0.0
            wall0, cpu0 = time.monotonic(), cpu_seconds()
            try:
                experiments.run(cfg)
            except Exception:
                problems.append("suite raised:\n" + traceback.format_exc())
            wall, cpu = time.monotonic() - wall0, cpu_seconds() - cpu0
            if not problems:
                problems += checks.suite_outputs(cfg.name, os.path.join(outdir, cfg.name),
                                                 cfg.flat(), kernel_cache)
                if cfg.name in EVOLVING and not trajectories:
                    problems.append("no trajectory from experiments.evolve")
                for traj in trajectories:
                    if traj.params.j == 1:
                        found, worst = checks.conservation(
                            [s.samples for s in traj.slices], traj.grid.dx)
                        problems += found
                        drift = max(drift, worst)
            attempted += 1
            if problems:
                failed += 1
                failures.append({"suite": cfg.name, "problems": problems})
                print(f"FAIL {cfg.name}: " + "; ".join(problems), file=sys.stderr)
            ops.append({"suite": cfg.name, "wall_s": wall, "cpu_s": cpu,
                        "ok": not problems, "max_conservation_drift": drift})
        rounds.append({"wall_s": sum(o["wall_s"] for o in ops),
                       "cpu_s": sum(o["cpu_s"] for o in ops), "ops": ops})
        if args.trace:
            layer_rounds.append(tracer.layer_metrics())
        elapsed = time.monotonic() - began
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
    experiments.evolve = evolve
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = {name: {"value": statistics.median(r[name] for r in layer_rounds),
                          "unit": unit} for name, unit in spans.LAYER_METRICS}
        tracer.save(os.path.join(outdir, "spans.npz"))
    else:
        values = {"wall_s": statistics.median(r["wall_s"] for r in rounds),
                  "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
                  "peak_rss_mb": peak_rss_mb,
                  "setup_s": statistics.median(setup)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "suite_seeds": {c.name: c.seed for c in configs},
              "setup_s_samples": setup, "rounds": rounds, "layer_rounds": layer_rounds,
              "failures": failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(outdir, "run.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {len(rounds)} round(s) of {', '.join(suites)}; "
          f"{failed} of {attempted} operations failed; record in "
          f"{os.path.relpath(outdir, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
