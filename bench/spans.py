"""Spans around the package's layers, for the benchmark's traced runs.

``install`` wraps every public function of the layer modules, the suite
runners and ``experiments.run``.  Modules import functions by name, so each
wrapper replaces the function in every ``hkdvlab`` namespace that holds it.
A span records name, start, end and parent; a layer's self time is its
duration minus the time covered by its child spans.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYER_MODULES = ("spectral", "propagators", "identities", "norms", "blowup", "fields")
SUITES = ("decay", "identities", "persistence", "propagation", "blowup", "smoothing")
#: decay kernels of at least this many points are synthesized in complex64
#: (8 bytes a point), smaller ones in complex128 (16 bytes)
KERNEL_COMPLEX64_FROM = 1 << 22
#: grid size at which ``propagators.evolve.us_per_step`` is taken
STEP_COST_N = 4096

#: (metric, unit) pairs of a traced run, in the order they are printed
LAYER_METRICS = (
    ("propagators.evolve.s", "s"),
    ("propagators.evolve.us_per_step", "us"),
    ("propagators.evolve.steps", "count"),
    ("propagators.linear_flow.calls", "count"),
    ("propagators.linear_flow.s", "s"),
    ("propagators.dispersion_phase.calls", "count"),
    ("identities.dispersive_decay_probe.s", "s"),
    ("identities.kernel_points", "count"),
    ("identities.kernel_points_per_s", "1/s"),
    ("identities.kernel_bytes", "B"),
    ("spectral.stein_deriv.s", "s"),
    ("spectral.stein_deriv.calls", "count"),
    ("spectral.forward.calls", "count"),
    ("spectral.forward.s", "s"),
    ("spectral.inverse.calls", "count"),
    ("spectral.inverse.s", "s"),
    ("spectral.grid_freq_rebuilds", "count"),
    ("spectral.synthesize_at.points", "count"),
    ("spectral.synthesize_at.s", "s"),
    ("blowup.datum_builds", "count"),
    ("blowup.datum_useful_ratio", "ratio"),
    ("blowup.smoothing_gain.s", "s"),
    ("norms.window_energy.s", "s"),
    ("norms.mixed_norm.s", "s"),
    ("fields.s", "s"),
    *((f"experiments.suite.{name}.s", "s") for name in SUITES),
    ("experiments.self.s", "s"),
)


class Tracer:
    """Span recorder with per-round totals of calls, inclusive and self time."""

    def __init__(self):
        self.spans: list[tuple] = []       # (id, name, start, end, parent)
        self._stack: list[list] = []       # [span id, child time] per open span
        self._next_id = 0
        self.reset_round()

    def reset_round(self) -> None:
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._datum_keys: set = set()

    def begin_operation(self) -> None:
        """A datum build counts as useful once per suite execution."""
        self._datum_keys = set()

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans.append((span_id, name, start, end, parent))
                tracer.calls[name] += 1
                tracer.inclusive[name] += duration
                tracer.self_time[name] += duration - frame[1]
            if hook is not None:
                hook(tracer, args, kwargs, result, duration - frame[1])
            return result

        return traced

    def layer_metrics(self) -> dict:
        """The per-layer metrics of the round recorded since ``reset_round``."""
        c, st, cnt = self.calls, self.self_time, self.counts
        probe_s = st["identities.dispersive_decay_probe"]
        n_steps = cnt["evolve.steps_at_n"]
        builds = c["blowup.build_blowup_datum"]
        m = {
            "propagators.evolve.s": st["propagators.evolve"],
            "propagators.evolve.us_per_step":
                1e6 * cnt["evolve.s_at_n"] / n_steps if n_steps else 0.0,
            "propagators.evolve.steps": cnt["evolve.steps"],
            "propagators.linear_flow.calls": c["propagators.linear_flow"],
            "propagators.linear_flow.s": st["propagators.linear_flow"],
            "propagators.dispersion_phase.calls": c["propagators.dispersion_phase"],
            "identities.dispersive_decay_probe.s": probe_s,
            "identities.kernel_points": cnt["kernel.points"],
            "identities.kernel_points_per_s":
                cnt["kernel.points"] / probe_s if probe_s else 0.0,
            "identities.kernel_bytes": cnt["kernel.bytes"],
            "spectral.stein_deriv.s": st["spectral.stein_deriv"],
            "spectral.stein_deriv.calls": c["spectral.stein_deriv"],
            "spectral.forward.calls": c["spectral.forward"],
            "spectral.forward.s": st["spectral.forward"],
            "spectral.inverse.calls": c["spectral.inverse"],
            "spectral.inverse.s": st["spectral.inverse"],
            "spectral.grid_freq_rebuilds": cnt["grid.freq_index"],
            "spectral.synthesize_at.points": cnt["synthesize.points"],
            "spectral.synthesize_at.s": st["spectral.synthesize_at"],
            "blowup.datum_builds": builds,
            "blowup.datum_useful_ratio": cnt["datum.distinct"] / builds if builds else 0.0,
            "blowup.smoothing_gain.s": st["blowup.smoothing_gain"],
            "norms.window_energy.s": st["norms.window_energy"],
            "norms.mixed_norm.s": st["norms.mixed_norm"],
            "fields.s": sum(v for k, v in st.items() if k.startswith("fields.")),
            "experiments.self.s": sum(v for k, v in st.items() if k.startswith("experiments.")),
        }
        for name in SUITES:
            m[f"experiments.suite.{name}.s"] = self.inclusive[f"experiments.suite.{name}"]
        return {k: float(m[k]) for k, _ in LAYER_METRICS}

    def save(self, path: str) -> None:
        names = sorted({s[1] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        spans = self.spans
        np.savez(path, names=np.array(names),
                 id=np.array([s[0] for s in spans], dtype=np.int64),
                 name=np.array([code[s[1]] for s in spans], dtype=np.int32),
                 start=np.array([s[2] for s in spans]),
                 end=np.array([s[3] for s in spans]),
                 parent=np.array([s[4] for s in spans], dtype=np.int64))


# ---------------------------------------------------------------------------
# counts recorded at the layer boundaries


def _evolve_hook(tracer, args, kwargs, traj, self_s):
    steps = int(round(float(traj.times[-1]) / traj.dt))
    tracer.counts["evolve.steps"] += steps
    if traj.grid.n == STEP_COST_N:
        tracer.counts["evolve.steps_at_n"] += steps
        tracer.counts["evolve.s_at_n"] += self_s


def _decay_probe_hook(tracer, args, kwargs, fit, self_s):
    for sizes in fit.grid_sizes.values():
        for n in sizes:
            tracer.counts["kernel.points"] += n
            tracer.counts["kernel.bytes"] += n * (8 if n >= KERNEL_COMPLEX64_FROM else 16)


def _synthesize_hook(tracer, args, kwargs, values, self_s):
    tracer.counts["synthesize.points"] += np.size(values)


def _datum_hook(tracer, args, kwargs, result, self_s):
    key = (args, tuple(sorted(kwargs.items())))
    if key not in tracer._datum_keys:
        tracer._datum_keys.add(key)
        tracer.counts["datum.distinct"] += 1


HOOKS = {
    "propagators.evolve": _evolve_hook,
    "identities.dispersive_decay_probe": _decay_probe_hook,
    "spectral.synthesize_at": _synthesize_hook,
    "blowup.build_blowup_datum": _datum_hook,
}


def _replace_everywhere(original, wrapper) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname != "hkdvlab" and not modname.startswith("hkdvlab."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layers of the imported ``hkdvlab`` package with spans."""
    for short in LAYER_MODULES:
        mod = sys.modules[f"hkdvlab.{short}"]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            _replace_everywhere(fn, tracer.wrap(name, fn, HOOKS.get(name)))

    experiments = sys.modules["hkdvlab.experiments"]
    _replace_everywhere(experiments.run, tracer.wrap("experiments.run", experiments.run))
    for name, runner in list(experiments._RUNNERS.items()):
        experiments._RUNNERS[name] = tracer.wrap(f"experiments.suite.{name}", runner)

    grid_cls = sys.modules["hkdvlab.spectral"].Grid
    freq_index = grid_cls.__dict__["freq_index"]

    def counted_freq_index(grid):
        tracer.counts["grid.freq_index"] += 1
        return freq_index.fget(grid)

    grid_cls.freq_index = property(counted_freq_index, doc=freq_index.__doc__)
