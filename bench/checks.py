"""Correctness checks on the outputs of one suite execution.

Every check compares an output against a property the method must have or
against a value computed here apart from the program; none compares against a
stored copy of an earlier output.  Each check returns a list of problems; an
empty list means the output passed.  The checks read CSV/JSON files and plain
numpy arrays only, so they never import the package they judge.
"""

from __future__ import annotations

import csv
import json
import math
import os
from fractions import Fraction

import numpy as np

#: relative drift allowed in the mean and in the L2 mass of a j = 1
#: trajectory (both are invariants of the truncated system); see README
CONSERVATION_TOL = 1e-7
#: |tail_linear - least-squares exponent of the datum's magnitude profile|
TAIL_TOL = 0.03
#: relative difference allowed between the decay suite's kernel sup and the
#: quadrature computed here
KERNEL_SUP_TOL = 1e-3
#: weights in manifest.csv are compared to this relative precision
WEIGHT_RTOL = 1e-12
#: (j, envelope, t) of the kernel sup that the decay check re-evaluates
DECAY_PROBE = (1, 4.0, 1.0)


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def report_checks(report_path: str) -> list[str]:
    """Every check recorded in a suite's report.json must have passed."""
    with open(report_path) as fh:
        report = json.load(fh)
    checks = report.get("checks", [])
    if not checks:
        return [f"{report_path}: no checks recorded"]
    problems = [f"{c['name']} failed: measured {c['measured']!r}, want {c['threshold']}"
                for c in checks if not c["passed"]]
    if not report.get("pass", False) and not problems:
        problems.append(f"{report_path}: report marked as failed")
    return problems


# ---------------------------------------------------------------------------
# trajectories of the j = 1 flow


def conservation(slices: list[np.ndarray], dx: float,
                 tol: float = CONSERVATION_TOL) -> tuple[list[str], float]:
    """Mean and L2 mass of every slice must match those of the first slice.

    The Galerkin-truncated j = 1 system conserves both exactly; any
    fourth-order integrator at the suites' step sizes keeps the drift far
    below ``tol``.  Both drifts are relative; the mean drift is scaled by
    ``sqrt(L) * ||u0||``, the largest size the integral can have, so a
    zero-mean datum is judged too.  Returns the problems and the larger drift.
    """
    u0 = np.asarray(slices[0], dtype=float)
    L = dx * u0.size
    mass0 = math.sqrt(dx * float(np.dot(u0, u0)))
    if mass0 == 0.0:
        return ["first slice is identically zero"], math.inf
    mean0 = dx * float(np.sum(u0))
    mass_drift, mean_drift = 0.0, 0.0
    for s in slices[1:]:
        s = np.asarray(s, dtype=float)
        mass = math.sqrt(dx * float(np.dot(s, s)))
        mass_drift = max(mass_drift, abs(mass - mass0) / mass0)
        mean_drift = max(mean_drift, abs(dx * float(np.sum(s)) - mean0) / (math.sqrt(L) * mass0))
    problems = []
    if not mass_drift <= tol:
        problems.append(f"L2 mass drift {mass_drift:.3e} > {tol:g}")
    if not mean_drift <= tol:
        problems.append(f"mean drift {mean_drift:.3e} > {tol:g}")
    return problems, max(mass_drift, mean_drift)


# ---------------------------------------------------------------------------
# smoothing: tail exponent of the linear part


def profile_tail_exponent(n: int, L: float, k: int, s: float) -> float:
    """Least-squares decay exponent of ``(1 + xi)^-(s + 1/2)`` on (cut/4, cut).

    ``cut`` is the top of the band kept by the degree-(k+1) dealias rule,
    ``2 pi (n // (k + 2)) / L``.  The linear flow is unitary, so the
    magnitudes of ``W(T) u0`` are those of the datum, whose profile is this
    one whatever the random phases.
    """
    cut = 2.0 * math.pi * (n // (k + 2)) / L
    xi = 2.0 * math.pi * np.arange(1, n // 2) / L
    xi = xi[(xi > cut / 4.0) & (xi < cut)]
    slope = np.polyfit(np.log(xi), -(s + 0.5) * np.log1p(xi), 1)[0]
    return float(-slope)


def smoothing_tails(csv_path: str, n: int, s: float,
                    tol: float = TAIL_TOL) -> list[str]:
    rows = read_rows(csv_path)
    if not rows:
        return [f"{csv_path}: no rows"]
    problems = []
    for r in rows:
        want = profile_tail_exponent(n, float(r["L"]), int(r["k"]), s)
        got = float(r["tail_linear"])
        if not abs(got - want) <= tol:
            problems.append(f"k={r['k']}: tail_linear {got:.6g} vs profile "
                            f"exponent {want:.6g} (tolerance {tol})")
    return problems


# ---------------------------------------------------------------------------
# decay: the oscillatory kernel by direct quadrature


def kernel_quadrature(j: int, t: float, env: float, x: np.ndarray,
                      reach: float = 6.0, step: float = 8.0e-4,
                      chunk: int = 64) -> np.ndarray:
    """|I(x)| for I(x) = int |xi|^(j-1/2) e^(i t (-1)^(j+1) xi^(2j+1) + i x xi - (xi/env)^2) dxi.

    The substitution ``xi = s |s|`` removes the ``|xi|^(j-1/2)`` kink at the
    origin; the trapezoid rule in ``s`` over ``|xi| <= reach * env`` (where
    the envelope is below ``exp(-reach^2)``) then converges fast.
    """
    smax = math.sqrt(reach * env)
    s = np.arange(-smax, smax + step / 2, step)
    xi = s * np.abs(s)
    axi = np.abs(xi)
    sign = 1.0 if (j + 1) % 2 == 0 else -1.0
    weight = (axi ** (j - 0.5) * 2.0 * np.abs(s) * np.exp(-(axi / env) ** 2)
              * np.exp(1j * sign * t * xi ** (2 * j + 1)) * step)
    out = np.empty(x.size)
    for i in range(0, x.size, chunk):
        xs = x[i:i + chunk, None]
        out[i:i + chunk] = np.abs(np.exp(1j * xs * xi[None, :]) @ weight)
    return out


def kernel_nodes(n: int, env: float) -> np.ndarray:
    """The decay suite's nodes: spacing pi / (3.2 env), periodic, origin at 0."""
    dx = math.pi / (3.2 * env)
    return dx * np.fft.fftfreq(n, d=1.0 / n)


def decay_sup(csv_path: str, cache: dict, probe=DECAY_PROBE,
              tol: float = KERNEL_SUP_TOL) -> list[str]:
    """The kernel sup in decay.csv for ``probe = (j, env, t)`` must match the
    quadrature on the same grid; ``cache`` keeps references by grid size."""
    j, env, t = probe
    match = [r for r in read_rows(csv_path) if int(r["j"]) == j
             and float(r["envelope"]) == env and float(r["t"]) == t]
    if len(match) != 1:
        return [f"decay.csv has {len(match)} rows for j={j} env={env} t={t}"]
    n = int(match[0]["grid_n"])
    if n not in cache:
        cache[n] = float(np.max(kernel_quadrature(j, t, env, kernel_nodes(n, env))))
    got, want = float(match[0]["sup"]), cache[n]
    if not abs(got - want) <= tol * want:
        return [f"sup j={j} env={env} t={t}: {got:.6g} vs quadrature {want:.6g} "
                f"(relative tolerance {tol})"]
    return []


# ---------------------------------------------------------------------------
# blowup: the focusing datum's manifest


def expected_manifest(pmax: int, qmax: int, delta: float) -> list[tuple]:
    """Rows (p1, q1, p2, q2, weight, t_singular, x_singular) of the datum.

    One term per pair of coprime pairs (p1/q1 location, p2/q2 time), with
    the normalized weight ``max(exp(-(p1^2 + p2^2)), delta)``.
    """
    pairs = [(p, q) for p in range(1, pmax + 1) for q in range(1, qmax + 1)
             if math.gcd(p, q) == 1]
    return [(p1, q1, p2, q2, max(math.exp(-(p1 * p1 + p2 * p2)), delta), p2 / q2, p1 / q1)
            for (p2, q2) in pairs for (p1, q1) in pairs]


def manifest(csv_path: str, pmax: int, qmax: int, delta: float) -> list[str]:
    rows = read_rows(csv_path)
    got = sorted((int(r["p1"]), int(r["q1"]), int(r["p2"]), int(r["q2"]),
                  float(r["weight"]), float(r["t_singular"]), float(r["x_singular"]))
                 for r in rows)
    want = sorted(expected_manifest(pmax, qmax, delta))
    if [g[:4] for g in got] != [w[:4] for w in want]:
        return [f"manifest terms {[g[:4] for g in got]} differ from the coprime-pair "
                f"construction {[w[:4] for w in want]}"]
    problems = []
    for g, w in zip(got, want):
        if not all(math.isclose(a, b, rel_tol=WEIGHT_RTOL) for a, b in zip(g[4:], w[4:])):
            problems.append(f"term {g[:4]}: weight/time/location {g[4:]} != {w[4:]}")
    return problems


# ---------------------------------------------------------------------------
# identities: exact reduction coefficients


def coefficient_rows(csv_path: str, j_max: int) -> list[str]:
    """Each row must solve its triangular binomial system exactly.

    Row ``m`` (``0 <= m < j``) reads ``sum_{l=m}^{j} c_l binom(2l+1, l-m) = 0``
    with ``c_j = 1`` and ``c_0 != 0``.
    """
    rows = read_rows(csv_path)
    problems = []
    if sorted(int(r["j"]) for r in rows) != list(range(1, j_max + 1)):
        problems.append(f"coefficient rows for j={[r['j'] for r in rows]}, "
                        f"want 1..{j_max}")
    for r in rows:
        j = int(r["j"])
        c = [Fraction(tok) for tok in r["coefficients"].split(";")]
        if len(c) != j + 1 or c[j] != 1 or c[0] == 0:
            problems.append(f"j={j}: coefficients {r['coefficients']} are not "
                            f"j+1 values with c_j = 1 and c_0 != 0")
            continue
        for m in range(j):
            total = sum(c[ell] * math.comb(2 * ell + 1, ell - m) for ell in range(m, j + 1))
            if total != 0:
                problems.append(f"j={j}: equation {m} sums to {total}, not 0")
    return problems


def suite_outputs(suite: str, outdir: str, config: dict, kernel_cache: dict) -> list[str]:
    """The file-based checks that apply to one suite's output directory."""
    problems = report_checks(os.path.join(outdir, "report.json"))
    if suite == "smoothing":
        problems += smoothing_tails(os.path.join(outdir, "smoothing.csv"),
                                    int(config["grid.n"]), float(config["suite.s"]))
    elif suite == "decay":
        problems += decay_sup(os.path.join(outdir, "decay.csv"), kernel_cache)
    elif suite == "blowup":
        if config["suite.scheme"] != "normalized":
            return problems + [f"manifest check covers the normalized scheme, "
                               f"not {config['suite.scheme']!r}"]
        problems += manifest(os.path.join(outdir, "manifest.csv"),
                             int(config["suite.pmax"]), int(config["suite.qmax"]),
                             float(config["suite.delta"]))
    elif suite == "identities":
        problems += coefficient_rows(os.path.join(outdir, "coefficients.csv"),
                                     int(config["suite.reduction_j_max"]))
    return problems
