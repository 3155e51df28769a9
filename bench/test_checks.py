"""Fast tests of the benchmark's own checks; they run no workload.

    python3 -m pytest -q bench/test_checks.py

Each check must accept the program's unperturbed output and reject a
slightly perturbed copy of it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from hkdvlab.blowup import BlowupDatumSpec, build_blowup_datum  # noqa: E402
from hkdvlab.identities import dispersive_decay_probe, solve_coefficients  # noqa: E402
from hkdvlab.propagators import DispersionParams  # noqa: E402
from hkdvlab.spectral import make_grid  # noqa: E402


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(path)


@pytest.fixture(scope="module")
def decay_rows():
    j, env, t = checks.DECAY_PROBE
    fit = dispersive_decay_probe(j, t_list=(t, 2 * t), envelopes=(env,))
    return [(j, env, tt, sup, n)
            for tt, sup, n in zip(fit.t_list, fit.sups[env], fit.grid_sizes[env])]


@pytest.fixture(scope="module")
def kernel_cache():
    return {}


@pytest.mark.parametrize("factor", [1.0, 1.01, 0.99])
def test_kernel_sup(tmp_path, decay_rows, kernel_cache, factor):
    rows = [(j, env, t, sup * factor, n) for j, env, t, sup, n in decay_rows]
    path = write_csv(tmp_path / "decay.csv", ["j", "envelope", "t", "sup", "grid_n"], rows)
    problems = checks.decay_sup(path, kernel_cache)
    assert (problems == []) == (factor == 1.0), problems


def test_kernel_quadrature_converged():
    """The reference is converged far below the check's tolerance."""
    j, env, t = checks.DECAY_PROBE
    x = checks.kernel_nodes(2800, env)[::7]
    coarse = checks.kernel_quadrature(j, t, env, x)
    fine = checks.kernel_quadrature(j, t, env, x, reach=7.0, step=4.0e-4)
    assert np.max(np.abs(coarse - fine)) < 1e-3 * checks.KERNEL_SUP_TOL * np.max(fine)


def conserving_slices():
    x = np.linspace(-20.0, 20.0, 256, endpoint=False)
    u0 = np.exp(-x ** 2) * np.cos(3 * x) + 0.1
    return [np.roll(u0, shift) for shift in (0, 5, 17, 40)], x[1] - x[0]


def test_conserving_trajectory_passes():
    slices, dx = conserving_slices()
    problems, worst = checks.conservation(slices, dx)
    assert problems == [] and worst < 1e-14


def test_l2_drift_rejected():
    slices, dx = conserving_slices()
    slices[-1] = slices[-1] * (1.0 + 1e-6)
    problems, _ = checks.conservation(slices, dx)
    assert any("L2 mass" in p for p in problems), problems


def test_zero_datum_rejected():
    slices, dx = conserving_slices()
    assert checks.conservation([0.0 * s for s in slices], dx)[0] != []


def test_mean_drift_rejected():
    slices, dx = conserving_slices()
    u0 = slices[0]
    L = dx * u0.size
    mass = math.sqrt(dx * float(np.dot(u0, u0)))
    # shifts the integral by 1e-6 of its largest possible size sqrt(L) * mass
    slices[2] = slices[2] + 1e-6 * math.sqrt(L) * mass / L
    problems, _ = checks.conservation(slices, dx)
    assert any("mean drift" in p for p in problems), problems


def manifest_rows():
    spec = BlowupDatumSpec(qmax=2, pmax=2, scheme="normalized", delta=0.15)
    _, terms = build_blowup_datum(spec, DispersionParams(2), make_grid(1024, 320.0))
    return [(t.p1, t.q1, t.p2, t.q2, repr(t.weight), repr(t.singular_time),
             repr(t.singular_location)) for t in terms]


MANIFEST_HEADER = ["p1", "q1", "p2", "q2", "weight", "t_singular", "x_singular"]


def test_manifest_passes(tmp_path):
    path = write_csv(tmp_path / "manifest.csv", MANIFEST_HEADER, manifest_rows())
    assert checks.manifest(path, 2, 2, 0.15) == []


def test_manifest_missing_term_rejected(tmp_path):
    rows = manifest_rows()
    path = write_csv(tmp_path / "manifest.csv", MANIFEST_HEADER, rows[:3] + rows[4:])
    assert checks.manifest(path, 2, 2, 0.15) != []


def test_manifest_wrong_weight_rejected(tmp_path):
    rows = manifest_rows()
    rows[0] = rows[0][:4] + (repr(float(rows[0][4]) * (1 + 1e-9)),) + rows[0][5:]
    path = write_csv(tmp_path / "manifest.csv", MANIFEST_HEADER, rows)
    assert checks.manifest(path, 2, 2, 0.15) != []


def coefficient_rows():
    return [(j, ";".join(str(c) for c in solve_coefficients(j).c)) for j in range(1, 6)]


def test_coefficients_pass(tmp_path):
    path = write_csv(tmp_path / "coefficients.csv", ["j", "coefficients"], coefficient_rows())
    assert checks.coefficient_rows(path, 5) == []


def test_coefficient_row_breaking_its_equation_rejected(tmp_path):
    rows = coefficient_rows()
    j, text = rows[2]
    c = text.split(";")
    c[1] = str(int(c[1]) + 1)
    rows[2] = (j, ";".join(c))
    path = write_csv(tmp_path / "coefficients.csv", ["j", "coefficients"], rows)
    problems = checks.coefficient_rows(path, 5)
    assert any("equation" in p for p in problems), problems


@pytest.mark.parametrize("offset", [0.0, 0.05])
def test_smoothing_tail(tmp_path, offset):
    rows = [(1, k, L, 0, checks.profile_tail_exponent(4096, L, k, 2.0) + offset)
            for k, L in ((1, 160.0), (2, 320.0))]
    path = write_csv(tmp_path / "smoothing.csv", ["j", "k", "L", "seed", "tail_linear"], rows)
    assert (checks.smoothing_tails(path, 4096, 2.0) == []) == (offset == 0.0)


def test_failed_report_check_rejected(tmp_path):
    report = {"pass": False, "checks": [
        {"name": "a", "measured": 1.0, "threshold": "< 2", "passed": True},
        {"name": "b", "measured": 3.0, "threshold": "< 2", "passed": False}]}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert [p.split()[0] for p in checks.report_checks(str(path))] == ["b"]
