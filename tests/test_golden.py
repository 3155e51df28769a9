"""Every suite's seed-0 outputs against the committed golden copies.

``tests/golden/<suite>/`` holds each suite's CSVs and propagation's
``window_summary.json`` from a default run at seed 0.  The outputs of the
``suite_runs`` fixture must match them byte for byte, so a change that moves
a number shows here; one that moves a number on purpose replaces the file
and records the old and new values in CHANGES.md.

The bytes depend on numpy's SIMD loops: the golden files come from numpy 2.4
on an x86_64 machine with AVX-512.  On other hardware a mismatch whose
largest relative difference is a few ulps is not a regression.
"""

from __future__ import annotations

import csv
import json
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"
FILES = sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*") if p.is_file())


def _columns(path: pathlib.Path) -> dict[str, list[str]]:
    """A CSV's columns, or a JSON file's leaves keyed by their paths."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {name: [r[name] for r in rows] for name in (rows[0] if rows else {})}
    leaves: dict[str, list[str]] = {}

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}/{k}")
        else:
            leaves[key] = [str(node)]

    walk(json.loads(path.read_text()), "")
    return leaves


def _differences(got: pathlib.Path, want: pathlib.Path) -> list[str]:
    """Each differing column with its largest relative difference."""
    a, b = _columns(got), _columns(want)
    if a.keys() != b.keys():
        return [f"columns {sorted(a)} != {sorted(b)}"]
    out = []
    for name in b:
        if len(a[name]) != len(b[name]):
            out.append(f"{name}: {len(a[name])} rows, want {len(b[name])}")
            continue
        pairs = [(x, y) for x, y in zip(a[name], b[name]) if x != y]
        if not pairs:
            continue
        try:
            rel = max(abs(float(x) - float(y)) / max(abs(float(y)), 1e-300) for x, y in pairs)
            out.append(f"{name}: {len(pairs)} values differ, largest relative difference "
                       f"{rel:.3g}")
        except ValueError:
            out.append(f"{name}: {len(pairs)} values differ, e.g. {pairs[0][0]!r} != "
                       f"{pairs[0][1]!r}")
    return out or ["same values, different bytes"]


def test_every_output_has_a_golden_copy(suite_runs):
    made = sorted(p.relative_to(suite_runs.root).as_posix()
                  for p in suite_runs.root.rglob("*")
                  if p.suffix == ".csv" or p.name == "window_summary.json")
    assert made == FILES


@pytest.mark.parametrize("name", FILES)
def test_output_matches_its_golden_copy(suite_runs, name):
    got, want = suite_runs.root / name, GOLDEN / name
    if got.read_bytes() != want.read_bytes():
        pytest.fail(f"{name} differs from tests/golden/{name}: "
                    + "; ".join(_differences(got, want)))
