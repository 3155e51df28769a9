import types

import numpy as np
import pytest

from hkdvlab.experiments import SUITES, default_config, run
from hkdvlab.spectral import make_grid


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid():
    return make_grid(256, 40.0)


@pytest.fixture
def fine_grid():
    return make_grid(1024, 60.0)


@pytest.fixture(scope="session")
def suite_runs(tmp_path_factory):
    """One default run of every suite at seed 0, shared by the test modules:
    ``root`` is the output root and ``reports`` maps each suite to its report."""
    root = tmp_path_factory.mktemp("suites")
    reports = {name: run(default_config(name, output_dir=str(root))) for name in SUITES}
    return types.SimpleNamespace(root=root, reports=reports)
