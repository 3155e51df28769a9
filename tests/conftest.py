import types

import numpy as np
import pytest

from hkdvlab.experiments import _COMMUTATOR_L, SUITES, _commutator_grid, default_config, run
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
def geometry_boxes():
    """``(n, L)`` for every even ``n`` from 16 to 3000 and the 18 commutator
    grid sizes, up to 800,000, each at five box lengths: where grid geometry
    and Gaussians are checked bit for bit against their plain expressions."""
    sizes = [*range(16, 3001, 2),
             *(_commutator_grid(scale * L).n for L in _COMMUTATOR_L.values() for scale in (0.5, 1, 2))]
    return [(n, L) for n in sizes for L in (0.7, 2 * np.pi, 60.0, 333.3, 80000.0)]


@pytest.fixture(scope="session")
def suite_runs(tmp_path_factory):
    """One default run of every suite at seed 0, shared by the test modules:
    ``root`` is the output root and ``reports`` maps each suite to its report."""
    root = tmp_path_factory.mktemp("suites")
    reports = {name: run(default_config(name, output_dir=str(root))) for name in SUITES}
    return types.SimpleNamespace(root=root, reports=reports)
