import numpy as np
import pytest

import hkdvlab.fields as fields
from hkdvlab.spectral import make_grid


@pytest.mark.parametrize("build", [
    lambda g, rng: fields.band_noise_by_index(g, rng, q_lo=3, q_hi=200, xi_decay=2.0,
                                              envelope=(-5.0, 4.0)),
    lambda g, rng: fields.rough_spectrum_field(g, rng, s=2.0, envelope=(-5.0, 4.0)),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_enveloped_datum_has_zero_mean_and_no_seam(build, seed):
    # the mean goes with the envelope, so nothing is left at the box edges,
    # where a constant offset would jump across the periodic seam
    g = make_grid(2048, 320.0)
    f = build(g, np.random.default_rng(seed))
    peak = f.linf()
    assert abs(np.mean(f.samples)) < 1e-15 * peak
    assert f.boundary_amplitude() < 1e-12 * peak
