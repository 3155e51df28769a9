import numpy as np
import pytest

import hkdvlab.fields as fields
import reference
from hkdvlab.norms import CutoffFunction
from hkdvlab.spectral import make_grid


def test_gaussian_is_the_plain_expression_bit_for_bit(geometry_boxes):
    # computed in place on one array, with the plain expression's bits
    for n, L in geometry_boxes:
        g = make_grid(n, L)
        x = reference.grid_nodes(n, L)
        for center, width, amplitude in ((0.0, 1.0, 1.0), (0.37, 1.3, -2.5), (-3.1, 0.4, 0.7)):
            got = fields.gaussian(g, center, width, amplitude).samples
            assert got.tobytes() == reference.gaussian(x, center, width, amplitude).tobytes(), \
                (n, L, center, width, amplitude)


@pytest.mark.parametrize("seed", [0, 1])
def test_enveloped_datum_has_zero_mean_and_no_seam(seed):
    # the mean goes with the envelope, so nothing is left at the box edges,
    # where a constant offset would jump across the periodic seam
    g = make_grid(2048, 320.0)
    f = fields.band_noise_by_index(g, np.random.default_rng(seed), q_lo=3, q_hi=200,
                                   xi_decay=2.0, envelope=(-5.0, 4.0))
    peak = f.linf()
    assert abs(np.mean(f.samples)) < 1e-15 * peak
    assert f.boundary_amplitude() < 1e-12 * peak


def test_random_band_limited_support_and_peak(rng):
    g = make_grid(256, 40.0)
    f = fields.random_band_limited(g, rng, band=30)
    assert f.linf() == pytest.approx(1.0, rel=1e-15)
    mags = np.abs(reference.forward(f))
    q = np.abs(g.freq_index)
    assert np.max(mags[(q < 1) | (q > 30)]) < 1e-13 * mags.max()
    with pytest.raises(ValueError, match="band"):
        fields.random_band_limited(g, rng, band=g.n // 2)


def test_band_noise_is_resolution_independent():
    # same box and seed: the finer grid resamples the same function, up to
    # the peak normalization, and the spectrum sits on q_lo <= |q| <= q_hi
    coarse, fine = (fields.band_noise_by_index(make_grid(n, 40.0), np.random.default_rng(5),
                                               q_lo=3, q_hi=60, xi_decay=1.0)
                    for n in (256, 512))
    a, b = coarse.samples, fine.samples[::2]
    assert np.allclose(a / np.linalg.norm(a), b / np.linalg.norm(b), rtol=0.0, atol=1e-13)
    mags = np.abs(reference.forward(coarse))
    q = np.abs(coarse.grid.freq_index)
    assert np.max(mags[(q < 3) | (q > 60)]) < 1e-13 * mags.max()


def test_reflect_mirrors_about_the_origin():
    g = make_grid(256, 40.0)
    f = fields.gaussian(g, center=3.0)
    r = fields.reflect(f)
    assert np.allclose(r.samples, fields.gaussian(g, center=-3.0).samples,
                       rtol=0.0, atol=1e-14)
    assert np.array_equal(fields.reflect(r).samples, f.samples)


def test_glued_datum_switches_over_the_ramp(rng):
    g = make_grid(256, 40.0)
    rough = fields.random_band_limited(g, rng, band=80)
    smooth = fields.gaussian(g, width=3.0)
    u = fields.glued_datum(g, rough, smooth, CutoffFunction(eps=1.0, b=6.0))
    left, right = g.nodes <= 1.0, g.nodes >= 6.0
    assert np.array_equal(u.samples[left], rough.samples[left])
    assert np.array_equal(u.samples[right], smooth.samples[right])


def test_weighted_acts_pointwise(rng):
    g = make_grid(64, 10.0)
    f = fields.random_band_limited(g, rng, band=10)
    w = np.linspace(0.0, 2.0, g.n)
    assert np.array_equal(fields.weighted(f, w).samples, w * f.samples)
