import math

import numpy as np
import pytest

from roisolve.errors import BoundsError, DegenerateInputError, ParameterError, ShapeError
from roisolve.forward import (
    NoiseSpec,
    add_noise,
    extra_light_ratio,
    image_spectrum_block,
    image_to_spectrum,
    measure_psnr_db,
    noise_field,
    observe_spatial,
    observe_spatial_at,
    observe_spectrum,
    observe_spectrum_block,
    spectrum_to_image,
)
from roisolve.grid import RoiSpec, scatter_roi
from roisolve.optics import OtfSpec, PsfKernel, build_otf, build_psf, passband_mask
from roisolve.spatial import ring_cells


def naive_norm_spectrum(image):
    """O(N^4) transform oracle with the 1/(M*N) normalization."""
    rows, cols = image.shape
    out = np.zeros((rows, cols), dtype=complex)
    for u in range(rows):
        for v in range(cols):
            acc = 0.0j
            for m in range(rows):
                for n in range(cols):
                    acc += image[m, n] * np.exp(-2j * np.pi * (m * u / rows + n * v / cols))
            out[u, v] = acc / (rows * cols)
    return out


def test_observe_spectrum_matches_naive_dft(rng):
    rows, cols = 9, 11
    spec = OtfSpec(rows, cols, 3.5)
    otf = build_otf(spec)
    image = rng.uniform(0, 256, (rows, cols))
    got = observe_spectrum(image, otf)
    want = naive_norm_spectrum(image) * otf
    assert np.abs(got - want).max() < 1e-10


def test_observe_spatial_matches_naive_circular_convolution(rng):
    rows = cols = 10
    spec = OtfSpec(rows, cols, 3.0)
    psf = build_psf(spec, 9)
    kernel = np.fft.ifft2(build_otf(spec)).real  # full wrapped kernel
    image = rng.uniform(0, 256, (rows, cols))
    want = np.zeros_like(image)
    for m in range(rows):
        for n in range(cols):
            acc = 0.0
            for k in range(rows):
                for l in range(cols):
                    acc += image[k, l] * kernel[(m - k) % rows, (n - l) % cols]
            want[m, n] = acc
    got = observe_spatial(image, psf)
    assert np.abs(got - want).max() < 1e-9


def test_spatial_and_spectral_paths_agree(small_psf, small_spec, rng):
    # same forward model through both routes, arbitrary (non-isolated) image
    image = rng.uniform(0, 256, small_spec.shape)
    via_image = observe_spatial(image, small_psf)
    via_spectrum = spectrum_to_image(observe_spectrum(image, build_otf(small_spec)))
    scale = np.abs(via_image).max()
    assert np.abs(via_image - via_spectrum).max() <= 1e-10 * max(scale, 1.0)


def test_spectrum_image_round_trip(rng):
    image = rng.uniform(-5, 5, (16, 12))
    back = spectrum_to_image(image_to_spectrum(image))
    np.testing.assert_allclose(back, image, atol=1e-12)


def test_observe_requires_matching_field(small_psf):
    with pytest.raises(ShapeError):
        observe_spatial(np.zeros((8, 8)), small_psf)
    with pytest.raises(ShapeError):
        observe_spectrum(np.zeros((8, 8)), np.zeros((9, 9), dtype=complex))


def test_observe_rejects_specless_kernel(small_psf):
    bare = PsfKernel(grid=small_psf.grid, spec=None)
    with pytest.raises(ParameterError):
        observe_spatial(np.zeros((48, 48)), bare)


def test_noise_spec_sigma_formula():
    spec = NoiseSpec(psnr_db=40.0, seed=1)
    assert spec.sigma(100.0) == pytest.approx(1.0)
    assert NoiseSpec(math.inf, seed=1).sigma(100.0) == 0.0
    with pytest.raises(ParameterError):
        NoiseSpec(math.nan, seed=1)
    with pytest.raises(ParameterError):
        NoiseSpec(40.0, seed=1, kind="poisson")


def test_add_noise_hits_target_psnr(small_psf, rng):
    roi = RoiSpec(20, 20, 3, 3)
    obs = observe_spatial(scatter_roi(rng.uniform(0, 256, 9), roi, 48, 48), small_psf)
    noisy = add_noise(obs, NoiseSpec(psnr_db=60.0, seed=99))
    assert measure_psnr_db(obs, noisy) == pytest.approx(60.0, abs=0.5)


def test_add_noise_deterministic_and_inf_passthrough(rng):
    obs = rng.uniform(0, 10, (20, 20))
    a = add_noise(obs, NoiseSpec(50.0, seed=7))
    b = add_noise(obs, NoiseSpec(50.0, seed=7))
    np.testing.assert_array_equal(a, b)
    c = add_noise(obs, NoiseSpec(50.0, seed=8))
    assert np.abs(a - c).max() > 0
    np.testing.assert_array_equal(add_noise(obs, NoiseSpec(math.inf, seed=7)), obs)


def test_add_noise_needs_positive_peak():
    with pytest.raises(DegenerateInputError):
        add_noise(np.zeros((4, 4)), NoiseSpec(40.0, seed=0))


def test_extra_light_ratio(small_psf, rng):
    roi = RoiSpec(22, 22, 3, 3)
    pixels = rng.uniform(1, 256, 9)
    isolated = scatter_roi(pixels, roi, 48, 48)
    assert extra_light_ratio(isolated, roi, small_psf) == pytest.approx(1.0, abs=1e-12)
    lit = isolated + 5.0  # uniform background everywhere
    assert extra_light_ratio(lit, roi, small_psf) > 1.0
    with pytest.raises(DegenerateInputError):
        extra_light_ratio(np.zeros((48, 48)), roi, small_psf)


def test_extra_light_ratio_rejects_specless_kernel(small_psf):
    bare = PsfKernel(grid=small_psf.grid, spec=None)
    with pytest.raises(ParameterError):
        extra_light_ratio(np.zeros((48, 48)), RoiSpec(22, 22, 3, 3), bare)


def test_add_noise_is_clean_plus_scaled_unit_field(rng):
    obs = rng.uniform(0, 10, (20, 20))
    peak, unit = noise_field(obs, seed=7)
    assert peak == float(obs.max())
    for psnr in (40.0, 120.0, 300.0):
        noise = NoiseSpec(psnr, seed=7)
        np.testing.assert_array_equal(add_noise(obs, noise), obs + noise.sigma(peak) * unit)
    with pytest.raises(DegenerateInputError):
        noise_field(np.zeros((4, 4)), seed=7)


# Sparse evaluators against the full-FFT oracle: the paper's 768x768 field at
# cutoff 6 and the small test field, tolerance 1e-12 of the oracle's peak.
SPARSE_FIELDS = [((48, 48), 10.0, 47), ((768, 768), 6.0, 501)]


def _roi_placements(rows, cols):
    # centred, and in the corners where the observation ring is clipped
    return [
        RoiSpec(rows // 2 - 1, cols // 2 - 1, 3, 3),
        RoiSpec(0, cols - 3, 3, 3),
        RoiSpec(rows - 4, 1, 4, 2),
    ]


@pytest.mark.parametrize("shape, cutoff, crop", SPARSE_FIELDS)
def test_observe_spatial_at_matches_full_field(shape, cutoff, crop, rng):
    spec = OtfSpec(*shape, cutoff)
    psf = build_psf(spec, crop)
    for roi in _roi_placements(*shape):
        pixels = rng.uniform(0, 256, roi.pixel_count)
        full = observe_spatial(scatter_roi(pixels, roi, *shape), psf)
        cells = np.vstack([roi.cells(), ring_cells(roi, *shape, width=2)])
        got = observe_spatial_at(pixels, roi, spec, cells)
        want = full[cells[:, 0], cells[:, 1]]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(full).max()


@pytest.mark.parametrize("shape, cutoff, crop", SPARSE_FIELDS)
def test_observe_spectrum_block_matches_full_field(shape, cutoff, crop, rng):
    rows, cols = shape
    spec = OtfSpec(rows, cols, cutoff)
    mask = passband_mask(spec)
    r = int(cutoff)
    # blocks straddling the cutoff, one wrapping past the zero frequency
    blocks = [(0, 0, r + 2, 3), (r - 2, -3, 5, 6), (-2, cols - 4, r + 3, 7)]
    for roi in _roi_placements(rows, cols):
        pixels = rng.uniform(0, 256, roi.pixel_count)
        full = observe_spectrum(scatter_roi(pixels, roi, rows, cols), build_otf(spec))
        scale = np.abs(full).max()
        for start_row, start_col, k, l in blocks:
            got = observe_spectrum_block(pixels, roi, spec, start_row, start_col, k, l)
            us = (start_row + np.arange(k)) % rows
            vs = (start_col + np.arange(l)) % cols
            inside = mask[np.ix_(us, vs)]
            assert 0 < inside.sum() < inside.size
            assert np.all(got[~inside] == 0)
            assert np.abs(got - full[np.ix_(us, vs)]).max() <= 1e-12 * scale


def test_image_spectrum_block_matches_full_transform(rng):
    image = rng.uniform(-5, 5, (16, 12))
    full = image_to_spectrum(image)
    got = image_spectrum_block(image, -2, 5, 4, 9)
    want = full[np.ix_(np.arange(-2, 2) % 16, np.arange(5, 14) % 12)]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(full).max()


def test_sparse_evaluators_validate_inputs(small_spec):
    roi = RoiSpec(20, 20, 2, 2)
    with pytest.raises(ShapeError):
        observe_spatial_at(np.ones(3), roi, small_spec, roi.cells())
    with pytest.raises(ShapeError):
        observe_spatial_at(np.ones(4), roi, small_spec, np.array([[0, 48]]))
    with pytest.raises(ShapeError):
        observe_spatial_at(np.ones(4), roi, small_spec, np.ones(4))
    with pytest.raises(BoundsError):
        observe_spectrum_block(np.ones(4), RoiSpec(47, 0, 2, 2), small_spec, 0, 0, 2, 2)
    with pytest.raises(ParameterError):
        observe_spectrum_block(np.ones(4), roi, small_spec, 0, 0, 0, 2)
    with pytest.raises(ShapeError):
        image_spectrum_block(np.ones(8), 0, 0, 2, 2)
