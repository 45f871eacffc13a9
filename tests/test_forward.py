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
    observe_field,
    observe_spatial,
    observe_spatial_at,
    observe_spectrum,
    observe_spectrum_block,
    spectrum_to_image,
)
from roisolve.grid import RoiSpec, centered_roi, scatter_roi
from roisolve.optics import OtfSpec, PsfKernel, build_otf, build_psf, passband_mask
from roisolve.pipeline import noise_stream_seed
from roisolve.spatial import observation_index, ring_cells


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
    # only +inf means "no noise"
    with pytest.raises(ParameterError):
        NoiseSpec(-math.inf, seed=1)


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


def _noise_workload_draw_length():
    """Values of the row-major unit field up to the last cell that the noise
    workload's system reads: 3x3 centred on 768x768, image domain, ring 2."""
    cells = observation_index(centered_roi(768, 768, 3, 3), (768, 768), 2)
    return int(np.max(cells[:, 0] * 768 + cells[:, 1])) + 1


@pytest.mark.parametrize("seed", [77, noise_stream_seed(12345, 3, 0)])
@pytest.mark.parametrize("n", [1, 1000, "noise workload"])
def test_noise_draw_is_prefix_consistent(seed, n):
    # a draw that stops early may stand in for the full field only while the
    # generator's normal stream is sequential: a short draw is a prefix of it
    if n == "noise workload":
        n = _noise_workload_draw_length()
    _, unit = noise_field(np.ones((768, 768)), seed)
    prefix = np.random.default_rng(seed).standard_normal(n)
    assert prefix.tobytes() == unit.ravel()[:n].tobytes()


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
            us = (start_row + np.arange(k)) % rows
            vs = (start_col + np.arange(l)) % cols
            got = observe_spectrum_block(pixels, roi, spec, us, vs)
            inside = mask[np.ix_(us, vs)]
            assert 0 < inside.sum() < inside.size
            assert np.all(got[~inside] == 0)
            assert np.abs(got - full[np.ix_(us, vs)]).max() <= 1e-12 * scale


def test_image_spectrum_block_matches_full_transform(rng):
    image = rng.uniform(-5, 5, (16, 12))
    full = image_to_spectrum(image)
    # frequencies wrap modulo the field
    got = image_spectrum_block(image, np.arange(-2, 2), np.arange(5, 14))
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
    freqs = np.arange(2)
    with pytest.raises(BoundsError):
        observe_spectrum_block(np.ones(4), RoiSpec(47, 0, 2, 2), small_spec, freqs, freqs)
    with pytest.raises(ShapeError):
        image_spectrum_block(np.ones(8), freqs, freqs)


# The full-field blur runs as pruned 1-D transforms; it must keep every bit of
# the 2-D FFT expressions it replaced, signed zeros included (.tobytes()).
BLUR_FIELDS = [((768, 768), 6.0), ((300, 300), 6.0), ((97, 64), 5.0), ((16, 12), 4.0), ((48, 48), 10.0)]


def _blur_frames(rows, cols, rng):
    dark = scatter_roi(rng.uniform(1, 256, 9), RoiSpec(rows // 2 - 1, cols // 2 - 1, 3, 3), rows, cols)
    border = scatter_roi(rng.uniform(1, 256, 6), RoiSpec(0, cols - 2, 3, 2), rows, cols)
    border[rows - 1, 0] = 7.5  # light in the last row and first column too
    dense = rng.uniform(0, 256, (rows, cols))  # the scan case
    return {"dark": dark, "border": border, "dense": dense}


@pytest.mark.parametrize("shape, cutoff", BLUR_FIELDS)
def test_full_field_blur_is_bit_identical_to_the_fft2_oracle(shape, cutoff, rng):
    from roisolve.pipeline import roi_problem

    rows, cols = shape
    for gain in (1.0, 0.5, -2.5):
        spec = OtfSpec(rows, cols, cutoff, gain)
        psf = PsfKernel(grid=np.ones((1, 1)), spec=spec)
        otf = build_otf(spec)
        # noisy trials blur the clean frame with observe_field on the
        # system's transfer spec, in the transform domain too
        system = roi_problem("frequency", RoiSpec(0, 0, 1, 1), shape, spec, 0, False)
        assert system.spec == spec
        for name, frame in _blur_frames(rows, cols, rng).items():
            want = np.fft.ifft2(np.fft.fft2(frame) * otf).real
            got = observe_spatial(frame, psf)
            assert got.tobytes() == want.tobytes(), (shape, gain, name, "spatial")
            got = observe_field(frame, system.spec)
            assert got.tobytes() == want.tobytes(), (shape, gain, name, "frequency")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_observe_spatial_refuses_non_finite_frames(small_psf, bad):
    frame = np.zeros((48, 48))
    frame[20, 20] = 1.0
    frame[3, 40] = bad
    with pytest.raises(ParameterError, match="NaN or Inf"):
        observe_spatial(frame, small_psf)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_add_noise_refuses_non_finite_images(bad, rng):
    obs = rng.uniform(0, 10, (20, 20))
    obs[5, 5] = bad
    for psnr in (40.0, math.inf):
        with pytest.raises(ParameterError, match="NaN or Inf"):
            add_noise(obs, NoiseSpec(psnr, seed=3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_noise_field_refuses_non_finite_images(bad, rng):
    obs = rng.uniform(0, 10, (20, 20))
    obs[0, 19] = bad
    with pytest.raises(ParameterError, match="NaN or Inf"):
        noise_field(obs, seed=3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_measure_psnr_db_refuses_non_finite_images(bad, rng):
    clean = rng.uniform(0, 10, (20, 20))
    spoiled = clean.copy()
    spoiled[7, 7] = bad
    for a, b in ((spoiled, clean + 0.01), (clean, spoiled)):
        with pytest.raises(ParameterError, match="NaN or Inf"):
            measure_psnr_db(a, b)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_extra_light_ratio_refuses_non_finite_samples(small_psf, bad, rng):
    roi = RoiSpec(22, 22, 3, 3)
    sample = scatter_roi(rng.uniform(1, 256, 9), roi, 48, 48)
    sample[2, 2] = bad
    with pytest.raises(ParameterError, match="NaN or Inf"):
        extra_light_ratio(sample, roi, small_psf)
