import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roisolve import forward, frequency, spatial
from roisolve.errors import BoundsError, DegenerateInputError, ParameterError, ShapeError
from roisolve.forward import (
    NoiseSpec,
    add_noise,
    image_spectrum_block,
    image_to_spectrum,
    noise_field,
    observe_field,
    observe_field_at,
    observe_spatial,
    observe_spectrum,
    separable_blur,
    spectrum_to_image,
    unit_noise,
    unit_spectrum_noise,
)
from roisolve.grid import RoiSpec, centered_roi, field_cells, scatter_roi
from roisolve.linear import LinearSystem
from roisolve.optics import (
    OtfSpec,
    PsfKernel,
    build_otf,
    build_psf,
    in_passband,
    passband_box,
    passband_mask,
)
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
    for frame in (np.zeros((48, 47)), np.zeros(48 * 48), np.zeros((1, 48, 48))):
        with pytest.raises(ShapeError):
            separable_blur(frame, small_psf.spec)
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
    realized = 20.0 * math.log10(obs.max() / np.std(noisy - obs))
    assert realized == pytest.approx(60.0, abs=0.5)


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


def test_add_noise_is_clean_plus_scaled_unit_field(rng):
    obs = rng.uniform(0, 10, (20, 20))
    peak, unit = noise_field(obs, seed=7)
    assert peak == float(obs.max())
    for psnr in (40.0, 120.0, 300.0):
        noise = NoiseSpec(psnr, seed=7)
        np.testing.assert_array_equal(add_noise(obs, noise), obs + noise.sigma(peak) * unit)
    # the field is drawn whatever the peak; sigma refuses to scale it
    peak, _ = noise_field(np.zeros((4, 4)), seed=7)
    assert peak == 0.0
    with pytest.raises(DegenerateInputError, match="no positive peak"):
        NoiseSpec(40.0, seed=7).sigma(peak)


def _noise_workload_draw_length():
    """Values of the row-major unit field up to the last cell that the noise
    workload's system reads: 3x3 centred on 768x768, image domain, ring 2."""
    cells = observation_index(centered_roi(768, 768, 3, 3), (768, 768), 2)
    return int(np.max(cells[:, 0] * 768 + cells[:, 1])) + 1


@pytest.mark.parametrize("seed", [77, noise_stream_seed(12345, 3, 0)])
@pytest.mark.parametrize("n", [1, 1000, "noise workload"])
def test_noise_draw_is_prefix_consistent(seed, n):
    # unit_noise's n draws are the first n values of noise_field's field only
    # while the generator's normal stream is sequential: a short draw is a
    # prefix of it
    if n == "noise workload":
        n = _noise_workload_draw_length()
    _, unit = noise_field(np.ones((768, 768)), seed)
    prefix = np.random.default_rng(seed).standard_normal(n)
    assert prefix.tobytes() == unit.ravel()[:n].tobytes()


@pytest.mark.parametrize("seed", [77, noise_stream_seed(12345, 3, 0)])
def test_unit_noise_read_at_cells_is_the_noise_field_there(seed):
    # a draw through the last cell, read at the cells, is the field there
    shape = (97, 130)
    _, unit = noise_field(np.ones(shape), seed)
    cells = observation_index(RoiSpec(40, 127, 3, 3), shape, 2)
    flat = cells[:, 0] * shape[1] + cells[:, 1]
    got = unit_noise(seed, int(flat.max()) + 1)[flat]
    assert got.tobytes() == unit[cells[:, 0], cells[:, 1]].tobytes()


@pytest.mark.parametrize("peak", [0.0, -1.0, math.nan])
def test_noise_sigma_needs_a_positive_peak(peak):
    # the draws take no peak; the peak is checked where it scales them, at
    # every finite level, and not read at +inf
    for psnr in (0.0, -20.0, 40.0, 400.0):
        with pytest.raises(DegenerateInputError, match="no positive peak"):
            NoiseSpec(psnr, seed=7).sigma(peak)
    assert NoiseSpec(math.inf, seed=7).sigma(peak) == 0.0


def test_unit_spectrum_noise_draws_one_value_per_conjugate_class():
    # on 8x8, (0,0), (4,0), (0,4) and (4,4) are their own conjugates, and
    # (1,2) and (7,6) are one class; classes draw a pair of normals each in
    # the order of their smaller row-major index: 0, 4, 10, 32, 36
    entries = np.array([[0, 0], [4, 0], [1, 2], [0, 4], [7, 6], [4, 4]])
    got = unit_spectrum_noise(11, entries, (8, 8))
    assert (got[[0, 1, 3, 5]].imag == 0).all()
    assert got[4].tobytes() == np.conj(got[2]).tobytes()
    z = np.random.default_rng(11).standard_normal((5, 2))
    pair = complex(z[2, 0], z[2, 1]) / math.sqrt(2 * 64)
    want = [z[0, 0] / 8, z[3, 0] / 8, pair, z[1, 0] / 8, pair.conjugate(), z[4, 0] / 8]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    assert unit_spectrum_noise(12, entries, (8, 8)).tobytes() != got.tobytes()


@pytest.mark.parametrize("shape", [(48, 48), (47, 50)])
def test_unit_spectrum_noise_follows_the_white_field_law(shape):
    # over 2,000 fixed seeds, the direct draw and the partial DFT of full
    # standard_normal frames both show the law within 5 standard errors:
    # per-component std 1/sqrt(2RC), or 1/sqrt(RC) and no imaginary part
    # for a self-conjugate entry, with uncorrelated real and imaginary parts
    # and distinct classes; the partner of an entry is its conjugate
    rows, cols = shape
    n = 2000
    entries = np.array([[0, 0], [0, cols // 2], [rows // 2, cols // 2], [1, 2],
                        [rows - 1, cols - 2], [3, 0], [5, 7]])
    own = (2 * entries[:, 0] % rows == 0) & (2 * entries[:, 1] % cols == 0)
    assert own.sum() == (3 if rows % 2 == 0 else 2)
    direct = np.array([unit_spectrum_noise(seed, entries, shape) for seed in range(n)])
    frames = []
    for seed in range(n):
        block = image_spectrum_block(np.random.default_rng(n + seed).standard_normal(shape),
                                     entries[:, 0], entries[:, 1])
        frames.append(block[np.arange(len(entries)), np.arange(len(entries))])
    frames = np.array(frames)
    sigma = np.where(own, 1.0, math.sqrt(0.5)) / math.sqrt(rows * cols)
    for draws in (direct, frames):
        re, im = draws.real, draws.imag
        assert np.abs(re.mean(axis=0)).max() <= 5 * sigma.max() / math.sqrt(n)
        assert np.all(np.abs(re.std(axis=0) - sigma) <= 5 * sigma / math.sqrt(2 * n))
        assert np.abs(im[:, own]).max() <= 1e-12 * sigma.max()
        assert np.all(np.abs(im[:, ~own].std(axis=0) - sigma[~own])
                      <= 5 * sigma[~own] / math.sqrt(2 * n))
        assert np.all(np.abs((re * im)[:, ~own].mean(axis=0)) <= 5 * sigma[~own] ** 2 / math.sqrt(n))
        np.testing.assert_allclose(draws[:, 4], np.conj(draws[:, 3]), rtol=0, atol=1e-12)
        # distinct classes: (1, 2) against (3, 0) and (5, 7)
        for other in (5, 6):
            assert abs((re[:, 3] * re[:, other]).mean()) <= 5 * sigma[3] * sigma[other] / math.sqrt(n)
    # the two routes agree with each other, component by component
    gap = np.abs(direct.real.std(axis=0) - frames.real.std(axis=0))
    assert np.all(gap <= 5 * sigma / math.sqrt(n))


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(5, 41),
    cols=st.integers(5, 41),
    cutoff_share=st.floats(0.0, 1.0),
    gain=st.sampled_from([1.0, 0.5, -2.5]),
    k_rows=st.integers(1, 4),
    l_cols=st.integers(1, 4),
    corner=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    pixels=st.sampled_from(["positive", "signed", "negative", "dark"]),
    seed=st.integers(0, 2**16),
)
def test_observe_field_at_is_the_full_blur_at_its_peak_and_cells(
    rows, cols, cutoff_share, gain, k_rows, l_cols, corner, pixels, seed
):
    # odd and non-square fields, cutoffs from 0.5 to just below Nyquist, ROIs
    # anywhere up to the border, and frames whose blurred peak is negative or
    # zero (every column is then computed); the peak is all it returns
    k_rows, l_cols = min(k_rows, rows), min(l_cols, cols)
    limit = min(rows, cols) / 2.0
    cutoff = 0.5 + cutoff_share * (limit - 0.5 - 1e-9)
    spec = OtfSpec(rows, cols, cutoff, gain)
    roi = RoiSpec(round(corner[0] * (rows - k_rows)), round(corner[1] * (cols - l_cols)),
                  k_rows, l_cols)
    low, high = {"positive": (0, 256), "signed": (-256, 256), "negative": (-256, -1),
                 "dark": (0, 0)}[pixels]
    values = np.random.default_rng(seed).uniform(low, high, roi.pixel_count)
    peak = observe_field_at(values, roi, spec)
    want = observe_field(scatter_roi(values, roi, rows, cols), spec).max()
    assert np.float64(peak).tobytes() == want.tobytes()


def test_observe_field_at_transforms_a_few_columns_at_the_papers_setup(monkeypatch, rng):
    spec = OtfSpec(768, 768, 6.0)
    roi = centered_roi(768, 768, 3, 3)
    pixels = rng.uniform(0, 256, 9)
    want = observe_field(scatter_roi(pixels, roi, 768, 768), spec).max()
    inverted = []
    inverse_columns = forward._inverse_columns

    def counting(band, band_rows, rows, columns):
        out = inverse_columns(band, band_rows, rows, columns)
        inverted.append(out.shape[0])
        return out

    monkeypatch.setattr(forward, "_inverse_columns", counting)
    assert observe_field_at(pixels, roi, spec) == want
    # the column of largest bound and the few the bounds cannot rule out
    assert 1 <= sum(inverted) <= 16


def test_observe_field_at_refuses_pixels_that_do_not_fill_their_roi(small_spec):
    with pytest.raises(ShapeError, match="does not match ROI pixel count"):
        observe_field_at(np.ones(8), RoiSpec(20, 20, 3, 3), small_spec)
    with pytest.raises(BoundsError, match="does not fit"):
        observe_field_at(np.ones(9), RoiSpec(46, 20, 3, 3), small_spec)


# Sparse evaluators against the full-FFT oracle: the paper's 768x768 field at
# cutoff 6 and the small test field, tolerance 1e-12 of the oracle's peak.
# Each domain's NoiselessRows reads a system's rows. The image-domain systems
# here carry no matrix, since that reader reads only the ROI, the index and
# the spec; the transform-domain ones are built, since theirs reads the
# system's factors.
SPARSE_FIELDS = [((48, 48), 10.0, 47), ((768, 768), 6.0, 501)]


def _roi_placements(rows, cols):
    # centred, and in the corners where the observation ring is clipped
    return [
        RoiSpec(rows // 2 - 1, cols // 2 - 1, 3, 3),
        RoiSpec(0, cols - 3, 3, 3),
        RoiSpec(rows - 4, 1, 4, 2),
    ]


def _rows(domain, roi, spec, index):
    """The domain's NoiselessRows of a system on roi reading index."""
    index = np.asarray(index)
    if domain == "frequency":
        system = frequency.build_system(spec.shape, roi, index, spec, estimate_condition=False)
        return frequency.NoiselessRows(system)
    system = LinearSystem(domain, None, roi, index, math.nan, spec.shape, spec)
    return spatial.NoiselessRows(system)


def _block(us, vs):
    """The (u, v) entries of us x vs, row-major."""
    return np.stack(np.meshgrid(us, vs, indexing="ij"), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("shape, cutoff, crop", SPARSE_FIELDS)
def test_spatial_noiseless_rows_match_full_field(shape, cutoff, crop, rng):
    spec = OtfSpec(*shape, cutoff)
    psf = build_psf(spec, crop)
    for roi in _roi_placements(*shape):
        pixels = rng.uniform(0, 256, roi.pixel_count)
        full = observe_spatial(scatter_roi(pixels, roi, *shape), psf)
        cells = np.vstack([roi.cells(), ring_cells(roi, *shape, width=2)])
        got = _rows("spatial", roi, spec, cells)(pixels)
        want = full[cells[:, 0], cells[:, 1]]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(full).max()


@pytest.mark.parametrize("shape, cutoff, crop", SPARSE_FIELDS)
def test_frequency_noiseless_rows_match_full_field(shape, cutoff, crop, rng):
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
            inside = mask[np.ix_(us, vs)]
            assert 0 < inside.sum() < inside.size
            # a system holds the block's passband entries only
            entries = _block(us, vs)[inside.ravel()]
            got = _rows("frequency", roi, spec, entries)(pixels)
            assert np.abs(got - full[entries[:, 0], entries[:, 1]]).max() <= 1e-12 * scale


# The readers against a per-call oracle, byte for byte: _cell_rows and
# _spectrum_rows evaluate every twiddle afresh on each call, one row of cell
# twiddles per cell, so a reader that builds them once per system must give
# the same bytes.

def _old_partial_transform(patch, top, left, row_freqs, col_freqs, field_shape):
    k_rows, l_cols = patch.shape
    tr = forward._twiddles(row_freqs, top + np.arange(k_rows), field_shape[0], -1)
    tc = forward._twiddles(left + np.arange(l_cols), col_freqs, field_shape[1], -1)
    with np.errstate(over="ignore", invalid="ignore"):
        return (tr.real @ patch + 1j * (tr.imag @ patch)) @ tc


def _cell_rows(pixels, roi, spec, cells):
    x = roi.patch(pixels, *spec.shape)
    cells = field_cells(cells, *spec.shape)
    rows, cols = spec.shape
    freqs, gain = passband_box(spec)
    spectrum = gain * _old_partial_transform(x, roi.top, roi.left, freqs, freqs, spec.shape)
    fr = forward._twiddles(cells[:, 0], freqs, rows, 1)
    fc = forward._twiddles(cells[:, 1], freqs, cols, 1)
    return ((fr @ spectrum) * fc).sum(axis=1).real / (rows * cols)


def _spectrum_rows(pixels, roi, spec, entries):
    us, u_at = np.unique(entries[:, 0], return_inverse=True)
    vs, v_at = np.unique(entries[:, 1], return_inverse=True)
    x = roi.patch(pixels, *spec.shape)
    rows, cols = spec.shape
    values = _old_partial_transform(x, roi.top, roi.left, us, vs, spec.shape)
    inside = in_passband(spec, us[:, None], vs[None, :])
    block = np.where(inside, values * (spec.passband_gain / (rows * cols)), 0.0)
    return block[u_at, v_at]


def _shuffled_with_repeats(index, field_shape, data):
    """index with the field's last row and last column appended, a few
    entries listed twice, all in a drawn order."""
    rows, cols = field_shape
    edge = np.array([[rows - 1, data.draw(st.integers(0, cols - 1))],
                     [data.draw(st.integers(0, rows - 1)), cols - 1],
                     [rows - 1, cols - 1]])
    index = np.vstack([index, edge])
    repeats = data.draw(st.lists(st.integers(0, index.shape[0] - 1), max_size=6))
    index = np.vstack([index, index[repeats]])
    order = data.draw(st.permutations(range(index.shape[0])))
    return index[list(order)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_noiseless_rows_are_the_per_call_formula_byte_for_byte(data):
    rows, cols = data.draw(st.integers(8, 40)), data.draw(st.integers(8, 40))
    spec = OtfSpec(rows, cols, data.draw(st.floats(0.5, min(rows, cols) / 2 - 0.5)))
    k, l = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    roi = RoiSpec(data.draw(st.integers(0, rows - k)), data.draw(st.integers(0, cols - l)), k, l)
    ring = data.draw(st.integers(0, 3))
    pixels = np.random.default_rng(data.draw(st.integers(0, 2**32))).uniform(0, 256, k * l)
    cells = _shuffled_with_repeats(observation_index(roi, spec.shape, ring), spec.shape, data)
    got = _rows("spatial", roi, spec, cells)(pixels)
    assert np.array_equal(got, _cell_rows(pixels, roi, spec, cells))
    block = _block(np.arange(k + ring) % rows, np.arange(l + ring) % cols)
    entries = _shuffled_with_repeats(block, spec.shape, data)
    # a system holds passband entries only, at least one per unknown
    entries = entries[in_passband(spec, entries[:, 0], entries[:, 1])]
    assume(entries.shape[0] >= k * l)
    got = _rows("frequency", roi, spec, entries)(pixels)
    assert np.array_equal(got, _spectrum_rows(pixels, roi, spec, entries))


@pytest.mark.parametrize("domain", ["spatial", "frequency"])
@pytest.mark.parametrize("size, ring", [(2, 0), (17, 0), (20, 0), (20, 2)])
def test_one_reader_serves_every_trial_of_a_table_size(domain, size, ring):
    # the paper's setup at the table's sizes: one reader, many pixel draws,
    # each read the per-call formula's bytes
    spec = OtfSpec(768, 768, 6.0 if domain == "spatial" else math.hypot(size + ring, size + ring))
    roi = centered_roi(768, 768, size, size)
    index = (observation_index(roi, spec.shape, ring) if domain == "spatial"
             else frequency.observation_index(roi, spec.shape, ring))
    reader = _rows(domain, roi, spec, index)
    oracle = _cell_rows if domain == "spatial" else _spectrum_rows
    for seed in range(3):
        pixels = np.random.default_rng(seed).uniform(0, 256, size * size)
        assert np.array_equal(reader(pixels), oracle(pixels, roi, spec, index))


def test_the_transform_reader_reads_the_systems_factors(monkeypatch, rng):
    # every built system carries its factors, and its reader builds no
    # twiddles, index split or passband mask of its own; matrix is None
    # exactly on a full product U x V
    spec = OtfSpec(97, 130, 9.0, 0.7)
    roi = RoiSpec(60, 21, 3, 4)
    ring2 = frequency.observation_index(roi, spec.shape, 2)
    shuffled = ring2[rng.permutation(ring2.shape[0])]
    selections = {
        "ring 0": (frequency.observation_index(roi, spec.shape, 0), True),
        "ring 2": (ring2, True),
        "shuffled": (shuffled, True),
        "duplicated": (np.vstack([shuffled, shuffled[:5]]), False),
        "one entry short": (shuffled[1:], False),
    }
    pixels = rng.uniform(0, 256, roi.pixel_count)
    systems, want = {}, {}
    for name, (index, product) in selections.items():
        systems[name] = frequency.build_system(spec.shape, roi, index, spec)
        assert systems[name].factors is not None
        assert (systems[name].matrix is None) == product, name
        want[name] = _spectrum_rows(pixels, roi, spec, index)

    def refused(*args, **kwargs):
        raise AssertionError("the reader rebuilt what its system holds")

    with monkeypatch.context() as patch:
        for namespace, name in [(forward, "_twiddles"), (forward, "_axes"),
                                (frequency, "_twiddles"), (frequency, "_axes"),
                                (frequency, "in_passband")]:
            patch.setattr(namespace, name, refused)
        got = {name: frequency.NoiselessRows(system)(pixels) for name, system in systems.items()}
    for name in selections:
        assert np.array_equal(got[name], want[name]), name


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
        _rows("spatial", roi, small_spec, roi.cells())(np.ones(3))
    with pytest.raises(ShapeError):
        _rows("spatial", roi, small_spec, np.array([[0, 48]]))
    with pytest.raises(ShapeError):
        _rows("spatial", roi, small_spec, np.ones(4))
    freqs = np.arange(2)
    with pytest.raises(BoundsError):
        _rows("frequency", RoiSpec(47, 0, 2, 2), small_spec, _block(freqs, freqs))
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
        system = roi_problem("frequency", RoiSpec(0, 0, 1, 1), shape, spec, 0)
        assert system.spec == spec
        for name, frame in _blur_frames(rows, cols, rng).items():
            want = np.fft.ifft2(np.fft.fft2(frame) * otf).real
            got = observe_spatial(frame, psf)
            assert got.tobytes() == want.tobytes(), (shape, gain, name, "spatial")
            got = observe_field(frame, system.spec)
            assert got.tobytes() == want.tobytes(), (shape, gain, name, "frequency")


# scan's preview blur takes separable passband products instead; it agrees
# with the 2-D FFT expression to rounding, a cutoff below 1 (r = 0) too
@pytest.mark.parametrize("shape, cutoff", [*BLUR_FIELDS, ((9, 11), 0.5)])
def test_separable_blur_matches_the_fft2_oracle_to_rounding(shape, cutoff, rng):
    rows, cols = shape
    for gain in (1.0, 0.5, -2.5):
        spec = OtfSpec(rows, cols, cutoff, gain)
        otf = build_otf(spec)
        for name, frame in _blur_frames(rows, cols, rng).items():
            want = np.fft.ifft2(np.fft.fft2(frame) * otf).real
            got = separable_blur(frame, spec)
            assert got.shape == want.shape, (shape, gain, name)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (shape, gain, name)


def test_separable_blur_of_a_dense_768_frame_peaks_below_two_frames(rng):
    # the full-field route holds complex lines of the whole frame (23.8 MB
    # here); the products hold about one real frame, the result
    import tracemalloc

    rows = cols = 768
    spec = OtfSpec(rows, cols, 6.0)
    frame = rng.uniform(0, 256, (rows, cols))
    tracemalloc.start()
    try:
        separable_blur(frame, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * rows * cols * 8


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_observe_spatial_refuses_non_finite_frames(small_psf, bad):
    frame = np.zeros((48, 48))
    frame[20, 20] = 1.0
    frame[3, 40] = bad
    with pytest.raises(ParameterError, match="NaN or Inf"):
        observe_spatial(frame, small_psf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("lit", [True, False])
def test_full_field_blurs_refuse_a_non_finite_value_alone_in_a_dark_row(small_spec, bad, lit):
    # observe_field's finiteness check reads only the lit rows; NaN and Inf
    # light their own. separable_blur checks the whole frame, observe_field_at
    # the ROI's pixels, the others lit or dark
    frame = np.zeros((48, 48))
    if lit:
        frame[20, 20] = 1.0
    frame[3, 40] = bad
    with pytest.raises(ParameterError, match="NaN or Inf"):
        observe_field(frame, small_spec)
    with pytest.raises(ParameterError, match="NaN or Inf"):
        separable_blur(frame, small_spec)
    pixels = np.full(9, 1.0 if lit else 0.0)
    pixels[4] = bad
    with pytest.raises(ParameterError, match="NaN or Inf"):
        observe_field_at(pixels, RoiSpec(2, 39, 3, 3), small_spec)


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


@pytest.mark.parametrize("shape", [(300, 300), (768, 768), (97, 130)])
@pytest.mark.parametrize("sign", [-1, 1])
def test_twiddles_equal_the_direct_exp_bit_for_bit(shape, sign):
    # above `size` entries _twiddles gathers from one exp per phase; at or
    # below it evaluates exp on the grid itself; both read the same argument
    for size in shape:
        step = sign * 2j * np.pi / size
        edge = np.array([size - 1, size, size + 1, 2 * size + 5, -1, -size - 7])
        grids = [
            (np.arange(size), np.arange(-3, 4)),  # a whole frame's passband box
            (np.arange(size + 1), np.array([1])),  # one entry past size
            (np.arange(size), np.array([1])),  # exactly size entries
            (np.arange(3), np.arange(3)),  # a 3x3 tile's factor
            (edge, np.arange(-2, 3)),  # positions past the edge wrap
            (np.concatenate([edge, np.arange(size)]), np.array([-5, 7])),
        ]
        assert {p.size * f.size > size for p, f in grids} == {True, False}
        for positions, freqs in grids:
            direct = np.exp(step * (np.multiply.outer(positions, freqs) % size))
            got = forward._twiddles(positions, freqs, size, sign)
            assert got.dtype == direct.dtype and got.tobytes() == direct.tobytes()
