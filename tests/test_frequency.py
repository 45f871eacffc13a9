import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roisolve.errors import (
    BoundsError,
    InconsistentInputError,
    ParameterError,
    SelectionError,
    ShapeError,
    SingularSystemError,
)
from roisolve.forward import image_to_spectrum, observe_field, observe_spectrum
from roisolve.frequency import (
    build_system,
    frame_rhs,
    noiseless_rhs,
    observation_index,
    solve_system,
    solve_two_point_1d,
)
from roisolve.grid import RoiSpec, scatter_roi
from roisolve.linear import LinearSystem
from roisolve.optics import OtfSpec, build_otf
from roisolve.pipeline import DOMAIN_MODULES, roi_problem
from roisolve.spatial import simulated_blur


def forward_two_point(n_len, a, b, x_a, x_b, k):
    """Unnormalized transform of a two-source sequence at frequency k."""
    return x_a * np.exp(-2j * np.pi * k * a / n_len) + x_b * np.exp(-2j * np.pi * k * b / n_len)


# ---------------------------------------------------------------------------
# two-point closed form

def test_two_point_worked_example_rounded_inputs():
    x_a, x_b = solve_two_point_1d(
        8, 3, 4, 0, 1, 15.6 + 0j, -13.6376 - 4.7376j, imag_rtol=1e-3
    )
    assert x_a == pytest.approx(6.7, abs=1e-3)
    assert x_b == pytest.approx(8.9, abs=1e-3)


def test_two_point_worked_example_exact_inputs():
    x_c = forward_two_point(8, 3, 4, 6.7, 8.9, 0)
    x_d = forward_two_point(8, 3, 4, 6.7, 8.9, 1)
    got_a, got_b = solve_two_point_1d(8, 3, 4, 0, 1, x_c, x_d)
    assert got_a == pytest.approx(6.7, abs=1e-10)
    assert got_b == pytest.approx(8.9, abs=1e-10)


def test_two_point_coincident_positions_rejected():
    with pytest.raises(SingularSystemError):
        solve_two_point_1d(8, 3, 3, 0, 1, 1 + 0j, 1 + 0j)


def test_two_point_degenerate_frequency_pair():
    # (a - b)(c - d) = (-4)(-2) = 8 = 0 mod 8
    with pytest.raises(SingularSystemError):
        solve_two_point_1d(8, 0, 4, 0, 2, 1 + 0j, 1 + 0j)
    with pytest.raises(SingularSystemError):
        solve_two_point_1d(8, 1, 2, 3, 3, 1 + 0j, 1 + 0j)


def test_two_point_position_validation():
    with pytest.raises(ParameterError):
        solve_two_point_1d(8, -1, 4, 0, 1, 0j, 0j)
    with pytest.raises(ParameterError):
        solve_two_point_1d(8, 0, 8, 0, 1, 0j, 0j)
    with pytest.raises(ParameterError):
        solve_two_point_1d(1, 0, 0, 0, 1, 0j, 0j)


def test_two_point_inconsistent_inputs_rejected():
    x_c = forward_two_point(8, 3, 4, 6.7, 8.9, 0)
    x_d = forward_two_point(8, 3, 4, 6.7, 8.9, 1)
    with pytest.raises(InconsistentInputError):
        solve_two_point_1d(8, 3, 4, 0, 1, x_c, np.conj(x_d) + 1j)


@pytest.mark.parametrize("position", [5, 6])
@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0, -float("inf"))])
def test_two_point_refuses_non_finite_values(position, bad):
    args = [8, 3, 4, 0, 1, 15.6 + 0j, -13.6376 - 4.7376j]
    args[position] = bad
    with pytest.raises(ParameterError, match="finite"):
        solve_two_point_1d(*args, imag_rtol=1e-3)


def test_two_point_integers_stop_at_2_to_the_53():
    args = (3, 4, 0, 1, 15.6 + 0j, -13.6376 - 4.7376j)
    with pytest.raises(ParameterError, match=r"n_len lies beyond \+/-2\*\*53"):
        solve_two_point_1d(2**53 + 1, *args)
    with pytest.raises(ParameterError, match=r"c lies beyond \+/-2\*\*53"):
        solve_two_point_1d(8, 3, 4, -(2**53) - 1, 1, *args[4:])
    # 2**53 itself is taken: at that length frequencies 0 and 1 cannot
    # separate neighbouring positions
    with pytest.raises(SingularSystemError):
        solve_two_point_1d(2**53, *args)


@pytest.mark.parametrize("k", [1, -1, 10**6, 10**12, -(10**15)])
def test_two_point_frequencies_are_taken_modulo_the_length(k):
    # c and c + k*n_len name the same frequency, so they give the same bits
    args = (15.6 + 0j, -13.6376 - 4.7376j)
    want = solve_two_point_1d(8, 3, 4, 0, 1, *args, imag_rtol=1e-3)
    assert solve_two_point_1d(8, 3, 4, 8 * k, 1, *args, imag_rtol=1e-3) == want
    assert solve_two_point_1d(8, 3, 4, 0, 1 + 8 * k, *args, imag_rtol=1e-3) == want


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
def test_two_point_refuses_a_bad_imaginary_tolerance(tol):
    # a NaN tolerance used to switch the imaginary-residue check off
    with pytest.raises(ParameterError, match="imag_rtol"):
        solve_two_point_1d(8, 3, 4, 0, 1, 15.6 + 0j, -13.6376 - 4.7376j, imag_rtol=tol)


@settings(max_examples=200, deadline=None)
@given(
    n_len=st.integers(2, 32),
    a=st.integers(0, 31),
    b=st.integers(0, 31),
    c=st.integers(-96, 96),
    d=st.integers(-96, 96),
    x_a=st.floats(-256.0, 256.0),
    x_b=st.floats(-256.0, 256.0),
)
def test_two_point_round_trip_arbitrary_frequencies(n_len, a, b, c, d, x_a, x_b):
    # frequencies may sit anywhere, including high or negative indices
    a %= n_len
    b %= n_len
    if a == b or ((a - b) * (c - d)) % n_len == 0:
        return
    x_c = forward_two_point(n_len, a, b, x_a, x_b, c)
    x_d = forward_two_point(n_len, a, b, x_a, x_b, d)
    den = abs(
        np.exp(-2j * np.pi * (a * c + b * d) / n_len)
        - np.exp(-2j * np.pi * (a * d + b * c) / n_len)
    )
    if den < 1e-6:
        return  # nearly degenerate pair; covered by the singularity guard
    got_a, got_b = solve_two_point_1d(n_len, a, b, c, d, x_c, x_d, imag_rtol=1e-6)
    scale = max(abs(x_a), abs(x_b), 1.0)
    assert abs(got_a - x_a) <= 1e-10 * scale / den * 10 + 1e-10
    assert abs(got_b - x_b) <= 1e-10 * scale / den * 10 + 1e-10


# ---------------------------------------------------------------------------
# selections

def _block(spectrum, start_row, start_col, k_rows, l_cols):
    """(indices, entries) of a K x L block of a spectrum, row-major, wrapped."""
    rows, cols = spectrum.shape
    uu, vv = np.meshgrid(
        np.arange(start_row, start_row + k_rows) % rows,
        np.arange(start_col, start_col + l_cols) % cols,
        indexing="ij",
    )
    idx = np.column_stack([uu.ravel(), vv.ravel()])
    return idx, spectrum[idx[:, 0], idx[:, 1]]


def _picked(spectrum, indices):
    """(indices, entries) of arbitrary spectrum entries."""
    return indices, spectrum[indices[:, 0], indices[:, 1]]


def _mirror(indices, rows, cols):
    """Conjugate-mirror partners (-u mod rows, -v mod cols) of a set of indices."""
    return np.column_stack([(-indices[:, 0]) % rows, (-indices[:, 1]) % cols])


def _widest_spec(rows, cols):
    """The transfer spec of the widest passband a rows x cols field allows."""
    return OtfSpec(rows, cols, min(rows, cols) / 2 - 0.5)


def _frequency_system(roi, field_shape, ring, cutoff=5.5):
    return roi_problem("frequency", roi, field_shape, OtfSpec(*field_shape, cutoff), ring)


def test_mirror_indices():
    idx = np.array([[0, 0], [1, 2], [5, 7]])
    got = _mirror(idx, 8, 8)
    assert got.tolist() == [[0, 0], [7, 6], [3, 1]]


def test_block_selection_row_major(rng):
    roi = RoiSpec(5, 3, 2, 3)
    idx = observation_index(roi, (16, 12), 1)
    want_idx = [[u, v] for u in range(3) for v in range(4)]
    assert idx.tolist() == want_idx
    frame = rng.normal(size=(16, 12))
    rhs = frame_rhs(_frequency_system(roi, (16, 12), 1), frame)
    # the system's spectrum is normalized by the field size
    spectrum = np.fft.fft2(frame) / frame.size
    np.testing.assert_allclose(rhs, [spectrum[u, v] for u, v in want_idx], atol=1e-12)


def test_block_selection_wraps():
    # a block wider than the field wraps modulo it, like the partial DFT
    idx = observation_index(RoiSpec(0, 0, 2, 2), (4, 4), 3)
    assert idx.shape == (25, 2)
    assert idx[:5].tolist() == [[0, 0], [0, 1], [0, 2], [0, 3], [0, 0]]
    assert idx[20:].tolist() == [[0, 0], [0, 1], [0, 2], [0, 3], [0, 0]]


def test_from_block_matches_block(rng):
    roi = RoiSpec(5, 3, 2, 3)
    frame = rng.normal(size=(16, 12))
    system = _frequency_system(roi, (16, 12), 2, cutoff=5.5)
    want_idx, want_entries = _block(np.fft.fft2(frame) / frame.size, 0, 0, 4, 5)
    np.testing.assert_array_equal(system.obs_index, want_idx)
    np.testing.assert_allclose(frame_rhs(system, frame), want_entries, atol=1e-12)
    with pytest.raises(ShapeError):
        frame_rhs(system, np.ones(4))


@pytest.mark.parametrize("selection", ["permuted block", "non-product"])
def test_readers_follow_obs_index(small_spec, selection):
    # row i of the system reads obs_index[i] in any order and any shape of
    # selection, not the block the index was first drawn from
    rows, cols = small_spec.shape
    roi = RoiSpec(22, 22, 3, 3)
    rng = np.random.default_rng(31)
    if selection == "permuted block":
        idx = observation_index(roi, small_spec.shape, 1)
        idx = idx[rng.permutation(len(idx))]
    else:  # repeated rows and columns, no product of them
        idx = np.array([[0, 0], [0, 3], [3, 0], [1, 1], [2, 5], [5, 2], [4, 4], [1, 6], [6, 1],
                        [2, 2], [7, 3]])
    system = build_system(small_spec.shape, roi, idx, otf_spec=small_spec)
    pixels = rng.uniform(0, 256, roi.pixel_count)
    frame = observe_field(scatter_roi(pixels, roi, rows, cols), small_spec)
    got = frame_rhs(system, frame)
    want = image_to_spectrum(frame)[idx[:, 0], idx[:, 1]]
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    noiseless = noiseless_rhs(system, pixels)
    assert np.abs(noiseless - want).max() <= 1e-14 * np.abs(want).max()
    sol = solve_system(system, got, "stacked_real_lsq")
    assert np.abs(sol.pixels - pixels).max() <= 1e-8


# ---------------------------------------------------------------------------
# system construction

def test_matrix_entries_brute_force(rng):
    rows, cols = 16, 12
    roi = RoiSpec(5, 3, 2, 2)
    spectrum = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    idx, _ = _block(spectrum, 1, 2, 2, 2)
    system = build_system((rows, cols), roi, idx, _widest_spec(rows, cols))
    for i, (u, v) in enumerate(idx):
        for j, (r, c) in enumerate(roi.cells()):
            want = np.exp(-2j * np.pi * (r * u / rows + c * v / cols)) / (rows * cols)
            assert system.a_matrix[i, j] == pytest.approx(want, abs=1e-15)


def test_matrix_entries_bit_for_bit_on_a_shuffled_selection(rng):
    # entry (i, j) is g*exp(-2j*pi*(r*u/R + c*v/C))/(R*C), each exactly
    rows, cols, gain = 97, 130, 0.7
    roi = RoiSpec(90, 3, 4, 5)
    spec = OtfSpec(rows, cols, 8.0, gain)
    idx = observation_index(roi, (rows, cols), 2)
    idx = idx[rng.permutation(idx.shape[0])]
    a = build_system((rows, cols), roi, idx, spec).a_matrix
    for i, (u, v) in enumerate(idx):
        for j, (r, c) in enumerate(roi.cells()):
            phase = r * (u / rows) + c * (v / cols)
            want = np.exp(np.complex128(complex(0.0, -2 * np.pi * phase))) / (rows * cols) * gain
            assert a[i, j].tobytes() == want.tobytes(), (i, j)


def test_matrix_modulus_constant(rng):
    rows, cols = 24, 24
    roi = RoiSpec(3, 3, 3, 3)
    spectrum = rng.normal(size=(rows, cols)) + 0j
    idx = _block(spectrum, 0, 0, 3, 3)[0]
    system = build_system((rows, cols), roi, idx, _widest_spec(rows, cols))
    np.testing.assert_allclose(np.abs(system.a_matrix), 1.0 / (rows * cols), rtol=1e-14)


def test_build_system_needs_enough_entries(rng):
    spectrum = rng.normal(size=(16, 16)) + 0j
    roi = RoiSpec(4, 4, 3, 3)
    idx, _ = _block(spectrum, 0, 0, 2, 2)
    with pytest.raises(SelectionError):
        build_system((16, 16), roi, idx, _widest_spec(16, 16))


def test_selection_shape_validation():
    roi = RoiSpec(4, 4, 2, 2)
    spec = _widest_spec(16, 16)
    with pytest.raises(ShapeError):
        build_system((16, 16), roi, np.zeros((4, 3), dtype=int), spec)
    with pytest.raises(ShapeError):
        build_system((16, 16), roi, np.zeros(8, dtype=int), spec)


def test_build_system_index_validation():
    roi = RoiSpec(4, 4, 2, 2)
    spec = _widest_spec(16, 16)
    with pytest.raises(SelectionError):
        build_system((16, 16), roi, np.array([[0, 0], [0, 1], [1, 0], [16, 1]]), spec)
    with pytest.raises(SelectionError):
        build_system((16, 16), roi, np.array([[0, 0], [0, 1], [1, 0], [1, -1]]), spec)
    # the field checks run before the spec is matched against the field; an
    # empty field fits no ROI
    with pytest.raises(BoundsError):
        build_system((5, 16), roi, np.zeros((4, 2), dtype=int), spec)
    with pytest.raises(BoundsError):
        build_system((0, 16), roi, np.zeros((4, 2), dtype=int), spec)


def test_build_system_passband_validation(rng):
    rows = cols = 32
    otf_spec = OtfSpec(rows, cols, 4.0)
    spectrum = rng.normal(size=(rows, cols)) + 0j
    roi = RoiSpec(10, 10, 2, 2)
    inside, _ = _block(spectrum, 0, 0, 2, 2)
    build_system((rows, cols), roi, inside, otf_spec=otf_spec)
    outside, _ = _block(spectrum, 4, 4, 2, 2)
    with pytest.raises(SelectionError):
        build_system((rows, cols), roi, outside, otf_spec=otf_spec)
    with pytest.raises(ShapeError):
        build_system((rows, cols), roi, inside, otf_spec=OtfSpec(16, 16, 4.0))
    with pytest.raises(ParameterError, match="reads an OtfSpec"):
        build_system((rows, cols), roi, inside, None)


# ---------------------------------------------------------------------------
# the Kronecker factors and the condition estimate

def _dft_factor(freqs, positions, size):
    """F[u, k] = exp(-2j*pi*u*p_k/size), phases formed straight from the definition."""
    return np.exp(-2j * np.pi * np.multiply.outer(freqs, positions) / size)


@pytest.mark.parametrize("ring", [0, 1, 2])
@pytest.mark.parametrize(
    "roi", [RoiSpec(0, 0, 3, 3), RoiSpec(17, 5, 2, 4), RoiSpec(30, 41, 4, 3)]
)
def test_matrix_is_the_kronecker_product_of_two_partial_dfts(roi, ring):
    rows, cols = 48, 50
    system = build_system(
        (rows, cols), roi, observation_index(roi, (rows, cols), ring), _widest_spec(rows, cols),
        estimate_condition=False,
    )
    f_r = _dft_factor(np.arange(roi.k_rows + ring), roi.top + np.arange(roi.k_rows), rows)
    f_c = _dft_factor(np.arange(roi.l_cols + ring), roi.left + np.arange(roi.l_cols), cols)
    assert np.abs(system.a_matrix * (rows * cols) - np.kron(f_r, f_c)).max() <= 1e-13


def _conditions(field, roi, ring):
    """(estimate, full-matrix SVD condition) of one origin-block system."""
    system = build_system(field, roi, observation_index(roi, field, ring), _widest_spec(*field))
    return system.condition_estimate, float(np.linalg.cond(system.a_matrix))


def test_factor_condition_matches_the_full_svd_where_both_are_trustworthy():
    checked = 0
    for field in ((768, 768), (48, 50)):
        for k, l in ((2, 2), (3, 3), (2, 3), (4, 2), (4, 4)):
            for ring in (0, 1, 2):
                roi = RoiSpec(field[0] // 2 - 1, field[1] // 3, k, l)
                estimate, full = _conditions(field, roi, ring)
                if estimate < 1e12 and full < 1e12:
                    # a full SVD reads its smallest singular value only to
                    # about eps times the largest
                    rtol = max(1e-6, 10 * np.finfo(float).eps * full)
                    assert estimate == pytest.approx(full, rel=rtol), (field, k, l, ring)
                    checked += 1
    assert checked >= 20


def test_factor_condition_reads_past_the_full_svd_saturation():
    # 5x5 at the paper's field: the full SVD stalls near 1/eps, while each
    # factor (about 3e9) is still well within reach of float64
    roi = RoiSpec(380, 380, 5, 5)
    estimate, full = _conditions((768, 768), roi, 0)
    assert full < 1e17 < estimate


def test_a_product_selection_in_any_order_gives_the_same_estimate(rng):
    roi = RoiSpec(7, 9, 3, 2)
    idx = observation_index(roi, (32, 32), 1)
    spec = _widest_spec(32, 32)
    ordered = build_system((32, 32), roi, idx, spec).condition_estimate
    shuffled = build_system((32, 32), roi, idx[rng.permutation(len(idx))], spec).condition_estimate
    assert shuffled == ordered


@pytest.mark.parametrize("edit", ["swap one entry", "repeat one entry", "short factor"])
def test_other_selections_take_the_full_svd(edit):
    roi = RoiSpec(7, 9, 3, 3)
    idx = observation_index(roi, (32, 32), 1).copy()  # 4 x 4 block
    if edit == "swap one entry":
        idx[-1] = (5, 0)
    elif edit == "repeat one entry":
        idx[-1] = idx[0]
    else:  # a 2 x 8 product cannot determine 3 rows of unknowns
        idx = np.column_stack([np.repeat(np.arange(2), 8), np.tile(np.arange(8), 2)])
    system = build_system((32, 32), roi, idx, _widest_spec(32, 32))
    assert system.condition_estimate == float(np.linalg.cond(system.a_matrix))


# ---------------------------------------------------------------------------
# solving

def _observed_selection(pixels, roi, spec, start=(0, 0), shape=None):
    rows, cols = spec.shape
    ideal = scatter_roi(pixels, roi, rows, cols)
    spectrum = observe_spectrum(ideal, build_otf(spec))
    k_rows, l_cols = shape if shape is not None else roi.shape
    return _block(spectrum, start[0], start[1], k_rows, l_cols)


def test_direct_complex_recovers(small_spec, rng):
    roi = RoiSpec(22, 22, 3, 3)
    pixels = rng.uniform(0, 256, 9)
    idx, entries = _observed_selection(pixels, roi, small_spec)
    system = build_system(small_spec.shape, roi, idx, otf_spec=small_spec)
    sol = solve_system(system, entries)
    assert np.abs(sol.pixels - pixels).max() <= 1e-6
    assert sol.imag_leakage <= 1e-9


def test_selection_freedom(small_spec, rng):
    # unit-scale pixels keep solver noise far below the agreement bound
    roi = RoiSpec(22, 22, 3, 3)
    pixels = rng.uniform(0, 1, 9)
    idx, entries = _observed_selection(pixels, roi, small_spec)
    sol_origin = solve_system(
        build_system(small_spec.shape, roi, idx, otf_spec=small_spec), entries
    )
    idx, entries = _observed_selection(pixels, roi, small_spec, start=(1, 2))
    sol_shifted = solve_system(
        build_system(small_spec.shape, roi, idx, otf_spec=small_spec), entries
    )
    rows, cols = small_spec.shape
    ideal = scatter_roi(pixels, roi, rows, cols)
    spectrum = observe_spectrum(ideal, build_otf(small_spec))
    scattered_idx = np.array(
        [[0, 0], [0, 3], [3, 0], [1, 1], [2, 5], [5, 2], [4, 4], [1, 6], [6, 1]]
    )
    idx, entries = _picked(spectrum, scattered_idx)
    sol_scattered = solve_system(
        build_system(small_spec.shape, roi, idx, otf_spec=small_spec), entries
    )
    assert np.abs(sol_origin.pixels - pixels).max() <= 1e-8
    assert np.abs(sol_shifted.pixels - sol_origin.pixels).max() <= 1e-8
    assert np.abs(sol_scattered.pixels - sol_origin.pixels).max() <= 1e-8


def test_conjugate_mirrored_selection_agrees(small_spec, rng):
    roi = RoiSpec(20, 24, 2, 2)
    pixels = rng.uniform(0, 1, 4)
    rows, cols = small_spec.shape
    spectrum = observe_spectrum(scatter_roi(pixels, roi, rows, cols), build_otf(small_spec))
    base_idx = np.array([[1, 1], [1, 2], [2, 1], [2, 2]])
    idx, entries = _picked(spectrum, base_idx)
    sol = solve_system(build_system((rows, cols), roi, idx, small_spec), entries)
    mirrored = _mirror(base_idx, rows, cols)
    idx, entries = _picked(spectrum, mirrored)
    sol_m = solve_system(build_system((rows, cols), roi, idx, small_spec), entries)
    assert np.abs(sol.pixels - sol_m.pixels).max() <= 1e-8


def test_stacked_real_lsq_overdetermined(small_spec, rng):
    roi = RoiSpec(22, 22, 3, 3)
    pixels = rng.uniform(0, 256, 9)
    idx, entries = _observed_selection(pixels, roi, small_spec, shape=(4, 4))
    system = build_system(small_spec.shape, roi, idx, otf_spec=small_spec)
    sol = solve_system(system, entries, "stacked_real_lsq")
    assert np.abs(sol.pixels - pixels).max() <= 1e-6
    assert sol.imag_leakage == 0.0


@pytest.mark.parametrize("gain", [0.5, -2.5])
@pytest.mark.parametrize("domain", ["spatial", "frequency"])
def test_both_domains_recover_a_frame_blurred_at_any_passband_gain(domain, gain):
    # the observation scales by the gain, so the matrix has to as well
    spec = OtfSpec(64, 64, 6.0, gain)
    roi = RoiSpec(30, 30, 2, 2)
    pixels = np.array([10.0, 20.0, 30.0, 40.0])
    frame = observe_field(scatter_roi(pixels, roi, 64, 64), spec)
    blur = simulated_blur(spec, 2, 2, 0, 63) if domain == "spatial" else spec
    system = roi_problem(domain, roi, (64, 64), blur, 0)
    module = DOMAIN_MODULES[domain]
    sol = module.solve_system(system, module.frame_rhs(system, frame), module.METHODS[0])
    assert np.abs(sol.pixels - pixels).max() <= 1e-9


def test_direct_complex_requires_square(small_spec, rng):
    roi = RoiSpec(22, 22, 2, 2)
    idx, entries = _observed_selection(rng.uniform(0, 1, 4), roi, small_spec, shape=(3, 3))
    system = build_system(small_spec.shape, roi, idx, small_spec)
    with pytest.raises(ShapeError):
        solve_system(system, entries, "direct_complex")


def test_truncated_and_singular(small_spec):
    roi = RoiSpec(0, 0, 2, 2)
    system = LinearSystem(
        domain="frequency",
        a_matrix=np.zeros((4, 4), dtype=complex),
        roi=roi,
        obs_index=np.zeros((4, 2), dtype=int),
        condition_estimate=np.inf,
        field_shape=(2, 2),
        spec=None,
    )
    rhs = np.zeros(4, dtype=complex)
    with pytest.raises(SingularSystemError):
        solve_system(system, rhs, "direct_complex")
    with pytest.raises(SingularSystemError):
        solve_system(system, rhs, "truncated")
    with pytest.raises(ParameterError):
        solve_system(system, rhs, "qr")
