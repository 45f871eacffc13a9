import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roisolve import cli, frequency
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
    NoiselessRows,
    build_system,
    frame_rhs,
    observation_index,
    solve_system,
    solve_two_point_1d,
)
from roisolve.grid import RoiSpec, centered_roi, scatter_roi
from roisolve.linear import KroneckerFactors, LinearSystem, solve_route
from roisolve.optics import OtfSpec, build_otf, in_passband, staircase_rank
from roisolve.pipeline import DOMAIN_MODULES, averaged_error, roi_problem
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


def test_block_selection_beyond_the_field_is_refused():
    # the (K+ring) x (L+ring) block never wraps: observation_index refuses
    # a block wider than the field, as every route that builds one does
    with pytest.raises(BoundsError, match="beyond the 4x4 field"):
        observation_index(RoiSpec(0, 0, 2, 2), (4, 4), 3)
    assert observation_index(RoiSpec(0, 0, 2, 2), (4, 4), 2).max() == 3


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
    noiseless = NoiselessRows(system)(pixels)
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
    # row i is g/(R*C) times the outer product of exp(-2j*pi*(u*r mod R)/R)
    # over the ROI rows r and exp(-2j*pi*(v*c mod C)/C) over its columns c,
    # each phase reduced modulo the field before exp, exactly; on the square
    # block listed row-major, a shuffled product set and a selection that
    # repeats entries, each matrix formed at build
    rows, cols, gain = 97, 130, 0.7
    roi = RoiSpec(90, 3, 4, 5)
    spec = OtfSpec(rows, cols, 8.0, gain)
    block = observation_index(roi, (rows, cols), 0)
    idx = observation_index(roi, (rows, cols), 2)
    idx = idx[rng.permutation(idx.shape[0])]
    for sel in (block, idx, np.vstack([idx, idx[:3]])):
        system = build_system((rows, cols), roi, sel, spec)
        f_u = np.exp(-2j * np.pi / rows * (np.outer(sel[:, 0], roi.top + np.arange(4)) % rows))
        f_v = np.exp(-2j * np.pi / cols * (np.outer(sel[:, 1], roi.left + np.arange(5)) % cols))
        want = gain / (rows * cols) * (f_u[:, :, None] * f_v[:, None, :]).reshape(len(sel), 20)
        assert system.a_matrix.tobytes() == want.tobytes()


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


def _kept(spec, k_rows, l_cols, ring):
    """The system a K x L region's block at ring keeps, built without the estimate."""
    roi = centered_roi(*spec.shape, k_rows, l_cols)
    return roi, build_system(spec.shape, roi, observation_index(roi, spec.shape, ring), spec,
                             estimate_condition=False)


def test_the_staircase_count_is_the_rank_of_the_kept_block():
    # every cutoff 0.5-6, region 1x1-5x7 and ring 0-4 on a 24x24 field: the
    # staircase count of the block's passband entries is the SVD rank of the
    # rows kept, so structurally_singular marks exactly the rank-deficient
    # blocks; a plain count of the entries kept misjudges some of them
    deficient = miscounted = 0
    for cutoff in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0):
        spec = OtfSpec(24, 24, cutoff)
        for k in range(1, 6):
            for l in range(1, 8):
                for ring in range(5):
                    roi, system = _kept(spec, k, l, ring)
                    rank = int(np.linalg.matrix_rank(system.a_matrix))
                    nodes = in_passband(spec, np.arange(k + ring)[:, None],
                                        np.arange(l + ring)[None, :])
                    case = (cutoff, k, l, ring)
                    assert staircase_rank(np.nonzero(nodes)[0], k, l) == rank, case
                    singular = frequency.structurally_singular(spec, roi, ring)
                    assert singular == (rank < k * l), case
                    deficient += singular
                    miscounted += (system.shape[0] < k * l) != singular
    assert deficient > 0 and miscounted > 0


@pytest.mark.parametrize("cutoff, k_rows, l_cols, ring, kept, rank",
                         [(4.0, 4, 4, 1, 17, 15), (6.0, 2, 7, 3, 30, 13)])
def test_a_block_can_keep_more_entries_than_its_rank(cutoff, k_rows, l_cols, ring, kept, rank):
    # more rows than unknowns, yet rank-deficient: the table marks the block,
    # and a build with the estimate refuses it before any SVD
    spec = OtfSpec(24, 24, cutoff)
    roi, system = _kept(spec, k_rows, l_cols, ring)
    assert system.shape == (kept, k_rows * l_cols)
    assert np.linalg.matrix_rank(system.a_matrix) == rank
    assert frequency.structurally_singular(spec, roi, ring)
    with pytest.raises(SelectionError, match=f"the {kept} of .* have rank {rank} of "):
        roi_problem("frequency", roi, spec.shape, spec, ring)


def test_the_staircase_count_refuses_only_a_selection_that_lost_entries():
    # off a block the count is only a lower bound: these four entries, one
    # per row and column, have rank 4 for a 2x2 region against a count of 2.
    # Inside the passband they build and solve; with an entry past it added,
    # the count alone decides, and the selection is refused
    spec, roi = OtfSpec(24, 24, 6.0), RoiSpec(10, 10, 2, 2)
    idx = np.array([[0, 0], [1, 2], [2, 1], [3, 3]])
    assert staircase_rank(idx[:, 0], 2, 2) == 2
    system = build_system(spec.shape, roi, idx, spec)
    assert np.linalg.matrix_rank(system.a_matrix) == 4 and np.isfinite(system.condition_estimate)
    pixels = np.array([3.0, 1.0, 4.0, 1.5])
    assert np.allclose(solve_system(system, system @ pixels).pixels, pixels, rtol=0, atol=1e-9)
    with pytest.raises(SelectionError, match="the 4 of 5 selected entries .* have rank 2 of 4"):
        build_system(spec.shape, roi, np.vstack([idx, [[0, 7]]]), spec)


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
    # 5x5 at the paper's field: the full SVD saturates past 1/eps, its smallest
    # singular value lost in rounding, while each factor (about 3e9) is still
    # well within reach of float64
    roi = RoiSpec(380, 380, 5, 5)
    estimate, full = _conditions((768, 768), roi, 0)
    assert 1 / np.finfo(float).eps < full <= estimate / 10


@pytest.mark.parametrize("field", [(48, 48), (97, 130), (300, 300)])
def test_the_origin_block_is_dense_and_estimated_from_its_factors(field):
    # observation_index's block at a cutoff that holds it, square or taller:
    # its matrix is formed from its factors at build, and its condition is
    # estimated from the factors
    checked = 0
    for k in range(1, 5):
        for l in range(1, 6):
            for ring in (0, 1, 2):
                roi = RoiSpec(field[0] // 3, field[1] // 2, k, l)
                spec = OtfSpec(*field, float(np.hypot(k + ring, l + ring)))
                system = build_system(field, roi, observation_index(roi, field, ring), spec)
                f = system.factors
                assert (f.f_u.shape, f.f_v.shape) == ((k + ring, k), (l + ring, l))
                assert system.a_matrix.tobytes() == f.dense().tobytes()
                want = float(np.linalg.cond(f.f_u)) * float(np.linalg.cond(f.f_v))
                assert system.condition_estimate == want
                checked += 1
    assert checked == 60


@pytest.mark.parametrize("edit", ["swap one entry", "repeat one entry", "short factor",
                                  "permuted", "drop the last entry", "passband cut"])
def test_other_selections_take_the_full_svd(edit):
    roi = RoiSpec(7, 9, 3, 3)
    idx = observation_index(roi, (32, 32), 1).copy()  # 4 x 4 block
    spec = _widest_spec(32, 32)
    if edit == "permuted":  # the whole product, in another order
        idx = idx[::-1]
    elif edit == "swap one entry":
        idx[-1] = (5, 0)
    elif edit == "repeat one entry":
        idx[-1] = idx[0]
    elif edit == "drop the last entry":  # row-major, but one short of U x V
        idx = idx[:-1]
    elif edit == "passband cut":  # the disk drops the block's far corner (3, 3)
        spec = OtfSpec(32, 32, 4.0, 1.0)
    else:  # a 2 x 8 product cannot determine 3 rows of unknowns
        idx = np.column_stack([np.repeat(np.arange(2), 8), np.tile(np.arange(8), 2)])
    system = build_system((32, 32), roi, idx, spec)
    if edit in ("drop the last entry", "passband cut"):
        assert system.obs_index.shape[0] == 15
    assert system.a_matrix.shape == (system.obs_index.shape[0], roi.pixel_count)
    assert system.condition_estimate == float(np.linalg.cond(system.a_matrix))


def test_a_product_cut_short_to_k_times_l_entries_is_dense():
    # the first four entries of the 2 x 3 product, row-major: as many as the
    # 2 x 2 region's unknowns, but not U x V, so its estimate is the full
    # SVD's, which sees its rank of three
    roi = RoiSpec(7, 9, 2, 2)
    idx = np.array([[0, 0], [0, 1], [0, 2], [1, 0]])
    system = build_system((32, 32), roi, idx, _widest_spec(32, 32))
    assert system.a_matrix.shape == (4, 4)
    assert system.a_matrix.tobytes() == system.factors.dense().tobytes()
    assert system.condition_estimate == float(np.linalg.cond(system.a_matrix)) > 1e15
    x = np.arange(1.0, 5.0)
    assert (system @ x).tobytes() == (system.a_matrix @ x).tobytes()


# ---------------------------------------------------------------------------
# the dense routes against the factors

def _factored_lu(factors, y):
    """x with A x = y on a square block listed row-major, in its factors:
    F_U^-1 Y F_V^-T / scale, Y each column of y as K x L."""
    k, l = factors.f_u.shape[1], factors.f_v.shape[1]
    t = y.size // y.shape[0]
    x = np.linalg.solve(factors.f_u, y.reshape(k, l * t))
    x = np.linalg.solve(factors.f_v, x.reshape(k, l, t))
    return (x / factors.scale).reshape(y.shape)


# well conditioned: the estimates read 9.3e2, 1.6e4, 2.4e5 and 5.1e3
@pytest.mark.parametrize("field, roi, gain, shuffle", [
    ((48, 48), RoiSpec(20, 17, 2, 2), 1.0, False),
    ((48, 48), RoiSpec(3, 40, 2, 3), 1.0, False),
    ((97, 130), RoiSpec(90, 3, 2, 3), 0.7, True),
    ((97, 130), RoiSpec(40, 100, 2, 2), 0.7, True),
])
def test_factored_lu_agrees_with_dense_lu(field, roi, gain, shuffle, rng):
    # the LU in the factors of the row-major block agrees with the dense
    # complex LU and the real solve of the same block, or under shuffle of
    # the same block in another order
    spec = OtfSpec(*field, 10.0 if field == (48, 48) else 8.0, gain)
    idx = observation_index(roi, field, 0)
    perm = rng.permutation(idx.shape[0]) if shuffle else np.arange(idx.shape[0])
    ordered = build_system(field, roi, idx, spec)
    system = build_system(field, roi, idx[perm], spec)
    pixels = rng.uniform(0, 256, (roi.pixel_count, 3))
    reader = NoiselessRows(ordered)
    rhs = np.column_stack([reader(p) for p in pixels.T])
    for y in (rhs[:, 0], rhs):
        factored = _factored_lu(ordered.factors, y).real
        for method in ("direct_complex", "stacked_real_lsq"):
            dense = solve_system(system, y[perm], method).pixels
            assert np.abs(factored - dense).max() <= 1e-9
        assert np.abs(factored - pixels[:, 0] if y.ndim == 1 else factored - pixels).max() <= 1e-9


@pytest.mark.parametrize("ring", [0, 2])
def test_factored_product_equals_the_dense_one(ring, rng):
    # observation_index's block, square or taller: A x in the factors,
    # scale * F_U X F_V^T read off in row order, agrees with system @ x, the
    # product of the matrix formed at build
    field, roi = (97, 130), RoiSpec(60, 21, 3, 4)
    system = build_system(field, roi, observation_index(roi, field, ring),
                          OtfSpec(*field, 9.0, 0.7))
    f = system.factors
    for x in (rng.uniform(0, 256, roi.pixel_count), rng.uniform(0, 256, (roi.pixel_count, 5))):
        t = x.size // x.shape[0]
        block = f.f_v @ (f.f_u @ x.reshape(3, 4 * t)).reshape(3 + ring, 4, t)
        factored = f.scale * f.rows(block).reshape(-1, *x.shape[1:])
        got = system @ x
        assert got.shape == factored.shape
        assert np.abs(got - factored).max() <= 1e-13 * np.abs(factored).max()
        assert np.array_equal(got, system.a_matrix @ x)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


@pytest.mark.parametrize("field, roi, cutoff, gain", [
    ((48, 48), RoiSpec(20, 17, 2, 2), 10.0, 1.0),
    ((97, 130), RoiSpec(90, 3, 2, 3), 8.0, 0.7),
    ((300, 300), RoiSpec(0, 0, 3, 3), 6.0, 1.0),
])
@pytest.mark.parametrize("ring", [0, 2])
def test_a_permuted_product_is_a_dense_system(field, roi, cutoff, gain, ring, rng):
    # observation_index's block in another order: its matrix is formed at
    # build, row i holding the bits of row perm[i] of the row-major system's,
    # and its readers read the row-major system's entries in that order bit
    # for bit; its A x agrees with the row-major system's
    spec = OtfSpec(*field, cutoff, gain)
    idx = observation_index(roi, field, ring)
    perm = rng.permutation(idx.shape[0])
    assert not np.array_equal(perm, np.arange(perm.size))
    ordered = build_system(field, roi, idx, spec)
    permuted = build_system(field, roi, idx[perm], spec)
    assert _same_bits(ordered.a_matrix[perm], permuted.a_matrix)
    x = rng.uniform(0, 256, (roi.pixel_count, 4))
    for v in (x[:, 0], x):
        want = (ordered @ v)[perm]
        assert np.abs(permuted @ v - want).max() <= 1e-9 * np.abs(want).max()
    assert _same_bits(NoiselessRows(ordered)(x[:, 0])[perm], NoiselessRows(permuted)(x[:, 0]))
    frame = rng.uniform(0, 256, field)
    assert _same_bits(frame_rhs(ordered, frame)[perm], frame_rhs(permuted, frame))


def test_a_square_selection_that_is_no_product_keeps_the_dense_routes(rng):
    # K*L passband entries over more rows and columns than the ROI has, not
    # their product: the system carries factors and its matrix, and LU and
    # A x read the matrix
    field, roi = (97, 130), RoiSpec(60, 21, 3, 4)
    idx = observation_index(roi, field, 1)
    idx = idx[rng.permutation(idx.shape[0])[:roi.pixel_count]]
    system = build_system(field, roi, idx, OtfSpec(*field, 9.0, 0.7))
    assert np.unique(idx[:, 0]).size > roi.k_rows and np.unique(idx[:, 1]).size > roi.l_cols
    assert system.factors is not None
    assert system.shape == (roi.pixel_count,) * 2
    pixels = rng.uniform(0, 256, roi.pixel_count)
    rhs = NoiselessRows(system)(pixels)
    assert solve_route(system, rhs, "direct_complex", frequency.METHODS) == 0
    sol = solve_system(system, rhs, "direct_complex")
    assert np.array_equal(sol.pixels, np.linalg.solve(system.a_matrix, rhs).real)
    for x in (pixels, rng.uniform(0, 256, (roi.pixel_count, 3))):
        assert np.array_equal(system @ x, system.a_matrix @ x)


def test_a_full_products_lu_refuses_non_finite_factors(rng):
    # LU on a full product reads the matrix formed at build; a non-finite
    # factor reaches it through the rows the system's reader reads
    field, roi = (97, 130), RoiSpec(60, 21, 3, 4)
    system = build_system(field, roi, observation_index(roi, field, 0), OtfSpec(*field, 9.0))
    pixels = rng.uniform(0, 256, roi.pixel_count)
    for name in ("f_u", "f_v"):
        bad = getattr(system.factors, name).copy()
        bad.flat[1] = np.nan
        broken = dataclasses.replace(system, factors=system.factors._replace(**{name: bad}))
        rhs = NoiselessRows(broken)(pixels)
        with pytest.raises(ParameterError, match="NaN or Inf"):
            solve_system(broken, rhs, "direct_complex")


def test_the_frequency_table_forms_each_sizes_matrix_once(monkeypatch, tmp_path):
    # once per size, at build: the solved sizes 2-5 their K*K rows, a marked
    # size (6-20 at the default setup) only the rows it keeps, at most the
    # origin quadrant's 35 passband entries
    formed, dense = [], KroneckerFactors.dense

    def counted(factors):
        formed.append((factors.f_u.shape[1], factors.u_at.size))
        return dense(factors)

    monkeypatch.setattr(KroneckerFactors, "dense", counted)
    out = tmp_path / "out"
    assert cli.main(["table", "--domain", "frequency", "--sizes", "2-20", "--trials", "2",
                     "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "trials_frequency.csv").read_text().splitlines()))
    assert len(rows) == 38 and not any(row["error"] for row in rows)
    assert [size for size, _ in formed] == list(range(2, 21))
    assert [kept for _, kept in formed[:4]] == [4, 9, 16, 25]
    assert all(kept <= 35 for _, kept in formed[4:])


def test_dense_routes_still_form_the_matrix(monkeypatch, tmp_path):
    calls, dense = [], KroneckerFactors.dense

    def counted(factors):
        calls.append((factors.f_u.shape[1], factors.f_v.shape[1]))
        return dense(factors)

    monkeypatch.setattr(KroneckerFactors, "dense", counted)
    small = ["--field", "48x48", "--cutoff", "10", "--out", str(tmp_path / "out")]
    assert cli.main(["noise", "--domains", "frequency", "--roi-size", "2", "--ring", "2",
                     "--trials", "1", "--psnr", "80", *small]) == 0
    assert calls == [(2, 2)]
    assert cli.main(["table", "--domain", "frequency", "--sizes", "3", "--trials", "2",
                     "--solver", "truncated", *small]) == 0
    assert calls == [(2, 2), (3, 3)]


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


@pytest.mark.parametrize("size, bound", [(2, 1e-8), (3, 1e-4)])
def test_ring_two_least_squares_recovers_regions_away_from_the_origin(size, bound):
    # the paper's setup (768x768, cutoff 6), where the phase of every entry
    # is far from 0: the noiseless ring-2 system, solved dense
    rng = np.random.default_rng(2019 + size)
    spec = frequency.simulated_blur(OtfSpec(768, 768, 6.0), size, size, 2, 501)
    worst = 0.0
    for _ in range(40):
        top, left = (int(v) for v in rng.integers(128, 640, 2))
        roi = RoiSpec(top, left, size, size)
        system = roi_problem("frequency", roi, (768, 768), spec, 2)
        pixels = rng.uniform(0, 256, roi.pixel_count)
        sol = solve_system(system, NoiselessRows(system)(pixels), "stacked_real_lsq")
        worst = max(worst, averaged_error(sol.pixels, pixels))
    assert worst <= bound


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
