import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roisolve.errors import (
    InconsistentInputError,
    ParameterError,
    SelectionError,
    ShapeError,
    SingularSystemError,
)
from roisolve.forward import observe_spectrum
from roisolve.frequency import (
    FrequencySystem,
    SpectrumSelection,
    build_system,
    mirror_indices,
    solve_system,
    solve_two_point_1d,
)
from roisolve.grid import RoiSpec, scatter_roi
from roisolve.optics import OtfSpec, build_otf


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

def test_block_selection_row_major(rng):
    spectrum = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    sel = SpectrumSelection.block(spectrum, 2, 3, 2, 3)
    want_idx = [(u, v) for u in (2, 3) for v in (3, 4, 5)]
    assert sel.indices.tolist() == [list(t) for t in want_idx]
    np.testing.assert_array_equal(sel.entries, [spectrum[u, v] for u, v in want_idx])
    assert sel.block_origin == (2, 3)
    assert sel.block_shape == (2, 3)


def test_block_selection_wraps(rng):
    spectrum = rng.normal(size=(8, 8)) + 0j
    sel = SpectrumSelection.block(spectrum, -1, 7, 2, 2)
    assert sel.indices.tolist() == [[7, 7], [7, 0], [0, 7], [0, 0]]


def test_from_block_matches_block(rng):
    spectrum = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
    want = SpectrumSelection.block(spectrum, -1, 4, 3, 4)
    values = spectrum[np.ix_(np.arange(-1, 2) % 8, np.arange(4, 8) % 6)]
    got = SpectrumSelection.from_block(values, -1, 4, (8, 6))
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.entries, want.entries)
    assert (got.block_origin, got.block_shape) == (want.block_origin, want.block_shape)
    with pytest.raises(ShapeError):
        SpectrumSelection.from_block(np.ones(4), 0, 0, (8, 6))
    with pytest.raises(ShapeError):
        SpectrumSelection.from_block(np.ones((0, 3)), 0, 0, (8, 6))


def test_from_indices_wraps(rng):
    spectrum = rng.normal(size=(6, 6)) + 0j
    sel = SpectrumSelection.from_indices(spectrum, np.array([[-1, 2], [7, -6]]))
    assert sel.indices.tolist() == [[5, 2], [1, 0]]
    assert sel.entries[0] == spectrum[5, 2]


def test_selection_shape_validation():
    with pytest.raises(ShapeError):
        SpectrumSelection(indices=np.zeros((3, 3), dtype=int), entries=np.zeros(3, complex))
    with pytest.raises(ShapeError):
        SpectrumSelection(indices=np.zeros((3, 2), dtype=int), entries=np.zeros(2, complex))


def test_mirror_indices():
    idx = np.array([[0, 0], [1, 2], [5, 7]])
    got = mirror_indices(idx, 8, 8)
    assert got.tolist() == [[0, 0], [7, 6], [3, 1]]


# ---------------------------------------------------------------------------
# system construction

def test_matrix_entries_brute_force(rng):
    rows, cols = 16, 12
    roi = RoiSpec(5, 3, 2, 2)
    spectrum = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    sel = SpectrumSelection.block(spectrum, 1, 2, 2, 2)
    system = build_system((rows, cols), roi, sel)
    for i, (u, v) in enumerate(sel.indices):
        for j, (r, c) in enumerate(roi.cells()):
            want = np.exp(-2j * np.pi * (r * u / rows + c * v / cols)) / (rows * cols)
            assert system.a_matrix[i, j] == pytest.approx(want, abs=1e-15)


def test_matrix_modulus_constant(rng):
    rows, cols = 24, 24
    roi = RoiSpec(3, 3, 3, 3)
    spectrum = rng.normal(size=(rows, cols)) + 0j
    system = build_system((rows, cols), roi, SpectrumSelection.block(spectrum, 0, 0, 3, 3))
    np.testing.assert_allclose(np.abs(system.a_matrix), 1.0 / (rows * cols), rtol=1e-14)


def test_build_system_needs_enough_entries(rng):
    spectrum = rng.normal(size=(16, 16)) + 0j
    roi = RoiSpec(4, 4, 3, 3)
    sel = SpectrumSelection.block(spectrum, 0, 0, 2, 2)
    with pytest.raises(SelectionError):
        build_system((16, 16), roi, sel)


def test_build_system_passband_validation(rng):
    rows = cols = 32
    otf_spec = OtfSpec(rows, cols, 4.0)
    spectrum = rng.normal(size=(rows, cols)) + 0j
    roi = RoiSpec(10, 10, 2, 2)
    inside = SpectrumSelection.block(spectrum, 0, 0, 2, 2)
    build_system((rows, cols), roi, inside, otf_spec=otf_spec)
    outside = SpectrumSelection.block(spectrum, 4, 4, 2, 2)
    with pytest.raises(SelectionError):
        build_system((rows, cols), roi, outside, otf_spec=otf_spec)
    with pytest.raises(ShapeError):
        build_system((rows, cols), roi, inside, otf_spec=OtfSpec(16, 16, 4.0))


# ---------------------------------------------------------------------------
# solving

def _observed_selection(pixels, roi, spec, start=(0, 0), shape=None):
    rows, cols = spec.shape
    ideal = scatter_roi(pixels, roi, rows, cols)
    spectrum = observe_spectrum(ideal, build_otf(spec))
    k_rows, l_cols = shape if shape is not None else roi.shape
    return SpectrumSelection.block(spectrum, start[0], start[1], k_rows, l_cols)


def test_direct_complex_recovers(small_spec, rng):
    roi = RoiSpec(22, 22, 3, 3)
    pixels = rng.uniform(0, 256, 9)
    sel = _observed_selection(pixels, roi, small_spec)
    system = build_system(small_spec.shape, roi, sel, otf_spec=small_spec)
    sol = solve_system(system)
    assert np.abs(sol.pixels - pixels).max() <= 1e-6
    assert sol.imag_leakage <= 1e-9
    assert sol.method == "direct_complex"


def test_selection_freedom(small_spec, rng):
    # unit-scale pixels keep solver noise far below the agreement bound
    roi = RoiSpec(22, 22, 3, 3)
    pixels = rng.uniform(0, 1, 9)
    sol_origin = solve_system(
        build_system(
            small_spec.shape, roi, _observed_selection(pixels, roi, small_spec), otf_spec=small_spec
        )
    )
    sol_shifted = solve_system(
        build_system(
            small_spec.shape,
            roi,
            _observed_selection(pixels, roi, small_spec, start=(1, 2)),
            otf_spec=small_spec,
        )
    )
    rows, cols = small_spec.shape
    ideal = scatter_roi(pixels, roi, rows, cols)
    spectrum = observe_spectrum(ideal, build_otf(small_spec))
    scattered_idx = np.array(
        [[0, 0], [0, 3], [3, 0], [1, 1], [2, 5], [5, 2], [4, 4], [1, 6], [6, 1]]
    )
    sol_scattered = solve_system(
        build_system(
            small_spec.shape,
            roi,
            SpectrumSelection.from_indices(spectrum, scattered_idx),
            otf_spec=small_spec,
        )
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
    sol = solve_system(
        build_system(
            (rows, cols), roi, SpectrumSelection.from_indices(spectrum, base_idx)
        )
    )
    mirrored = mirror_indices(base_idx, rows, cols)
    sol_m = solve_system(
        build_system(
            (rows, cols), roi, SpectrumSelection.from_indices(spectrum, mirrored)
        )
    )
    assert np.abs(sol.pixels - sol_m.pixels).max() <= 1e-8


def test_stacked_real_lsq_overdetermined(small_spec, rng):
    roi = RoiSpec(22, 22, 3, 3)
    pixels = rng.uniform(0, 256, 9)
    sel = _observed_selection(pixels, roi, small_spec, shape=(4, 4))
    system = build_system(small_spec.shape, roi, sel, otf_spec=small_spec)
    sol = solve_system(system, "stacked_real_lsq")
    assert np.abs(sol.pixels - pixels).max() <= 1e-6
    assert sol.imag_leakage == 0.0


def test_direct_complex_requires_square(small_spec, rng):
    roi = RoiSpec(22, 22, 2, 2)
    sel = _observed_selection(rng.uniform(0, 1, 4), roi, small_spec, shape=(3, 3))
    system = build_system(small_spec.shape, roi, sel)
    with pytest.raises(ShapeError):
        solve_system(system, "direct_complex")


def test_truncated_and_singular(small_spec):
    roi = RoiSpec(0, 0, 2, 2)
    probe = SpectrumSelection(
        indices=np.zeros((4, 2), dtype=int), entries=np.zeros(4, dtype=complex)
    )
    system = FrequencySystem(
        a_matrix=np.zeros((4, 4), dtype=complex),
        rhs=np.zeros(4, dtype=complex),
        roi=roi,
        field_rows=8,
        field_cols=8,
        selection=probe,
        condition_estimate=np.inf,
    )
    with pytest.raises(SingularSystemError):
        solve_system(system, "direct_complex")
    with pytest.raises(SingularSystemError):
        solve_system(system, "truncated")
    with pytest.raises(ParameterError):
        solve_system(system, "qr")
