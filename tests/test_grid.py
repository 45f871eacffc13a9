import numpy as np
import pytest

from roisolve.errors import BoundsError, ParameterError, ShapeError
from roisolve.grid import RoiSpec, centered_roi, field_cells, scatter_roi


def test_roi_spec_validation():
    with pytest.raises(ParameterError):
        RoiSpec(-1, 0, 2, 2)
    with pytest.raises(ParameterError):
        RoiSpec(0, -3, 2, 2)
    with pytest.raises(ParameterError):
        RoiSpec(0, 0, 0, 2)
    with pytest.raises(ParameterError):
        RoiSpec(0, 0, 2, 0)
    with pytest.raises(ParameterError):
        RoiSpec(0.5, 0, 2, 2)


def test_roi_basic_properties():
    roi = RoiSpec(3, 5, 2, 4)
    assert roi.shape == (2, 4)
    assert roi.pixel_count == 8
    assert roi.slices() == (slice(3, 5), slice(5, 9))


def test_roi_cells_row_major():
    roi = RoiSpec(2, 7, 2, 3)
    expected = [(r, c) for r in range(2, 4) for c in range(7, 10)]
    assert roi.cells().tolist() == [list(rc) for rc in expected]


def test_roi_require_inside():
    roi = RoiSpec(3, 5, 2, 4)
    roi.require_inside(5, 9)
    with pytest.raises(BoundsError):
        roi.require_inside(4, 9)
    with pytest.raises(BoundsError):
        roi.require_inside(5, 8)


def test_centered_roi_positions():
    roi = centered_roi(10, 10, 2, 2)
    assert (roi.top, roi.left) == (4, 4)
    roi = centered_roi(11, 11, 3, 3)
    assert (roi.top, roi.left) == (4, 4)
    with pytest.raises(BoundsError):
        centered_roi(4, 4, 5, 5)


def test_vectorize_scatter_round_trip(rng):
    roi = RoiSpec(2, 3, 3, 4)
    values = rng.uniform(0, 256, roi.pixel_count)
    frame = scatter_roi(values, roi, 8, 9)
    assert frame.shape == (8, 9)
    np.testing.assert_array_equal(frame[roi.slices()].ravel(), values)
    # everything outside stays dark
    outside = frame.copy()
    outside[roi.slices()] = 0.0
    assert not outside.any()


def test_scatter_length_mismatch():
    roi = RoiSpec(0, 0, 2, 2)
    with pytest.raises(ShapeError):
        scatter_roi(np.ones(3), roi, 4, 4)


def test_patch_is_one_value_per_cell_of_an_roi_that_fits():
    roi = RoiSpec(1, 2, 2, 3)
    block = roi.patch(np.arange(6), 3, 5)
    assert block.dtype == float
    np.testing.assert_array_equal(block, np.arange(6.0).reshape(2, 3))
    for bad in (np.ones(5), np.ones(7), np.ones((2, 3)), np.ones(0)):
        with pytest.raises(ShapeError, match="does not match ROI pixel count 6"):
            roi.patch(bad, 3, 5)
    # the length is checked first, then the fit
    with pytest.raises(ShapeError):
        roi.patch(np.ones(5), 2, 2)
    for rows, cols in ((2, 5), (3, 4), (0, 16)):
        with pytest.raises(BoundsError, match="does not fit"):
            roi.patch(np.ones(6), rows, cols)


def test_field_cells_are_an_n_by_2_index_on_the_field():
    cells = np.array([[0, 0], [3, 4], [2, 1]])
    assert field_cells(cells, 4, 5) is cells
    assert field_cells(np.zeros((0, 2), int), 0, 0).shape == (0, 2)
    for bad in (np.zeros(2, int), np.zeros((3, 3), int), np.zeros((1, 2, 2), int)):
        with pytest.raises(ShapeError, match="must have shape"):
            field_cells(bad, 4, 5)
    for bad in ([[4, 0]], [[0, 5]], [[-1, 0]], [[0, -1]]):
        with pytest.raises(ShapeError, match="outside the 4x5 field"):
            field_cells(np.array(bad), 4, 5)



def _conjugate_symmetry_error(spectrum):
    """Max |X[u, v] - conj(X[-u, -v])|; 0 for the transform of a real image."""
    mirrored = np.roll(spectrum[::-1, ::-1], (1, 1), axis=(0, 1))
    return float(np.abs(spectrum - np.conj(mirrored)).max())


def test_conjugate_symmetry_of_real_image_spectrum(rng):
    image = rng.uniform(0, 10, (12, 17))
    spectrum = np.fft.fft2(image)
    assert _conjugate_symmetry_error(spectrum) < 1e-9
    # break the symmetry
    spectrum[3, 4] += 1.0j * 50
    assert _conjugate_symmetry_error(spectrum) > 1.0
