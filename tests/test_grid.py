import numpy as np
import pytest

from roisolve.errors import BoundsError, ParameterError, ShapeError
from roisolve.grid import RoiSpec, centered_roi, scatter_roi


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
