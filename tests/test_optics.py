import numpy as np
import pytest

from roisolve.errors import BoundsError, InconsistentInputError, ParameterError
from roisolve.optics import (
    OtfSpec,
    PsfKernel,
    build_otf,
    build_psf,
    effective_psf_positive,
    in_passband,
    passband_mask,
    wrap_distance_grid,
)


def test_otf_spec_validation():
    with pytest.raises(ParameterError):
        OtfSpec(0, 10, 2.0)
    with pytest.raises(ParameterError):
        OtfSpec(10, 10, -1.0)
    with pytest.raises(ParameterError):
        OtfSpec(10, 10, 5.0)  # cutoff must stay below half the field
    with pytest.raises(ParameterError):
        OtfSpec(10, 10, 2.0, passband_gain=0.0)


def test_wrap_distance_examples():
    d = wrap_distance_grid(8, 8)
    assert d[0, 0] == 0.0
    assert d[7, 0] == 1.0  # wraps around
    assert d[4, 0] == 4.0
    assert d[7, 7] == pytest.approx(np.sqrt(2))


def test_passband_is_symmetric_disk():
    spec = OtfSpec(32, 32, 8.0)
    mask = passband_mask(spec)
    mirrored = np.roll(mask[::-1, ::-1], (1, 1), axis=(0, 1))
    np.testing.assert_array_equal(mask, mirrored)
    # brute-force membership with the wrap-around metric
    for u in range(32):
        for v in range(32):
            du = min(u, 32 - u)
            dv = min(v, 32 - v)
            assert mask[u, v] == (du * du + dv * dv <= 64.0)


def test_otf_values_and_gain():
    spec = OtfSpec(32, 32, 8.0, passband_gain=2.5)
    otf = build_otf(spec)
    assert otf.dtype == np.complex128
    assert otf[0, 0] == 2.5
    assert otf[0, 9] == 0.0
    assert otf[31, 0] == 2.5  # distance 1 via wrap


def test_psf_peak_matches_passband_sum():
    # the zero-offset kernel value is the passband mass over the field area
    spec = OtfSpec(48, 48, 10.0)
    psf = build_psf(spec, 47)
    count = int(passband_mask(spec).sum())
    assert psf.peak == pytest.approx(count / (48 * 48), rel=1e-12)


def test_psf_against_naive_transform_sum():
    # independent oracle: p(du, dv) as an explicit sum over passband entries
    rows = cols = 12
    spec = OtfSpec(rows, cols, 3.0)
    psf = build_psf(spec, 11)
    mask = passband_mask(spec)
    us, vs = np.nonzero(mask)
    for du, dv in [(0, 0), (1, 0), (0, 1), (2, 3), (-4, 5), (5, -5), (-1, -2)]:
        acc = 0.0
        for u, v in zip(us, vs):
            acc += np.cos(2 * np.pi * (u * du / rows + v * dv / cols))
        expected = acc / (rows * cols)
        assert psf.value(du, dv) == pytest.approx(expected, abs=1e-12)


def test_psf_symmetry_and_window(small_psf):
    grid = small_psf.grid
    np.testing.assert_allclose(grid, grid[::-1, ::-1], atol=1e-15)
    win = small_psf.window(3, 4)
    assert win.shape == (5, 7)
    assert win[2, 3] == small_psf.peak
    assert win[0, 0] == small_psf.value(-2, -3)


def test_psf_value_bounds(small_psf):
    h = small_psf.half
    with pytest.raises(BoundsError):
        small_psf.value(h + 1, 0)
    with pytest.raises(BoundsError):
        small_psf.values(np.array([0]), np.array([h + 1]))
    with pytest.raises(BoundsError):
        small_psf.window(h + 2, 1)


def test_build_psf_crop_validation():
    spec = OtfSpec(16, 16, 4.0)
    with pytest.raises(ParameterError):
        build_psf(spec, 4)  # even
    with pytest.raises(BoundsError):
        build_psf(spec, 17)  # larger than an even field allows


def test_kernel_grid_shape_validation():
    with pytest.raises(ParameterError):
        PsfKernel(grid=np.ones((4, 4)), spec=None)


def test_psf_imaginary_residue_guard(small_spec, monkeypatch):
    # force an asymmetric "transfer function" through the builder
    import roisolve.optics as optics

    def broken_otf(spec):
        otf = build_otf(spec).copy()
        otf[1, 2] += 0.5  # no conjugate partner: inverse goes complex
        return otf

    monkeypatch.setattr(optics, "build_otf", broken_otf)
    with pytest.raises(InconsistentInputError):
        optics.build_psf(small_spec, 47)


def test_effective_positivity_small_config(small_psf):
    assert effective_psf_positive(small_psf, 3, 3)


def test_effective_positivity_counterexample():
    # a tighter disk on a small field rings negative within a 3x3 window
    psf = build_psf(OtfSpec(32, 32, 8.0), 31)
    assert not effective_psf_positive(psf, 3, 3)


@pytest.mark.parametrize(
    "rows, cols, cutoff",
    [(12, 12, 5.0), (9, 11, 3.5), (16, 12, 4.0), (48, 48, 10.0), (32, 20, 6.0), (768, 768, 6.0)],
)
def test_in_passband_classifies_like_the_mask(rows, cols, cutoff):
    spec = OtfSpec(rows, cols, cutoff)
    mask = passband_mask(spec)
    u, v = np.indices((rows, cols))
    np.testing.assert_array_equal(in_passband(spec, u, v), mask)
    # negative and out-of-range indices classify as their residues
    np.testing.assert_array_equal(in_passband(spec, u - rows, v + 3 * cols), mask)


def test_in_passband_radius_and_wrapped_entries():
    rows, cols = 16, 14
    spec = OtfSpec(rows, cols, 5.0)
    mask = passband_mask(spec)
    # (3, 4) lands exactly on the radius and counts as inside
    assert mask[3, 4] and in_passband(spec, 3, 4)
    assert mask[rows - 3, 4] and in_passband(spec, rows - 3, 4)
    assert mask[3, cols - 4] and in_passband(spec, -3, -4)
    assert not mask[3, 5] and not in_passband(spec, 3, 5)
    assert not mask[rows - 4, 4] and not in_passband(spec, rows - 4, 4)
    got = in_passband(spec, np.array([[0], [3], [rows - 3]]), np.array([[4, 5, cols - 4]]))
    assert got.shape == (3, 3)
    np.testing.assert_array_equal(got, mask[np.ix_([0, 3, rows - 3], [4, 5, cols - 4])])
