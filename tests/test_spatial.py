import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roisolve.errors import (
    BoundsError,
    ParameterError,
    ShapeError,
    SingularSystemError,
)
from roisolve.forward import observe_spatial, unit_noise
from roisolve.grid import RoiSpec, centered_roi, scatter_roi
from roisolve.linear import LinearSystem, residual
from roisolve.optics import OtfSpec, PsfKernel, build_psf, passband_box, structural_rank
from roisolve.spatial import (
    build_system,
    observation_index,
    ring_cells,
    simulated_blur,
    solve_system,
    solve_two_point_1d,
    system_matrix,
    unit_rows,
)


# ---------------------------------------------------------------------------
# two-point closed form

def test_two_point_worked_example():
    p, q = 1.0, 0.9981
    x_a, x_b = 1.2, 3.4
    y_a = p * x_a + q * x_b
    y_b = p * x_b + q * x_a
    got_a, got_b = solve_two_point_1d(p, q, q, y_a, y_b)
    assert got_a == pytest.approx(x_a, abs=1e-12)
    assert got_b == pytest.approx(x_b, abs=1e-12)


def test_two_point_decoupled():
    # zero cross coupling reduces to two independent readings
    x_a, x_b = solve_two_point_1d(2.0, 0.0, 0.0, 2.4, 6.8)
    assert (x_a, x_b) == (pytest.approx(1.2), pytest.approx(3.4))


def test_two_point_singular():
    with pytest.raises(SingularSystemError):
        solve_two_point_1d(1.0, 1.0, 1.0, 2.0, 2.0)
    with pytest.raises(SingularSystemError):
        solve_two_point_1d(0.5, 0.25, 1.0, 1.0, 1.0)
    with pytest.raises(SingularSystemError):
        solve_two_point_1d(0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("position", range(5))
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_two_point_refuses_non_finite_inputs(position, bad):
    args = [1.0, 0.5, 0.5, 2.9, 4.0]
    args[position] = bad
    with pytest.raises(ParameterError, match="finite"):
        solve_two_point_1d(*args)


@pytest.mark.parametrize(
    "args",
    [
        (1e200, 1.0, 1.0, 1.0, 1.0),  # p^2 overflows
        (1.0, 1e200, 1e200, 1.0, 1.0),  # q_a*q_b overflows
        (1e154, -1e154, 1e154, 1.0, 1.0),  # p^2 and q_a*q_b finite, their difference not
        (2.0, 1.0, 1.0, 1e308, 1e308),  # the results overflow
    ],
)
def test_two_point_refuses_overflow(args):
    with pytest.raises(ParameterError, match="overflow"):
        solve_two_point_1d(*args)


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(0.1, 10.0),
    q_a=st.floats(-0.9, 0.9),
    q_b=st.floats(-0.9, 0.9),
    x_a=st.floats(-256.0, 256.0),
    x_b=st.floats(-256.0, 256.0),
)
def test_two_point_round_trip(p, q_a, q_b, x_a, x_b):
    det = p * p - q_a * q_b
    if abs(det) <= 1e-6 * max(p * p, abs(q_a * q_b)):
        return
    y_a = p * x_a + q_a * x_b
    y_b = p * x_b + q_b * x_a
    got_a, got_b = solve_two_point_1d(p, q_a, q_b, y_a, y_b)
    scale = max(abs(x_a), abs(x_b), 1.0)
    assert abs(got_a - x_a) <= 1e-9 * scale * max(p * p, 1.0) / abs(det) + 1e-12
    assert abs(got_b - x_b) <= 1e-9 * scale * max(p * p, 1.0) / abs(det) + 1e-12


# ---------------------------------------------------------------------------
# system construction

def _read(obs, system):
    """The observation of a system: the image at its cells."""
    return obs[system.obs_index[:, 0], system.obs_index[:, 1]]


def test_system_matrix_entries_brute_force(small_psf):
    roi = RoiSpec(20, 21, 2, 3)
    obs_cells = np.vstack([roi.cells(), [[19, 20], [23, 25]]])
    a = system_matrix(small_psf, roi, obs_cells)
    unknowns = [(r, c) for r in range(20, 22) for c in range(21, 24)]
    h = small_psf.half
    for i, (m, n) in enumerate(obs_cells):
        for j, (k, l) in enumerate(unknowns):
            assert a[i, j] == small_psf.grid[h + k - m, h + l - n]


@pytest.mark.parametrize(
    "roi, ring",
    [
        (RoiSpec(20, 21, 3, 3), 2),  # a ring
        (RoiSpec(0, 46, 2, 2), 3),  # a ring clipped by the top and right borders
        (RoiSpec(10, 5, 2, 5), 1),  # a non-square ROI
    ],
)
def test_system_matrix_is_the_kernel_at_each_offset(small_psf, roi, ring):
    # entry (i, j) is grid[h + r_j - m_i, h + c_j - n_i], bit for bit
    obs_cells = observation_index(roi, (48, 48), ring)
    a = system_matrix(small_psf, roi, obs_cells)
    h = small_psf.half
    want = np.array(
        [[small_psf.grid[h + r - m, h + c - n] for r, c in roi.cells()] for m, n in obs_cells]
    )
    assert a.shape == want.shape
    assert a.tobytes() == want.tobytes()


def test_system_matrix_refuses_a_kernel_too_small_for_its_offsets(small_spec):
    # a 3x3 ROI with ring 1 meets offsets up to +/-3 on both axes
    roi = RoiSpec(20, 20, 3, 3)
    with pytest.raises(BoundsError) as err:
        system_matrix(build_psf(small_spec, 5), roi, observation_index(roi, (48, 48), 1))
    assert str(err.value) == "offsets reach +/-(3, 3), kernel window is only +/-2"
    # a ring clipped by the left border: its right side still lies 5 columns
    # from the ROI's first, while no offset reaches past 3 to the left
    roi = RoiSpec(10, 0, 2, 4)
    with pytest.raises(BoundsError) as err:
        system_matrix(build_psf(small_spec, 3), roi, observation_index(roi, (48, 48), 2))
    assert str(err.value) == "offsets reach +/-(3, 5), kernel window is only +/-1"


def test_system_matrix_positive_small_config(small_psf):
    roi = RoiSpec(20, 20, 3, 3)
    a = system_matrix(small_psf, roi, roi.cells())
    assert a.min() > 0


def test_build_system_rhs_and_condition(small_psf, rng):
    roi = RoiSpec(22, 19, 3, 3)
    pixels = rng.uniform(0, 256, 9)
    obs = observe_spatial(scatter_roi(pixels, roi, 48, 48), small_psf)
    system = build_system((48, 48), roi, roi.cells(), small_psf)
    np.testing.assert_array_equal(_read(obs, system), obs[roi.slices()].ravel())
    assert np.isfinite(system.condition_estimate)
    skipped = build_system((48, 48), roi, roi.cells(), small_psf, estimate_condition=False)
    assert np.isnan(skipped.condition_estimate)


def test_build_system_extra_obs_validation(small_psf):
    roi = RoiSpec(20, 20, 2, 2)
    with pytest.raises(ShapeError):
        build_system((48, 48), roi, np.vstack([roi.cells(), [[48, 0]]]), small_psf)
    with pytest.raises(ShapeError):
        build_system((48, 48), roi, np.array([1, 2, 3]), small_psf)


def test_build_system_needs_enough_cells_inside_the_field(small_psf):
    roi = RoiSpec(20, 20, 2, 2)
    with pytest.raises(ShapeError):
        build_system((48, 48), roi, roi.cells()[:3], small_psf)
    with pytest.raises(ShapeError):
        build_system((48, 48), roi, np.vstack([roi.cells(), [[0, -1]]]), small_psf)
    with pytest.raises(BoundsError):
        build_system((21, 48), roi, roi.cells(), small_psf)


def test_observation_index_is_roi_then_ring():
    roi = RoiSpec(5, 6, 3, 2)
    np.testing.assert_array_equal(observation_index(roi, (20, 20), 0), roi.cells())
    wide = observation_index(roi, (20, 20), 2)
    np.testing.assert_array_equal(wide[:6], roi.cells())
    np.testing.assert_array_equal(wide[6:], ring_cells(roi, 20, 20, width=2))


def test_ring_cells_brute_force():
    roi = RoiSpec(5, 6, 3, 2)
    got = {tuple(rc) for rc in ring_cells(roi, 20, 20, width=2)}
    want = set()
    for r in range(20):
        for c in range(20):
            inside = 5 <= r < 8 and 6 <= c < 8
            dr = max(5 - r, r - 7, 0)
            dc = max(6 - c, c - 7, 0)
            if not inside and max(dr, dc) <= 2:
                want.add((r, c))
    assert got == want
    assert len(got) == 7 * 6 - 3 * 2


def test_ring_cells_clip_at_border():
    roi = RoiSpec(0, 0, 2, 2)
    cells = ring_cells(roi, 10, 10, width=2)
    assert cells.min() >= 0
    assert len(cells) == 4 * 4 - 2 * 2
    with pytest.raises(ParameterError):
        ring_cells(roi, 10, 10, width=0)


# ---------------------------------------------------------------------------
# solving

def test_direct_solve_recovers_pixels(small_psf, rng):
    roi = RoiSpec(23, 23, 3, 3)
    pixels = rng.uniform(0, 256, 9)
    obs = observe_spatial(scatter_roi(pixels, roi, 48, 48), small_psf)
    system = build_system((48, 48), roi, roi.cells(), small_psf)
    rhs = _read(obs, system)
    sol = solve_system(system, rhs)
    assert np.abs(sol.pixels - pixels).max() <= 1e-6
    assert residual(system, sol.pixels, rhs) <= 1e-10


def test_least_squares_never_worse_than_square(small_psf, rng):
    # the augmented-system residual of the lsq solution cannot exceed the
    # square solution's residual on those same rows
    roi = RoiSpec(23, 23, 3, 3)
    pixels = rng.uniform(0, 256, 9)
    obs = observe_spatial(scatter_roi(pixels, roi, 48, 48), small_psf)
    square = build_system((48, 48), roi, roi.cells(), small_psf)
    ring = ring_cells(roi, 48, 48, width=2)
    wide = build_system((48, 48), roi, np.vstack([roi.cells(), ring]), small_psf)
    x_square = solve_system(square, _read(obs, square)).pixels
    x_lsq = solve_system(wide, _read(obs, wide), "least_squares").pixels
    r_square = np.linalg.norm(wide.a_matrix @ x_square - _read(obs, wide))
    r_lsq = np.linalg.norm(wide.a_matrix @ x_lsq - _read(obs, wide))
    assert r_lsq <= r_square * (1 + 1e-12) + 1e-15


def test_direct_requires_square(small_psf, rng):
    roi = RoiSpec(23, 23, 2, 2)
    obs = observe_spatial(scatter_roi(rng.uniform(0, 256, 4), roi, 48, 48), small_psf)
    wide = build_system((48, 48), roi, observation_index(roi, (48, 48), 1), small_psf)
    with pytest.raises(ShapeError):
        solve_system(wide, _read(obs, wide), "direct")


def test_unknown_method_rejected(small_psf):
    roi = RoiSpec(20, 20, 2, 2)
    system = build_system((48, 48), roi, roi.cells(), small_psf)
    with pytest.raises(ParameterError):
        solve_system(system, np.zeros(4), "cg")


def test_singular_direct_and_truncated():
    roi = RoiSpec(0, 0, 2, 2)
    system = LinearSystem(
        domain="spatial",
        matrix=np.zeros((4, 4)),
        roi=roi,
        obs_index=roi.cells(),
        condition_estimate=np.inf,
        field_shape=(2, 2),
        spec=None,
    )
    with pytest.raises(SingularSystemError):
        solve_system(system, np.zeros(4), "direct")
    with pytest.raises(SingularSystemError):
        solve_system(system, np.zeros(4), "truncated")


def test_truncated_handles_rank_deficiency():
    roi = RoiSpec(0, 0, 1, 2)
    a = np.array([[1.0, 1.0], [2.0, 2.0]])  # rank one
    system = LinearSystem(
        domain="spatial",
        matrix=a,
        roi=roi,
        obs_index=roi.cells(),
        condition_estimate=np.inf,
        field_shape=(1, 2),
        spec=None,
    )
    rhs = np.array([2.0, 4.0])
    sol = solve_system(system, rhs, "truncated")
    assert np.allclose(a @ sol.pixels, rhs)


def test_negative_report_and_clamp(small_psf, rng):
    roi = RoiSpec(23, 23, 2, 2)
    pixels = np.array([5.0, -3.0, 4.0, -1.0])  # physically odd, linearly fine
    obs = observe_spatial(scatter_roi(pixels, roi, 48, 48), small_psf)
    system = build_system((48, 48), roi, roi.cells(), small_psf)
    sol = solve_system(system, _read(obs, system))
    assert sol.negative_count == 2
    assert sol.min_pixel == pytest.approx(-3.0, abs=1e-8)
    clamped = solve_system(system, _read(obs, system), clamp_negative=True)
    assert clamped.pixels.min() >= 0.0
    assert clamped.negative_count == 2  # report reflects the raw solution


def test_residual_normalization():
    roi = RoiSpec(0, 0, 2, 2)
    a = np.eye(4)
    system = LinearSystem(
        domain="spatial",
        matrix=a,
        roi=roi,
        obs_index=roi.cells(),
        condition_estimate=1.0,
        field_shape=(2, 2),
        spec=None,
    )
    rhs = np.array([1.0, 0.0, 0.0, 0.0])
    sol = solve_system(system, rhs)
    assert residual(system, sol.pixels, rhs) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# the passband factor and the condition estimate

def _passband_factor(spec, cells):
    """B[p, j] = exp(2j*pi*(u_p*r_j/R + v_p*c_j/C)) over the passband entries p."""
    freqs, gain = passband_box(spec)
    u, v = np.meshgrid(freqs, freqs, indexing="ij")
    inside = gain != 0
    phase = (
        np.multiply.outer(u[inside], cells[:, 0]) / spec.field_rows
        + np.multiply.outer(v[inside], cells[:, 1]) / spec.field_cols
    )
    return np.exp(2j * np.pi * phase)


@pytest.mark.parametrize("gain", [1.0, 0.5, -2.5])
@pytest.mark.parametrize(
    "rows, cols, cutoff, roi",
    [(48, 48, 10.0, RoiSpec(20, 21, 3, 3)), (97, 64, 5.0, RoiSpec(40, 7, 2, 4)),
     (768, 768, 6.0, RoiSpec(380, 384, 4, 4))],
)
def test_matrix_factors_through_the_passband(rows, cols, cutoff, roi, gain):
    spec = OtfSpec(rows, cols, cutoff, passband_gain=gain)
    psf = build_psf(spec, 2 * max(roi.shape) + 1)
    cells = roi.cells()
    b = _passband_factor(spec, cells)
    expected = gain * (b.conj().T @ b) / (rows * cols)
    a = system_matrix(psf, roi, cells)
    scale = np.abs(expected).max()
    assert np.abs(a - expected).max() <= 1e-13 * scale
    assert np.abs(expected.imag).max() <= 1e-13 * scale


@pytest.mark.parametrize("ring", [0, 1])
def test_condition_is_the_full_svd(ring):
    # cond(B_roi)**2 would be exact further up at ring 0, but an SVD of the
    # N_p x K*L factor costs more than one of the K*L x K*L matrix
    spec = OtfSpec(48, 48, 10.0)
    roi = RoiSpec(20, 20, 3, 3)
    idx = observation_index(roi, spec.shape, ring)
    system = build_system(spec.shape, roi, idx, build_psf(spec, 11))
    assert system.condition_estimate == float(np.linalg.cond(system.a_matrix))


@pytest.mark.parametrize("field, crop", [((48, 48), 47), ((32, 40), 31), ((97, 130), 95),
                                         ((768, 768), 501)])
def test_structural_rank_bounds_the_float64_rank(field, crop):
    # every cutoff 0.5-6, ROI 1x1-8x8 and rings 0 and 2: the SVD never finds
    # more rank than the passband count allows, and where the count falls
    # below K*L the next singular value is rounding noise
    deficient = 0
    for cutoff in np.arange(0.5, 6.01, 0.5):
        spec = OtfSpec(*field, float(cutoff))
        for ring in (0, 2):
            psf = simulated_blur(spec, 8, 8, ring, crop)
            for k in range(1, 9):
                for l in range(1, 9):
                    roi = centered_roi(*field, k, l)
                    a = system_matrix(psf, roi, observation_index(roi, field, ring))
                    s = np.linalg.svd(a, compute_uv=False)
                    # np.linalg.matrix_rank's own threshold
                    numerical = int(np.count_nonzero(s > s[0] * max(a.shape) * np.finfo(float).eps))
                    rank = structural_rank(spec, k, l)
                    assert numerical <= rank, (cutoff, ring, k, l)
                    if rank < k * l:
                        deficient += 1
                        assert s[rank] / s[0] <= 1e-15, (cutoff, ring, k, l)
    assert deficient > 0


def test_a_structurally_singular_system_is_refused_without_an_svd(monkeypatch):
    # 768^2 at cutoff 6 leaves 10x10 rank 95 of 100: the build refuses it
    # before np.linalg.cond runs, at any ring; without the estimate it builds
    spec = OtfSpec(768, 768, 6.0)
    roi = centered_roi(768, 768, 10, 10)
    psf = simulated_blur(spec, 10, 10, 2, 501)

    def no_svd(a):
        raise AssertionError("np.linalg.cond ran")

    monkeypatch.setattr(np.linalg, "cond", no_svd)
    for ring in (0, 2):
        idx = observation_index(roi, spec.shape, ring)
        with pytest.raises(SingularSystemError) as err:
            build_system(spec.shape, roi, idx, psf)
        assert str(err.value) == (
            "system matrix is structurally singular: rank 95 of 100 unknowns "
            "(condition estimate inf)"
        )
        assert err.value.condition == float("inf")
        assert np.isnan(build_system(spec.shape, roi, idx, psf, estimate_condition=False)
                        .condition_estimate)
    # a kernel read from a file has no passband to count: the SVD decides
    file_kernel = PsfKernel(grid=psf.grid, spec=None)
    with pytest.raises(AssertionError, match="np.linalg.cond ran"):
        build_system(spec.shape, roi, roi.cells(), file_kernel)


def test_an_infinite_condition_estimate_is_a_singular_system():
    # a cutoff below 1 keeps only the zero frequency: the kernel is constant,
    # the matrix rank one and its condition estimate inf
    psf = build_psf(OtfSpec(48, 48, 0.0), 47)
    roi = RoiSpec(22, 22, 3, 3)
    with pytest.raises(SingularSystemError, match="condition estimate inf"):
        build_system((48, 48), roi, roi.cells(), psf)
    system = build_system((48, 48), roi, roi.cells(), psf, estimate_condition=False)
    assert np.isnan(system.condition_estimate)


# ---------------------------------------------------------------------------
# a noisy trial's unit noise

def test_unit_rows_draws_one_normal_per_distinct_cell(small_psf):
    # a white unit field read at the cells: the distinct cells take
    # unit_noise's draws in row-major order, and a cell listed twice (here
    # the ring listed backwards after the ROI and four cells again) reads its
    # one draw
    roi = RoiSpec(20, 20, 3, 3)
    idx = observation_index(roi, (48, 48), 1)
    listed = np.vstack([idx[:9], idx[:8:-1], idx[[0, 12, 3, 20]]])
    system = build_system((48, 48), roi, listed, small_psf, estimate_condition=False)
    got = unit_rows(system, 11)
    distinct = sorted({(int(r), int(c)) for r, c in listed})
    drawn = unit_noise(11, len(distinct))
    want = drawn[[distinct.index((int(r), int(c))) for r, c in listed]]
    assert got.tobytes() == want.tobytes()
    assert unit_rows(system, 12).tobytes() != got.tobytes()

