"""Tests for the experiment pipeline: metrics, localization, trials, scans."""

import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest

from roisolve import forward, frequency, linear, pipeline, spatial
from roisolve.errors import (
    BoundsError,
    DegenerateInputError,
    NoSignalError,
    ParameterError,
    SelectionError,
    ShapeError,
    SingularSystemError,
)
from roisolve.cli import main
from roisolve.fileio import read_manifest, read_raster, write_pgm16, write_raw_matrix
from roisolve.forward import NoiseSpec, observe_field, observe_field_at, observe_spatial
from roisolve.grid import RoiSpec, centered_roi, scatter_roi
from roisolve.optics import OtfSpec, PsfKernel, build_psf, in_passband
from roisolve.pipeline import (
    DEFAULT_PSNR_GRID,
    DOMAIN_MODULES,
    DOMAINS,
    ExperimentReport,
    TrialResult,
    averaged_difference,
    averaged_error,
    locate_roi,
    make_test_sample,
    noise_stream_seed,
    noise_sweep,
    noisy_rhs,
    roi_problem,
    run_table_experiment,
    scan_reconstruct,
    summarize,
    trial_seed_sequence,
)

SMALL = dict(field_shape=(48, 48), cutoff_radius=10.0, psf_crop=47)
SMALL_ARGS = ["--field", "48x48", "--cutoff", "10", "--psf-crop", "47"]


def _run_manifest(out, name, *argv):
    """The manifest name of a command run on the SMALL setup into out."""
    assert main([*argv, *SMALL_ARGS, "--out", str(out)]) == 0
    return read_manifest(str(out / name))


# ---------------------------------------------------------------------------
# metrics


def test_averaged_error_known_value():
    # norm((3,0,0,0)) / 4 = 0.75
    assert averaged_error([3.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]) == 0.75


def test_averaged_error_matches_norm(rng):
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    assert averaged_error(a, b) == pytest.approx(np.linalg.norm(a - b) / 12, rel=1e-15)
    assert averaged_error(a, a) == 0.0


def test_averaged_error_shape_mismatch():
    with pytest.raises(ShapeError):
        averaged_error([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "recovered, ideal",
    [([1e200, 0.0], [0.0, 0.0]), ([1e308, 0.0], [-1e308, 0.0]), ([np.inf, 0.0], [0.0, 0.0])],
    ids=["squared-norm", "difference", "infinite"],
)
def test_averaged_error_refuses_an_overflow(recovered, ideal):
    with pytest.raises(ParameterError, match="averaged error overflows float64"):
        averaged_error(recovered, ideal)


def test_averaged_difference_matches_norm(rng, small_psf, small_spec):
    for domain in DOMAINS:
        for ring in (0, 1):
            system = _small_system(domain, small_psf, small_spec, ring)
            rows, n = system.shape
            x = rng.normal(size=n)
            y = rng.normal(size=rows) + (1j * rng.normal(size=rows) if domain == "frequency" else 0)
            expect = np.linalg.norm(system.a_matrix @ x - y) / n
            assert averaged_difference(system, x, y) == pytest.approx(expect, rel=1e-12)
            # consistent data scores zero
            assert averaged_difference(system, x, system @ x) == 0.0


def test_averaged_difference_shape_mismatch(small_psf, small_spec):
    for domain in DOMAINS:
        system = _small_system(domain, small_psf, small_spec)
        rows, n = system.shape
        with pytest.raises(ShapeError):
            averaged_difference(system, np.ones(n), np.ones(rows + 1))
        with pytest.raises(ShapeError):
            averaged_difference(system, np.ones(n - 1), np.ones(rows))


@pytest.mark.parametrize("domain", DOMAINS)
def test_averaged_difference_refuses_an_overflow(domain, small_psf, small_spec):
    # as averaged_error does: an infinite difference is an error, not a score
    system = _small_system(domain, small_psf, small_spec)
    rows, n = system.shape
    with pytest.raises(ParameterError, match="overflows float64"):
        averaged_difference(system, np.zeros(n), np.full(rows, 1e300))


# ---------------------------------------------------------------------------
# localization


def test_locate_centered_blob(small_psf):
    rows, cols = 48, 48
    roi = centered_roi(rows, cols, 3, 3)
    ideal = scatter_roi(np.full(9, 100.0), roi, rows, cols)
    obs = observe_spatial(ideal, small_psf)
    found = locate_roi(obs, 3, 3)
    assert (found.top, found.left) == (roi.top, roi.left)


def test_locate_off_center_blob(small_psf):
    rows, cols = 48, 48
    roi = RoiSpec(12, 30, 2, 2)
    ideal = scatter_roi(np.array([80.0, 200.0, 120.0, 90.0]), roi, rows, cols)
    obs = observe_spatial(ideal, small_psf)
    found = locate_roi(obs, 2, 2)
    assert abs(found.top - roi.top) <= 1
    assert abs(found.left - roi.left) <= 1


def test_locate_translation_equivariant(small_psf):
    rows, cols = 48, 48
    roi = RoiSpec(20, 20, 3, 3)
    ideal = scatter_roi(np.full(9, 64.0), roi, rows, cols)
    obs = observe_spatial(ideal, small_psf)
    base = locate_roi(obs, 3, 3)
    shifted = locate_roi(np.roll(obs, (4, -5), axis=(0, 1)), 3, 3)
    assert (shifted.top, shifted.left) == (base.top + 4, base.left - 5)


def test_locate_two_equal_pixels_snaps_to_midpoint():
    arr = np.zeros((24, 24))
    arr[10, 10] = 5.0
    arr[10, 14] = 5.0
    found = locate_roi(arr, 1, 1)
    assert (found.top, found.left) == (10, 12)


def test_locate_clamps_at_border():
    arr = np.zeros((16, 16))
    arr[0, 0] = 9.0
    found = locate_roi(arr, 4, 4)
    assert (found.top, found.left) == (0, 0)


def test_locate_no_signal():
    with pytest.raises(NoSignalError):
        locate_roi(np.zeros((8, 8)), 2, 2)
    with pytest.raises(NoSignalError):
        locate_roi(np.full((8, 8), -1.0), 2, 2)


def test_locate_validation():
    arr = np.ones((8, 8))
    with pytest.raises(BoundsError):
        locate_roi(arr, 9, 2)
    with pytest.raises(ShapeError):
        locate_roi(np.ones(8), 2, 2)



def _circular_roi(arr, k_rows, l_cols):
    """The reference locate_roi must reproduce: per axis, the circular mean of
    the thresholded cells' sums over the whole image, measured from the
    heaviest row or column, snapped to the nearer box that does not wrap."""
    weights = np.where(arr >= pipeline.LOCATE_THRESHOLD * arr.max(), arr, 0.0)
    anchor = []
    for sums, k in ((weights.sum(axis=1), k_rows), (weights.sum(axis=0), l_cols)):
        n, ref = sums.size, int(np.argmax(sums))
        mean = np.angle(sums @ np.exp(2j * np.pi * (np.arange(n) - ref) / n)) * n / (2 * np.pi)
        x = ref + mean - (k - 1) / 2
        a = int(np.floor(x + 0.5)) % n
        if a > n - k:
            a = 0 if (-x) % n < (x - (n - k)) % n else n - k
        anchor.append(a)
    return RoiSpec(*anchor, k_rows, l_cols)


def _seeded_frame(seed, middle=False):
    """A blurred isolated ROI of 1-4 x 1-4 cells: every fourth on the paper's
    768x768 field at cutoff 6, the rest on small odd or non-square fields;
    most ROIs touch or nearly touch a border, so the blur wraps around. A
    middle ROI sits in the middle half of each axis instead."""
    rng = np.random.default_rng(seed)
    rows, cols, cutoff = ((768, 768, 6.0) if seed % 4 == 0 else
                          (*rng.choice([(96, 128), (131, 97), (64, 64)]), rng.uniform(3.0, 10.0)))
    k_rows, l_cols = (int(v) for v in rng.integers(1, 5, 2))

    def anchor(n, k):  # at or next to either border, or anywhere
        if middle:
            return int(rng.integers(n // 4, 3 * n // 4 - k + 1))
        return int(rng.choice([0, 1, 2, n - k - 2, n - k - 1, n - k, rng.integers(0, n - k + 1)]))

    roi = RoiSpec(anchor(rows, k_rows), anchor(cols, l_cols), k_rows, l_cols)
    ideal = scatter_roi(rng.uniform(0.0, 256.0, roi.pixel_count), roi, rows, cols)
    return observe_field(ideal, OtfSpec(rows, cols, cutoff)), roi


def test_locate_matches_the_whole_image_circular_mean(tmp_path):
    # 300 seeded frames at or near the borders, whose light wraps around, and
    # 100 in the middle: each is located at the whole-image circular mean, no
    # anchor more than one cell from the truth and nearly all on it; the
    # first 160 also as a 16-bit PGM read back
    path = tmp_path / "frame.pgm"
    exact = 0
    for seed in range(400):
        observed, roi = _seeded_frame(seed, middle=seed >= 300)
        found = locate_roi(observed, roi.k_rows, roi.l_cols)
        assert found == _circular_roi(observed, roi.k_rows, roi.l_cols), seed
        off = max(abs(found.top - roi.top), abs(found.left - roi.left))
        assert off <= 1, seed
        exact += off == 0
        if seed < 160:
            write_pgm16(path, observed)
            arr = read_raster(path)
            assert locate_roi(arr, roi.k_rows, roi.l_cols) == _circular_roi(
                arr, roi.k_rows, roi.l_cols), seed
    assert exact >= 380, exact


def test_locate_weighs_nothing_between_two_far_blobs():
    # the lit rows are not contiguous and the rows between weigh nothing; the
    # mean takes the shorter arc, across the border for the rows
    arr = np.zeros((64, 64))
    arr[5:8, 10:13] = 4.0
    arr[41:44, 40:43] = 4.0
    assert locate_roi(arr, 3, 3) == _circular_roi(arr, 3, 3) == RoiSpec(55, 25, 3, 3)


def test_locate_light_in_the_first_and_last_rows():
    # on a circular field such light is one region lit across the border: it
    # is located there, in rows and in columns, and a box that would wrap
    # moves to the nearer border
    arr = np.zeros((40, 40))
    arr[[39, 0, 1], 10] = [2.0, 4.0, 2.0]  # centred on row 0
    late = np.roll(arr, -1, axis=0)  # centred on row 39
    for image, tops in ((arr, (0, 0, 0)), (late, (39, 38, 37))):
        for (k, l), top in zip(((1, 1), (2, 3), (3, 3)), tops):
            left = 10 - (l - 1) // 2
            assert locate_roi(image, k, l) == _circular_roi(image, k, l) == RoiSpec(top, left, k, l)
            assert locate_roi(image.T.copy(), l, k) == RoiSpec(left, top, l, k)
    # light at one edge only is located at that edge
    arr[[39, 1], 10] = 0.0
    assert locate_roi(arr, 2, 3) == _circular_roi(arr, 2, 3) == RoiSpec(0, 9, 2, 3)


def test_locate_a_single_lit_cell():
    arr = np.zeros((30, 30))
    arr[17, 23] = 3.0
    assert locate_roi(arr, 1, 1) == RoiSpec(17, 23, 1, 1)
    assert locate_roi(arr, 3, 2) == RoiSpec(16, 23, 3, 2)


def test_locate_weighs_a_cell_at_exactly_the_threshold():
    # 0.1 * 10.0 is exactly 1.0: that cell, alone in its row, still weighs and
    # moves the mean one cell on each axis from (5, 5)
    arr = np.zeros((64, 64))
    arr[5, 5] = 10.0
    arr[25, 16] = pipeline.LOCATE_THRESHOLD * 10.0
    assert locate_roi(arr, 1, 1) == _circular_roi(arr, 1, 1) == RoiSpec(6, 6, 1, 1)


def test_locate_moves_with_a_roll_across_the_border():
    # the mean is taken on the circle: rolling a middle frame so its region
    # lands at either border or a corner moves the anchor by the roll
    for seed in range(300, 320):
        observed, roi = _seeded_frame(seed, middle=True)
        (rows, cols), (k, l) = observed.shape, roi.shape
        found = locate_roi(observed, k, l)
        for top, left in ((0, found.left), (rows - k, found.left), (found.top, 0),
                          (found.top, cols - l), (0, cols - l), (rows - k, 0)):
            rolled = np.roll(observed, (top - found.top, left - found.left), axis=(0, 1))
            assert locate_roi(rolled, k, l) == RoiSpec(top, left, k, l), (seed, top, left)


@pytest.mark.parametrize("shape", [(8, 8), (31, 40)])
def test_locate_refuses_light_spread_evenly_round_the_frame(shape):
    # a uniform frame and two equal cells half a field apart have no circular
    # mean; rows or columns
    uniform = np.full(shape, 3.0)
    antipodal = np.zeros((2 * shape[0], shape[1]))
    antipodal[[1, 1 + shape[0]], 5] = 7.0
    for image in (uniform, antipodal, antipodal.T.copy()):
        with pytest.raises(BoundsError, match="spread evenly .* --roi"):
            locate_roi(image, 2, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_locate_refuses_a_non_finite_value_in_an_unlit_row(bad):
    arr = np.zeros((64, 64))
    arr[30:33, 30:33] = 5.0
    arr[60, 5] = bad
    with pytest.raises(ParameterError, match="NaN or Inf"):
        locate_roi(arr, 3, 3)


@pytest.mark.parametrize("value", [1e307, 1.7e308])
def test_locate_refuses_finite_values_that_overflow_the_centroid(value):
    # each row sums 20 cells: over float64 at both values
    arr = np.zeros((32, 32))
    arr[10:13, 10:30] = value
    with pytest.raises(ParameterError, match="overflow the centroid"):
        locate_roi(arr, 3, 3)


def test_locate_places_finite_values_just_short_of_overflow():
    # a 3x3 block of 1e307 sums to 9e307 along each axis: located
    arr = np.zeros((32, 32))
    arr[10:13, 10:13] = 1e307
    assert locate_roi(arr, 3, 3) == RoiSpec(10, 10, 3, 3)


def test_locate_and_noisy_rhs_allocate_no_full_frame():
    # at the paper's setup: the frame is read in place, and a noisy trial's
    # peak starts from the ROI's rows, not a dark 768x768 frame
    spec = OtfSpec(768, 768, 6.0)
    roi = centered_roi(768, 768, 3, 3)
    pixels = np.random.default_rng(2).uniform(0.0, 256.0, 9)
    observed = observe_field(scatter_roi(pixels, roi, 768, 768), spec)
    reader = frequency.NoiselessRows(roi_problem("frequency", roi, (768, 768), spec, 0))
    tracemalloc.start()
    try:
        locate_roi(observed, 3, 3)
        locate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        noisy_rhs(reader, pixels, 9, DEFAULT_PSNR_GRID)
        noisy_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert locate_peak < observed.nbytes / 2
    assert noisy_peak < observed.nbytes / 2


# ---------------------------------------------------------------------------
# seeding and trial bookkeeping


def test_trial_seeds_are_deterministic_and_distinct():
    a = trial_seed_sequence(7, 3, 0).generate_state(4)
    b = trial_seed_sequence(7, 3, 0).generate_state(4)
    np.testing.assert_array_equal(a, b)
    states = {
        tuple(trial_seed_sequence(7, size, trial).generate_state(2))
        for size in (2, 3, 4)
        for trial in (0, 1, 2)
    }
    assert len(states) == 9


def test_noise_seed_independent_of_pixel_stream():
    pixel_state = int(trial_seed_sequence(7, 3, 0).generate_state(1)[0])
    noise_state = noise_stream_seed(7, 3, 0)
    assert pixel_state != noise_state
    assert noise_stream_seed(7, 3, 0) == noise_state


def test_report_aggregates_skip_failed_trials(tmp_path, capsys):
    ok = [
        TrialResult("spatial", 3, t, 100 + t, ae=float(t + 1), ad=0.5 * (t + 1), condition=10.0)
        for t in range(3)
    ]
    bad = TrialResult(
        "spatial", 3, 3, 103, ae=float("nan"), ad=float("nan"), condition=float("nan"),
        error="SingularSystemError: boom",
    )
    report = ExperimentReport(solver="direct", trials=ok + [bad])
    ((size, row),) = report.summaries().items()
    assert size == 3
    assert row.trials == 4
    assert row.failed == 1
    assert row.mean_ae == pytest.approx(2.0)
    assert row.std_ae == pytest.approx(np.std([1.0, 2.0, 3.0]))
    assert row.mean_ad == pytest.approx(1.0)
    assert row.std_ad == pytest.approx(np.std([0.5, 1.0, 1.5]))
    assert row.max_ad == pytest.approx(1.5)
    assert row == summarize(report.trials)
    manifest = _run_manifest(tmp_path, "manifest_spatial.txt", "table", "--domain", "spatial",
                             "--sizes", "3", "--trials", "1")
    assert manifest["domain"] == "spatial"
    assert manifest["sizes"] == "3"
    assert manifest["noise_psnr_db"] == ""


# ---------------------------------------------------------------------------
# table experiments (small field so they stay fast)


def test_table_experiment_structure_and_determinism():
    kwargs = dict(sizes=(2, 3), trials_per_size=3, root_seed=99, **SMALL)
    first = run_table_experiment("spatial", **kwargs)
    again = run_table_experiment("spatial", **kwargs)
    assert list(first.summaries()) == [2, 3]
    assert len(first.trials) == 6
    for t, u in zip(first.trials, again.trials):
        assert t == u
    for t in first.trials:
        assert t.error is None
        assert t.seed == int(trial_seed_sequence(99, t.roi_size, t.trial).generate_state(1)[0])
        assert t.ae < 1e-3
        assert t.ad < 1e-12
        assert np.isfinite(t.condition)


def test_table_experiment_aggregates_match_manual():
    report = run_table_experiment("spatial", sizes=(3,), trials_per_size=4, root_seed=5, **SMALL)
    row = report.summaries()[3]
    vals = np.asarray([t.ae for t in report.trials])
    assert row.mean_ae == float(vals.mean())
    assert row.std_ae == float(vals.std())
    ads = np.asarray([t.ad for t in report.trials])
    assert row.max_ad == float(ads.max())


def test_table_experiment_frequency_runs_the_cutoff_it_was_given(tmp_path, capsys):
    # size 2 solves at cutoff 10; the 12x12 block reaches past it, so size 12
    # is marked at that same cutoff, and the manifest records the one cutoff
    report = run_table_experiment(
        "frequency", sizes=(2, 12), trials_per_size=2, root_seed=3, **SMALL
    )
    for t in report.trials[:2]:
        assert t.roi_size == 2
        assert t.error is None
        assert t.ae < 1e-6
    for t in report.trials[2:]:
        assert t.roi_size == 12 and t.error is None
        assert math.isnan(t.ae) and t.condition == math.inf
    manifest = _run_manifest(tmp_path, "manifest_frequency.txt", "table", "--domain", "frequency",
                             "--sizes", "2,12", "--trials", "2", "--seed", "3")
    assert manifest["base_cutoff"] == "10.0"
    assert not any(key.startswith("effective_cutoff") for key in manifest)


def test_table_experiment_ring_widens_spatial_system():
    plain = run_table_experiment("spatial", sizes=(3,), trials_per_size=2, root_seed=1, **SMALL)
    ringed = run_table_experiment(
        "spatial", sizes=(3,), trials_per_size=2, root_seed=1, extra_ring=2, **SMALL
    )
    assert plain.solver == "direct"
    assert ringed.solver == "least_squares"
    # same pixel draws, so the ring run cannot do worse on this tame field
    assert ringed.summaries()[3].mean_ae <= plain.summaries()[3].mean_ae * (1 + 1e-9) + 1e-12


def test_table_experiment_noise_raises_error_floor(tmp_path, capsys):
    quiet = run_table_experiment("spatial", sizes=(2,), trials_per_size=3, root_seed=11, **SMALL)
    noisy = run_table_experiment(
        "spatial", sizes=(2,), trials_per_size=3, root_seed=11, noise_psnr_db=40.0, **SMALL
    )
    manifest = _run_manifest(tmp_path, "manifest_spatial.txt", "table", "--domain", "spatial",
                             "--sizes", "2", "--trials", "3", "--seed", "11", "--noise-psnr", "40")
    assert manifest["noise_psnr_db"] == "40.0"
    assert noisy.summaries()[2].mean_ae > quiet.summaries()[2].mean_ae


def test_table_experiment_validation():
    with pytest.raises(ParameterError):
        run_table_experiment("fourier", sizes=(2,), **SMALL)
    with pytest.raises(ParameterError):
        run_table_experiment("spatial", sizes=(2,), trials_per_size=0, **SMALL)
    with pytest.raises(ParameterError):
        run_table_experiment("spatial", sizes=(2,), extra_ring=-1, **SMALL)
    with pytest.raises(ParameterError):
        run_table_experiment("spatial", sizes=(0,), **SMALL)


@pytest.mark.parametrize("domain", DOMAINS)
def test_a_sizes_trials_do_not_depend_on_the_runs_other_sizes(domain):
    # each size builds its own kernel (or, in the transform domain, reads its
    # own block of the one spectrum)
    kwargs = dict(trials_per_size=2, root_seed=13, **SMALL)
    both = run_table_experiment(domain, sizes=(2, 5), **kwargs)
    alone = [run_table_experiment(domain, sizes=(size,), **kwargs) for size in (2, 5)]
    assert all(t.error is None for t in both.trials)
    assert both.trials == alone[0].trials + alone[1].trials


@pytest.mark.parametrize("domain, cutoff", [("spatial", 10.0), ("frequency", 10.0),
                                            ("spatial", 0.0)])
def test_table_ad_is_the_systems_difference_at_the_known_pixels(domain, cutoff):
    # AD needs no solve: A times the trial's own pixels against its rows, bit
    # for bit, on a size the table solves and on one it marks (cutoff 0)
    report = run_table_experiment(domain, sizes=(4,), trials_per_size=1, root_seed=21,
                                  **{**SMALL, "cutoff_radius": cutoff})
    module = DOMAIN_MODULES[domain]
    blur = module.simulated_blur(OtfSpec(48, 48, cutoff), 4, 4, 0, 47)
    system = roi_problem(domain, centered_roi(48, 48, 4, 4), (48, 48), blur, 0,
                         estimate_condition=False)
    pixels = pipeline._trial_pixels(21, 4, 0)[1]
    rhs = module.NoiselessRows(system)(pixels)
    assert report.trials[0].error is None
    assert report.trials[0].ad == averaged_difference(system, pixels, rhs)


# ---------------------------------------------------------------------------
# scan and stitch


def test_make_test_sample_deterministic_and_bounded():
    a = make_test_sample(32, 40, seed=3)
    b = make_test_sample(32, 40, seed=3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (32, 40)
    assert a.min() >= 0.0
    assert a.max() < 256.0
    assert not np.array_equal(a, make_test_sample(32, 40, seed=4))
    with pytest.raises(ParameterError):
        make_test_sample(0, 4)


REPORT = ("imag_leakage", "negative_count", "min_pixel")


def _count_forward_work(monkeypatch):
    """Lists that grow at every linear.residual call, wherever the name is
    bound, at every system @ x product, and by name at every computation of
    a Solution report value."""
    calls = {"residual": [], "product": [], "report": []}

    def counted_residual(*args, _original=linear.residual):
        calls["residual"].append(None)
        return _original(*args)

    def counted_product(system, x, _original=linear.LinearSystem.__matmul__):
        calls["product"].append(np.shape(x))
        return _original(system, x)

    bound = [m for n, m in sys.modules.items()
             if n.startswith("roisolve") and getattr(m, "residual", None) is linear.residual]
    for module in bound:
        monkeypatch.setattr(module, "residual", counted_residual)
    monkeypatch.setattr(linear.LinearSystem, "__matmul__", counted_product)
    for name in REPORT:
        prop = vars(linear.Solution)[name]

        def counted_report(sol, _name=name, _original=prop.func):
            calls["report"].append(_name)
            return _original(sol)

        monkeypatch.setattr(prop, "func", counted_report)
    return calls


@pytest.mark.parametrize("domain", DOMAINS)
def test_a_solve_takes_no_residual_and_only_recover_reports_one(domain, monkeypatch, tmp_path,
                                                                small_psf, small_spec):
    # a solve forms no A x of its own and computes no report: scan pays for
    # its tiles' forward product alone, the table and the sweep for one
    # residual per AD they record, and recover for the one residual and the
    # one report it writes
    calls = _count_forward_work(monkeypatch)
    system = _small_system(domain, small_psf, small_spec, ring=0)
    rhs = system @ np.arange(1.0, 10.0)
    calls["product"].clear()
    for method in DOMAIN_MODULES[domain].METHODS:
        for clamp in (False, True):
            DOMAIN_MODULES[domain].solve_system(system, rhs, method, clamp_negative=clamp)
    assert calls == {"residual": [], "product": [], "report": []}

    scan_reconstruct(make_test_sample(24, 24), (3, 3), (24, 24), 6.0, 23, domain=domain)
    assert calls == {"residual": [], "product": [(9, 64)], "report": []}

    calls["product"].clear()
    table = run_table_experiment(domain, sizes=(2, 3), trials_per_size=3, root_seed=17,
                                 noise_psnr_db=40.0, **SMALL)
    assert all(t.error is None and math.isfinite(t.ad) for t in table.trials)
    assert len(calls["residual"]) == len(table.trials) == 6
    calls["residual"].clear()
    sweep = noise_sweep(roi_size=3, psnr_grid=(40.0, 80.0), trials_per_level=3, root_seed=17,
                        domains=(domain,), **SMALL)
    assert all(p.failed == 0 for p in sweep.points)
    assert len(calls["residual"]) == len(sweep.points) * 3 == 9
    assert calls["report"] == []

    roi = RoiSpec(20, 22, 2, 2)
    observed = observe_spatial(scatter_roi(np.array([40.0, 200.0, 120.0, 10.0]), roi, 48, 48),
                               small_psf)
    frame = tmp_path / "observed.raw"
    write_raw_matrix(frame, observed)
    # each read once, imag_leakage in the transform domain only: the
    # image-domain manifest has no such key
    report = sorted(REPORT if domain == "frequency" else REPORT[1:])
    for clamp in ([], ["--clamp"]):
        calls["residual"].clear()
        calls["report"].clear()
        assert main(["recover", "--observed", str(frame), "--size", "2x2", "--roi", "20,22",
                     "--cutoff", "10", "--domain", domain, *clamp,
                     "--out", str(tmp_path / f"rec{len(clamp)}")]) == 0
        assert len(calls["residual"]) == 1
        assert sorted(calls["report"]) == report


# square and non-square tiles: a stitch that swapped a tile's rows and
# columns would still pass on 3x3
TILES = ((3, 3), (2, 3), (3, 2))


def test_scan_recovers_sample_spatial():
    sample = make_test_sample(48, 48, seed=1)
    for tile in TILES:
        rec = scan_reconstruct(sample, tile, **SMALL, domain="spatial")
        assert np.abs(rec - sample).max() <= 1e-9, tile


def test_scan_recovers_sample_frequency():
    # the corner-block systems run a few decades worse conditioned than the
    # image-domain ones on this field, so the bar is looser here
    sample = make_test_sample(48, 48, seed=1)
    for tile in TILES:
        rec = scan_reconstruct(sample, tile, **SMALL, domain="frequency")
        assert np.abs(rec - sample).max() <= 1e-7, tile


@pytest.mark.parametrize("domain", DOMAINS)
def test_scan_nine_by_nine_in_three_tiles(domain):
    sample = make_test_sample(9, 9, seed=2)
    rec = scan_reconstruct(sample, (3, 3), (9, 9), 3.0, 9, domain=domain)
    assert np.abs(rec - sample).max() <= 1e-6


def test_scan_zero_sample_stays_zero():
    rec = scan_reconstruct(np.zeros((12, 12)), (3, 3), **SMALL)
    assert np.all(rec == 0.0)


@pytest.mark.parametrize(
    "domain, solver", [(d, m) for d, module in DOMAIN_MODULES.items() for m in module.METHODS]
)
def test_scan_explicit_solver_matches_shared_factorization(domain, solver):
    # the transform path needs the field to match the sample
    sample = make_test_sample(*((24, 24) if domain == "spatial" else (48, 48)), seed=5)
    default = scan_reconstruct(sample, (4, 4), **SMALL, domain=domain)
    explicit = scan_reconstruct(sample, (4, 4), **SMALL, domain=domain, solver=solver)
    np.testing.assert_allclose(explicit, default, atol=1e-9)


def test_scan_edit_one_tile_changes_only_that_tile():
    sample = make_test_sample(48, 48, seed=6)
    for k, l in TILES:
        base = scan_reconstruct(sample, (k, l), **SMALL)
        # the tile at tile row 3, tile column 4
        cell = (slice(3 * k, 4 * k), slice(4 * l, 5 * l))
        edited = sample.copy()
        edited[cell] += 37.0
        rec = scan_reconstruct(edited, (k, l), **SMALL)
        changed = np.zeros((48, 48), dtype=bool)
        changed[cell] = True
        np.testing.assert_array_equal(rec[~changed], base[~changed])
        assert np.abs(rec[changed] - base[changed]).max() > 1.0


def test_scan_validation():
    sample = make_test_sample(48, 48, seed=0)
    with pytest.raises(ShapeError):
        scan_reconstruct(sample, (5, 5), **SMALL)
    with pytest.raises(ParameterError):
        scan_reconstruct(sample, (0, 3), **SMALL)
    with pytest.raises(ParameterError):
        scan_reconstruct(sample, (3, 3), **SMALL, domain="fourier")
    with pytest.raises(ShapeError):
        scan_reconstruct(np.zeros((3, 3, 3)), (3, 3), **SMALL)
    # cutoff 0.5 passes only the zero frequency: a rank-one tile system,
    # refused before either SVD solver can run
    for solver in ("least_squares", "truncated"):
        with pytest.raises(SingularSystemError, match="condition estimate inf"):
            scan_reconstruct(make_test_sample(24, 24), (3, 3), (24, 24), 0.5, 23, solver=solver)
    # transform-domain scans need the field to be the sample's
    with pytest.raises(ShapeError, match=r"transfer spec field \(9, 9\) does not match 48x48"):
        scan_reconstruct(sample, (3, 3), (9, 9), 3.0, 9, domain="frequency")


# ---------------------------------------------------------------------------
# noise sweep


@pytest.fixture(scope="module")
def small_sweep():
    return noise_sweep(
        roi_size=3,
        psnr_grid=(40.0, 80.0, 120.0),
        trials_per_level=3,
        root_seed=17,
        **SMALL,
    )


def test_sweep_structure(small_sweep):
    for domain in DOMAINS:
        pts = small_sweep.points_for(domain)
        assert [p.psnr_db for p in pts] == [math.inf, 40.0, 80.0, 120.0]
        assert pts[0].amplitude_ratio == math.inf
        assert pts[1].amplitude_ratio == pytest.approx(100.0)
        assert all(p.failed == 0 for p in pts)


def test_sweep_error_drops_as_noise_fades(small_sweep):
    for domain in DOMAINS:
        by_db = {p.psnr_db: p.mean_ae for p in small_sweep.points_for(domain)}
        assert by_db[40.0] > by_db[80.0] > by_db[math.inf]


def test_sweep_threshold_and_crossing(small_sweep):
    # threshold is 1% of the mean ideal pixel over the reused trial draws
    means = []
    for trial in range(3):
        rng = np.random.default_rng(trial_seed_sequence(17, 3, trial))
        means.append(float(rng.uniform(0.0, 256.0, (3, 3)).mean()))
    assert small_sweep.threshold_ae == pytest.approx(0.01 * np.mean(means))
    for domain in DOMAINS:
        qualifying = [
            p.psnr_db
            for p in small_sweep.points_for(domain)
            if math.isfinite(p.psnr_db) and p.mean_ae <= small_sweep.threshold_ae
        ]
        assert qualifying, f"{domain}: no finite level met the threshold"
        assert small_sweep.crossing_db(domain) == min(qualifying)


def test_sweep_interpretation_mentions_both_unit_readings(small_sweep):
    text = "\n".join(small_sweep.interpretation_lines())
    assert "250" in text
    assert "47.96" in text
    assert "dB" in text


def test_sweep_names_levels_below_float_resolution():
    sweep = noise_sweep(
        roi_size=2, psnr_grid=(40.0, 320.0), trials_per_level=1, domains=("spatial",), **SMALL
    )
    (note,) = [line for line in sweep.interpretation_lines() if line.startswith("float64")]
    assert "320" in note
    assert "40" not in note


def test_sweep_noiseless_point_matches_table_run(small_sweep):
    table = run_table_experiment(
        "spatial",
        sizes=(3,),
        trials_per_size=3,
        root_seed=17,
        extra_ring=2,
        **SMALL,
    )
    baseline = small_sweep.points_for("spatial")[0]
    row = table.summaries()[3]
    assert baseline.mean_ae == row.mean_ae
    assert baseline.std_ae == row.std_ae


@pytest.mark.parametrize("domain", DOMAINS)
def test_sweep_every_point_matches_table_run(small_sweep, domain):
    # the sweep hoists the system and the noise draw out of the level loop;
    # each point must still equal a table run at its level, bit for bit
    for point in small_sweep.points_for(domain):
        table = run_table_experiment(
            domain,
            sizes=(3,),
            trials_per_size=3,
            root_seed=17,
            extra_ring=2,
            noise_psnr_db=None if math.isinf(point.psnr_db) else point.psnr_db,
            **SMALL,
        )
        row = table.summaries()[3]
        assert point.mean_ae == row.mean_ae
        assert point.std_ae == row.std_ae
        assert point.failed == row.failed == 0


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("shape, cutoff", [((48, 48), 10.0), ((768, 768), 6.0)])
def test_noisy_rhs_is_frame_rhs_of_each_noisy_frame(domain, shape, cutoff):
    # one route in both domains: each level is the noiseless rows plus sigma
    # times the domain's unit draw on the rows, sigma pinned to the full
    # blur's peak (bit for bit); the noiseless rows are the full blur's rows
    # to rounding, an infinite level anywhere in the call reads them byte for
    # byte, and 0 dB is a level (sigma is the peak)
    module = DOMAIN_MODULES[domain]
    rows, cols = shape
    size, ring = 3, 2
    roi = centered_roi(rows, cols, size, size)
    spec = OtfSpec(rows, cols, cutoff)
    blur = build_psf(spec, 2 * (size + ring) + 1) if domain == "spatial" else spec
    system = roi_problem(domain, roi, shape, blur, ring)
    pixels = np.random.default_rng(5).uniform(0.0, 256.0, size * size)
    blurred = observe_field(scatter_roi(pixels, roi, rows, cols), system.spec)
    peak = observe_field_at(pixels, roi, system.spec)
    assert np.float64(peak).tobytes() == blurred.max().tobytes()
    clean = module.NoiselessRows(system)(pixels)
    want = module.frame_rhs(system, blurred)
    assert np.abs(clean - want).max() <= 1e-12 * np.abs(want).max()
    unit = module.unit_rows(system, 9)
    levels = (math.inf,) + DEFAULT_PSNR_GRID + (math.inf, 0.0)
    got = noisy_rhs(_reader(system), pixels, 9, levels)
    assert got.shape == (len(levels), system.obs_index.shape[0])
    for db, row in zip(levels, got):
        want = clean if db == math.inf else clean + NoiseSpec(db, 9).sigma(peak) * unit
        assert row.tobytes() == want.tobytes(), db


@pytest.mark.parametrize("domain", DOMAINS)
def test_noisy_rhs_refuses_what_has_no_noisy_rows(domain, small_psf, small_spec):
    system = _small_system(domain, small_psf, small_spec)
    pixels = np.full(9, 100.0)
    with pytest.raises(ShapeError, match="does not match ROI pixel count"):
        noisy_rhs(_reader(system), pixels[:-1], 9, (80.0,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="NaN or Inf"):
            noisy_rhs(_reader(system), np.where(np.arange(9) == 4, bad, pixels), 9, (80.0,))
    with pytest.raises(DegenerateInputError, match="no positive peak"):
        noisy_rhs(_reader(system), np.zeros(9), 9, (80.0,))
    for bad in (math.nan, -math.inf):
        with pytest.raises(ParameterError, match="psnr_db must be a number or \\+inf"):
            noisy_rhs(_reader(system), pixels, 9, (math.inf, bad))
    if domain == "spatial":
        # a kernel read from a file has no transfer spec to blur the frame with
        file_kernel = PsfKernel(grid=small_psf.grid, spec=None)
        system = roi_problem("spatial", system.roi, (48, 48), file_kernel, 1)
        with pytest.raises(ParameterError, match="no transfer spec"):
            noisy_rhs(_reader(system), pixels, 9, (80.0,))


@pytest.mark.parametrize("domain", DOMAINS)
def test_noisy_rhs_refuses_a_dark_frame_before_any_row(domain, small_psf, small_spec, monkeypatch):
    # the peak is checked where it scales the noise (NoiseSpec.sigma), and
    # every sigma is taken before a row is read or drawn; at +inf levels
    # nothing scales, so the dark frame's rows are zeros
    system = _small_system(domain, small_psf, small_spec)
    module = DOMAIN_MODULES[domain]
    want = module.NoiselessRows(system)(np.zeros(9))
    assert not want.any()

    def refused(*args, **kwargs):
        raise AssertionError("a row was read before the peak was checked")

    reader = module.NoiselessRows(system)
    with monkeypatch.context() as patch:
        patch.setattr(module, "unit_rows", refused)
        patch.setattr(module.NoiselessRows, "__call__", refused)
        for levels in ([80.0], [math.inf, 0.0], [math.inf, 340.0, 40.0]):
            with pytest.raises(DegenerateInputError, match="no positive peak"):
                noisy_rhs(reader, np.zeros(9), 9, levels)
    monkeypatch.setattr(module, "unit_rows", refused)
    got = noisy_rhs(reader, np.zeros(9), 9, [math.inf, math.inf])
    assert got.shape == (2, want.size)
    assert got.tobytes() == np.vstack([want, want]).tobytes()


@pytest.mark.parametrize("domain", DOMAINS)
def test_noisy_rhs_at_infinite_levels_reads_no_peak_and_no_noise(
    domain, small_psf, small_spec, monkeypatch
):
    # +inf is the only way to say "noiseless": every row is the reader's rows
    # bit for bit, and neither the peak nor the unit noise is read
    system = _small_system(domain, small_psf, small_spec)
    pixels = np.random.default_rng(3).uniform(0.0, 256.0, 9)
    clean = DOMAIN_MODULES[domain].NoiselessRows(system)(pixels)

    def refused(*args, **kwargs):
        raise AssertionError("a noiseless level read noise")

    monkeypatch.setattr(pipeline, "observe_field_at", refused)
    monkeypatch.setattr(DOMAIN_MODULES[domain], "unit_rows", refused)
    for levels in ([math.inf], [math.inf, math.inf, math.inf]):
        got = noisy_rhs(_reader(system), pixels, 9, levels)
        assert got.shape == (len(levels), clean.size)
        assert all(row.tobytes() == clean.tobytes() for row in got)


def test_each_noise_trial_reads_its_noiseless_rows_once(monkeypatch):
    calls = {domain: 0 for domain in DOMAINS}
    for domain, module in DOMAIN_MODULES.items():
        original = module.NoiselessRows.__call__

        def counted(reader, pixels, _original=original, _domain=domain):
            calls[_domain] += 1
            return _original(reader, pixels)

        monkeypatch.setattr(module.NoiselessRows, "__call__", counted)
    sweep = noise_sweep(roi_size=3, psnr_grid=(40.0, 80.0), trials_per_level=3, root_seed=17,
                        **SMALL)
    assert all(p.failed == 0 for p in sweep.points)
    assert calls == {domain: 3 for domain in DOMAINS}


@pytest.mark.parametrize("domain", DOMAINS)
def test_noise_seeds_are_derived_only_where_a_level_is_finite(domain, monkeypatch):
    # a noiseless trial reads no noise, so it derives no noise seed; a noisy
    # table and the sweep, whose trials read every level in one call, derive
    # one per trial
    calls = []

    def counted(root_seed, size, trial, _original=noise_stream_seed):
        calls.append((size, trial))
        return _original(root_seed, size, trial)

    monkeypatch.setattr(pipeline, "noise_stream_seed", counted)
    for level in (None, math.inf):
        run_table_experiment(domain, sizes=(2, 3), trials_per_size=3, root_seed=17,
                             noise_psnr_db=level, **SMALL)
    assert calls == []
    table = run_table_experiment(domain, sizes=(2, 3), trials_per_size=3, root_seed=17,
                                 noise_psnr_db=40.0, **SMALL)
    assert all(t.error is None for t in table.trials)
    assert calls == [(size, trial) for size in (2, 3) for trial in range(3)]
    calls.clear()
    sweep = noise_sweep(roi_size=3, psnr_grid=(40.0, 80.0), trials_per_level=3, root_seed=17,
                        domains=(domain,), **SMALL)
    assert all(p.failed == 0 for p in sweep.points)
    assert calls == [(3, trial) for trial in range(3)]


def _count_per_size_work(monkeypatch, domain):
    """Counts of the domain's reader builds and of every twiddle evaluation,
    the systems' and the readers', wherever _twiddles is bound."""
    counts = {"readers": 0, "twiddles": 0}
    module = DOMAIN_MODULES[domain]

    class Counted(module.NoiselessRows):
        def __init__(self, system):
            counts["readers"] += 1
            super().__init__(system)

    def twiddles(*args, _original=forward._twiddles):
        counts["twiddles"] += 1
        return _original(*args)

    monkeypatch.setattr(module, "NoiselessRows", Counted)
    for namespace in (forward, spatial, frequency):
        monkeypatch.setattr(namespace, "_twiddles", twiddles)
    return counts


@pytest.mark.parametrize("domain", DOMAINS)
def test_per_size_work_is_done_once_per_size(domain, monkeypatch):
    # one reader per size, built beside its system: what the table and the
    # sweep build does not grow with the trials per size
    seen = []
    for trials in (1, 7):
        with monkeypatch.context() as patch:
            counts = _count_per_size_work(patch, domain)
            table = run_table_experiment(domain, sizes=(2, 3, 4), trials_per_size=trials,
                                         root_seed=17, **SMALL)
            assert len(table.trials) == 3 * trials
            assert all(t.error is None for t in table.trials)
            assert counts["readers"] == 3
            sweep = noise_sweep(roi_size=3, psnr_grid=(40.0, 80.0), trials_per_level=trials,
                                root_seed=17, domains=(domain,), **SMALL)
            assert all(p.failed == 0 for p in sweep.points)
            assert counts["readers"] == 4
            seen.append(counts["twiddles"])
    assert seen[0] == seen[1] > 0


@pytest.mark.parametrize("domain", DOMAINS)
def test_scan_and_recover_build_no_reader(domain, monkeypatch, tmp_path, small_psf):
    # neither reads noiseless rows: scan takes A x of its tiles, recover a frame
    module = DOMAIN_MODULES[domain]

    def refused(system):
        raise AssertionError("a noiseless-row reader was built")

    monkeypatch.setattr(module, "NoiselessRows", refused)
    scan_reconstruct(make_test_sample(24, 24), (3, 3), (24, 24), 6.0, 23, domain=domain)
    roi = RoiSpec(20, 22, 2, 2)
    observed = observe_spatial(scatter_roi(np.array([40.0, 200.0, 120.0, 10.0]), roi, 48, 48),
                               small_psf)
    frame = tmp_path / "observed.raw"
    write_raw_matrix(frame, observed)
    assert main(["recover", "--observed", str(frame), "--size", "2x2", "--roi", "20,22",
                 "--cutoff", "10", "--domain", domain, "--out", str(tmp_path / "rec")]) == 0


def test_table_and_sweep_draw_through_one_trial_draw(monkeypatch):
    # both draw a trial's pixels (and the table its seed id) through
    # _trial_pixels, the uniform draw of its trial_seed_sequence
    drawn = []
    original = pipeline._trial_pixels

    def recorded(root_seed, size, trial):
        seed_id, pixels = original(root_seed, size, trial)
        seq = trial_seed_sequence(root_seed, size, trial)
        assert seed_id == int(seq.generate_state(1)[0])
        want = np.random.default_rng(seq).uniform(0.0, 256.0, (size, size)).ravel()
        assert pixels.tobytes() == want.tobytes()
        drawn.append((root_seed, size, trial))
        return seed_id, pixels

    monkeypatch.setattr(pipeline, "_trial_pixels", recorded)
    table = run_table_experiment("spatial", sizes=(3,), trials_per_size=2, root_seed=17, **SMALL)
    assert drawn == [(17, 3, 0), (17, 3, 1)]
    assert [t.seed for t in table.trials] == [original(17, 3, t)[0] for t in (0, 1)]
    drawn.clear()
    sweep = noise_sweep(roi_size=3, psnr_grid=(80.0,), trials_per_level=2, root_seed=17,
                        **SMALL)
    # once per trial: the threshold and every domain's trials read one draw
    assert drawn == [(17, 3, 0), (17, 3, 1)]
    means = [original(17, 3, t)[1].mean() for t in (0, 1)]
    assert sweep.threshold_ae == 0.01 * float(np.mean(means))


# ---------------------------------------------------------------------------
# the domain boundary: one name check, one interface, blur type, transfer
# spec and frame shape

def test_every_entry_point_refuses_an_unknown_domain(small_psf):
    calls = {
        "run_table_experiment": lambda d: run_table_experiment(d, sizes=(2,), **SMALL),
        "noise_sweep": lambda d: noise_sweep(psnr_grid=(80.0,), trials_per_level=1,
                                             domains=(d,), **SMALL),
        "scan_reconstruct": lambda d: scan_reconstruct(np.zeros((6, 6)), (3, 3), **SMALL,
                                                       domain=d),
        "roi_problem": lambda d: roi_problem(d, RoiSpec(20, 20, 3, 3), (48, 48), small_psf, 0),
    }
    for name, call in calls.items():
        with pytest.raises(ParameterError, match="unknown domain 'fourier'"):
            call("fourier")
    with pytest.raises(ParameterError, match="unknown domain 'fourier'"):
        pipeline.domain_module("fourier")
    assert {d: pipeline.domain_module(d) for d in DOMAINS} == DOMAIN_MODULES


# what pipeline looks up on a domain module
DOMAIN_INTERFACE = ("simulated_blur", "observation_index", "structurally_singular",
                    "build_system", "NoiselessRows", "unit_rows", "frame_rhs", "solve_system")


def test_domain_modules_share_one_interface(small_spec):
    modules = list(DOMAIN_MODULES.values())
    for module in modules:
        assert len(module.METHODS) == len(set(module.METHODS)) == 3
        assert all(isinstance(m, str) for m in module.METHODS)
    for name in DOMAIN_INTERFACE:
        counts = {len(inspect.signature(getattr(m, name)).parameters) for m in modules}
        assert len(counts) == 1, name
    # each module's build_system names its DOMAIN_MODULES key on its systems
    roi = RoiSpec(20, 20, 2, 2)
    for domain, module in DOMAIN_MODULES.items():
        blur = module.simulated_blur(small_spec, 2, 2, 1, 47)
        idx = module.observation_index(roi, (48, 48), 1)
        assert module.build_system((48, 48), roi, idx, blur).domain == domain


@pytest.mark.parametrize("domain", DOMAINS)
def test_simulated_blur_is_the_domains_layout(domain, small_spec):
    blur = DOMAIN_MODULES[domain].simulated_blur(small_spec, 3, 2, 2, 47)
    if domain == "spatial":
        # offsets up to max(3, 2) - 1 + 2, cut from the whole crop
        assert blur.crop_size == 9
        assert blur.grid.tobytes() == build_psf(small_spec, 47).window(5, 5).tobytes()
    else:
        # the optics as given, whether the block stays inside the passband
        # (5x4) or not (13x10); no crop is read, and only a block past the
        # field is refused
        assert blur is small_spec
        assert DOMAIN_MODULES[domain].simulated_blur(small_spec, 12, 9, 1, -1) is small_spec
        with pytest.raises(BoundsError, match="beyond the 48x48 field"):
            DOMAIN_MODULES[domain].simulated_blur(small_spec, 46, 2, 3, 47)


def _small_system(domain, small_psf, small_spec, ring=1):
    blur = small_psf if domain == "spatial" else small_spec
    return roi_problem(domain, RoiSpec(20, 20, 3, 3), (48, 48), blur, ring)


def _reader(system):
    return DOMAIN_MODULES[system.domain].NoiselessRows(system)


def test_each_domain_refuses_the_other_domains_blur(small_psf, small_spec):
    roi = RoiSpec(20, 20, 3, 3)
    with pytest.raises(ParameterError, match="reads an OtfSpec, got PsfKernel"):
        roi_problem("frequency", roi, (48, 48), small_psf, 0)
    with pytest.raises(ParameterError, match="reads a PsfKernel, got OtfSpec"):
        roi_problem("spatial", roi, (48, 48), small_spec, 0)


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("reader", ["NoiselessRows", "unit_rows", "frame_rhs", "solve_system"])
def test_each_domain_refuses_the_other_domains_system(domain, reader, small_psf, small_spec):
    # a system names its domain; reading or solving it in the other domain
    # would compute numbers from indices and a matrix of the wrong kind
    (other,) = set(DOMAINS) - {domain}
    system = _small_system(other, small_psf, small_spec, ring=0)
    args = {"NoiselessRows": (), "unit_rows": (7,),
            "frame_rhs": (np.ones((48, 48)),), "solve_system": (np.ones(9),)}[reader]
    with pytest.raises(ParameterError, match=f"a {other}-domain system given to the {domain}"):
        getattr(DOMAIN_MODULES[domain], reader)(system, *args)


@pytest.mark.parametrize("domain", DOMAINS)
def test_system_carries_its_field_and_transfer_spec(domain, small_psf, small_spec):
    system = _small_system(domain, small_psf, small_spec)
    assert system.field_shape == (48, 48)
    assert system.spec == small_spec


def test_noiseless_rhs_refuses_a_system_without_a_transfer_spec(small_psf):
    # only a kernel read from a file leaves a system without a transfer spec:
    # the transform domain refuses to build one without it
    roi = RoiSpec(20, 20, 3, 3)
    file_kernel = PsfKernel(grid=small_psf.grid, spec=None)
    system = roi_problem("spatial", roi, (48, 48), file_kernel, 0)
    assert system.spec is None
    with pytest.raises(ParameterError, match="no transfer spec"):
        DOMAIN_MODULES["spatial"].NoiselessRows(system)
    idx = frequency.observation_index(roi, (48, 48), 0)
    with pytest.raises(ParameterError, match="reads an OtfSpec"):
        frequency.build_system((48, 48), roi, idx, None)


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("shape", [(48,), (10, 10), (48, 48, 1), (60, 60), (48, 47)])
def test_frame_rhs_refuses_a_frame_off_the_systems_field(domain, shape, small_psf, small_spec):
    system = _small_system(domain, small_psf, small_spec)
    frame_rhs = DOMAIN_MODULES[domain].frame_rhs
    with pytest.raises(ShapeError, match="is not 2-D on the field"):
        frame_rhs(system, np.ones(shape))
    assert frame_rhs(system, np.ones((48, 48))).shape == (system.obs_index.shape[0],)


def test_table_marks_an_exactly_singular_system(monkeypatch):
    # cutoff 0 passes only the zero frequency: rank 1 of 9, so no unique
    # solution. The table charts which sizes resolve: it keeps the trials
    # unsolved, each with its AD, AE nan and condition inf; noise, scan and
    # recover refuse the same system
    setup = dict(field_shape=(48, 48), cutoff_radius=0.0, psf_crop=47)
    solves = []
    solve = pipeline.spatial.solve_system

    def counted_solve(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(pipeline.spatial, "solve_system", counted_solve)
    report = run_table_experiment(
        "spatial", sizes=(3,), trials_per_size=2, solver="least_squares", **setup,
    )
    assert solves == []
    assert report.summaries()[3].failed == 0
    assert math.isnan(report.summaries()[3].mean_ae)
    for t in report.trials:
        assert t.error is None and t.condition == math.inf
        assert math.isnan(t.ae) and t.ad <= 1e-12
    refusal = "system matrix is structurally singular: rank 1 of 9 unknowns"
    sweep = noise_sweep(roi_size=3, psnr_grid=(80.0,), trials_per_level=2, domains=("spatial",),
                        **setup)
    assert all(p.failed == 2 and refusal in p.error for p in sweep.points)
    with pytest.raises(SingularSystemError, match=refusal):
        scan_reconstruct(make_test_sample(24, 24), (3, 3), (48, 48), 0.0, 47,
                         solver="least_squares")
    psf = build_psf(OtfSpec(48, 48, 0.0), 47)
    with pytest.raises(SingularSystemError, match=refusal):
        roi_problem("spatial", RoiSpec(20, 20, 3, 3), (48, 48), psf, 0)


def test_table_marks_a_transform_block_that_leaves_the_passband(monkeypatch):
    # 48x48 at cutoff 6: the 5x5 block stays inside the passband (its corner
    # at hypot(4, 4) = 5.66), the 6x6 and 7x7 blocks reach past it. A system
    # keeps the block's passband entries: 33 of the 6x6 block, of rank 33,
    # and the origin quadrant's 35 of the 7x7 one, fewer than 49 unknowns.
    # The table solves size 5 and marks 6 and 7, with no solve, AE nan,
    # condition inf and an AD read over the kept rows; noise, scan and
    # recover refuse those blocks, naming the entries kept and their rank
    setup = dict(field_shape=(48, 48), cutoff_radius=6.0, psf_crop=47)
    solves = []
    solve = pipeline.frequency.solve_system

    def counted_solve(system, *args):
        solves.append(system.roi.k_rows)
        return solve(system, *args)

    monkeypatch.setattr(pipeline.frequency, "solve_system", counted_solve)
    report = run_table_experiment("frequency", sizes=(5, 6, 7), trials_per_size=2, **setup)
    assert solves == [5, 5]
    assert [t.roi_size for t in report.trials] == [5, 5, 6, 6, 7, 7]
    for t in report.trials:
        assert t.error is None and t.ad <= 1e-10
        assert math.isnan(t.ae) == (t.condition == math.inf) == (t.roi_size > 5)
    spec, wide = OtfSpec(48, 48, 6.0), OtfSpec(48, 48, 12.0)
    for size, kept, rank in ((5, 25, 25), (6, 33, 33), (7, 35, 35)):
        roi = centered_roi(48, 48, size, size)
        assert frequency.structurally_singular(spec, roi, 0) == (size > 5)
        if size == 5:
            continue
        system = roi_problem("frequency", roi, (48, 48), spec, 0, estimate_condition=False)
        # the rows of the whole block, formed at a cutoff that holds it, that
        # lie inside the passband, in the block's order, to the bit
        block = roi_problem("frequency", roi, (48, 48), wide, 0, estimate_condition=False)
        inside = in_passband(spec, block.obs_index[:, 0], block.obs_index[:, 1])
        assert system.shape == (kept, size * size) and system.matrix is not None
        assert np.array_equal(system.obs_index, block.obs_index[inside])
        assert np.array_equal(system.a_matrix, block.a_matrix[inside])
        pixels = pipeline._trial_pixels(pipeline.DEFAULT_SEED, size, 0)[1]
        np.testing.assert_allclose(frequency.NoiselessRows(system)(pixels), system @ pixels,
                                   rtol=0, atol=1e-10)
        with pytest.raises(SelectionError, match=f"the {kept} of {size * size} selected entries "
                           rf"inside the passband \(cutoff 6.0\) have rank {rank} of "):
            roi_problem("frequency", roi, (48, 48), spec, 0)
    sweep = noise_sweep(roi_size=6, psnr_grid=(80.0,), trials_per_level=2,
                        domains=("frequency",), **setup)
    assert all(p.failed == 2 and "have rank 33 of 36 unknowns" in p.error for p in sweep.points)
    with pytest.raises(SelectionError, match="have rank 33 of 36 unknowns"):
        scan_reconstruct(make_test_sample(48, 48), (6, 6), (48, 48), 6.0, 47, domain="frequency")


def test_table_skips_the_svd_of_structurally_singular_sizes(monkeypatch):
    # 768^2 at cutoff 6: sizes 10-12 have rank 95, 109 and 111, so the table
    # builds each once without a condition estimate, solves none of its
    # trials and marks them; sizes 2-9 keep np.linalg.cond's bytes
    cond = np.linalg.cond
    conditions = {}

    def cond_below_10x10(a):
        if a.shape[1] >= 100:
            raise AssertionError(f"np.linalg.cond ran on a {a.shape} matrix")
        conditions[a.shape[1]] = float(cond(a))
        return cond(a)

    monkeypatch.setattr(np.linalg, "cond", cond_below_10x10)
    builds = []
    build = pipeline.spatial.build_system

    def counted_build(field_shape, roi, *args):
        builds.append(roi.k_rows)
        return build(field_shape, roi, *args)

    monkeypatch.setattr(pipeline.spatial, "build_system", counted_build)
    solves = []
    solve = pipeline.spatial.solve_system

    def counted_solve(system, *args):
        solves.append(system.roi.k_rows)
        return solve(system, *args)

    monkeypatch.setattr(pipeline.spatial, "solve_system", counted_solve)
    report = run_table_experiment("spatial", sizes=range(2, 13), trials_per_size=1,
                                  field_shape=(768, 768), cutoff_radius=6.0, psf_crop=501)
    assert builds == list(range(2, 13))
    assert solves == list(range(2, 10))
    assert sorted(conditions) == [k * k for k in range(2, 10)]
    for t in report.trials:
        assert t.error is None
        if t.roi_size >= 10:
            assert t.condition == math.inf and math.isnan(t.ae) and t.ad <= 1e-12
        else:
            assert t.condition == conditions[t.roi_size ** 2] and math.isfinite(t.ae)


def test_a_negative_seed_is_refused_before_any_draw():
    # numpy's seeding refuses one with a bare ValueError
    with pytest.raises(ParameterError, match="root_seed must be >= 0, got -1"):
        run_table_experiment("spatial", sizes=(2,), trials_per_size=1, root_seed=-1, **SMALL)
    with pytest.raises(ParameterError, match="root_seed must be >= 0, got -1"):
        noise_sweep(roi_size=2, psnr_grid=(80.0,), trials_per_level=1, root_seed=-1,
                    domains=("frequency",), **SMALL)
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        make_test_sample(6, 6, seed=-1)


def test_table_refuses_minus_infinite_noise():
    # only +inf means "no noise"; -inf used to run noiseless
    with pytest.raises(ParameterError, match="-inf"):
        run_table_experiment(
            "spatial", sizes=(2,), trials_per_size=1, noise_psnr_db=-math.inf, **SMALL
        )
    quiet = run_table_experiment("spatial", sizes=(2,), trials_per_size=1, **SMALL)
    inf = run_table_experiment(
        "spatial", sizes=(2,), trials_per_size=1, noise_psnr_db=math.inf, **SMALL
    )
    assert inf.trials == quiet.trials


def _count_calls(monkeypatch, targets=((np.fft, "fft2"), (np.fft, "ifft2"))):
    calls = {"n": 0}
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, _original=original, **kwargs):
            calls["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("domain, per_level", [("spatial", 0), ("frequency", 0)])
def test_sweep_full_field_ffts_per_level(monkeypatch, domain, per_level):
    calls = _count_calls(monkeypatch)
    counts = []
    for grid in ((40.0,), (40.0, 80.0, 120.0)):
        calls["n"] = 0
        noise_sweep(
            roi_size=3, psnr_grid=grid, trials_per_level=2, root_seed=17,
            domains=(domain,), **SMALL,
        )
        counts.append(calls["n"])
    # two more levels, two trials each
    assert counts[1] - counts[0] == per_level * 2 * 2


def test_noiseless_table_reads_no_full_field(monkeypatch):
    calls = _count_calls(monkeypatch)
    run_table_experiment("frequency", sizes=(2, 3), trials_per_size=2, root_seed=1, **SMALL)
    assert calls["n"] == 0
    # the kernel is built band-limited, with 1-D transforms only
    run_table_experiment("spatial", sizes=(2, 3), trials_per_size=2, root_seed=1, **SMALL)
    assert calls["n"] == 0


def test_transform_domain_noisy_trials_read_only_the_roi_and_the_passband(monkeypatch):
    # no frame is transformed and each trial's peak inverts a few of the 768
    # columns (a full blur inverts them all); the unit noise is pinned to
    # unit_spectrum_noise's draw on the entries above
    from roisolve import forward

    def refused(*args, **kwargs):
        raise AssertionError("a frame was transformed")

    inverted = []
    inverse_columns = forward._inverse_columns

    def counting(band, band_rows, rows, columns):
        inverted.append(columns.size)
        return inverse_columns(band, band_rows, rows, columns)

    monkeypatch.setattr(forward, "_inverse_columns", counting)
    monkeypatch.setattr(frequency, "image_spectrum_block", refused)
    sweep = noise_sweep(roi_size=3, psnr_grid=(40.0, 80.0), trials_per_level=2, root_seed=17,
                        domains=("frequency",))
    assert all(p.failed == 0 for p in sweep.points)
    assert len(inverted) >= 2 and sum(inverted) <= 2 * 16


def test_noisy_sweep_and_scan_run_no_2d_ffts(monkeypatch, tmp_path):
    # the full-field blur is pruned 1-D transforms, so noisy trials call no
    # fft2 or ifft2, and scan's blurred preview calls neither
    from roisolve import cli

    calls = _count_calls(monkeypatch)
    for domain in DOMAINS:
        noise_sweep(
            roi_size=3, psnr_grid=(40.0, 80.0), trials_per_level=2, root_seed=17,
            domains=(domain,), **SMALL,
        )
    for domain in DOMAINS:
        scan_reconstruct(make_test_sample(48, 48, seed=1), (3, 3), **SMALL, domain=domain)
    rc = cli.main(["scan", "--sample", "24x24", "--tile", "3x3", "--cutoff", "10", "--out", str(tmp_path)])
    assert rc == 0 and (tmp_path / "blurred.pgm").exists()
    assert calls["n"] == 0
    # the preview is passband products: no 1-D transform and no inverse-column
    # pass either. A transform-domain scan builds no kernel, so it runs none
    import roisolve.forward
    import roisolve.optics

    one_d = _count_calls(monkeypatch, [
        (np.fft, "fft"), (np.fft, "ifft"),
        (roisolve.forward, "_inverse_columns"), (roisolve.optics, "_inverse_columns"),
    ])
    argv = ["scan", "--sample", "24x24", "--tile", "3x3", "--cutoff", "10", "--domain", "frequency"]
    assert cli.main([*argv, "--out", str(tmp_path / "frequency")]) == 0
    assert (tmp_path / "frequency" / "blurred.pgm").exists()
    assert one_d["n"] == 0


@pytest.mark.parametrize("domain", DOMAINS)
def test_table_builds_one_system_per_size(monkeypatch, domain):
    import roisolve.frequency
    import roisolve.spatial

    module = roisolve.spatial if domain == "spatial" else roisolve.frequency
    builds = []
    original = module.build_system

    def counted(*args, **kwargs):
        builds.append(args[1].k_rows)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "build_system", counted)
    report = run_table_experiment(domain, sizes=(2, 3), trials_per_size=4, root_seed=2, **SMALL)
    assert builds == [2, 3]
    assert all(t.error is None for t in report.trials)
    for size in (2, 3):
        conds = {t.condition for t in report.trials if t.roi_size == size}
        assert len(conds) == 1


def test_table_records_a_failed_system_build_per_trial():
    # a 3-cell kernel window cannot couple the cells of a 3x3 region
    report = run_table_experiment(
        "spatial", sizes=(3,), trials_per_size=2, root_seed=8,
        field_shape=(48, 48), cutoff_radius=10.0, psf_crop=3,
    )
    row = report.summaries()[3]
    assert row.trials == row.failed == 2
    stats = (row.mean_ae, row.std_ae, row.mean_ad, row.std_ad, row.max_ad)
    assert all(math.isnan(v) for v in stats)
    for t in report.trials:
        assert t.error.startswith("BoundsError")
        # the whole 3-cell crop is built, so the error names its reach
        assert t.error == "BoundsError: offsets reach +/-(2, 2), kernel window is only +/-1"
        assert t.seed == int(trial_seed_sequence(8, 3, t.trial).generate_state(1)[0])
    sweep = noise_sweep(
        roi_size=3, psnr_grid=(80.0,), trials_per_level=2, root_seed=8, domains=("spatial",),
        field_shape=(48, 48), cutoff_radius=10.0, psf_crop=3,
    )
    assert [p.psnr_db for p in sweep.points] == [math.inf, 80.0]
    for point in sweep.points:
        assert point.failed == 2
        assert math.isnan(point.mean_ae) and math.isnan(point.std_ae)
    assert sweep.crossing_db("spatial") is None


def test_summaries_pool_a_repeated_size_in_first_run_order():
    report = run_table_experiment("spatial", sizes=(3, 2, 3), trials_per_size=2, **SMALL)
    summaries = report.summaries()
    assert list(summaries) == [3, 2]
    assert summaries[3].trials == 4
    assert summaries[3] == summarize([t for t in report.trials if t.roi_size == 3])


@pytest.mark.parametrize("n", [*range(1, 10), 15, 16, 17, 127, 128, 129, 300])
def test_summarize_matches_numpys_reductions_bit_for_bit(n):
    # counts on both sides of numpy's 8-wide unrolled and 128-element
    # pairwise summation blocks; values spanning magnitudes make the
    # summation order show in the last bits
    rng = np.random.default_rng(n)
    ae = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-12, 12, n)
    ad = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-16, -10, n)
    rows = [TrialResult("spatial", 3, t, t, float(ae[t]), float(ad[t]), 1.0) for t in range(n)]
    # failed trials, interleaved, are left out
    failed = [TrialResult("spatial", 3, t, t, math.nan, math.nan, math.nan, "ParameterError: x")
              for t in range(3)]
    for trials in (rows, [*failed[:2], *rows[: n // 2], failed[2], *rows[n // 2:]]):
        got = summarize(trials)
        assert (got.trials, got.failed) == (len(trials), len(trials) - n)
        want = (np.mean(ae), np.std(ae), np.mean(ad), np.std(ad), np.max(ad))
        have = (got.mean_ae, got.std_ae, got.mean_ad, got.std_ad, got.max_ad)
        assert [type(v) for v in have] == [float] * 5
        assert [float(v).hex() for v in have] == [float(v).hex() for v in want]


def test_summarize_of_an_all_failed_group_is_nan():
    failed = [TrialResult("frequency", 2, t, t, math.nan, math.nan, math.nan, "ShapeError: x")
              for t in range(4)]
    got = summarize(failed)
    assert (got.trials, got.failed) == (4, 4)
    assert all(math.isnan(v) for v in (got.mean_ae, got.std_ae, got.mean_ad, got.std_ad,
                                       got.max_ad))


def test_sweep_validation():
    with pytest.raises(ParameterError):
        noise_sweep(roi_size=0, psnr_grid=(40.0,), trials_per_level=1, **SMALL)
    with pytest.raises(ParameterError):
        noise_sweep(psnr_grid=(40.0, math.inf), trials_per_level=1, **SMALL)


@pytest.mark.parametrize(
    "kwargs",
    [{"domains": ("image",)}, {"trials_per_level": 0}, {"extra_ring": -1}],
)
def test_sweep_rejects_what_a_table_run_rejects(kwargs):
    args = {"roi_size": 3, "psnr_grid": (40.0,), "trials_per_level": 1, **kwargs}
    with pytest.raises(ParameterError):
        noise_sweep(**args, **SMALL)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_locate_rejects_non_finite(bad):
    arr = np.ones((8, 8))
    arr[3, 4] = bad
    with pytest.raises(ParameterError, match="NaN or Inf"):
        locate_roi(arr, 2, 2)


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("ring", [0, 1])
def test_condition_estimate_leaves_every_trial_alone(domain, ring):
    # the table skips the estimate only on sizes it marks and never solves;
    # elsewhere skipping it would leave the matrix and every solve put
    module = DOMAIN_MODULES[domain]
    method = module.METHODS[ring > 0]
    rng = np.random.default_rng(5)
    for size in (2, 3, 4):
        roi = centered_roi(48, 48, size, size)
        spec = OtfSpec(48, 48, 10.0)
        blur = build_psf(spec, 47) if domain == "spatial" else spec
        idx = module.observation_index(roi, (48, 48), ring)
        with_cond, without = (
            module.build_system((48, 48), roi, idx, blur, estimate_condition=estimate)
            for estimate in (True, False)
        )
        assert with_cond.a_matrix.tobytes() == without.a_matrix.tobytes()
        assert np.isfinite(with_cond.condition_estimate)
        assert np.isnan(without.condition_estimate)
        rhs = module.NoiselessRows(with_cond)(rng.uniform(0.0, 256.0, size * size))
        solved = [module.solve_system(s, rhs, method).pixels for s in (with_cond, without)]
        assert solved[0].tobytes() == solved[1].tobytes()


def test_runs_build_only_the_kernel_window_their_systems_read(monkeypatch, tmp_path, capsys):
    import roisolve.spatial

    edges = []
    original = roisolve.spatial.build_psf

    def recorded(*args, **kwargs):
        psf = original(*args, **kwargs)
        edges.append(psf.crop_size)
        return psf

    monkeypatch.setattr(roisolve.spatial, "build_psf", recorded)
    run_table_experiment("spatial", sizes=(3, 2), trials_per_size=1, **SMALL)
    # the manifests record the requested crop, not the windows built
    table = _run_manifest(tmp_path, "manifest_spatial.txt", "table", "--domain", "spatial",
                          "--sizes", "2", "--trials", "1", "--ring", "2")
    assert table["psf_crop"] == "47"
    sweep = _run_manifest(tmp_path, "noise_manifest.txt", "noise", "--domains", "spatial",
                          "--roi-size", "2", "--psnr", "80", "--trials", "1", "--ring", "1")
    assert sweep["psf_crop"] == "47"
    # one kernel per table size, each out to that size's own reach
    assert edges == [5, 3, 7, 5]
