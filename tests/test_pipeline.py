"""Tests for the experiment pipeline: metrics, localization, trials, scans."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

from roisolve import frequency, pipeline
from roisolve.frequency import effective_cutoff
from roisolve.errors import (
    BoundsError,
    DegenerateInputError,
    NoSignalError,
    ParameterError,
    ShapeError,
    SingularSystemError,
)
from roisolve.fileio import read_raster, write_pgm16
from roisolve.forward import NoiseSpec, observe_field, observe_field_at, observe_spatial
from roisolve.grid import RoiSpec, centered_roi, scatter_roi
from roisolve.optics import OtfSpec, PsfKernel, build_psf
from roisolve.pipeline import (
    DEFAULT_PSNR_GRID,
    DOMAIN_MODULES,
    DOMAINS,
    ExperimentReport,
    TrialResult,
    ad_spot_check,
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


def test_averaged_difference_matches_norm(rng):
    a = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    x = rng.normal(size=3)
    y = rng.normal(size=5) + 1j * rng.normal(size=5)
    expect = np.linalg.norm(a @ x - y) / 3
    assert averaged_difference(a, x, y) == pytest.approx(expect, rel=1e-15)
    # consistent data scores zero
    assert averaged_difference(a, x, a @ x) == pytest.approx(0.0, abs=1e-15)


def test_averaged_difference_shape_mismatch(rng):
    with pytest.raises(ShapeError):
        averaged_difference(np.eye(3), np.ones(3), np.ones(4))


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



def _whole_image_roi(arr, k_rows, l_cols):
    """The reference locate_roi's band must reproduce: the centroid of the
    thresholded cells summed over the whole image, snapped and clamped."""
    rows, cols = arr.shape
    weights = np.where(arr >= pipeline.LOCATE_THRESHOLD * arr.max(), arr, 0.0)
    total = float(weights.sum())
    row_c = float(weights.sum(axis=1) @ np.arange(rows)) / total
    col_c = float(weights.sum(axis=0) @ np.arange(cols)) / total
    top = int(np.floor(row_c - (k_rows - 1) / 2.0 + 0.5))
    left = int(np.floor(col_c - (l_cols - 1) / 2.0 + 0.5))
    return RoiSpec(min(max(top, 0), rows - k_rows), min(max(left, 0), cols - l_cols),
                   k_rows, l_cols)


def _seeded_frame(seed):
    """A blurred isolated ROI of 1-4 x 1-4 cells: every fourth on the paper's
    768x768 field at cutoff 6, the rest on small odd or non-square fields;
    most ROIs touch or nearly touch a border, so the blur wraps around."""
    rng = np.random.default_rng(seed)
    rows, cols, cutoff = ((768, 768, 6.0) if seed % 4 == 0 else
                          (*rng.choice([(96, 128), (131, 97), (64, 64)]), rng.uniform(3.0, 10.0)))
    k_rows, l_cols = (int(v) for v in rng.integers(1, 5, 2))

    def anchor(n, k):  # at or next to either border, or anywhere
        return int(rng.choice([0, 1, 2, n - k - 2, n - k - 1, n - k, rng.integers(0, n - k + 1)]))

    roi = RoiSpec(anchor(rows, k_rows), anchor(cols, l_cols), k_rows, l_cols)
    ideal = scatter_roi(rng.uniform(0.0, 256.0, roi.pixel_count), roi, rows, cols)
    return observe_field(ideal, OtfSpec(rows, cols, cutoff)), roi


def test_banded_locate_matches_the_whole_image_centroid(tmp_path):
    # 120 seeded frames, each as raw float64 and as a 16-bit PGM read back
    path = tmp_path / "frame.pgm"
    checked = 0
    for seed in range(120):
        observed, roi = _seeded_frame(seed)
        write_pgm16(path, observed)
        for arr in (observed, read_raster(path)):
            want = _whole_image_roi(arr, roi.k_rows, roi.l_cols)
            assert locate_roi(arr, roi.k_rows, roi.l_cols) == want, seed
            checked += 1
    assert checked == 240


def test_locate_weighs_nothing_between_two_far_blobs():
    # the lit rows are not contiguous; the dark rows between are in the band
    arr = np.zeros((64, 64))
    arr[5:8, 10:13] = 4.0
    arr[50:53, 40:43] = 4.0
    assert locate_roi(arr, 3, 3) == _whole_image_roi(arr, 3, 3) == RoiSpec(28, 25, 3, 3)


def test_locate_light_in_the_first_and_last_rows():
    arr = np.zeros((40, 40))
    arr[0, 10] = 2.0
    arr[39, 30] = 2.0
    assert locate_roi(arr, 1, 1) == _whole_image_roi(arr, 1, 1) == RoiSpec(20, 20, 1, 1)
    assert locate_roi(arr, 2, 3) == _whole_image_roi(arr, 2, 3)


def test_locate_a_single_lit_cell():
    arr = np.zeros((30, 30))
    arr[17, 23] = 3.0
    assert locate_roi(arr, 1, 1) == RoiSpec(17, 23, 1, 1)
    assert locate_roi(arr, 3, 2) == RoiSpec(16, 23, 3, 2)


def test_locate_weighs_a_cell_at_exactly_the_threshold():
    # 0.1 * 10.0 is exactly 1.0: that cell, alone in its row, still weighs
    arr = np.zeros((30, 30))
    arr[5, 5] = 10.0
    arr[25, 16] = pipeline.LOCATE_THRESHOLD * 10.0
    assert locate_roi(arr, 1, 1) == _whole_image_roi(arr, 1, 1) == RoiSpec(7, 6, 1, 1)

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_locate_refuses_a_non_finite_value_in_an_unlit_row(bad):
    arr = np.zeros((64, 64))
    arr[30:33, 30:33] = 5.0
    arr[60, 5] = bad
    with pytest.raises(ParameterError, match="NaN or Inf"):
        locate_roi(arr, 3, 3)


@pytest.mark.parametrize("value", [1e307, 1.7e308])
def test_locate_refuses_finite_values_that_overflow_the_centroid(value):
    arr = np.zeros((32, 32))
    arr[10:13, 10:13] = value
    with pytest.raises(ParameterError, match="overflow the centroid"):
        locate_roi(arr, 3, 3)


def test_locate_and_noisy_rhs_allocate_no_full_frame():
    # at the paper's setup: the frame is read in place, and a noisy trial's
    # peak starts from the ROI's rows, not a dark 768x768 frame
    spec = OtfSpec(768, 768, 6.0)
    roi = centered_roi(768, 768, 3, 3)
    pixels = np.random.default_rng(2).uniform(0.0, 256.0, 9)
    observed = observe_field(scatter_roi(pixels, roi, 768, 768), spec)
    system = roi_problem("frequency", roi, (768, 768), spec, 0)
    tracemalloc.start()
    try:
        locate_roi(observed, 3, 3)
        locate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        noisy_rhs(system, pixels, 9, DEFAULT_PSNR_GRID)
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


def test_effective_cutoff():
    assert effective_cutoff(6.0, 3, 3) == 6.0
    assert effective_cutoff(6.0, 10, 10) == pytest.approx(math.hypot(9, 9))
    assert effective_cutoff(6.0, 20, 2) == pytest.approx(math.hypot(19, 1))


def test_report_aggregates_skip_failed_trials():
    ok = [
        TrialResult("spatial", 3, t, 100 + t, ae=float(t + 1), ad=0.5 * (t + 1), condition=10.0)
        for t in range(3)
    ]
    bad = TrialResult(
        "spatial", 3, 3, 103, ae=float("nan"), ad=float("nan"), condition=float("nan"),
        error="SingularSystemError: boom",
    )
    report = ExperimentReport(
        domain="spatial", field_rows=48, field_cols=48, base_cutoff=10.0, psf_crop=47,
        trials_per_size=4, root_seed=7, solver="direct", extra_ring=0, noise_psnr_db=None,
        trials=ok + [bad],
    )
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
    manifest = report.manifest()
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


def test_table_experiment_frequency_records_cutoffs():
    report = run_table_experiment(
        "frequency", sizes=(2, 12), trials_per_size=2, root_seed=3, **SMALL
    )
    assert report.effective_cutoffs[2] == 10.0
    assert report.effective_cutoffs[12] == pytest.approx(math.hypot(11, 11))
    for t in report.trials[:2]:
        assert t.roi_size == 2
        assert t.error is None
        assert t.ae < 1e-6
    assert report.manifest()["effective_cutoff_12"] == repr(math.hypot(11.0, 11.0))


def test_table_experiment_ring_widens_spatial_system():
    plain = run_table_experiment("spatial", sizes=(3,), trials_per_size=2, root_seed=1, **SMALL)
    ringed = run_table_experiment(
        "spatial", sizes=(3,), trials_per_size=2, root_seed=1, extra_ring=2, **SMALL
    )
    assert plain.solver == "direct"
    assert ringed.solver == "least_squares"
    # same pixel draws, so the ring run cannot do worse on this tame field
    assert ringed.summaries()[3].mean_ae <= plain.summaries()[3].mean_ae * (1 + 1e-9) + 1e-12


def test_table_experiment_noise_raises_error_floor():
    quiet = run_table_experiment("spatial", sizes=(2,), trials_per_size=3, root_seed=11, **SMALL)
    noisy = run_table_experiment(
        "spatial", sizes=(2,), trials_per_size=3, root_seed=11, noise_psnr_db=40.0, **SMALL
    )
    assert noisy.noise_psnr_db == 40.0
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
    # each size builds its own kernel (or widens its own cutoff)
    kwargs = dict(trials_per_size=2, root_seed=13, **SMALL)
    both = run_table_experiment(domain, sizes=(2, 5), **kwargs)
    alone = [run_table_experiment(domain, sizes=(size,), **kwargs) for size in (2, 5)]
    assert all(t.error is None for t in both.trials)
    assert both.trials == alone[0].trials + alone[1].trials
    assert both.effective_cutoffs == {**alone[0].effective_cutoffs, **alone[1].effective_cutoffs}


@pytest.mark.parametrize("domain", DOMAINS)
def test_ad_spot_check_matches_table_trial(domain):
    report = run_table_experiment(domain, sizes=(4,), trials_per_size=1, root_seed=21, **SMALL)
    spot = ad_spot_check(domain, 4, trial=0, root_seed=21, **SMALL)
    assert spot == report.trials[0].ad


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


def test_scan_recovers_sample_spatial():
    sample = make_test_sample(48, 48, seed=1)
    rec = scan_reconstruct(sample, (3, 3), **SMALL, domain="spatial")
    assert np.abs(rec - sample).max() <= 1e-9


def test_scan_recovers_sample_frequency():
    # the corner-block systems run a few decades worse conditioned than the
    # image-domain ones on this field, so the bar is looser here
    sample = make_test_sample(48, 48, seed=1)
    rec = scan_reconstruct(sample, (3, 3), **SMALL, domain="frequency")
    assert np.abs(rec - sample).max() <= 1e-7


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
    base = scan_reconstruct(sample, (3, 3), **SMALL)
    edited = sample.copy()
    edited[9:12, 12:15] += 37.0
    rec = scan_reconstruct(edited, (3, 3), **SMALL)
    changed = np.zeros((48, 48), dtype=bool)
    changed[9:12, 12:15] = True
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
    spec = OtfSpec(rows, cols, effective_cutoff(cutoff, size + ring, size + ring))
    blur = build_psf(spec, 2 * (size + ring) + 1) if domain == "spatial" else spec
    system = roi_problem(domain, roi, shape, blur, ring)
    pixels = np.random.default_rng(5).uniform(0.0, 256.0, size * size)
    blurred = observe_field(scatter_roi(pixels, roi, rows, cols), system.spec)
    peak = observe_field_at(pixels, roi, system.spec)
    assert np.float64(peak).tobytes() == blurred.max().tobytes()
    clean = module.noiseless_rhs(system, pixels)
    want = module.frame_rhs(system, blurred)
    assert np.abs(clean - want).max() <= 1e-12 * np.abs(want).max()
    unit = module.unit_rows(system, peak, 9)
    levels = (math.inf,) + DEFAULT_PSNR_GRID + (math.inf, 0.0)
    got = noisy_rhs(system, pixels, 9, levels)
    assert got.shape == (len(levels), system.obs_index.shape[0])
    for db, row in zip(levels, got):
        want = clean if db == math.inf else clean + NoiseSpec(db, 9).sigma(peak) * unit
        assert row.tobytes() == want.tobytes(), db


@pytest.mark.parametrize("domain", DOMAINS)
def test_noisy_rhs_refuses_what_has_no_noisy_rows(domain, small_psf, small_spec):
    system = _small_system(domain, small_psf, small_spec)
    pixels = np.full(9, 100.0)
    with pytest.raises(ShapeError, match="does not match ROI pixel count"):
        noisy_rhs(system, pixels[:-1], 9, (80.0,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="NaN or Inf"):
            noisy_rhs(system, np.where(np.arange(9) == 4, bad, pixels), 9, (80.0,))
    with pytest.raises(DegenerateInputError, match="no positive peak"):
        noisy_rhs(system, np.zeros(9), 9, (80.0,))
    for bad in (math.nan, -math.inf):
        with pytest.raises(ParameterError, match="psnr_db must be a number or \\+inf"):
            noisy_rhs(system, pixels, 9, (math.inf, bad))
    if domain == "spatial":
        # a kernel read from a file has no transfer spec to blur the frame with
        file_kernel = PsfKernel(grid=small_psf.grid, spec=None)
        system = roi_problem("spatial", system.roi, (48, 48), file_kernel, 1)
        with pytest.raises(ParameterError, match="no transfer spec"):
            noisy_rhs(system, pixels, 9, (80.0,))


@pytest.mark.parametrize("domain", DOMAINS)
def test_noisy_rhs_at_infinite_levels_reads_no_peak_and_no_noise(
    domain, small_psf, small_spec, monkeypatch
):
    # +inf is the only way to say "noiseless": every row is noiseless_rhs bit
    # for bit, and neither the peak nor the unit noise is read
    system = _small_system(domain, small_psf, small_spec)
    pixels = np.random.default_rng(3).uniform(0.0, 256.0, 9)
    clean = DOMAIN_MODULES[domain].noiseless_rhs(system, pixels)

    def refused(*args, **kwargs):
        raise AssertionError("a noiseless level read noise")

    monkeypatch.setattr(pipeline, "observe_field_at", refused)
    monkeypatch.setattr(DOMAIN_MODULES[domain], "unit_rows", refused)
    for levels in ([math.inf], [math.inf, math.inf, math.inf]):
        got = noisy_rhs(system, pixels, 9, levels)
        assert got.shape == (len(levels), clean.size)
        assert all(row.tobytes() == clean.tobytes() for row in got)


def test_each_noise_trial_reads_its_noiseless_rows_once(monkeypatch):
    calls = {domain: 0 for domain in DOMAINS}
    for domain, module in DOMAIN_MODULES.items():
        original = module.noiseless_rhs

        def counted(system, pixels, _original=original, _domain=domain):
            calls[_domain] += 1
            return _original(system, pixels)

        monkeypatch.setattr(module, "noiseless_rhs", counted)
    sweep = noise_sweep(roi_size=3, psnr_grid=(40.0, 80.0), trials_per_level=3, root_seed=17,
                        **SMALL)
    assert all(p.failed == 0 for p in sweep.points)
    assert calls == {domain: 3 for domain in DOMAINS}


def test_table_sweep_and_spot_check_draw_through_one_trial_draw(monkeypatch):
    # each entry point draws a trial's pixels (and the table its seed id)
    # through _trial_pixels, the uniform draw of its trial_seed_sequence
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
                        domains=("spatial",), **SMALL)
    # the threshold's draws, then the trials'
    assert drawn == [(17, 3, 0), (17, 3, 1)] * 2
    means = [original(17, 3, t)[1].mean() for t in (0, 1)]
    assert sweep.threshold_ae == 0.01 * float(np.mean(means))
    drawn.clear()
    ad_spot_check("spatial", 3, trial=1, root_seed=17, **SMALL)
    assert drawn == [(17, 3, 1)]


# ---------------------------------------------------------------------------
# the domain boundary: one name check, one interface, blur type, transfer
# spec and frame shape

def test_every_entry_point_refuses_an_unknown_domain(small_psf):
    calls = {
        "run_table_experiment": lambda d: run_table_experiment(d, sizes=(2,), **SMALL),
        "noise_sweep": lambda d: noise_sweep(psnr_grid=(80.0,), trials_per_level=1,
                                             domains=(d,), **SMALL),
        "ad_spot_check": lambda d: ad_spot_check(d, 2, **SMALL),
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
DOMAIN_INTERFACE = ("simulated_blur", "observation_index", "build_system", "noiseless_rhs",
                    "unit_rows", "frame_rhs", "solve_system")


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
        # the 5x4 block stays inside the passband; no crop is read
        assert blur == OtfSpec(48, 48, max(10.0, math.hypot(4, 3)))
        wide = DOMAIN_MODULES[domain].simulated_blur(small_spec, 12, 9, 1, -1)
        assert wide.cutoff_radius == math.hypot(12, 9)


def _small_system(domain, small_psf, small_spec, ring=1):
    blur = small_psf if domain == "spatial" else small_spec
    return roi_problem(domain, RoiSpec(20, 20, 3, 3), (48, 48), blur, ring)


def test_each_domain_refuses_the_other_domains_blur(small_psf, small_spec):
    roi = RoiSpec(20, 20, 3, 3)
    with pytest.raises(ParameterError, match="reads an OtfSpec, got PsfKernel"):
        roi_problem("frequency", roi, (48, 48), small_psf, 0)
    with pytest.raises(ParameterError, match="reads a PsfKernel, got OtfSpec"):
        roi_problem("spatial", roi, (48, 48), small_spec, 0)


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("reader", ["noiseless_rhs", "unit_rows", "frame_rhs", "solve_system"])
def test_each_domain_refuses_the_other_domains_system(domain, reader, small_psf, small_spec):
    # a system names its domain; reading or solving it in the other domain
    # would compute numbers from indices and a matrix of the wrong kind
    (other,) = set(DOMAINS) - {domain}
    system = _small_system(other, small_psf, small_spec, ring=0)
    args = {"noiseless_rhs": (np.ones(9),), "unit_rows": (1.0, 7),
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
        DOMAIN_MODULES["spatial"].noiseless_rhs(system, np.ones(9))
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


def test_table_records_an_exactly_singular_system_as_failed_trials():
    # cutoff 0 passes only the zero frequency; least squares would return a
    # minimum-norm answer with condition inf and no error
    report = run_table_experiment(
        "spatial", sizes=(3,), trials_per_size=2, solver="least_squares",
        field_shape=(48, 48), cutoff_radius=0.0, psf_crop=47,
    )
    assert report.summaries()[3].failed == 2
    assert all(t.error.startswith("SingularSystemError") for t in report.trials)


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


def _count_full_ffts(monkeypatch):
    calls = {"n": 0}
    for name in ("fft2", "ifft2"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("domain, per_level", [("spatial", 0), ("frequency", 0)])
def test_sweep_full_field_ffts_per_level(monkeypatch, domain, per_level):
    calls = _count_full_ffts(monkeypatch)
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
    calls = _count_full_ffts(monkeypatch)
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
    # the full-field blur is pruned 1-D transforms, so neither noisy trials
    # nor scan's blurred preview calls fft2 or ifft2
    from roisolve import cli

    calls = _count_full_ffts(monkeypatch)
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
    assert report.manifest()["sizes"] == "3,2"


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
    # only ad_spot_check skips the estimate; the matrix and every solve stay put
    module = DOMAIN_MODULES[domain]
    method = module.METHODS[ring > 0]
    rng = np.random.default_rng(5)
    for size in (2, 3, 4):
        roi = centered_roi(48, 48, size, size)
        spec = OtfSpec(48, 48, effective_cutoff(10.0, size + ring, size + ring))
        blur = build_psf(spec, 47) if domain == "spatial" else spec
        idx = module.observation_index(roi, (48, 48), ring)
        with_cond, without = (
            module.build_system((48, 48), roi, idx, blur, estimate_condition=estimate)
            for estimate in (True, False)
        )
        assert with_cond.a_matrix.tobytes() == without.a_matrix.tobytes()
        assert np.isfinite(with_cond.condition_estimate)
        assert np.isnan(without.condition_estimate)
        rhs = module.noiseless_rhs(with_cond, rng.uniform(0.0, 256.0, size * size))
        solved = [module.solve_system(s, rhs, method).pixels for s in (with_cond, without)]
        assert solved[0].tobytes() == solved[1].tobytes()


def test_runs_build_only_the_kernel_window_their_systems_read(monkeypatch):
    import roisolve.spatial

    edges = []
    original = roisolve.spatial.build_psf

    def recorded(*args, **kwargs):
        psf = original(*args, **kwargs)
        edges.append(psf.crop_size)
        return psf

    monkeypatch.setattr(roisolve.spatial, "build_psf", recorded)
    report = run_table_experiment("spatial", sizes=(3, 2), trials_per_size=1, **SMALL)
    assert report.manifest()["psf_crop"] == "47"
    run_table_experiment("spatial", sizes=(2,), trials_per_size=1, extra_ring=2, **SMALL)
    sweep = noise_sweep(roi_size=2, psnr_grid=(80.0,), trials_per_level=1, extra_ring=1,
                        domains=("spatial",), **SMALL)
    assert sweep.psf_crop == 47
    ad_spot_check("spatial", 4, **SMALL)
    # one kernel per table size, each out to that size's own reach
    assert edges == [5, 3, 7, 5, 7]
