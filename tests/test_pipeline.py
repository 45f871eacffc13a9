"""Tests for the experiment pipeline: metrics, localization, trials, scans."""

import math

import numpy as np
import pytest

from roisolve import frequency
from roisolve.errors import (
    BoundsError,
    NoSignalError,
    ParameterError,
    ShapeError,
)
from roisolve.forward import NoiseSpec, noise_field, observe_field, observe_spatial
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
    effective_cutoff,
    locate_roi,
    make_test_sample,
    noise_stream_seed,
    noise_sweep,
    noisy_rhs,
    roi_problem,
    run_table_experiment,
    scan_reconstruct,
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
    with pytest.raises(ParameterError):
        locate_roi(arr, 2, 2, rel_threshold=0.0)
    with pytest.raises(ParameterError):
        locate_roi(arr, 2, 2, rel_threshold=1.5)
    with pytest.raises(BoundsError):
        locate_roi(arr, 9, 2)
    with pytest.raises(ShapeError):
        locate_roi(np.ones(8), 2, 2)


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
    assert report.sizes() == [3]
    assert report.failures(3) == 1
    assert report.mean_ae(3) == pytest.approx(2.0)
    assert report.std_ae(3) == pytest.approx(np.std([1.0, 2.0, 3.0]))
    assert report.mean_ad(3) == pytest.approx(1.0)
    assert report.max_ad(3) == pytest.approx(1.5)
    (row,) = report.summary_rows()
    assert row["roi_size"] == 3
    assert row["trials"] == 4
    assert row["failed"] == 1
    assert row["mean_ae"] == report.mean_ae(3)
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
    assert first.sizes() == [2, 3]
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
    vals = np.asarray([t.ae for t in report.trials_for(3)])
    assert report.mean_ae(3) == float(vals.mean())
    assert report.std_ae(3) == float(vals.std())
    ads = np.asarray([t.ad for t in report.trials_for(3)])
    assert report.max_ad(3) == float(ads.max())


def test_table_experiment_frequency_records_cutoffs():
    report = run_table_experiment(
        "frequency", sizes=(2, 12), trials_per_size=2, root_seed=3, **SMALL
    )
    assert report.effective_cutoffs[2] == 10.0
    assert report.effective_cutoffs[12] == pytest.approx(math.hypot(11, 11))
    for t in report.trials_for(2):
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
    assert ringed.mean_ae(3) <= plain.mean_ae(3) * (1 + 1e-9) + 1e-12


def test_table_experiment_noise_raises_error_floor():
    quiet = run_table_experiment("spatial", sizes=(2,), trials_per_size=3, root_seed=11, **SMALL)
    noisy = run_table_experiment(
        "spatial", sizes=(2,), trials_per_size=3, root_seed=11, noise_psnr_db=40.0, **SMALL
    )
    assert noisy.noise_psnr_db == 40.0
    assert noisy.mean_ae(2) > quiet.mean_ae(2)


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


def test_scan_recovers_sample_spatial(small_psf):
    sample = make_test_sample(48, 48, seed=1)
    rec = scan_reconstruct(sample, (3, 3), small_psf, domain="spatial")
    assert np.abs(rec - sample).max() <= 1e-9


def test_scan_recovers_sample_frequency(small_psf):
    # the corner-block systems run a few decades worse conditioned than the
    # image-domain ones on this field, so the bar is looser here
    sample = make_test_sample(48, 48, seed=1)
    rec = scan_reconstruct(sample, (3, 3), small_psf, domain="frequency")
    assert np.abs(rec - sample).max() <= 1e-7


@pytest.mark.parametrize("domain", DOMAINS)
def test_scan_nine_by_nine_in_three_tiles(domain):
    psf9 = build_psf(OtfSpec(9, 9, 3.0), 9)
    sample = make_test_sample(9, 9, seed=2)
    rec = scan_reconstruct(sample, (3, 3), psf9, domain=domain)
    assert np.abs(rec - sample).max() <= 1e-6


def test_scan_zero_sample_stays_zero(small_psf):
    rec = scan_reconstruct(np.zeros((12, 12)), (3, 3), small_psf)
    assert np.all(rec == 0.0)


@pytest.mark.parametrize(
    "domain, solver", [(d, m) for d, module in DOMAIN_MODULES.items() for m in module.METHODS]
)
def test_scan_explicit_solver_matches_shared_factorization(small_psf, domain, solver):
    # the transform path needs the kernel field to match the sample
    sample = make_test_sample(*((24, 24) if domain == "spatial" else (48, 48)), seed=5)
    default = scan_reconstruct(sample, (4, 4), small_psf, domain=domain)
    explicit = scan_reconstruct(sample, (4, 4), small_psf, domain=domain, solver=solver)
    np.testing.assert_allclose(explicit, default, atol=1e-9)


def test_scan_edit_one_tile_changes_only_that_tile(small_psf):
    sample = make_test_sample(48, 48, seed=6)
    base = scan_reconstruct(sample, (3, 3), small_psf)
    edited = sample.copy()
    edited[9:12, 12:15] += 37.0
    rec = scan_reconstruct(edited, (3, 3), small_psf)
    changed = np.zeros((48, 48), dtype=bool)
    changed[9:12, 12:15] = True
    np.testing.assert_array_equal(rec[~changed], base[~changed])
    assert np.abs(rec[changed] - base[changed]).max() > 1.0


def test_scan_validation(small_psf):
    sample = make_test_sample(48, 48, seed=0)
    with pytest.raises(ShapeError):
        scan_reconstruct(sample, (5, 5), small_psf)
    with pytest.raises(ParameterError):
        scan_reconstruct(sample, (0, 3), small_psf)
    with pytest.raises(ParameterError):
        scan_reconstruct(sample, (3, 3), small_psf, domain="fourier")
    with pytest.raises(ShapeError):
        scan_reconstruct(np.zeros((3, 3, 3)), (3, 3), small_psf)
    # transform-domain scans need kernel provenance matching the sample field
    psf9 = build_psf(OtfSpec(9, 9, 3.0), 9)
    with pytest.raises(ShapeError):
        scan_reconstruct(sample, (3, 3), psf9, domain="frequency")
    bare = PsfKernel(grid=small_psf.grid, spec=None)
    with pytest.raises(ShapeError):
        scan_reconstruct(sample, (3, 3), bare, domain="frequency")


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
        estimate_condition=False,
        **SMALL,
    )
    baseline = small_sweep.points_for("spatial")[0]
    assert baseline.mean_ae == table.mean_ae(3)
    assert baseline.std_ae == table.std_ae(3)


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
            estimate_condition=False,
            **SMALL,
        )
        assert point.mean_ae == table.mean_ae(3)
        assert point.std_ae == table.std_ae(3)
        assert point.failed == table.failures(3) == 0


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("shape, cutoff", [((48, 48), 10.0), ((768, 768), 6.0)])
def test_noisy_rhs_is_frame_rhs_of_each_noisy_frame(domain, shape, cutoff):
    # both readers are linear, so noisy_rhs reads clean and unit once and
    # forms every level on the system's rows; the reference reads each
    # level's frame clean + sigma * unit, as add_noise forms it
    module = DOMAIN_MODULES[domain]
    rows, cols = shape
    size, ring = 3, 2
    roi = centered_roi(rows, cols, size, size)
    spec = OtfSpec(rows, cols, effective_cutoff(cutoff, size + ring, size + ring))
    blur = build_psf(spec, 2 * (size + ring) + 1) if domain == "spatial" else spec
    system = roi_problem(domain, roi, shape, blur, ring, estimate_condition=False)
    pixels = np.random.default_rng(5).uniform(0.0, 256.0, size * size)
    clean = observe_field(scatter_roi(pixels, roi, rows, cols), system.spec)
    peak, unit = noise_field(clean, seed=9)
    sigmas = [NoiseSpec(db, 9).sigma(peak) for db in DEFAULT_PSNR_GRID]
    got = noisy_rhs(domain, system, clean, unit, sigmas)
    assert got.shape == (len(sigmas), system.obs_index.shape[0])
    for db, row, sigma in zip(DEFAULT_PSNR_GRID, got, sigmas):
        want = module.frame_rhs(system, clean + sigma * unit)
        if domain == "spatial":
            assert row.tobytes() == want.tobytes(), db
        else:
            # a partial DFT of the sum against the sum of two: rounding only
            assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max(), db


# ---------------------------------------------------------------------------
# the system boundary: blur type, transfer spec and frame shape

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
def test_system_carries_its_field_and_transfer_spec(domain, small_psf, small_spec):
    system = _small_system(domain, small_psf, small_spec)
    assert system.field_shape == (48, 48)
    assert system.spec == small_spec


def test_noiseless_rhs_refuses_a_system_without_a_transfer_spec(small_psf, small_spec):
    roi = RoiSpec(20, 20, 3, 3)
    file_kernel = PsfKernel(grid=small_psf.grid, spec=None)
    idx = frequency.observation_index(roi, (48, 48), 0)
    systems = {
        "spatial": roi_problem("spatial", roi, (48, 48), file_kernel, 0),
        "frequency": frequency.build_system((48, 48), roi, idx, otf_spec=None),
    }
    for domain, system in systems.items():
        assert system.spec is None
        with pytest.raises(ParameterError, match="no transfer spec"):
            DOMAIN_MODULES[domain].noiseless_rhs(system, np.ones(9))


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
    assert report.failures(3) == 2
    assert all(t.error.startswith("SingularSystemError") for t in report.trials)


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


def test_noisy_sweep_and_scan_run_no_2d_ffts(monkeypatch, small_psf, tmp_path):
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
        scan_reconstruct(make_test_sample(48, 48, seed=1), (3, 3), small_psf, domain=domain)
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
        builds.append(kwargs.get("estimate_condition"))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "build_system", counted)
    report = run_table_experiment(domain, sizes=(2, 3), trials_per_size=4, root_seed=2, **SMALL)
    assert builds == [True, True]
    assert all(t.error is None for t in report.trials)
    for size in (2, 3):
        conds = {t.condition for t in report.trials_for(size)}
        assert len(conds) == 1


def test_table_records_a_failed_system_build_per_trial():
    # a 3-cell kernel window cannot couple the cells of a 3x3 region
    report = run_table_experiment(
        "spatial", sizes=(3,), trials_per_size=2, root_seed=8,
        field_shape=(48, 48), cutoff_radius=10.0, psf_crop=3,
    )
    assert report.failures(3) == 2
    for t in report.trials:
        assert t.error.startswith("BoundsError")
        # the whole 3-cell crop is built, so the error names its reach
        assert t.error == "BoundsError: offsets reach +/-(2, 2), kernel window is only +/-1"
        assert t.seed == int(trial_seed_sequence(8, 3, t.trial).generate_state(1)[0])


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
    runs = [
        run_table_experiment(domain, sizes=(2, 3, 4), trials_per_size=2, root_seed=5,
                             extra_ring=ring, estimate_condition=estimate, **SMALL)
        for estimate in (True, False)
    ]
    for with_cond, without in zip(*(run.trials for run in runs)):
        assert (with_cond.ae, with_cond.ad) == (without.ae, without.ad)
        assert np.isfinite(with_cond.condition) and np.isnan(without.condition)


def test_runs_build_only_the_kernel_window_their_systems_read(monkeypatch):
    import roisolve.pipeline

    edges = []
    original = roisolve.pipeline.build_psf

    def recorded(*args, **kwargs):
        psf = original(*args, **kwargs)
        edges.append(psf.crop_size)
        return psf

    monkeypatch.setattr(roisolve.pipeline, "build_psf", recorded)
    report = run_table_experiment("spatial", sizes=(3, 2), trials_per_size=1, **SMALL)
    assert report.manifest()["psf_crop"] == "47"
    run_table_experiment("spatial", sizes=(2,), trials_per_size=1, extra_ring=2, **SMALL)
    sweep = noise_sweep(roi_size=2, psnr_grid=(80.0,), trials_per_level=1, extra_ring=1,
                        domains=("spatial",), **SMALL)
    assert sweep.psf_crop == 47
    ad_spot_check("spatial", 4, **SMALL)
    assert edges == [5, 7, 5, 7]
