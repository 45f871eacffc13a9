"""Contract checks for the library, one test per shipped guarantee.

Each test states its tolerance inline and prints the measured values, so a
verbose run gives one pass/fail line per guarantee. Everything runs on the
production configuration (768x768 field, cutoff 6, kernel crop 501) except
the property suite, which uses a small field because the properties hold at
any size. The 100x100 model-fidelity spot check builds a 10,000-unknown
image-domain system and is opt-in: pytest -m slow.
"""

import math

import numpy as np
import pytest

from roisolve import frequency, spatial
from roisolve.fileio import write_table_csv
from roisolve.forward import observe_spatial, observe_spectrum, spectrum_to_image
from roisolve.grid import RoiSpec, centered_roi, scatter_roi
from roisolve.optics import OtfSpec, build_otf, build_psf, effective_psf_positive
from roisolve.pipeline import (
    DOMAINS,
    averaged_error,
    make_test_sample,
    noise_sweep,
    run_table_experiment,
    scan_reconstruct,
)

FIELD = (768, 768)
CUTOFF = 6.0
CROP = 501


@pytest.fixture(scope="module")
def psf768():
    return build_psf(OtfSpec(*FIELD, CUTOFF), CROP)


def test_criterion_01_two_point_spatial_closed_form():
    p, q = 1.0, 0.9981
    x_a, x_b = 1.2, 3.4
    y_a = p * x_a + q * x_b
    y_b = q * x_a + p * x_b
    got_a, got_b = spatial.solve_two_point_1d(p, q, q, y_a, y_b)
    print(f"recovered ({got_a:.12f}, {got_b:.12f}), want (1.2, 3.4)")
    assert abs(got_a - x_a) <= 1e-9
    assert abs(got_b - x_b) <= 1e-9


def test_criterion_02_two_point_frequency_closed_form():
    n, a, b, c, d = 8, 3, 4, 0, 1
    x_a, x_b = 6.7, 8.9
    x_c = complex(x_a + x_b)  # zero frequency: plain sum
    # the four-decimal rounding of the published value needs a loosened
    # imaginary-residue check; the exactly recomputed value does not
    rounded = complex(-13.6376, -4.7376)
    got_a, got_b = frequency.solve_two_point_1d(
        n, a, b, c, d, x_c, rounded, imag_rtol=1e-3
    )
    print(f"rounded input:  ({got_a:.6f}, {got_b:.6f})")
    assert abs(got_a - x_a) <= 1e-3
    assert abs(got_b - x_b) <= 1e-3

    exact = x_a * np.exp(-2j * np.pi * a * d / n) + x_b * np.exp(-2j * np.pi * b * d / n)
    got_a, got_b = frequency.solve_two_point_1d(n, a, b, c, d, x_c, exact)
    print(f"exact input:    ({got_a:.12f}, {got_b:.12f})")
    assert abs(got_a - x_a) <= 1e-10
    assert abs(got_b - x_b) <= 1e-10


def test_criterion_03_spatial_table_small_sizes():
    square = run_table_experiment(
        "spatial", sizes=(2, 3), trials_per_size=20,
        field_shape=FIELD, cutoff_radius=CUTOFF, psf_crop=CROP,
    )
    ringed = run_table_experiment(
        "spatial", sizes=(2, 3), trials_per_size=20, extra_ring=2,
        field_shape=FIELD, cutoff_radius=CUTOFF, psf_crop=CROP,
    )
    square, ringed = square.summaries(), ringed.summaries()
    print(f"square system: 2x2 mean AE {square[2].mean_ae:.3e}, "
          f"3x3 mean AE {square[3].mean_ae:.3e}")
    print(f"ring-2 system: 2x2 mean AE {ringed[2].mean_ae:.3e}, "
          f"3x3 mean AE {ringed[3].mean_ae:.3e}")
    assert square[2].failed == 0 and square[3].failed == 0
    assert ringed[2].failed == 0 and ringed[3].failed == 0
    assert square[2].mean_ae <= 1e-5
    assert ringed[2].mean_ae <= 1e-5
    # the square 3x3 system sits at condition ~5e15 and misses this bound;
    # the widened observation set is the configuration that meets it
    assert ringed[3].mean_ae <= 1.0


def test_criterion_04_frequency_table_small_sizes():
    report = run_table_experiment(
        "frequency", sizes=(2, 3, 4), trials_per_size=20,
        field_shape=FIELD, cutoff_radius=CUTOFF, psf_crop=CROP,
    )
    summaries = report.summaries()
    for size, bound in ((2, 1e-5), (3, 1e-2), (4, 5.0)):
        mean = summaries[size].mean_ae
        print(f"{size}x{size}: mean AE {mean:.3e} (bound {bound:g})")
        assert summaries[size].failed == 0
        assert mean <= bound


def test_the_real_solve_beats_the_complex_lu_on_the_default_table():
    # the default transform-domain solve, real least squares on [Re A; Im A],
    # fits both parts of every entry; the complex LU fits the complex system
    # and drops the imaginary part of its answer
    reports = {
        solver: run_table_experiment(
            "frequency", sizes=(3, 4, 5), trials_per_size=20, solver=solver,
            field_shape=FIELD, cutoff_radius=CUTOFF, psf_crop=CROP,
        ).summaries()
        for solver in (None, "direct_complex")
    }
    for size in (3, 4, 5):
        real, lu = reports[None][size].mean_ae, reports["direct_complex"][size].mean_ae
        print(f"{size}x{size}: mean AE {real:.3e} real, {lu:.3e} complex LU")
        assert real < lu


def test_criterion_05_model_fidelity_all_sizes():
    # AD is solver-independent, so the SVD-backed solvers keep every trial
    # alive even where the square systems are hopeless to invert
    bounds = {"spatial": 1e-12, "frequency": 1e-10}
    solvers = {"spatial": "least_squares", "frequency": "stacked_real_lsq"}
    for domain in DOMAINS:
        report = run_table_experiment(
            domain, sizes=tuple(range(2, 21)), trials_per_size=3,
            solver=solvers[domain],
            field_shape=FIELD, cutoff_radius=CUTOFF, psf_crop=CROP,
        )
        worst = max(t.ad for t in report.trials)
        print(f"{domain}: worst AD over sizes 2..20 = {worst:.3e}")
        assert all(t.error is None for t in report.trials)
        assert worst <= bounds[domain]
    for domain in DOMAINS:
        _spot_check(domain, (30, 50))


def _spot_check(domain, sizes):
    # one table trial per size: both domains mark these sizes and solve
    # none (image-domain systems below full rank, transform-domain blocks
    # that leave the passband); the transform AD is read over the block's
    # entries inside the passband, the only rows its matrix holds
    report = run_table_experiment(
        domain, sizes=sizes, trials_per_size=1,
        field_shape=FIELD, cutoff_radius=CUTOFF, psf_crop=CROP,
    )
    for t in report.trials:
        print(f"{domain} {t.roi_size}x{t.roi_size} spot check: AD {t.ad:.3e}")
        assert t.error is None
        assert t.ad <= 5e-10


@pytest.mark.slow
def test_criterion_05_slow_spot_check_size_100():
    for domain in DOMAINS:
        _spot_check(domain, (100,))


def test_criterion_06_scan_reconstruction():
    sample = make_test_sample(300, 300, seed=0)
    recon = scan_reconstruct(sample, (3, 3), (300, 300), CUTOFF, 299, domain="spatial")
    ae = averaged_error(recon.ravel(), sample.ravel())
    ratio = ae / float(sample.mean())
    print(f"300x300 in 3x3 tiles: AE {ae:.3e} = {ratio:.3e} of the mean pixel")
    assert ratio <= 0.01

    small = make_test_sample(30, 30, seed=0)
    recon30 = scan_reconstruct(small, (3, 3), (30, 30), CUTOFF, 29, domain="spatial")
    rel = averaged_error(recon30.ravel(), small.ravel()) / float(small.mean())
    print(f"30x30 variant: relative error {rel:.3e}")
    assert rel <= 1e-4


def test_criterion_07_property_suite(tmp_path, psf768):
    spec = OtfSpec(48, 48, 10.0)
    psf = build_psf(spec, 47)
    otf = build_otf(spec)
    rng = np.random.default_rng(777)

    # the image-domain and transform-domain observation paths agree
    roi = centered_roi(48, 48, 3, 3)
    ideal = scatter_roi(rng.uniform(0, 256, 9), roi, 48, 48)
    gap = np.abs(
        observe_spatial(ideal, psf) - spectrum_to_image(observe_spectrum(ideal, otf))
    ).max()
    print(f"observation path agreement: {gap:.3e}")
    assert gap <= 1e-10

    # the filtered spectrum matches a quadruple-loop transform on small grids
    for rows, cols, cut in ((9, 11, 3.0), (16, 12, 4.0)):
        tiny_spec = OtfSpec(rows, cols, cut)
        field = rng.uniform(0, 256, (rows, cols))
        got = observe_spectrum(field, build_otf(tiny_spec))
        r_idx, c_idx = np.indices((rows, cols))
        worst = 0.0
        for u in range(rows):
            for v in range(cols):
                du, dv = min(u, rows - u), min(v, cols - v)
                gain = 1.0 if math.hypot(du, dv) <= cut else 0.0
                naive = gain * np.sum(
                    field * np.exp(-2j * np.pi * (r_idx * u / rows + c_idx * v / cols))
                ) / (rows * cols)
                worst = max(worst, abs(got[u, v] - naive))
        print(f"naive transform oracle {rows}x{cols}: {worst:.3e}")
        assert worst <= 1e-10

    # every kernel entry that can enter a system stays positive up to 20x20
    for k in (2, 10, 20):
        assert effective_psf_positive(psf768, k, k)
    print(f"production kernel positive through 20x20 "
          f"(floor {psf768.window(20, 20).min():.3e})")

    # the recovered pixels do not depend on which passband entries we pick
    roi2 = RoiSpec(21, 19, 2, 2)
    px = rng.uniform(0, 1, 4)
    spectrum = observe_spectrum(scatter_roi(px, roi2, 48, 48), otf)
    solutions = []
    for start in ((0, 0), (1, 2)):
        idx = roi2.cells() - roi2.cells()[0] + start  # 2x2 block at start
        system = frequency.build_system((48, 48), roi2, idx, otf_spec=spec)
        solutions.append(frequency.solve_system(system, spectrum[idx[:, 0], idx[:, 1]]).pixels)
    freedom = np.abs(solutions[0] - solutions[1]).max()
    print(f"selection freedom: {freedom:.3e}")
    assert np.abs(solutions[0] - px).max() <= 1e-8
    assert freedom <= 1e-8

    # 200 randomized small recoveries, both domains, random placements
    worst = 0.0
    for i in range(100):
        size = 2 if i % 2 == 0 else 3
        top = int(rng.integers(0, 48 - size + 1))
        left = int(rng.integers(0, 48 - size + 1))
        roi_i = RoiSpec(top, left, size, size)
        px = rng.uniform(0, 256, size * size)
        ideal = scatter_roi(px, roi_i, 48, 48)
        cells = roi_i.cells()
        sys_s = spatial.build_system((48, 48), roi_i, cells, psf, estimate_condition=False)
        y_s = observe_spatial(ideal, psf)[cells[:, 0], cells[:, 1]]
        worst = max(worst, np.abs(spatial.solve_system(sys_s, y_s).pixels - px).max())
        idx = cells - cells[0]  # the size x size block at the origin
        sys_f = frequency.build_system(
            (48, 48), roi_i, idx, otf_spec=spec, estimate_condition=False
        )
        y_f = observe_spectrum(ideal, otf)[idx[:, 0], idx[:, 1]]
        worst = max(worst, np.abs(frequency.solve_system(sys_f, y_f).pixels - px).max())
    print(f"worst of 200 randomized round trips: {worst:.3e}")
    assert worst <= 1e-6

    # identical seeds give byte-identical serialized reports
    paths = []
    for name in ("one.csv", "two.csv"):
        report = run_table_experiment(
            "frequency", sizes=(2, 3), trials_per_size=3, root_seed=4242,
            field_shape=(48, 48), cutoff_radius=10.0, psf_crop=47,
        )
        path = tmp_path / name
        write_table_csv(
            path,
            ["roi_size", "trial", "seed", "ae", "ad"],
            [(t.roi_size, t.trial, t.seed, t.ae, t.ad) for t in report.trials],
        )
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    print("report serialization is byte-identical across reruns")


def test_criterion_08_noise_sweep():
    report = noise_sweep(
        roi_size=3,
        psnr_grid=(40.0, 80.0, 160.0, 240.0, 300.0, 320.0, 340.0),
        trials_per_level=20,
        field_shape=FIELD, cutoff_radius=CUTOFF, psf_crop=CROP,
    )
    for domain in DOMAINS:
        by_db = {p.psnr_db: p.mean_ae for p in report.points_for(domain)}
        print(f"{domain}: AE(40 dB) {by_db[40.0]:.3e} >= AE(80 dB) {by_db[80.0]:.3e}, "
              f"noiseless {by_db[math.inf]:.3e}")
        assert by_db[40.0] >= by_db[80.0]
        assert by_db[80.0] >= by_db[math.inf]
        crossing = report.crossing_db(domain)
        print(f"{domain}: acceptability crossing at {crossing} dB")
        assert crossing is not None
    lines = report.interpretation_lines()
    for line in lines:
        print(line)
    text = "\n".join(lines)
    assert "dB" in text
    assert "ratio" in text
    assert "250" in text and "47.96" in text
