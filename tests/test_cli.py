"""End-to-end command line tests, run in-process through main()."""

import argparse
import contextlib
import csv
import inspect
import io
import math
import os
import re
import shutil
import subprocess
import warnings
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roisolve import cli, frequency, pipeline, spatial
from roisolve.cli import (
    expand_sizes,
    main,
    parse_complex,
    parse_dims,
    parse_size_ranges,
)
from roisolve.errors import BoundsError, ParameterError
from roisolve.fileio import (
    format_float,
    read_manifest,
    read_pgm16,
    read_raw_matrix,
    write_manifest,
    write_pgm16,
    write_raw_matrix,
)
from roisolve.forward import observe_field, observe_spatial, separable_blur
from roisolve.grid import RoiSpec, scatter_roi
from roisolve.linear import residual
from roisolve.optics import OtfSpec, build_psf, passband_mask, structural_rank
from roisolve.pipeline import make_test_sample

SMALL_ARGS = ["--field", "48x48", "--cutoff", "10", "--psf-crop", "47"]


# ---------------------------------------------------------------------------
# argument parsing helpers


def test_parse_dims_variants():
    assert parse_dims("3x4") == (3, 4)
    assert parse_dims("3,4") == (3, 4)
    assert parse_dims("10X20") == (10, 20)
    with pytest.raises(ValueError):
        parse_dims("3x4x5")


def test_parse_sizes_variants():
    assert expand_sizes(parse_size_ranges("2-5"), 768) == (2, 3, 4, 5)
    assert expand_sizes(parse_size_ranges("4,2,2"), 768) == (2, 4)
    assert expand_sizes(parse_size_ranges("2-4,9"), 768) == (2, 3, 4, 9)
    with pytest.raises(ValueError):
        parse_size_ranges(",")
    with pytest.raises(ValueError, match="size range '5-3' is empty"):
        parse_size_ranges("2,5-3")


def test_parse_sizes_checks_the_limit_before_expanding():
    assert parse_size_ranges("2-5, 9") == (range(2, 6), range(9, 10))
    assert expand_sizes(parse_size_ranges("9,2-4"), 9) == (2, 3, 4, 9)
    # a range too long to expand is refused by the child process below
    with pytest.raises(BoundsError, match="ROI size 1000 does not fit"):
        expand_sizes(parse_size_ranges("2,1-1000"), 768)


# a child process under a 1 GiB address-space cap: expanding the range would
# raise MemoryError (exit 1) there instead of exhausting the machine
_SIZES_BOUND_SCRIPT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from roisolve.cli import main
from roisolve.fileio import write_manifest
out, cfg = sys.argv[1], sys.argv[2]
base = ["table", "--domain", "spatial", "--field", "48x48", "--cutoff", "10", "--out", out]
write_manifest(cfg, {"sizes": "1-10000000000"})
print(main([*base, "--sizes", "1-10000000000"]), main([*base, "--config", cfg]))
"""


def _run_capped(script: str, *args, threads: int = 1) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, timeout=120, env=env)


def test_huge_sizes_range_exits_2_without_expanding(tmp_path):
    run = _run_capped(_SIZES_BOUND_SCRIPT, tmp_path / "out", tmp_path / "c")
    assert run.stdout.split() == ["2", "2"], run.stderr
    assert run.stderr.count("ROI size 10000000000 does not fit the field (at most 48)") == 2
    assert not (tmp_path / "out").exists()


_NO_SCIPY_SCRIPT = """
import sys
import roisolve
from roisolve.cli import main
code = main(["noise", "--field", "48x48", "--cutoff", "10", "--roi-size", "2", "--trials", "1",
             "--psnr", "80", "--out", sys.argv[1]])
print(code, "scipy" in sys.modules)
"""


def test_a_least_squares_command_never_imports_scipy(tmp_path):
    # importing scipy.linalg used to be most of every command's start-up
    run = _run_capped(_NO_SCIPY_SCRIPT, tmp_path / "out")
    assert run.stdout.split()[-2:] == ["0", "False"], run.stderr


_TABLE_SCRIPT = """
import sys
from roisolve.cli import main
sys.exit(main(["table", "--domain", sys.argv[2], "--sizes", "10-12", "--trials", "3",
               "--out", sys.argv[1]]))
"""


@pytest.mark.parametrize("domain", ["spatial", "frequency"])
def test_table_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, domain):
    # a dense LU of 100-144 unknowns gives AE bits that move with the BLAS
    # thread count: the transform domain solves these sizes in their K x K
    # factors, and the image domain marks them structurally singular and
    # solves none
    blobs = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        run = _run_capped(_TABLE_SCRIPT, out, domain, threads=threads)
        assert run.returncode == 0, run.stderr
        blobs.append((out / f"trials_{domain}.csv").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("by_config", [False, True])
def test_reversed_sizes_piece_exits_2(tmp_path, by_config):
    # an empty piece is refused, not dropped with the run going on without it
    config = tmp_path / "run.cfg"
    write_manifest(config, {"sizes": "2,5-3"})
    out = tmp_path / "out"
    argv = ["table", "--domain", "spatial", "--trials", "1", *SMALL_ARGS, "--out", str(out)]
    argv += ["--config", str(config)] if by_config else ["--sizes", "2,5-3"]
    code, _, err = _run(argv)
    assert code == 2
    assert "5-3" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, entries",
    [
        (["table", "--domain", "spatial", "--seed", "-1"], {}),
        (["noise", "--domains", "spatial", "--seed", "-3"], {}),
        (["scan", "--sample", "24x24", "--sample-seed", "-1"], {}),
        (["table", "--domain", "spatial"], {"seed": "-5"}),
    ],
)
def test_a_negative_seed_exits_2(tmp_path, argv, entries):
    # numpy's seeding refuses one with a bare ValueError: exit 1 and a traceback
    out = tmp_path / "out"
    argv = [*argv, "--trials", "1", *SMALL_ARGS] if argv[0] != "scan" else [*argv, "--cutoff", "10"]
    argv += ["--out", str(out)]
    if entries:
        write_manifest(tmp_path / "run.cfg", entries)
        argv += ["--config", str(tmp_path / "run.cfg")]
    code, _, err = _run(argv)
    assert code == 2
    assert "must be >= 0, got -" in err
    assert not out.exists()


# an ROI of 20000^2 pixels: drawing its pixels for the threshold would raise
# MemoryError under the cap before the ROI is checked against the field
_NOISE_ROI_BOUND_SCRIPT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from roisolve.cli import main
print(main(["noise", "--field", "48x48", "--cutoff", "10", "--roi-size", "20000",
            "--trials", "1", "--psnr", "80", "--out", sys.argv[1]]))
"""


def test_oversized_noise_roi_exits_2_before_drawing(tmp_path):
    run = _run_capped(_NOISE_ROI_BOUND_SCRIPT, tmp_path / "out")
    assert run.stdout.split() == ["2"], run.stderr
    assert "a 20000x20000 region does not fit in a 48x48 grid" in run.stderr
    assert not (tmp_path / "out").exists()


def test_parse_complex_accepts_both_suffixes():
    assert parse_complex("6.7-4.7i") == complex(6.7, -4.7)
    assert parse_complex("6.7-4.7j") == complex(6.7, -4.7)
    assert parse_complex("15.6") == complex(15.6, 0.0)


def test_resolve_solver_aliases():
    # the one mapping from a --solver value (or a library solver=) to a method
    resolve = pipeline.resolve_solver
    for domain, module in pipeline.DOMAIN_MODULES.items():
        for position, alias in enumerate(("direct", "lsq", "truncated")):
            assert resolve(domain, alias, 0) == module.METHODS[position]
        # the domain's own names pass through
        for name in module.METHODS:
            assert resolve(domain, name, 2) == name
        assert resolve(domain, None, 0) == module.DEFAULTS[0]
        assert resolve(domain, None, 2) == module.DEFAULTS[1]
    # the default: LU on a square image-domain system, least squares on a
    # ring, and the real least squares at every transform-domain ring
    assert [resolve("spatial", None, ring) for ring in (0, 2)] == ["direct", "least_squares"]
    assert [resolve("frequency", None, ring) for ring in (0, 2)] == ["stacked_real_lsq"] * 2
    assert resolve("spatial", "lsq", 0) == "least_squares"
    assert resolve("frequency", "direct", 0) == "direct_complex"
    assert resolve("frequency", "lsq", 0) == "stacked_real_lsq"
    # a name no domain has, or the other domain's name, is refused naming the domain
    for domain, name in (("spatial", "qr"), ("frequency", "qr"), ("frequency", "least_squares"),
                         ("spatial", "direct_complex")):
        with pytest.raises(ParameterError, match=f"unknown solver '{name}' for the {domain} domain"):
            resolve(domain, name, 0)
    # library runs take the generic spellings too
    report = pipeline.run_table_experiment("frequency", sizes=(2,), trials_per_size=1,
                                           field_shape=(48, 48), cutoff_radius=10.0, solver="lsq")
    assert report.solver == "stacked_real_lsq"
    assert all(t.error is None for t in report.trials)


# ---------------------------------------------------------------------------
# psf


def test_psf_command_outputs(tmp_path, capsys):
    rc = main(["psf", *SMALL_ARGS, "--out", str(tmp_path)])
    assert rc == 0
    for name in ("psf.raw", "psf.pgm", "otf.raw", "psf_manifest.txt"):
        assert (tmp_path / name).exists()
    manifest = read_manifest(tmp_path / "psf_manifest.txt")
    spec = OtfSpec(48, 48, 10.0)
    count = int(passband_mask(spec).sum())
    assert manifest["passband_count"] == str(count)
    assert float(manifest["peak"]) == pytest.approx(count / (48 * 48))
    grid = read_raw_matrix(tmp_path / "psf.raw")
    np.testing.assert_array_equal(grid, build_psf(spec, 47).grid)
    assert "passband entries" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# table


def test_table_command_files_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    base = ["table", "--domain", "spatial", "--sizes", "2,3", "--trials", "2", *SMALL_ARGS]
    assert main([*base, "--out", str(out1)]) == 0
    assert main([*base, "--out", str(out2)]) == 0
    names = [
        "trials_spatial.csv",
        "ae_spatial.csv",
        "ad_spatial.csv",
        "manifest_spatial.txt",
    ]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    trials = (out1 / "trials_spatial.csv").read_text().strip().splitlines()
    assert trials[0].startswith("domain,roi_size,trial,seed,ae,ad,condition")
    assert len(trials) == 1 + 4  # 2 sizes x 2 trials
    ae = (out1 / "ae_spatial.csv").read_text().strip().splitlines()
    assert ae[0] == "roi_size,mean_ae,std_ae,failed"
    assert [row.split(",")[0] for row in ae[1:]] == ["2", "3"]
    manifest = read_manifest(out1 / "manifest_spatial.txt")
    assert manifest["domain"] == "spatial"
    assert manifest["solver"] == "direct"


def test_table_command_frequency_solver_alias(tmp_path):
    rc = main(
        [
            "table", "--domain", "frequency", "--sizes", "2", "--trials", "1",
            "--solver", "direct", *SMALL_ARGS, "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    manifest = read_manifest(tmp_path / "manifest_frequency.txt")
    assert manifest["solver"] == "direct_complex"
    assert manifest["base_cutoff"] == "10.0"
    assert not any(key.startswith("effective_cutoff") for key in manifest)


def test_table_config_precedence(tmp_path):
    config = tmp_path / "run.cfg"
    write_manifest(
        config,
        {
            "sizes": "2",
            "trials": "1",
            "field": "48x48",
            "cutoff": "10.0",
            "psf_crop": "47",
            "out": str(tmp_path / "from_config"),
        },
    )
    # config alone
    assert main(["table", "--domain", "spatial", "--config", str(config)]) == 0
    rows = (tmp_path / "from_config" / "trials_spatial.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 1
    # a flag overrides the config entry
    out2 = tmp_path / "flag_wins"
    rc = main(
        [
            "table", "--domain", "spatial", "--config", str(config),
            "--trials", "2", "--out", str(out2),
        ]
    )
    assert rc == 0
    rows = (out2 / "trials_spatial.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2


def test_table_bad_solver_exits_2(tmp_path):
    rc = main(
        [
            "table", "--domain", "spatial", "--sizes", "2", "--trials", "1",
            "--solver", "qr", *SMALL_ARGS, "--out", str(tmp_path),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("crop", ["-7", "0"])
@pytest.mark.parametrize(
    "command",
    [
        ["table", "--domain", "frequency", "--sizes", "2", "--trials", "1"],
        ["table", "--domain", "spatial", "--sizes", "2", "--trials", "1"],
        ["noise", "--roi-size", "2", "--trials", "1", "--psnr", "80"],
        ["scan", "--sample", "24x24", "--domain", "frequency"],
        ["psf"],
    ],
)
def test_psf_crop_below_one_exits_2(tmp_path, capsys, command, crop):
    # the transform domain does not read the kernel, but its manifest
    # records the crop: a crop below 1 is refused in every domain
    out = tmp_path / "out"
    argv = [*command, "--field", "48x48", "--cutoff", "10", f"--psf-crop={crop}"]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"--psf-crop must be >= 1, got {crop}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# two-point


def test_two_point_spatial_values(capsys):
    # forward model: y_a = p x_a + q_b x_b, y_b = q_a x_a + p x_b
    rc = main(
        [
            "two-point", "--domain", "spatial",
            "--p", "1.0", "--qa", "0.5", "--qb", "0.5",
            "--ya", "2.9", "--yb", "4.0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.strip().splitlines():
        name, _, value = line.partition(" = ")
        values[name] = float(value)
    assert values["x_a"] == pytest.approx(1.2)
    assert values["x_b"] == pytest.approx(3.4)


def test_two_point_spatial_singular_exits_4():
    rc = main(
        [
            "two-point", "--domain", "spatial",
            "--p", "1.0", "--qa", "1.0", "--qb", "1.0",
            "--ya", "1.0", "--yb", "1.0",
        ]
    )
    assert rc == 4


def test_two_point_missing_args_exits_2(capsys):
    rc = main(["two-point", "--domain", "spatial", "--p", "1.0"])
    assert rc == 2
    assert "--qa" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, foreign",
    [
        (["--domain", "spatial", "--p", "2", "--qa", "1", "--qb", "0.5", "--ya", "3",
          "--yb", "2", "--imag-tol", "5"], "--imag-tol"),
        (["--domain", "spatial", "--p", "2", "--length", "8"], "--length"),
        (["--domain", "frequency", "--length", "8", "--pos-a", "1", "--pos-b", "3",
          "--freq-c", "1", "--freq-d", "2", "--xc", "1", "--xd", "1", "--p", "2", "--qa", "1"],
         "--p, --qa"),
    ],
)
def test_two_point_refuses_the_other_domains_flags(argv, foreign, capsys):
    assert main(["two-point", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"does not read {foreign}" in captured.err


def test_two_point_frequency_round_trip(capsys):
    n, a, b, c, d = 8, 1, 3, 1, 2
    x = {a: 2.0, b: 5.0}
    spec = {
        f: sum(v * np.exp(-2j * np.pi * f * pos / n) for pos, v in x.items())
        for f in (c, d)
    }
    fmt = lambda z: f"{z.real:.17g}{z.imag:+.17g}i"
    rc = main(
        [
            "two-point", "--domain", "frequency",
            "--length", str(n), "--pos-a", str(a), "--pos-b", str(b),
            "--freq-c", str(c), "--freq-d", str(d),
            f"--xc={fmt(spec[c])}", f"--xd={fmt(spec[d])}",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    values = [float(line.partition(" = ")[2]) for line in out.strip().splitlines()]
    assert values[0] == pytest.approx(2.0, abs=1e-9)
    assert values[1] == pytest.approx(5.0, abs=1e-9)


def test_two_point_frequency_rounded_needs_wider_tolerance():
    argv = [
        "two-point", "--domain", "frequency",
        "--length", "8", "--pos-a", "1", "--pos-b", "3",
        "--freq-c", "1", "--freq-d", "2",
        "--xc=2.0-1.0i", "--xd=-1.23-0.57i",
    ]
    # inconsistent made-up numbers fail the strict default imaginary check
    assert main(argv) == 2
    assert main([*argv, "--imag-tol", "1.0"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--domain", "spatial", "--p", "nan", "--qa", "0.5", "--qb", "0.5", "--ya", "2.9",
         "--yb", "4.0"],
        ["--domain", "spatial", "--p", "1.0", "--qa", "0.5", "--qb", "0.5", "--ya", "inf",
         "--yb", "4.0"],
        ["--domain", "frequency", "--length", "8", "--pos-a", "3", "--pos-b", "4",
         "--freq-c", "0", "--freq-d", "1", "--xc", "nan", "--xd=-13.6376-4.7376i",
         "--imag-tol", "1e-3"],
        ["--domain", "frequency", "--length", "8", "--pos-a", "3", "--pos-b", "4",
         "--freq-c", "0", "--freq-d", "1", "--xc", "15.6", "--xd=-13.6376-4.7376i",
         "--imag-tol", "nan"],
    ],
)
def test_two_point_non_finite_input_exits_2(argv, capsys):
    assert main(["two-point", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # both results overflow to inf
        ["--domain", "spatial", "--p", "2", "--qa", "1", "--qb", "1", "--ya", "1e308",
         "--yb", "1e308"],
        # p^2 overflows; this is no singular system
        ["--domain", "spatial", "--p", "1e200", "--qa", "1", "--qb", "1", "--ya", "1",
         "--yb", "1"],
        # x_a overflows and x_b turns NaN, which no imaginary-residue test catches
        ["--domain", "frequency", "--length", "8", "--pos-a", "0", "--pos-b", "1",
         "--freq-c", "1", "--freq-d", "2", "--xc", "1e308", "--xd=-1e308"],
    ],
)
def test_two_point_overflow_exits_2(argv, capsys):
    assert main(["two-point", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflow" in captured.err


# ---------------------------------------------------------------------------
# recover


@pytest.fixture()
def observed_file(tmp_path, small_psf):
    pixels = np.array([[120.0, 30.0, 200.0], [80.0, 250.0, 10.0], [60.0, 90.0, 140.0]])
    roi = RoiSpec(20, 22, 3, 3)
    ideal = scatter_roi(pixels.ravel(), roi, 48, 48)
    observed = observe_spatial(ideal, small_psf)
    path = tmp_path / "observed.raw"
    write_raw_matrix(path, observed)
    return path, roi, pixels


def test_recover_spatial_round_trip(tmp_path, observed_file):
    path, roi, pixels = observed_file
    rc = main(
        [
            "recover", "--observed", str(path), "--size", "3x3",
            "--roi", f"{roi.top},{roi.left}", "--cutoff", "10",
            "--out", str(tmp_path / "rec"),
        ]
    )
    assert rc == 0
    recovered = read_raw_matrix(tmp_path / "rec" / "recovered.raw")
    assert np.abs(recovered - pixels).max() <= 1e-6
    manifest = read_manifest(tmp_path / "rec" / "recover_manifest.txt")
    assert manifest["roi"] == f"{roi.top},{roi.left},3,3"
    assert manifest["method"] == "direct"
    assert float(manifest["residual"]) <= 1e-9


def test_recover_locates_when_roi_omitted(tmp_path, observed_file, capsys):
    path, roi, pixels = observed_file
    rc = main(
        [
            "recover", "--observed", str(path), "--size", "3x3",
            "--cutoff", "10", "--out", str(tmp_path / "rec"),
        ]
    )
    assert rc == 0
    assert "located ROI" in capsys.readouterr().err
    recovered = read_raw_matrix(tmp_path / "rec" / "recovered.raw")
    assert np.abs(recovered - pixels).max() <= 1e-6


@pytest.mark.parametrize("anchor", [(0, 20), (45, 20), (20, 0), (20, 46), (0, 0)])
def test_recover_locates_a_roi_at_a_border(tmp_path, small_psf, capsys, anchor):
    # the blur is circular: the light of a region at a border also lights the
    # opposite border, and the circular mean locates it across that border
    pixels = np.array([120.0, 30.0, 200.0, 80.0, 250.0, 10.0])
    roi = RoiSpec(*anchor, 2, 2 if anchor[1] == 46 else 3)
    path = tmp_path / "observed.raw"
    write_raw_matrix(path, observe_spatial(scatter_roi(pixels[: roi.pixel_count], roi, 48, 48),
                                           small_psf))
    argv = ["recover", "--observed", str(path), "--size", f"{roi.k_rows}x{roi.l_cols}",
            "--cutoff", "10", "--out", str(tmp_path / "rec")]
    assert main(argv) == 0
    assert f"located ROI at ({anchor[0]}, {anchor[1]})" in capsys.readouterr().err
    recovered = read_raw_matrix(tmp_path / "rec" / "recovered.raw")
    assert np.abs(recovered.ravel() - pixels[: roi.pixel_count]).max() <= 1e-6


def test_recover_with_kernel_file(tmp_path, observed_file, small_psf):
    path, roi, pixels = observed_file
    kernel_path = tmp_path / "kernel.raw"
    write_raw_matrix(kernel_path, small_psf.grid)
    rc = main(
        [
            "recover", "--observed", str(path), "--size", "3x3",
            "--roi", f"{roi.top},{roi.left}", "--psf", str(kernel_path),
            "--out", str(tmp_path / "rec"),
        ]
    )
    assert rc == 0
    recovered = read_raw_matrix(tmp_path / "rec" / "recovered.raw")
    assert np.abs(recovered - pixels).max() <= 1e-6


def test_recover_frequency_domain(tmp_path, observed_file):
    path, roi, pixels = observed_file
    rc = main(
        [
            "recover", "--observed", str(path), "--size", "3x3",
            "--roi", f"{roi.top},{roi.left}", "--domain", "frequency",
            "--cutoff", "10", "--out", str(tmp_path / "rec"),
        ]
    )
    assert rc == 0
    recovered = read_raw_matrix(tmp_path / "rec" / "recovered.raw")
    assert np.abs(recovered - pixels).max() <= 1e-5
    manifest = read_manifest(tmp_path / "rec" / "recover_manifest.txt")
    assert "imag_leakage" in manifest


@pytest.mark.parametrize(
    "domain, ring, kernel_file",
    [("spatial", 1, False), ("frequency", 1, False), ("spatial", 2, True)],
)
def test_recover_non_square_ringed(tmp_path, small_psf, domain, ring, kernel_file):
    pixels = np.array([[120.0, 30.0, 200.0], [80.0, 250.0, 10.0]])
    roi = RoiSpec(20, 22, 2, 3)
    path = tmp_path / "observed.raw"
    write_raw_matrix(path, observe_spatial(scatter_roi(pixels.ravel(), roi, 48, 48), small_psf))
    argv = [
        "recover", "--observed", str(path), "--size", "2x3", "--roi", "20,22",
        "--domain", domain, "--ring", str(ring), "--cutoff", "10",
        "--out", str(tmp_path / "rec"),
    ]
    if kernel_file:
        write_raw_matrix(tmp_path / "kernel.raw", small_psf.grid)
        argv += ["--psf", str(tmp_path / "kernel.raw")]
    assert main(argv) == 0
    recovered = read_raw_matrix(tmp_path / "rec" / "recovered.raw")
    assert np.abs(recovered - pixels).max() <= 1e-9


@pytest.mark.parametrize("domain", ["spatial", "frequency"])
def test_recover_failed_least_squares_exits_4(tmp_path, observed_file, capsys, monkeypatch, domain):
    # the SVD failing to converge is a singular system, not a traceback: in
    # gelsd on an image-domain system, in the SVD that forms the transform
    # domain's real solve operator
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "lstsq" if domain == "spatial" else "svd", no_convergence)
    path, roi, _ = observed_file
    out = tmp_path / "rec"
    argv = ["recover", "--observed", str(path), "--size", "3x3", "--roi", f"{roi.top},{roi.left}",
            "--domain", domain, "--ring", "2", "--cutoff", "10", "--out", str(out)]
    assert main(argv) == 4
    assert "singular system: least-squares solve failed: SVD did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_recover_residual_flags_a_clamped_pgm_frame(tmp_path):
    # one ROI's blurred frame, written raw and as a PGM preview, which clamps
    # its negative lobes to 0 and quantizes the rest: the transform domain's
    # real solve leaves no imaginary part to show the clamp, and its
    # residual shows it by at least six orders
    spec, roi = OtfSpec(96, 96, 6.0), RoiSpec(40, 45, 3, 3)
    pixels = np.random.default_rng(5).uniform(1, 256, roi.pixel_count)
    frame = observe_field(scatter_roi(pixels, roi, *spec.shape), spec)
    assert frame.min() < 0
    residuals = {}
    for name, write in (("frame.raw", write_raw_matrix), ("frame.pgm", write_pgm16)):
        write(tmp_path / name, frame)
        out = tmp_path / name.replace(".", "_")
        assert main(["recover", "--observed", str(tmp_path / name), "--size", "3x3",
                     "--roi", "40,45", "--domain", "frequency", "--cutoff", "6",
                     "--out", str(out)]) == 0
        manifest = read_manifest(out / "recover_manifest.txt")
        assert manifest["method"] == "stacked_real_lsq"
        assert float(manifest["imag_leakage"]) == 0.0
        residuals[name] = float(manifest["residual"])
    assert residuals["frame.pgm"] >= 1e6 * residuals["frame.raw"]


@pytest.fixture()
def solver_frame(tmp_path):
    """A 48x48 frame holding a 2x2 block at (20, 22), blurred at cutoff 6."""
    ideal = np.zeros((48, 48))
    ideal[20:22, 22:24] = [[40.0, 200.0], [120.0, 10.0]]
    path = tmp_path / "frame.raw"
    write_raw_matrix(path, observe_spatial(ideal, build_psf(OtfSpec(48, 48, 6.0), 47)))
    return path


@pytest.mark.parametrize("solver", [None, "truncated", "direct"])
def test_recover_refuses_a_structurally_singular_system(tmp_path, solver_frame, capsys, solver):
    # cutoff 6 leaves a 10x10 region rank 95 of 100; its float64 condition
    # (1.6e18) used to switch to the truncated solver and exit 0
    out = tmp_path / "rec"
    argv = ["recover", "--observed", str(solver_frame), "--size", "10x10", "--roi", "16,16",
            "--cutoff", "6", "--out", str(out)]
    rc = main(argv + ([] if solver is None else ["--solver", solver]))
    assert rc == 4
    err = capsys.readouterr().err
    assert "singular system: system matrix is structurally singular: rank 95 of 100 unknowns" in err
    assert "switching" not in err
    assert not out.exists()


def test_recover_switches_an_ill_conditioned_system_to_the_truncated_solver(
    tmp_path, solver_frame, capsys
):
    # 6x6 has full structural rank at cutoff 6, but a condition near 1.5e15
    out = tmp_path / "rec"
    rc = main(["recover", "--observed", str(solver_frame), "--size", "6x6", "--roi", "16,16",
               "--cutoff", "6", "--out", str(out)])
    assert rc == 0
    assert "above 1e+14; switching to the truncated solver" in capsys.readouterr().err
    manifest = read_manifest(out / "recover_manifest.txt")
    assert manifest["method"] == "truncated"
    assert float(manifest["condition"]) > 1e14


def test_recover_missing_file_exits_3(tmp_path):
    rc = main(
        [
            "recover", "--observed", str(tmp_path / "nope.raw"),
            "--size", "2x2", "--out", str(tmp_path),
        ]
    )
    assert rc == 3


def test_recover_corrupt_file_exits_3(tmp_path):
    bad = tmp_path / "bad.raw"
    bad.write_bytes(b"2 3 real64\n" + b"\0" * 10)
    rc = main(
        ["recover", "--observed", str(bad), "--size", "2x2", "--out", str(tmp_path)]
    )
    assert rc == 3


def test_recover_dark_image_exits_5(tmp_path):
    dark = tmp_path / "dark.raw"
    write_raw_matrix(dark, np.zeros((32, 32)))
    rc = main(
        ["recover", "--observed", str(dark), "--size", "2x2", "--out", str(tmp_path)]
    )
    assert rc == 5


@pytest.mark.parametrize(
    "blob",
    [b"10000000000 10000000000 real64\n", b"P5\n100000000000 100000000000\n65535\n"],
)
def test_recover_huge_header_exits_3(tmp_path, blob):
    bad = tmp_path / "huge"
    bad.write_bytes(blob)
    rc = main(["recover", "--observed", str(bad), "--size", "2x2", "--out", str(tmp_path)])
    assert rc == 3


@pytest.mark.parametrize(
    "fill, cell, extra",
    [
        (np.nan, None, ["--roi", "10,10"]),
        (np.nan, None, ["--roi", "10,10", "--ring", "2"]),
        (0.0, np.inf, []),
    ],
)
def test_recover_non_finite_frame_exits_3(tmp_path, fill, cell, extra):
    frame = np.full((32, 32), fill)
    if cell is not None:
        frame[16, 16] = cell
    path = tmp_path / "frame.raw"
    write_raw_matrix(path, frame)
    out = tmp_path / "rec"
    rc = main(["recover", "--observed", str(path), "--size", "2x2", *extra, "--out", str(out)])
    assert rc == 3
    assert not (out / "recover_manifest.txt").exists()


@pytest.mark.parametrize(
    "value, extra, message",
    [
        (1e307, [], "residual overflows"),
        (1.7e308, [], "overflow the centroid"),
        (1.7e308, ["--roi", "10,10", "--domain", "spatial"], "solution holds NaN or Inf"),
        (1.7e308, ["--roi", "10,10", "--domain", "frequency"], "holds NaN or Inf"),
        (1e307, ["--roi", "10,10", "--domain", "spatial"], "residual overflows"),
        (1e307, ["--roi", "10,10", "--domain", "frequency"], "solution holds NaN or Inf"),
    ],
)
def test_recover_refuses_finite_values_that_overflow(tmp_path, capsys, value, extra, message):
    # located, the centroid overflows at 1.7e308 and the residual at 1e307;
    # anchored, the solve or its residual does, or the transform-domain
    # observation itself; at 1e307 the transform domain's real solve, one
    # product with its operator, overflows before its residual would
    frame = np.zeros((32, 32))
    frame[10:13, 10:13] = value
    path = tmp_path / "frame.raw"
    write_raw_matrix(path, frame)
    out = tmp_path / "rec"
    rc = main(["recover", "--observed", str(path), "--size", "3x3", "--cutoff", "10", *extra,
               "--out", str(out)])
    assert rc == 2
    # beside the notes on the kernel and the located ROI, stderr holds the
    # error alone
    err = capsys.readouterr().err.splitlines()
    notes = ("built kernel from cutoff", "located ROI at (10, 10)")
    (line,) = [line for line in err if not line.startswith(notes)]
    assert line.startswith("error:") and message in line
    assert not out.exists()


def test_recover_non_finite_kernel_file_exits_2(tmp_path, observed_file, small_psf):
    path, roi, _ = observed_file
    grid = small_psf.grid.copy()
    grid[small_psf.half, small_psf.half] = np.nan
    kernel_path = tmp_path / "kernel.raw"
    write_raw_matrix(kernel_path, grid)
    rc = main(
        [
            "recover", "--observed", str(path), "--size", "3x3",
            "--roi", f"{roi.top},{roi.left}", "--psf", str(kernel_path),
            "--out", str(tmp_path / "rec"),
        ]
    )
    assert rc == 2


def test_recover_frequency_refuses_kernel_file(tmp_path, observed_file, capsys):
    # the transform domain reads the passband from --cutoff, never a kernel
    path, roi, _ = observed_file
    kernel_path = tmp_path / "kernel.raw"
    write_raw_matrix(kernel_path, np.full((5, 5), 7.0))
    out = tmp_path / "rec"
    rc = main(
        [
            "recover", "--observed", str(path), "--size", "3x3",
            "--roi", f"{roi.top},{roi.left}", "--domain", "frequency",
            "--psf", str(kernel_path), "--cutoff", "10", "--out", str(out),
        ]
    )
    assert rc == 2
    assert "--psf" in capsys.readouterr().err
    assert not out.exists()


def test_recover_config_domain_is_checked(tmp_path, observed_file):
    # a config value goes through the same choices as the --domain flag
    path, roi, _ = observed_file
    config = tmp_path / "recover.cfg"
    write_manifest(config, {"domain": "fourier", "solver": "lsq"})
    rc = main(
        [
            "recover", "--observed", str(path), "--size", "3x3",
            "--roi", f"{roi.top},{roi.left}", "--cutoff", "10",
            "--config", str(config), "--out", str(tmp_path / "rec"),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("domain", ["spatial", "frequency"])
@pytest.mark.parametrize("ring, by_config", [(-1, False), (-2, False), (-3, True)])
def test_recover_negative_ring_exits_2(tmp_path, observed_file, capsys, domain, ring, by_config):
    # a negative ring used to solve as ring 0 (image domain) or crash
    # building the spectrum block (transform domain)
    path, roi, _ = observed_file
    argv = [
        "recover", "--observed", str(path), "--size", "2x2",
        "--roi", f"{roi.top},{roi.left}", "--domain", domain, "--cutoff", "10",
        "--out", str(tmp_path / "rec"),
    ]
    if by_config:
        config = tmp_path / "recover.cfg"
        write_manifest(config, {"ring": str(ring)})
        argv += ["--config", str(config)]
    else:
        argv += ["--ring", str(ring)]
    assert main(argv) == 2
    assert "ring must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "rec").exists()


_PROPERTY_FIELD = (24, 24)


@pytest.fixture(scope="module")
def property_files(tmp_path_factory):
    """Small frames (an isolated blurred ROI, the same scaled up to 1e307 and
    1.7e308, an all-negative one, noise) and kernel files for the recover
    property test."""
    root = tmp_path_factory.mktemp("recover-property")
    psf = build_psf(OtfSpec(*_PROPERTY_FIELD, 5.0), 23)
    roi = RoiSpec(10, 11, 3, 2)
    isolated = observe_spatial(
        scatter_roi(np.array([200.0, 30.0, 90.0, 250.0, 10.0, 120.0]), roi, *_PROPERTY_FIELD),
        psf,
    )
    frames = {
        "isolated": isolated,
        "negative": -1.0 - np.random.default_rng(3).uniform(0.0, 5.0, _PROPERTY_FIELD),
        "noise": np.random.default_rng(4).uniform(-1.0, 1.0, _PROPERTY_FIELD),
        # finite, but large enough to overflow the centroid or the solve
        "huge": isolated / isolated.max() * 1e307,
        "largest": isolated / isolated.max() * 1.7e308,
    }
    kernels = {"built": psf.grid, "small": psf.grid[9:14, 9:14], "flat": np.full((5, 5), 7.0)}
    paths = {}
    for name, array in {**frames, **kernels}.items():
        paths[name] = root / f"{name}.raw"
        write_raw_matrix(paths[name], array)
    return root, paths, tuple(frames), tuple(kernels)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_recover_never_crashes_and_exit_0_means_finite(property_files, data):
    root, paths, frames, kernels = property_files
    # each draw mixes a likely-valid range with a wider one that reaches
    # the invalid values, so both exit 0 and the refusals get exercised
    dim = st.one_of(st.integers(1, 4), st.integers(-1, 7))
    frame = data.draw(st.sampled_from(frames), "frame")
    argv = [
        "recover", "--observed", str(paths[frame]),
        # the --flag=value form keeps a leading minus from reading as a flag
        f"--size={data.draw(dim)}x{data.draw(dim)}",
        "--domain", data.draw(st.sampled_from(["spatial", "frequency"]), "domain"),
        f"--ring={data.draw(st.one_of(st.integers(0, 2), st.integers(-3, 3)), 'ring')}",
        f"--cutoff={data.draw(st.one_of(st.floats(3.0, 11.0), st.floats(-1.0, 13.0)), 'cutoff')!r}",
    ]
    if data.draw(st.booleans(), "anchored"):
        anchor = st.one_of(st.integers(8, 12), st.integers(-2, 25))
        argv.append(f"--roi={data.draw(anchor)},{data.draw(anchor)}")
    solver = data.draw(
        st.one_of(st.none(), st.sampled_from(["direct", "lsq", "truncated", "least_squares",
                                              "direct_complex", "stacked_real_lsq", "qr"])),
        "solver",
    )
    if solver is not None:
        argv += ["--solver", solver]
    kernel = data.draw(st.one_of(st.none(), st.sampled_from(kernels)), "kernel")
    if kernel is not None:
        argv += ["--psf", str(paths[kernel])]
    crop = data.draw(st.one_of(st.none(), st.integers(-3, 30)), "psf_crop")
    if crop is not None:
        argv.append(f"--psf-crop={crop}")
    if data.draw(st.booleans(), "clamp"):
        argv.append("--clamp")
    out = root / "out"
    if out.exists():
        for stale in out.iterdir():
            stale.unlink()
    rc = main([*argv, "--out", str(out)])
    assert rc != 1
    if rc == 0:
        assert np.isfinite(read_raw_matrix(out / "recovered.raw")).all()
        assert math.isfinite(float(read_manifest(out / "recover_manifest.txt")["residual"]))


def test_scan_and_recover_build_only_the_kernel_window(tmp_path, observed_file, monkeypatch):
    edges = []
    original = spatial.build_psf

    def recorded(*args, **kwargs):
        psf = original(*args, **kwargs)
        edges.append(psf.crop_size)
        return psf

    # scan and recover build through the image domain, psf directly
    monkeypatch.setattr(spatial, "build_psf", recorded)
    monkeypatch.setattr(cli, "build_psf", recorded)
    path, roi, pixels = observed_file
    recover = ["recover", "--observed", str(path), "--size", "3x2", "--cutoff", "10",
               "--roi", f"{roi.top},{roi.left}", "--out", str(tmp_path / "rec")]
    assert main(recover) == 0
    assert main([*recover, "--ring", "2"]) == 0
    scan = ["scan", "--sample", "24x24", "--tile", "2x4", "--cutoff", "10"]
    assert main([*scan, "--out", str(tmp_path / "scan")]) == 0
    assert read_manifest(tmp_path / "scan" / "scan_manifest.txt")["psf_crop"] == "23"
    # the psf command keeps writing the whole crop
    assert main(["psf", *SMALL_ARGS, "--out", str(tmp_path / "psf")]) == 0
    assert edges == [5, 9, 7, 47]


@pytest.mark.parametrize("name, argv", [
    ("psf", ["psf", *SMALL_ARGS]),
    ("table", ["table", "--domain", "spatial", *SMALL_ARGS, "--sizes", "2-3", "--trials", "2"]),
    ("noise", ["noise", *SMALL_ARGS, "--trials", "1", "--psnr", "80"]),
    ("synthetic scan", ["scan", "--sample", "24x24", "--tile", "3x3", "--cutoff", "10"]),
    ("scan on another field", ["scan", "--sample", "24x24", "--field", "32x32",
                               "--tile", "3x3", "--cutoff", "6"]),
    ("input scan", ["scan", "--input", "<input>", "--tile", "3x3", "--cutoff", "5"]),
    ("recover", ["recover", "--observed", "<observed>", "--size", "3x3", "--roi", "20,22",
                 "--cutoff", "10"]),
])
def test_wrote_line_names_every_file_in_write_order(
    tmp_path, observed_file, monkeypatch, capsys, name, argv
):
    observed, _, _ = observed_file
    write_raw_matrix(tmp_path / "input.raw", make_test_sample(12, 12, seed=9))
    paths = {"<input>": str(tmp_path / "input.raw"), "<observed>": str(observed)}
    written = []
    for writer in ("write_raw_matrix", "write_pgm16", "write_table_csv", "write_manifest"):
        original = getattr(cli.fileio, writer)

        def recorded(path, *args, _original=original, **kwargs):
            written.append(os.path.basename(path))
            return _original(path, *args, **kwargs)

        monkeypatch.setattr(cli.fileio, writer, recorded)
    out = tmp_path / "out"
    assert main([paths.get(a, a) for a in argv] + ["--out", str(out)]) == 0
    (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("wrote ")]
    assert line == f"wrote {', '.join(written)} in {out}"
    assert sorted(written) == sorted(os.listdir(out))


# ---------------------------------------------------------------------------
# scan


def test_scan_command_synthetic(tmp_path):
    out = tmp_path / "scan"
    rc = main(
        [
            "scan", "--sample", "24x24", "--tile", "3x3",
            "--cutoff", "10", "--out", str(out),
        ]
    )
    assert rc == 0
    for name in (
        "sample.raw", "sample.pgm", "recovered.raw", "recovered.pgm",
        "blurred.pgm", "scan_manifest.txt",
    ):
        assert (out / name).exists()
    sample = read_raw_matrix(out / "sample.raw")
    recovered = read_raw_matrix(out / "recovered.raw")
    assert np.abs(recovered - sample).max() <= 1e-7
    manifest = read_manifest(out / "scan_manifest.txt")
    assert manifest["tile"] == "3x3"
    assert float(manifest["relative_error"]) <= 1e-9


@pytest.mark.parametrize(
    "domain, solver, method",
    [
        ("spatial", None, "direct"),
        ("spatial", "lsq", "least_squares"),
        ("frequency", None, "stacked_real_lsq"),
        ("frequency", "lsq", "stacked_real_lsq"),
        ("frequency", "direct", "direct_complex"),
        ("frequency", "truncated", "truncated"),
    ],
)
def test_scan_manifest_records_the_method_it_solved_with(tmp_path, domain, solver, method):
    out = tmp_path / "scan"
    argv = ["scan", "--sample", "24x24", "--tile", "3x3", "--cutoff", "6", "--domain", domain,
            "--out", str(out)]
    assert main([*argv, *(["--solver", solver] if solver else [])]) == 0
    assert read_manifest(out / "scan_manifest.txt")["solver"] == method


def _bench_scan_samples(monkeypatch):
    # bench/workloads.py draws the scan sample first from its seed's stream
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return {f"bench {seed}": workloads._scan_sample(np.random.default_rng(seed))
            for seed in (111, 205, 12345)}


def test_scan_preview_pgm_bytes_match_the_full_field_blur(tmp_path, monkeypatch):
    # blurred.pgm moved from observe_field to separable_blur; the two agree
    # to rounding, and the 16-bit counts they round to are the same bytes
    samples = {"synthetic": make_test_sample(300, 300), **_bench_scan_samples(monkeypatch)}
    for name, sample in samples.items():
        spec = OtfSpec(*sample.shape, 6.0)
        write_pgm16(tmp_path / "fft.pgm", observe_field(sample, spec))
        write_pgm16(tmp_path / "products.pgm", separable_blur(sample, spec))
        assert (tmp_path / "fft.pgm").read_bytes() == (tmp_path / "products.pgm").read_bytes(), name


def test_scan_command_with_input_file(tmp_path):
    sample = make_test_sample(12, 12, seed=9)
    src = tmp_path / "input.raw"
    write_raw_matrix(src, sample)
    out = tmp_path / "scan"
    rc = main(
        [
            "scan", "--input", str(src), "--tile", "3x3",
            "--cutoff", "5", "--out", str(out),
        ]
    )
    assert rc == 0
    assert not (out / "sample.raw").exists()
    recovered = read_raw_matrix(out / "recovered.raw")
    assert np.abs(recovered - sample).max() <= 1e-6
    assert read_manifest(out / "scan_manifest.txt")["source"] == str(src)


def test_scan_indivisible_tile_exits_2(tmp_path):
    rc = main(
        [
            "scan", "--sample", "24x24", "--tile", "5x5",
            "--cutoff", "10", "--out", str(tmp_path),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("solver", ["lsq", "truncated"])
def test_scan_singular_tile_system_exits_4(tmp_path, capsys, solver):
    # below cutoff 1 only the zero frequency passes, so every tile system has
    # rank one; the build refuses it before either SVD solver can run
    out = tmp_path / "scan"
    rc = main(
        [
            "scan", "--sample", "24x24", "--cutoff", "0.5",
            "--solver", solver, "--out", str(out),
        ]
    )
    assert rc == 4
    assert "condition estimate inf" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# noise


def test_noise_command_outputs(tmp_path, capsys):
    out = tmp_path / "noise"
    rc = main(
        [
            "noise", "--roi-size", "3", "--psnr", "40,80,120", "--trials", "2",
            *SMALL_ARGS, "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "noise_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "domain,psnr_db,amplitude_ratio,mean_ae,std_ae,failed,error"
    assert len(lines) == 1 + 2 * 4  # two domains, inf baseline + three levels
    assert all(line.endswith(",") for line in lines[1:])  # no trial failed: error empty
    manifest = read_manifest(out / "noise_manifest.txt")
    assert "crossing_db_spatial" in manifest
    assert "crossing_db_frequency" in manifest
    assert "47.96" in capsys.readouterr().out


@pytest.mark.parametrize("domains", ["", "spatial,spatial"])
def test_noise_empty_or_repeated_domains_exit_2(tmp_path, domains):
    out = tmp_path / "noise"
    rc = main(
        [
            "noise", "--roi-size", "2", "--psnr", "80", "--trials", "1",
            "--domains", domains, *SMALL_ARGS, "--out", str(out),
        ]
    )
    assert rc == 2
    assert not (out / "noise_sweep.csv").exists()


def test_noise_command_single_domain(tmp_path):
    out = tmp_path / "noise"
    rc = main(
        [
            "noise", "--roi-size", "2", "--psnr", "80", "--trials", "1",
            "--domains", "spatial", *SMALL_ARGS, "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "noise_sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2
    assert all(line.startswith("spatial,") for line in lines[1:])
    manifest = read_manifest(out / "noise_manifest.txt")
    assert "crossing_db_spatial" in manifest
    assert "crossing_db_frequency" not in manifest


def test_noise_csv_says_why_trials_failed(tmp_path):
    # a 3x3 kernel cannot serve a ringed 3x3 system: every trial fails, and
    # each point keeps the first failure's text
    out = tmp_path / "noise"
    rc = main(
        [
            "noise", "--domains", "spatial", "--field", "48x48", "--cutoff", "10",
            "--psf-crop", "3", "--roi-size", "3", "--trials", "1", "--psnr", "80,120",
            "--out", str(out),
        ]
    )
    assert rc == 0
    with open(out / "noise_sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    for row in rows:
        assert row["failed"] == "1"
        assert row["error"] == "BoundsError: offsets reach +/-(4, 4), kernel window is only +/-1"


def test_noise_console_says_why_trials_failed(tmp_path):
    # the console table counts each point's failed trials and names the
    # first failure under the row
    code, out, _ = _run(
        [
            "noise", "--domains", "spatial", "--field", "48x48", "--cutoff", "10",
            "--psf-crop", "3", "--roi-size", "3", "--trials", "1", "--psnr", "80,120",
            "--out", str(tmp_path / "noise"),
        ]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split()[-1] == "failed"
    rows = [line.split() for line in lines[2:8:2]]
    assert [(row[1], row[-1]) for row in rows] == [("inf", "1"), ("80", "1"), ("120", "1")]
    reason = "first failure: BoundsError: offsets reach +/-(4, 4), kernel window is only +/-1"
    assert [line.strip() for line in lines[3:9:2]] == [reason] * 3


def test_noise_records_a_structurally_singular_system_as_failed(tmp_path):
    # below cutoff 1 only the zero frequency passes: the ringed 3x3 system
    # (49 x 9) has rank one, which used to solve and exit 0 at mean AE 20.3
    out = tmp_path / "noise"
    rc = main(["noise", "--field", "48x48", "--cutoff", "0.5", "--roi-size", "3", "--trials", "2",
               "--psnr", "80", "--domains", "spatial", "--out", str(out)])
    assert rc == 0
    with open(out / "noise_sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["psnr_db"] for row in rows] == ["inf", "80"]
    for row in rows:
        assert row["failed"] == "2"
        assert row["mean_ae"] == "nan"
        assert row["error"] == (
            "SingularSystemError: system matrix is structurally singular: rank 1 of 9 unknowns "
            "(condition estimate inf)"
        )


_LU_WITH_A_RING = ["--field", "48x48", "--cutoff", "0", "--sizes", "2", "--ring", "1",
                   "--solver", "direct"]
# the 5x5 block of a 4x4 region at ring 1 keeps 17 passband entries at
# cutoff 4, of rank 15: more rows than unknowns, yet marked
_FREQUENCY_LU_WITH_A_RING = ["--field", "48x48", "--cutoff", "4", "--sizes", "4", "--ring", "1",
                             "--solver", "direct"]


@pytest.mark.parametrize(
    "domain, argv, reason",
    [("spatial", ["--sizes", "9-10", "--noise-psnr=-7000"],
      "ParameterError: system matrix or right-hand side holds NaN or Inf"),
     ("spatial", ["--sizes", "9-10", "--noise-psnr=-6000"], "ParameterError: "),
     ("spatial", _LU_WITH_A_RING, "ShapeError: direct needs a square system"),
     ("frequency", ["--sizes", "5-6", "--noise-psnr=-7000"],
      "ParameterError: system matrix or right-hand side holds NaN or Inf"),
     ("frequency", ["--sizes", "5-6", "--noise-psnr=-6000"], "ParameterError: "),
     ("frequency", _FREQUENCY_LU_WITH_A_RING,
      "ShapeError: direct_complex needs a square system")],
    ids=["infinite-sigma", "overflow", "lu-with-ring",
         "frequency-infinite-sigma", "frequency-overflow", "frequency-lu-with-ring"],
)
def test_a_marked_table_size_fails_where_the_solve_would(tmp_path, domain, argv, reason):
    # 10x10 at the default setup and 2x2 at cutoff 0 are structurally
    # singular, and so are the passband entries of a transform-domain 6x6
    # block at the default setup and of 4x4 at cutoff 4, ring 1 (rank 33 of
    # 36 and 15 of 16): the table marks them, yet their
    # rows refuse what a solve refuses (an infinite sigma, finite
    # observations that overflow, LU with a ring), as the rows of the solved
    # 9x9 and 5x5 do, with every metric nan
    out = tmp_path / "table"
    code, stdout, err = _run(["table", "--domain", domain, "--trials", "1", *argv,
                              "--out", str(out)])
    assert code == 0, err
    with open(out / f"trials_{domain}.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows
    for row in rows:
        assert row["error"].startswith(reason), row
        assert [row[c] for c in ("ae", "ad", "condition")] == ["nan"] * 3
    with open(out / f"ae_{domain}.csv", newline="") as f:
        assert all(row["failed"] == "1" for row in csv.DictReader(f))


def test_a_table_row_whose_error_overflows_fails(tmp_path):
    # at -3000 dB the 9x9 solve and its residual stay finite, but the error
    # against the known pixels overflows float64: the row is refused, as an
    # overflowing residual is, not recorded as an ae of inf
    out = tmp_path / "table"
    code, _, err = _run(["table", "--domain", "spatial", "--sizes", "9-10", "--trials", "1",
                         "--noise-psnr=-3000", "--out", str(out)])
    assert code == 0, err
    with open(out / "trials_spatial.csv", newline="") as f:
        rows = {row["roi_size"]: row for row in csv.DictReader(f)}
    assert rows["9"]["error"] == "ParameterError: averaged error overflows float64"
    assert [rows["9"][c] for c in ("ae", "ad", "condition")] == ["nan"] * 3
    assert rows["10"]["error"] == "" and rows["10"]["ae"] == "nan"
    with open(out / "ae_spatial.csv", newline="") as f:
        assert {row["roi_size"]: row["failed"] for row in csv.DictReader(f)} == {"9": "1", "10": "0"}


@pytest.mark.parametrize("domain", ["spatial", "frequency"])
def test_a_table_row_whose_solution_misfits_past_float64_fails(tmp_path, domain):
    # at -3100 dB with a ring the least-squares solution's residual overflows
    # float64; the solve takes no residual, and each row fails on its error
    # against the known pixels, which overflows as well
    out = tmp_path / "table"
    code, _, err = _run(["table", "--domain", domain, "--sizes", "2-3", "--trials", "2",
                         "--ring", "2", *SMALL_ARGS, "--noise-psnr=-3100", "--out", str(out)])
    assert code == 0, err
    with open(out / f"trials_{domain}.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    for row in rows:
        assert row["error"] == "ParameterError: averaged error overflows float64"
        assert [row[c] for c in ("ae", "ad", "condition")] == ["nan"] * 3


def _tree_bytes(folder):
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


@pytest.mark.parametrize("command", ["table", "recover"])
def test_a_rerun_into_the_same_out_matches_a_fresh_out(tmp_path, observed_file, command):
    # the second run writes shorter files over the first run's
    path, roi, _ = observed_file
    if command == "table":
        first, second = (["table", "--domain", "frequency", *SMALL_ARGS, "--trials", "2",
                          "--sizes", sizes] for sizes in ("2-4", "2"))
    else:
        first, second = (["recover", "--observed", str(path), "--size", size,
                          "--roi", f"{roi.top},{roi.left}", "--cutoff", "10"]
                         for size in ("3x3", "2x2"))
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert _run([*first, "--out", str(reused)])[0] == 0
    longer = _tree_bytes(reused)
    assert _run([*second, "--out", str(reused)])[0] == 0
    assert _run([*second, "--out", str(fresh)])[0] == 0
    assert _tree_bytes(reused) == _tree_bytes(fresh)
    assert any(len(longer[name]) > len(data) for name, data in _tree_bytes(fresh).items())


def test_an_output_name_taken_by_a_directory_exits_3(tmp_path):
    out = tmp_path / "table"
    (out / "trials_spatial.csv").mkdir(parents=True)
    code, _, err = _run(["table", "--domain", "spatial", *SMALL_ARGS, "--sizes", "2",
                         "--trials", "1", "--out", str(out)])
    assert code == 3
    assert f"Is a directory: '{out / 'trials_spatial.csv'}'" in err
    assert (out / "trials_spatial.csv").is_dir()


@pytest.mark.parametrize(
    "flag, value, reason",
    [("--sizes", "2,5-3", "size range '5-3' is empty"),
     ("--field", "4x4x4", "expected ROWSxCOLS, got '4x4x4'")],
)
def test_a_refused_flag_value_keeps_its_reason(tmp_path, flag, value, reason):
    code, _, err = _run(["table", "--domain", "spatial", flag, value,
                         "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"argument {flag}: {reason}" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# option tables and --config


def _subcommand_parsers():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subs.choices


# each subcommand's accepted flags, pinned so that an option-table edit cannot
# add, drop or rename one unnoticed
PINNED_FLAGS = {
    "psf": "config field cutoff psf-crop seed out gain",
    "table": "config field cutoff psf-crop seed out domain sizes trials ring solver noise-psnr",
    "scan": "config field cutoff psf-crop seed out input sample sample-seed tile domain solver",
    "noise": "config field cutoff psf-crop seed out roi-size psnr trials ring domains",
    "recover": "config field cutoff psf-crop seed out observed size roi psf domain solver "
    "ring clamp",
    "two-point": "domain p qa qb ya yb length pos-a pos-b freq-c freq-d xc xd imag-tol",
}


def test_each_subcommand_accepts_the_pinned_flags():
    subparsers = _subcommand_parsers()
    assert set(subparsers) == set(PINNED_FLAGS) == set(cli.COMMANDS)
    for name, sub in subparsers.items():
        flags = {f for a in sub._actions for f in a.option_strings} - {"-h", "--help"}
        assert flags == {"--" + f for f in PINNED_FLAGS[name].split()}, name


def _run(argv):
    """Exit code, stdout and stderr of one main() call, a usage exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_the_shared_parser_leaks_no_state(tmp_path, observed_file, monkeypatch):
    path, roi, _ = observed_file
    steps = [
        ("80", ["table", "--rign", "2"]),
        ("80", ["table", "--help"]),
        ("120", ["table", "--help"]),
        ("80", ["table", "--domain", "spatial", "--sizes", "2", "--trials", "1", *SMALL_ARGS,
                "--out", str(tmp_path / "table")]),
        ("80", ["recover", "--observed", str(path), "--size", "3x3",
                "--roi", f"{roi.top},{roi.left}", "--cutoff", "10", "--out", str(tmp_path / "rec")]),
    ]
    # twice through on the shared tree, so every step also follows every other
    shared = []
    for columns, argv in steps * 2:
        monkeypatch.setenv("COLUMNS", columns)
        shared.append(_run(argv))
    assert cli.build_parser.cache_info().misses == 1
    # the same steps, each on a tree built for it alone
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    for (columns, argv), got in zip(steps * 2, shared):
        monkeypatch.setenv("COLUMNS", columns)
        assert got == _run(argv), argv
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0] * 2
    assert "--rign" in shared[0][2]
    narrow, wide = shared[1][1], shared[2][1]
    assert narrow != wide
    assert max(map(len, narrow.splitlines())) <= 80 < max(map(len, wide.splitlines()))


def test_every_option_is_declared_once():
    declared = re.findall(r'Option\(\s*"(\w+)"', inspect.getsource(cli))
    assert len(declared) == len(set(declared))
    for _, _, options in cli.COMMANDS.values():
        dests = [opt.dest for opt in options]
        assert len(dests) == len(set(dests))
        assert set(dests) <= set(declared)


def test_help_defaults_come_from_the_option_tables():
    for name, sub in _subcommand_parsers().items():
        actions = {a.dest: a for a in sub._actions}
        options = cli.COMMANDS[name][2]
        for opt in options:
            action = actions[opt.dest]
            assert action.default is None, opt.dest
            shown = re.search(r"\(default (\S+)\)$", action.help)
            if opt.default is None:
                assert shown is None and "default" not in action.help, opt.dest
            else:
                # what --help shows parses back, through the flag's own parser,
                # to the default that a run without the flag uses
                assert action.type(shown.group(1)) == opt.default, opt.dest
            assert action.help.endswith("(required)") == opt.required, opt.dest
        text = " ".join(sub.format_help().split())
        assert text.count("(default ") == sum(opt.default is not None for opt in options)


@pytest.mark.parametrize("entries", [{"rign": "2"}, {"config": "other.cfg"}])
def test_unknown_config_keys_exit_2(tmp_path, capsys, entries):
    config = tmp_path / "run.cfg"
    write_manifest(config, {"sizes": "2", "trials": "1", **entries})
    out = tmp_path / "out"
    argv = ["table", "--domain", "spatial", *SMALL_ARGS, "--config", str(config), "--out", str(out)]
    assert main(argv) == 2
    assert next(iter(entries)) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (b"\xff\xfe = 3\n", "not UTF-8"),
        (b"trials = 2\nsizes = 2\ntrials = 5\n", "'trials'"),
    ],
)
def test_unreadable_or_repeated_config_exits_3(tmp_path, capsys, text, message):
    config = tmp_path / "run.cfg"
    config.write_bytes(text)
    out = tmp_path / "out"
    argv = ["table", "--domain", "spatial", *SMALL_ARGS, "--config", str(config), "--out", str(out)]
    assert main(argv) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_table_minus_infinite_noise_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["table", "--domain", "spatial", "--sizes", "2", "--trials", "1", *SMALL_ARGS,
            "--noise-psnr=-inf", "--out", str(out)]
    assert main(argv) == 2
    assert "-inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("db", ["1e308", "-1e308", "7000", "-7000"])
@pytest.mark.parametrize("command, flag", [("table", "--noise-psnr"), ("noise", "--psnr")])
def test_extreme_finite_noise_levels_exit_0(tmp_path, capsys, command, flag, db):
    # past about +6,165 dB the amplitude ratio overflows (sigma is 0.0); past
    # about -6,500 dB it underflows (sigma is inf and every trial is refused)
    argv = [command, *SMALL_ARGS, "--trials", "1", f"{flag}={db}", "--out", str(tmp_path)]
    argv += ["--domain", "spatial", "--sizes", "2"] if command == "table" else ["--roi-size", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 0
    out = capsys.readouterr().out
    refused = db.startswith("-")
    if command == "table":
        assert out.splitlines()[2].split()[-1] == ("1" if refused else "0")
    else:
        assert ("no finite noise level met the threshold" in out) == refused


def test_table_manifest_is_not_a_config(tmp_path, capsys):
    # a run record's keys (field_rows, root_seed, ...) are not flag names
    record = tmp_path / "record"
    assert main(["table", "--domain", "spatial", "--sizes", "2", "--trials", "1", *SMALL_ARGS,
                 "--out", str(record)]) == 0
    argv = ["table", "--config", str(record / "manifest_spatial.txt"), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "root_seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, entries",
    [
        ("table", {"sizes": "2", "trials": "1"}),
        ("recover", {"size": "2x2"}),
        ("two-point", {}),
    ],
)
def test_missing_required_option_exits_2(tmp_path, capsys, command, entries):
    argv = [command]
    if entries:
        config = tmp_path / "run.cfg"
        write_manifest(config, entries)
        argv += ["--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "is required" in capsys.readouterr().err


def test_malformed_complex_value_is_a_usage_error():
    argv = ["two-point", "--domain", "frequency", "--length", "8", "--pos-a", "1", "--pos-b", "3",
            "--freq-c", "1", "--freq-d", "2", "--xc", "abc", "--xd", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_recover_takes_every_option_from_config(tmp_path, small_psf):
    # a negative pixel makes --clamp change the output
    pixels = np.array([[120.0, -30.0], [80.0, 250.0]])
    path = tmp_path / "observed.raw"
    ideal = scatter_roi(pixels.ravel(), RoiSpec(20, 22, 2, 2), 48, 48)
    write_raw_matrix(path, observe_spatial(ideal, small_psf))
    values = {"observed": str(path), "size": "2x2", "roi": "20,22", "cutoff": "10",
              "field": "48x48"}
    assert main(["recover", *(f"--{k}={v}" for k, v in values.items()), "--clamp",
                 "--out", str(tmp_path / "flags")]) == 0
    config = tmp_path / "recover.cfg"
    write_manifest(config, {**values, "clamp": "true"})
    assert main(["recover", "--config", str(config), "--out", str(tmp_path / "config")]) == 0
    write_manifest(config, {**values, "clamp": "false"})
    assert main(["recover", "--config", str(config), "--out", str(tmp_path / "unclamped")]) == 0
    clamped = (tmp_path / "flags" / "recovered.raw").read_bytes()
    assert (tmp_path / "config" / "recovered.raw").read_bytes() == clamped
    assert (tmp_path / "unclamped" / "recovered.raw").read_bytes() != clamped
    assert read_raw_matrix(tmp_path / "config" / "recovered.raw").min() == 0.0


@pytest.mark.parametrize("domain", ["spatial", "frequency"])
def test_recover_clamp_reports_the_residual_of_the_written_pixels(tmp_path, small_psf, domain):
    # the solution holds a negative pixel: --clamp writes it as 0 and reports
    # the residual of the pixels it wrote, not of the solve's own
    pixels = np.array([[120.0, -30.0], [80.0, 250.0]])
    roi = RoiSpec(20, 22, 2, 2)
    observed = observe_spatial(scatter_roi(pixels.ravel(), roi, 48, 48), small_psf)
    path = tmp_path / "observed.raw"
    write_raw_matrix(path, observed)
    argv = ["recover", "--observed", str(path), "--size", "2x2", "--roi", "20,22",
            "--cutoff", "10", "--psf-crop", "47", "--domain", domain]
    assert main([*argv, "--out", str(tmp_path / "raw")]) == 0
    assert main([*argv, "--clamp", "--out", str(tmp_path / "clamped")]) == 0
    spec = OtfSpec(48, 48, 10.0)
    blur = spatial.simulated_blur(spec, 2, 2, 0, 47) if domain == "spatial" else spec
    system = pipeline.roi_problem(domain, roi, (48, 48), blur, 0)
    rhs = pipeline.DOMAIN_MODULES[domain].frame_rhs(system, observed)
    reported = {}
    for name in ("raw", "clamped"):
        written = read_raw_matrix(tmp_path / name / "recovered.raw").ravel()
        manifest = read_manifest(tmp_path / name / "recover_manifest.txt")
        assert manifest["negative_count"] == "1"
        assert (written.min() == 0.0) == (name == "clamped")
        assert manifest["residual"] == format_float(residual(system, written, rhs))
        reported[name] = manifest["residual"]
    assert reported["clamped"] != reported["raw"]


@pytest.mark.parametrize("by_config", [False, True])
def test_recover_field_must_match_the_frame(tmp_path, observed_file, capsys, by_config):
    path, roi, _ = observed_file
    out = tmp_path / "rec"
    argv = ["recover", "--observed", str(path), "--size", "3x3", "--roi", f"{roi.top},{roi.left}",
            "--cutoff", "10", "--out", str(out)]
    if by_config:
        write_manifest(tmp_path / "recover.cfg", {"field": "5x5"})
        argv += ["--config", str(tmp_path / "recover.cfg")]
    else:
        argv += ["--field", "5x5"]
    assert main(argv) == 2
    assert "--field 5x5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, entries",
    [(["--tile", "7x7"], {}), ([], {"domain": "fourier"}), ([], {"clamp": "true"})],
)
def test_scan_refusal_writes_nothing(tmp_path, extra, entries):
    out = tmp_path / "scan"
    argv = ["scan", "--sample", "24x24", "--cutoff", "10", *extra, "--out", str(out)]
    if entries:
        write_manifest(tmp_path / "scan.cfg", entries)
        argv += ["--config", str(tmp_path / "scan.cfg")]
    assert main(argv) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# integer flags no array or float64 can carry, and extreme passband gains

# 400 digits: past every array dimension and every float64
HUGE = "9" * 400


def _refused(argv: list[str], out, capsys) -> str:
    """The one stderr line of main(argv), once it exits 2, prints nothing to
    stdout and writes nothing to out."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert not out.exists()
    return line


@pytest.mark.parametrize(
    "argv, message",
    [
        # a frequency ring past the field is refused before any block is formed
        (["--domain", "frequency", *SMALL_ARGS, "--ring", HUGE], "spectrum block beyond the 48x48"),
        # the field used to overflow in optics.in_passband
        (["--domain", "spatial", "--field", f"{HUGE}x48"], "exceeds any complex128 array"),
    ],
)
def test_table_refuses_integers_no_array_can_carry(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    line = _refused(["table", "--sizes", "2", "--trials", "1", *argv, "--out", str(out)],
                    out, capsys)
    assert message in line


def test_noise_refuses_a_ring_no_spectrum_block_can_carry(tmp_path, capsys):
    # the transform domain's blur is refused before the image domain's trials run
    out = tmp_path / "out"
    argv = ["noise", *SMALL_ARGS, "--roi-size", "2", "--trials", "1", "--psnr", "80",
            "--ring", HUGE, "--out", str(out)]
    assert "spectrum block beyond the 48x48 field" in _refused(argv, out, capsys)


@pytest.mark.parametrize("command", ["table", "scan", "noise"])
def test_a_region_whose_block_needs_a_cutoff_past_the_field_is_named(tmp_path, capsys, command):
    # every command runs the cutoff it was given, and a system keeps the
    # passband entries of its block: one whose kept entries fall short of
    # the region's rank is marked by the table and refused by scan and
    # noise, naming how many entries it kept and their rank, even where the
    # whole block would need a cutoff past any passband a 48x48 field holds
    # (below 24); one whose kept entries determine the region solves
    out = tmp_path / "out"
    if command == "table":
        assert main(["table", "--domain", "frequency", "--field", "48x48", "--cutoff", "10",
                     "--sizes", "2-20", "--trials", "1", "--out", str(out)]) == 0
        with open(out / "trials_frequency.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        # from 9x9 up the block reaches past cutoff 10 (hypot(8, 8) = 11.3)
        assert [row["roi_size"] for row in rows] == [str(size) for size in range(2, 21)]
        for row in rows:
            marked = int(row["roi_size"]) >= 9
            assert row["error"] == ""
            assert math.isnan(float(row["ae"])) == marked
            assert (row["condition"] == "inf") == marked
            assert float(row["ad"]) <= 1e-12
    elif command == "scan":
        argv = ["scan", "--sample", "48x48", "--tile", "24x24", "--domain", "frequency",
                "--cutoff", "6", "--out", str(out)]
        assert _refused(argv, out, capsys) == (
            "error: the 35 of 576 selected entries inside the passband (cutoff 6.0) have "
            "rank 35 of 576 unknowns; the others carry no signal"
        )
    else:
        # the 3x3 region at ring 40 keeps 156 entries of its 43x43 block, and
        # solves; a 6x6 region at ring 2 keeps 35 of its 8x8 block, of rank 33
        for name, argv in (("solved", ["--ring", "40", "--cutoff", "10"]),
                           ("refused", ["--roi-size", "6", "--cutoff", "6"])):
            assert main(["noise", "--domains", "frequency", "--field", "48x48", *argv,
                         "--trials", "2", "--psnr", "80", "--out", str(out / name)]) == 0
        for name in ("solved", "refused"):
            with open(out / name / "noise_sweep.csv", newline="") as f:
                rows = list(csv.DictReader(f))
            assert [row["psnr_db"] for row in rows] == ["inf", "80"]
            for row in rows:
                if name == "solved":
                    assert row["failed"] == "0" and row["error"] == ""
                    assert float(row["mean_ae"]) <= (1e-12 if row["psnr_db"] == "inf" else 1.0)
                    continue
                assert row["failed"] == "2" and row["mean_ae"] == "nan"
                assert row["error"] == (
                    "SelectionError: the 35 of 64 selected entries inside the passband "
                    "(cutoff 6.0) have rank 33 of 36 unknowns; the others carry no signal"
                )


# At the paper's setup (768x768, cutoff 6) the passband keeps 33 entries of
# a 6x6 spectrum block, of rank 33: a 4x4 region at ring 2 is determined by
# them, a 6x6 region at ring 0 is not.
_RINGED_4X4 = RoiSpec(300, 410, 4, 4)


@pytest.fixture()
def ringed_frame(tmp_path):
    """A raw 768x768 frame holding a 4x4 block at _RINGED_4X4, blurred at cutoff 6."""
    pixels = np.random.default_rng(4).uniform(0.0, 256.0, _RINGED_4X4.pixel_count)
    path = tmp_path / "frame.raw"
    write_raw_matrix(path, observe_field(scatter_roi(pixels, _RINGED_4X4, 768, 768),
                                         OtfSpec(768, 768, 6.0)))
    return path, pixels


def test_the_transform_table_solves_a_ringed_block_from_its_passband_entries(tmp_path):
    out = tmp_path / "table"
    assert main(["table", "--domain", "frequency", "--ring", "2", "--sizes", "2-6",
                 "--trials", "5", "--out", str(out)]) == 0
    with open(out / "trials_frequency.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert not any(row["error"] for row in rows)
    for size in range(2, 7):
        mine = [row for row in rows if row["roi_size"] == str(size)]
        assert len(mine) == 5
        assert all(math.isnan(float(row["ae"])) == (size == 6) for row in mine), size
        assert all((row["condition"] == "inf") == (size == 6) for row in mine), size
        assert all(float(row["ad"]) <= 1e-10 for row in mine)
    # size 4 resolves: its mean AE is within 1% of the trials' mean pixel
    draws = [pipeline._trial_pixels(pipeline.DEFAULT_SEED, 4, trial)[1] for trial in range(5)]
    mean_ae = sum(float(row["ae"]) for row in rows if row["roi_size"] == "4") / 5
    assert mean_ae <= 0.01 * float(np.mean(draws))


def test_recover_solves_a_ringed_transform_block(tmp_path, ringed_frame):
    path, pixels = ringed_frame
    out = tmp_path / "rec"
    assert main(["recover", "--observed", str(path), "--size", "4x4",
                 "--roi", f"{_RINGED_4X4.top},{_RINGED_4X4.left}", "--domain", "frequency",
                 "--ring", "2", "--out", str(out)]) == 0
    recovered = read_raw_matrix(out / "recovered.raw").ravel()
    assert pipeline.averaged_error(recovered, pixels) <= 0.01 * float(pixels.mean())


def test_noise_solves_a_ringed_transform_block(tmp_path):
    out = tmp_path / "noise"
    assert main(["noise", "--roi-size", "4", "--ring", "2", "--domains", "frequency",
                 "--trials", "2", "--psnr", "80,300", "--out", str(out)]) == 0
    with open(out / "noise_sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["psnr_db"] for row in rows] == ["inf", "80", "300"]
    for row in rows:
        assert row["failed"] == "0" and row["error"] == ""
        assert math.isfinite(float(row["mean_ae"]))


def test_a_6x6_transform_block_at_ring_0_stays_marked_and_refused(tmp_path, capsys, ringed_frame):
    out = tmp_path / "table"
    assert main(["table", "--domain", "frequency", "--sizes", "6", "--trials", "2",
                 "--out", str(out)]) == 0
    with open(out / "trials_frequency.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(row["ae"], row["condition"], row["error"]) for row in rows] == [("nan", "inf", "")] * 2
    capsys.readouterr()
    refusal = ("error: the 33 of 36 selected entries inside the passband (cutoff 6.0) have "
               "rank 33 of 36 unknowns; the others carry no signal")
    path, _ = ringed_frame
    for argv in (["scan", "--sample", "768x768", "--tile", "6x6", "--domain", "frequency"],
                 ["recover", "--observed", str(path), "--size", "6x6", "--roi", "299,409",
                  "--domain", "frequency"]):
        out = tmp_path / argv[0]
        assert _refused([*argv, "--out", str(out)], out, capsys) == refusal


def test_recover_refuses_a_spectrum_block_beyond_the_frame(tmp_path, observed_file, capsys):
    # a huge ring used to fail allocating the block in observation_index
    path, roi, _ = observed_file
    out = tmp_path / "rec"
    base = ["recover", "--observed", str(path), "--size", "2x2", "--roi", f"{roi.top},{roi.left}",
            "--domain", "frequency", "--cutoff", "10", "--out", str(out)]
    for ring in (HUGE, "47"):
        line = _refused([*base, "--ring", ring], out, capsys)
        assert "grows the 2x2 ROI's spectrum block beyond the 48x48 field" in line


def test_psf_refuses_a_field_no_array_can_hold(tmp_path, capsys):
    out = tmp_path / "out"
    line = _refused(["psf", "--field", f"{HUGE}x48", "--out", str(out)], out, capsys)
    assert line.endswith("x48 exceeds any complex128 array")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--field", f"{HUGE}x48"], "exceeds any complex128 array"),
        # the sample used to fail in np.indices with a bare ValueError
        (["--sample", f"{HUGE}x3"], "x3 exceeds any float64 array"),
    ],
)
def test_scan_refuses_dimensions_no_array_can_hold(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert message in _refused(["scan", *argv, "--out", str(out)], out, capsys)


@pytest.mark.parametrize("flag, name", [("--length", "n_len"), ("--freq-d", "d")])
def test_two_point_refuses_integers_float64_cannot_carry(capsys, flag, name):
    # these used to overflow converting to complex in the finiteness check
    values = {"--length": "8", "--pos-a": "3", "--pos-b": "4", "--freq-c": "0",
              "--freq-d": "1", flag: HUGE}
    argv = ["two-point", "--domain", "frequency", *[x for kv in values.items() for x in kv],
            "--xc", "15.6", "--xd=-13.6376-4.7376i"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} lies beyond +/-2**53, past what float64 phases carry\n"


def test_psf_refuses_a_gain_whose_kernel_overflows(tmp_path, capsys):
    # under the RuntimeWarning-as-error filter: the transforms warn no more
    out = tmp_path / "out"
    line = _refused(["psf", *SMALL_ARGS, "--gain", "1e308", "--out", str(out)], out, capsys)
    assert line == "error: passband gain 1e+308 overflows the kernel's inverse transform"


def test_psf_previews_a_subnormal_kernel(tmp_path, capsys):
    # 65535 / peak overflows for a subnormal peak; the preview used to hold
    # only 0 and 65535 and to warn on the way
    assert main(["psf", *SMALL_ARGS, "--gain", "1e-310", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    preview = read_pgm16(tmp_path / "psf.pgm")
    assert np.unique(preview).size > 2
    assert preview.max() == 65535
    grid = read_raw_matrix(tmp_path / "psf.raw")
    assert 0 < grid.max() < np.finfo(float).tiny


# ---------------------------------------------------------------------------
# flag properties: table, scan and noise


def _flag_and_config_runs(root, command, values):
    """Run command with values once as flags and once as --config entries.

    Returns (exit code, {file name: bytes}) for each run.
    """
    results = []
    for mode in ("flags", "config"):
        out = root / mode
        shutil.rmtree(out, ignore_errors=True)
        argv = [command, "--out", str(out)]
        if mode == "flags":
            # the --flag=value form keeps a leading minus from reading as a flag
            argv += [f"--{k.replace('_', '-')}={v}" for k, v in values.items()]
        else:
            write_manifest(root / "run.cfg", values)
            argv += ["--config", str(root / "run.cfg")]
        rc = main(argv)
        assert rc != 1, argv
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        results.append((rc, files))
    assert results[0] == results[1]
    return results[0]


def _finite_unless_failed(blob, columns, failed):
    """The columns are finite in every CSV row that failed(row) does not
    mark: failed trials, and levels where every trial failed, read nan."""
    for row in csv.DictReader(io.StringIO(blob.decode())):
        if not failed(row):
            assert all(math.isfinite(float(row[c])) for c in columns), row


_int = st.integers(-1, 4).map(str)
_float = st.one_of(st.floats(-1.0, 20.0), st.sampled_from([math.nan, math.inf])).map(repr)
_COMMON_VALUES = {
    "field": st.sampled_from(["48x48", "32x40", "16x16", "3x3", "0x5"]),
    "cutoff": st.one_of(st.floats(4.0, 12.0).map(repr), _float),
    "psf_crop": st.integers(-3, 50).map(str),
    "seed": st.integers(0, 2**32).map(str),
}


def _draw_values(draw, choices):
    """Draw a value for some of the options in choices."""
    values = {}
    for name, strategy in choices.items():
        if draw(st.booleans()):
            values[name] = draw(strategy)
    return values


@st.composite
def _table_values(draw):
    values = {"domain": draw(st.sampled_from(["spatial", "frequency"])),
              "field": "48x48", "cutoff": "10", "trials": "1", "sizes": "2"}
    ranges = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(sorted)
    sizes = st.one_of(st.integers(0, 4).map(str), ranges.map("{0[0]}-{0[1]}".format))
    values.update(_draw_values(draw, {
        **_COMMON_VALUES, "sizes": sizes, "trials": st.integers(-1, 2).map(str), "ring": _int,
        "solver": st.sampled_from(["direct", "lsq", "truncated", "qr"]),
        "noise_psnr": st.one_of(st.floats(-10.0, 400.0).map(repr), _float),
    }))
    return values


# below cutoff 1 the passband leaves an image-domain 2x2 structurally
# singular, and a transform-domain 2x2 block leaves it: the table keeps
# their rows unsolved, AE nan and condition inf
@example(values={"domain": "spatial", "field": "48x48", "cutoff": "0.0", "trials": "1",
                 "sizes": "2", "solver": "lsq"})
@example(values={"domain": "frequency", "field": "48x48", "cutoff": "0.0", "trials": "1",
                 "sizes": "2"})
@settings(max_examples=40, deadline=None)
@given(values=_table_values())
def test_table_flags_never_crash_and_config_gives_the_same_run(tmp_path_factory, values):
    root = tmp_path_factory.mktemp("table-property")
    rc, files = _flag_and_config_runs(root, "table", values)
    if rc == 0:
        trials = files[f"trials_{values['domain']}.csv"]
        spec = OtfSpec(*map(int, values["field"].split("x")), float(values["cutoff"]))

        def marked(row):
            size = int(row["roi_size"])
            if row["domain"] == "spatial":
                return structural_rank(spec, size, size) < size * size
            roi = RoiSpec(0, 0, size, size)
            return frequency.structurally_singular(spec, roi, int(values.get("ring", 0)))

        _finite_unless_failed(trials, ("ad",), lambda row: row["error"])
        _finite_unless_failed(trials, ("ae", "condition"),
                              lambda row: row["error"] or marked(row))
        for row in csv.DictReader(io.StringIO(trials.decode())):
            assert not marked(row) or math.isnan(float(row["ae"])), row


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scan_flags_never_crash_and_config_gives_the_same_run(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("scan-property")
    dims = st.tuples(st.integers(-1, 30), st.integers(-1, 30)).map(lambda t: f"{t[0]}x{t[1]}")
    values = {"sample": "24x24", "cutoff": "10"}
    values.update(_draw_values(data.draw, {
        **_COMMON_VALUES, "sample": dims,
        "tile": st.sampled_from(["3x3", "2x4", "1x1", "0x3", "5x5"]),
        "sample_seed": st.integers(0, 100).map(str),
        "domain": st.sampled_from(["spatial", "frequency"]),
        "solver": st.sampled_from(["direct", "lsq", "truncated", "qr"]),
    }))
    rc, files = _flag_and_config_runs(root, "scan", values)
    if rc == 0:
        assert np.isfinite(read_raw_matrix(root / "flags" / "recovered.raw")).all()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_noise_flags_never_crash_and_config_gives_the_same_run(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("noise-property")
    values = {"field": "48x48", "cutoff": "10", "trials": "1", "psnr": "80", "roi_size": "2"}
    levels = st.lists(st.one_of(st.floats(-20.0, 400.0), st.sampled_from([math.nan, math.inf])),
                      min_size=1, max_size=3)
    values.update(_draw_values(data.draw, {
        **_COMMON_VALUES, "roi_size": _int, "trials": st.integers(-1, 2).map(str), "ring": _int,
        "psnr": levels.map(lambda v: ",".join(map(repr, v))),
        "domains": st.sampled_from(["spatial", "frequency", "spatial,frequency", "fourier"]),
    }))
    rc, files = _flag_and_config_runs(root, "noise", values)
    if rc == 0:
        _finite_unless_failed(files["noise_sweep.csv"], ("mean_ae", "std_ae"),
                              lambda row: row["failed"] == values["trials"])
