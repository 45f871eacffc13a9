"""Byte digest of every benchmark command, to show a change leaves outputs alone.

    python3 tools/cycle_digest.py [--workloads help,psf,...] [--seeds 111,205,12345]
        [--out digest.json]
    python3 tools/cycle_digest.py --compare A.json B.json

Runs commands in process through roisolve.cli.main, against the sources of
the checkout this file sits in, each writing into its own --out directory,
and hashes (SHA-256) its exit code, stdout, stderr and every file it wrote
into one JSON object keyed "<workload>[/<seed>]/<name>/<what>", with the
temporary directory masked out of paths. The bench workloads (table, noise,
scan, recover) run every op of bench/workloads.cycle at each seed; "help"
hashes each subcommand's --help at 80 columns; the others run the command
lines of the tables below, some once whatever the seeds.

Some outputs no bench cycle reaches, so they have their own workloads:
"noisy-table" gates `table --noise-psnr`; "solvers" gates every --solver
spelling through table, scan and recover, and recover --clamp of a solution
with negative pixels; "failed-trials" gates summary rows
whose trials failed (a kernel too small for the system reads nan);
"located" gates recover without --roi, at and across every border of the
circular field and on finite frames whose solve or centroid overflows;
"refusals" gates integer flags too large for any array or float64 (exit 2,
nothing written) and passband gains at the float64 limits; "singular" gates
systems whose passband leaves them structurally singular (image-domain
regions, and transform-domain blocks whose passband entries fall short of
the region's rank), which the table marks and does not solve and noise,
recover and scan refuse, and ringed transform-domain blocks whose passband
entries still determine the region, which table, noise and recover solve;
"loud" gates table rows whose noise is loud enough that a solution's error
overflows float64, or whose sigma does, on solved and marked sizes in each
domain, and scans of samples too large for their error to fit float64;
"many-trials" gates table and noise at the default of 20 trials per size,
where every trial past the first reuses its size's system and reader, and
a table of 130 trials, past the 128-element block of numpy's pairwise sum
that each size's summary takes; "cli-paths" gates the README's two-point
examples, a table and a recover that read their flags from a --config
file, and recover --psf on a kernel file the psf command wrote.

--compare lists the keys that differ between two digests (or sit in one
only) and exits 1 if there are any; on stderr it counts the identical
entries, then the differing keys of each workload and final path part
("located stdout 18"). A written digest records what it ran on under
ENVIRONMENT_KEYS: numpy's version, the version and CPU core of the OpenBLAS
numpy runs on (its kernels, picked per core, decide the last bits of a
product), and the OpenBLAS thread count: the transform-domain scan
manifests of all three default seeds differ between 1 and 2 threads, so compare
digests taken at one count. The recovered pixels are the same bytes at both counts; what
moves is the last bit of the manifest's relative error, whose norm
(pipeline.averaged_error) is a BLAS dot product that OpenBLAS splits across
threads over the 90,000 entries of a 300x300 scan.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from collections import Counter
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

WORKLOADS = ("table", "noise", "scan", "recover", "help", "psf", "noisy-table", "failed-trials",
             "scan-field", "located", "solvers", "refusals", "singular", "loud", "many-trials",
             "cli-paths")
SEEDS = (111, 205, 12345)
# (field, cutoff, crop, gain) of the psf workload: the benchmark's kernel,
# the scan kernel, an odd non-square field and a crop spanning most columns
PSF_SETTINGS = (
    ("768x768", "6", "501", "1"),
    ("300x300", "6", "299", "0.5"),
    ("97x64", "5", "63", "-2.5"),
    ("16x12", "4", "11", "1"),
)
# (field, crop) of the noisy-table workload: the benchmark's field and an odd
# non-square one
NOISY_TABLE_FIELDS = (("768x768", "501"), ("97x130", "95"))
NOISY_TABLE_RINGS = ("0", "2")
# name -> argv (without --seed and --out) of the failed-trials workload. A
# 3x3 kernel serves 2x2 systems only: the table solves size 2 and records
# sizes 3-4 as failed trials, and every point of the sweep fails.
_SMALL_KERNEL = ["--field", "48x48", "--cutoff", "10", "--psf-crop", "3"]
FAILED_TRIALS_RUNS = {
    "table": ["table", "--domain", "spatial", *_SMALL_KERNEL, "--sizes", "2-4", "--trials", "2"],
    "noise": ["noise", "--domains", "spatial", *_SMALL_KERNEL, "--roi-size", "3",
              "--trials", "1", "--psnr", "80,120"],
}
# name -> argv (without --seed and --out) of the many-trials workload: at
# the default 20 trials, solved sizes and (image domain, 19-20) marked ones,
# the image domain also with a ring, and the default noise sweep; then size
# 2 at 130 trials in each domain
MANY_TRIALS_RUNS = {
    "table-spatial": ["table", "--domain", "spatial", "--sizes", "2-4,19-20"],
    "table-spatial-r2": ["table", "--domain", "spatial", "--sizes", "2-4", "--ring", "2"],
    "table-frequency": ["table", "--domain", "frequency", "--sizes", "2-4,19-20"],
    "noise": ["noise"],
    **{f"table-{domain}-130": ["table", "--domain", domain, "--sizes", "2", "--trials", "130"]
       for domain in ("spatial", "frequency")},
}
# the scan-field workload's commands, each run with --domain spatial and
# frequency: a field other than the sample's, and a tile with fewer rows than
# columns (scan stitches a tile's rows and columns back separately)
SCAN_FIELD_ARGV = ["scan", "--sample", "24x24", "--field", "32x32", "--cutoff", "6",
                   "--tile", "3x3"]
SCAN_TILE_ARGV = ["scan", "--sample", "24x24", "--cutoff", "6", "--tile", "2x3"]
# name -> (field, ROI size, anchor, format, domain, ring) of the located
# workload. An anchor names a border ("top" is row 1, "bottom" one row above
# the last fit, "left" and "right" likewise) or a corner, the other
# coordinate drawn from the seed, or "middle": both drawn from the middle
# half of their range. The frames are blurred by the benchmark's own disk,
# so the light of an ROI at a border wraps around the circular field, and
# recover locates it across that border.
LOCATED_FRAMES = {
    "top-left-2x3": ((768, 768), (2, 3), "top-left", "raw", "spatial", 0),
    "bottom-right-3x2": ((768, 768), (3, 2), "bottom-right", "raw", "frequency", 0),
    "top-1x4": ((768, 768), (1, 4), "top", "pgm", "spatial", 2),
    "left-4x1": ((97, 130), (4, 1), "left", "raw", "frequency", 2),
    "bottom-4x3": ((97, 130), (4, 3), "bottom", "pgm", "frequency", 0),
    "right-3x4": ((97, 130), (3, 4), "right", "raw", "spatial", 0),
    "middle-2x4": ((768, 768), (2, 4), "middle", "raw", "spatial", 2),
    "middle-3x2": ((97, 130), (3, 2), "middle", "pgm", "frequency", 0),
}
# name -> value of an unblurred 3x3 block on a 97x130 frame: at 1e307 it is
# located and its residual overflows float64, at 1.7e308 its centroid does
LOCATED_HUGE = {"huge-1e307": 1e307, "largest-1.7e308": 1.7e308}
# every --solver spelling the solvers workload passes
SOLVER_SPELLINGS = ("direct", "lsq", "truncated", "least_squares", "direct_complex",
                    "stacked_real_lsq", "qr")
# command -> argv (without --domain, --solver and --out) of the solvers
# workload; SOLVER_FRAME is the path of the frame recover reads
SOLVER_FRAME = "<frame>"
SOLVER_RUNS = {
    "table": ["table", "--field", "48x48", "--cutoff", "10", "--psf-crop", "47", "--sizes", "2",
              "--trials", "2"],
    "scan": ["scan", "--sample", "24x24", "--cutoff", "6", "--tile", "3x3"],
    "recover": ["recover", "--observed", SOLVER_FRAME, "--size", "2x2", "--roi", "20,22",
                "--cutoff", "6"],
}
# name -> argv (without --out) of the solvers workload's recover --clamp runs:
# the 2x2 ROI one column left of SOLVER_FRAME's block, whose light outside it
# drives two recovered pixels negative, in each domain
CLAMP_RUNS = {
    f"recover-{domain}-clamp": ["recover", "--observed", SOLVER_FRAME, "--size", "2x2",
                                "--roi", "20,21", "--cutoff", "6", "--domain", domain, "--clamp"]
    for domain in ("spatial", "frequency")
}
# 400 digits: more than any array dimension or float64 can take
_HUGE = "9" * 400
# name -> argv (without --out) of the refusals workload: integer flags no
# array or float64 can carry, and passband gains at the float64 limits.
# recover reads SOLVER_FRAME; two-point takes no --out.
REFUSAL_RUNS = {
    "table-frequency-ring": ["table", "--domain", "frequency", "--ring", _HUGE],
    "noise-ring": ["noise", "--ring", _HUGE],
    "recover-frequency-ring": ["recover", "--observed", SOLVER_FRAME, "--size", "2x2",
                               "--roi", "20,22", "--cutoff", "6", "--domain", "frequency",
                               "--ring", _HUGE],
    "psf-field": ["psf", "--field", f"{_HUGE}x48"],
    "table-field": ["table", "--domain", "spatial", "--field", f"{_HUGE}x48"],
    "scan-field": ["scan", "--field", f"{_HUGE}x48"],
    "scan-sample": ["scan", "--sample", f"{_HUGE}x3"],
    "two-point-length": ["two-point", "--domain", "frequency", "--length", _HUGE, "--pos-a", "3",
                         "--pos-b", "4", "--freq-c", "0", "--freq-d", "1", "--xc", "15.6",
                         "--xd=-13.6376-4.7376i"],
    "two-point-freq-d": ["two-point", "--domain", "frequency", "--length", "8", "--pos-a", "3",
                         "--pos-b", "4", "--freq-c", "0", "--freq-d", _HUGE, "--xc", "15.6",
                         "--xd=-13.6376-4.7376i"],
    "psf-gain-1e308": ["psf", "--gain", "1e308"],
    "psf-gain-1e-310": ["psf", "--gain", "1e-310"],
    "psf-gain-1e-320": ["psf", "--gain", "1e-320"],
}
# name -> argv (without --out) of the singular workload: at cutoff 6 a 48x48
# field leaves 10x10 rank 95 and 11x11 rank 109, and below cutoff 1 every
# system has rank one; in the transform domain the passband keeps 33
# entries of a 6x6 block, of rank 33, so a 6x6 region at ring 0 is marked or
# refused, while a 4x4 region at ring 2 solves from them. At ring 2 the 7x7
# and 8x8 blocks keep 35 entries: 5x5 solves, 6x6 (rank 33) stays marked.
# recover reads SOLVER_FRAME.
SINGULAR_RUNS = {
    "table-9-11": ["table", "--domain", "spatial", "--field", "48x48", "--cutoff", "6",
                   "--sizes", "9-11"],
    "noise-cutoff-0.5": ["noise", "--field", "48x48", "--cutoff", "0.5", "--roi-size", "3",
                         "--trials", "2", "--psnr", "80", "--domains", "spatial"],
    "recover-10x10": ["recover", "--observed", SOLVER_FRAME, "--size", "10x10", "--roi", "16,16",
                      "--cutoff", "6"],
    "scan-cutoff-0.5": ["scan", "--sample", "24x24", "--cutoff", "0.5"],
    "table-frequency-5-7": ["table", "--domain", "frequency", "--field", "48x48", "--cutoff", "6",
                            "--sizes", "5-7"],
    "table-frequency-4-6-r2": ["table", "--domain", "frequency", "--field", "48x48",
                               "--cutoff", "6", "--sizes", "4-6", "--ring", "2",
                               "--trials", "2"],
    "noise-frequency-4-r2": ["noise", "--field", "48x48", "--cutoff", "6", "--roi-size", "4",
                             "--ring", "2", "--trials", "2", "--psnr", "80",
                             "--domains", "frequency"],
    "recover-frequency-4x4-r2": ["recover", "--observed", SOLVER_FRAME, "--size", "4x4",
                                 "--roi", "18,20", "--cutoff", "6", "--domain", "frequency",
                                 "--ring", "2"],
    "recover-frequency-6x6": ["recover", "--observed", SOLVER_FRAME, "--size", "6x6",
                              "--roi", "18,20", "--cutoff", "6", "--domain", "frequency"],
    "scan-frequency-6x6": ["scan", "--sample", "24x24", "--cutoff", "6", "--tile", "6x6",
                           "--domain", "frequency"],
}
# name -> argv (without --out) of the loud workload, on the singular
# workload's 48x48 field at cutoff 6: at -3100 dB every row fails, past
# float64, a solved row (sizes 2-5 at ring 2) on its error against the known
# pixels and a marked one (the transform domain's 6 and 7 at ring 0) on its
# AD; at -7000 dB sigma itself overflows, on solved and marked sizes alike. The
# scans read LOUD_SAMPLE, make_test_sample(24, 24) scaled by LOUD_SCALE,
# whose error overflows float64 in each domain.
_LOUD_FIELD = ["--field", "48x48", "--cutoff", "6", "--trials", "2"]
LOUD_SAMPLE = "<sample>"
LOUD_SCALE = 1e200
LOUD_RUNS = {
    **{f"table-{domain}-r2-3100": ["table", "--domain", domain, *_LOUD_FIELD, "--sizes", "2-5",
                                   "--ring", "2", "--noise-psnr=-3100"]
       for domain in ("spatial", "frequency")},
    "table-frequency-5-7-3100": ["table", "--domain", "frequency", *_LOUD_FIELD, "--sizes", "5-7",
                                 "--noise-psnr=-3100"],
    "table-spatial-9-11-7000": ["table", "--domain", "spatial", *_LOUD_FIELD, "--sizes", "9-11",
                                "--noise-psnr=-7000"],
    "table-frequency-5-7-7000": ["table", "--domain", "frequency", *_LOUD_FIELD, "--sizes", "5-7",
                                 "--noise-psnr=-7000"],
    **{f"scan-{domain}-1e200": ["scan", "--input", LOUD_SAMPLE, "--cutoff", "6", "--tile", "3x3",
                                "--domain", domain]
       for domain in ("spatial", "frequency")},
}
# name -> argv (without --out) of the cli-paths workload, run in this order:
# the README's two two-point examples; a table and a recover whose flags all
# come from CONFIG_FILE, written per run from CLI_PATH_CONFIGS (the recover
# clamps SOLVER_FRAME's 2x2 ROI one column left of its block, like
# CLAMP_RUNS); and recover --psf on PSF_FILE, the kernel of SOLVER_FRAME's
# field that the psf run before it writes
CONFIG_FILE = "<config>"
PSF_FILE = "<psf>"
CLI_PATH_CONFIGS = {
    "table-config": {"domain": "frequency", "field": "48x48", "cutoff": "10", "sizes": "2-3",
                     "trials": "2", "seed": "7"},
    "recover-config": {"observed": SOLVER_FRAME, "size": "2x2", "roi": "20,21", "cutoff": "6",
                       "clamp": "true"},
}
CLI_PATH_RUNS = {
    "two-point-spatial": ["two-point", "--domain", "spatial", "--p", "1", "--qa", "0.9981",
                          "--qb", "0.9981", "--ya", "4.59354", "--yb", "4.59772"],
    "two-point-frequency": ["two-point", "--domain", "frequency", "--length", "8", "--pos-a",
                            "3", "--pos-b", "4", "--freq-c", "0", "--freq-d", "1", "--xc", "15.6",
                            "--xd=-13.6376-4.7376i", "--imag-tol", "1e-3"],
    **{name: [name.split("-")[0], "--config", CONFIG_FILE] for name in CLI_PATH_CONFIGS},
    "psf": ["psf", "--field", "48x48", "--cutoff", "6", "--psf-crop", "47"],
    "recover-psf": ["recover", "--observed", SOLVER_FRAME, "--size", "2x2", "--roi", "20,22",
                    "--cutoff", "6", "--psf", PSF_FILE],
}
MASK = "<tmp>"
BLAS_THREADS_KEY = "blas_threads"
ENVIRONMENT_KEYS = ("numpy", "openblas", "openblas_core", BLAS_THREADS_KEY)


def _hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> tuple[str, str, str]:
    """(exit code, stdout, stderr) of one in-process command."""
    import roisolve.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except SystemExit as exc:
            code = f"SystemExit {exc.code}"
        except Exception as exc:  # a crash is an outcome to compare, not a tool failure
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _op_digest(argv: list[str], tmp: str, key: str) -> dict[str, str]:
    """Digests of one command: exit, stdout, stderr and the files under its --out."""
    code, stdout, stderr = _run(argv)
    digests = {
        f"{key}/exit": _hash(code.replace(tmp, MASK).encode()),
        f"{key}/stdout": _hash(stdout.replace(tmp, MASK).encode()),
        f"{key}/stderr": _hash(stderr.replace(tmp, MASK).encode()),
    }
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    for dirpath, _, filenames in os.walk(out) if out else ():
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read().replace(tmp.encode(), MASK.encode())
            digests[f"{key}/{os.path.relpath(path, out)}"] = _hash(data)
    return digests


def _runs_digest(prefix: str, runs, *args) -> dict[str, str]:
    """Digests of each command runs(tmp, *args) names, under prefix/name, in a
    temporary directory tmp that runs may write its inputs into."""
    tmp = tempfile.mkdtemp(prefix="cycle-digest-")
    try:
        digests = {}
        for name, argv in runs(tmp, *args).items():
            digests.update(_op_digest(argv, tmp, f"{prefix}/{name}"))
        return digests
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _with_out(base: str, runs: dict[str, list[str]], frame: str = "",
              sample: str = "") -> dict[str, list[str]]:
    """runs with SOLVER_FRAME read as frame and LOUD_SAMPLE as sample, each
    command writing into base/<name> (two-point takes no --out)."""
    inputs = {SOLVER_FRAME: frame, LOUD_SAMPLE: sample}
    return {name: [inputs.get(a, a) for a in argv]
            + ([] if argv[0] == "two-point" else ["--out", os.path.join(base, name)])
            for name, argv in runs.items()}


def _cycle_runs(tmp: str, seed: int, workload: str) -> dict[str, list[str]]:
    """Every op of one bench workload cycle at one seed, op i writing into tmp/op<i>."""
    import workloads

    workdir = os.path.join(tmp, "work")
    os.makedirs(workdir)
    workloads.make_inputs(workload, seed, workdir)
    placeholder = os.path.join(tmp, "out")
    return {str(i): [os.path.join(tmp, f"op{i}") if a == placeholder else a for a in op.argv]
            for i, op in enumerate(workloads.cycle(workload, seed, workdir, placeholder))}


def _located_anchor(rng, anchor: str, field: tuple[int, int], size: tuple[int, int]) -> tuple:
    """(top, left) of an anchor name of LOCATED_FRAMES."""
    last = [n - k for n, k in zip(field, size)]
    if anchor == "middle":
        return tuple(int(rng.integers(hi // 4, 3 * hi // 4 + 1)) for hi in last)
    named = {"top": (1, None), "bottom": (last[0] - 1, None), "left": (None, 1),
             "right": (None, last[1] - 1), "top-left": (0, 0), "bottom-right": tuple(last)}
    return tuple(int(rng.integers(0, hi + 1)) if v is None else v
                 for v, hi in zip(named[anchor], last))


def _located_runs(tmp: str, seed: int) -> dict[str, list[str]]:
    """recover without --roi on every LOCATED_FRAMES and LOCATED_HUGE frame,
    drawn from seed and written into tmp."""
    import numpy as np

    import workloads

    rng = np.random.default_rng(seed)
    runs = {}
    for name, (field, size, anchor, fmt, domain, ring) in LOCATED_FRAMES.items():
        top, left = _located_anchor(rng, anchor, field, size)
        ideal = np.zeros(field)
        ideal[top : top + size[0], left : left + size[1]] = rng.uniform(0.0, 256.0, size)
        path = os.path.join(tmp, f"{name}.{fmt}")
        (workloads.write_raw if fmt == "raw" else workloads.write_pgm16)(
            path, workloads._blur(ideal))
        runs[name] = (path, size, ["--domain", domain, "--ring", str(ring)])
    for name, value in LOCATED_HUGE.items():
        frame = np.zeros((97, 130))
        top, left = (int(v) for v in rng.integers(0, 94, 2))
        frame[top : top + 3, left : left + 3] = value
        path = os.path.join(tmp, f"{name}.raw")
        workloads.write_raw(path, frame)
        runs[name] = (path, (3, 3), [])
    return _with_out(os.path.join(tmp, "out"), {
        name: ["recover", "--observed", path, "--size", f"{size[0]}x{size[1]}", *extra,
               "--cutoff", "6"]
        for name, (path, size, extra) in runs.items()
    })


def _frame_runs(tmp: str, runs: dict[str, list[str]]) -> dict[str, list[str]]:
    """runs writing into tmp/out/<name>, SOLVER_FRAME read as a 48x48 raw
    frame written into tmp, holding a blurred 2x2 block at (20, 22)."""
    import numpy as np

    import workloads

    ideal = np.zeros((48, 48))
    ideal[20:22, 22:24] = [[40.0, 200.0], [120.0, 10.0]]
    frame = os.path.join(tmp, "frame.raw")
    workloads.write_raw(frame, workloads._blur(ideal))
    return _with_out(os.path.join(tmp, "out"), runs, frame)


def _loud_runs(tmp: str) -> dict[str, list[str]]:
    """LOUD_RUNS writing into tmp/<name>, LOUD_SAMPLE read as a raw sample
    written into tmp."""
    import workloads
    from roisolve.pipeline import make_test_sample

    sample = os.path.join(tmp, "loud-sample.raw")
    workloads.write_raw(sample, make_test_sample(24, 24) * LOUD_SCALE)
    return _with_out(tmp, LOUD_RUNS, sample=sample)


def _cli_path_runs(tmp: str) -> dict[str, list[str]]:
    """CLI_PATH_RUNS as _frame_runs gives them, with PSF_FILE read as the psf
    run's psf.raw and CONFIG_FILE as tmp/<name>.cfg, written here from the
    run's CLI_PATH_CONFIGS entries."""
    runs = _frame_runs(tmp, CLI_PATH_RUNS)
    frame = os.path.join(tmp, "frame.raw")  # as _frame_runs wrote it
    psf = os.path.join(tmp, "out", "psf", "psf.raw")
    for name, argv in runs.items():
        config = os.path.join(tmp, f"{name}.cfg")
        runs[name] = [config if a == CONFIG_FILE else psf if a == PSF_FILE else a for a in argv]
    for name, entries in CLI_PATH_CONFIGS.items():
        with open(os.path.join(tmp, f"{name}.cfg"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {frame if value == SOLVER_FRAME else value}\n"
                          for key, value in entries.items())
    return runs


def help_digest() -> dict[str, str]:
    """Digests of every subcommand's --help at a fixed terminal width."""
    import roisolve.cli as cli

    with mock.patch.dict(os.environ, COLUMNS="80"):
        return {f"help/{c}": _hash("\0".join(_run([c, "--help"])).encode())
                for c in cli.COMMANDS}


# the run makers (tmp, *args) -> {name: argv} of the workloads that run once
# whatever the seeds, and of those that run at each seed; every other
# workload but help is a bench cycle
SEEDLESS = {
    "psf": lambda tmp: _with_out(tmp, {
        f"{field}-{cutoff}-{crop}-{gain}": ["psf", "--field", field, "--cutoff", cutoff,
                                            "--psf-crop", crop, f"--gain={gain}"]
        for field, cutoff, crop, gain in PSF_SETTINGS}),
    "scan-field": lambda tmp: _with_out(tmp, {
        f"{domain}{suffix}": [*argv, "--domain", domain]
        for suffix, argv in (("", SCAN_FIELD_ARGV), ("-2x3", SCAN_TILE_ARGV))
        for domain in ("spatial", "frequency")}),
    "solvers": lambda tmp: _frame_runs(tmp, {
        **{f"{command}-{domain}-{solver}": [*argv, "--domain", domain, "--solver", solver]
           for command, argv in SOLVER_RUNS.items()
           for domain in ("spatial", "frequency") for solver in SOLVER_SPELLINGS},
        **CLAMP_RUNS}),
    "refusals": lambda tmp: _frame_runs(tmp, REFUSAL_RUNS),
    "singular": lambda tmp: _frame_runs(tmp, SINGULAR_RUNS),
    "loud": _loud_runs,
    "cli-paths": _cli_path_runs,
}
PER_SEED = {
    "noisy-table": lambda tmp, seed: _with_out(tmp, {
        f"{domain}-r{ring}-{field}": ["table", "--domain", domain, "--sizes", "2-5",
                                      "--trials", "2", "--ring", ring, "--field", field,
                                      "--cutoff", "6", "--psf-crop", crop,
                                      "--noise-psnr", "120", "--seed", str(seed)]
        for field, crop in NOISY_TABLE_FIELDS for ring in NOISY_TABLE_RINGS
        for domain in ("spatial", "frequency")}),
    "failed-trials": lambda tmp, seed: _with_out(tmp, {
        name: [*argv, "--seed", str(seed)] for name, argv in FAILED_TRIALS_RUNS.items()}),
    "located": _located_runs,
    "many-trials": lambda tmp, seed: _with_out(tmp, {
        name: [*argv, "--seed", str(seed)] for name, argv in MANY_TRIALS_RUNS.items()}),
}


def _known(names: list[str]) -> list[str]:
    """names, or ValueError naming those WORKLOADS lacks."""
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise ValueError(f"unknown workload {', '.join(map(repr, unknown))}, "
                         f"expected some of {', '.join(WORKLOADS)}")
    return names


def digest(workload_names, seeds) -> dict[str, str]:
    result = {}
    for workload in _known(list(workload_names)):
        if workload == "help":
            result.update(help_digest())
        elif workload in SEEDLESS:
            result.update(_runs_digest(workload, SEEDLESS[workload]))
        else:
            runs = PER_SEED.get(workload, functools.partial(_cycle_runs, workload=workload))
            for seed in seeds:
                result.update(_runs_digest(f"{workload}/{seed}", runs, seed))
    return result


def blas_threads() -> int | None:
    """The OpenBLAS thread count numpy runs at in this process, read as
    bench/run.py reads it (None when no OpenBLAS is loaded)."""
    import numpy  # noqa: F401  (loads the BLAS under this process's environment)

    with mock.patch.dict(os.environ):  # importing run caps the BLAS variables
        from run import _blas_threads
    return _blas_threads()


def environment() -> dict[str, str]:
    """ENVIRONMENT_KEYS of this process: numpy's version, the version and
    core each OpenBLAS loaded reports through ctypes (joined by commas;
    "None" when numpy loaded none) and blas_threads()."""
    import ctypes

    import numpy

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    versions, cores = [], []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            if hasattr(lib, f"{prefix}_get_config{suffix}"):
                for name, seen in (("config", versions), ("corename", cores)):
                    fn = getattr(lib, f"{prefix}_get_{name}{suffix}")
                    fn.restype = ctypes.c_char_p
                    seen.append(fn().decode())
                break
    return dict(zip(ENVIRONMENT_KEYS, (
        numpy.__version__,
        ",".join(config.split()[1] for config in versions) or "None",
        ",".join(cores) or "None",
        str(blas_threads()),
    )))


def compare(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """Keys whose digests differ, or that only one side has, sorted."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def tally(keys: list[str]) -> Counter:
    """How many of the keys fall on each (workload, final path part)."""
    return Counter((key.split("/")[0], key.rsplit("/", 1)[-1]) for key in keys)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default=",".join(str(s) for s in SEEDS))
    parser.add_argument("--out", help="write the digest JSON here (default stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        sides = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sides.append(json.load(fh))
        differing = compare(*sides)
        for key in differing:
            print(key)
        total = len(set(sides[0]) | set(sides[1]))
        print(f"{total - len(differing)} of {total} entries identical", file=sys.stderr)
        for (workload, what), count in sorted(tally(differing).items()):
            print(f"{workload} {what} {count}", file=sys.stderr)
        return 1 if differing else 0
    try:
        names = _known([w.strip() for w in args.workloads.split(",") if w.strip()])
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:  # before anything runs
        parser.error(str(exc))
    result = digest(names, seeds)
    result.update(environment())
    text = json.dumps(result, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
