"""Byte digest of every benchmark command, to show a change leaves outputs alone.

    python3 tools/cycle_digest.py
        [--workloads table,noise,scan,recover,help,psf,noisy-table,failed-trials,scan-field,
                     located,solvers,refusals,singular]
        [--seeds 111,205,12345] [--out digest.json]
    python3 tools/cycle_digest.py --compare A.json B.json

Runs every op of bench/workloads.cycle in process through roisolve.cli.main,
against the sources of the checkout this file sits in, each op writing into
its own output directory. Every file the op writes, its stdout, its stderr
and its exit code are hashed (SHA-256) into one JSON object keyed
"workload/seed/op/what", with the temporary directory masked out of paths.
The "help" workload hashes the exit code, stdout and stderr of
`roisolve <command> --help` for every subcommand, rendered 80 columns wide,
under "help/<command>" whatever the seeds. The "psf" workload runs
`roisolve psf` for each (field, cutoff, crop, gain) of PSF_SETTINGS and
hashes the same things as an op, under "psf/<field>-<cutoff>-<crop>-<gain>",
so the full-crop kernel export is gated too. The "noisy-table" workload,
which no benchmark cycle runs, runs `roisolve table --noise-psnr 120` at
each seed for both domains, rings 0 and 2 and each (field, crop) of
NOISY_TABLE_FIELDS, under "noisy-table/<seed>/<domain>-r<ring>-<field>".
The "failed-trials" workload runs each command of FAILED_TRIALS_RUNS at each
seed, under "failed-trials/<seed>/<name>": runs whose kernel is too small for
some or all of their systems, so their summary rows read nan. The
"scan-field" workload runs SCAN_FIELD_ARGV once per domain, under
"scan-field/<domain>" whatever the seeds: a scan on a field other than the
sample's, which the image domain solves with that field's kernel and the
transform domain refuses. The "located" workload runs `roisolve recover`
without --roi on each frame of LOCATED_FRAMES at each seed, under
"located/<seed>/<name>": ROIs at or next to every border (located across
the border their light wraps around) and in the middle, of non-square sizes,
on the benchmark's field and an odd non-square one, and two frames whose
finite values overflow the solve or the centroid. The "solvers" workload runs
each command of SOLVER_RUNS once per domain with --solver set to each of
SOLVER_SPELLINGS, under "solvers/<command>-<domain>-<solver>" whatever the
seeds: the generic spellings, each domain's method names (which the other
domain refuses) and a name no domain has. The "refusals" workload runs
each command of REFUSAL_RUNS once, under "refusals/<name>" whatever the
seeds: integer flags too large for any array or float64, each refused
(exit 2, nothing written), and passband gains at the float64 limits. The
"singular" workload runs each command of SINGULAR_RUNS once, under
"singular/<name>" whatever the seeds: image-domain systems whose passband
leaves them structurally singular, which the table marks and does not
solve (ae nan, condition inf) and noise, recover and scan refuse. --compare
lists the keys that differ between two such files (or sit in one only) and
exits 1 if there are any; on stderr it counts the identical entries, then
the differing keys of each workload and final path part ("located stdout
18"). A written digest also records, under BLAS_THREADS_KEY, the OpenBLAS
thread count it ran at: the transform-domain scan manifests of seeds 111
and 205 differ between 1 and 2 threads, so two digests taken at different
counts list that key beside the outputs it moves. The recovered pixels are
the same bytes at both counts, in both domains; what moves is the last bit
of the manifest's relative error, whose norm (pipeline.averaged_error,
np.linalg.norm) is a BLAS dot product that OpenBLAS splits across threads
over the 90,000 entries of a 300x300 scan.
"""

from __future__ import annotations

import argparse
import contextlib
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
             "scan-field", "located", "solvers", "refusals", "singular")
SUBCOMMANDS = ("psf", "table", "scan", "noise", "recover", "two-point")
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
# the scan-field workload's command, run with --domain spatial and frequency
SCAN_FIELD_ARGV = ["scan", "--sample", "24x24", "--field", "32x32", "--cutoff", "6",
                   "--tile", "3x3"]
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
# system has rank one. recover reads SOLVER_FRAME.
SINGULAR_RUNS = {
    "table-9-11": ["table", "--domain", "spatial", "--field", "48x48", "--cutoff", "6",
                   "--sizes", "9-11"],
    "noise-cutoff-0.5": ["noise", "--field", "48x48", "--cutoff", "0.5", "--roi-size", "3",
                         "--trials", "2", "--psnr", "80", "--domains", "spatial"],
    "recover-10x10": ["recover", "--observed", SOLVER_FRAME, "--size", "10x10", "--roi", "16,16",
                      "--cutoff", "6"],
    "scan-cutoff-0.5": ["scan", "--sample", "24x24", "--cutoff", "0.5"],
}
MASK = "<tmp>"
BLAS_THREADS_KEY = "blas_threads"


def _hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(cli, argv: list[str]) -> tuple[str, str, str]:
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except SystemExit as exc:
            code = f"SystemExit {exc.code}"
        except Exception as exc:  # a crash is an outcome to compare, not a tool failure
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _op_digest(cli, argv: list[str], out: str, tmp: str, key: str) -> dict[str, str]:
    """Digests of one command writing into out: exit, stdout, stderr, files."""
    code, stdout, stderr = _run(cli, argv)
    digests = {
        f"{key}/exit": _hash(code.replace(tmp, MASK).encode()),
        f"{key}/stdout": _hash(stdout.replace(tmp, MASK).encode()),
        f"{key}/stderr": _hash(stderr.replace(tmp, MASK).encode()),
    }
    for dirpath, _, filenames in os.walk(out):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read().replace(tmp.encode(), MASK.encode())
            digests[f"{key}/{os.path.relpath(path, out)}"] = _hash(data)
    return digests


def cycle_digest(workload: str, seed: int) -> dict[str, str]:
    """Digests of every op of one workload cycle at one seed."""
    import roisolve.cli as cli
    import workloads

    tmp = tempfile.mkdtemp(prefix="cycle-digest-")
    try:
        workdir = os.path.join(tmp, "work")
        os.makedirs(workdir)
        workloads.make_inputs(workload, seed, workdir)
        placeholder = os.path.join(tmp, "out")
        digests = {}
        for i, op in enumerate(workloads.cycle(workload, seed, workdir, placeholder)):
            out = os.path.join(tmp, f"op{i}")
            argv = [out if a == placeholder else a for a in op.argv]
            digests.update(_op_digest(cli, argv, out, tmp, f"{workload}/{seed}/{i}"))
        return digests
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _runs_digest(prefix: str, runs: dict[str, list[str]]) -> dict[str, str]:
    """Digests of each named command, writing into its own --out, under prefix/name."""
    import roisolve.cli as cli

    tmp = tempfile.mkdtemp(prefix="cycle-digest-")
    try:
        digests = {}
        for name, argv in runs.items():
            out = os.path.join(tmp, name)
            digests.update(_op_digest(cli, [*argv, "--out", out], out, tmp, f"{prefix}/{name}"))
        return digests
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def psf_digest() -> dict[str, str]:
    """Digests of `roisolve psf` at every PSF_SETTINGS entry."""
    return _runs_digest("psf", {
        f"{field}-{cutoff}-{crop}-{gain}": ["psf", "--field", field, "--cutoff", cutoff,
                                            "--psf-crop", crop, f"--gain={gain}"]
        for field, cutoff, crop, gain in PSF_SETTINGS
    })


def noisy_table_digest(seed: int) -> dict[str, str]:
    """Digests of noisy `roisolve table` runs at one seed (see NOISY_TABLE_FIELDS)."""
    return _runs_digest(f"noisy-table/{seed}", {
        f"{domain}-r{ring}-{field}": ["table", "--domain", domain, "--sizes", "2-5",
                                      "--trials", "2", "--ring", ring, "--field", field,
                                      "--cutoff", "6", "--psf-crop", crop,
                                      "--noise-psnr", "120", "--seed", str(seed)]
        for field, crop in NOISY_TABLE_FIELDS
        for ring in NOISY_TABLE_RINGS
        for domain in ("spatial", "frequency")
    })


def failed_trials_digest(seed: int) -> dict[str, str]:
    """Digests of the FAILED_TRIALS_RUNS commands at one seed."""
    return _runs_digest(f"failed-trials/{seed}", {
        name: [*argv, "--seed", str(seed)] for name, argv in FAILED_TRIALS_RUNS.items()
    })


def scan_field_digest() -> dict[str, str]:
    """Digests of SCAN_FIELD_ARGV in each domain."""
    return _runs_digest("scan-field", {
        domain: [*SCAN_FIELD_ARGV, "--domain", domain] for domain in ("spatial", "frequency")
    })


def _located_anchor(rng, anchor: str, field: tuple[int, int], size: tuple[int, int]) -> tuple:
    """(top, left) of an anchor name of LOCATED_FRAMES."""
    last = [n - k for n, k in zip(field, size)]
    if anchor == "middle":
        return tuple(int(rng.integers(hi // 4, 3 * hi // 4 + 1)) for hi in last)
    named = {"top": (1, None), "bottom": (last[0] - 1, None), "left": (None, 1),
             "right": (None, last[1] - 1), "top-left": (0, 0), "bottom-right": tuple(last)}
    return tuple(int(rng.integers(0, hi + 1)) if v is None else v
                 for v, hi in zip(named[anchor], last))


def located_digest(seed: int) -> dict[str, str]:
    """Digests of `roisolve recover` without --roi on every LOCATED_FRAMES and
    LOCATED_HUGE frame, drawn from seed."""
    import numpy as np

    import roisolve.cli as cli
    import workloads

    rng = np.random.default_rng(seed)
    tmp = tempfile.mkdtemp(prefix="cycle-digest-")
    try:
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
        digests = {}
        for name, (path, size, extra) in runs.items():
            out = os.path.join(tmp, "out", name)
            argv = ["recover", "--observed", path, "--size", f"{size[0]}x{size[1]}", *extra,
                    "--cutoff", "6", "--out", out]
            digests.update(_op_digest(cli, argv, out, tmp, f"located/{seed}/{name}"))
        return digests
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _solver_frame(tmp: str) -> str:
    """Path of the frame SOLVER_FRAME stands for, written into tmp: a 48x48
    raw frame holding a blurred 2x2 block at (20, 22)."""
    import numpy as np

    import workloads

    ideal = np.zeros((48, 48))
    ideal[20:22, 22:24] = [[40.0, 200.0], [120.0, 10.0]]
    frame = os.path.join(tmp, "frame.raw")
    workloads.write_raw(frame, workloads._blur(ideal))
    return frame


def solvers_digest() -> dict[str, str]:
    """Digests of every SOLVER_RUNS command in each domain with each
    SOLVER_SPELLINGS solver."""
    import roisolve.cli as cli

    tmp = tempfile.mkdtemp(prefix="cycle-digest-")
    try:
        frame = _solver_frame(tmp)
        digests = {}
        for command, argv in SOLVER_RUNS.items():
            for domain in ("spatial", "frequency"):
                for solver in SOLVER_SPELLINGS:
                    name = f"{command}-{domain}-{solver}"
                    out = os.path.join(tmp, "out", name)
                    full = [frame if a == SOLVER_FRAME else a for a in argv]
                    full += ["--domain", domain, "--solver", solver, "--out", out]
                    digests.update(_op_digest(cli, full, out, tmp, f"solvers/{name}"))
        return digests
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _frame_runs_digest(prefix: str, runs: dict[str, list[str]]) -> dict[str, str]:
    """Digests of each named command under prefix/name, SOLVER_FRAME read as
    the frame it stands for; each takes its own --out but two-point."""
    import roisolve.cli as cli

    tmp = tempfile.mkdtemp(prefix="cycle-digest-")
    try:
        frame = _solver_frame(tmp)
        digests = {}
        for name, argv in runs.items():
            out = os.path.join(tmp, "out", name)
            full = [frame if a == SOLVER_FRAME else a for a in argv]
            if full[0] != "two-point":
                full += ["--out", out]
            digests.update(_op_digest(cli, full, out, tmp, f"{prefix}/{name}"))
        return digests
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def refusals_digest() -> dict[str, str]:
    """Digests of every REFUSAL_RUNS command, under refusals/<name>."""
    return _frame_runs_digest("refusals", REFUSAL_RUNS)


def singular_digest() -> dict[str, str]:
    """Digests of every SINGULAR_RUNS command, under singular/<name>."""
    return _frame_runs_digest("singular", SINGULAR_RUNS)


def help_digest() -> dict[str, str]:
    """Digests of every subcommand's --help at a fixed terminal width."""
    import roisolve.cli as cli

    with mock.patch.dict(os.environ, COLUMNS="80"):
        return {f"help/{c}": _hash("\0".join(_run(cli, [c, "--help"])).encode())
                for c in SUBCOMMANDS}


# workloads that run once whatever the seeds
SEEDLESS = {"help": help_digest, "psf": psf_digest, "scan-field": scan_field_digest,
            "solvers": solvers_digest, "refusals": refusals_digest, "singular": singular_digest}


def digest(workload_names, seeds) -> dict[str, str]:
    result = {}
    for workload in workload_names:
        if workload in SEEDLESS:
            result.update(SEEDLESS[workload]())
            continue
        for seed in seeds:
            if workload == "noisy-table":
                result.update(noisy_table_digest(seed))
            elif workload == "failed-trials":
                result.update(failed_trials_digest(seed))
            elif workload == "located":
                result.update(located_digest(seed))
            else:
                result.update(cycle_digest(workload, seed))
    return result


def blas_threads() -> int | None:
    """The OpenBLAS thread count numpy runs at in this process, read as
    bench/run.py reads it (None when no OpenBLAS is loaded)."""
    import numpy  # noqa: F401  (loads the BLAS under this process's environment)

    with mock.patch.dict(os.environ):  # importing run caps the BLAS variables
        from run import _blas_threads
    return _blas_threads()


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
    names = [w.strip() for w in args.workloads.split(",") if w.strip()]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    result = digest(names, seeds)
    result[BLAS_THREADS_KEY] = str(blas_threads())
    text = json.dumps(result, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
