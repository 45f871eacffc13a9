"""roisolve benchmark: four CLI workloads, timed in-process.

    python3 bench/run.py --workload {table,noise,scan,recover} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S --trace {0,1}

Run from the repository root. Each run is a closed loop with one client: the
workload's command cycle (bench/workloads.py) goes through
`roisolve.cli.main(argv)` one command (op) at a time, in whole cycles, until
--seconds of op time have passed and at least 10 ops lie beyond the tail
percentile. Inputs are generated from --seed before anything is timed, every
op's outputs are checked, and BLAS runs at most `nproc` threads.

--trace 0 prints the end-to-end metrics: systems_per_s, op_ms_p50,
op_ms_tail, setup_s and peak_rss_mb. Timings are reported at a nominal
machine speed (see SpeedReference). setup_s is the median over fresh
processes of `import roisolve` plus the workload's first op. --trace 1
instead alternates untraced and traced cycles, a fixed number of each for a
given --seconds, and prints the per-layer metrics of bench/spans.py (raw
wall times; the overhead compares traced and untraced cycles). The last
stdout line is the JSON result; the line before it, prefixed "detail ",
holds provenance, op counts, the tail percentile, failed_frac and the raw
speed factors. --workload all runs each workload in its own process and
prints one table.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
# before numpy loads here or in any child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_cur), NPROC) if _cur.isdigit() and int(_cur) > 0 else NPROC)

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("table", "noise", "scan", "recover")
SETUP_PROBES = 5
PROBE_REFERENCE_SAMPLES = 4
CHILD_TIMEOUT_S = 170
END_TO_END = (
    ("systems_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

sys.path.insert(0, SRC)
sys.path.insert(0, BENCH_DIR)


def _child(args: list[str]) -> str:
    done = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"bench child {args[:2]} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def run_op(cli, op) -> tuple[float, str | None]:
    """Time one cli.main call, then check its outputs (untimed).

    Returns the op's wall time and None, or a failure message naming the op.
    """
    sink = io.StringIO()
    failure = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that crashes is a failed op, not a crashed run
            where = traceback.extract_tb(exc.__traceback__)[-1]
            failure = f"raised {type(exc).__name__}: {exc} at {where.filename}:{where.lineno}"
    elapsed = time.perf_counter() - start
    if failure is None and code != 0:
        failure = f"exit {code}"
    if failure is None:
        try:
            failure = op.check()
        except (OSError, ValueError, KeyError) as exc:
            failure = f"outputs unreadable: {type(exc).__name__}: {exc}"
    return elapsed, failure and f"{' '.join(op.argv)}: {failure}"


# ---------------------------------------------------------------------------
# provenance

def _git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(FileNotFoundError):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "roisolve")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _blas_threads() -> int | None:
    """Threads reported by each OpenBLAS loaded in this process (the max)."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    counts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return max(counts) if counts else None


def provenance(seed: int) -> dict:
    """Versions, machine and seed; BLAS running more threads than nproc is an error."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    blas_threads = _blas_threads()
    if blas_threads is not None and blas_threads > NPROC:
        raise RuntimeError(f"BLAS runs {blas_threads} threads on {NPROC} processors")
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "blas_threads_env": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "cpu": cpu or platform.processor(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# phases

def probe(workload: str, seed: int, workdir: str, out: str) -> dict:
    """Fresh-process set-up: import roisolve plus the first op.

    The reference samples right after it give this moment's speed factor.
    """
    start = time.perf_counter()
    import roisolve.cli as cli
    import workloads

    imported_s = time.perf_counter() - start
    op_s, failure = run_op(cli, workloads.cycle(workload, seed, workdir, out)[0])
    reference = SpeedReference()
    reference.sample()  # first FFT of a size plans it; not a speed sample
    reference.samples.clear()
    for _ in range(PROBE_REFERENCE_SAMPLES):
        reference.sample()
    return {"setup_s": imported_s + op_s, "speed_factor": reference.factor, "failure": failure}


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """pct-th percentile by nearest rank, and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1], len(ordered) - int(rank)


class SpeedReference:
    """Fixed numpy work, unrelated to roisolve, timed between ops.

    On a shared machine the speed drifts by 10-20% over tens of seconds
    (measured on a 2-vCPU cloud VM), so raw wall times of one run say as much
    about the neighbours as about the program. The reference (one 768x768 FFT
    round trip, bound by memory, and 1000 small dense solves, bound by call
    overhead) runs between ops until it has taken SHARE of the measured op
    time, sampling the machine at the same moments as the ops. Timings are
    then reported at the nominal speed: measured * NOMINAL_S / mean reference
    time. The raw speed factors are in the detail line.
    """

    NOMINAL_S = 0.04
    SHARE = 0.2

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._field = rng.random((768, 768))
        self._matrix = rng.random((20, 20)) + 20 * np.eye(20)
        self.samples: list[float] = []

    def sample(self) -> None:
        np = self._np
        start = time.perf_counter()
        np.fft.ifft2(np.fft.fft2(self._field))
        for _ in range(1000):
            np.linalg.solve(self._matrix, self._field[0, :20])
        self.samples.append(time.perf_counter() - start)

    def keep_up(self, measured_s: float) -> None:
        while sum(self.samples) < self.SHARE * measured_s:
            self.sample()

    @property
    def factor(self) -> float:
        return self.NOMINAL_S / statistics.fmean(self.samples)


def timed_loop(cli, ops, seconds: float, min_ops: int) -> dict:
    """Whole cycles of ops until --seconds of op time and min_ops ops."""
    reference = SpeedReference()
    times, failures, systems = [], [], 0
    measured = 0.0
    while measured < seconds or len(times) < min_ops:
        for op in ops:
            elapsed, failure = run_op(cli, op)
            times.append(elapsed)
            measured += elapsed
            systems += op.systems
            if failure:
                failures.append(failure)
            reference.keep_up(measured)
    return {"times": times, "failures": failures, "systems": systems, "speed_factor": reference.factor}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> None:
    import workloads

    spec = workloads.WORKLOADS[workload]
    if not os.path.isdir(os.path.join(SRC, "roisolve")):
        sys.exit(f"no roisolve sources under {SRC}")
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT)
    try:
        base = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
        _child(["--phase", "inputs", *base])
        probes = [] if trace else [
            json.loads(_child(["--phase", "probe", *base, "--out", os.path.join(workdir, f"probe{i}")]))
            for i in range(SETUP_PROBES)
        ]
        import roisolve.cli as cli

        ops = workloads.cycle(workload, seed, workdir, os.path.join(workdir, "out"))
        _, warm_failure = run_op(cli, ops[0])
        failures = [p["failure"] for p in probes if p["failure"]]
        if warm_failure:
            failures.append(f"first op: {warm_failure}")
        if trace:
            result, metrics = traced_run(cli, ops, spec, seconds)
        else:
            # enough ops that 10 lie beyond the tail percentile
            min_ops = math.ceil(10 / (1 - spec.tail_pct / 100))
            result = timed_loop(cli, ops, seconds, min_ops)
            metrics = end_to_end(result, spec, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    attempted = len(result["times"])
    failed = len(result["failures"])
    _, beyond = nearest_rank(result["times"], spec.tail_pct)
    detail = {
        "workload": workload,
        "provenance": provenance(seed),
        "ops": attempted,
        "systems": result["systems"],
        "timed_s": sum(result["times"]),
        "tail_pct": spec.tail_pct,
        "tail_ops_beyond": beyond,
        "failed_frac": failed / attempted,
        "setup_samples_s": [p["setup_s"] for p in probes],
        "setup_speed_factors": [p["speed_factor"] for p in probes],
        "failures": (failures + result["failures"])[:10],
        "speed_factor": result.get("speed_factor"),
    }
    if not trace and beyond < 10:
        print(f"warning: only {beyond} ops beyond p{spec.tail_pct:g}", file=sys.stderr)
    for failure in detail["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not failures and not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def end_to_end(result: dict, spec, probes: list[dict]) -> dict:
    """Timings at nominal speed: each probe's by its own speed factor, the ops'
    by the loop's (see SpeedReference)."""
    times = result["times"]
    scale = result["speed_factor"]
    tail, _ = nearest_rank(times, spec.tail_pct)
    values = {
        "systems_per_s": result["systems"] / (sum(times) * scale),
        "op_ms_p50": statistics.median(times) * 1000.0 * scale,
        "op_ms_tail": tail * 1000.0 * scale,
        "setup_s": statistics.median(p["setup_s"] * p["speed_factor"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(cli, ops, spec, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced cycles; per-layer metrics of the traced ones.

    The number of cycles depends only on --seconds and the workload, so two
    traced runs do the same work and report the same counts.
    """
    from spans import Tracer

    pairs = max(1, round(seconds / (2 * spec.nominal_cycle_s)))
    tracer = Tracer()
    times, failures = [], []
    spent = {False: 0.0, True: 0.0}
    for _ in range(pairs):
        for traced in (False, True):
            with tracer.installed() if traced else contextlib.nullcontext():
                for op in ops:
                    tracer.op += 1
                    elapsed, failure = run_op(cli, op)
                    times.append(elapsed)
                    spent[traced] += elapsed
                    if failure:
                        failures.append(failure)
    systems = pairs * sum(op.systems for op in ops)
    result = {"times": times, "failures": failures, "systems": 2 * systems}
    return result, tracer.metrics(systems, spent[True], spent[False])


def run_all(seed: int, seconds: float, trace: bool) -> None:
    """Each workload in its own fresh process, then one table of results."""
    rows = {}
    for workload in WORKLOAD_NAMES:
        lines = _child(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(int(trace))]).splitlines()
        detail = json.loads(lines[-2][len("detail "):])
        result = json.loads(lines[-1])
        rows[workload] = {"result": result, "detail": detail}
        print(f"== {workload}: {detail['ops']} ops, {detail['systems']} systems, "
              f"correct {result['correct']}, failed_frac {detail['failed_frac']:g} "
              f"(failed {result['failed']} of {result['attempted']}), "
              f"tail percentile p{detail['tail_pct']:g}")
        for name, metric in result["metrics"].items():
            print(f"   {name:<44} {metric['value']:>14.6g} {metric['unit']}")
        for failure in detail["failures"]:
            print(f"   check failed: {failure}")
    print(json.dumps(rows))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("inputs", "probe"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.phase == "inputs":
        import workloads

        workloads.make_inputs(args.workload, args.seed, args.workdir)
    elif args.phase == "probe":
        print(json.dumps(probe(args.workload, args.seed, args.workdir, args.out)))
    elif args.workload == "all":
        run_all(args.seed, args.seconds, bool(args.trace))
    else:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
