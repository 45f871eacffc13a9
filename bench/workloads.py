"""The four benchmark workloads: inputs, command cycles and output checks.

A workload is a fixed cycle of `roisolve` command lines. Everything the
commands read is generated from the workload seed before anything is timed,
and every CLI parameter is spelled out in argv so that a later change to a
CLI default cannot change the workload. Each command counts the ROI systems
it solves (a table trial, a noise trial at one level, a scan tile or a
recover call is one system) from the workload's own inputs, and each command
has a check of its outputs against the guarantees the acceptance suite
enforces.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

FIELD = 768
CUTOFF = 6.0
PSF_CROP = 501
COMMON = ["--field", f"{FIELD}x{FIELD}", "--cutoff", f"{CUTOFF:g}", "--psf-crop", str(PSF_CROP)]
DOMAINS = ("spatial", "frequency")

TABLE_SIZES = tuple(range(2, 21))
TABLE_TRIALS = 2
# the CLI's default 11-level grid, pinned here
PSNR_GRID = (40.0, 80.0, 120.0, 160.0, 200.0, 240.0, 250.0, 280.0, 300.0, 320.0, 340.0)
NOISE_ROI = 3
NOISE_RING = 2
NOISE_TRIALS = 1
SCAN_SAMPLE = 300
SCAN_TILE = 3
# An isolated ROI is kept this far from the field border, so the centroid
# that locates it never wraps around the circular field.
RECOVER_MARGIN = 128

# Bounds from the acceptance suite (tests/test_acceptance.py).
TABLE_AD_BOUND = {"spatial": 1e-12, "frequency": 1e-10}
TABLE_AE_BOUND_SIZE2 = 1e-5
SCAN_REL_BOUND = 1e-2
# (size, domain, ring) -> bound on the averaged error of a recovered ROI.
# Variants missing here have no published bound; they must exit 0 with
# finite pixels. Square 3x3 spatial is the documented conditioning failure.
RECOVER_AE_BOUND = {
    (2, "spatial", 0): 1e-5,
    (2, "spatial", 2): 1e-5,
    (2, "frequency", 0): 1e-5,
    (3, "frequency", 0): 1e-2,
    (3, "spatial", 2): 1.0,
}


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is its `why` in BENCHMARK.json."""

    name: str
    # fixed percentile reported as op_ms_tail: the highest of 50/75/90/95/98/99
    # that leaves at least 10 ops beyond it in a 15 s run of the seed code
    tail_pct: float
    # cycle length at the seed code, used only to size the traced run so it
    # does a fixed amount of work for a given --seconds
    nominal_cycle_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table", 90.0, 3.8),
        Workload("noise", 50.0, 1.7),
        Workload("scan", 75.0, 0.37),
        Workload("recover", 95.0, 0.62),
    )
}


@dataclass(frozen=True)
class Op:
    """One `roisolve` command: its argv, the systems it solves and its check.

    check() runs after the command exited 0 and returns None when its outputs
    hold, else the reason.
    """

    argv: list[str]
    systems: int
    check: Callable[[], str | None]


# ---------------------------------------------------------------------------
# raster files, written and read here independently of roisolve.fileio

def write_raw(path: str, image: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(f"{image.shape[0]} {image.shape[1]} real64\n".encode("ascii"))
        fh.write(np.ascontiguousarray(image, dtype="<f8").tobytes())


def read_raw(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        rows, cols, kind = fh.readline().split()
        if kind != b"real64":
            raise ValueError(f"{path}: expected real64 data, got {kind!r}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    return data.reshape(int(rows), int(cols))


def write_pgm16(path: str, image: np.ndarray) -> None:
    counts = np.floor(np.clip(image / image.max(), 0.0, 1.0) * 65535 + 0.5).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n65535\n".encode("ascii"))
        fh.write(counts.tobytes())


def read_manifest(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(
            (key.strip(), value.strip())
            for key, _, value in (line.partition("=") for line in fh if "=" in line)
        )


def averaged_error(recovered: np.ndarray, ideal: np.ndarray) -> float:
    return float(np.linalg.norm(recovered.ravel() - ideal.ravel())) / ideal.size


# ---------------------------------------------------------------------------
# inputs

def _blur(ideal: np.ndarray) -> np.ndarray:
    """Ideal low-pass observation: flat disk of radius CUTOFF, unshifted DFT layout."""
    rows, cols = ideal.shape
    du = np.minimum(np.arange(rows), rows - np.arange(rows))
    dv = np.minimum(np.arange(cols), cols - np.arange(cols))
    disk = np.hypot(du[:, None], dv[None, :]) <= CUTOFF
    return np.fft.ifft2(np.fft.fft2(ideal) * disk).real


def _scan_sample(rng: np.random.Generator) -> np.ndarray:
    """Structured texture in [0, 256): gradient, a lit disk, a bar and noise."""
    n = SCAN_SAMPLE
    yy, xx = np.indices((n, n), dtype=float) / (n - 1)
    gx, gy = rng.uniform(20.0, 60.0, 2)
    img = 40.0 + gx * xx + gy * yy
    cy, cx, radius = rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75), rng.uniform(0.1, 0.2)
    img[(yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2] += 80.0
    r0, c0 = rng.integers(0, n // 2, 2)
    img[r0 : r0 + n // 4, c0 : c0 + n // 4] += 50.0
    img += rng.uniform(0.0, 12.0, (n, n))
    return np.clip(img, 0.0, 255.9)


def _recover_frames(rng: np.random.Generator) -> dict[str, dict]:
    """One isolated ROI per (size, format), at a seeded position."""
    frames = {}
    for fmt in ("raw", "pgm"):
        for size in (2, 3):
            top, left = (int(v) for v in rng.integers(RECOVER_MARGIN, FIELD - RECOVER_MARGIN - size, 2))
            pixels = rng.uniform(0.0, 256.0, (size, size))
            frames[f"{fmt}{size}"] = {"format": fmt, "size": size, "top": top, "left": left,
                                      "pixels": pixels.tolist()}
    return frames


def make_inputs(workload: str, seed: int, workdir: str) -> None:
    """Write the workload's input files and truth.json into workdir."""
    rng = np.random.default_rng(seed)
    truth: dict = {}
    if workload == "scan":
        write_raw(os.path.join(workdir, "sample.raw"), _scan_sample(rng))
    elif workload == "recover":
        truth["frames"] = _recover_frames(rng)
        for name, frame in truth["frames"].items():
            ideal = np.zeros((FIELD, FIELD))
            size = frame["size"]
            ideal[frame["top"] : frame["top"] + size, frame["left"] : frame["left"] + size] = frame["pixels"]
            observed = _blur(ideal)
            path = os.path.join(workdir, f"{name}.{frame['format']}")
            (write_raw if frame["format"] == "raw" else write_pgm16)(path, observed)
    with open(os.path.join(workdir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh)


# ---------------------------------------------------------------------------
# cycles and checks

def _check_table(out: str, domain: str) -> str | None:
    with open(os.path.join(out, f"trials_{domain}.csv"), encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != TABLE_TRIALS:
        return f"{len(rows)} trial rows, expected {TABLE_TRIALS}"
    for row in rows:
        if row["error"]:
            return f"trial {row['trial']} failed: {row['error']}"
        if not float(row["ad"]) <= TABLE_AD_BOUND[domain]:
            return f"trial {row['trial']} AD {row['ad']} above {TABLE_AD_BOUND[domain]:g}"
    if rows[0]["roi_size"] == "2":
        mean_ae = sum(float(r["ae"]) for r in rows) / len(rows)
        if not mean_ae <= TABLE_AE_BOUND_SIZE2:
            return f"size-2 mean AE {mean_ae:.3g} above {TABLE_AE_BOUND_SIZE2:g}"
    return None


def _check_noise(out: str, domain: str) -> str | None:
    with open(os.path.join(out, "noise_sweep.csv"), encoding="ascii") as fh:
        ae = {float(r["psnr_db"]): float(r["mean_ae"]) for r in csv.DictReader(fh) if r["domain"] == domain}
    if len(ae) != len(PSNR_GRID) + 1:
        return f"{len(ae)} sweep points, expected {len(PSNR_GRID) + 1}"
    if not ae[40.0] >= ae[80.0] >= ae[math.inf]:
        return f"AE not monotone: 40 dB {ae[40.0]:.3g}, 80 dB {ae[80.0]:.3g}, noiseless {ae[math.inf]:.3g}"
    if not read_manifest(os.path.join(out, "noise_manifest.txt")).get(f"crossing_db_{domain}"):
        return "no acceptability crossing"
    return None


def _check_scan(out: str, sample: np.ndarray) -> str | None:
    recon = read_raw(os.path.join(out, "recovered.raw"))
    if recon.shape != sample.shape:
        return f"recovered shape {recon.shape}, expected {sample.shape}"
    rel = averaged_error(recon, sample) / float(sample.mean())
    if not rel <= SCAN_REL_BOUND:
        return f"relative error {rel:.3g} above {SCAN_REL_BOUND:g}"
    return None


def _check_recover(out: str, frame: dict, domain: str, ring: int) -> str | None:
    size = frame["size"]
    top, left, _, _ = (int(v) for v in read_manifest(os.path.join(out, "recover_manifest.txt"))["roi"].split(","))
    recon = read_raw(os.path.join(out, "recovered.raw"))
    if recon.shape != (size, size) or not np.isfinite(recon).all():
        return f"recovered {recon.shape} block is not {size}x{size} finite pixels"
    # locate_roi promises the ROI to about one cell; off by one, the system
    # is built on a region that is not isolated and no pixel bound applies
    shift = max(abs(top - frame["top"]), abs(left - frame["left"]))
    if shift > 1:
        return f"ROI located at ({top}, {left}), true ({frame['top']}, {frame['left']})"
    bound = RECOVER_AE_BOUND.get((size, domain, ring)) if frame["format"] == "raw" else None
    if bound is not None and shift == 0:
        ae = averaged_error(recon, np.asarray(frame["pixels"]))
        if not ae <= bound:
            return f"{size}x{size} {domain} ring {ring}: AE {ae:.3g} above {bound:g}"
    return None


def cycle(workload: str, seed: int, workdir: str, out: str) -> list[Op]:
    """The workload's command cycle; every command writes into out."""
    seed_args = ["--seed", str(seed), "--out", out]
    ops = []
    if workload == "table":
        for size in TABLE_SIZES:
            for domain in DOMAINS:
                argv = ["table", "--domain", domain, "--sizes", str(size),
                        "--trials", str(TABLE_TRIALS), "--ring", "0", *COMMON, *seed_args]
                ops.append(Op(argv, TABLE_TRIALS, lambda d=domain: _check_table(out, d)))
    elif workload == "noise":
        grid = ",".join(f"{db:g}" for db in PSNR_GRID)
        for domain in DOMAINS:
            argv = ["noise", "--domains", domain, "--roi-size", str(NOISE_ROI),
                    "--ring", str(NOISE_RING), "--psnr", grid, "--trials", str(NOISE_TRIALS),
                    *COMMON, *seed_args]
            systems = (len(PSNR_GRID) + 1) * NOISE_TRIALS
            ops.append(Op(argv, systems, lambda d=domain: _check_noise(out, d)))
    elif workload == "scan":
        path = os.path.join(workdir, "sample.raw")
        sample = read_raw(path)
        n, tile = SCAN_SAMPLE, SCAN_TILE
        for domain in DOMAINS:
            argv = ["scan", "--input", path, "--tile", f"{tile}x{tile}", "--domain", domain,
                    "--field", f"{n}x{n}", "--cutoff", f"{CUTOFF:g}", "--psf-crop", str(n - 1), *seed_args]
            ops.append(Op(argv, (n // tile) ** 2, lambda: _check_scan(out, sample)))
    elif workload == "recover":
        with open(os.path.join(workdir, "truth.json"), encoding="utf-8") as fh:
            frames = json.load(fh)["frames"]
        variants = [(f"raw{size}", located, ring, domain)
                    for size in (2, 3) for located in (False, True)
                    for ring in (0, 2) for domain in DOMAINS]
        variants += [("pgm2", True, 0, "spatial"), ("pgm2", False, 2, "frequency"),
                     ("pgm3", False, 2, "spatial"), ("pgm3", True, 0, "frequency")]
        for name, located, ring, domain in variants:
            frame = frames[name]
            size = frame["size"]
            argv = ["recover", "--observed", os.path.join(workdir, f"{name}.{frame['format']}"),
                    "--size", f"{size}x{size}", "--domain", domain, "--ring", str(ring),
                    *COMMON, *seed_args]
            if not located:
                argv += ["--roi", f"{frame['top']},{frame['left']}"]
            ops.append(Op(argv, 1, lambda f=frame, d=domain, r=ring: _check_recover(out, f, d, r)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
