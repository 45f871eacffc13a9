"""Experiment harness: metrics, localization, tables, scans, noise sweeps.

Everything here is deterministic given its root seed. Per-trial streams are
derived with SeedSequence spawn keys so trials are independent of execution
order and safe to parallelize externally.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import frequency, spatial
from .errors import (
    BoundsError,
    NoSignalError,
    ParameterError,
    RoiSolveError,
    ShapeError,
)
from .forward import NoiseSpec, noise_field, observe_field
from .grid import RoiSpec, centered_roi, scatter_roi
from .linear import LinearSystem
from .optics import OtfSpec, PsfKernel, build_psf

DEFAULT_SEED = 12345
DEFAULT_FIELD = (768, 768)
DEFAULT_CUTOFF = 6.0
DEFAULT_PSF_CROP = 501
SIZES_DEFAULT = range(2, 21)
# Each domain's observation_index, build_system, observation readers and
# solve_system, and its METHODS: the one place a domain name picks code.
# Callers look functions up on the module at call time, so wrappers installed
# on the module attribute see every call.
DOMAIN_MODULES = {"spatial": spatial, "frequency": frequency}
DOMAINS = tuple(DOMAIN_MODULES)


# ---------------------------------------------------------------------------
# metrics

def averaged_error(recovered: np.ndarray, ideal: np.ndarray) -> float:
    """||recovered - ideal||_2 divided by the pixel count."""
    recovered = np.asarray(recovered).ravel()
    ideal = np.asarray(ideal).ravel()
    if recovered.shape != ideal.shape:
        raise ShapeError(f"length mismatch {recovered.shape} vs {ideal.shape}")
    return float(np.linalg.norm(recovered - ideal)) / ideal.size


def averaged_difference(a_matrix: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """||A x - y||_2 divided by the unknown count; complex-safe."""
    a_matrix = np.asarray(a_matrix)
    x = np.asarray(x).ravel()
    y = np.asarray(y).ravel()
    if a_matrix.shape != (y.size, x.size):
        raise ShapeError(f"matrix {a_matrix.shape} does not map {x.size} -> {y.size}")
    return float(np.linalg.norm(a_matrix @ x - y)) / x.size


# ---------------------------------------------------------------------------
# localization

def locate_roi(
    observed: np.ndarray, k_rows: int, l_cols: int, rel_threshold: float = 0.1
) -> RoiSpec:
    """Estimate where an isolated K x L region sits in a blurred image.

    Takes the intensity centroid of all cells at or above rel_threshold of the
    image peak and snaps a K x L box onto it (clamping at the borders). Good to
    about one cell for a region that is genuinely isolated.

    Raises:
        ParameterError: the image holds NaN or Inf.
        NoSignalError: the image has no positive values to localize.
    """
    arr = np.asarray(observed, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"observed image must be 2D, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ParameterError("observed image holds NaN or Inf; nothing can be located")
    rows, cols = arr.shape
    if k_rows > rows or l_cols > cols:
        raise BoundsError(f"{k_rows}x{l_cols} region cannot fit a {rows}x{cols} image")
    if not (0 < rel_threshold <= 1):
        raise ParameterError(f"rel_threshold must be in (0, 1], got {rel_threshold}")
    peak = float(arr.max())
    if peak <= 0:
        raise NoSignalError("image has no positive signal to localize")
    weights = np.zeros_like(arr)
    np.copyto(weights, arr, where=arr >= rel_threshold * peak)
    total = float(weights.sum())
    if total <= 0:
        raise NoSignalError("no cells cleared the localization threshold")
    row_c = float(weights.sum(axis=1) @ np.arange(rows)) / total
    col_c = float(weights.sum(axis=0) @ np.arange(cols)) / total
    top = int(np.floor(row_c - (k_rows - 1) / 2.0 + 0.5))
    left = int(np.floor(col_c - (l_cols - 1) / 2.0 + 0.5))
    top = min(max(top, 0), rows - k_rows)
    left = min(max(left, 0), cols - l_cols)
    return RoiSpec(top, left, k_rows, l_cols)


# ---------------------------------------------------------------------------
# randomized trials

def trial_seed_sequence(root_seed: int, size: int, trial: int) -> np.random.SeedSequence:
    """Stream for the pixel draw of one (size, trial) cell of a table run."""
    return np.random.SeedSequence(root_seed, spawn_key=(size, trial))


def noise_stream_seed(root_seed: int, size: int, trial: int) -> int:
    """Seed for the noise realization; independent of the pixel stream and of
    the noise level, so one trial sees the same noise shape at every level."""
    seq = np.random.SeedSequence(root_seed, spawn_key=(size, trial, 1))
    return int(seq.generate_state(1)[0])


def _draw_pixels(rng: np.random.Generator, k_rows: int, l_cols: int) -> np.ndarray:
    return rng.uniform(0.0, 256.0, (k_rows, l_cols))


def effective_cutoff(base: float, k_rows: int, l_cols: int) -> float:
    """Smallest cutoff that keeps a K x L corner block of the spectrum in the
    passband; never below the base cutoff."""
    return max(base, math.hypot(k_rows - 1, l_cols - 1))


@dataclass(frozen=True)
class TrialResult:
    domain: str
    roi_size: int
    trial: int
    seed: int
    ae: float
    ad: float
    condition: float
    error: str | None = None


def _statistic(
    trials: list[TrialResult], field_name: str, reduce: Callable[[np.ndarray], float]
) -> float:
    """reduce() over one field of the trials that did not fail; nan if all did."""
    values = np.asarray([getattr(t, field_name) for t in trials if t.error is None], dtype=float)
    return float(reduce(values)) if values.size else float("nan")


def _failures(trials: list[TrialResult]) -> int:
    return sum(1 for t in trials if t.error is not None)


def _finite_mean(values: np.ndarray) -> float:
    """Mean of the finite values: a skipped condition estimate is nan."""
    finite = values[np.isfinite(values)]
    return float(finite.mean()) if finite.size else float("nan")


@dataclass
class ExperimentReport:
    """One table run: every trial row plus enough metadata to rerun it."""

    domain: str
    field_rows: int
    field_cols: int
    base_cutoff: float
    psf_crop: int
    trials_per_size: int
    root_seed: int
    solver: str
    extra_ring: int
    noise_psnr_db: float | None
    effective_cutoffs: dict[int, float] = dataclass_field(default_factory=dict)
    trials: list[TrialResult] = dataclass_field(default_factory=list)

    def sizes(self) -> list[int]:
        seen: list[int] = []
        for t in self.trials:
            if t.roi_size not in seen:
                seen.append(t.roi_size)
        return seen

    def trials_for(self, size: int) -> list[TrialResult]:
        return [t for t in self.trials if t.roi_size == size]

    def mean_ae(self, size: int) -> float:
        return _statistic(self.trials_for(size), "ae", np.mean)

    def std_ae(self, size: int) -> float:
        return _statistic(self.trials_for(size), "ae", np.std)

    def mean_ad(self, size: int) -> float:
        return _statistic(self.trials_for(size), "ad", np.mean)

    def std_ad(self, size: int) -> float:
        return _statistic(self.trials_for(size), "ad", np.std)

    def max_ad(self, size: int) -> float:
        return _statistic(self.trials_for(size), "ad", np.max)

    def failures(self, size: int) -> int:
        return _failures(self.trials_for(size))

    def summary_rows(self) -> list[dict]:
        rows = []
        for size in self.sizes():
            rows.append(
                {
                    "roi_size": size,
                    "trials": len(self.trials_for(size)),
                    "failed": self.failures(size),
                    "mean_ae": self.mean_ae(size),
                    "std_ae": self.std_ae(size),
                    "mean_ad": self.mean_ad(size),
                    "std_ad": self.std_ad(size),
                    "max_ad": self.max_ad(size),
                    "mean_condition": _statistic(self.trials_for(size), "condition", _finite_mean),
                    "effective_cutoff": self.effective_cutoffs.get(size, self.base_cutoff),
                }
            )
        return rows

    def manifest(self) -> dict[str, str]:
        entries = {
            "domain": self.domain,
            "field_rows": str(self.field_rows),
            "field_cols": str(self.field_cols),
            "base_cutoff": repr(self.base_cutoff),
            "psf_crop": str(self.psf_crop),
            "trials_per_size": str(self.trials_per_size),
            "root_seed": str(self.root_seed),
            "solver": self.solver,
            "extra_ring": str(self.extra_ring),
            "noise_psnr_db": "" if self.noise_psnr_db is None else repr(self.noise_psnr_db),
            "sizes": ",".join(str(s) for s in self.sizes()),
        }
        for size, cut in sorted(self.effective_cutoffs.items()):
            entries[f"effective_cutoff_{size}"] = repr(cut)
        return entries


def _check_run_args(domain: str, trials: int, extra_ring: int) -> None:
    if domain not in DOMAINS:
        raise ParameterError(f"unknown domain {domain!r}, expected one of {DOMAINS}")
    if trials < 1:
        raise ParameterError(f"trials_per_size must be >= 1, got {trials}")
    if extra_ring < 0:
        raise ParameterError(f"extra_ring must be >= 0, got {extra_ring}")


def kernel_reach(edge: int, ring: int) -> int:
    """Largest kernel offset the image-domain system reads for a region whose
    longer side is edge, observed with a ring of that width. An edge below 1
    and a negative ring count as 1 and 0, so the callers' own checks report
    them."""
    return max(edge, 1) - 1 + max(ring, 0)


def _domain_psf(
    domain: str, rows: int, cols: int, cutoff_radius: float, psf_crop: int, edge: int, ring: int
) -> PsfKernel | None:
    """The image domain's kernel for a run whose longest region side is edge,
    built out to kernel_reach(edge, ring) only (of the validated psf_crop);
    the transform domain needs none."""
    if domain == "spatial":
        return build_psf(OtfSpec(rows, cols, cutoff_radius), psf_crop, kernel_reach(edge, ring))
    return None


def _size_layout(
    domain: str,
    size: int,
    rows: int,
    cols: int,
    cutoff_radius: float,
    psf: PsfKernel | None,
    extra_ring: int,
) -> tuple[RoiSpec, PsfKernel | OtfSpec]:
    """The centred ROI of one size and the blur its observations go through.

    In the transform domain the cutoff is raised to keep the selected block
    (size + extra_ring per axis) inside the passband.
    """
    roi = centered_roi(rows, cols, size, size)
    if domain == "spatial":
        return roi, psf
    sel = size + extra_ring
    return roi, OtfSpec(rows, cols, effective_cutoff(cutoff_radius, sel, sel))


def roi_problem(
    domain: str,
    roi: RoiSpec,
    field_shape: tuple[int, int],
    blur: PsfKernel | OtfSpec,
    ring: int,
    estimate_condition: bool = True,
) -> LinearSystem:
    """Build the system of one ROI on a field_shape frame before any observation
    is read: every trial of a size, scan tile or recover call that shares it
    supplies only a right-hand side.

    The image domain observes the ROI cells plus the cells within ring of
    them, through the kernel blur. The transform domain reads the
    (K+ring) x (L+ring) spectrum block at the origin, every entry of which
    must lie inside the passband of the transfer spec blur.

    Raises:
        ParameterError: unknown domain, ring < 0, or a blur the domain does
            not read (a PsfKernel for the image domain, an OtfSpec for the
            transform domain).
    """
    if domain not in DOMAINS:
        raise ParameterError(f"unknown domain {domain!r}, expected one of {DOMAINS}")
    if ring < 0:
        raise ParameterError(f"ring must be >= 0, got {ring}")
    module = DOMAIN_MODULES[domain]
    obs_index = module.observation_index(roi, field_shape, ring)
    return module.build_system(
        field_shape, roi, obs_index, blur, estimate_condition=estimate_condition
    )


def noisy_rhs(
    domain: str, system: LinearSystem, clean: np.ndarray, unit: np.ndarray, sigmas: Sequence[float]
) -> np.ndarray:
    """frame_rhs(system, clean + sigma * unit) for each sigma, one row each.

    Both domains' readers are linear, so clean and unit are read once and
    each level is formed on the system's rows: the same bytes in the image
    domain (cell reads), the same values to rounding in the transform domain
    (partial DFT).
    """
    frame_rhs = DOMAIN_MODULES[domain].frame_rhs
    return frame_rhs(system, clean) + np.multiply.outer(sigmas, frame_rhs(system, unit))


def _failed_trial(domain: str, size: int, trial: int, seed: int, exc: RoiSolveError) -> TrialResult:
    return TrialResult(
        domain=domain,
        roi_size=size,
        trial=trial,
        seed=seed,
        ae=float("nan"),
        ad=float("nan"),
        condition=float("nan"),
        error=f"{type(exc).__name__}: {exc}",
    )


def _solved_trial(
    domain: str,
    system: LinearSystem,
    method: str,
    trial: int,
    seed: int,
    pixels: np.ndarray,
    rhs: np.ndarray,
) -> TrialResult:
    """Solve one trial; a RoiSolveError is recorded in the row instead of metrics."""
    size = system.roi.k_rows
    try:
        sol = DOMAIN_MODULES[domain].solve_system(system, rhs, method)
        return TrialResult(
            domain=domain,
            roi_size=size,
            trial=trial,
            seed=seed,
            ae=averaged_error(sol.pixels, pixels),
            ad=averaged_difference(system.a_matrix, pixels, rhs),
            condition=sol.condition,
        )
    except RoiSolveError as exc:
        return _failed_trial(domain, size, trial, seed, exc)


def _run_size(
    domain: str,
    roi: RoiSpec,
    field_shape: tuple[int, int],
    blur: PsfKernel | OtfSpec,
    extra_ring: int,
    estimate_condition: bool,
    method: str,
    trials: int,
    root_seed: int,
    levels: list[float | None],
) -> list[list[TrialResult]]:
    """Every trial of one ROI size at each noise level (None: noiseless).

    The system is built once for the size. Trials run outside and levels
    inside: a noiseless level evaluates only what the system reads. The noisy
    levels of a trial share one clean frame, blurred over the full field by
    observe_field on the system's transfer spec in either domain, its peak
    and its unit-noise field; noisy_rhs reads clean and unit once and forms
    every level's right-hand side of clean + sigma * unit from them.
    """
    size = roi.k_rows
    out: list[list[TrialResult]] = [[] for _ in levels]
    try:
        system = roi_problem(domain, roi, field_shape, blur, extra_ring, estimate_condition)
    except RoiSolveError as exc:
        system, failure = None, exc
    noisy = [i for i, level in enumerate(levels) if level is not None]
    for trial in range(trials):
        seq = trial_seed_sequence(root_seed, size, trial)
        rng = np.random.default_rng(seq)
        seed_id = int(seq.generate_state(1)[0])
        pixels = _draw_pixels(rng, size, size).ravel()
        if system is None:
            for rows_out in out:
                rows_out.append(_failed_trial(domain, size, trial, seed_id, failure))
            continue
        for i, level in enumerate(levels):
            if level is None:
                rhs = DOMAIN_MODULES[domain].noiseless_rhs(system, pixels)
                out[i].append(_solved_trial(domain, system, method, trial, seed_id, pixels, rhs))
        if not noisy:
            continue
        noise_seed = noise_stream_seed(root_seed, size, trial)
        try:
            clean = observe_field(scatter_roi(pixels, roi, *field_shape), system.spec)
            peak, unit = noise_field(clean, noise_seed)
        except RoiSolveError as exc:
            for i in noisy:
                out[i].append(_failed_trial(domain, size, trial, seed_id, exc))
            continue
        sigmas = [NoiseSpec(levels[i], noise_seed).sigma(peak) for i in noisy]
        rhs_levels = noisy_rhs(domain, system, clean, unit, sigmas)
        del clean, unit  # one trial's full-field arrays alive at a time
        for i, rhs in zip(noisy, rhs_levels):
            out[i].append(_solved_trial(domain, system, method, trial, seed_id, pixels, rhs))
    return out


def run_table_experiment(
    domain: str,
    sizes: Sequence[int] = SIZES_DEFAULT,
    trials_per_size: int = 20,
    root_seed: int = DEFAULT_SEED,
    field_shape: tuple[int, int] = DEFAULT_FIELD,
    cutoff_radius: float = DEFAULT_CUTOFF,
    psf_crop: int = DEFAULT_PSF_CROP,
    solver: str | None = None,
    extra_ring: int = 0,
    noise_psnr_db: float | None = None,
    estimate_condition: bool = True,
) -> ExperimentReport:
    """Randomized recovery trials over a range of square ROI sizes.

    Each (size, trial) cell draws uniform pixels in [0, 256), frames them in
    the middle of an otherwise dark field, observes through the low-pass
    model, builds the domain's system and solves it, recording averaged error
    against the known pixels and averaged difference of the system itself.

    extra_ring widens the observation set: in the image domain it appends the
    ring of cells within that Chebyshev distance of the ROI; in the transform
    domain it grows the selected spectrum block by the same amount per axis.
    Either way the default solver switches to the least-squares variant.

    In the transform domain the cutoff is raised per size to keep the selected
    block inside the passband; the report records the effective value used.

    Every trial of a size shares one system (matrix and condition estimate).
    Noiseless trials evaluate only the observations the system reads; noisy
    ones (finite noise_psnr_db) observe the full field, since the noise is
    pinned to its peak. noise_psnr_db=inf runs noiseless; NaN and -inf raise
    ParameterError.

    Trials that raise a solver error are recorded with the message instead of
    metrics; nothing is retried or resampled.
    """
    _check_run_args(domain, trials_per_size, extra_ring)
    if noise_psnr_db is not None:
        NoiseSpec(noise_psnr_db, root_seed)  # refuses NaN and -inf before any trial
    rows, cols = int(field_shape[0]), int(field_shape[1])
    valid = DOMAIN_MODULES[domain].METHODS
    method = solver or valid[extra_ring > 0]
    if method not in valid:
        raise ParameterError(
            f"unknown solver {method!r} for the {domain} domain, expected one of {valid}"
        )
    report = ExperimentReport(
        domain=domain,
        field_rows=rows,
        field_cols=cols,
        base_cutoff=cutoff_radius,
        psf_crop=psf_crop,
        trials_per_size=trials_per_size,
        root_seed=root_seed,
        solver=method,
        extra_ring=extra_ring,
        noise_psnr_db=noise_psnr_db,
    )

    psf = _domain_psf(
        domain, rows, cols, cutoff_radius, psf_crop, max(sizes, default=1), extra_ring
    )
    # +inf adds no noise
    level = None if noise_psnr_db in (None, math.inf) else noise_psnr_db
    for size in sizes:
        if size < 1:
            raise ParameterError(f"ROI size must be >= 1, got {size}")
        roi, blur = _size_layout(domain, size, rows, cols, cutoff_radius, psf, extra_ring)
        if domain == "frequency":
            report.effective_cutoffs[size] = blur.cutoff_radius
        (trials,) = _run_size(
            domain, roi, (rows, cols), blur, extra_ring, estimate_condition, method,
            trials_per_size, root_seed, [level],
        )
        report.trials.extend(trials)
    return report


def ad_spot_check(
    domain: str,
    size: int,
    trial: int = 0,
    root_seed: int = DEFAULT_SEED,
    field_shape: tuple[int, int] = DEFAULT_FIELD,
    cutoff_radius: float = DEFAULT_CUTOFF,
    psf_crop: int = DEFAULT_PSF_CROP,
) -> float:
    """Averaged difference of one large square system, without solving it.

    Builds the size^2-unknown system for a single random trial and measures
    how far A times the known ideal pixels sits from the measured right-hand
    side. No condition estimate and no solve, so this stays feasible for
    systems with thousands of unknowns (memory is the binding constraint; the
    matrix itself is materialized). The right-hand side comes from the same
    passband-sparse evaluation as a noiseless table trial, independently of
    the kernel or phase matrix the system is built from.
    """
    if domain not in DOMAINS:
        raise ParameterError(f"unknown domain {domain!r}, expected one of {DOMAINS}")
    rows, cols = int(field_shape[0]), int(field_shape[1])
    psf = _domain_psf(domain, rows, cols, cutoff_radius, psf_crop, size, 0)
    roi, blur = _size_layout(domain, size, rows, cols, cutoff_radius, psf, 0)
    system = roi_problem(domain, roi, (rows, cols), blur, 0, estimate_condition=False)
    rng = np.random.default_rng(trial_seed_sequence(root_seed, size, trial))
    pixels = _draw_pixels(rng, size, size).ravel()
    rhs = DOMAIN_MODULES[domain].noiseless_rhs(system, pixels)
    return averaged_difference(system.a_matrix, pixels, rhs)


# ---------------------------------------------------------------------------
# scan and stitch

def make_test_sample(rows: int, cols: int, seed: int = 0) -> np.ndarray:
    """A deterministic structured sample: gradients, a disk, a bar, texture.

    Values land in [0, 256). Useful as ground truth for scan experiments.
    """
    if rows < 1 or cols < 1:
        raise ParameterError(f"sample must be at least 1x1, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    yy, xx = np.indices((rows, cols), dtype=float)
    img = 40.0 + 60.0 * (xx / max(cols - 1, 1)) + 40.0 * (yy / max(rows - 1, 1))
    cy, cx = 0.35 * rows, 0.62 * cols
    radius = 0.18 * min(rows, cols)
    img[(yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2] += 80.0
    img[int(0.55 * rows) : int(0.80 * rows), int(0.12 * cols) : int(0.38 * cols)] += 60.0
    img += 18.0 * np.sin(2 * np.pi * 5.0 * xx / cols) * np.cos(2 * np.pi * 3.0 * yy / rows)
    img += rng.uniform(0.0, 12.0, (rows, cols))
    return np.clip(img, 0.0, 255.9)


def scan_reconstruct(
    sample: np.ndarray,
    tile_shape: tuple[int, int],
    psf,
    domain: str = "spatial",
    solver: str | None = None,
) -> np.ndarray:
    """Recover a whole sample tile by tile, each tile treated as isolated.

    Scanning illuminates one tile at a time, so every tile observation is an
    isolated-ROI problem; the recoveries are stitched back at their original
    positions. Sample dimensions must be divisible by the tile dimensions.

    In the image domain the per-tile observation depends only on offsets, so
    the origin tile's system serves every tile. In the transform domain the
    tile position enters the system only as a unit-modulus row scaling that
    cancels between measurement and solve, so the origin-anchored system is
    reused the same way; this path requires the kernel's field to match the
    sample shape. Every tile is one right-hand-side column of a single solve
    with solver, one of the domain's METHODS (None: METHODS[0], LU).
    """
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"sample must be 2D, got ndim={arr.ndim}")
    k_rows, l_cols = int(tile_shape[0]), int(tile_shape[1])
    if k_rows < 1 or l_cols < 1:
        raise ParameterError(f"tile must be at least 1x1, got {k_rows}x{l_cols}")
    rows, cols = arr.shape
    if rows % k_rows != 0 or cols % l_cols != 0:
        raise ShapeError(
            f"sample {rows}x{cols} is not divisible into {k_rows}x{l_cols} tiles"
        )
    blur = psf
    if domain == "frequency":
        if psf.spec is None or psf.spec.shape != arr.shape:
            have = "none" if psf.spec is None else f"{psf.spec.shape}"
            raise ShapeError(
                f"transform-domain scan needs a kernel field matching the sample "
                f"{arr.shape}, got {have}"
            )
        eff_cut = effective_cutoff(psf.spec.cutoff_radius, k_rows, l_cols)
        blur = OtfSpec(rows, cols, eff_cut, psf.spec.passband_gain)
    system = roi_problem(
        domain, RoiSpec(0, 0, k_rows, l_cols), arr.shape, blur, 0, estimate_condition=False
    )
    down, across = rows // k_rows, cols // l_cols
    # column t holds tile (t // across, t % across), row-major within the tile
    tiles = arr.reshape(down, k_rows, across, l_cols).transpose(1, 3, 0, 2)
    module = DOMAIN_MODULES[domain]
    rhs = system.a_matrix @ tiles.reshape(k_rows * l_cols, -1)
    sol = module.solve_system(system, rhs, solver or module.METHODS[0])
    recovered = sol.pixels.reshape(k_rows, l_cols, down, across).transpose(2, 0, 3, 1)
    return recovered.reshape(rows, cols)


# ---------------------------------------------------------------------------
# noise sweep

DEFAULT_PSNR_GRID = (40.0, 80.0, 120.0, 160.0, 200.0, 240.0, 250.0, 280.0, 300.0, 320.0, 340.0)
# From this level up sigma <= eps * peak: the noise lies below the float64
# spacing at the peak, so such a point measures rounding, not noise.
FLOAT_RESOLUTION_DB = 20.0 * math.log10(1.0 / np.finfo(float).eps)


@dataclass(frozen=True)
class SweepPoint:
    domain: str
    psnr_db: float
    amplitude_ratio: float
    mean_ae: float
    std_ae: float
    failed: int


@dataclass
class NoiseSweepReport:
    """Averaged error versus noise level, per domain, with a crossing readout."""

    roi_size: int
    trials_per_level: int
    root_seed: int
    field_rows: int
    field_cols: int
    base_cutoff: float
    psf_crop: int
    extra_ring: int
    threshold_ae: float
    points: list[SweepPoint] = dataclass_field(default_factory=list)

    def points_for(self, domain: str) -> list[SweepPoint]:
        return [p for p in self.points if p.domain == domain]

    def crossing_db(self, domain: str) -> float | None:
        """Smallest finite noise level whose mean AE meets the threshold."""
        ok = [
            p.psnr_db
            for p in self.points_for(domain)
            if math.isfinite(p.psnr_db) and p.mean_ae <= self.threshold_ae
        ]
        return min(ok) if ok else None

    def interpretation_lines(self) -> list[str]:
        lines = [
            f"acceptability threshold: mean AE <= {self.threshold_ae:.6g} "
            "(1% of the mean ideal pixel)",
        ]
        for domain in DOMAINS:
            pts = self.points_for(domain)
            if not pts:
                continue
            crossing = self.crossing_db(domain)
            if crossing is None:
                lines.append(f"{domain}: no finite noise level met the threshold")
            else:
                ratio = 10.0 ** (crossing / 20.0)
                lines.append(
                    f"{domain}: acceptable from {crossing:g} dB up "
                    f"(peak/sigma amplitude ratio {ratio:.6g})"
                )
        unresolved = sorted(
            {p.psnr_db for p in self.points if FLOAT_RESOLUTION_DB <= p.psnr_db < math.inf}
        )
        if unresolved:
            lines.append(
                f"float64 note: at {', '.join(f'{db:g}' for db in unresolved)} dB sigma is at "
                f"or below eps * peak (from {FLOAT_RESOLUTION_DB:.2f} dB up), so those points "
                "measure rounding, not noise"
            )
        lines.append(
            "unit note: a raw amplitude ratio of 250 equals 47.96 dB; "
            "reading 250 as decibels instead means a ratio of 10^12.5"
        )
        return lines


def noise_sweep(
    roi_size: int = 3,
    psnr_grid: tuple[float, ...] = DEFAULT_PSNR_GRID,
    trials_per_level: int = 20,
    root_seed: int = DEFAULT_SEED,
    field_shape: tuple[int, int] = DEFAULT_FIELD,
    cutoff_radius: float = DEFAULT_CUTOFF,
    psf_crop: int = DEFAULT_PSF_CROP,
    extra_ring: int = 2,
    domains: tuple[str, ...] = DOMAINS,
) -> NoiseSweepReport:
    """Sweep the noise level and record recovery quality per domain.

    Runs the table experiment at one ROI size for each level of the grid plus
    a noiseless baseline; every point equals run_table_experiment at that
    level with estimate_condition=False. The same trial draws (pixels and
    noise shape) are reused across levels, so curves differ only by the noise
    amplitude. Each trial blurs its frame over the full field once
    (observe_field, in both domains) and reads the clean frame and the unit
    noise once; every level's right-hand side is formed from those two reads
    (noisy_rhs). The default ring-augmented least-squares setup
    keeps the noiseless baseline under the threshold so a crossing exists to
    report.
    """
    if roi_size < 1:
        raise ParameterError(f"roi_size must be >= 1, got {roi_size}")
    levels = sorted(set(float(p) for p in psnr_grid))
    if any(not math.isfinite(p) for p in levels):
        raise ParameterError("psnr_grid must contain finite dB values")
    if not domains or len(set(domains)) != len(domains):
        raise ParameterError(f"domains must name at least one domain, each once; got {domains}")
    for domain in domains:
        _check_run_args(domain, trials_per_level, extra_ring)
    rows, cols = int(field_shape[0]), int(field_shape[1])

    pixel_means = []
    for trial in range(trials_per_level):
        rng = np.random.default_rng(trial_seed_sequence(root_seed, roi_size, trial))
        pixel_means.append(float(_draw_pixels(rng, roi_size, roi_size).mean()))
    threshold = 0.01 * float(np.mean(pixel_means))

    report = NoiseSweepReport(
        roi_size=roi_size,
        trials_per_level=trials_per_level,
        root_seed=root_seed,
        field_rows=rows,
        field_cols=cols,
        base_cutoff=cutoff_radius,
        psf_crop=psf_crop,
        extra_ring=extra_ring,
        threshold_ae=threshold,
    )
    for domain in domains:
        psf = _domain_psf(domain, rows, cols, cutoff_radius, psf_crop, roi_size, extra_ring)
        roi, blur = _size_layout(domain, roi_size, rows, cols, cutoff_radius, psf, extra_ring)
        method = DOMAIN_MODULES[domain].METHODS[extra_ring > 0]
        per_level = _run_size(
            domain, roi, (rows, cols), blur, extra_ring, False, method,
            trials_per_level, root_seed, [None] + levels,
        )
        for psnr, trials in zip([math.inf] + levels, per_level):
            report.points.append(
                SweepPoint(
                    domain=domain,
                    psnr_db=psnr,
                    amplitude_ratio=10.0 ** (psnr / 20.0) if math.isfinite(psnr) else math.inf,
                    mean_ae=_statistic(trials, "ae", np.mean),
                    std_ae=_statistic(trials, "ae", np.std),
                    failed=_failures(trials),
                )
            )
    return report
