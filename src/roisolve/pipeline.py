"""Experiment harness: metrics, localization, tables, scans, noise sweeps.

Everything here is deterministic given its root seed. Per-trial streams are
derived with SeedSequence spawn keys so trials are independent of execution
order and safe to parallelize externally.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field
from types import ModuleType

import numpy as np

from . import frequency, spatial
from .errors import (
    BoundsError,
    NoSignalError,
    ParameterError,
    RoiSolveError,
    ShapeError,
)
from .forward import NoiseSpec, amplitude_ratio, observe_field_at
from .grid import RoiSpec, centered_roi, exceeds_address_space
from .linear import LinearSystem
from .optics import OtfSpec, PsfKernel

DEFAULT_SEED = 12345
DEFAULT_FIELD = (768, 768)
DEFAULT_CUTOFF = 6.0
DEFAULT_PSF_CROP = 501
SIZES_DEFAULT = range(2, 21)
# Each domain's simulated_blur (the kernel or transfer spec a simulated run
# reads), observation_index, build_system, readers (noiseless_rhs, frame_rhs
# and a noisy trial's unit_rows) and solve_system, and its METHODS. A built
# system records its key as its domain; each module's readers and solver
# refuse the other's systems. Only the table's cutoff record branches on the
# name itself. Callers look functions up on the module at call time, so
# wrappers installed on the module attribute see every call.
DOMAIN_MODULES = {"spatial": spatial, "frequency": frequency}
DOMAINS = tuple(DOMAIN_MODULES)


def domain_module(domain: str) -> ModuleType:
    """The module of a domain name; ParameterError for an unknown one."""
    if domain not in DOMAIN_MODULES:
        raise ParameterError(f"unknown domain {domain!r}, expected one of {DOMAINS}")
    return DOMAIN_MODULES[domain]


def resolve_solver(domain: str, solver: str | None, ring: int) -> str:
    """The one mapping of a solver spelling onto the domain's METHODS.

    The generic spellings direct, lsq and truncated name their position in
    METHODS, the domain's own method names pass through, and None is the
    default: LU for a square system (ring 0), least squares for a ring. Any
    other name, the other domain's method names included, is a
    ParameterError.
    """
    methods = domain_module(domain).METHODS
    if solver is None:
        return methods[ring > 0]
    method = dict(zip(("direct", "lsq", "truncated"), methods)).get(solver, solver)
    if method not in methods:
        raise ParameterError(
            f"unknown solver {solver!r} for the {domain} domain, expected one of {methods}"
        )
    return method


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

# share of the image peak a cell must reach to weigh in the centroid
LOCATE_THRESHOLD = 0.1


def locate_roi(observed: np.ndarray, k_rows: int, l_cols: int) -> RoiSpec:
    """Estimate where an isolated K x L region sits in a blurred image.

    Takes the intensity centroid of all cells at or above LOCATE_THRESHOLD of
    the image peak and snaps a K x L box onto it (clamping at the borders).
    Good to about one cell for a region that is genuinely isolated. The blur
    is circular, so the light of a region at a border also reaches the
    opposite border and the centroid lands between the two: when that light
    reaches both the first and the last row, or both the first and the last
    column, the image is refused instead.

    Two passes read the whole image: the row maxima (the peak, and any NaN
    or +inf) and the minimum (any -inf). Everything else reads only the
    band of rows from the first to the last whose maximum clears the
    threshold; the rows outside it weigh nothing. Row and column sums are
    those of the whole image bit for bit; the total is summed over the band,
    so the centroid may differ from a whole-image sum in its last bits.

    Raises:
        ShapeError: the image is not 2D.
        ParameterError: the image holds NaN or Inf, or its values are so
            large that the total or the centroid overflows.
        BoundsError: a K x L box does not fit the image, or the light reaches
            both the first and the last row or column.
        NoSignalError: the image has no positive values to localize.
    """
    arr = np.asarray(observed, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"observed image must be 2D, got ndim={arr.ndim}")
    rows, cols = arr.shape
    # initial=0.0 leaves every positive maximum alone and lets an empty image
    # through to the refusals below; NaN and Inf still propagate
    row_max = arr.max(axis=1, initial=0.0)
    peak = float(row_max.max(initial=0.0))
    if not (math.isfinite(peak) and math.isfinite(arr.min(initial=0.0))):
        raise ParameterError("observed image holds NaN or Inf; nothing can be located")
    if k_rows > rows or l_cols > cols:
        raise BoundsError(f"{k_rows}x{l_cols} region cannot fit a {rows}x{cols} image")
    if peak <= 0:
        raise NoSignalError("image has no positive signal to localize")
    threshold = LOCATE_THRESHOLD * peak
    lit = np.flatnonzero(row_max >= threshold)
    r0, r1 = int(lit[0]), int(lit[-1]) + 1
    part = arr[r0:r1]
    weights = np.where(part >= threshold, part, 0.0)
    row_sums = np.zeros(rows)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        row_sums[r0:r1] = weights.sum(axis=1)
        col_sums = weights.sum(axis=0)
        total = float(weights.sum())
        row_c = float(row_sums @ np.arange(rows)) / total
        col_c = float(col_sums @ np.arange(cols)) / total
    if not (math.isfinite(total) and math.isfinite(row_c) and math.isfinite(col_c)):
        raise ParameterError(
            f"observed image values up to {peak:.6g} overflow the centroid; "
            "nothing can be located"
        )
    if (r0 == 0 and r1 == rows) or (col_sums[0] != 0 and col_sums[-1] != 0):
        raise BoundsError(
            f"light reaches opposite edges of the {rows}x{cols} frame: a region at a border "
            "wraps around the circular blur and cannot be located; give its anchor with --roi"
        )
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


def _trial_pixels(root_seed: int, size: int, trial: int) -> tuple[int, np.ndarray]:
    """The seed id a trial row records and the trial's row-major size x size
    pixels, uniform in [0, 256), both from its trial_seed_sequence."""
    seq = trial_seed_sequence(root_seed, size, trial)
    pixels = np.random.default_rng(seq).uniform(0.0, 256.0, size * size)
    return int(seq.generate_state(1)[0]), pixels


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


@dataclass(frozen=True)
class Summary:
    """Statistics of one group of trials (a table size or a sweep level), over
    the trials that did not fail; nan where every trial failed."""

    trials: int
    failed: int
    mean_ae: float
    std_ae: float
    mean_ad: float
    std_ad: float
    max_ad: float


def summarize(trials: Sequence[TrialResult]) -> Summary:
    """The one reduction of trial rows into their Summary."""
    ok = [t for t in trials if t.error is None]
    if not ok:
        nan = float("nan")
        return Summary(len(trials), len(trials), nan, nan, nan, nan, nan)
    ae = np.asarray([t.ae for t in ok], dtype=float)
    ad = np.asarray([t.ad for t in ok], dtype=float)
    return Summary(len(trials), len(trials) - len(ok), float(ae.mean()), float(ae.std()),
                   float(ad.mean()), float(ad.std()), float(ad.max()))


@dataclass
class ExperimentReport:
    """What one table run found: the method it solved with, the transform
    domain's effective cutoff per size, and every trial row."""

    solver: str
    effective_cutoffs: dict[int, float] = dataclass_field(default_factory=dict)
    trials: list[TrialResult] = dataclass_field(default_factory=list)

    def summaries(self) -> dict[int, Summary]:
        """The Summary of each ROI size, in the order the sizes first ran; a
        size run twice pools its trials."""
        groups: dict[int, list[TrialResult]] = {}
        for t in self.trials:
            groups.setdefault(t.roi_size, []).append(t)
        return {size: summarize(trials) for size, trials in groups.items()}


def _check_run_args(domain: str, trials: int, extra_ring: int, root_seed: int) -> ModuleType:
    """The domain's module, once the run's arguments are checked."""
    module = domain_module(domain)
    if root_seed < 0:  # SeedSequence refuses it, with a bare ValueError
        raise ParameterError(f"root_seed must be >= 0, got {root_seed}")
    if trials < 1:
        raise ParameterError(f"trials_per_size must be >= 1, got {trials}")
    if extra_ring < 0:
        raise ParameterError(f"extra_ring must be >= 0, got {extra_ring}")
    return module


def roi_problem(
    domain: str,
    roi: RoiSpec,
    field_shape: tuple[int, int],
    blur: PsfKernel | OtfSpec,
    ring: int,
) -> LinearSystem:
    """Build the system of one ROI on a field_shape frame before any observation
    is read: every trial of a size, scan tile or recover call that shares it
    supplies only a right-hand side.

    The image domain observes the ROI cells plus the cells within ring of
    them, through the kernel blur. The transform domain reads the
    (K+ring) x (L+ring) spectrum block at the origin, every entry of which
    must lie inside the passband of the transfer spec blur and the block
    inside the field. The system carries its condition estimate.

    Raises:
        ParameterError: unknown domain, ring < 0, or a blur the domain does
            not read (a PsfKernel for the image domain, an OtfSpec for the
            transform domain).
        BoundsError: a transform-domain block larger than the field.
        SingularSystemError: the condition estimate is infinite.
    """
    module = domain_module(domain)
    if ring < 0:
        raise ParameterError(f"ring must be >= 0, got {ring}")
    if domain == "frequency":
        frequency.require_block(roi.k_rows, roi.l_cols, ring, field_shape)
    obs_index = module.observation_index(roi, field_shape, ring)
    return module.build_system(field_shape, roi, obs_index, blur)


def noisy_rhs(
    system: LinearSystem, pixels: np.ndarray, seed: int, psnr_levels: Sequence[float]
) -> np.ndarray:
    """The system's rows of the ROI pixels' blurred frame at each level p, one
    row per level, plus sigma_p * unit noise, sigma_p pinned to that frame's
    peak; one route for both domains and for noiseless trials. A level of
    +inf is the domain's noiseless_rhs rows, bit for bit. The readers are
    linear, so a finite level is those rows plus sigma_p times the domain's
    unit_rows, drawn on the rows directly in the law of a white unit field
    read there. The noiseless rows are read once, whatever the levels.

    When any level is finite, the peak is read first: observe_field_at on
    the pixels, the full blur's max bit for bit, without a full frame; each
    level's NoiseSpec.sigma, which refuses a peak that is not positive, is
    taken from it before any row is read or drawn. When every level is +inf,
    neither the peak nor the unit noise is read.

    Raises:
        ShapeError: pixels is not one value per ROI cell.
        ParameterError: the system has no transfer spec, a level is NaN or
            -inf, or a level is finite and pixels hold NaN or Inf.
        DegenerateInputError: a level is finite and the blurred frame has no
            positive peak.
    """
    module = domain_module(system.domain)
    noisy = np.array([p != math.inf for p in psnr_levels], dtype=bool)
    if noisy.any():
        peak = observe_field_at(pixels, system.roi, system.require_spec())
        sigmas = [NoiseSpec(p, seed).sigma(peak) for p, n in zip(psnr_levels, noisy) if n]
    clean = module.noiseless_rhs(system, pixels)
    rows = np.repeat(clean[None], noisy.size, axis=0)
    if noisy.any():
        # an infinite sigma leaves Inf or NaN rows, which the solve refuses
        with np.errstate(invalid="ignore"):
            rows[noisy] += np.multiply.outer(sigmas, module.unit_rows(system, seed))
    return rows


def _run_size(
    domain: str,
    roi: RoiSpec,
    field_shape: tuple[int, int],
    blur: PsfKernel | OtfSpec,
    extra_ring: int,
    method: str,
    trials: int,
    root_seed: int,
    levels: list[float],
) -> list[list[TrialResult]]:
    """Every trial of one ROI size at each noise level (+inf: noiseless).

    The system is built once for the size. Per trial: draw the pixels, read
    the rows of every level in one noisy_rhs call, and solve and record each
    level. A RoiSolveError is recorded, instead of metrics, in every row it
    reaches: a failed build fails every row of the size, a failed noisy_rhs
    every row of its trial, and a failed solve its own row.
    """
    size = roi.k_rows
    out: list[list[TrialResult]] = [[] for _ in levels]
    system, failure = None, None
    try:
        system = roi_problem(domain, roi, field_shape, blur, extra_ring)
    except RoiSolveError as exc:
        failure = exc
    nan = float("nan")
    for trial in range(trials):
        seed_id, pixels = _trial_pixels(root_seed, size, trial)
        error = failure
        if system is not None:
            try:
                rhs_levels = noisy_rhs(
                    system, pixels, noise_stream_seed(root_seed, size, trial), levels
                )
            except RoiSolveError as exc:
                error = exc
        for i, rows_out in enumerate(out):
            ae = ad = condition = nan
            row_error = error
            if row_error is None:
                try:
                    sol = DOMAIN_MODULES[domain].solve_system(system, rhs_levels[i], method)
                    ae, ad, condition = (
                        averaged_error(sol.pixels, pixels),
                        averaged_difference(system.a_matrix, pixels, rhs_levels[i]),
                        system.condition_estimate,
                    )
                except RoiSolveError as exc:
                    row_error = exc
            text = None if row_error is None else f"{type(row_error).__name__}: {row_error}"
            rows_out.append(TrialResult(domain, size, trial, seed_id, ae, ad, condition, text))
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
    solver is any spelling resolve_solver takes.

    In the transform domain the cutoff is raised per size to keep the selected
    block inside the passband; the report records the effective value used.

    Every trial of a size shares one system (matrix and condition estimate)
    and reads its rows through noisy_rhs at the one level noise_psnr_db
    (None and +inf: noiseless, every other value a level, 0 dB included).
    A noiseless trial evaluates only the observations the system reads; a
    noisy one adds to those same rows unit noise drawn on the rows alone,
    scaled to the blurred frame's peak, which is found from a few columns.
    NaN and -inf raise ParameterError, and so does a negative root_seed,
    before any draw.

    Trials that raise a solver error are recorded with the message instead of
    metrics; nothing is retried or resampled.
    """
    module = _check_run_args(domain, trials_per_size, extra_ring, root_seed)
    if noise_psnr_db is not None:
        NoiseSpec(noise_psnr_db, root_seed)  # refuses NaN and -inf before any trial
    rows, cols = int(field_shape[0]), int(field_shape[1])
    report = ExperimentReport(solver=resolve_solver(domain, solver, extra_ring))
    spec = OtfSpec(rows, cols, cutoff_radius)
    level = math.inf if noise_psnr_db is None else noise_psnr_db
    for size in sizes:
        if size < 1:
            raise ParameterError(f"ROI size must be >= 1, got {size}")
        blur = module.simulated_blur(spec, size, size, extra_ring, psf_crop)
        if domain == "frequency":
            report.effective_cutoffs[size] = blur.cutoff_radius
        (trials,) = _run_size(
            domain, centered_roi(rows, cols, size, size), (rows, cols), blur, extra_ring,
            report.solver, trials_per_size, root_seed, [level],
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
    module = domain_module(domain)
    rows, cols = int(field_shape[0]), int(field_shape[1])
    roi = centered_roi(rows, cols, size, size)
    blur = module.simulated_blur(OtfSpec(rows, cols, cutoff_radius), size, size, 0, psf_crop)
    obs_index = module.observation_index(roi, (rows, cols), 0)
    system = module.build_system((rows, cols), roi, obs_index, blur, estimate_condition=False)
    _, pixels = _trial_pixels(root_seed, size, trial)
    rhs = module.noiseless_rhs(system, pixels)
    return averaged_difference(system.a_matrix, pixels, rhs)


# ---------------------------------------------------------------------------
# scan and stitch

def make_test_sample(rows: int, cols: int, seed: int = 0) -> np.ndarray:
    """A deterministic structured sample: gradients, a disk, a bar, texture.

    Values land in [0, 256). Useful as ground truth for scan experiments.
    ParameterError for a sample under 1x1 or beyond any float64 array, or a
    negative seed.
    """
    if rows < 1 or cols < 1:
        raise ParameterError(f"sample must be at least 1x1, got {rows}x{cols}")
    if exceeds_address_space(rows, cols, 8):
        raise ParameterError(f"sample {rows}x{cols} exceeds any float64 array")
    if seed < 0:  # default_rng refuses it, with a bare ValueError
        raise ParameterError(f"seed must be >= 0, got {seed}")
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
    field_shape: tuple[int, int],
    cutoff_radius: float,
    psf_crop: int,
    domain: str = "spatial",
    solver: str | None = None,
) -> np.ndarray:
    """Recover a whole sample tile by tile, each tile treated as isolated.

    Scanning illuminates one tile at a time, so every tile observation is an
    isolated-ROI problem; the recoveries are stitched back at their original
    positions. Sample dimensions must be divisible by the tile dimensions.

    The tiles are observed through the domain's simulated_blur of the
    field_shape optics (cutoff_radius, and psf_crop in the image domain).
    In the image domain the per-tile observation depends only on offsets, so
    the origin tile's system serves every tile, whatever field the kernel
    came from. In the transform domain the tile position enters the system
    only as a unit-modulus row scaling that cancels between measurement and
    solve, so the origin-anchored system is reused the same way; there the
    field must be the sample's (else ShapeError). Every tile is one
    right-hand-side column of a single solve with solver, any spelling
    resolve_solver takes (None: LU), resolved once the system is built.
    """
    module = domain_module(domain)
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
    spec = OtfSpec(int(field_shape[0]), int(field_shape[1]), cutoff_radius)
    blur = module.simulated_blur(spec, k_rows, l_cols, 0, psf_crop)
    system = roi_problem(domain, RoiSpec(0, 0, k_rows, l_cols), arr.shape, blur, 0)
    down, across = rows // k_rows, cols // l_cols
    # column t holds tile (t // across, t % across), row-major within the tile
    tiles = arr.reshape(down, k_rows, across, l_cols).transpose(1, 3, 0, 2)
    rhs = system.a_matrix @ tiles.reshape(k_rows * l_cols, -1)
    sol = module.solve_system(system, rhs, resolve_solver(domain, solver, 0))
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
    error: str | None  # the first failed trial's text at this point


@dataclass
class NoiseSweepReport:
    """Averaged error versus noise level, per domain, with a crossing readout."""

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
                ratio = amplitude_ratio(crossing)
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
    a noiseless baseline (+inf); every point equals run_table_experiment at
    that level. The same trial draws (pixels and noise shape) are reused
    across levels, so curves differ only by the noise amplitude. Each trial
    makes one noisy_rhs call at every level, the baseline included: it reads
    the noiseless rows, the peak and one unit draw on the system's rows once
    and forms every level from them. A negative root_seed raises
    ParameterError before any draw.
    The default ring-augmented least-squares setup keeps the noiseless
    baseline under the threshold so a crossing exists to report.
    """
    if roi_size < 1:
        raise ParameterError(f"roi_size must be >= 1, got {roi_size}")
    grid = sorted(set(float(p) for p in psnr_grid))
    if any(not math.isfinite(p) for p in grid):
        raise ParameterError("psnr_grid must contain finite dB values")
    levels = [math.inf] + grid
    if not domains or len(set(domains)) != len(domains):
        raise ParameterError(f"domains must name at least one domain, each once; got {domains}")
    modules = [_check_run_args(d, trials_per_level, extra_ring, root_seed) for d in domains]
    rows, cols = int(field_shape[0]), int(field_shape[1])
    roi = centered_roi(rows, cols, roi_size, roi_size)  # refuses a misfit before any draw

    pixel_means = [
        float(_trial_pixels(root_seed, roi_size, trial)[1].mean())
        for trial in range(trials_per_level)
    ]
    report = NoiseSweepReport(threshold_ae=0.01 * float(np.mean(pixel_means)))
    spec = OtfSpec(rows, cols, cutoff_radius)
    # every domain's blur first, so a refused one stops the sweep before any trial
    blurs = [m.simulated_blur(spec, roi_size, roi_size, extra_ring, psf_crop) for m in modules]
    for domain, blur in zip(domains, blurs):
        per_level = _run_size(
            domain, roi, (rows, cols), blur, extra_ring, resolve_solver(domain, None, extra_ring),
            trials_per_level, root_seed, levels,
        )
        for psnr, trials in zip(levels, per_level):
            summary = summarize(trials)
            report.points.append(
                SweepPoint(
                    domain=domain,
                    psnr_db=psnr,
                    amplitude_ratio=amplitude_ratio(psnr),
                    mean_ae=summary.mean_ae,
                    std_ae=summary.std_ae,
                    failed=summary.failed,
                    error=next((t.error for t in trials if t.error is not None), None),
                )
            )
    return report
