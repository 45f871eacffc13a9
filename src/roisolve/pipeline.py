"""Experiment harness: metrics, localization, tables, scans, noise sweeps.

Everything here is deterministic given its root seed. Per-trial streams are
derived with SeedSequence spawn keys so trials are independent of execution
order and safe to parallelize externally.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.linalg

from . import frequency, spatial
from .errors import (
    BoundsError,
    NoSignalError,
    ParameterError,
    RoiSolveError,
    ShapeError,
    SingularSystemError,
)
from .forward import (
    NoiseSpec,
    image_to_spectrum,
    noise_field,
    observe_spatial,
    observe_spatial_at,
    observe_spectrum,
    observe_spectrum_block,
    spectrum_to_image,
)
from .frequency import SpectrumSelection
from .grid import RoiSpec, centered_roi, scatter_roi
from .optics import OtfSpec, PsfKernel, build_otf, build_psf

DEFAULT_SEED = 12345
DEFAULT_FIELD = (768, 768)
DEFAULT_CUTOFF = 6.0
DEFAULT_PSF_CROP = 501
SIZES_DEFAULT = tuple(range(2, 21))
DOMAINS = ("spatial", "frequency")


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
        NoSignalError: the image has no positive values to localize.
    """
    arr = np.asarray(observed, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"observed image must be 2D, got ndim={arr.ndim}")
    rows, cols = arr.shape
    if k_rows > rows or l_cols > cols:
        raise BoundsError(f"{k_rows}x{l_cols} region cannot fit a {rows}x{cols} image")
    if not (0 < rel_threshold <= 1):
        raise ParameterError(f"rel_threshold must be in (0, 1], got {rel_threshold}")
    peak = float(arr.max())
    if peak <= 0:
        raise NoSignalError("image has no positive signal to localize")
    weights = np.where(arr >= rel_threshold * peak, arr, 0.0)
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

    def _ok_values(self, size: int, field_name: str) -> np.ndarray:
        vals = [getattr(t, field_name) for t in self.trials_for(size) if t.error is None]
        return np.asarray(vals, dtype=float)

    def mean_ae(self, size: int) -> float:
        v = self._ok_values(size, "ae")
        return float(v.mean()) if v.size else float("nan")

    def std_ae(self, size: int) -> float:
        v = self._ok_values(size, "ae")
        return float(v.std()) if v.size else float("nan")

    def mean_ad(self, size: int) -> float:
        v = self._ok_values(size, "ad")
        return float(v.mean()) if v.size else float("nan")

    def std_ad(self, size: int) -> float:
        v = self._ok_values(size, "ad")
        return float(v.std()) if v.size else float("nan")

    def max_ad(self, size: int) -> float:
        v = self._ok_values(size, "ad")
        return float(v.max()) if v.size else float("nan")

    def failures(self, size: int) -> int:
        return sum(1 for t in self.trials_for(size) if t.error is not None)

    def summary_rows(self) -> list[dict]:
        rows = []
        for size in self.sizes():
            conds = self._ok_values(size, "condition")
            finite = conds[np.isfinite(conds)]
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
                    "mean_condition": float(finite.mean()) if finite.size else float("nan"),
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


def _default_solver(domain: str, extra_ring: int) -> str:
    if domain == "spatial":
        return "least_squares" if extra_ring > 0 else "direct"
    return "stacked_real_lsq" if extra_ring > 0 else "direct_complex"


@dataclass(frozen=True)
class _SizeSystem:
    """The system of one centred square ROI, shared by every trial of that size.

    Every trial of a size observes the same centred ROI, so the matrix and its
    condition estimate depend only on (field, cutoff, size, ring); a trial
    supplies just the right-hand side. spec is the passband the observations
    go through; psf is the kernel (image domain only).
    """

    domain: str
    system: spatial.SpatialSystem | frequency.FrequencySystem
    spec: OtfSpec
    psf: PsfKernel | None

    def noiseless_rhs(self, pixels: np.ndarray) -> np.ndarray:
        """Evaluate only the cells or spectrum entries the system reads."""
        roi = self.system.roi
        if self.domain == "spatial":
            return observe_spatial_at(pixels, roi, self.spec, self.system.obs_cells)
        block = self.system.selection.block_shape
        return observe_spectrum_block(pixels, roi, self.spec, 0, 0, *block).ravel()

    def clean_observer(self) -> Callable[[np.ndarray], np.ndarray]:
        """Full-field blurred image of an ideal frame, the route noisy trials take."""
        if self.domain == "spatial":
            return lambda ideal: observe_spatial(ideal, self.psf)
        otf = build_otf(self.spec)
        return lambda ideal: spectrum_to_image(observe_spectrum(ideal, otf))

    def frame_rhs(self, frame: np.ndarray) -> np.ndarray:
        """The right-hand side read off a full-field observed image."""
        if self.domain == "spatial":
            cells = self.system.obs_cells
            return frame[cells[:, 0], cells[:, 1]]
        block = self.system.selection.block_shape
        return SpectrumSelection.block(image_to_spectrum(frame), 0, 0, *block).entries

    def solve(self, rhs: np.ndarray, method: str):
        """(the system with this right-hand side, its solution)."""
        if self.domain == "spatial":
            system = dataclasses.replace(self.system, rhs=rhs)
            return system, spatial.solve_system(system, method)
        selection = dataclasses.replace(self.system.selection, entries=rhs)
        system = dataclasses.replace(self.system, rhs=rhs, selection=selection)
        return system, frequency.solve_system(system, method)


def _size_layout(
    domain: str,
    size: int,
    rows: int,
    cols: int,
    cutoff_radius: float,
    psf: PsfKernel | None,
    extra_ring: int,
) -> tuple[RoiSpec, OtfSpec]:
    """The centred ROI of one size and the passband its observations go through.

    In the transform domain the cutoff is raised to keep the selected block
    (size + extra_ring per axis) inside the passband.
    """
    roi = centered_roi(rows, cols, size, size)
    if domain == "spatial":
        return roi, psf.spec
    sel = size + extra_ring
    return roi, OtfSpec(rows, cols, effective_cutoff(cutoff_radius, sel, sel))


def _build_size_system(
    domain: str,
    roi: RoiSpec,
    spec: OtfSpec,
    psf: PsfKernel | None,
    extra_ring: int,
    estimate_condition: bool,
) -> _SizeSystem:
    rows, cols = spec.shape
    if domain == "spatial":
        extra = spatial.ring_cells(roi, rows, cols, extra_ring) if extra_ring > 0 else None
        # build_system reads only the shape of this dark probe frame and its
        # values at the observation cells, which each trial replaces
        system = spatial.build_system(
            psf, np.zeros(spec.shape), roi, extra_obs=extra, estimate_condition=estimate_condition
        )
        return _SizeSystem(domain, system, spec, psf)
    sel = roi.k_rows + extra_ring
    probe = SpectrumSelection.from_block(np.zeros((sel, sel)), 0, 0, spec.shape)
    system = frequency.build_system(
        spec.shape, roi, probe, otf_spec=spec, estimate_condition=estimate_condition
    )
    return _SizeSystem(domain, system, spec, None)


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
    sized: _SizeSystem,
    method: str,
    trial: int,
    seed: int,
    pixels: np.ndarray,
    rhs: np.ndarray,
) -> TrialResult:
    """Solve one trial; a RoiSolveError is recorded in the row instead of metrics."""
    size = sized.system.roi.k_rows
    try:
        system, sol = sized.solve(rhs, method)
        return TrialResult(
            domain=sized.domain,
            roi_size=size,
            trial=trial,
            seed=seed,
            ae=averaged_error(sol.pixels, pixels),
            ad=averaged_difference(system.a_matrix, pixels, system.rhs),
            condition=sol.condition,
        )
    except RoiSolveError as exc:
        return _failed_trial(sized.domain, size, trial, seed, exc)


def _run_size(
    domain: str,
    roi: RoiSpec,
    spec: OtfSpec,
    psf: PsfKernel | None,
    extra_ring: int,
    estimate_condition: bool,
    method: str,
    trials: int,
    root_seed: int,
    levels: list[float | None],
) -> list[list[TrialResult]]:
    """Every trial of one ROI size at each noise level (None: noiseless).

    The system is built once for the size. Trials run outside and levels
    inside: a noiseless level evaluates only what the system reads, and the
    noisy levels of a trial share one full-field clean observation, its peak
    and its unit-noise field, each level being clean + sigma * unit exactly as
    add_noise forms it.
    """
    size = roi.k_rows
    out: list[list[TrialResult]] = [[] for _ in levels]
    try:
        sized = _build_size_system(domain, roi, spec, psf, extra_ring, estimate_condition)
    except RoiSolveError as exc:
        sized, failure = None, exc
    noisy = [i for i, level in enumerate(levels) if level is not None]
    observe = sized.clean_observer() if sized is not None and noisy else None
    for trial in range(trials):
        seq = trial_seed_sequence(root_seed, size, trial)
        rng = np.random.default_rng(seq)
        seed_id = int(seq.generate_state(1)[0])
        pixels = _draw_pixels(rng, size, size).ravel()
        if sized is None:
            for rows_out in out:
                rows_out.append(_failed_trial(domain, size, trial, seed_id, failure))
            continue
        for i, level in enumerate(levels):
            if level is None:
                rhs = sized.noiseless_rhs(pixels)
                out[i].append(_solved_trial(sized, method, trial, seed_id, pixels, rhs))
        if not noisy:
            continue
        noise_seed = noise_stream_seed(root_seed, size, trial)
        try:
            clean = observe(scatter_roi(pixels, roi, *spec.shape))
            peak, unit = noise_field(clean, noise_seed)
        except RoiSolveError as exc:
            for i in noisy:
                out[i].append(_failed_trial(domain, size, trial, seed_id, exc))
            continue
        for i in noisy:
            rhs = sized.frame_rhs(clean + NoiseSpec(levels[i], noise_seed).sigma(peak) * unit)
            out[i].append(_solved_trial(sized, method, trial, seed_id, pixels, rhs))
        del clean, unit  # one trial's full-field arrays alive at a time
    return out


def run_table_experiment(
    domain: str,
    sizes: tuple[int, ...] = SIZES_DEFAULT,
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
    pinned to its peak.

    Trials that raise a solver error are recorded with the message instead of
    metrics; nothing is retried or resampled.
    """
    _check_run_args(domain, trials_per_size, extra_ring)
    rows, cols = int(field_shape[0]), int(field_shape[1])
    method = solver or _default_solver(domain, extra_ring)
    valid = spatial.SPATIAL_METHODS if domain == "spatial" else frequency.FREQUENCY_METHODS
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

    psf = None
    if domain == "spatial":
        psf = build_psf(OtfSpec(rows, cols, cutoff_radius), psf_crop)
    # an infinite ratio adds no noise
    level = None if noise_psnr_db is None or math.isinf(noise_psnr_db) else noise_psnr_db
    for size in sizes:
        if size < 1:
            raise ParameterError(f"ROI size must be >= 1, got {size}")
        roi, spec = _size_layout(domain, size, rows, cols, cutoff_radius, psf, extra_ring)
        if domain == "frequency":
            report.effective_cutoffs[size] = spec.cutoff_radius
        (trials,) = _run_size(
            domain, roi, spec, psf, extra_ring, estimate_condition, method,
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
    psf = None
    if domain == "spatial":
        psf = build_psf(OtfSpec(rows, cols, cutoff_radius), psf_crop)
    roi, spec = _size_layout(domain, size, rows, cols, cutoff_radius, psf, 0)
    sized = _build_size_system(domain, roi, spec, psf, 0, estimate_condition=False)
    rng = np.random.default_rng(trial_seed_sequence(root_seed, size, trial))
    pixels = _draw_pixels(rng, size, size).ravel()
    return averaged_difference(sized.system.a_matrix, pixels, sized.noiseless_rhs(pixels))


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


def _lu_factor_checked(a: np.ndarray, what: str):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a)
    if a.size and float(np.abs(np.diag(lu)).min()) == 0.0:
        raise SingularSystemError(f"{what} tile system is exactly singular")
    return lu, piv


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

    In the image domain the per-tile observation depends only on offsets, so a
    single factorization covers every tile. In the transform domain the tile
    position enters the system only as a unit-modulus row scaling that cancels
    between measurement and solve, so the origin-anchored system is reused the
    same way; this path requires the kernel's field to match the sample shape.

    Passing an explicit solver routes every tile through the full per-tile
    solver instead of the shared factorization (slower, same systems).
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
    if domain not in DOMAINS:
        raise ParameterError(f"unknown domain {domain!r}, expected one of {DOMAINS}")

    roi0 = RoiSpec(0, 0, k_rows, l_cols)
    if domain == "spatial":
        a = spatial.system_matrix(psf, roi0, roi0.cells())
    else:
        if psf.spec is None or psf.spec.shape != arr.shape:
            have = "none" if psf.spec is None else f"{psf.spec.shape}"
            raise ShapeError(
                f"transform-domain scan needs a kernel field matching the sample "
                f"{arr.shape}, got {have}"
            )
        eff_cut = effective_cutoff(psf.spec.cutoff_radius, k_rows, l_cols)
        spec_eff = OtfSpec(rows, cols, eff_cut, psf.spec.passband_gain)
        probe = SpectrumSelection.from_block(np.zeros((k_rows, l_cols)), 0, 0, (rows, cols))
        a = frequency.build_system(
            (rows, cols), roi0, probe, otf_spec=spec_eff, estimate_condition=False
        ).a_matrix

    out = np.empty_like(arr)
    if solver is None:
        lu_piv = _lu_factor_checked(a, domain)
        for r0 in range(0, rows, k_rows):
            for c0 in range(0, cols, l_cols):
                x = arr[r0 : r0 + k_rows, c0 : c0 + l_cols].ravel()
                y = a @ x
                z = scipy.linalg.lu_solve(lu_piv, y)
                out[r0 : r0 + k_rows, c0 : c0 + l_cols] = z.real.reshape(k_rows, l_cols)
        return out

    for r0 in range(0, rows, k_rows):
        for c0 in range(0, cols, l_cols):
            x = arr[r0 : r0 + k_rows, c0 : c0 + l_cols].ravel()
            y = a @ x
            if domain == "spatial":
                system = spatial.SpatialSystem(
                    a_matrix=a,
                    rhs=y,
                    roi=roi0,
                    obs_cells=roi0.cells(),
                    condition_estimate=float("nan"),
                )
                z = spatial.solve_system(system, solver).pixels
            else:
                system = frequency.FrequencySystem(
                    a_matrix=a,
                    rhs=y,
                    roi=roi0,
                    field_rows=rows,
                    field_cols=cols,
                    selection=probe,
                    condition_estimate=float("nan"),
                )
                z = frequency.solve_system(system, solver).pixels
            out[r0 : r0 + k_rows, c0 : c0 + l_cols] = z.reshape(k_rows, l_cols)
    return out


# ---------------------------------------------------------------------------
# noise sweep

DEFAULT_PSNR_GRID = (40.0, 80.0, 120.0, 160.0, 200.0, 240.0, 250.0, 280.0, 300.0, 320.0, 340.0)


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
    amplitude, and each trial observes the full field once for all levels. The
    default ring-augmented least-squares setup keeps the noiseless baseline
    under the threshold so a crossing exists to report.
    """
    if roi_size < 1:
        raise ParameterError(f"roi_size must be >= 1, got {roi_size}")
    levels = sorted(set(float(p) for p in psnr_grid))
    if any(not math.isfinite(p) for p in levels):
        raise ParameterError("psnr_grid must contain finite dB values")
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
        psf = None
        if domain == "spatial":
            psf = build_psf(OtfSpec(rows, cols, cutoff_radius), psf_crop)
        roi, spec = _size_layout(domain, roi_size, rows, cols, cutoff_radius, psf, extra_ring)
        method = _default_solver(domain, extra_ring)
        per_level = _run_size(
            domain, roi, spec, psf, extra_ring, False, method,
            trials_per_level, root_seed, [None] + levels,
        )
        for psnr, trials in zip([math.inf] + levels, per_level):
            table = ExperimentReport(
                domain=domain,
                field_rows=rows,
                field_cols=cols,
                base_cutoff=cutoff_radius,
                psf_crop=psf_crop,
                trials_per_size=trials_per_level,
                root_seed=root_seed,
                solver=method,
                extra_ring=extra_ring,
                noise_psnr_db=None if math.isinf(psnr) else psnr,
                trials=trials,
            )
            report.points.append(
                SweepPoint(
                    domain=domain,
                    psnr_db=psnr,
                    amplitude_ratio=10.0 ** (psnr / 20.0) if math.isfinite(psnr) else math.inf,
                    mean_ae=table.mean_ae(roi_size),
                    std_ae=table.std_ae(roi_size),
                    failed=table.failures(roi_size),
                )
            )
    return report
