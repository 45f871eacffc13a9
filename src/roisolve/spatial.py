"""Recovery in the image domain: kernel-entry linear systems.

For an isolated ROI every observed cell is a known linear mix of the ROI
pixels, with coefficients read straight off the kernel: the row for observed
cell (m, n) and column for unknown cell (k, l) holds the kernel value at
offset (k - m, l - n). Solving that dense system undoes the blur.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, ShapeError, SingularSystemError
from .forward import observe_spatial_at, unit_noise
from .grid import RoiSpec, field_cells
from .linear import LinearSystem, Solution, finite_condition, solve
from .optics import OtfSpec, PsfKernel, build_psf

# LU, least squares, truncated: the order linear.solve reads them in.
METHODS = ("direct", "least_squares", "truncated")


def solve_two_point_1d(
    p: float, q_a: float, q_b: float, y_a: float, y_b: float
) -> tuple[float, float]:
    """Closed-form recovery of two mixed point sources.

    The observations are y_a = p*x_a + q_a*x_b and y_b = p*x_b + q_b*x_a with
    p the kernel peak and q_a, q_b the cross couplings. Solves the 2x2 system
    in the symmetric form x_a = (p*y_a - q_a*y_b) / (p^2 - q_a*q_b),
    x_b = (p*y_b - q_b*y_a) / (p^2 - q_a*q_b).

    Raises:
        ParameterError: an argument is NaN or infinite, or p^2, q_a*q_b, the
            determinant or a result overflows float64.
        SingularSystemError: p^2 == q_a*q_b to roundoff (the two observations
            carry the same information).
    """
    values = (p, q_a, q_b, y_a, y_b)
    if not all(math.isfinite(v) for v in values):
        raise ParameterError(f"two-point inputs must be finite, got {values}")
    p2, qq = p * p, q_a * q_b
    det = p2 - qq
    if not math.isfinite(det):  # also when p^2 or q_a*q_b overflowed
        raise ParameterError(
            f"two-point system overflows float64: p^2={p2:g}, q_a*q_b={qq:g}, det={det:g}"
        )
    scale = max(p2, abs(qq))
    if scale == 0.0 or abs(det) <= 1e-12 * scale:
        raise SingularSystemError(f"two-point system is singular: p^2={p2:g} vs q_a*q_b={qq:g}")
    x_a = (p * y_a - q_a * y_b) / det
    x_b = (p * y_b - q_b * y_a) / det
    if not (math.isfinite(x_a) and math.isfinite(x_b)):
        raise ParameterError(f"two-point results overflow float64: x_a={x_a:g}, x_b={x_b:g}")
    return (float(x_a), float(x_b))


def ring_cells(roi: RoiSpec, rows: int, cols: int, width: int = 2) -> np.ndarray:
    """Cells within Chebyshev distance `width` around the ROI, clipped to the grid.

    Returns an (n, 2) array of absolute (row, col) coordinates, row-major over
    the enclosing rectangle, ROI cells excluded.
    """
    if width < 1:
        raise ParameterError(f"ring width must be >= 1, got {width}")
    roi.require_inside(rows, cols)
    r0 = max(roi.top - width, 0)
    r1 = min(roi.top + roi.k_rows + width, rows)
    c0 = max(roi.left - width, 0)
    c1 = min(roi.left + roi.l_cols + width, cols)
    rr, cc = np.meshgrid(np.arange(r0, r1), np.arange(c0, c1), indexing="ij")
    rr = rr.ravel()
    cc = cc.ravel()
    inside = (
        (rr >= roi.top)
        & (rr < roi.top + roi.k_rows)
        & (cc >= roi.left)
        & (cc < roi.left + roi.l_cols)
    )
    return np.column_stack([rr[~inside], cc[~inside]])


def system_matrix(psf: PsfKernel, roi: RoiSpec, obs_cells: np.ndarray) -> np.ndarray:
    """Dense system matrix: rows follow obs_cells, columns the ROI row-major.

    Entry (i, j) is the kernel value at offset (unknown_j - observed_i), so
    row i is the K x L kernel window at offset (top - r_i, left - c_i) of
    observed cell (r_i, c_i), all gathered in one pass (PsfKernel.blocks).
    """
    obs_cells = np.asarray(obs_cells)
    if obs_cells.ndim != 2 or obs_cells.shape[1] != 2:
        raise ShapeError(f"obs_cells must have shape (n, 2), got {obs_cells.shape}")
    return psf.blocks(roi.top - obs_cells[:, 0], roi.left - obs_cells[:, 1], roi.k_rows, roi.l_cols)


def kernel_reach(edge: int, ring: int) -> int:
    """Largest kernel offset the image-domain system reads for a region whose
    longer side is edge, observed with a ring of that width. An edge below 1
    and a negative ring count as 1 and 0, so the callers' own checks report
    them."""
    return max(edge, 1) - 1 + max(ring, 0)


def simulated_blur(
    spec: OtfSpec, k_rows: int, l_cols: int, ring: int, psf_crop: int
) -> PsfKernel:
    """The kernel a simulated K x L region's system reads: spec's kernel,
    with psf_crop validated, built out to kernel_reach only (build_psf)."""
    return build_psf(spec, psf_crop, kernel_reach(max(k_rows, l_cols), ring))


def observation_index(roi: RoiSpec, field_shape: tuple[int, int], ring: int) -> np.ndarray:
    """The cells an ROI's system reads: the ROI's own cells row-major, then
    (for ring > 0) the ring_cells within that distance of it."""
    cells = roi.cells()
    if ring > 0:
        cells = np.vstack([cells, ring_cells(roi, *field_shape, ring)])
    return cells


def build_system(
    field_shape: tuple[int, int],
    roi: RoiSpec,
    obs_index: np.ndarray,
    psf: PsfKernel,
    estimate_condition: bool = True,
) -> LinearSystem:
    """Assemble the system of an isolated ROI of a field_shape blurred image.

    Args:
        field_shape: (rows, cols) of the observed image.
        roi: region holding the unknown pixels.
        obs_index: (n, 2) absolute (row, col) cells observed, one row of the
            system each; at least roi.pixel_count of them (more gives an
            overdetermined system).
        psf: blur kernel; its window must cover every offset between an
            observed cell and an unknown.
        estimate_condition: compute a 2-norm condition estimate (SVD; skip for
            very large systems and the estimate is reported as nan); an
            infinite estimate raises SingularSystemError.
    """
    if not isinstance(psf, PsfKernel):
        raise ParameterError(f"image domain reads a PsfKernel, got {type(psf).__name__}")
    rows, cols = int(field_shape[0]), int(field_shape[1])
    roi.require_inside(rows, cols)
    idx = field_cells(obs_index, rows, cols)
    if idx.shape[0] < roi.pixel_count:
        raise ShapeError(
            f"{idx.shape[0]} observed cells cannot determine {roi.pixel_count} unknowns"
        )
    a = system_matrix(psf, roi, idx)
    cond = finite_condition(float(np.linalg.cond(a))) if estimate_condition else float("nan")
    return LinearSystem("spatial", a, roi, idx, cond, (rows, cols), psf.spec)


def noiseless_rhs(system: LinearSystem, pixels: np.ndarray) -> np.ndarray:
    """The blurred ROI at the system's cells, passband-sparse (observe_spatial_at);
    ParameterError for a transform-domain system or one without a transfer spec."""
    system.require_domain("spatial")
    return observe_spatial_at(pixels, system.roi, system.require_spec(), system.obs_index)


def frame_rhs(system: LinearSystem, frame: np.ndarray) -> np.ndarray:
    """The system's cells read off an observed frame on its field (else ShapeError)."""
    idx = system.require_domain("spatial").obs_index
    return system.require_frame(frame)[idx[:, 0], idx[:, 1]]


def unit_rows(system: LinearSystem, seed: int) -> np.ndarray:
    """Unit noise at the system's cells, in the law of a white unit field read
    there: one unit_noise draw per distinct cell, in row-major order, so a
    cell listed twice reads one draw."""
    idx = system.require_domain("spatial").obs_index
    cells, at = np.unique(idx[:, 0] * system.field_shape[1] + idx[:, 1], return_inverse=True)
    return unit_noise(seed, cells.size)[at]


def solve_system(
    system: LinearSystem,
    rhs: np.ndarray,
    method: str = "direct",
    clamp_negative: bool = False,
) -> Solution:
    """Solve a built system for an observation rhs and report the recovered ROI.

    Methods: "direct" (LU, square systems only), "least_squares" (works for
    square and overdetermined), "truncated" (SVD with singular values below
    linear.TRUNCATION_RTOL of the largest discarded).
    """
    return solve(system.require_domain("spatial"), rhs, method, METHODS, clamp_negative)
