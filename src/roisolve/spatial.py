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
from .forward import _axes, _partial_transform, _roi_twiddles, _twiddles, unit_noise
from .grid import RoiSpec, field_cells
from .linear import LinearSystem, Solution, finite_condition, solve
from .optics import OtfSpec, PsfKernel, build_psf, passband_box, structural_rank

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


def structurally_singular(psf: PsfKernel, roi: RoiSpec, ring: int = 0) -> bool:
    """Whether the kernel's passband leaves the ROI's system, at any ring
    (not read), below full rank (optics.structural_rank). A kernel read from
    a file has no passband to count, so its systems never are."""
    return psf.spec is not None and structural_rank(psf.spec, *roi.shape) < roi.pixel_count


def build_system(
    field_shape: tuple[int, int],
    roi: RoiSpec,
    obs_index: np.ndarray,
    psf: PsfKernel,
    estimate_condition: bool = True,
) -> LinearSystem:
    """Assemble the system of an isolated ROI of a field_shape blurred image.

    With a condition estimate asked for, a kernel built from a transfer spec
    is first checked by optics.structural_rank, before the matrix is formed:
    a rank below K*L (say 10x10 and up at the paper's cutoff 6, 3x3 at any
    cutoff below 1) raises SingularSystemError with no SVD run, its message
    naming the rank and its estimate inf. A full-rank system, or one on a
    kernel read from a file (no spec to count), takes np.linalg.cond.

    Args:
        field_shape: (rows, cols) of the observed image.
        roi: region holding the unknown pixels.
        obs_index: (n, 2) absolute (row, col) cells observed, one row of the
            system each; at least roi.pixel_count of them (more gives an
            overdetermined system).
        psf: blur kernel; its window must cover every offset between an
            observed cell and an unknown.
        estimate_condition: check the structural rank and compute a 2-norm
            condition estimate (SVD); an infinite estimate raises
            SingularSystemError. Without it neither runs and the estimate is
            nan: for the table's structurally singular sizes, which it marks
            and does not solve, rather than refuses.
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
    if estimate_condition and structurally_singular(psf, roi):
        raise SingularSystemError(
            f"system matrix is structurally singular: rank {structural_rank(psf.spec, *roi.shape)}"
            f" of {roi.pixel_count} unknowns (condition estimate inf)", math.inf,
        )
    a = system_matrix(psf, roi, idx)
    cond = finite_condition(float(np.linalg.cond(a))) if estimate_condition else float("nan")
    return LinearSystem("spatial", a, roi, idx, cond, (rows, cols), psf.spec)


class NoiselessRows:
    """The blurred ROI at a system's cells, for any pixels: observe_spatial of
    the ROI on a dark field, read at those cells, to rounding, for any kernel
    built from the system's transfer spec.

    It sums the ROI's passband entries directly from the spec (never the
    cropped kernel), over the (2r+1) x (2r+1) box of frequencies around zero
    that holds the disk, r being the cutoff rounded down. What depends on the
    system alone is built once: the box, the ROI's forward twiddles and each
    cell's inverse twiddles, evaluated once per distinct row and column and
    gathered per cell. A call does the per-pixel products only.
    ParameterError for a transform-domain system or one without a transfer
    spec.
    """

    def __init__(self, system: LinearSystem) -> None:
        spec = system.require_domain("spatial").require_spec()
        rows, cols = self._shape = spec.shape
        r, r_at, c, c_at = _axes(field_cells(system.obs_index, rows, cols))
        freqs, self._gain = passband_box(spec)
        self.system = system
        self._forward = _roi_twiddles(system.roi, freqs, freqs, spec.shape)
        self._fr = _twiddles(r, freqs, rows, 1)[r_at]
        self._fc = _twiddles(c, freqs, cols, 1)[c_at]

    def __call__(self, pixels: np.ndarray) -> np.ndarray:
        """The rows of row-major K*L pixels (else ShapeError)."""
        rows, cols = self._shape
        x = self.system.roi.patch(pixels, rows, cols)
        spectrum = self._gain * _partial_transform(x, self._forward)
        return ((self._fr @ spectrum) * self._fc).sum(axis=1).real / (rows * cols)


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
