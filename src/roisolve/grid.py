"""Rectangular regions of interest and grid <-> vector plumbing.

Images are plain 2D float64 arrays, spectra plain 2D complex128 arrays in
unshifted DFT layout (index (0, 0) is the zero-frequency entry). Unknowns are
vectorized row-major; every matrix in the package follows the same ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ParameterError, ShapeError


@dataclass(frozen=True)
class RoiSpec:
    """A K x L axis-aligned region anchored at (top, left).

    All fields are nonnegative integers; k_rows and l_cols are at least 1.
    """

    top: int
    left: int
    k_rows: int
    l_cols: int

    def __post_init__(self) -> None:
        for name in ("top", "left", "k_rows", "l_cols"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ParameterError(f"RoiSpec.{name} must be an integer, got {value!r}")
        if self.top < 0 or self.left < 0:
            raise ParameterError(
                f"RoiSpec anchor must be nonnegative, got ({self.top}, {self.left})"
            )
        if self.k_rows < 1 or self.l_cols < 1:
            raise ParameterError(
                f"RoiSpec must span at least one cell, got {self.k_rows} x {self.l_cols}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.k_rows, self.l_cols)

    @property
    def pixel_count(self) -> int:
        return self.k_rows * self.l_cols

    def slices(self) -> tuple[slice, slice]:
        return (
            slice(self.top, self.top + self.k_rows),
            slice(self.left, self.left + self.l_cols),
        )

    def cells(self) -> np.ndarray:
        """Absolute (row, col) coordinates of every cell, row-major, shape (K*L, 2)."""
        rows = np.arange(self.top, self.top + self.k_rows)
        cols = np.arange(self.left, self.left + self.l_cols)
        rr, cc = np.meshgrid(rows, cols, indexing="ij")
        return np.column_stack([rr.ravel(), cc.ravel()])

    def require_inside(self, rows: int, cols: int) -> None:
        if self.top + self.k_rows > rows or self.left + self.l_cols > cols:
            raise BoundsError(
                f"ROI {self.k_rows}x{self.l_cols} at ({self.top}, {self.left}) "
                f"does not fit a {rows}x{cols} grid"
            )

    def patch(self, vec: np.ndarray, rows: int, cols: int) -> np.ndarray:
        """A row-major K*L vector as the K x L block of this ROI on a rows x cols
        field: ShapeError unless it is one value per cell, BoundsError unless
        the ROI fits the field."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.pixel_count,):
            raise ShapeError(
                f"vector length {vec.shape} does not match ROI pixel count {self.pixel_count}"
            )
        self.require_inside(rows, cols)
        return vec.reshape(self.shape)


def exceeds_address_space(rows: int, cols: int, itemsize: int) -> bool:
    """Whether numpy refuses every rows x cols array of itemsize-byte entries:
    a dimension's byte extent overflows the address space, which numpy
    refuses even when the other dimension is 0."""
    return max(int(rows), int(cols)) * itemsize > np.iinfo(np.intp).max


def centered_roi(rows: int, cols: int, k_rows: int, l_cols: int) -> RoiSpec:
    """A K x L region centered (up to rounding) on a rows x cols grid."""
    if k_rows > rows or l_cols > cols:
        raise BoundsError(
            f"a {k_rows}x{l_cols} region does not fit in a {rows}x{cols} grid"
        )
    roi = RoiSpec((rows - k_rows) // 2, (cols - l_cols) // 2, k_rows, l_cols)
    roi.require_inside(rows, cols)
    return roi


def field_cells(cells: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """cells as an array, once it is an (n, 2) index of (row, col) cells on a
    rows x cols field (else ShapeError)."""
    cells = np.asarray(cells)
    if cells.ndim != 2 or cells.shape[1] != 2:
        raise ShapeError(f"cells must have shape (n, 2), got {cells.shape}")
    if cells.size and (cells.min() < 0 or cells[:, 0].max() >= rows or cells[:, 1].max() >= cols):
        raise ShapeError(f"cells fall outside the {rows}x{cols} field")
    return cells


def scatter_roi(vec: np.ndarray, roi: RoiSpec, rows: int, cols: int) -> np.ndarray:
    """Embed a row-major K*L vector into an otherwise dark rows x cols frame."""
    frame = np.zeros((rows, cols))
    frame[roi.slices()] = roi.patch(vec, rows, cols)
    return frame
