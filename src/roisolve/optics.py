"""Ideal low-pass transfer function and its point-spread kernel.

The transfer function is a flat disk in unshifted DFT layout: an entry passes
(with constant gain) iff its wrap-around distance from the zero-frequency
corner is within the cutoff radius. The kernel is the real inverse transform
of that disk, centered and cropped to an odd window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, InconsistentInputError, ParameterError, ShapeError


@dataclass(frozen=True)
class OtfSpec:
    """Parameters of the low-pass disk on a field_rows x field_cols grid."""

    field_rows: int
    field_cols: int
    cutoff_radius: float
    passband_gain: float = 1.0

    def __post_init__(self) -> None:
        if self.field_rows < 1 or self.field_cols < 1:
            raise ParameterError(
                f"field must be at least 1x1, got {self.field_rows}x{self.field_cols}"
            )
        if not np.isfinite(self.cutoff_radius) or self.cutoff_radius < 0:
            raise ParameterError(f"cutoff_radius must be finite and >= 0, got {self.cutoff_radius}")
        limit = min(self.field_rows, self.field_cols) / 2.0
        if self.cutoff_radius >= limit:
            raise ParameterError(
                f"cutoff_radius {self.cutoff_radius} must stay below half the "
                f"smaller field dimension ({limit})"
            )
        if not np.isfinite(self.passband_gain) or self.passband_gain == 0:
            raise ParameterError(f"passband_gain must be finite and nonzero, got {self.passband_gain}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.field_rows, self.field_cols)


def wrap_distance_grid(rows: int, cols: int) -> np.ndarray:
    """Distance of each (u, v) from the zero-frequency corner, wrap-around metric."""
    du = np.minimum(np.arange(rows), rows - np.arange(rows)).astype(float)
    dv = np.minimum(np.arange(cols), cols - np.arange(cols)).astype(float)
    return np.sqrt(du[:, None] ** 2 + dv[None, :] ** 2)


def passband_mask(spec: OtfSpec) -> np.ndarray:
    """Boolean grid marking entries inside the passband disk."""
    return wrap_distance_grid(spec.field_rows, spec.field_cols) <= spec.cutoff_radius


def in_passband(spec: OtfSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each (u, v) index, wrapped modulo the field, lies inside the passband.

    Broadcasts u against v and evaluates only the indices asked for. The
    wrap-around distance is computed with the same float operations as
    wrap_distance_grid, so every index is classified exactly as passband_mask
    classifies it, including entries that land on the cutoff radius.
    """
    u = np.asarray(u) % spec.field_rows
    v = np.asarray(v) % spec.field_cols
    du = np.minimum(u, spec.field_rows - u).astype(float)
    dv = np.minimum(v, spec.field_cols - v).astype(float)
    return np.sqrt(du**2 + dv**2) <= spec.cutoff_radius


def build_otf(spec: OtfSpec) -> np.ndarray:
    """The transfer function grid, complex128, unshifted layout."""
    otf = np.where(passband_mask(spec), spec.passband_gain, 0.0)
    return otf.astype(np.complex128)


# Tolerance (relative to the kernel peak) on the imaginary residue of the
# inverse transform; exceeding it means the disk lost its symmetry somewhere.
_IMAG_RESIDUE_RTOL = 1e-12


@dataclass(frozen=True)
class PsfKernel:
    """Odd-sized crop of the kernel, peak at the central cell.

    grid[half + du, half + dv] is the kernel value at offset (du, dv), where
    half = crop_size // 2. spec records where the kernel came from; kernels
    loaded from plain files carry None there and can still drive image-domain
    systems (anything needing the transfer function will refuse them).
    """

    grid: np.ndarray
    spec: OtfSpec | None

    def __post_init__(self) -> None:
        g = np.asarray(self.grid)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ShapeError(f"kernel grid must be square, got {g.shape}")
        if g.shape[0] % 2 != 1:
            raise ParameterError(f"kernel crop size must be odd, got {g.shape[0]}")

    @property
    def crop_size(self) -> int:
        return self.grid.shape[0]

    @property
    def half(self) -> int:
        return self.crop_size // 2

    @property
    def peak(self) -> float:
        """Kernel value at zero offset."""
        return float(self.grid[self.half, self.half])

    def value(self, du: int, dv: int) -> float:
        """Kernel value at offset (du, dv) from the peak."""
        h = self.half
        if abs(du) > h or abs(dv) > h:
            raise BoundsError(f"offset ({du}, {dv}) outside the +/-{h} kernel window")
        return float(self.grid[h + du, h + dv])

    def values(self, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
        """Vectorized kernel lookup; offsets must fit the crop window."""
        du = np.asarray(du)
        dv = np.asarray(dv)
        h = self.half
        if du.size and (np.abs(du).max() > h or np.abs(dv).max() > h):
            raise BoundsError(
                f"offsets reach +/-({np.abs(du).max()}, {np.abs(dv).max()}), "
                f"kernel window is only +/-{h}"
            )
        return self.grid[h + du, h + dv]

    def window(self, k_rows: int, l_cols: int) -> np.ndarray:
        """All offsets a K x L region can produce: shape (2K-1, 2L-1)."""
        if k_rows < 1 or l_cols < 1:
            raise ParameterError("window dimensions must be >= 1")
        h = self.half
        if k_rows - 1 > h or l_cols - 1 > h:
            raise BoundsError(
                f"{k_rows}x{l_cols} region needs offsets up to "
                f"({k_rows - 1}, {l_cols - 1}); kernel window is +/-{h}"
            )
        return self.grid[
            h - (k_rows - 1) : h + k_rows,
            h - (l_cols - 1) : h + l_cols,
        ].copy()


def build_psf(spec: OtfSpec, crop_size: int = 501) -> PsfKernel:
    """Inverse-transform the disk, center the peak, crop to crop_size.

    Args:
        spec: transfer-function parameters.
        crop_size: odd window edge; must fit the field after centering.

    Returns:
        PsfKernel with the peak at the central cell.

    Raises:
        ParameterError: crop_size is even or < 1.
        BoundsError: crop_size does not fit the field.
        InconsistentInputError: inverse transform has a non-trivial imaginary
            part (the disk symmetry is broken; this is a build bug, not data).
    """
    if crop_size < 1 or crop_size % 2 != 1:
        raise ParameterError(f"crop_size must be odd and >= 1, got {crop_size}")
    rows, cols = spec.shape
    full = np.fft.ifft2(build_otf(spec))
    peak = float(full.real[0, 0])
    residue = float(np.abs(full.imag).max())
    if residue > _IMAG_RESIDUE_RTOL * abs(peak):
        raise InconsistentInputError(
            f"kernel imaginary residue {residue:g} exceeds "
            f"{_IMAG_RESIDUE_RTOL:g} of the peak {peak:g}"
        )
    centered = np.fft.fftshift(full.real)
    crow, ccol = rows // 2, cols // 2
    h = crop_size // 2
    if crow - h < 0 or ccol - h < 0 or crow + h + 1 > rows or ccol + h + 1 > cols:
        raise BoundsError(f"crop_size {crop_size} does not fit a {rows}x{cols} field")
    grid = centered[crow - h : crow + h + 1, ccol - h : ccol + h + 1].copy()
    return PsfKernel(grid=grid, spec=spec)


def effective_psf_positive(psf: PsfKernel, k_rows: int, l_cols: int) -> bool:
    """True iff every kernel value a K x L region can meet is > 0.

    This is the condition under which the region's system matrix is strictly
    positive and the recovery is unambiguous.
    """
    return bool(psf.window(k_rows, l_cols).min() > 0.0)
