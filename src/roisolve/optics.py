"""Ideal low-pass transfer function and its point-spread kernel.

The transfer function is a flat disk in unshifted DFT layout: an entry passes
(with constant gain) iff its wrap-around distance from the zero-frequency
corner is within the cutoff radius. The kernel is the real inverse transform
of that disk, centered and cropped to an odd window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, InconsistentInputError, ParameterError, ShapeError
from .grid import exceeds_address_space


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
        if exceeds_address_space(self.field_rows, self.field_cols, 16):
            raise ParameterError(
                f"field {self.field_rows}x{self.field_cols} exceeds any complex128 array"
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


def passband_box(spec: OtfSpec) -> tuple[np.ndarray, np.ndarray]:
    """The frequencies -r..r (r the cutoff rounded down) and the gain on their box.

    Every passband entry has wrap-around offsets within +/-r of zero, so the
    (2r+1) x (2r+1) box gain[i, j], at frequencies (freqs[i], freqs[j]) mod the
    field, holds the whole disk: passband_gain inside (classified by
    in_passband, exactly as passband_mask does), 0.0 outside.
    """
    r = int(math.floor(spec.cutoff_radius))
    freqs = np.arange(-r, r + 1)
    inside = in_passband(spec, freqs[:, None], freqs[None, :])
    return freqs, np.where(inside, spec.passband_gain, 0.0)


def build_otf(spec: OtfSpec) -> np.ndarray:
    """The transfer function grid, complex128, unshifted layout.

    The passband box is scattered into a zero grid, so no full-field distance
    grid is built; the result is byte-equal to
    np.where(passband_mask(spec), passband_gain, 0.0).astype(complex128).
    """
    freqs, gain = passband_box(spec)
    otf = np.zeros(spec.shape, dtype=np.complex128)
    otf[np.ix_(freqs % spec.field_rows, freqs % spec.field_cols)] = gain
    return otf


# Tolerance (relative to the kernel peak) on the imaginary residue of the
# inverse transform; exceeding it means the disk lost its symmetry somewhere.
_IMAG_RESIDUE_RTOL = 1e-12


def _inverse_columns(
    band: np.ndarray, band_rows: np.ndarray, rows: int, columns: np.ndarray
) -> np.ndarray:
    """The inverse transform along axis 0 of the given columns of a grid that
    is zero but for its rows band_rows, which band holds: one complex line of
    the result per column, all transformed in place by one call."""
    lines = np.zeros((columns.size, rows), dtype=np.complex128)
    lines[:, band_rows] = band[:, columns].T
    return np.fft.ifft(lines, axis=-1, out=lines)


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
        if not np.isfinite(g).all():
            raise ParameterError("kernel grid holds NaN or Inf")

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

    def blocks(self, du: np.ndarray, dv: np.ndarray, k_rows: int, l_cols: int) -> np.ndarray:
        """Row i: the kernel values at offsets (du[i] + k, dv[i] + l), k < K
        and l < L, row-major. One gather of K x L windows of the grid, so the
        result is the only array built. BoundsError unless every offset fits
        the crop window."""
        h = self.half
        if du.size == 0:
            return np.empty((0, k_rows * l_cols))
        # the offsets run from min(du) to max(du) + K - 1, likewise for dv
        reach_u = max(-int(du.min()), int(du.max()) + k_rows - 1)
        reach_v = max(-int(dv.min()), int(dv.max()) + l_cols - 1)
        if reach_u > h or reach_v > h:
            raise BoundsError(
                f"offsets reach +/-({reach_u}, {reach_v}), kernel window is only +/-{h}"
            )
        windows = np.lib.stride_tricks.sliding_window_view(self.grid, (k_rows, l_cols))
        return windows[h + du, h + dv].reshape(du.size, k_rows * l_cols).astype(float, copy=False)

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


def build_psf(spec: OtfSpec, crop_size: int = 501, reach: int | None = None) -> PsfKernel:
    """Inverse-transform the disk, center the peak, crop to crop_size.

    Follows np.fft.ifft2's own order (1-D inverse transforms along axis -1,
    then along axis 0) but transforms only what is nonzero or kept: along
    axis -1 only the 2r+1 rows of the transfer function that hold the
    passband box, along axis 0 only the crop's columns of that result. Every
    1-D transform sees the same input line as in the full ifft2, so the
    kernel is bit-identical to cropping fftshift(ifft2(build_otf(spec)).real),
    at about crop/(rows+cols) of its cost.

    A system whose offsets stay within +/-reach reads only the kernel's
    centre, so with reach given only the centre min(crop_size, 2*reach+1) is
    built: each value comes from its own column transform, so it is
    bit-identical to the same cell of the full crop. crop_size is validated
    either way.

    Args:
        spec: transfer-function parameters.
        crop_size: odd window edge; must fit the field after centering.
        reach: largest offset the caller reads; None builds the whole crop.

    Returns:
        PsfKernel with the peak at the central cell.

    Raises:
        ParameterError: crop_size is even or < 1, reach < 0, or a passband
            gain so large that the kernel overflows float64.
        BoundsError: crop_size does not fit the field.
        InconsistentInputError: a computed kernel value has a non-trivial
            imaginary part (the disk symmetry is broken; this is a build bug,
            not data).
    """
    if crop_size < 1 or crop_size % 2 != 1:
        raise ParameterError(f"crop_size must be odd and >= 1, got {crop_size}")
    rows, cols = spec.shape
    h = crop_size // 2
    crow, ccol = rows // 2, cols // 2
    if crow - h < 0 or ccol - h < 0 or crow + h + 1 > rows or ccol + h + 1 > cols:
        raise BoundsError(f"crop_size {crop_size} does not fit a {rows}x{cols} field")
    if reach is not None:
        if reach < 0:
            raise ParameterError(f"reach must be >= 0, got {reach}")
        h = min(h, reach)
        crop_size = 2 * h + 1
    freqs, gain = passband_box(spec)
    offsets = np.arange(-h, h + 1)
    band = np.zeros((freqs.size, cols), dtype=np.complex128)
    band[:, freqs % cols] = gain
    # the crop's columns, each nonzero only at the 2r+1 passband rows
    try:
        with np.errstate(over="raise", invalid="raise"):
            kept = _inverse_columns(np.fft.ifft(band, axis=-1), freqs % rows, rows, offsets % cols)
    except FloatingPointError:
        raise ParameterError(
            f"passband gain {spec.passband_gain:g} overflows the kernel's inverse transform"
        ) from None
    residue = float(np.abs(kept.imag).max())
    grid = kept.real[:, offsets % rows].T.copy()
    peak = float(grid[h, h])
    if residue > _IMAG_RESIDUE_RTOL * abs(peak):
        raise InconsistentInputError(
            f"kernel imaginary residue {residue:g} exceeds "
            f"{_IMAG_RESIDUE_RTOL:g} of the peak {peak:g}"
        )
    return PsfKernel(grid=grid, spec=spec)


def effective_psf_positive(psf: PsfKernel, k_rows: int, l_cols: int) -> bool:
    """True iff every kernel value a K x L region can meet is > 0.

    This is the condition under which the region's system matrix is strictly
    positive and the recovery is unambiguous.
    """
    return bool(psf.window(k_rows, l_cols).min() > 0.0)
