"""Forward observation model: blur an ideal frame, optionally add noise.

The blur is circular convolution with the kernel, evaluated in the transform
domain. Image-side spectra here use the normalized transform

    Y(u, v) = (1 / (M*N)) * sum_{m,n} x(m, n) * exp(-2j*pi*(m*u/M + n*v/N))

so a spectrum and its image are linked by image = real(ifft2(Y)) * M * N.

Two routes evaluate the model. The full-field route blurs a whole frame
with pruned 1-D transforms in np.fft's own axis order (observe_field,
bit-identical to the whole-frame 2-D FFT expression; observe_spatial on a
kernel's transfer spec; observe_field_at an isolated ROI's peak from its
rows and a few columns), its last stage the inverse-column pass build_psf
also runs, and noise_field draws the unit field add_noise scales to its
peak. The sparse route evaluates only what a system reads, as products of
1-D twiddle matrices: observe_spatial_at the given cells,
observe_spectrum_block and image_spectrum_block the product of the given
frequency rows us and columns vs. For an isolated region the two agree to
rounding. A noisy trial's unit noise is drawn on those rows directly, in
the law of a white unit field read there: unit_noise one normal per
distinct cell, unit_spectrum_noise the normalized transform at given
entries, one draw per conjugate class. The draws take no peak: the peak is
checked where it scales them, in NoiseSpec.sigma. observe_spectrum,
spectrum_to_image, image_to_spectrum and add_noise stay as the whole-frame
functions the tests use as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, ParameterError, ShapeError
from .grid import RoiSpec, field_cells, scatter_roi
from .optics import OtfSpec, PsfKernel, _inverse_columns, in_passband, passband_box

_PEAK_BOUND_MARGIN = 1e-9  # relative, on observe_field_at's column bounds


def amplitude_ratio(psnr_db: float) -> float:
    """The peak/sigma amplitude ratio 10**(dB/20) of a PSNR in decibels; inf
    where it overflows float64, 0.0 where it underflows."""
    try:
        return 10.0 ** (psnr_db / 20.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian noise pinned to a peak signal-to-noise ratio.

    psnr_db: target ratio in decibels; math.inf disables the noise.
    seed: stream seed; equal specs reproduce the same realization.
    """

    psnr_db: float
    seed: int

    def __post_init__(self) -> None:
        if math.isnan(self.psnr_db) or self.psnr_db == -math.inf:
            raise ParameterError(f"psnr_db must be a number or +inf, got {self.psnr_db}")

    def sigma(self, peak: float) -> float:
        """Noise standard deviation for a given signal peak: 0.0 at +inf and
        where the amplitude ratio overflows, inf where it underflows to 0.0,
        else DegenerateInputError unless the peak is positive."""
        if self.psnr_db == math.inf:
            return 0.0
        if not peak > 0:  # NaN too
            raise DegenerateInputError("observed image has no positive peak to scale noise to")
        ratio = amplitude_ratio(self.psnr_db)
        return peak / ratio if ratio > 0 else math.inf


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ParameterError(f"{what} holds NaN or Inf")


def _band(lines: np.ndarray, lit: np.ndarray, spec: OtfSpec) -> tuple[np.ndarray, np.ndarray]:
    """observe_field but its last stage, of a frame dark but for the given
    full-width lines at rows lit: its passband rows and their indices.
    ParameterError if a line holds NaN or Inf."""
    rows, cols = spec.shape
    freqs, gain = passband_box(spec)
    band_rows, band_cols = freqs % rows, freqs % cols
    _check_finite(lines, "ideal frame")
    # a dark row transforms to zeros
    columns = np.zeros((rows, freqs.size), dtype=np.complex128)
    columns[lit] = np.fft.fft(lines, axis=-1)[:, band_cols]
    band = np.zeros((freqs.size, cols), dtype=np.complex128)
    band[:, band_cols] = np.fft.fft(columns, axis=0)[band_rows] * gain
    return np.fft.ifft(band, axis=-1), band_rows


def observe_field(ideal: np.ndarray, spec: OtfSpec) -> np.ndarray:
    """The full-field blur of an ideal frame through spec's transfer function.

    Bit-identical to np.fft.ifft2(np.fft.fft2(ideal) * build_otf(spec)).real.
    It follows np.fft's own axis order (axis -1, then axis 0, both ways) but
    transforms only what is nonzero or kept: forward along axis -1 the rows
    that hold light, forward along axis 0 the 2r+1 passband columns, inverse
    along axis -1 the 2r+1 passband rows, and inverse along axis 0 every
    column, in one call. Every 1-D transform sees the line the 2-D
    transforms give it, and the product is the same elementwise operation.

    Raises:
        ShapeError: the frame is not 2D on spec's field.
        ParameterError: the frame holds NaN or Inf.
    """
    arr = np.asarray(ideal, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"ideal frame must be 2D, got ndim={arr.ndim}")
    if arr.shape != spec.shape:
        raise ShapeError(f"ideal frame shape {arr.shape} does not match the field {spec.shape}")
    # NaN and Inf are nonzero, so they light their row
    lit = np.flatnonzero(arr.any(axis=1))
    band, band_rows = _band(arr[lit], lit, spec)
    frame_t = _inverse_columns(band, band_rows, spec.shape[0], np.arange(spec.shape[1]))
    return frame_t.real.T.copy()


def observe_field_at(pixels: np.ndarray, roi: RoiSpec, spec: OtfSpec) -> float:
    """observe_field(scatter_roi(pixels, roi, *spec.shape), spec).max(), bit
    for bit, from the ROI's K rows and a few columns of the blur.

    The K rows go into observe_field's first stage at full width, so every
    transform sees the line it sees there. No value of column j exceeds
    sum(|band[:, j]|) / rows (times a margin far above FFT rounding). From
    the column of largest bound, every column whose bound reaches the best
    value so far is inverted until none is left; a best value <= 0 inverts
    every column.

    Raises:
        ShapeError: pixels is not one value per ROI cell.
        BoundsError: the ROI does not fit spec's field.
        ParameterError: pixels hold NaN or Inf.
    """
    rows, cols = spec.shape
    roi.require_inside(rows, cols)
    # the ROI's rows at full width: the pixels in a dark K x cols strip
    lines = scatter_roi(pixels, replace(roi, top=0), roi.k_rows, cols)
    band, band_rows = _band(lines, np.arange(roi.top, roi.top + roi.k_rows), spec)
    bound = np.abs(band).sum(axis=0) * ((1.0 + _PEAK_BOUND_MARGIN) / rows)
    done = np.zeros(cols, dtype=bool)
    todo = np.array([np.argmax(bound)])
    peak = -math.inf
    while todo.size:
        # np.maximum keeps a NaN (overflow), which then adds every column
        peak = float(np.maximum(peak, _inverse_columns(band, band_rows, rows, todo).real.max()))
        done[todo] = True
        todo = np.flatnonzero(~done & ~(bound < peak))
    return peak


def observe_spatial(ideal: np.ndarray, psf: PsfKernel) -> np.ndarray:
    """Blurred image of an ideal frame: circular convolution with the kernel.

    observe_field on the kernel's transfer spec; bit-identical to
    np.fft.ifft2(np.fft.fft2(ideal) * build_otf(psf.spec)).real.

    Raises:
        ParameterError: the kernel carries no transfer spec, or the frame
            holds NaN or Inf.
        ShapeError: the frame is not 2D on the kernel's field.
    """
    if psf.spec is None:
        raise ParameterError("kernel carries no transfer spec; cannot blur a full field")
    return observe_field(ideal, psf.spec)


def observe_spectrum(ideal: np.ndarray, otf: np.ndarray) -> np.ndarray:
    """Filtered normalized spectrum of an ideal frame.

    Returns OTF(u, v) * Y(u, v) with Y the normalized transform above; this is
    exactly the normalized transform of the blurred image.
    """
    arr = np.asarray(ideal, dtype=float)
    otf = np.asarray(otf)
    if arr.ndim != 2 or otf.ndim != 2:
        raise ShapeError("ideal frame and transfer grid must both be 2D")
    if arr.shape != otf.shape:
        raise ShapeError(f"ideal frame {arr.shape} and transfer grid {otf.shape} differ")
    rows, cols = arr.shape
    return np.fft.fft2(arr) * otf / (rows * cols)


def _twiddles(positions: np.ndarray, freqs: np.ndarray, size: int, sign: int) -> np.ndarray:
    """exp(sign * 2j*pi * p*f / size) for every position p (rows) and frequency f.

    The integer product is reduced modulo size first, so the phase stays in
    [0, 2*pi) however large the indices get.
    """
    phase = np.multiply.outer(np.asarray(positions), np.asarray(freqs)) % size
    return np.exp((sign * 2j * np.pi / size) * phase)


def _partial_transform(
    patch: np.ndarray,
    top: int,
    left: int,
    row_freqs: np.ndarray,
    col_freqs: np.ndarray,
    field_shape: tuple[int, int],
) -> np.ndarray:
    """Unnormalized DFT, at row_freqs x col_freqs only, of a real patch at (top, left).

    The field is dark outside the patch. Separable: (freqs x rows) twiddles,
    times the patch, times (cols x freqs) twiddles.
    """
    k_rows, l_cols = patch.shape
    tr = _twiddles(row_freqs, top + np.arange(k_rows), field_shape[0], -1)
    tc = _twiddles(left + np.arange(l_cols), col_freqs, field_shape[1], -1)
    # two real products keep a full-frame patch from being copied to complex;
    # values that overflow leave Inf or NaN, which the solve refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return (tr.real @ patch + 1j * (tr.imag @ patch)) @ tc


def observe_spatial_at(
    pixels: np.ndarray, roi: RoiSpec, spec: OtfSpec, cells: np.ndarray
) -> np.ndarray:
    """Blurred image of an isolated ROI, evaluated at the given cells only.

    Equals observe_spatial(scatter_roi(pixels, roi, *spec.shape), psf) at
    those cells, to rounding, for any kernel built from spec. It sums the
    ROI's passband entries directly from the transfer spec (never the cropped
    kernel), over the (2r+1) x (2r+1) box of frequencies around zero that
    holds the disk, r being the cutoff rounded down.

    Args:
        pixels: row-major ROI values, length K*L; the field is dark elsewhere.
        roi: where the pixels sit on the spec.shape field.
        spec: transfer function of the blur.
        cells: (n, 2) absolute (row, col) coordinates to evaluate.
    """
    x = roi.patch(pixels, *spec.shape)
    cells = field_cells(cells, *spec.shape)
    rows, cols = spec.shape
    freqs, gain = passband_box(spec)
    spectrum = gain * _partial_transform(x, roi.top, roi.left, freqs, freqs, spec.shape)
    fr = _twiddles(cells[:, 0], freqs, rows, 1)
    fc = _twiddles(cells[:, 1], freqs, cols, 1)
    return ((fr @ spectrum) * fc).sum(axis=1).real / (rows * cols)


def observe_spectrum_block(
    pixels: np.ndarray, roi: RoiSpec, spec: OtfSpec, us: np.ndarray, vs: np.ndarray
) -> np.ndarray:
    """Filtered normalized spectrum of an isolated ROI on the us x vs entries.

    Entry (i, j) is observe_spectrum(scatter_roi(pixels, roi, *spec.shape),
    build_otf(spec)) at (us[i], vs[j]), both wrapped modulo the field, to
    rounding; entries outside the passband are exactly 0. Evaluated from the
    ROI pixels as products of 1-D twiddles, without the full field.
    """
    x = roi.patch(pixels, *spec.shape)
    rows, cols = spec.shape
    values = _partial_transform(x, roi.top, roi.left, us, vs, spec.shape)
    inside = in_passband(spec, us[:, None], vs[None, :])
    return np.where(inside, values * (spec.passband_gain / (rows * cols)), 0.0)


def image_spectrum_block(image: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """image_to_spectrum(image) on the us x vs entries, as a partial DFT.

    Entry (i, j) is the normalized transform at (us[i], vs[j]), both wrapped
    modulo the field; costs O(M*N*(len(us) + len(vs))) instead of a full
    transform.
    """
    arr = np.asarray(image, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"image must be 2D, got ndim={arr.ndim}")
    rows, cols = arr.shape
    return _partial_transform(arr, 0, 0, us, vs, arr.shape) / (rows * cols)


def spectrum_to_image(spectrum: np.ndarray) -> np.ndarray:
    """Invert the normalized transform back to a real image."""
    spec = np.asarray(spectrum)
    if spec.ndim != 2:
        raise ShapeError(f"spectrum must be 2D, got ndim={spec.ndim}")
    rows, cols = spec.shape
    return np.fft.ifft2(spec).real * (rows * cols)


def image_to_spectrum(image: np.ndarray) -> np.ndarray:
    """Normalized transform of an image (inverse of spectrum_to_image)."""
    arr = np.asarray(image, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"image must be 2D, got ndim={arr.ndim}")
    rows, cols = arr.shape
    return np.fft.fft2(arr) / (rows * cols)


def noise_field(observed: np.ndarray, seed: int) -> tuple[float, np.ndarray]:
    """The peak add_noise scales to, and the unit-variance field it scales:
    add_noise(observed, NoiseSpec(p, seed)) is exactly
    observed + NoiseSpec(p, seed).sigma(peak) * unit for every finite p.
    The peak is returned as it is; NoiseSpec.sigma refuses one that is not
    positive.

    Raises:
        ParameterError: the image holds NaN or Inf.
    """
    arr = np.asarray(observed, dtype=float)
    _check_finite(arr, "observed image")
    return float(arr.max()), unit_noise(seed, arr.size).reshape(arr.shape)


def unit_noise(seed: int, n: int) -> np.ndarray:
    """n independent standard normals of seed's stream: the first n row-major
    values of the unit field noise_field draws."""
    return np.random.default_rng(seed).standard_normal(n)


def unit_spectrum_noise(seed: int, entries: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The normalized transform of a real white unit field on shape, at the
    (n, 2) entries (u, v), drawn directly in its law.

    The law is exact: such a transform is Gaussian, and its conjugate classes
    {(u, v), (-u, -v)} are independent. A self-conjugate entry (2u = 0 mod
    rows and 2v = 0 mod cols) is real with std 1/sqrt(rows*cols); any other
    has independent real and imaginary parts of std 1/sqrt(2*rows*cols), and
    its partner takes the exact conjugate. One pair of normals is drawn per
    class the entries hold, in the order of the class's smaller row-major
    index, so an entry listed twice, or beside its partner, reads that one
    draw. ShapeError unless the entries are an (n, 2) index on shape.
    """
    rows, cols = shape
    entries = field_cells(entries, rows, cols)
    flat = entries[:, 0] * cols + entries[:, 1]
    mirror = (-entries[:, 0] % rows) * cols + (-entries[:, 1] % cols)
    classes, at = np.unique(np.minimum(flat, mirror), return_inverse=True)
    z = np.random.default_rng(seed).standard_normal((classes.size, 2))[at]
    own = flat == mirror
    imag = np.where(own, 0.0, np.where(flat < mirror, z[:, 1], -z[:, 1]))
    scale = np.where(own, 1.0, math.sqrt(0.5)) / math.sqrt(rows * cols)
    return (z[:, 0] + 1j * imag) * scale


def add_noise(observed: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Add white Gaussian noise scaled so peak/sigma hits the requested ratio.

    The peak is taken from the input image itself (its max value). With
    psnr_db=inf the input is returned unchanged (same array, no copy).

    Raises:
        ParameterError: the image holds NaN or Inf.
        DegenerateInputError: a finite level and no positive peak.
    """
    arr = np.asarray(observed, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"observed image must be 2D, got ndim={arr.ndim}")
    _check_finite(arr, "observed image")
    if not math.isfinite(noise.psnr_db):
        return arr
    peak, unit = noise_field(arr, noise.seed)
    return arr + noise.sigma(peak) * unit
