"""Forward observation model: blur an ideal frame, optionally add noise.

The blur is circular convolution with the kernel, evaluated in the transform
domain. Image-side spectra here use the normalized transform

    Y(u, v) = (1 / (M*N)) * sum_{m,n} x(m, n) * exp(-2j*pi*(m*u/M + n*v/N))

so a spectrum and its image are linked by image = real(ifft2(Y)) * M * N.

Two routes evaluate the model. The full-field route blurs a whole frame;
noisy observations need it because the noise covers the whole frame and is
pinned to its peak. observe_field runs it, for either domain, as pruned 1-D
transforms in np.fft's own axis order, touching only the rows that hold
light and the lines of the passband box; the blur is bit-identical to the
whole-frame 2-D FFT expression, and observe_spatial applies it to a
kernel's transfer spec. observe_spectrum, spectrum_to_image and
image_to_spectrum stay as the whole-frame FFT functions the tests use as
oracles. The sparse functions evaluate only what a system reads, as
products of 1-D twiddle matrices: observe_spatial_at the given cells,
observe_spectrum_block and image_spectrum_block the product of the given
frequency rows us and columns vs, from which a transform-domain system
gathers its entries. For an isolated region they agree with the full-field
route to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError, ShapeError
from .grid import RoiSpec, scatter_roi, vectorize_roi
from .optics import _LINE_BATCH, OtfSpec, PsfKernel, in_passband, passband_box


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
        """Noise standard deviation for a given signal peak."""
        if self.psnr_db == math.inf:
            return 0.0
        return abs(peak) / 10.0 ** (self.psnr_db / 20.0)


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ParameterError(f"{what} holds NaN or Inf")


def _check_field(ideal: np.ndarray, shape: tuple[int, int], what: str) -> np.ndarray:
    arr = np.asarray(ideal, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"{what} must be 2D, got ndim={arr.ndim}")
    if arr.shape != shape:
        raise ShapeError(f"{what} shape {arr.shape} does not match the field {shape}")
    _check_finite(arr, what)
    return arr


def observe_field(ideal: np.ndarray, spec: OtfSpec) -> np.ndarray:
    """The full-field blur of an ideal frame through spec's transfer function.

    Bit-identical to np.fft.ifft2(np.fft.fft2(ideal) * build_otf(spec)).real.
    It follows np.fft's own axis order (axis -1, then axis 0, both ways) but
    transforms only what is nonzero or kept: forward along axis -1 the rows
    that hold light, forward along axis 0 the 2r+1 passband columns, inverse
    along axis -1 the 2r+1 passband rows, and inverse along axis 0 every
    column, _LINE_BATCH at a time. Every 1-D transform sees the line the 2-D
    transforms give it, and the product is the same elementwise operation.

    Raises:
        ShapeError: the frame is not 2D on spec's field.
        ParameterError: the frame holds NaN or Inf.
    """
    arr = _check_field(ideal, spec.shape, "ideal frame")
    rows, cols = spec.shape
    freqs, gain = passband_box(spec)
    band_rows, band_cols = freqs % rows, freqs % cols
    lit = np.flatnonzero(arr.any(axis=1))
    # a dark row transforms to zeros
    columns = np.zeros((rows, freqs.size), dtype=np.complex128)
    columns[lit] = np.fft.fft(arr[lit], axis=-1)[:, band_cols]
    band = np.zeros((freqs.size, cols), dtype=np.complex128)
    band[:, band_cols] = np.fft.fft(columns, axis=0)[band_rows] * gain
    band = np.fft.ifft(band, axis=-1)
    # every column of the inverse is nonzero only at the passband rows
    lines = np.zeros((_LINE_BATCH, rows), dtype=np.complex128)
    image = np.empty(spec.shape)
    for start in range(0, cols, _LINE_BATCH):
        stop = min(start + _LINE_BATCH, cols)
        lines[: stop - start, band_rows] = band[:, start:stop].T
        image[:, start:stop] = np.fft.ifft(lines[: stop - start], axis=-1).real.T
    return image


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
    # two real products keep a full-frame patch from being copied to complex
    return (tr.real @ patch + 1j * (tr.imag @ patch)) @ tc


def _roi_patch(pixels: np.ndarray, roi: RoiSpec, spec: OtfSpec) -> np.ndarray:
    vec = np.asarray(pixels, dtype=float)
    if vec.shape != (roi.pixel_count,):
        raise ShapeError(
            f"vector length {vec.shape} does not match ROI pixel count {roi.pixel_count}"
        )
    roi.require_inside(*spec.shape)
    return vec.reshape(roi.shape)


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
    x = _roi_patch(pixels, roi, spec)
    cells = np.asarray(cells)
    rows, cols = spec.shape
    if cells.ndim != 2 or cells.shape[1] != 2:
        raise ShapeError(f"cells must have shape (n, 2), got {cells.shape}")
    if cells.size and (
        cells.min() < 0 or cells[:, 0].max() >= rows or cells[:, 1].max() >= cols
    ):
        raise ShapeError(f"cells fall outside the {rows}x{cols} field")
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
    x = _roi_patch(pixels, roi, spec)
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
    """The peak add_noise scales to, and the unit-variance field it scales.

    For every finite level p, add_noise(observed, NoiseSpec(p, seed)) is
    exactly observed + NoiseSpec(p, seed).sigma(peak) * unit, so a sweep over
    levels draws the field once.

    Raises:
        ParameterError: the image holds NaN or Inf.
        DegenerateInputError: the image has no positive peak.
    """
    arr = np.asarray(observed, dtype=float)
    _check_finite(arr, "observed image")
    peak = float(arr.max())
    if peak <= 0:
        raise DegenerateInputError("observed image has no positive peak to scale noise to")
    return peak, np.random.default_rng(seed).standard_normal(arr.shape)


def add_noise(observed: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Add white Gaussian noise scaled so peak/sigma hits the requested ratio.

    The peak is taken from the input image itself (its max value). With
    psnr_db=inf the input is returned unchanged (same array, no copy).

    Raises:
        ParameterError: the image holds NaN or Inf.
    """
    arr = np.asarray(observed, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"observed image must be 2D, got ndim={arr.ndim}")
    _check_finite(arr, "observed image")
    if not math.isfinite(noise.psnr_db):
        return arr
    peak, unit = noise_field(arr, noise.seed)
    return arr + noise.sigma(peak) * unit


def measure_psnr_db(clean: np.ndarray, noisy: np.ndarray) -> float:
    """Realized peak signal-to-noise ratio between a clean image and its noisy copy.

    Raises:
        ShapeError: the two images differ in shape.
        ParameterError: either image holds NaN or Inf.
        DegenerateInputError: the images differ and the clean one has no
            positive peak.
    """
    clean = np.asarray(clean, dtype=float)
    noisy = np.asarray(noisy, dtype=float)
    if clean.shape != noisy.shape:
        raise ShapeError(f"shape mismatch {clean.shape} vs {noisy.shape}")
    _check_finite(clean, "clean image")
    _check_finite(noisy, "noisy image")
    sigma = float(np.std(noisy - clean))
    if sigma == 0:
        return math.inf
    peak = float(clean.max())
    if peak <= 0:
        raise DegenerateInputError("clean image has no positive peak")
    return 20.0 * math.log10(peak / sigma)


def extra_light_ratio(full_sample: np.ndarray, roi: RoiSpec, psf: PsfKernel) -> float:
    """How much light the surroundings leak into the ROI observation.

    Ratio of ROI-summed observed intensity for the full sample versus the same
    sample with everything outside the ROI switched off. Close to 1 means the
    region is effectively isolated.

    Raises:
        ParameterError: the kernel carries no transfer spec (loaded from a
            file), so the full-field blur is unavailable; or the sample holds
            NaN or Inf.
        DegenerateInputError: the isolated ROI contributes no light.
    """
    if psf.spec is None:
        raise ParameterError("kernel carries no transfer spec; cannot blur a full field")
    arr = _check_field(full_sample, psf.spec.shape, "sample")
    roi.require_inside(*arr.shape)
    isolated = scatter_roi(vectorize_roi(arr, roi), roi, *arr.shape)
    obs_full = observe_spatial(arr, psf)
    obs_isolated = observe_spatial(isolated, psf)
    denom = float(obs_isolated[roi.slices()].sum())
    if abs(denom) < 1e-300:
        raise DegenerateInputError("isolated ROI contributes no light; ratio undefined")
    return float(obs_full[roi.slices()].sum()) / denom
