"""Recovery in the transform domain: partial-spectrum linear systems.

Each selected spectrum entry of an isolated frame is a known complex linear
mix of the ROI pixels: the row for frequency (u, v) and column for unknown
cell (r, c) holds g*exp(-2j*pi*(r*u/M + c*v/N)) / (M*N), g the passband
gain. Picking at least as many in-passband entries as unknowns gives a
solvable dense complex system.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

import numpy as np

from .errors import (
    BoundsError,
    InconsistentInputError,
    ParameterError,
    SelectionError,
    ShapeError,
    SingularSystemError,
)
from .forward import (
    _twiddles,
    image_spectrum_block,
    observe_spectrum_block,
    unit_spectrum_noise,
)
from .grid import RoiSpec
from .linear import LinearSystem, Solution, finite_condition, solve
from .optics import OtfSpec, in_passband

# Imaginary residue allowed on recovered pixels, relative to their magnitude.
IMAG_RTOL = 1e-9

# The largest integer solve_two_point_1d takes: float64, which its finiteness
# check reads every argument as, holds integers exactly up to 2**53.
_EXACT_INTEGER_LIMIT = 2**53

# LU, least squares, truncated: the order linear.solve reads them in.
METHODS = ("direct_complex", "stacked_real_lsq", "truncated")


def solve_two_point_1d(
    n_len: int,
    a: int,
    b: int,
    c: int,
    d: int,
    x_c: complex,
    x_d: complex,
    imag_rtol: float = IMAG_RTOL,
) -> tuple[float, float]:
    """Recover two point sources at positions a, b from spectrum entries c, d.

    The length-n_len sequence is zero except at positions a and b; X_c and X_d
    are its unnormalized transform values at frequencies c and d:
    X_k = sum_n x_n * exp(-2j*pi*k*n/n_len).

    Raises:
        ParameterError: n_len < 2, a position outside [0, n_len), an integer
            argument beyond +/-2**53, a NaN or infinite argument, imag_rtol
            NaN, infinite or negative, or a result that overflows float64.
        SingularSystemError: the frequency pair is degenerate for these
            positions, i.e. (a - b)*(c - d) is a multiple of n_len (includes
            a == b and c == d).
        InconsistentInputError: the recovered values keep an imaginary part
            above imag_rtol of their magnitude (inputs do not match any real
            pair of sources).
    """
    integers = {"n_len": n_len, "a": a, "b": b, "c": c, "d": d}
    for name, value in integers.items():
        if abs(value) > _EXACT_INTEGER_LIMIT:
            raise ParameterError(f"{name} lies beyond +/-2**53, past what float64 phases carry")
    values = (n_len, a, b, c, d, x_c, x_d)
    if not all(cmath.isfinite(v) for v in values):
        raise ParameterError(f"two-point inputs must be finite, got {values}")
    if not (cmath.isfinite(imag_rtol) and imag_rtol >= 0):
        raise ParameterError(f"imag_rtol must be finite and >= 0, got {imag_rtol}")
    if n_len < 2:
        raise ParameterError(f"sequence length must be >= 2, got {n_len}")
    for name, value in (("a", a), ("b", b)):
        if not 0 <= value < n_len:
            raise ParameterError(f"position {name}={value} outside [0, {n_len - 1}]")
    if a == b:
        raise SingularSystemError("the two source positions coincide")

    def unit(t: int) -> complex:
        # reduced while still an exact integer, so equivalent frequencies
        # c and c + k*n_len give the same phase bits
        return cmath.exp(-2j * cmath.pi * (t % n_len) / n_len)

    den = unit(a * c + b * d) - unit(a * d + b * c)
    if abs(den) <= 1e-12:
        raise SingularSystemError(
            f"frequencies {c} and {d} cannot separate positions {a} and {b} "
            f"(degenerate pair for length {n_len})"
        )
    x_a = (x_c * unit(b * d) - x_d * unit(b * c)) / den
    x_b = (x_c - x_a * unit(a * c)) / unit(b * c)
    if not (cmath.isfinite(x_a) and cmath.isfinite(x_b)):
        raise ParameterError(f"two-point results overflow float64: x_a={x_a}, x_b={x_b}")
    scale = max(abs(x_a), abs(x_b), 1e-300)
    worst = max(abs(x_a.imag), abs(x_b.imag))
    if worst > imag_rtol * scale:
        raise InconsistentInputError(
            f"recovered values keep imaginary residue {worst:g} "
            f"({worst / scale:g} of magnitude); inputs are not a real pair"
        )
    return (float(x_a.real), float(x_b.real))


def effective_cutoff(base: float, k_rows: int, l_cols: int) -> float:
    """Smallest cutoff that keeps a K x L corner block of the spectrum in the
    passband; never below the base cutoff."""
    return max(base, math.hypot(k_rows - 1, l_cols - 1))


def require_block(k_rows: int, l_cols: int, ring: int, field_shape: tuple[int, int]) -> None:
    """BoundsError unless the (K+ring) x (L+ring) block a K x L region's
    system reads fits a field_shape spectrum."""
    rows, cols = field_shape
    if k_rows + ring > rows or l_cols + ring > cols:
        raise BoundsError(
            f"ring {ring} grows the {k_rows}x{l_cols} ROI's spectrum block "
            f"beyond the {rows}x{cols} field"
        )


def simulated_blur(
    spec: OtfSpec, k_rows: int, l_cols: int, ring: int, psf_crop: int
) -> OtfSpec:
    """The transfer spec a simulated K x L region's system reads: spec with
    its cutoff raised to keep the (K+ring) x (L+ring) block observation_index
    selects inside the passband (BoundsError if the block exceeds the
    field). psf_crop is not read."""
    require_block(k_rows, l_cols, ring, spec.shape)
    return replace(
        spec, cutoff_radius=effective_cutoff(spec.cutoff_radius, k_rows + ring, l_cols + ring)
    )


def observation_index(roi: RoiSpec, field_shape: tuple[int, int], ring: int) -> np.ndarray:
    """The spectrum entries an ROI's system reads: the (K+ring) x (L+ring)
    block at the origin, row-major, wrapped modulo the field."""
    rows, cols = int(field_shape[0]), int(field_shape[1])
    uu, vv = np.meshgrid(
        np.arange(roi.k_rows + ring) % rows, np.arange(roi.l_cols + ring) % cols, indexing="ij"
    )
    return np.column_stack([uu.ravel(), vv.ravel()])


def _axes(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(us, u_at, vs, v_at): the distinct u and v of a selection, sorted, and
    where each entry's own u and v sit among them, so that any array over
    us x vs read at [u_at, v_at] follows the selection's order."""
    us, u_at = np.unique(idx[:, 0], return_inverse=True)
    vs, v_at = np.unique(idx[:, 1], return_inverse=True)
    return us, u_at, vs, v_at


def _factor_condition(roi: RoiSpec, idx: np.ndarray, rows: int, cols: int) -> float | None:
    """cond(F_U) * cond(F_V) when idx holds the product U x V, each entry once.

    The system is then a row permutation of (F_U kron F_V) / (rows*cols), with
    F_U[u, k] = exp(-2j*pi*u*(top+k)/rows) over U x the K ROI rows and F_V
    the same over columns. A Kronecker product's singular values are the
    products of its factors', so its condition is the product of theirs. The
    ROI's anchor only scales each factor row by a unit phase, so the factors
    are taken at the origin. None for any other selection, and when a factor
    has fewer rows than columns (the product is then rank deficient).
    """
    us, u_at, vs, v_at = _axes(idx)
    if (
        us.size < roi.k_rows
        or vs.size < roi.l_cols
        or us.size * vs.size != idx.shape[0]
        or np.unique(u_at * vs.size + v_at).size != idx.shape[0]
    ):
        return None
    f_u = _twiddles(us, np.arange(roi.k_rows), rows, -1)
    f_v = _twiddles(vs, np.arange(roi.l_cols), cols, -1)
    return float(np.linalg.cond(f_u)) * float(np.linalg.cond(f_v))


def build_system(
    field_shape: tuple[int, int],
    roi: RoiSpec,
    obs_index: np.ndarray,
    otf_spec: OtfSpec,
    estimate_condition: bool = True,
) -> LinearSystem:
    """Assemble the transform-domain system for an isolated ROI.

    The system is complex, one row per (u, v) spectrum index of obs_index.

    Args:
        field_shape: (rows, cols) of the frame the spectrum is taken on.
        roi: region holding the unknown pixels.
        obs_index: (n, 2) spectrum indices to use; needs at least
            roi.pixel_count of them (more gives an overdetermined system).
        otf_spec: the transfer spec on field_shape (else ShapeError); every
            index must sit inside its passband, otherwise SelectionError
            (entries outside carry no signal after the low-pass filter).
        estimate_condition: compute a 2-norm condition estimate: from the two
            1-D partial DFT factors when obs_index is a full product U x V
            (any order, no repeats), else from an SVD of the whole matrix;
            an infinite estimate raises SingularSystemError.
    """
    if not isinstance(otf_spec, OtfSpec):
        raise ParameterError(f"transform domain reads an OtfSpec, got {type(otf_spec).__name__}")
    rows, cols = int(field_shape[0]), int(field_shape[1])
    roi.require_inside(rows, cols)
    idx = np.asarray(obs_index)
    if idx.ndim != 2 or idx.shape[1] != 2:
        raise ShapeError(f"obs_index must have shape (n, 2), got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx[:, 0].max() >= rows or idx[:, 1].max() >= cols):
        raise SelectionError(f"selection indices fall outside the {rows}x{cols} spectrum")
    if idx.shape[0] < roi.pixel_count:
        raise SelectionError(
            f"{idx.shape[0]} selected entries cannot determine "
            f"{roi.pixel_count} unknowns"
        )
    if otf_spec.shape != (rows, cols):
        raise ShapeError(f"transfer spec field {otf_spec.shape} does not match {rows}x{cols}")
    outside = ~in_passband(otf_spec, idx[:, 0], idx[:, 1])
    if outside.any():
        bad = idx[outside][0]
        raise SelectionError(
            f"selected entry (u={bad[0]}, v={bad[1]}) lies outside the passband "
            f"(cutoff {otf_spec.cutoff_radius}); it carries no signal"
        )
    # phases r*u/M + c*v/N fill the imaginary parts and exp runs in place
    n, k_rows, l_cols = idx.shape[0], roi.k_rows, roi.l_cols
    a = np.empty((n, k_rows * l_cols), dtype=np.complex128)
    np.add(
        np.outer(idx[:, 0] / rows, roi.top + np.arange(k_rows))[:, :, None],
        np.outer(idx[:, 1] / cols, roi.left + np.arange(l_cols))[:, None, :],
        out=a.reshape(n, k_rows, l_cols).imag,
    )
    a.imag *= -2 * np.pi
    a.real = 0.0
    np.exp(a, out=a)
    a /= rows * cols
    a *= otf_spec.passband_gain
    cond = float("nan")
    if estimate_condition:
        cond = _factor_condition(roi, idx, rows, cols)
        if cond is None:
            cond = float(np.linalg.cond(a))
        cond = finite_condition(cond)
    return LinearSystem("frequency", a, roi, idx, cond, (rows, cols), otf_spec)


def noiseless_rhs(system: LinearSystem, pixels: np.ndarray) -> np.ndarray:
    """The filtered spectrum of the ROI at the system's entries, passband-sparse:
    observe_spectrum_block over their distinct rows x columns, then gathered."""
    us, u_at, vs, v_at = _axes(system.require_domain("frequency").obs_index)
    block = observe_spectrum_block(pixels, system.roi, system.require_spec(), us, vs)
    return block[u_at, v_at]


def frame_rhs(system: LinearSystem, frame: np.ndarray) -> np.ndarray:
    """The system's spectrum entries of an observed frame on its field (else
    ShapeError): one partial DFT over their distinct rows x columns
    (image_spectrum_block), never a full transform, then gathered."""
    us, u_at, vs, v_at = _axes(system.require_domain("frequency").obs_index)
    return image_spectrum_block(system.require_frame(frame), us, vs)[u_at, v_at]


def unit_rows(system: LinearSystem, seed: int) -> np.ndarray:
    """Unit noise at the system's entries, in the exact law of a real white
    unit field's transform (unit_spectrum_noise)."""
    idx = system.require_domain("frequency").obs_index
    return unit_spectrum_noise(seed, idx, system.field_shape)


def solve_system(
    system: LinearSystem,
    rhs: np.ndarray,
    method: str = "direct_complex",
    clamp_negative: bool = False,
) -> Solution:
    """Solve a built transform-domain system for an observation rhs and report
    the recovered ROI.

    Methods: "direct_complex" (LU on the complex matrix, square only),
    "stacked_real_lsq" (real least squares on [Re; Im] stacking, works for
    overdetermined selections), "truncated" (complex SVD with a singular value
    floor). Pixels are the real part; Solution.imag_leakage reports the
    imaginary part dropped.
    """
    return solve(system.require_domain("frequency"), rhs, method, METHODS, clamp_negative)
