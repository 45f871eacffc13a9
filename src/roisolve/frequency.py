"""Recovery in the transform domain: partial-spectrum linear systems.

Each selected spectrum entry of an isolated frame is a known complex linear
mix of the ROI pixels: the row for frequency (u, v) and column for unknown
cell (r, c) holds exp(-2j*pi*(r*u/M + c*v/N)) / (M*N). Picking at least as
many in-passband entries as unknowns gives a solvable dense complex system.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import (
    InconsistentInputError,
    ParameterError,
    SelectionError,
    ShapeError,
    SingularSystemError,
)
from .forward import _twiddles, image_spectrum_block, observe_spectrum_block
from .grid import RoiSpec
from .linear import LinearSystem, Solution, fill_rows, finite_condition, solve
from .optics import OtfSpec, in_passband

# Imaginary residue allowed on recovered pixels, relative to their magnitude.
IMAG_RTOL = 1e-9

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
        ParameterError: n_len < 2, a position outside [0, n_len), a NaN or
            infinite argument, imag_rtol NaN, infinite or negative, or a
            result that overflows float64.
        SingularSystemError: the frequency pair is degenerate for these
            positions, i.e. (a - b)*(c - d) is a multiple of n_len (includes
            a == b and c == d).
        InconsistentInputError: the recovered values keep an imaginary part
            above imag_rtol of their magnitude (inputs do not match any real
            pair of sources).
    """
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

    def unit(t: float) -> complex:
        return cmath.exp(-2j * cmath.pi * t / n_len)

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
    otf_spec: OtfSpec | None = None,
    estimate_condition: bool = True,
) -> LinearSystem:
    """Assemble the transform-domain system for an isolated ROI.

    The system is complex, one row per (u, v) spectrum index of obs_index.

    Args:
        field_shape: (rows, cols) of the frame the spectrum is taken on.
        roi: region holding the unknown pixels.
        obs_index: (n, 2) spectrum indices to use; needs at least
            roi.pixel_count of them (more gives an overdetermined system).
        otf_spec: when given, every index must sit inside its passband,
            otherwise SelectionError (entries outside carry no signal after
            the low-pass filter).
        estimate_condition: compute a 2-norm condition estimate: from the two
            1-D partial DFT factors when obs_index is a full product U x V
            (any order, no repeats), else from an SVD of the whole matrix;
            an infinite estimate raises SingularSystemError.
    """
    if otf_spec is not None and not isinstance(otf_spec, OtfSpec):
        raise ParameterError(f"transform domain reads an OtfSpec, got {type(otf_spec).__name__}")
    rows, cols = int(field_shape[0]), int(field_shape[1])
    if rows < 1 or cols < 1:
        raise ParameterError(f"field must be at least 1x1, got {rows}x{cols}")
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
    if otf_spec is not None:
        if otf_spec.shape != (rows, cols):
            raise ShapeError(
                f"transfer spec field {otf_spec.shape} does not match {rows}x{cols}"
            )
        outside = ~in_passband(otf_spec, idx[:, 0], idx[:, 1])
        if outside.any():
            bad = idx[outside][0]
            raise SelectionError(
                f"selected entry (u={bad[0]}, v={bad[1]}) lies outside the passband "
                f"(cutoff {otf_spec.cutoff_radius}); it carries no signal"
            )
    unknowns = roi.cells()

    def phase_rows(r: slice) -> np.ndarray:
        phase = (
            unknowns[None, :, 0] * (idx[r, None, 0] / rows)
            + unknowns[None, :, 1] * (idx[r, None, 1] / cols)
        )
        return np.exp(-2j * np.pi * phase)

    a = fill_rows(idx.shape[0], unknowns.shape[0], np.complex128, phase_rows)
    a /= rows * cols
    cond = float("nan")
    if estimate_condition:
        cond = _factor_condition(roi, idx, rows, cols)
        if cond is None:
            cond = float(np.linalg.cond(a))
        cond = finite_condition(cond)
    return LinearSystem(a, roi, idx, cond, (rows, cols), otf_spec)


def noiseless_rhs(system: LinearSystem, pixels: np.ndarray) -> np.ndarray:
    """The filtered spectrum of the ROI at the system's entries, passband-sparse:
    observe_spectrum_block over their distinct rows x columns, then gathered.
    ParameterError for a system without a transfer spec."""
    us, u_at, vs, v_at = _axes(system.obs_index)
    block = observe_spectrum_block(pixels, system.roi, system.require_spec(), us, vs)
    return block[u_at, v_at]


def frame_rhs(system: LinearSystem, frame: np.ndarray) -> np.ndarray:
    """The system's spectrum entries of an observed frame on its field (else
    ShapeError): one partial DFT over their distinct rows x columns
    (image_spectrum_block), never a full transform, then gathered."""
    us, u_at, vs, v_at = _axes(system.obs_index)
    return image_spectrum_block(system.require_frame(frame), us, vs)[u_at, v_at]


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
    return solve(system, rhs, method, METHODS, clamp_negative)
