"""Recovery in the transform domain: partial-spectrum linear systems.

Each selected spectrum entry of an isolated frame is a known complex linear
mix of the ROI pixels: the row for frequency (u, v) and column for unknown
cell (r, c) holds g*exp(-2j*pi*(r*u/M + c*v/N)) / (M*N), g the passband
gain. In-passband entries whose rank reaches the unknowns give a
solvable dense complex system. Its one coefficient generator is a pair of
1-D twiddle factors, each phase reduced modulo the field before exp; the
dense matrix is gathered from them at build. The pixels are real, so the
default solve is the real least-squares one on [Re A; Im A].
"""

from __future__ import annotations

import cmath
import math

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
    _axes,
    _partial_transform,
    _twiddles,
    image_spectrum_block,
    unit_spectrum_noise,
)
from .grid import RoiSpec
from .linear import KroneckerFactors, LinearSystem, Solution, finite_condition, solve
from .optics import OtfSpec, in_passband, staircase_rank

# Imaginary residue allowed on recovered pixels, relative to their magnitude.
IMAG_RTOL = 1e-9

# The largest integer solve_two_point_1d takes: float64, which its finiteness
# check reads every argument as, holds integers exactly up to 2**53.
_EXACT_INTEGER_LIMIT = 2**53

# LU, least squares, truncated: the order linear.solve reads them in.
METHODS = ("direct_complex", "stacked_real_lsq", "truncated")
# The method a default solve takes at ring 0 and at a ring: least squares
# at both, since it uses both the real and the imaginary part of every entry.
DEFAULTS = (METHODS[1], METHODS[1])


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
    """The transfer spec a simulated K x L region's system reads: spec itself,
    the optics as given, once the (K+ring) x (L+ring) block observation_index
    selects is found to fit the field (else BoundsError). psf_crop is not
    read."""
    require_block(k_rows, l_cols, ring, spec.shape)
    return spec


def observation_index(roi: RoiSpec, field_shape: tuple[int, int], ring: int) -> np.ndarray:
    """The spectrum entries an ROI's system reads: the (K+ring) x (L+ring)
    block at the origin, row-major; BoundsError if it exceeds the field."""
    require_block(roi.k_rows, roi.l_cols, ring, field_shape)
    uu, vv = np.meshgrid(np.arange(roi.k_rows + ring), np.arange(roi.l_cols + ring), indexing="ij")
    return np.column_stack([uu.ravel(), vv.ravel()])


def structurally_singular(spec: OtfSpec, roi: RoiSpec, ring: int) -> bool:
    """Whether the rows build_system keeps of the ROI's block at ring, its
    passband entries, have a complex rank (optics.staircase_rank) below K*L."""
    idx = observation_index(roi, spec.shape, ring)
    inside = in_passband(spec, idx[:, 0], idx[:, 1])
    return not inside.all() and staircase_rank(idx[inside, 0], *roi.shape) < roi.pixel_count


def _factors(
    roi: RoiSpec, idx: np.ndarray, rows: int, cols: int, gain: float
) -> tuple[KroneckerFactors, bool]:
    """idx's factors, over its distinct u and v, and whether idx lists all of
    their product U x V row-major (|U| >= K, |V| >= L), as observation_index
    does. Row i of the matrix is gain/(rows*cols) * F_U[u_i] kron F_V[v_i],
    F_U[u, k] = exp(-2j*pi*u*(top+k)/rows) over U x the ROI rows, F_V the
    same over columns."""
    us, u_at, vs, v_at = _axes(idx)
    product = (us.size >= roi.k_rows and vs.size >= roi.l_cols
               and np.array_equal(u_at * vs.size + v_at, np.arange(us.size * vs.size)))
    f_u = _twiddles(us, roi.top + np.arange(roi.k_rows), rows, -1)
    f_v = _twiddles(vs, roi.left + np.arange(roi.l_cols), cols, -1)
    return KroneckerFactors(f_u, f_v, us, vs, u_at, v_at, gain / (rows * cols)), product


def build_system(
    field_shape: tuple[int, int],
    roi: RoiSpec,
    obs_index: np.ndarray,
    otf_spec: OtfSpec,
    estimate_condition: bool = True,
) -> LinearSystem:
    """Assemble the transform-domain system for an isolated ROI.

    The system is complex, one row per (u, v) spectrum index of obs_index
    inside the passband (an entry past it carries no signal), in order, and
    carries its dense matrix and its two partial DFT factors; its obs_index
    holds those entries.

    Args:
        field_shape: (rows, cols) of the frame the spectrum is taken on.
        roi: region holding the unknown pixels.
        obs_index: (n, 2) spectrum indices to use; needs at least
            roi.pixel_count of them (more gives an overdetermined system).
        otf_spec: the transfer spec on field_shape (else ShapeError), whose
            passband decides the entries kept.
        estimate_condition: compute a 2-norm condition estimate: from the two
            factors on a product listed row-major, square or taller, else
            from an SVD of the whole matrix;
            an infinite estimate raises SingularSystemError, and before any
            SVD a selection that lost entries SelectionError if the distinct
            ones kept have an optics.staircase_rank below K*L. Without it
            (the table's marked sizes) it is nan, and the kept rows are
            built however few.
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
    inside = in_passband(otf_spec, idx[:, 0], idx[:, 1])
    if not inside.all():
        idx = idx[inside]
        if estimate_condition:  # the distinct entries' rows: a repeated one adds no rank
            rank = staircase_rank(np.unique(idx, axis=0)[:, 0], *roi.shape)
            if rank < roi.pixel_count:
                raise SelectionError(
                    f"the {idx.shape[0]} of {inside.size} selected entries inside the "
                    f"passband (cutoff {otf_spec.cutoff_radius}) have rank {rank} of "
                    f"{roi.pixel_count} unknowns; the others carry no signal"
                )
    factors, product = _factors(roi, idx, rows, cols, otf_spec.passband_gain)
    a = factors.dense()
    cond = float("nan")
    if estimate_condition:
        # a Kronecker product's singular values are the products of its factors'
        parts = (factors.f_u, factors.f_v) if product else (a,)
        cond = finite_condition(math.prod(float(np.linalg.cond(m)) for m in parts))
    return LinearSystem("frequency", a, roi, idx, cond, (rows, cols), otf_spec, factors)


class NoiselessRows:
    """The filtered spectrum of the ROI at a system's entries, for any pixels:
    observe_spectrum of the ROI on a dark field, read at those entries, to
    rounding. A call takes one partial DFT of the pixels through the
    system's factors (F_U and F_V^T, the ROI's forward twiddles over the
    entries' distinct rows x columns), scales it in place and reads the
    entries off it in the system's row order (KroneckerFactors.rows).
    ParameterError for a system without factors (an image-domain one).
    """

    def __init__(self, system: LinearSystem) -> None:
        if system.require_domain("frequency").factors is None:
            raise ParameterError("a transform-domain system without factors has no rows to read")
        self.system = system
        # C order: a product with the strided view f_v.T can differ in the last bits
        self._forward = (system.factors.f_u, np.ascontiguousarray(system.factors.f_v.T))

    def __call__(self, pixels: np.ndarray) -> np.ndarray:
        """The rows of row-major K*L pixels (else ShapeError)."""
        f, patch = self.system.factors, self.system.roi.patch(pixels, *self.system.field_shape)
        block = _partial_transform(patch, self._forward)
        block *= f.scale
        return f.rows(block)


def frame_rhs(system: LinearSystem, frame: np.ndarray) -> np.ndarray:
    """The system's spectrum entries of an observed frame on its field (else
    ShapeError): one partial DFT over its factors' distinct rows x columns
    (image_spectrum_block), never a full transform, read off in row order
    by KroneckerFactors.rows. ParameterError for a system without factors."""
    frame, f = system.require_domain("frequency").require_frame(frame), system.factors
    if f is None:
        raise ParameterError("a transform-domain system without factors has no entries to read")
    return f.rows(image_spectrum_block(frame, f.us, f.vs))


def unit_rows(system: LinearSystem, seed: int) -> np.ndarray:
    """Unit noise at the system's entries, in the exact law of a real white
    unit field's transform (unit_spectrum_noise)."""
    idx = system.require_domain("frequency").obs_index
    return unit_spectrum_noise(seed, idx, system.field_shape)


def solve_system(
    system: LinearSystem,
    rhs: np.ndarray,
    method: str = DEFAULTS[0],
) -> Solution:
    """Solve a built transform-domain system for an observation rhs and report
    the recovered ROI.

    Methods: "stacked_real_lsq" (the default: real least squares on the
    [Re; Im] stacking, through the system's solve operator, formed once;
    square or overdetermined), "direct_complex" (complex LU, square only),
    "truncated" (complex SVD with a singular value floor). Pixels are the
    real part; Solution.imag_leakage reports the imaginary part dropped, 0
    on the real route.
    """
    return solve(system.require_domain("frequency"), rhs, method, METHODS)
