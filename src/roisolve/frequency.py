"""Recovery in the transform domain: partial-spectrum linear systems.

Each selected spectrum entry of an isolated frame is a known complex linear
mix of the ROI pixels: the row for frequency (u, v) and column for unknown
cell (r, c) holds exp(-2j*pi*(r*u/M + c*v/N)) / (M*N). Picking at least as
many in-passband entries as unknowns gives a solvable dense complex system.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import warnings

from .errors import (
    InconsistentInputError,
    ParameterError,
    SelectionError,
    ShapeError,
    SingularSystemError,
)
from .grid import RoiSpec
from .optics import OtfSpec, in_passband
from .spatial import TRUNCATION_RTOL, _truncated_lstsq

# Imaginary residue allowed on recovered pixels, relative to their magnitude.
IMAG_RTOL = 1e-9

_FILL_CHUNK_ENTRIES = 10_000_000


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
        SingularSystemError: the frequency pair is degenerate for these
            positions, i.e. (a - b)*(c - d) is a multiple of n_len (includes
            a == b and c == d).
        InconsistentInputError: the recovered values keep an imaginary part
            above imag_rtol of their magnitude (inputs do not match any real
            pair of sources).
    """
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
    scale = max(abs(x_a), abs(x_b), 1e-300)
    worst = max(abs(x_a.imag), abs(x_b.imag))
    if worst > imag_rtol * scale:
        raise InconsistentInputError(
            f"recovered values keep imaginary residue {worst:g} "
            f"({worst / scale:g} of magnitude); inputs are not a real pair"
        )
    return (float(x_a.real), float(x_b.real))


@dataclass(frozen=True)
class SpectrumSelection:
    """A set of spectrum entries: (u, v) indices plus their complex values."""

    indices: np.ndarray
    entries: np.ndarray
    block_origin: tuple[int, int] | None = field(default=None)
    block_shape: tuple[int, int] | None = field(default=None)

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices)
        ent = np.asarray(self.entries)
        if idx.ndim != 2 or idx.shape[1] != 2:
            raise ShapeError(f"indices must have shape (n, 2), got {idx.shape}")
        if ent.shape != (idx.shape[0],):
            raise ShapeError(
                f"entries length {ent.shape} does not match {idx.shape[0]} indices"
            )

    @property
    def count(self) -> int:
        return self.indices.shape[0]

    @classmethod
    def block(
        cls,
        spectrum: np.ndarray,
        start_row: int,
        start_col: int,
        k_rows: int,
        l_cols: int,
    ) -> "SpectrumSelection":
        """A contiguous K x L block of entries, row-major, wrapped modulo the grid."""
        spectrum = np.asarray(spectrum)
        if spectrum.ndim != 2:
            raise ShapeError(f"spectrum must be 2D, got ndim={spectrum.ndim}")
        if k_rows < 1 or l_cols < 1:
            raise ParameterError("block dimensions must be >= 1")
        rows, cols = spectrum.shape
        us = np.arange(start_row, start_row + k_rows) % rows
        vs = np.arange(start_col, start_col + l_cols) % cols
        return cls.from_block(spectrum[np.ix_(us, vs)], start_row, start_col, spectrum.shape)

    @classmethod
    def from_block(
        cls,
        entries: np.ndarray,
        start_row: int,
        start_col: int,
        field_shape: tuple[int, int],
    ) -> "SpectrumSelection":
        """The block selection of already-evaluated K x L entries.

        entries[i, j] is the spectrum value at ((start_row + i) mod rows,
        (start_col + j) mod cols) of a field_shape spectrum; the result equals
        block() on a full spectrum holding those values.
        """
        entries = np.asarray(entries)
        if entries.ndim != 2 or entries.size == 0:
            raise ShapeError(f"block entries must be a nonempty 2D array, got {entries.shape}")
        rows, cols = int(field_shape[0]), int(field_shape[1])
        k_rows, l_cols = entries.shape
        uu, vv = np.meshgrid(
            np.arange(start_row, start_row + k_rows) % rows,
            np.arange(start_col, start_col + l_cols) % cols,
            indexing="ij",
        )
        return cls(
            indices=np.column_stack([uu.ravel(), vv.ravel()]),
            entries=entries.ravel().astype(np.complex128),
            block_origin=(start_row % rows, start_col % cols),
            block_shape=(k_rows, l_cols),
        )

    @classmethod
    def from_indices(cls, spectrum: np.ndarray, indices: np.ndarray) -> "SpectrumSelection":
        """Arbitrary entries picked by (u, v) index, wrapped modulo the grid."""
        spectrum = np.asarray(spectrum)
        if spectrum.ndim != 2:
            raise ShapeError(f"spectrum must be 2D, got ndim={spectrum.ndim}")
        idx = np.asarray(indices)
        if idx.ndim != 2 or idx.shape[1] != 2:
            raise ShapeError(f"indices must have shape (n, 2), got {idx.shape}")
        idx = np.column_stack([idx[:, 0] % spectrum.shape[0], idx[:, 1] % spectrum.shape[1]])
        return cls(
            indices=idx,
            entries=spectrum[idx[:, 0], idx[:, 1]].astype(np.complex128),
        )


def mirror_indices(indices: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Conjugate-mirror partners (-u mod rows, -v mod cols) of a set of indices."""
    idx = np.asarray(indices)
    return np.column_stack([(-idx[:, 0]) % rows, (-idx[:, 1]) % cols])


@dataclass(frozen=True)
class FrequencySystem:
    """A built transform-domain system A x = y, complex A and y."""

    a_matrix: np.ndarray
    rhs: np.ndarray
    roi: RoiSpec
    field_rows: int
    field_cols: int
    selection: SpectrumSelection
    condition_estimate: float

    @property
    def is_square(self) -> bool:
        return self.a_matrix.shape[0] == self.a_matrix.shape[1]


def build_system(
    field_shape: tuple[int, int],
    roi: RoiSpec,
    selection: SpectrumSelection,
    otf_spec: OtfSpec | None = None,
    estimate_condition: bool = True,
) -> FrequencySystem:
    """Assemble the transform-domain system for an isolated ROI.

    Args:
        field_shape: (rows, cols) of the frame the spectrum was taken on.
        roi: region holding the unknown pixels.
        selection: spectrum entries to use; needs at least roi.pixel_count of
            them (more gives an overdetermined system).
        otf_spec: when given, every selected index must sit inside its
            passband, otherwise SelectionError (entries outside carry no
            signal after the low-pass filter).
        estimate_condition: compute a 2-norm condition estimate via SVD.
    """
    rows, cols = int(field_shape[0]), int(field_shape[1])
    if rows < 1 or cols < 1:
        raise ParameterError(f"field must be at least 1x1, got {rows}x{cols}")
    roi.require_inside(rows, cols)
    idx = np.asarray(selection.indices)
    if idx.size and (idx.min() < 0 or idx[:, 0].max() >= rows or idx[:, 1].max() >= cols):
        raise SelectionError(f"selection indices fall outside the {rows}x{cols} spectrum")
    if selection.count < roi.pixel_count:
        raise SelectionError(
            f"{selection.count} selected entries cannot determine "
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
    n_rows = selection.count
    n_cols = unknowns.shape[0]
    a = np.empty((n_rows, n_cols), dtype=np.complex128)
    chunk = max(1, _FILL_CHUNK_ENTRIES // max(n_cols, 1))
    for start in range(0, n_rows, chunk):
        stop = min(start + chunk, n_rows)
        phase = (
            unknowns[None, :, 0] * (idx[start:stop, None, 0] / rows)
            + unknowns[None, :, 1] * (idx[start:stop, None, 1] / cols)
        )
        a[start:stop] = np.exp(-2j * np.pi * phase)
    a /= rows * cols
    rhs = np.asarray(selection.entries, dtype=np.complex128)
    cond = float(np.linalg.cond(a)) if estimate_condition else float("nan")
    return FrequencySystem(
        a_matrix=a,
        rhs=rhs,
        roi=roi,
        field_rows=rows,
        field_cols=cols,
        selection=selection,
        condition_estimate=cond,
    )


@dataclass(frozen=True)
class FrequencySolution:
    """Solver output: real recovered pixels plus bookkeeping.

    imag_leakage: largest imaginary part dropped when projecting the complex
    solution to real pixels, relative to the solution magnitude (zero for the
    stacked real solver, which never leaves the real line).
    """

    pixels: np.ndarray
    residual: float
    condition: float
    method: str
    imag_leakage: float
    negative_count: int
    min_pixel: float


FREQUENCY_METHODS = ("direct_complex", "stacked_real_lsq", "truncated")


def solve_system(
    system: FrequencySystem,
    method: str = "direct_complex",
    clamp_negative: bool = False,
) -> FrequencySolution:
    """Solve a built transform-domain system and report the recovered ROI.

    Methods: "direct_complex" (LU on the complex matrix, square only),
    "stacked_real_lsq" (real least squares on [Re; Im] stacking, works for
    overdetermined selections), "truncated" (complex SVD with a singular value
    floor).
    """
    if method not in FREQUENCY_METHODS:
        raise ParameterError(f"unknown method {method!r}, expected one of {FREQUENCY_METHODS}")
    a = system.a_matrix
    rhs = system.rhs
    if method == "direct_complex":
        if not system.is_square:
            raise ShapeError(
                f"direct_complex needs a square system, got {a.shape}; "
                "use stacked_real_lsq for larger selections"
            )
        try:
            z = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"direct solve failed: {exc}", condition=system.condition_estimate
            ) from exc
    elif method == "stacked_real_lsq":
        a2 = np.vstack([a.real, a.imag])
        y2 = np.concatenate([rhs.real, rhs.imag])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            z, _, _, _ = scipy.linalg.lstsq(a2, y2, lapack_driver="gelsd")
        z = z.astype(np.complex128)
    else:
        z = _truncated_lstsq(a, rhs, TRUNCATION_RTOL)
    scale = float(np.abs(z).max()) if z.size else 0.0
    leakage = float(np.abs(z.imag).max() / scale) if scale > 0 else 0.0
    x = z.real.copy()
    negative_count = int(np.count_nonzero(x < 0))
    min_pixel = float(x.min()) if x.size else 0.0
    if clamp_negative:
        x = np.maximum(x, 0.0)
    residual = float(np.linalg.norm(a @ x - rhs)) / system.roi.pixel_count
    return FrequencySolution(
        pixels=x,
        residual=residual,
        condition=system.condition_estimate,
        method=method,
        imag_leakage=leakage,
        negative_count=negative_count,
        min_pixel=min_pixel,
    )
