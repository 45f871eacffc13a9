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

from .errors import (
    InconsistentInputError,
    ParameterError,
    SelectionError,
    ShapeError,
    SingularSystemError,
)
from .grid import RoiSpec
from .linear import LinearSystem, Solution, fill_rows, solve
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


def build_system(
    field_shape: tuple[int, int],
    roi: RoiSpec,
    selection: SpectrumSelection,
    otf_spec: OtfSpec | None = None,
    estimate_condition: bool = True,
) -> LinearSystem:
    """Assemble the transform-domain system for an isolated ROI.

    The system is complex; its obs_index holds the selection's (u, v) indices.

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

    def phase_rows(r: slice) -> np.ndarray:
        phase = (
            unknowns[None, :, 0] * (idx[r, None, 0] / rows)
            + unknowns[None, :, 1] * (idx[r, None, 1] / cols)
        )
        return np.exp(-2j * np.pi * phase)

    a = fill_rows(selection.count, unknowns.shape[0], np.complex128, phase_rows)
    a /= rows * cols
    rhs = np.asarray(selection.entries, dtype=np.complex128)
    cond = float(np.linalg.cond(a)) if estimate_condition else float("nan")
    return LinearSystem(
        a_matrix=a, rhs=rhs, roi=roi, obs_index=idx, condition_estimate=cond
    )


def solve_system(
    system: LinearSystem,
    method: str = "direct_complex",
    clamp_negative: bool = False,
) -> Solution:
    """Solve a built transform-domain system and report the recovered ROI.

    Methods: "direct_complex" (LU on the complex matrix, square only),
    "stacked_real_lsq" (real least squares on [Re; Im] stacking, works for
    overdetermined selections), "truncated" (complex SVD with a singular value
    floor). Pixels are the real part; Solution.imag_leakage reports the
    imaginary part dropped.
    """
    return solve(system, method, METHODS, clamp_negative)
