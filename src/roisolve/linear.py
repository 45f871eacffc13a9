"""The dense linear system both recovery domains solve.

Image-domain and transform-domain recovery both end in one dense system
A x = y over the ROI pixels; they differ only in how A's coefficients are
generated (kernel entries in `spatial`, DFT phases in `frequency`). This
module holds what they share: the system and solution types and the
solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ShapeError, SingularSystemError
from .grid import RoiSpec
from .optics import OtfSpec

# Above this condition estimate a plain solve is considered untrustworthy;
# the CLI switches to the truncated solver when the caller did not pin one.
CONDITION_LIMIT = 1e14

# Relative singular-value floor of the truncated solver.
TRUNCATION_RTOL = 1.0 / CONDITION_LIMIT

def finite_condition(cond: float) -> float:
    """A built system's condition estimate; SingularSystemError when it is
    infinite, since the matrix is then singular to working precision."""
    if cond == float("inf"):
        raise SingularSystemError("system matrix is singular (condition estimate inf)", cond)
    return cond


class KroneckerFactors(NamedTuple):
    """A = scale * (F_U kron F_V), rows selected: row i of A is row
    (u_at[i], v_at[i]) of the product (F_U is |U| x K, F_V |V| x L), for any
    selection inside U x V. us, vs: the sorted distinct u and v, which u_at
    and v_at index."""

    f_u: np.ndarray
    f_v: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    u_at: np.ndarray
    v_at: np.ndarray
    scale: float

    def rows(self, block: np.ndarray) -> np.ndarray:
        """A (|U|, |V|) block over U x V in A's row order: block[u_at, v_at]."""
        return block[self.u_at, self.v_at]

    def dense(self) -> np.ndarray:
        """A itself, (n, K*L): row i is scale * (F_U[u_at[i]] kron F_V[v_at[i]])."""
        rows = self.f_u[self.u_at][:, :, None] * self.f_v[self.v_at][:, None, :]
        rows *= self.scale
        return rows.reshape(self.u_at.size, -1)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class LinearSystem:
    """The matrix A of a system A x = y over the ROI pixels, real or complex.

    domain names the module that built it, the only one whose readers and
    solver take it. Row i of A reads obs_index[i]: an absolute (row, col)
    image cell in the image domain, a (u, v) spectrum index in the transform
    domain, of a field_shape frame. spec is the transfer spec observations go
    through (None only for an image-domain system on a kernel read from a
    file). The observation y is not part of the system: each domain's
    frame_rhs reads it off a frame, its NoiselessRows from known pixels.

    a_matrix: A, dense in both domains. factors: a transform-domain system's
    Kronecker factors (None in the image domain), which its readers and its
    condition estimate read.

    Making a system makes its matrix and factors read-only, so what it
    derives from them once (the verdict solve_route reads, lsq_operator)
    never goes stale. Neither refers back to the system.
    """

    domain: str
    a_matrix: np.ndarray
    roi: RoiSpec
    obs_index: np.ndarray
    condition_estimate: float
    field_shape: tuple[int, int]
    spec: OtfSpec | None
    factors: KroneckerFactors | None = None

    def __post_init__(self) -> None:
        _read_only(self.a_matrix)
        if self.factors is not None:
            _read_only(self.factors.f_u)
            _read_only(self.factors.f_v)

    @cached_property
    def matrix_finite(self) -> bool:
        return _all_finite(self.a_matrix)

    @cached_property
    def lsq_operator(self) -> np.ndarray:
        """The real solve operator of a complex A: x = lsq_operator @ [Re y; Im y]
        is the least-squares solution of [Re A; Im A] x = [Re y; Im y]. It is
        formed from one SVD of that stacked matrix, singular values at or
        below machine epsilon of the largest dropped, as gelsd drops them;
        np.linalg.LinAlgError when the SVD does not converge."""
        a = self.a_matrix
        u, s, vt = _svd_above(np.vstack([a.real, a.imag]), np.finfo(float).eps)
        return _read_only((vt.T / s) @ u.T)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.obs_index.shape[0], self.roi.pixel_count)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.a_matrix @ x

    def require_domain(self, name: str) -> LinearSystem:
        """The system itself when domain name built it, else ParameterError."""
        if self.domain != name:
            raise ParameterError(f"a {self.domain}-domain system given to the {name} domain")
        return self

    def require_spec(self) -> OtfSpec:
        """The transfer spec; ParameterError when the system carries none."""
        if self.spec is None:
            raise ParameterError("system carries no transfer spec (a kernel read from a file)")
        return self.spec

    def require_frame(self, frame: np.ndarray) -> np.ndarray:
        """frame as an array; ShapeError unless it is 2-D on field_shape."""
        frame = np.asarray(frame)
        if frame.shape != self.field_shape:
            raise ShapeError(f"frame {frame.shape} is not 2-D on the field {self.field_shape}")
        return frame


@dataclass(frozen=True)
class Solution:
    """Solver output: real recovered pixels, and a report computed when first read.

    pixels: row-major ROI values, one column per right-hand side for a
        block.
    solved: the array the solve route returned, complex in the transform
        domain's LU and truncated routes; the report describes it.
    imag_leakage: largest imaginary part dropped when projecting a complex
        solution to real pixels, relative to the solution magnitude (0.0 for
        a real system and for the least-squares solver, which stays real).
    negative_count / min_pixel: nonnegativity report of the solution.
    """

    pixels: np.ndarray
    solved: np.ndarray

    @cached_property
    def imag_leakage(self) -> float:
        scale = float(np.abs(self.solved).max()) if self.solved.size else 0.0
        return float(np.abs(self.solved.imag).max() / scale) if scale > 0 else 0.0

    @cached_property
    def negative_count(self) -> int:
        return int(np.count_nonzero(self.solved.real < 0))

    @cached_property
    def min_pixel(self) -> float:
        return float(self.solved.real.min()) if self.solved.size else 0.0


def _all_finite(x: np.ndarray) -> bool:
    """Whether x holds no NaN or Inf; a complex x is read as its float view,
    one pass over its parts."""
    if np.iscomplexobj(x):
        x = np.ascontiguousarray(x).view(x.real.dtype)
    return bool(np.isfinite(x).all())


def _svd_above(a: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a's thin SVD u, s, vt, kept to the singular values above rtol times the largest."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > rtol * s[0] if s.size else np.zeros(0, dtype=bool)
    return u[:, keep], s[keep], vt[keep]


def _truncated_lstsq(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    u, s, vt = _svd_above(a, TRUNCATION_RTOL)
    if not s.size:
        raise SingularSystemError("every singular value fell below the truncation floor")
    coeff = (u.conj().T @ rhs) / (s if rhs.ndim == 1 else s[:, None])
    return vt.conj().T @ coeff


def solve_route(
    system: LinearSystem, rhs: np.ndarray, method: str, methods: tuple[str, str, str]
) -> int:
    """solve's refusals of its inputs (ParameterError: an unknown method, or
    NaN or Inf in A or rhs; ShapeError: rhs not one row per observation, or
    LU of more rows than unknowns), then the method's position in methods.
    A is checked once per system, rhs on every call."""
    if method not in methods:
        raise ParameterError(f"unknown method {method!r}, expected one of {methods}")
    rhs = np.asarray(rhs)
    n = system.shape[0]
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ShapeError(f"right-hand side {rhs.shape} does not match {n} observations")
    if not (system.matrix_finite and _all_finite(rhs)):
        raise ParameterError("system matrix or right-hand side holds NaN or Inf")
    kind = methods.index(method)
    if kind == 0 and n > system.shape[1]:
        raise ShapeError(
            f"{method} needs a square system, got {system.shape}; "
            f"use {methods[1]} for extra observations"
        )
    return kind


def residual(system: LinearSystem, x: np.ndarray, rhs: np.ndarray) -> float:
    """||A x - rhs||_2 / (K*L), A x as system @ x; ParameterError on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite residual is refused
        value = float(np.linalg.norm(system @ x - rhs)) / system.roi.pixel_count
    if not np.isfinite(value):
        raise ParameterError("residual overflows float64: the observations overflow the solve")
    return value


def solve(
    system: LinearSystem,
    rhs: np.ndarray,
    method: str,
    methods: tuple[str, str, str],
) -> Solution:
    """Solve A x = rhs with one of a domain's method names.

    rhs is one vector (n,) or a block (n, t) of t vectors sharing the matrix,
    row i observed at system.obs_index[i]. For a block, pixels is (K*L, t),
    and imag_leakage, negative_count and min_pixel summarize the whole
    block. Neither a residual nor that report is taken here: a caller that
    reports a residual calls residual, and the report is computed when read.

    methods names the domain's three solvers in this order: LU (square
    systems only), least squares (singular values at or below machine
    epsilon of the largest discarded: numpy's LAPACK gelsd on a real A; on
    a complex A one real product of the system's lsq_operator with
    [Re rhs; Im rhs], so the solution stays real) and truncated SVD
    (singular values below TRUNCATION_RTOL of the largest discarded).

    Raises:
        ParameterError, ShapeError: solve_route's refusals; ParameterError
            also for a solution that overflows float64.
        SingularSystemError: LU found the matrix singular, an SVD did not
            converge, or every singular value fell below the truncation floor.
    """
    rhs = np.asarray(rhs)
    kind = solve_route(system, rhs, method, methods)
    a = system.a_matrix
    try:
        # overflow leaves NaN or Inf in z, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            if kind == 0:
                z = np.linalg.solve(a, rhs)
            elif kind == 1 and np.iscomplexobj(a):
                z = system.lsq_operator @ np.concatenate([rhs.real, rhs.imag])
            elif kind == 1:
                z = np.linalg.lstsq(a, rhs, rcond=np.finfo(float).eps)[0]
            else:
                z = _truncated_lstsq(a, rhs)
    except np.linalg.LinAlgError as exc:
        label = ("direct", "least-squares", "truncated")[kind]
        raise SingularSystemError(
            f"{label} solve failed: {exc}", condition=system.condition_estimate
        ) from exc
    if not np.isfinite(z).all():
        raise ParameterError("solution holds NaN or Inf: the observations overflow the solve")
    x = z.real.copy() if np.iscomplexobj(z) else z  # every route returns a fresh z
    return Solution(pixels=x, solved=z)
