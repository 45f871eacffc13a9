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
    (u_at[i], v_at[i]) of the product (F_U is |U| x K, F_V |V| x L). rows and
    dense hold for any selection inside U x V; apply and solve only for the
    square product U x V listed row-major (|U| = K, |V| = L), the one system
    LinearSystem leaves without a matrix and calls them on.
    us, vs: the sorted distinct u and v, which u_at and v_at index."""

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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A @ x for x (K*L,) or (K*L, t): scale * F_U X F_V^T, each column X
        as K x L, whose row-major entries are A's rows."""
        k, l = self.f_u.shape[1], self.f_v.shape[1]
        t = x.size // (k * l)
        y = self.f_v @ (self.f_u @ x.reshape(k, l * t)).reshape(k, l, t)
        y *= self.scale
        return y.reshape(x.shape)

    def dense(self) -> np.ndarray:
        """A itself, (n, K*L): row i is scale * (F_U[u_at[i]] kron F_V[v_at[i]])."""
        rows = self.f_u[self.u_at][:, :, None] * self.f_v[self.v_at][:, None, :]
        rows *= self.scale
        return rows.reshape(self.u_at.size, -1)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """x with A x = y: F_U^-1 Y F_V^-T / scale, each inverse an LU against
        the identity, applied as a matrix product, Y each column of y
        reshaped as K x L. y is read, never written."""
        k, l, t = self.f_u.shape[1], self.f_v.shape[1], y.size // y.shape[0]
        x = np.linalg.inv(self.f_u) @ y.astype(complex, copy=False).reshape(k, l * t)
        x = np.linalg.inv(self.f_v) @ x.reshape(k, l, t)
        return np.divide(x, self.scale, out=x).reshape(y.shape)


def _read_only(array: np.ndarray | None) -> np.ndarray | None:
    if array is not None:
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

    factors: a transform-domain system's Kronecker factors (None in the
    image domain). matrix is A, or None on the square product U x V listed
    row-major, which takes its LU and A x (system @ x) in its factors and
    forms A from them only when a_matrix is first read.

    Making a system makes its matrix and factors read-only, so what it
    derives from them once (a_matrix, the verdicts solve_route reads,
    lsq_matrix) never goes stale. None of these refers back to the system.
    """

    domain: str
    matrix: np.ndarray | None
    roi: RoiSpec
    obs_index: np.ndarray
    condition_estimate: float
    field_shape: tuple[int, int]
    spec: OtfSpec | None
    factors: KroneckerFactors | None = None

    def __post_init__(self) -> None:
        _read_only(self.matrix)
        if self.factors is not None:
            _read_only(self.factors.f_u)
            _read_only(self.factors.f_v)

    @cached_property
    def a_matrix(self) -> np.ndarray:
        return _read_only(self.factors.dense()) if self.matrix is None else self.matrix

    @cached_property
    def matrix_finite(self) -> bool:
        return bool(np.isfinite(self.a_matrix).all())

    @cached_property
    def factors_finite(self) -> bool:
        return bool(np.isfinite(self.factors.f_u).all() and np.isfinite(self.factors.f_v).all())

    @cached_property
    def lsq_matrix(self) -> np.ndarray:
        """The real matrix least squares solves: a_matrix, as [Re; Im] if complex."""
        a = self.a_matrix
        return _read_only(np.vstack([a.real, a.imag])) if np.iscomplexobj(a) else a

    @property
    def shape(self) -> tuple[int, int]:
        return (self.obs_index.shape[0], self.roi.pixel_count)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A @ x: in the factors when matrix is None, as its LU is."""
        return self.factors.apply(x) if self.matrix is None else self.matrix @ x

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


def _truncated_lstsq(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > TRUNCATION_RTOL * s[0] if s.size else np.zeros(0, dtype=bool)
    if not keep.any():
        raise SingularSystemError("every singular value fell below the truncation floor")
    coeff = (u[:, keep].conj().T @ rhs) / (s[keep] if rhs.ndim == 1 else s[keep, None])
    return vt[keep].conj().T @ coeff


def solve_route(
    system: LinearSystem, rhs: np.ndarray, method: str, methods: tuple[str, str, str]
) -> tuple[int, KroneckerFactors | None, np.ndarray | None]:
    """solve's refusals of its inputs (ParameterError: an unknown method, or
    NaN or Inf in rhs or in what the route reads of A; ShapeError: rhs not
    one row per observation, or LU of more rows than unknowns), then the
    method's position in methods and what its route reads: the factors (LU
    on a system whose matrix is None) or else the dense matrix. A is checked
    once per system, rhs on every call."""
    if method not in methods:
        raise ParameterError(f"unknown method {method!r}, expected one of {methods}")
    rhs = np.asarray(rhs)
    n = system.shape[0]
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ShapeError(f"right-hand side {rhs.shape} does not match {n} observations")
    kind = methods.index(method)
    factors = system.factors if kind == 0 and system.matrix is None else None
    a = system.a_matrix if factors is None else None
    finite = system.matrix_finite if factors is None else system.factors_finite
    if not (finite and np.isfinite(rhs).all()):
        raise ParameterError("system matrix or right-hand side holds NaN or Inf")
    if kind == 0 and n > system.shape[1]:
        raise ShapeError(
            f"{method} needs a square system, got {system.shape}; "
            f"use {methods[1]} for extra observations"
        )
    return kind, factors, a


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
    systems only; in the factors when the matrix is None), least squares
    (numpy's LAPACK gelsd, singular values below machine epsilon of the
    largest discarded; a complex A is stacked as [Re; Im], once per
    system, so the solution stays real) and truncated SVD (singular values
    below TRUNCATION_RTOL of the largest discarded).

    Raises:
        ParameterError, ShapeError: solve_route's refusals; ParameterError
            also for a solution that overflows float64.
        SingularSystemError: LU found the matrix singular, an SVD did not
            converge, or every singular value fell below the truncation floor.
    """
    rhs = np.asarray(rhs)
    kind, factors, a = solve_route(system, rhs, method, methods)
    try:
        # overflow leaves NaN or Inf in z, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            if factors is not None:
                z = factors.solve(rhs)
            elif kind == 0:
                z = np.linalg.solve(a, rhs)
            elif kind == 1:
                y_ls = np.concatenate([rhs.real, rhs.imag]) if np.iscomplexobj(a) else rhs
                z = np.linalg.lstsq(system.lsq_matrix, y_ls, rcond=np.finfo(float).eps)[0]
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
