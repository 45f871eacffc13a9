"""The dense linear system both recovery domains solve.

Image-domain and transform-domain recovery both end in one dense system
A x = y over the ROI pixels; they differ only in how A's coefficients are
generated (kernel entries in `spatial`, DFT phases in `frequency`). This
module holds what they share: the system and solution types and the
solver.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class LinearSystem:
    """The matrix A of a system A x = y over the ROI pixels, real or complex.

    domain names the module that built it, the only one whose readers and
    solver take it. Row i of A reads obs_index[i]: an absolute (row, col)
    image cell in the image domain, a (u, v) spectrum index in the transform
    domain, of a field_shape frame. spec is the transfer spec observations go
    through (None only for an image-domain system on a kernel read from a
    file). The observation y is not part of the system: each domain's
    frame_rhs reads it off a frame, its noiseless_rhs from known pixels.
    """

    domain: str
    a_matrix: np.ndarray
    roi: RoiSpec
    obs_index: np.ndarray
    condition_estimate: float
    field_shape: tuple[int, int]
    spec: OtfSpec | None

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
    """Solver output: real recovered pixels plus bookkeeping.

    pixels: row-major ROI values (clamped if requested), one column per
        right-hand side for a block.
    residual: ||A x - y||_2 / (K*L) for the returned pixels.
    imag_leakage: largest imaginary part dropped when projecting a complex
        solution to real pixels, relative to the solution magnitude (0.0 for
        a real system and for the least-squares solver, which stays real).
    negative_count / min_pixel: nonnegativity report, taken before clamping.
    """

    pixels: np.ndarray
    residual: float
    imag_leakage: float
    negative_count: int
    min_pixel: float


def _truncated_lstsq(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > TRUNCATION_RTOL * s[0] if s.size else np.zeros(0, dtype=bool)
    if not keep.any():
        raise SingularSystemError("every singular value fell below the truncation floor")
    coeff = (u[:, keep].conj().T @ rhs) / (s[keep] if rhs.ndim == 1 else s[keep, None])
    return vt[keep].conj().T @ coeff


def solve(
    system: LinearSystem,
    rhs: np.ndarray,
    method: str,
    methods: tuple[str, str, str],
    clamp_negative: bool = False,
) -> Solution:
    """Solve A x = rhs with one of a domain's method names.

    rhs is one vector (n,) or a block (n, t) of t vectors sharing the matrix,
    row i observed at system.obs_index[i]. For a block, pixels is (K*L, t),
    and residual, imag_leakage, negative_count and min_pixel summarize the
    whole block (residual takes the Frobenius norm).

    methods names the domain's three solvers in this order: LU (square
    systems only), least squares (numpy's LAPACK gelsd, singular values
    below machine epsilon of the largest discarded; a complex A is stacked
    as [Re; Im] so the solution stays real) and truncated SVD (singular
    values below TRUNCATION_RTOL of the largest discarded).

    Raises:
        ParameterError: method is not in methods, A or y holds NaN or Inf, or
            the solution or its residual does (finite values that overflow
            the solve).
        ShapeError: rhs does not have one row per observation, or LU asked of
            a non-square system.
        SingularSystemError: LU found the matrix singular, an SVD did not
            converge, or every singular value fell below the truncation floor.
    """
    if method not in methods:
        raise ParameterError(f"unknown method {method!r}, expected one of {methods}")
    a = system.a_matrix
    rhs = np.asarray(rhs)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != a.shape[0]:
        raise ShapeError(f"right-hand side {rhs.shape} does not match {a.shape[0]} observations")
    if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
        raise ParameterError("system matrix or right-hand side holds NaN or Inf")
    kind = methods.index(method)
    if kind == 0 and a.shape[0] != a.shape[1]:
        raise ShapeError(
            f"{method} needs a square system, got {a.shape}; "
            f"use {methods[1]} for extra observations"
        )
    try:
        # overflow leaves NaN or Inf in z, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            if kind == 0:
                z = np.linalg.solve(a, rhs)
            elif kind == 1:
                a_ls, y_ls = a, rhs
                if np.iscomplexobj(a):
                    a_ls, y_ls = np.vstack([a.real, a.imag]), np.concatenate([rhs.real, rhs.imag])
                z = np.linalg.lstsq(a_ls, y_ls, rcond=np.finfo(float).eps)[0]
            else:
                z = _truncated_lstsq(a, rhs)
    except np.linalg.LinAlgError as exc:
        label = ("direct", "least-squares", "truncated")[kind]
        raise SingularSystemError(
            f"{label} solve failed: {exc}", condition=system.condition_estimate
        ) from exc
    if not np.isfinite(z).all():
        raise ParameterError("solution holds NaN or Inf: the observations overflow the solve")
    scale = float(np.abs(z).max()) if z.size else 0.0
    leakage = float(np.abs(z.imag).max() / scale) if scale > 0 else 0.0
    x = z.real.copy()
    negative_count = int(np.count_nonzero(x < 0))
    min_pixel = float(x.min()) if x.size else 0.0
    if clamp_negative:
        x = np.maximum(x, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite residual is refused
        residual = float(np.linalg.norm(a @ x - rhs)) / system.roi.pixel_count
    if not np.isfinite(residual):
        raise ParameterError("residual overflows float64: the observations overflow the solve")
    return Solution(
        pixels=x,
        residual=residual,
        imag_leakage=leakage,
        negative_count=negative_count,
        min_pixel=min_pixel,
    )
