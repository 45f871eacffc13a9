"""Recover sub-diffraction detail in isolated regions from a single blurred image.

A low-pass imaging system destroys detail below its cutoff, but when the lit
region is isolated and the effective kernel stays positive over it, the blur
is an invertible linear map on that region. This package builds and solves
those systems two ways (image-domain kernel entries, transform-domain partial
spectra) and ships the simulation harness used to characterize them.
"""

from . import pipeline
from .errors import (
    BoundsError,
    DegenerateInputError,
    FileFormatError,
    InconsistentInputError,
    NoSignalError,
    ParameterError,
    RoiSolveError,
    SelectionError,
    ShapeError,
    SingularSystemError,
)
from .forward import observe_spatial
from .grid import RoiSpec, scatter_roi
from .optics import OtfSpec, build_psf

__version__ = "0.1.0"

__all__ = [
    "BoundsError",
    "DegenerateInputError",
    "FileFormatError",
    "InconsistentInputError",
    "NoSignalError",
    "OtfSpec",
    "ParameterError",
    "RoiSolveError",
    "RoiSpec",
    "SelectionError",
    "ShapeError",
    "SingularSystemError",
    "build_psf",
    "observe_spatial",
    "pipeline",
    "scatter_roi",
]
