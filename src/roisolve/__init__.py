"""Recover sub-diffraction detail in isolated regions from a single blurred image.

A low-pass imaging system destroys detail below its cutoff, but when the lit
region is isolated and the effective kernel stays positive over it, the blur
is an invertible linear map on that region. This package builds and solves
those systems two ways (image-domain kernel entries, transform-domain partial
spectra) and ships the simulation harness used to characterize them.
"""

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
from .forward import (
    NoiseSpec,
    add_noise,
    extra_light_ratio,
    image_to_spectrum,
    measure_psnr_db,
    observe_spatial,
    observe_spectrum,
    spectrum_to_image,
)
from .frequency import SpectrumSelection
from .grid import RoiSpec, assert_isolated, centered_roi, scatter_roi, vectorize_roi
from .linear import LinearSystem, Solution
from .optics import OtfSpec, PsfKernel, build_otf, build_psf, effective_psf_positive, passband_mask
from .pipeline import (
    ExperimentReport,
    NoiseSweepReport,
    TrialResult,
    ad_spot_check,
    averaged_difference,
    averaged_error,
    locate_roi,
    make_test_sample,
    noise_sweep,
    run_table_experiment,
    scan_reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsError",
    "DegenerateInputError",
    "ExperimentReport",
    "FileFormatError",
    "InconsistentInputError",
    "LinearSystem",
    "NoSignalError",
    "NoiseSpec",
    "NoiseSweepReport",
    "OtfSpec",
    "ParameterError",
    "PsfKernel",
    "RoiSolveError",
    "RoiSpec",
    "SelectionError",
    "ShapeError",
    "SingularSystemError",
    "Solution",
    "SpectrumSelection",
    "TrialResult",
    "add_noise",
    "ad_spot_check",
    "assert_isolated",
    "averaged_difference",
    "averaged_error",
    "build_otf",
    "build_psf",
    "centered_roi",
    "effective_psf_positive",
    "extra_light_ratio",
    "image_to_spectrum",
    "locate_roi",
    "make_test_sample",
    "measure_psnr_db",
    "noise_sweep",
    "observe_spatial",
    "observe_spectrum",
    "passband_mask",
    "run_table_experiment",
    "scan_reconstruct",
    "scatter_roi",
    "spectrum_to_image",
    "vectorize_roi",
]
