"""The shared linear-system core: each domain's method vocabulary and the
solver's input checks."""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from roisolve import frequency, spatial
from roisolve.errors import ParameterError, ShapeError, SingularSystemError
from roisolve.forward import observe_spatial, observe_spectrum
from roisolve.grid import RoiSpec, centered_roi, scatter_roi
from roisolve.linear import Solution, residual
from roisolve.optics import OtfSpec, build_otf
from roisolve.pipeline import DOMAIN_MODULES as MODULES
from roisolve.pipeline import noisy_rhs, roi_problem

ROI = RoiSpec(22, 22, 2, 2)
PIXELS = np.array([120.0, 30.0, 200.0, 80.0])


def _built(domain, small_psf):
    """A square 2x2 system of PIXELS, built by the domain's generator, and
    its observation."""
    ideal = scatter_roi(PIXELS, ROI, 48, 48)
    cells = ROI.cells()
    if domain == "spatial":
        system = spatial.build_system((48, 48), ROI, cells, small_psf)
        return system, observe_spatial(ideal, small_psf)[cells[:, 0], cells[:, 1]]
    spec = small_psf.spec
    spectrum = observe_spectrum(ideal, build_otf(spec))
    idx = cells - cells[0]  # the 2x2 block at the origin
    system = frequency.build_system(spec.shape, ROI, idx, otf_spec=spec)
    return system, spectrum[idx[:, 0], idx[:, 1]]


def test_method_vocabularies_in_solver_order():
    # LU, least squares, truncated: the order the CLI's generic names index
    assert spatial.METHODS == ("direct", "least_squares", "truncated")
    assert frequency.METHODS == ("direct_complex", "stacked_real_lsq", "truncated")


@pytest.mark.parametrize(
    "domain, method", [(d, m) for d, module in MODULES.items() for m in module.METHODS]
)
def test_every_method_solves_and_echoes_its_name(domain, method, small_psf):
    module = MODULES[domain]
    sol = module.solve_system(*_built(domain, small_psf), method)
    assert isinstance(sol, Solution)
    # the caller holds the method name and the system's condition estimate;
    # the solution does not hand them back
    assert {f.name for f in dataclasses.fields(Solution)}.isdisjoint({"method", "condition"})
    assert np.abs(sol.pixels - PIXELS).max() <= 1e-6
    if domain == "spatial" or method == module.METHODS[1]:
        assert sol.imag_leakage == 0.0


@pytest.mark.parametrize(
    "domain, foreign", [("spatial", "direct_complex"), ("frequency", "least_squares")]
)
def test_domain_rejects_the_other_domains_methods(domain, foreign, small_psf):
    with pytest.raises(ParameterError):
        MODULES[domain].solve_system(*_built(domain, small_psf), foreign)


@pytest.mark.parametrize("domain", list(MODULES))
@pytest.mark.parametrize("field", ["a_matrix", "rhs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_rejects_non_finite_systems(domain, field, bad, small_psf):
    system, rhs = _built(domain, small_psf)
    if field == "rhs":
        rhs = rhs.copy()
        rhs[1] = bad
    else:
        values = system.a_matrix.copy()
        values.flat[1] = bad
        system = dataclasses.replace(system, matrix=values)
    for method in MODULES[domain].METHODS:
        with pytest.raises(ParameterError, match="NaN or Inf"):
            MODULES[domain].solve_system(system, rhs, method)


@pytest.mark.parametrize(
    "domain, method", [(d, m) for d, module in MODULES.items() for m in module.METHODS]
)
def test_block_rhs_solves_each_column_as_alone(domain, method, small_psf):
    system, _ = _built(domain, small_psf)
    # the last column solves to two negative pixels, -70 and -20
    truth = np.column_stack([PIXELS, PIXELS[::-1], 0.5 * PIXELS + 3.0, PIXELS - 100.0])
    block = system.a_matrix @ truth
    solve = MODULES[domain].solve_system
    sol = solve(system, block, method)
    assert sol.pixels.shape == truth.shape
    alone = [solve(system, block[:, j], method) for j in range(truth.shape[1])]
    for j, column in enumerate(alone):
        assert np.abs(sol.pixels[:, j] - column.pixels).max() <= 1e-9
    # the report summarizes the whole block, and the unclamped solution
    assert sol.negative_count == sum(column.negative_count for column in alone) == 2
    assert sol.min_pixel == pytest.approx(min(column.min_pixel for column in alone), abs=1e-9)
    assert sol.min_pixel == pytest.approx(-70.0, abs=1e-6)
    clamped = solve(system, block, method, clamp_negative=True)
    assert clamped.pixels.min() == 0.0
    assert ((clamped.negative_count, clamped.min_pixel, clamped.imag_leakage)
            == (sol.negative_count, sol.min_pixel, sol.imag_leakage))
    block[1, 2] = np.nan
    with pytest.raises(ParameterError, match="NaN or Inf"):
        solve(system, block, method)


@pytest.mark.parametrize("domain", list(MODULES))
def test_solve_rejects_a_right_hand_side_of_the_wrong_length(domain, small_psf):
    system, rhs = _built(domain, small_psf)
    for bad in (rhs[:3], rhs[None, :], np.zeros((4, 2, 2))):
        with pytest.raises(ShapeError):
            MODULES[domain].solve_system(system, bad)


@pytest.mark.parametrize("domain", list(MODULES))
@pytest.mark.parametrize("value", [1e307, 1.7e308])
def test_solve_refuses_a_solution_that_overflows(domain, value, small_psf):
    # finite observations whose solution overflows float64: both systems
    # amplify this sign pattern more than 18-fold (about 240 and 9,200), so
    # every solver ends in NaN or Inf, refused with or without clamping
    system, _ = _built(domain, small_psf)
    rhs = value * np.array([1.0, -1.0, -1.0, 1.0])
    for method in MODULES[domain].METHODS:
        for clamp in (False, True):
            with pytest.raises(ParameterError, match="solution holds NaN or Inf"):
                MODULES[domain].solve_system(system, rhs, method, clamp_negative=clamp)


@pytest.mark.parametrize("domain", list(MODULES))
def test_solve_refuses_a_residual_that_overflows(domain, small_psf):
    # the same pattern at 1e300 leaves a finite solution, but the residual's
    # squares overflow float64: the solve takes no residual and returns it,
    # and linear.residual, which recover calls next, refuses rather than
    # reports inf
    system, _ = _built(domain, small_psf)
    rhs = 1e300 * np.array([1.0, -1.0, -1.0, 1.0])
    for method in MODULES[domain].METHODS:
        for clamp in (False, True):
            sol = MODULES[domain].solve_system(system, rhs, method, clamp_negative=clamp)
            assert np.isfinite(sol.pixels).all()
            with pytest.raises(ParameterError, match="residual overflows"):
                residual(system, sol.pixels, rhs)


@pytest.mark.parametrize("domain", list(MODULES))
def test_a_truncated_svd_that_does_not_converge_is_a_singular_system(domain, small_psf,
                                                                     monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    system, rhs = _built(domain, small_psf)
    with pytest.raises(SingularSystemError, match="truncated solve failed: SVD did not converge"):
        MODULES[domain].solve_system(system, rhs, "truncated")


@pytest.mark.parametrize("domain", list(MODULES))
@pytest.mark.parametrize(
    "roi", [centered_roi(768, 768, 3, 3), RoiSpec(128, 301, 2, 2), RoiSpec(517, 140, 3, 3)]
)
def test_least_squares_is_scipy_gelsd_bit_for_bit(domain, roi):
    # the ring-2 systems of the benchmark's noise (centred 3x3) and recover
    # (2x2 and 3x3) ops on its 768x768 field at cutoff 6 and crop 501, each
    # with one vector and one block of observations; kept at these sizes
    # because with more than one BLAS thread numpy's and scipy's OpenBLAS
    # builds part in the last bits from about 400 unknowns up
    scipy_linalg = pytest.importorskip("scipy.linalg")
    module = MODULES[domain]
    size, spec = roi.k_rows, OtfSpec(768, 768, 6.0)
    system = roi_problem(domain, roi, spec.shape, module.simulated_blur(spec, size, size, 2, 501), 2)
    pixels = np.random.default_rng(roi.top).integers(1, 256, roi.pixel_count).astype(float)
    rows = noisy_rhs(module.NoiselessRows(system), pixels, 7, [40.0, 120.0, 250.0, math.inf])
    a = system.a_matrix
    for rhs in (*rows, rows.T):
        a_ls, y_ls = a, rhs
        if np.iscomplexobj(a):
            a_ls, y_ls = np.vstack([a.real, a.imag]), np.concatenate([rhs.real, rhs.imag])
        expected = scipy_linalg.lstsq(a_ls, y_ls, lapack_driver="gelsd")[0]
        assert np.array_equal(module.solve_system(system, rhs, module.METHODS[1]).pixels, expected)


@pytest.mark.parametrize("domain", list(MODULES))
def test_builders_allocate_little_beyond_the_matrix(domain):
    # a 30x30 region's system on the benchmark's field, at a cutoff whose
    # passband holds the whole 30x30 spectrum block (its corner at
    # hypot(29, 29) = 41.01): the build's traced peak stays within 10% of
    # the matrix itself (no per-entry scratch)
    module, size, spec = MODULES[domain], 30, OtfSpec(768, 768, 42.0)
    roi = centered_roi(768, 768, size, size)
    blur = module.simulated_blur(spec, size, size, 0, 501)
    obs_index = module.observation_index(roi, spec.shape, 0)
    tracemalloc.start()
    try:
        system = module.build_system(spec.shape, roi, obs_index, blur, estimate_condition=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.a_matrix.shape == (size * size, size * size)
    assert peak <= 1.1 * system.a_matrix.nbytes


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def test_factored_routes_leave_their_inputs_alone():
    # scan's system: a 3x3 tile on its 300x300 sample, row-major at ring 0,
    # so apply reshapes its product and solve reshapes the rhs it is given
    spec = OtfSpec(300, 300, 6.0)
    roi = RoiSpec(0, 0, 3, 3)
    blur = frequency.simulated_blur(spec, 3, 3, 0, 0)
    system = roi_problem("frequency", roi, spec.shape, blur, 0)
    factors = system.factors
    assert factors.row_major and system.matrix is None
    gather = factors._replace(row_major=False)
    x = np.random.default_rng(3).uniform(0, 256, (roi.pixel_count, 6))
    for v in (x, x[:, 0], x[:, 2], x.T.copy().T):
        kept = v.copy()
        assert _same_bits(factors.apply(v), gather.apply(v))
        assert _same_bits(v, kept)
    rhs = system @ x
    # complex and real; a block, strided columns and a strided block
    for y in (rhs, rhs[:, 0], rhs[:, 3], rhs[:, ::2], rhs.real.copy(), rhs.real[:, 1]):
        kept = y.copy()
        z = factors.solve(y)
        assert _same_bits(y, kept) and not np.shares_memory(z, y)
        assert _same_bits(z, gather.solve(y))
        assert _same_bits(z, factors.solve(np.array(y, dtype=complex)))
        for method in frequency.METHODS:
            frequency.solve_system(system, y, method)
            assert _same_bits(y, kept)


@pytest.mark.parametrize("field", [(48, 48), (97, 130), (300, 300), (768, 768)])
@pytest.mark.parametrize("gain", [1.0, 0.7, 0.5, 2.5, -1.0])
def test_dividing_in_place_is_numpys_complex_division(field, gain):
    # the factored solve divides its result by gain/(R*C) in place: the same
    # ufunc as x / scale, so every bit and every signed zero stays
    scale = gain / (field[0] * field[1])
    rng = np.random.default_rng(field[1])
    parts = np.concatenate([rng.standard_normal(64) * 10.0 ** rng.integers(-300, 300, 64),
                            [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e-300]])
    x = rng.choice(parts, 400) + 1j * rng.choice(parts, 400)
    x = np.concatenate([x, [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]])
    with np.errstate(over="ignore", invalid="ignore"):
        want = x / scale
        got = np.divide(x, scale, out=x)
    assert got is x and _same_bits(got, want)


# ---------------------------------------------------------------------------
# what a system derives from its arrays once: a_matrix, the finiteness
# verdicts and the matrix least squares solves

def _solved(domain, small_psf):
    """A built system and its observation, solved once by every method so
    each verdict and derived matrix is cached."""
    system, rhs = _built(domain, small_psf)
    for method in MODULES[domain].METHODS:
        MODULES[domain].solve_system(system, rhs, method)
    return system, rhs


@pytest.mark.parametrize("domain", list(MODULES))
def test_a_built_systems_arrays_are_read_only(domain, small_psf):
    system, _ = _solved(domain, small_psf)
    held = [system.a_matrix]
    if system.matrix is not None:
        held.append(system.matrix)
    if system.factors is not None:
        held += [system.factors.f_u, system.factors.f_v, system.lsq_matrix]
    for array in held:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = np.nan


@pytest.mark.parametrize("domain, part", [
    ("spatial", "matrix"), ("frequency", "matrix"), ("frequency", "f_u"), ("frequency", "f_v"),
])
def test_a_solved_systems_verdicts_do_not_reach_a_replaced_one(domain, part, small_psf):
    system, rhs = _solved(domain, small_psf)
    if part == "matrix":
        values = system.a_matrix.copy()
        values.flat[1] = np.nan
        broken = dataclasses.replace(system, matrix=values)
    else:
        bad = getattr(system.factors, part).copy()
        bad.flat[1] = np.nan
        broken = dataclasses.replace(system, factors=system.factors._replace(**{part: bad}))
    for method in MODULES[domain].METHODS:
        with pytest.raises(ParameterError, match="NaN or Inf"):
            MODULES[domain].solve_system(broken, rhs, method)
        # the solved system keeps its own verdict
        MODULES[domain].solve_system(system, rhs, method)


@pytest.mark.parametrize("domain", list(MODULES))
def test_a_solved_system_is_freed_without_the_cycle_collector(domain, small_psf):
    # nothing a system caches refers back to it, so dropping the last
    # reference frees it (and its matrix) at once
    system, _ = _solved(domain, small_psf)
    ref = weakref.ref(system)
    gc.disable()
    try:
        del system
        assert ref() is None
    finally:
        gc.enable()

