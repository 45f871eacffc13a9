"""The benchmark tracer (bench/spans.py) wraps roisolve functions by module
attribute and reads some of their parameters and results. These tests load
it by path and check that roisolve still offers what it relies on."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from roisolve import cli, frequency, pipeline, spatial

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function(name):
    module, fn = name.split(".")
    return getattr(importlib.import_module(f"roisolve.{module}"), fn)


def test_every_traced_layer_is_a_roisolve_callable(spans):
    for module, fn, _ in spans.LAYERS:
        assert callable(_function(f"{module}.{fn}")), f"{module}.{fn}"


def test_after_hooks_find_their_parameters(spans):
    needs = {
        **{name: "estimate_condition" for name in spans.SYSTEM_BUILDS},
        **{name: "method" for name in spans.SOLVER_METHODS},
        **{name: "path" for name in spans.FILE_LAYERS},
    }
    assert set(needs) <= set(spans.AFTER)
    for name, param in needs.items():
        assert param in inspect.signature(_function(name)).parameters, name


def test_traced_method_names_are_the_domain_vocabularies(spans):
    assert spans.SOLVER_METHODS["spatial.solve_system"] == spatial.METHODS
    assert spans.SOLVER_METHODS["frequency.solve_system"] == frequency.METHODS


def test_traced_table_run_counts_its_solves(spans, tmp_path):
    original = spatial.solve_system
    tracer = spans.Tracer()
    with tracer.installed():
        rc = cli.main(
            [
                "table", "--domain", "spatial", "--sizes", "2", "--trials", "1",
                "--field", "48x48", "--cutoff", "10", "--psf-crop", "47",
                "--out", str(tmp_path),
            ]
        )
    assert rc == 0
    assert tracer.counts["spatial.solve_system.calls.direct"] >= 1
    assert tracer.counts["spatial.build_system.matrix_entries"] == 16
    assert spatial.solve_system is original


@pytest.mark.parametrize("domain", pipeline.DOMAINS)
def test_traced_scan_counts_one_solve(spans, tmp_path, domain):
    # every tile is one column of a single solve, made through the module
    # attribute the tracer wraps
    tracer = spans.Tracer()
    with tracer.installed():
        rc = cli.main(
            [
                "scan", "--sample", "24x24", "--tile", "3x3", "--domain", domain,
                "--out", str(tmp_path),
            ]
        )
    assert rc == 0
    method = pipeline.DOMAIN_MODULES[domain].METHODS[0]
    assert tracer.counts[f"{domain}.solve_system.calls.{method}"] == 1
