"""The names the bench tracer wraps (bench/spans.py) exist in fracorder, and
the error functionals take the keywords the workloads (bench/workloads.py)
pass.

``Tracer.install`` replaces module attributes by name, so a renamed or
deleted function would only show when a traced benchmark run fails; so
would a removed keyword, in every run.  The module is run from its source,
without installing the tracer and without writing bytecode next to it.
"""

import inspect
import types
from pathlib import Path

import pytest

import fracorder.cli
from fracorder import analysis, funcat, norms, operators, specfun

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module,names",
    [(specfun, spans._SPECFUN), (operators, spans._OPERATORS), (analysis, spans._ANALYSIS)],
    ids=["specfun", "operators", "analysis"],
)
def test_wrapped_module_functions_resolve(module, names):
    assert [name for name in names if not callable(getattr(module, name, None))] == []


@pytest.mark.parametrize(
    "owner,name",
    [
        (funcat, "closed_form_fractional"),
        (norms, "error_l1"),
        (norms, "error_linf"),
        (norms, "error_sweep"),
        (fracorder.cli, "main"),
    ],
)
def test_wrapped_entry_points_resolve(owner, name):
    assert callable(getattr(owner, name, None))


@pytest.mark.parametrize(
    "function,keyword,value",
    [(norms.error_linf, "n_grid", 2001), (norms.error_l1, "tol", 1e-4)],
    ids=["error_linf-n_grid", "error_l1-tol"],
)
def test_workload_keywords_are_accepted(function, keyword, value):
    # the linf-grid workload scans 2001 points (16 in its warm-up), and the
    # l1-adaptive warm-up asks for tol 1e-4
    inspect.signature(function).bind(None, None, 0.1, None, **{keyword: value})
