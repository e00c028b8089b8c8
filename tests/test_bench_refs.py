"""The bench's stored references hold in the test suite too.

``bench/refs.json`` keeps the L1 and sup-norm values, the ratio values
(``ratio_limit``, ``ratio_cf_over_c_l1``, ``t_star``, ``s_star``) and the
``table1`` rows that a bench run checks each operation against, within the
workload's tolerance in ``bench/workloads.py``.  Computed here directly,
once each, a reference miss shows in the suite and not only in a bench run.
The workloads module is run from its source, without writing bytecode next
to it.
"""

import json
import types
from pathlib import Path

import pytest

from fracorder import (
    Interval,
    OperatorKind,
    error_l1,
    error_linf,
    parse_function,
    ratio_cf_over_c_l1,
    ratio_limit,
    s_star,
    t_star,
    table1,
)

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    path = BENCH_DIR / "workloads.py"
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


workloads = _load_workloads()
REFS = json.loads((BENCH_DIR / "refs.json").read_text())


@pytest.mark.parametrize(
    "table,workload,norm",
    [
        ("l1", "l1-adaptive", lambda *case: error_l1(*case)),
        ("linf", "linf-grid", lambda *case: error_linf(*case, workloads.LINF_GRID)),
    ],
    ids=["l1", "linf"],
)
def test_error_norms_match_the_bench_references(table, workload, norm):
    tol = workloads.TOLERANCES[workload]
    misses = []
    for entry in REFS[table]:
        f = parse_function(entry["function"])
        interval = Interval(entry["a"], entry["b"])
        value = norm(f, OperatorKind(entry["kind"]), entry["beta"], interval).value
        if not workloads.within(value, entry["value"], tol["atol"], tol["rtol"]):
            misses.append((entry["function"], entry["kind"], entry["beta"], value, entry["value"]))
    assert len(REFS[table]) > 0
    assert misses == []


def test_ratios_match_the_bench_references():
    tol = workloads.TOLERANCES["ratio-table"]
    misses = []
    for entry in REFS["ratio"]:
        m, T, beta = entry["m"], entry["T"], entry["beta"]
        values = {
            "ratio_limit": ratio_limit(m, T).value,
            "ratio_cf_over_c_l1": ratio_cf_over_c_l1(m, T, beta).value,
            "t_star": t_star(m, beta),
            "s_star": s_star(m, beta),
        }
        for name, value in values.items():
            if not workloads.within(value, entry[name], tol["atol"], tol["rtol"]):
                misses.append((name, m, T, beta, value, entry[name]))
    assert len(REFS["ratio"]) == 48
    assert misses == []


def test_table1_matches_the_bench_references():
    tol = workloads.TOLERANCES["ratio-table"]
    rows = table1()
    assert [row[0] for row in rows] == [ref[0] for ref in REFS["table1"]]
    for row, ref in zip(rows, REFS["table1"]):
        for value, want in zip(row[1:], ref[1:]):
            assert workloads.within(value, want, tol["atol"], tol["rtol"]), (row, ref)
