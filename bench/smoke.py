"""Smoke check of the benchmark itself (about a minute):

    python3 bench/smoke.py

* every stored reference loads, with the pool sizes make_refs.py writes;
* the tolerances accept what they are meant to accept and reject known-wrong
  values (a reference shifted past the tolerance, a neighbouring beta's
  value, a finite value where the true error is infinite);
* the speed gauge rescales every operation of a chunk by one factor, and
  keeps kernel time at its share of operation time;
* each workload, run for one second with --trace 0 and --trace 1, emits
  exactly the metrics BENCHMARK.json names, with their units, and is correct;
* without fracorder's sources the command fails and prints no result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import make_refs  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_refs() -> dict:
    refs = workloads.load_refs()
    expect(len(refs["linf"]) == len(make_refs.LINF_CASES) * len(make_refs.LINF_BETAS),
           "linf references load, one per case and beta")
    expect(len(refs["l1"]) == len(make_refs.L1_CASES) * len(make_refs.L1_BETAS),
           "l1 references load, one per case and beta")
    expect(len(refs["ratio"]) == make_refs.RATIO_POOL_SIZE, "ratio references load")
    expect(len(refs["table1"]) == 4, "table1 reference loads")
    for function in ("cos", "affine:1,1"):
        rows = refs["figures"][function]
        expect(len(rows) == len(make_refs.FIGURE_ALPHAS)
               and all(len(r) == make_refs.FIGURE_POINTS for r in rows),
               f"figures references for {function} load")
    values = [e["value"] for e in refs["linf"] + refs["l1"]]
    values += [p[k] for p in refs["ratio"] for k in p]
    infinite = [e for e in refs["linf"] if math.isinf(e["value"])]
    expect(all(e["function"] == "affine:1,1" for e in infinite) and len(infinite) == 4,
           "the only infinite references are affine:1,1 under RL")
    expect(all(math.isfinite(v) or math.isinf(v) for v in values), "no NaN reference")
    return refs


def check_tolerances(refs: dict) -> None:
    within, tol = workloads.within, workloads.TOLERANCES
    lin = tol["linf-grid"]
    cos = [e["value"] for e in refs["linf"] if e["function"] == "cos"]
    expect(all(within(v + 4.6e-10, v, lin["atol"], lin["rtol"]) for v in cos),
           "linf: a value 4.6e-10 off (whole-grid prototype) passes")
    expect(not any(within(v + 3.8e-9, v, lin["atol"], lin["rtol"]) for v in cos),
           "linf: a value 3.8e-9 off (Power-CF fallback error size) fails")
    expect(not within(196157887.88877848, math.inf, lin["atol"], lin["rtol"])
           and within(math.inf, math.inf, lin["atol"], lin["rtol"]),
           "linf: the seed's finite affine:1,1/RL value fails, inf passes")
    l1 = tol["l1-adaptive"]
    by_case: dict = {}
    for e in refs["l1"]:
        by_case.setdefault((e["function"], e["kind"]), []).append(e["value"])
    expect(all(not within(b, a, l1["atol"], l1["rtol"])
               for vs in by_case.values() for a, b in zip(vs, vs[1:])),
           "l1: the neighbouring beta's value fails")
    rt = tol["ratio-table"]
    expect(not any(within(p[k] * (1 + 1e-7), p[k], rt["atol"], rt["rtol"])
                   for p in refs["ratio"] for k in ("t_star", "s_star", "ratio_cf_over_c_l1")),
           "ratio: a value 1e-7 relative off fails")


def check_speed_gauge() -> None:
    gauge = speed.SpeedGauge()
    ops = [3_000_000, 40_000, 900_000_000, 40_000, 250_000_000]
    scaled = [x for ns in ops for x in gauge.add(ns)]
    closed_by_ops = len(gauge.factors)
    scaled += gauge.close()
    expect(closed_by_ops == 1 and len(gauge.factors) == 2 and len(scaled) == len(ops),
           "speed gauge: a chunk closes after a second of wall time, the rest at the end")
    first = 3  # with its kernel runs, the 900 ms operation ends the first chunk
    ratios = [x / ns for x, ns in zip(scaled, ops)]
    expect(all(math.isclose(r, gauge.factors[0]) for r in ratios[:first])
           and all(math.isclose(r, gauge.factors[1]) for r in ratios[first:])
           and all(0.05 < f < 20 for f in gauge.factors),
           "speed gauge: one factor rescales every operation of a chunk")


def run(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the four workloads")
    modes = ((0, "end_to_end", END_TO_END_UNITS), (1, "per_layer", PER_LAYER_UNITS))
    for trace, key, units in modes:
        expect({m["name"]: m["unit"] for m in spec[key]} == units,
               f"BENCHMARK.json {key} matches the names and units run.py emits")
        for workload in workloads.WORKLOADS:
            proc = run(workload, trace, ROOT)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{workload} --trace {trace} prints a result "
                              f"(stderr: {proc.stderr[-300:]})")
                continue
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            keys = {"correct", "attempted", "failed", "metrics"}
            expect(proc.returncode == 0 and set(result) == keys and emitted == units
                   and result["attempted"] >= 1 and result["correct"],
                   f"{workload} --trace {trace}: exit 0, correct, every {key} metric emitted")


def check_without_sources() -> None:
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run("ratio-table", 0, bare)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without src/ the command exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    check_tolerances(check_refs())
    check_speed_gauge()
    check_runs()
    check_without_sources()
    print(f"{len(failures)} failure(s)" if failures else "smoke check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
