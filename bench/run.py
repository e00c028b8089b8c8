"""fracorder benchmark: one workload, its end-to-end or per-layer metrics.

    python3 bench/run.py --workload linf-grid --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports fracorder from its ``src``.
With ``--trace 0`` it spawns the worker several times to time set-up (fresh
interpreter to first timed operation) and keeps the last worker for a
closed-loop timed run; with ``--trace 1`` one worker runs a plain pass and
then the same operations traced.  It prints a readable report, then as its
last line one JSON object: correct, attempted, failed and the metrics.
The workloads, metrics and references are described in bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.dont_write_bytecode = True  # a run leaves nothing in the checkout

from speed import REFERENCE_KERNEL_NS  # noqa: E402
from workloads import TOLERANCES, WORKLOADS  # noqa: E402

#: fresh interpreters timed for setup_s; the last one also runs the workload
SETUP_SAMPLES = 5
#: the whole command must end within this many seconds
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "specfun.calls": "count",
    "specfun.ml1.calls": "count",
    "specfun.self_s": "s",
    "funcat.closed_form.calls": "count",
    "funcat.closed_form.hit_ratio": "1",
    "funcat.points_sampled": "count",
    "funcat.self_s": "s",
    "operators.calls": "count",
    "operators.quadrature.calls": "count",
    "operators.nodes.computed": "count",
    "operators.call_us.p50": "us",
    "operators.self_s": "s",
    "norms.evals.reported": "count",
    "norms.evals.counted": "count",
    "norms.quad.calls": "count",
    "norms.self_s": "s",
    "analysis.calls": "count",
    "analysis.self_s": "s",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "B",
    "cli.threads": "count",
    "import.fracorder_s": "s",
    "import.cli_s": "s",
    "import.scipy_integrate_loaded": "1",
    "trace.overhead_frac": "1",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        x for x in (str(ROOT / "src"), env.get("PYTHONPATH")) if x
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles fracorder alike
    env["PYTHONHASHSEED"] = "0"  # and every worker hashes alike
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, deadline: float, setup_only: bool) -> tuple[float, float, str]:
    """Start a worker; return its set-up time as timed and at the reference
    speed, and, unless setup_only, its result line."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise BenchError(f"worker did not get ready (exit {proc.wait()})")
        kernel = proc.stdout.readline().split()
        if len(kernel) != 2 or kernel[0] != "KERNEL_NS":
            raise BenchError(f"worker did not calibrate (exit {proc.wait()})")
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
        if code != 0:
            raise BenchError(f"worker exited with {code}")
        scaled_s = setup_s * REFERENCE_KERNEL_NS / float(kernel[1])
        return setup_s, scaled_s, (lines[-1] if lines else "")
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fracorder" / "__init__.py").is_file():
        print(f"error: no fracorder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []  # (as timed, at the reference speed)
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, deadline, setup_only=True)[:2])
        *setup, line = spawn(args, deadline, setup_only=False)
        setups.append(tuple(setup))
        raw = json.loads(line)
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = raw["unexpected"] == 0 and raw["attempted"] > 0
    if args.trace:
        values, units = raw["per_layer"], PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "ops_per_s": raw["ops_per_s"],
            "op_ms.p50": raw["op_ms_p50"],
            "op_ms.tail": raw["op_ms_tail"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}

    report(args, raw, setups, metrics, correct)
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


def report(args, raw, setups, metrics, correct) -> None:
    out = print
    mode = "traced" if args.trace else "untraced"
    out(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  ({mode})")
    out(f"  {raw['attempted']} operations in {raw['rounds']} whole rounds, "
        f"{raw['failed']} failed, {raw['unexpected']} outside the known defects"
        f"  -> correct: {correct}")
    for label, count in raw["unexpected_labels"].items():
        out(f"    unexpected failure x{count}: {label}")
    out(f"  failed_frac  {raw['failed'] / raw['attempted']:.6g} 1")
    for name, m in metrics.items():
        out(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        out(f"  op_ms.tail is p{raw['tail_percentile']:.4g} of {raw['samples']} samples, "
            f"{raw['samples_beyond_tail']} beyond it"
            + (f" (percentiles from a {raw['reservoir']}-sample reservoir)"
               if raw["reservoir"] < raw["samples"] else ""))
        f = raw["speed_factor"]
        out(f"  times are at the reference speed (bench/speed.py): wall times scaled by "
            f"{f['min']:.3f}..{f['max']:.3f} (median {f['median']:.3f}) over {f['chunks']} "
            f"chunks; as timed, ops_per_s {raw['wall_ops_per_s']:.6g}")
        out(f"  setup_s is the median of {len(setups)} fresh interpreters, at the reference "
            "speed: " + ", ".join(f"{x:.3f}" for _, x in setups)
            + "; as timed: " + ", ".join(f"{x:.3f}" for x, _ in setups))
    tol = TOLERANCES[args.workload]
    out(f"  tolerance atol {tol['atol']:g} rtol {tol['rtol']:g}: {tol['reason']}")
    out("  run: " + ", ".join(f"{k}={v}" for k, v in raw["run"].items()))


if __name__ == "__main__":
    sys.exit(main())
