"""One benchmark process: set up, then run one workload as a closed loop.

Started by run.py, never by hand.  It prints ``READY`` once set-up is done
(imports, references, inputs, warm-up), so the parent can time set-up from
the spawn, then ``KERNEL_NS <mean>`` from calibration-kernel runs that
rescale that time to the reference speed (speed.py), and at the end one JSON
line with the raw results.  ``--setup-only`` stops after ``KERNEL_NS``.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: fixed memory for op durations whatever the throughput (Algorithm R beyond it)
RESERVOIR = 1 << 17
#: a traced pass keeps every span in memory, so it replays at most this many rounds
TRACE_MAX_ROUNDS = 64
#: kernel runs right after set-up, whose mean rescales the set-up time
SETUP_KERNEL_RUNS = 100


class Reservoir:
    """Uniform sample of at most `size` durations out of `seen`."""

    def __init__(self, size: int):
        self.size, self.seen, self.items = size, 0, []
        self._rng = random.Random(0)

    def add(self, x: int) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(x)
        else:
            j = self._rng.randrange(self.seen)
            if j < self.size:
                self.items[j] = x


class Tally:
    """Timed-op bookkeeping for one pass; op times are kept at the reference
    speed of speed.py."""

    def __init__(self):
        from speed import SpeedGauge  # not at the top: import.fracorder_s times numpy's import

        self.attempted = self.failed = self.unexpected = 0
        self.unexpected_labels: Counter = Counter()
        self.wall_ns = 0  # as timed
        self.scaled_ns = 0.0  # at the reference speed
        self.durations = Reservoir(RESERVOIR)
        self.gauge = SpeedGauge()
        self.rows_written = self.bytes_written = 0

    def add(self, elapsed: int) -> None:
        self.wall_ns += elapsed
        self._keep(self.gauge.add(elapsed))

    def finish(self) -> None:
        self._keep(self.gauge.close())

    def _keep(self, scaled: list[float]) -> None:
        for ns in scaled:
            self.scaled_ns += ns
            self.durations.add(ns)


def run_op(workload, op, tally: Tally, count_output: bool = False) -> None:
    start = time.perf_counter_ns()
    try:
        value = op.run()
        raised = False
    except Exception as exc:  # a failed operation is data, the loop goes on
        value, raised = exc, True
    elapsed = time.perf_counter_ns() - start
    try:
        ok = not raised and op.check(value)
    except (ValueError, IndexError, StopIteration, OSError):  # malformed output
        ok = False
    tally.attempted += 1
    tally.add(elapsed)
    if not ok:
        tally.failed += 1
        if not workload.is_known_defect(op):
            tally.unexpected += 1
            tally.unexpected_labels[f"{op.label}: {value!r}"[:200]] += 1
    if count_output and op.out_path is not None and op.out_path.exists():
        data = op.out_path.read_bytes()
        tally.rows_written += data.count(b"\n")
        tally.bytes_written += len(data)


def run_rounds(workload, rounds_source, seconds: float, tally: Tally, keep=None,
               max_rounds=None, count_output=False) -> int:
    """Whole rounds, starting another only while it should end within `seconds`.

    Appends the rounds run to `keep` when given (a traced run replays them);
    an untraced run keeps none, so its memory does not grow with throughput.
    """
    count = 0
    start = time.perf_counter()
    longest = 0.0
    for ops in rounds_source:
        began = time.perf_counter()
        for op in ops:
            run_op(workload, op, tally, count_output)
        count += 1
        if keep is not None:
            keep.append(ops)
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - start + longest > seconds or count == max_rounds:
            break
    tally.finish()
    return count


def endless(workload):
    while True:
        yield workload.round()


#: beyond this, ratio-table's tail lies within the jitter of its single slowest call
TAIL_CAP_PERCENTILE = 99.0


def timings(tally: Tally) -> dict:
    """Throughput, median and tail of the op times at the reference speed.

    The tail is the highest percentile that still has at least 10 samples
    beyond it, 100 (n - 10) / n, capped at p99 and never below the median
    (runs of fewer than 20 operations).
    """
    import numpy as np

    n = tally.durations.seen
    pct = min(TAIL_CAP_PERCENTILE, max(50.0, 100.0 * (n - 10) / n))
    xs = np.sort(np.asarray(tally.durations.items, dtype=np.float64))
    rank = min(len(xs), max(1, round(pct / 100.0 * len(xs))))
    factors = tally.gauge.factors
    return {
        "ops_per_s": n / (tally.scaled_ns / 1e9),
        "op_ms_p50": float(np.median(xs)) / 1e6,
        "op_ms_tail": float(xs[rank - 1]) / 1e6,
        "wall_ops_per_s": n / (tally.wall_ns / 1e9),
        "speed_factor": {"chunks": len(factors), "min": min(factors),
                         "median": float(np.median(factors)), "max": max(factors)},
        "tail_percentile": pct,
        "samples": n,
        "samples_beyond_tail": n - round(pct / 100.0 * n),
        "reservoir": len(xs),
    }


def run_record(workload_mod) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "order_pool_threads": int(os.environ.get("FRACORDER_THREADS") or os.cpu_count() or 1),
        "warmup": workload_mod.WARMUP_POLICY,
        "load": "1 process, 1 client, closed loop",
    }


def tally_summary(*tallies: Tally) -> dict:
    labels = sum((t.unexpected_labels for t in tallies), Counter())
    return {
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "unexpected": sum(t.unexpected for t in tallies),
        "unexpected_labels": dict(labels.most_common(10)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t_import = time.perf_counter()
    import fracorder

    t_fracorder = time.perf_counter()
    scipy_integrate_loaded = "scipy.integrate" in sys.modules
    if args.trace or args.workload == "cli":
        import fracorder.cli  # noqa: F401
    t_cli = time.perf_counter()
    if Path(fracorder.__file__).resolve().parent != ROOT / "src" / "fracorder":
        print(f"fracorder imported from {fracorder.__file__}, not from this checkout",
              file=sys.stderr)
        return 3

    import speed
    import workloads

    work_dir = ROOT / ".bench_work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.Workload(args.workload, args.seed, workloads.load_refs(), work_dir)
        workload.warmup()
        print("READY", flush=True)
        print(f"KERNEL_NS {speed.mean_kernel_ns(SETUP_KERNEL_RUNS)}", flush=True)
        if args.setup_only:
            return 0

        result = {"run": run_record(workloads)}
        if not args.trace:
            tally = Tally()
            rounds = run_rounds(workload, endless(workload), args.seconds, tally)
            result.update(tally_summary(tally), rounds=rounds)
            result.update(timings(tally))
        else:
            from spans import Tracer

            plain = Tally()
            rounds = []
            run_rounds(workload, endless(workload), args.seconds / 2, plain, keep=rounds,
                       max_rounds=TRACE_MAX_ROUNDS)
            tracer = Tracer()
            tracer.install()
            traced = Tally()
            try:
                run_rounds(workload, rounds, float("inf"), traced, count_output=True)
            finally:
                tracer.uninstall()
            per_layer = tracer.metrics()
            per_layer.update({
                "cli.rows_written": traced.rows_written,
                "cli.bytes_written": traced.bytes_written,
                "import.fracorder_s": t_fracorder - t_import,
                "import.cli_s": t_cli - t_fracorder,
                "import.scipy_integrate_loaded": int(scipy_integrate_loaded),
                "trace.overhead_frac": traced.scaled_ns / plain.scaled_ns - 1.0,
            })
            result.update(tally_summary(plain, traced), rounds=len(rounds), per_layer=per_layer)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another worker's directory is still there
            pass


if __name__ == "__main__":
    sys.exit(main())
