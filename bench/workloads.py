"""The four workloads: their operations, their seeded rounds and their checks.

A workload is an endless sequence of rounds.  Every round has the same mix of
cases, so a run of whole rounds always has the same composition, and the
same cost whatever the seed.  Where a case's cost depends on its parameters
(l1-adaptive, ratio-table, cli) a round takes every stored parameter of it;
where it does not (linf-grid) the seed picks which stored betas a round
takes.  The seed also shuffles the operations within each round.  Each
operation is checked against its stored reference right after it returns,
outside the timed region.
"""

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = ("linf-grid", "l1-adaptive", "ratio-table", "cli")

# |value - ref| <= atol + rtol |ref|; an infinite reference needs that same infinity.
TOLERANCES = {
    "linf-grid": {
        "atol": 2e-9,
        "rtol": 0.0,
        "reason": "the seed's 4096-node product quadrature lands within 5.3e-10 of the exact "
        "sup norm of cos, and the whole-grid prototype within 4.6e-10 of a 65536-node "
        "reference; 3.8e-9, the size of the known Power-CF quadrature-fallback error at "
        "alpha 0.99, is rejected",
    },
    "l1-adaptive": {
        "atol": 5e-8,
        "rtol": 0.0,
        "reason": "error_l1 asks QUADPACK for 1e-8 absolute, whose estimate is not a bound: "
        "the seed is off by 1.46e-8 on abs:1/C at beta 0.1 and by at most 8.3e-10 elsewhere",
    },
    "ratio-table": {
        "atol": 0.0,
        "rtol": 1e-8,
        "reason": "Gamma(m+1+beta) - Gamma(m+1) T^beta and ln Gamma differences cancel to "
        "O(beta): the seed is within 1.9e-9 relative at beta down to 1e-6; t* bisects to 1e-10",
    },
    "cli": {
        "atol": 1e-8,
        "rtol": 1e-9,
        "reason": "figures: the seed's pointwise 4096-node quadrature of cos is off by up to "
        "4.3e-9 at t = 1; table1 prints 10 significant digits (5e-10 relative); order rows "
        "use the l1-adaptive tolerance",
    },
}

# Operations that fail at the seed by a documented defect.  They stay in the
# workload and count in `failed`; only a failure outside this set makes the
# run incorrect.
KNOWN_DEFECTS = {
    ("linf-grid", "affine:1,1/RL"): "the true sup-norm error is inf (RL with f(a) != 0), "
    "the seed returns a finite, grid-dependent number",
}

#: error_linf grid points, a tenth of norms.DEFAULT_GRID, so that a round
#: takes under a second and a run holds tens of whole rounds
LINF_GRID = 2001

#: figures points per call; the stored references have a multiple of this many
FIGURE_POINTS = 100

WARMUP_POLICY = (
    "before timing, one untimed call of every case kind at reduced size "
    "(linf: n_grid 16; l1: beta 0.1, tol 1e-4; ratio: one call per function; "
    "cli: table1 and a 2-point figures)"
)


@dataclass
class Op:
    """One timed call, its label, and the check of its result."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    out_path: Path | None = None  # CLI operations write here


def load_refs() -> dict:
    return json.loads((BENCH_DIR / "refs.json").read_text())


def within(value: float, ref: float, atol: float, rtol: float) -> bool:
    if math.isinf(ref) or math.isnan(value):
        return value == ref
    return abs(value - ref) <= atol + rtol * abs(ref)


class Workload:
    """Builds the rounds of one workload from a seed."""

    def __init__(self, name: str, seed: int, refs: dict, work_dir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.refs = refs
        self.work_dir = work_dir
        self.tol = TOLERANCES[name]
        self.rounds_made = 0
        self._offsets: dict[tuple, int] = {}
        self._make_round = {
            "linf-grid": self._linf_round,
            "l1-adaptive": self._l1_round,
            "ratio-table": self._ratio_round,
            "cli": self._cli_round,
        }[name]

    def is_known_defect(self, op: Op) -> bool:
        return (self.name, op.label) in KNOWN_DEFECTS

    def round(self) -> list[Op]:
        ops = self._make_round()
        self.rng.shuffle(ops)
        self.rounds_made += 1
        return ops

    def _rotate(self, case, entries, k=1):
        """k of the case's pool entries in turn, from a seeded start: every
        beta equally often over the rounds, whatever the seed."""
        if case not in self._offsets:
            self._offsets[case] = self.rng.randrange(len(entries))
        first = self._offsets[case] + k * self.rounds_made
        return [entries[(first + i) % len(entries)] for i in range(k)]

    def _ok(self, value, ref):
        return within(value, ref, self.tol["atol"], self.tol["rtol"])

    # -- norms ------------------------------------------------------------------

    def _norm_op(self, entry, norm, **kwargs) -> Op:
        from fracorder import funcat, norms

        f = funcat.parse_function(entry["function"])
        kind = funcat.OperatorKind(entry["kind"])
        interval = funcat.Interval(entry["a"], entry["b"])
        beta, ref = entry["beta"], entry["value"]
        fn_name = "error_linf" if norm == "linf" else "error_l1"
        return Op(
            f"{entry['function']}/{entry['kind']}",
            lambda: getattr(norms, fn_name)(f, kind, beta, interval, **kwargs).value,
            lambda v: self._ok(v, ref),
        )

    def _by_case(self, table):
        cases: dict[tuple, list] = {}
        for entry in self.refs[table]:
            cases.setdefault((entry["function"], entry["kind"]), []).append(entry)
        return cases

    # Each round's mix is chosen so that the median and the tail land inside
    # one case's band of op times, not on the edge between two bands, where
    # a few shifted samples would move them by the gap between the bands.

    def _linf_round(self) -> list[Op]:
        # at LINF_GRID points exp/CF, abs:1/C and power:2/C are the cheapest
        # (6-7 ms), then affine:1,1/RL (~11 ms), power:2/CF (~14 ms) and cos
        # (200-300 ms): six operations below affine:1,1/RL and six above put the
        # median in the middle of its four, the tail among cos, and most of
        # the time into cos.  No case's cost depends much on beta, so the
        # seeded choice of betas hardly changes a round's cost.
        draws = {
            ("exp", "CF"): 2, ("abs:1", "C"): 2, ("power:2", "C"): 2,
            ("power:2", "CF"): 4, ("affine:1,1", "RL"): 4, ("cos", "C"): 1, ("cos", "CF"): 1,
        }
        return [
            self._norm_op(entry, "linf", n_grid=LINF_GRID)
            for case, entries in self._by_case("linf").items()
            for entry in self._rotate(case, entries, draws[case])
        ]

    def _l1_round(self) -> list[Op]:
        # every case at every stored beta, since their costs depend on beta
        # (cos/CF takes 37-58 ms): exp/CF, power:2/C and power:2/CF (< 1 ms)
        # take the lowest three sevenths, so the median lands in the middle
        # of abs:1/C (2-3 ms); the tail lands in cos/CF
        return [self._norm_op(e, "l1") for e in self.refs["l1"]]

    def warmup(self) -> None:
        from fracorder import analysis

        if self.name in ("linf-grid", "l1-adaptive"):
            table = "linf" if self.name == "linf-grid" else "l1"
            for entries in self._by_case(table).values():
                entry = dict(entries[0], beta=0.1)
                kwargs = {"n_grid": 16} if table == "linf" else {"tol": 1e-4}
                self._norm_op(entry, table, **kwargs).run()
        elif self.name == "ratio-table":
            p = self.refs["ratio"][0]
            analysis.table1()
            analysis.ratio_limit(p["m"], p["T"])
            analysis.ratio_cf_over_c_l1(p["m"], p["T"], p["beta"])
            analysis.t_star(p["m"], p["beta"])
            analysis.s_star(p["m"], p["beta"])
        else:
            import fracorder.cli

            out = str(self.work_dir / "warmup.csv")
            fracorder.cli.main(["table1", "--out", out])
            fracorder.cli.main(["figures", "-f", "cos", "--interval", "0,1", "--points", "2",
                                "--out", out])

    # -- analysis ---------------------------------------------------------------

    def _ratio_round(self) -> list[Op]:
        # every (m, T, beta) triple of the pool, because t_star's cost depends
        # on the triple (130-360 us).  Each triple runs the four functions and
        # table1: the median lands in the middle of the ratio_cf_over_c_l1
        # calls (~10 us) and the tail among the slowest t_star calls
        from fracorder import analysis

        ops = []
        for p in self.refs["ratio"]:
            m, T, beta = p["m"], p["T"], p["beta"]
            calls = [
                ("ratio_limit", lambda m=m, T=T: analysis.ratio_limit(m, T).value),
                ("ratio_cf_over_c_l1",
                 lambda m=m, T=T, b=beta: analysis.ratio_cf_over_c_l1(m, T, b).value),
                ("t_star", lambda m=m, b=beta: analysis.t_star(m, b)),
                ("s_star", lambda m=m, b=beta: analysis.s_star(m, b)),
            ]
            for label, run in calls:
                ops.append(Op(label, run, lambda v, r=p[label]: self._ok(v, r)))
            ops.append(Op("table1", lambda: analysis.table1(), self._check_table1_rows))
        return ops

    def _check_table1_rows(self, rows) -> bool:
        refs = self.refs["table1"]
        return len(rows) == len(refs) and all(
            row[0] == ref[0] and all(self._ok(x, r) for x, r in zip(row[1:], ref[1:]))
            for row, ref in zip(rows, refs)
        )

    # -- cli --------------------------------------------------------------------

    def _cli_op(self, label, argv, check) -> Op:
        import fracorder.cli

        out = self.work_dir / f"{label.replace(' ', '_').replace(':', '_')}.csv"
        argv = [*argv, "--out", str(out)]
        return Op(
            label,
            lambda: fracorder.cli.main(argv),
            lambda rc: rc == 0 and check(_read_csv(out)),
            out,
        )

    def _cli_round(self) -> list[Op]:
        # figures cos (~180 ms) twice, order (~40 ms) twice, figures
        # affine:1,1 (~12 ms) four times and table1 (~2 ms) four times: four
        # operations below figures affine:1,1 and four above put the median
        # in the middle of its calls.  Not among the order calls, whose two
        # pool threads also wait on the other CPU, which the speed gauge does
        # not time.  figures runs at FIGURE_POINTS points, so that a run holds
        # enough figures cos calls for the tail to land among them; order
        # sweeps every stored beta, so that it costs the same in every round
        abs_refs = {e["beta"]: e["value"] for e in self.refs["l1"] if e["function"] == "abs:1"}
        betas = sorted(abs_refs, reverse=True)
        figures = ["--interval", "0,1", "--points", str(FIGURE_POINTS)]
        order = ["order", "-f", "abs:1", "-k", "C", "-p", "1", "--interval", "0,2",
                 "--betas", ",".join(repr(b) for b in betas)]
        ops = []
        for _ in range(2):
            ops.append(self._cli_op("figures cos", ["figures", "-f", "cos", *figures],
                                    lambda rows: self._check_figures("cos", rows)))
            ops.append(self._cli_op("order abs:1", order,
                                    lambda rows: self._check_order(rows, betas, abs_refs)))
            for _ in range(2):
                ops.append(self._cli_op("table1", ["table1"], self._check_table1_csv))
                ops.append(self._cli_op(
                    "figures affine:1,1", ["figures", "-f", "affine:1,1", *figures],
                    lambda rows: self._check_figures("affine:1,1", rows)))
        return ops

    def _check_figures(self, function, rows) -> bool:
        ref = self.refs["figures"]
        alphas, stride = ref["alphas"], ref["points"] // FIGURE_POINTS
        n_rows = 1 + 4 * len(alphas) * FIGURE_POINTS
        if rows[0] != ["t", "alpha", "kind", "value"] or len(rows) != n_rows:
            return False
        fprime = (lambda t: -math.sin(t)) if function == "cos" else (lambda t: 1.0)
        it = iter(rows[1:])
        for alpha, per_alpha in zip(alphas, ref[function]):
            for i in range(1, FIGURE_POINTS + 1):
                t = i / FIGURE_POINTS
                rl, c, cf = per_alpha[i * stride - 1]
                for kind, want in (("fprime", fprime(t)), ("RL", rl), ("C", c), ("CF", cf)):
                    t_s, a_s, k_s, v_s = next(it)
                    if float(t_s) != t or float(a_s) != alpha or k_s != kind:
                        return False
                    if not self._ok(float(v_s), want):
                        return False
        return True

    def _check_order(self, rows, betas, abs_refs) -> bool:
        header = ["kind", "beta", "p", "a", "b", "value", "n_eval_points"]
        if rows[0] != header or len(rows) != len(betas) + 3:
            return False
        l1_atol = TOLERANCES["l1-adaptive"]["atol"]
        for row, beta in zip(rows[1:], betas):
            if row[:5] != ["C", repr(beta), "1", "0.0", "2.0"]:
                return False
            if not within(float(row[5]), abs_refs[beta], l1_atol, 0.0):
                return False
        # the fit, redone on the reference values: ln E = r ln beta + ln C
        x = np.log(betas)
        y = np.log([abs_refs[b] for b in betas])
        slope, intercept = np.polyfit(x, y, 1)
        residual = float(np.max(np.abs(y - (slope * x + intercept))))
        if rows[-2] != ["r_hat", "log_c_hat", "residual"]:
            return False
        return all(
            within(float(got), want, 1e-6, 0.0)
            for got, want in zip(rows[-1], (slope, intercept, residual))
        )

    def _check_table1_csv(self, rows) -> bool:
        if rows[0] != ["m", "ratio_T1", "ratio_Tm1"]:
            return False
        return self._check_table1_rows([(int(r[0]), float(r[1]), float(r[2])) for r in rows[1:]])


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))
