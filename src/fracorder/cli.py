"""Command-line front end emitting CSV.

Subcommands: ``derive`` (one operator value), ``figures`` (derivative
curves on a uniform grid), ``error`` (one error-functional value), ``order`` (a
beta sweep plus its power-law fit), ``ratio`` (finite-beta or limit CF/C
ratio) and ``table1`` (the four-row comparison table).

Exit status: 0 on success, 2 for argument errors, 3 for numerical failures;
either failure prints one line to stderr.

``main`` builds its argparse tree on its first call and reuses it for every
later call in the process: parsing leaves the parser as it was (each call
gets a new namespace), help text is laid out when it is printed, and the
defaults are module constants.  Importing the module builds nothing.  An
argument that starts with "-" and a digit or a point, such as the interval
"-1,1", is a value: no option starts so.

``figures`` builds its grid and checks it once, binds C and CF once per
alpha on it (``operators._bind``, as ``operators.evaluate_grid`` does), and
formats each column once per alpha, in one ``map(repr, ...)``
over its values, and writes each grid point's four rows as one string: a
data cell is a float's repr or a kind name, neither of which holds a comma,
a quote or a newline, so csv.writer would quote none of them and the bytes
are those of one writerow per row.  The header, and every other command,
go through csv.writer (``derive`` prints a function id such as
"affine:1,1", which needs its quotes).
"""

import argparse
import csv
import functools
import io
import math
import re
import sys

from . import analysis, norms, operators
from .exceptions import DomainError, NumericalError
from .funcat import (
    Interval,
    OperatorKind,
    _as_order,
    _derivative_toward,
    parse_function,
    rl_boundary_term,
)
from .norms import NormKind


def _fmt(x: float) -> str:
    # repr is the shortest string that round-trips the exact double
    return repr(float(x))


def _cells(column) -> list[str]:
    """_fmt of each value of an array, in one map: a float's repr is _fmt's
    string, and the cast to float64 first keeps an integer array from
    printing 1 where _fmt prints 1.0."""
    return list(map(repr, column.astype(float, copy=False).tolist()))


def _writer(out):
    return csv.writer(out, lineterminator="\n")


def _fmt_sig(x: float, digits: int = 10) -> str:
    """Fixed-point with exactly ``digits`` significant digits (keeps trailing zeros)."""
    if x == 0 or not math.isfinite(x):
        return _fmt(x)
    decimals = digits - 1 - math.floor(math.log10(abs(x)))
    return f"{x:.{max(decimals, 0)}f}"


def _parse_interval(text: str) -> Interval:
    try:
        a, b = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"--interval expects 'a,b', got {text!r}") from exc
    try:
        return Interval(a, b)
    except DomainError as exc:
        raise DomainError(f"--interval: {exc}") from exc


def _parse_kind(text: str) -> OperatorKind:
    try:
        return OperatorKind(text)
    except ValueError as exc:
        raise DomainError(f"--kind must be one of RL, C, CF, got {text!r}") from exc


def _parse_norm(text: str) -> NormKind:
    try:
        return NormKind(text)
    except ValueError as exc:
        raise DomainError(f"-p must be 1 or inf, got {text!r}") from exc


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"{flag} expects a comma list of numbers: {exc}") from exc


def _parse_betas(text: str) -> list[float]:
    if not text.startswith("geometric:"):
        return _parse_floats(text, "--betas")
    try:
        start_s, end_s, per_decade_s = text[len("geometric:"):].split(",")
        start, end, per_decade = float(start_s), float(end_s), int(per_decade_s)
        if not (0 < end < start < 1 and per_decade >= 1):
            raise ValueError("need 0 < end < start < 1 and per_decade >= 1")
    except ValueError as exc:
        raise DomainError(f"--betas expects 'geometric:start,end,per_decade': {exc}") from exc
    decades = math.log10(start / end)
    n = max(1, round(decades * per_decade))
    return [start * 10 ** (-decades * i / n) for i in range(n + 1)]


def _tol_for(p: NormKind, tol: float | None) -> float:
    """The L1 tolerance of --tol, norms.DEFAULT_TOL where it is not given;
    the sup norm takes none, so --tol under -p inf is refused."""
    if p is NormKind.LINF and tol is not None:
        raise DomainError("--tol applies to -p 1 only: the sup norm takes no tolerance")
    return norms.DEFAULT_TOL if tol is None else tol


def _check_point(t: float, interval: Interval, flag: str = "-t") -> None:
    if not (interval.a < t <= interval.b):
        raise DomainError(f"{flag} must lie in ({interval.a}, {interval.b}], got {t}")


def _cmd_derive(args, out) -> None:
    interval = _parse_interval(args.interval)
    f = parse_function(args.function)
    kind = _parse_kind(args.kind)
    if not (0.0 < args.alpha < 1.0):
        raise DomainError(f"-a must lie in (0, 1), got {args.alpha}")
    _check_point(args.t, interval)
    value = operators.evaluate(kind, f, args.alpha, interval.a, args.t)
    writer = _writer(out)
    writer.writerow(["function", "kind", "alpha", "t", "value"])
    writer.writerow([args.function, kind.value, _fmt(args.alpha), _fmt(args.t), _fmt(value)])


def _cmd_figures(args, out) -> None:
    interval = _parse_interval(args.interval)
    f = parse_function(args.function)
    alphas = _parse_floats(args.alphas, "--alphas")
    for alpha in alphas:
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"--alphas entries must lie in (0, 1), got {alpha}")
    if args.points < 2:
        raise DomainError(f"--points must be at least 2, got {args.points}")
    a, b, n = interval.a, interval.b, args.points
    # the grid and the checks of operators.evaluate_grid, once for every alpha
    ts = operators._grid_points(a, b, n)
    operators._check_window(a, float(ts[0]))  # a first point that rounds onto a
    t_cells = _cells(ts)
    fprime_cells = _cells(_derivative_toward(f, ts))
    _writer(out).writerow(["t", "alpha", "kind", "value"])
    for alpha in alphas:
        order = _as_order(alpha)
        caputo = operators._bind(OperatorKind.CAPUTO, f, order, a, b)(ts)
        # the RL identity, as operators.evaluate_grid forms it
        rl = rl_boundary_term(f, alpha, a, ts) + caputo
        cf = operators._bind(OperatorKind.CAPUTO_FABRIZIO, f, order, a, b)(ts)
        alpha_cell = _fmt(alpha)
        # no cell holds a comma, a quote or a newline, so none needs the
        # quoting of csv.writer: a grid point's four rows are one string
        out.write("".join([
            f"{t},{alpha_cell},fprime,{d}\n{t},{alpha_cell},RL,{r}\n"
            f"{t},{alpha_cell},C,{c}\n{t},{alpha_cell},CF,{x}\n"
            for t, d, r, c, x in zip(t_cells, fprime_cells, _cells(rl), _cells(caputo), _cells(cf))
        ]))


def _error_row(report) -> list[str]:
    return [
        report.operator_kind.value,
        _fmt(report.beta),
        report.p.value,
        _fmt(report.interval.a),
        _fmt(report.interval.b),
        _fmt(report.value),
        str(report.n_eval_points),
    ]


_ERROR_HEADER = ["kind", "beta", "p", "a", "b", "value", "n_eval_points"]


def _cmd_error(args, out) -> None:
    interval = _parse_interval(args.interval)
    f = parse_function(args.function)
    kind = _parse_kind(args.kind)
    p = _parse_norm(args.p)
    tol = _tol_for(p, args.tol)
    if not (0.0 < args.beta < 1.0):
        raise DomainError(f"--beta must lie in (0, 1), got {args.beta}")
    if p is NormKind.L1:
        report = norms.error_l1(f, kind, args.beta, interval, tol)
    else:
        report = norms.error_linf(f, kind, args.beta, interval)
    writer = _writer(out)
    writer.writerow(_ERROR_HEADER)
    writer.writerow(_error_row(report))


def _cmd_order(args, out) -> None:
    interval = _parse_interval(args.interval)
    f = parse_function(args.function)
    kind = _parse_kind(args.kind)
    p = _parse_norm(args.p)
    tol = _tol_for(p, args.tol)
    betas = _parse_betas(args.betas)
    if len(betas) < 4:
        raise DomainError(f"--betas must provide at least 4 points, got {len(betas)}")
    reports = norms.error_sweep(f, kind, p, betas, interval, tol=tol)
    fit = analysis.fit_order(reports)
    writer = _writer(out)
    writer.writerow(_ERROR_HEADER)
    for report in reports:
        writer.writerow(_error_row(report))
    writer.writerow(["r_hat", "log_c_hat", "residual"])
    writer.writerow([_fmt(fit.r_hat), _fmt(fit.log_c_hat), _fmt(fit.residual)])


def _cmd_ratio(args, out) -> None:
    if args.beta is None:
        result = analysis.ratio_limit(args.m, args.T)
    else:
        result = analysis.ratio_cf_over_c_l1(args.m, args.T, args.beta)
    writer = _writer(out)
    writer.writerow(["value"])
    writer.writerow([_fmt(result.value)])


def _cmd_table1(args, out) -> None:
    writer = _writer(out)
    writer.writerow(["m", "ratio_T1", "ratio_Tm1"])
    for m, at_one, at_m_minus_1 in analysis.table1():
        writer.writerow([str(m), _fmt_sig(at_one), _fmt_sig(at_m_minus_1)])


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with "-" and then a digit or a point,
    such as the interval "-1,1", as a value: no option starts so.  An
    argument it cannot parse exits 2 with one line, "{prog}: error:
    {message}", without the usage block.  Every subparser is one too
    (add_subparsers makes its parsers of this class)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracorder",
        description="Fractional derivatives, their errors against f', and convergence rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-f", "--function", required=True, help="catalog id, e.g. power:2")
        p.add_argument("--interval", required=True, help="a,b")
        p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    # what every value without a closed form promises
    grid = "; a value without a closed form is within 1e-11, absolute or relative, or refused"
    tol_help = f"L1 tolerance, -p 1 only (default {norms.DEFAULT_TOL})"

    p = sub.add_parser("derive", help="one fractional-derivative value")
    add_common(p)
    p.add_argument("-k", "--kind", required=True, help="RL, C or CF")
    p.add_argument("-a", "--alpha", type=float, required=True)
    p.add_argument("-t", type=float, required=True, dest="t")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("figures", help="pointwise derivative curves as CSV")
    add_common(p)
    p.add_argument("--alphas", default="0.5,0.75,0.9,0.99")
    p.add_argument("--points", type=int, default=500, help=f"points of the uniform grid{grid}")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("error", help="one error-functional value")
    add_common(p)
    p.add_argument("-k", "--kind", required=True)
    p.add_argument("-p", required=True, dest="p", help="1 or inf")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--tol", type=float, default=None, help=tol_help)
    p.set_defaults(func=_cmd_error)

    p = sub.add_parser("order", help="error sweep plus log-log order fit")
    add_common(p)
    p.add_argument("-k", "--kind", required=True)
    p.add_argument("-p", required=True, dest="p")
    p.add_argument("--betas", required=True, help="geometric:start,end,per_decade or a list")
    p.add_argument("--tol", type=float, default=None, help=tol_help)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("ratio", help="CF/C L1 error ratio for t^m on (0, T)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("table1", help="limit ratios for m = 3..6 at T = 1 and T = m-1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # the CSV is held back until the command succeeds, so a failed run
    # leaves no new or truncated --out file
    buffer = io.StringIO()
    try:
        args.func(args, buffer)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(buffer.getvalue())
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(buffer.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
