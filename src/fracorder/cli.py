"""Command-line front end emitting CSV.

Subcommands: ``derive`` (one operator value), ``figures`` (derivative
curves on a uniform grid), ``error`` (one error-functional value), ``order`` (a
beta sweep plus its power-law fit), ``ratio`` (finite-beta or limit CF/C
ratio) and ``table1`` (the four-row comparison table).

Exit status: 0 on success, 2 for argument errors, 3 for numerical failures.

``main`` builds its argparse tree on its first call and reuses it for every
later call in the process: parsing leaves the parser as it was (each call
gets a new namespace), help text is laid out when it is printed, and the
defaults are module constants.  Importing the module builds nothing.
"""

import argparse
import csv
import functools
import io
import math
import sys

from . import analysis, norms, operators
from .exceptions import DomainError, NumericalError
from .funcat import Interval, OperatorKind, _derivative_toward, parse_function, rl_boundary_term
from .norms import NormKind

_FIGURE_COLUMNS = ("fprime", "RL", "C", "CF")


def _fmt(x: float) -> str:
    # repr is the shortest string that round-trips the exact double
    return repr(float(x))


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


def _check_point(t: float, interval: Interval, flag: str = "-t") -> None:
    if not (interval.a < t <= interval.b):
        raise DomainError(f"{flag} must lie in ({interval.a}, {interval.b}], got {t}")


def _cmd_derive(args, writer) -> None:
    interval = _parse_interval(args.interval)
    f = parse_function(args.function)
    kind = _parse_kind(args.kind)
    if not (0.0 < args.alpha < 1.0):
        raise DomainError(f"-a must lie in (0, 1), got {args.alpha}")
    _check_point(args.t, interval)
    value = operators.evaluate(kind, f, args.alpha, interval.a, args.t)
    writer.writerow(["function", "kind", "alpha", "t", "value"])
    writer.writerow([args.function, kind.value, _fmt(args.alpha), _fmt(args.t), _fmt(value)])


def _cmd_figures(args, writer) -> None:
    interval = _parse_interval(args.interval)
    f = parse_function(args.function)
    alphas = _parse_floats(args.alphas, "--alphas")
    for alpha in alphas:
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"--alphas entries must lie in (0, 1), got {alpha}")
    if args.points < 2:
        raise DomainError(f"--points must be at least 2, got {args.points}")
    a, b, n = interval.a, interval.b, args.points
    ts = operators._grid_points(a, b, n)
    t_cells = [_fmt(t) for t in ts.tolist()]
    fprime = _derivative_toward(f, ts)
    writer.writerow(["t", "alpha", "kind", "value"])
    for alpha in alphas:
        caputo = operators.evaluate_grid(OperatorKind.CAPUTO, f, alpha, a, b, n)
        columns = {
            "fprime": fprime,
            # the RL identity, as operators.evaluate_grid forms it
            "RL": rl_boundary_term(f, alpha, a, ts) + caputo,
            "C": caputo,
            "CF": operators.evaluate_grid(OperatorKind.CAPUTO_FABRIZIO, f, alpha, a, b, n),
        }
        alpha_cell = _fmt(alpha)
        for i, t_cell in enumerate(t_cells):
            for kind in _FIGURE_COLUMNS:
                writer.writerow([t_cell, alpha_cell, kind, _fmt(columns[kind][i])])


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


def _cmd_error(args, writer) -> None:
    interval = _parse_interval(args.interval)
    f = parse_function(args.function)
    kind = _parse_kind(args.kind)
    p = _parse_norm(args.p)
    if not (0.0 < args.beta < 1.0):
        raise DomainError(f"--beta must lie in (0, 1), got {args.beta}")
    if p is NormKind.L1:
        report = norms.error_l1(f, kind, args.beta, interval, args.tol)
    else:
        report = norms.error_linf(f, kind, args.beta, interval)
    writer.writerow(_ERROR_HEADER)
    writer.writerow(_error_row(report))


def _cmd_order(args, writer) -> None:
    interval = _parse_interval(args.interval)
    f = parse_function(args.function)
    kind = _parse_kind(args.kind)
    p = _parse_norm(args.p)
    betas = _parse_betas(args.betas)
    if len(betas) < 4:
        raise DomainError(f"--betas must provide at least 4 points, got {len(betas)}")
    reports = norms.error_sweep(f, kind, p, betas, interval, tol=args.tol)
    fit = analysis.fit_order(reports)
    writer.writerow(_ERROR_HEADER)
    for report in reports:
        writer.writerow(_error_row(report))
    writer.writerow(["r_hat", "log_c_hat", "residual"])
    writer.writerow([_fmt(fit.r_hat), _fmt(fit.log_c_hat), _fmt(fit.residual)])


def _cmd_ratio(args, writer) -> None:
    if args.beta is None:
        result = analysis.ratio_limit(args.m, args.T)
    else:
        result = analysis.ratio_cf_over_c_l1(args.m, args.T, args.beta)
    writer.writerow(["value"])
    writer.writerow([_fmt(result.value)])


def _cmd_table1(args, writer) -> None:
    writer.writerow(["m", "ratio_T1", "ratio_Tm1"])
    for m, at_one, at_m_minus_1 in analysis.table1():
        writer.writerow([str(m), _fmt_sig(at_one), _fmt_sig(at_m_minus_1)])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--tol", type=float, default=norms.DEFAULT_TOL)
    p.set_defaults(func=_cmd_error)

    p = sub.add_parser("order", help="error sweep plus log-log order fit")
    add_common(p)
    p.add_argument("-k", "--kind", required=True)
    p.add_argument("-p", required=True, dest="p")
    p.add_argument("--betas", required=True, help="geometric:start,end,per_decade or a list")
    p.add_argument("--tol", type=float, default=norms.DEFAULT_TOL)
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
        args.func(args, csv.writer(buffer, lineterminator="\n"))
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
