"""CLI behaviour: CSV shape, round-tripping, exit codes, determinism."""

import csv
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import pytest

from fracorder import (
    caputo,
    gamma,
    parse_function,
    ratio_limit,
)
from fracorder import OperatorKind, cli, norms, operators
from fracorder.cli import main
from fracorder.funcat import _derivative_toward, rl_boundary_term


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestTable1:
    def test_rows_and_digits(self, capsys):
        code, out, err = run_cli(capsys, "table1")
        assert code == 0 and err == ""
        rows = parse_csv(out)
        assert rows[0] == ["m", "ratio_T1", "ratio_Tm1"]
        assert len(rows) == 5
        # ten significant digits, trailing zeros kept
        assert rows[1][0] == "3"
        assert len(rows[1][1].replace(".", "").lstrip("0")) == 10
        for row in rows[1:]:
            m = int(row[0])
            assert float(row[1]) == pytest.approx(ratio_limit(m, 1.0).value, abs=1e-9)
            assert float(row[2]) == pytest.approx(ratio_limit(m, float(m - 1)).value, abs=1e-9)


class TestRatio:
    def test_limit_value(self, capsys):
        code, out, _ = run_cli(capsys, "ratio", "--m", "4", "--T", "1")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["value"]
        assert float(rows[1][0]) == ratio_limit(4, 1.0).value
        assert float(rows[1][0]) == pytest.approx(1.991876242, abs=1e-8)

    def test_finite_beta(self, capsys):
        code, out, _ = run_cli(capsys, "ratio", "--m", "3", "--T", "1", "--beta", "1e-4")
        assert code == 0
        value = float(parse_csv(out)[1][0])
        assert value == pytest.approx(1.5922, abs=1e-2)

    @pytest.mark.parametrize("T", ["1", "2"])
    def test_beta_below_the_rounding_of_m_plus_beta(self, capsys, T):
        # m + 1 + 1e-17 rounds to m + 1, which the ratio must not depend on
        code, out, err = run_cli(capsys, "ratio", "--m", "3", "--T", T, "--beta", "1e-17")
        assert code == 0 and err == ""
        value = float(parse_csv(out)[1][0])
        assert value == pytest.approx(ratio_limit(3, float(T)).value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta", ["1e-320", "5e-324"])
    def test_subnormal_beta_is_a_numerical_error(self, capsys, tmp_path, beta):
        # (1 - beta)/beta overflows: one line that names beta, no --out file
        dest = tmp_path / "x.csv"
        argv = ("ratio", "--m", "3", "--T", "2", "--beta", beta, "--out", str(dest))
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith(f"numerical error: beta={float(beta)!r} is too small")
        assert len(err.strip().splitlines()) == 1
        assert not dest.exists()

    def test_bad_T_is_argument_error(self, capsys):
        code, _, err = run_cli(capsys, "ratio", "--m", "3", "--T", "5")
        assert code == 2
        assert err.strip()
        assert len(err.strip().splitlines()) == 1


class TestError:
    def test_constant_function_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "error", "-f", "affine:0,1", "-k", "C", "-p", "1",
            "--beta", "0.3", "--interval", "0,1",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["kind", "beta", "p", "a", "b", "value", "n_eval_points"]
        kind, beta, p, a, b, value, n = rows[1]
        assert (kind, p) == ("C", "1")
        assert float(beta) == 0.3
        assert (float(a), float(b)) == (0.0, 1.0)
        assert abs(float(value)) <= 1e-10
        assert int(n) >= 1

    def test_linf(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "error", "-f", "power:1", "-k", "C", "-p", "inf",
            "--beta", "0.25", "--interval", "0,1",
        )
        assert code == 0
        assert float(parse_csv(out)[1][5]) == pytest.approx(1.0, abs=1e-12)

    def test_linf_inside_a_narrow_boundary_layer(self, capsys):
        # t^1.5 under CF at beta 1e-4: the error peaks inside a layer about
        # beta wide, where mpmath's golden-section maximum is this value
        code, out, err = run_cli(
            capsys,
            "error", "-f", "power:1.5", "-k", "CF", "-p", "inf",
            "--beta", "1e-4", "--interval", "0,2",
        )
        assert code == 0 and err == ""
        value = float(parse_csv(out)[1][5])
        assert value == pytest.approx(0.008115494524269717, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "name,kind,value,n",
        [
            # |f'(0+)| = 1 is the sup: the scan and a+ alone
            ("exp", "CF", "1.0", "83"),
            # the right limit at 0.5 is the sup: the scan, a+ and two limits
            ("abs:0.5", "C", "1.998759606065766", "79"),
            # an interior peak: the scan, one round of 127 and its vertex, a+
            ("power:2", "C", "0.011209382469429466", "326"),
        ],
    )
    def test_linf_points_scored(self, capsys, name, kind, value, n):
        code, out, err = run_cli(
            capsys,
            "error", "-f", name, "-k", kind, "-p", "inf",
            "--beta", "1e-2", "--interval", "0,2",
        )
        assert code == 0 and err == ""
        assert parse_csv(out)[1][5:] == [value, n]

    @pytest.mark.parametrize("command", ["error", "order"])
    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_tol_must_be_finite(self, capsys, tmp_path, command, tol):
        dest = tmp_path / "x.csv"
        betas = ["--beta", "0.1"] if command == "error" else ["--betas", "0.1,0.05,0.02,0.01"]
        code, out, err = run_cli(
            capsys,
            command, "-f", "cos", "-k", "C", "-p", "1", *betas, "--interval", "0,1",
            "--tol", tol, "--out", str(dest),
        )
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert f"tol must be positive and finite, got {tol}" in err
        assert not dest.exists()

    @pytest.mark.parametrize("command", ["error", "order"])
    @pytest.mark.parametrize("tol", ["1e-10", "inf", "-1"])
    def test_tol_is_refused_under_the_sup_norm(self, capsys, tmp_path, command, tol):
        # the sup norm reads no tolerance: --tol under -p inf is an argument
        # error, whatever its value, and writes no --out file
        dest = tmp_path / "x.csv"
        betas = ["--beta", "0.1"] if command == "error" else ["--betas", "0.1,0.05,0.02,0.01"]
        code, out, err = run_cli(
            capsys,
            command, "-f", "cos", "-k", "C", "-p", "inf", *betas, "--interval", "0,1",
            "--tol", tol, "--out", str(dest),
        )
        assert code == 2 and out == ""
        assert err == "error: --tol applies to -p 1 only: the sup norm takes no tolerance\n"
        assert not dest.exists()

    @pytest.mark.parametrize("command", ["error", "order"])
    def test_tol_not_given_is_the_default(self, capsys, command):
        # without --tol, -p 1 runs at norms.DEFAULT_TOL, byte for byte
        betas = ["--beta", "0.1"] if command == "error" else ["--betas", "0.1,0.05,0.02,0.01"]
        argv = [command, "-f", "abs:1", "-k", "C", "-p", "1", *betas, "--interval", "0,2"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert run_cli(capsys, *argv, "--tol", repr(norms.DEFAULT_TOL)) == (0, out, "")

    def test_linf_rl_unbounded(self, capsys):
        code, out, err = run_cli(
            capsys,
            "error", "-f", "affine:1,1", "-k", "RL", "-p", "inf",
            "--beta", "0.5", "--interval", "0,1",
        )
        assert code == 0 and err == ""
        assert parse_csv(out)[1][5:] == ["inf", "1"]

    def test_linf_unbounded_f_prime_at_a(self, capsys):
        code, out, err = run_cli(
            capsys,
            "error", "-f", "power:0.5", "-k", "C", "-p", "inf",
            "--beta", "0.5", "--interval", "0,1",
        )
        assert code == 0 and err == ""
        assert parse_csv(out)[1][5] == "inf"


class TestDerive:
    def test_value_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "derive", "-f", "power:1", "-k", "C", "-a", "0.5", "--interval", "0,1", "-t", "1",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["function", "kind", "alpha", "t", "value"]
        value = float(rows[1][4])
        assert value == caputo(parse_function("power:1"), 0.5, 0.0, 1.0)
        assert value == pytest.approx(1.0 / gamma(1.5), rel=1e-14, abs=0.0)

    def test_point_outside_interval(self, capsys):
        code, _, err = run_cli(
            capsys,
            "derive", "-f", "exp", "-k", "C", "-a", "0.5", "--interval", "0,1", "-t", "2",
        )
        assert code == 2 and "-t" in err

    def test_bad_kind(self, capsys):
        code, _, err = run_cli(
            capsys,
            "derive", "-f", "exp", "-k", "XX", "-a", "0.5", "--interval", "0,1", "-t", "0.5",
        )
        assert code == 2 and "kind" in err

    def test_bad_function(self, capsys):
        code, _, err = run_cli(
            capsys,
            "derive", "-f", "wat", "-k", "C", "-a", "0.5", "--interval", "0,1", "-t", "0.5",
        )
        assert code == 2 and "wat" in err

    @pytest.mark.parametrize(
        "interval,message",
        [
            # a < b holds, the width overflows: Interval's own reason, no parse hint
            ("-1e308,1e308", "error: --interval: interval requires a < b and a finite width"),
            ("2,1", "error: --interval: interval requires a < b and a finite width"),
            ("x", "error: --interval expects 'a,b', got 'x'"),
        ],
    )
    def test_interval_refusal_says_why(self, capsys, interval, message):
        code, out, err = run_cli(
            capsys, "derive", "-f", "cos", "-k", "C", "-a", "0.5", f"--interval={interval}", "-t", "1",
        )
        assert code == 2 and out == ""
        assert err.startswith(message)
        assert len(err.strip().splitlines()) == 1
        if interval != "x":
            assert "expects" not in err

    def test_past_the_reach_is_right_or_refused(self, capsys, tmp_path):
        # cos under C past its series' reach on (0, 1e6): the point's
        # quadrature would need about 1.6e5 periods of cos resolved, and
        # stops at its evaluation budget instead of printing a wrong value
        # (a 4096-cell product trapezoid printed -6.07 where it is 0.909)
        dest = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys,
            "derive", "-f", "cos", "-k", "C", "-a", "0.5", "--interval", "0,1e6", "-t", "1e6",
            "--out", str(dest),
        )
        assert code == 3 and out == ""
        assert err.startswith("numerical error: ")
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not dest.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["derive", "-f", "cos", "-k", "C", "-a", "0.5", "--interval", "0,1", "-t", "1"],
            ["figures", "-f", "cos", "--interval", "0,1", "--points", "5"],
            ["error", "-f", "cos", "-k", "C", "-p", "inf", "--beta", "0.1", "--interval", "0,1"],
            ["order", "-f", "cos", "-k", "C", "-p", "inf", "--betas", "0.1,0.05,0.02,0.01",
             "--interval", "0,1"],
        ],
    )
    def test_n_nodes_is_not_an_option(self, capsys, argv):
        # every value is a closed form or computed to its own tolerance: no
        # command has cells to count
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n-nodes", "256"])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == ["fracorder: error: unrecognized arguments: --n-nodes 256"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["error", "-f", "cos", "-k", "C", "-p", "inf", "--beta", "0.1", "--interval", "0,1"],
            ["order", "-f", "cos", "-k", "C", "-p", "inf", "--betas", "0.1,0.05,0.02,0.01",
             "--interval", "0,1"],
        ],
    )
    def test_n_grid_is_not_an_option(self, capsys, tmp_path, argv):
        # the sup norm scans its own points, which no caller sets
        dest = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n-grid", "2001", "--out", str(dest)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["fracorder: error: unrecognized arguments: --n-grid 2001"]
        assert not dest.exists()


class TestOrder:
    def test_sweep_and_fit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "order", "-f", "exp", "-k", "CF", "-p", "1",
            "--betas", "geometric:1e-1,1e-3,6", "--interval", "0,1",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0][0] == "kind"
        fit_header = rows.index(["r_hat", "log_c_hat", "residual"])
        assert fit_header == len(rows) - 2
        sweep = rows[1:fit_header]
        assert len(sweep) == 13  # 2 decades * 6 per decade + 1
        betas = [float(r[1]) for r in sweep]
        assert betas[0] == pytest.approx(0.1) and betas[-1] == pytest.approx(1e-3)
        assert all(x > y for x, y in zip(betas, betas[1:]))
        r_hat = float(rows[-1][0])
        assert 0.9 <= r_hat <= 1.05

    def test_explicit_beta_list(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "order", "-f", "power:2", "-k", "C", "-p", "1",
            "--betas", "0.1,0.05,0.02,0.01", "--interval", "0,1",
        )
        assert code == 0
        assert ["r_hat", "log_c_hat", "residual"] in parse_csv(out)

    def test_rl_refusal_is_numerical_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "order", "-f", "affine:0,1", "-k", "RL", "-p", "1",
            "--betas", "geometric:1e-1,1e-3,3", "--interval", "0,1",
        )
        assert code == 3
        assert "decay" in err
        assert len(err.strip().splitlines()) == 1

    def test_unbounded_sup_norm_refuses_the_fit(self, capsys):
        code, _, err = run_cli(
            capsys,
            "order", "-f", "power:0.5", "-k", "C", "-p", "inf",
            "--interval", "0,1", "--betas", "0.1,0.05,0.02,0.01",
        )
        assert code == 3
        assert len(err.strip().splitlines()) == 1

    def test_bad_beta_list(self, capsys):
        code, _, err = run_cli(
            capsys,
            "order", "-f", "power:2", "-k", "C", "-p", "1",
            "--betas", "0.1,0.05,x,0.01", "--interval", "0,1",
        )
        assert code == 2 and "--betas" in err
        assert len(err.strip().splitlines()) == 1


class TestFigures:
    def test_long_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "figures", "-f", "affine:1,1", "--interval", "0,1",
            "--alphas", "0.9,0.99", "--points", "10",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["t", "alpha", "kind", "value"]
        body = rows[1:]
        assert len(body) == 2 * 10 * 4
        kinds = {row[2] for row in body}
        assert kinds == {"fprime", "RL", "C", "CF"}
        # f' of t+1 is 1 everywhere
        assert all(float(r[3]) == 1.0 for r in body if r[2] == "fprime")
        # values re-parse exactly: C of t+1 at the last grid point
        last_c = [r for r in body if r[2] == "C" and float(r[0]) == 1.0 and float(r[1]) == 0.99]
        assert len(last_c) == 1
        assert float(last_c[0][3]) == caputo(parse_function("affine:1,1"), 0.99, 0.0, 1.0)

    @pytest.mark.parametrize("interval", ["0,1", "-1,2"])
    @pytest.mark.parametrize("spec", ["step:0.2,0.6,2", "step:0.1,0.3,1;0.5,0.9,-2"])
    def test_step_cells_against_mpmath(self, capsys, spec, interval):
        # every C and CF cell at 500 points and the default alphas is within
        # 6.8e-16 of 40-digit mpmath of the steps' ramp drops: no further off
        # than the worst of these cells (6.78e-16) where a step's drop took
        # t - hi as (t - lo) - (hi - lo), which rounds both differences
        code, out, _ = run_cli(capsys, "figures", "-f", spec, f"--interval={interval}", "--points", "500")
        assert code == 0
        a = float(interval.split(",")[0])
        f = parse_function(spec)
        worst = 0.0
        with mp.workdps(40):
            for t, alpha, kind, value in parse_csv(out)[1:]:
                if kind not in ("C", "CF"):
                    continue
                # the doubles that the cells print
                t, alpha = mp.mpf(float(t)), mp.mpf(float(alpha))
                beta = 1 - alpha
                exact = 0
                for (lo, hi), q in zip(f.breaks, f.heights):
                    x, y = max(t - max(lo, a), 0), max(t - max(hi, a), 0)
                    if kind == "C":
                        exact += q * (x**beta - y**beta) / mp.gamma(1 + beta)
                    else:
                        exact += q * (mp.exp(-alpha / beta * y) - mp.exp(-alpha / beta * x)) / alpha
                worst = max(worst, float(abs(mp.mpf(value) - exact)))
        assert worst <= 6.8e-16

    def test_fprime_on_a_breakpoint_is_the_left_limit(self, capsys):
        # |t - 1| on (0, 1]: f' = -1 up to b = 1, whose right limit +1 lies
        # outside the interval; likewise at the interior kink of |t - 1/2|
        for name, kink in (("abs:1", "1.0"), ("abs:0.5", "0.5")):
            code, out, _ = run_cli(
                capsys,
                "figures", "-f", name, "--interval", "0,1",
                "--alphas", "0.9", "--points", "10",
            )
            assert code == 0
            rows = parse_csv(out)[1:]
            assert [r[3] for r in rows if r[0] == kink and r[2] == "fprime"] == ["-1.0"]

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "fig.csv"
        code, out, _ = run_cli(
            capsys,
            "figures", "-f", "cos", "--interval", "0,1",
            "--alphas", "0.9", "--points", "5",
            "--out", str(dest),
        )
        assert code == 0 and out == ""
        rows = parse_csv(dest.read_text())
        assert rows[0] == ["t", "alpha", "kind", "value"]
        assert len(rows) == 1 + 5 * 4

    def test_rl_is_boundary_term_plus_caputo(self, capsys):
        f = parse_function("cos")
        code, out, _ = run_cli(
            capsys,
            "figures", "-f", "cos", "--interval", "0,1",
            "--alphas", "0.9", "--points", "3",
        )
        assert code == 0
        cells = {(r[0], r[2]): float(r[3]) for r in parse_csv(out)[1:]}
        rows = sorted({t_s for t_s, _ in cells}, key=float)
        assert len(rows) == 3
        for t_s in rows:
            t, c = float(t_s), cells[t_s, "C"]
            rl = rl_boundary_term(f, 0.9, 0.0, t) + c
            assert abs(cells[t_s, "RL"] - rl) <= math.ulp(rl)
            # every value a closed form, or a quadrature to 1e-11
            assert abs(c - caputo(f, 0.9, 0.0, t)) <= 1e-11 * max(1.0, abs(c))

    def test_grid_past_the_reach_is_its_points(self, capsys):
        # past cos's Caputo reach, about t = 10, each C cell is that point's
        # quadrature, the value derive prints
        code, out, err = run_cli(
            capsys, "figures", "-f", "cos", "--interval", "0,100", "--points", "500",
        )
        assert code == 0 and err == ""
        cells = [r for r in parse_csv(out)[1:] if r[2] == "C"]
        assert len(cells) == 4 * 500
        f = parse_function("cos")
        for t_s, alpha_s, _, value in cells:
            want = caputo(f, float(alpha_s), 0.0, float(t_s))
            assert abs(float(value) - want) <= 1e-11 * max(1.0, abs(want))
        for t_s, alpha_s, _, value in cells[::250]:
            code, out, _ = run_cli(
                capsys, "derive", "-f", "cos", "-k", "C", "-a", alpha_s,
                "--interval", "0,100", "-t", t_s,
            )
            assert code == 0
            assert abs(float(value) - float(parse_csv(out)[1][4])) <= 1e-11

    def test_grid_it_cannot_resolve_is_refused(self, capsys, tmp_path):
        # cos under C past its series' reach on (0, 1e6): the quadrature at
        # t = 1e6 stops at its evaluation budget instead of printing a wrong
        # value (a 4096-cell product trapezoid printed -6.07 there, where the
        # value is 0.909)
        dest = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys,
            "figures", "-f", "cos", "--interval", "0,1e6", "--points", "500", "--out", str(dest),
        )
        assert code == 3 and out == ""
        assert err.startswith("numerical error: ")
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not dest.exists()

    def test_derivative_singular_at_a_is_refused(self, capsys):
        # CF of t^(1/2) at alpha 0.999 has no closed form past t = 700/999,
        # where E_{1,3/2} leaves Kummer's reach, and the quadrature would
        # sample f' = inf at a = 0
        code, out, err = run_cli(
            capsys, "figures", "-f", "power:0.5", "--interval", "0,1", "--alphas", "0.999",
        )
        assert code == 3 and out == ""
        assert "non-finite" in err and "tau = 0.0" in err
        assert len(err.strip().splitlines()) == 1

    def test_bad_alpha_list(self, capsys):
        code, out, err = run_cli(
            capsys, "figures", "-f", "cos", "--interval", "0,1", "--alphas", "0.5,x",
        )
        assert code == 2 and out == ""
        assert "--alphas" in err
        assert len(err.strip().splitlines()) == 1


def _reference_figures(argv):
    """The figures CSV as a per-row writer prints it: csv.writer rows of
    repr(float(x)) cells, one row per (t, alpha, kind)."""
    args = cli._build_parser().parse_args(["figures", *argv])
    interval = cli._parse_interval(args.interval)
    f = parse_function(args.function)
    a, b, n = interval.a, interval.b, args.points
    ts = operators._grid_points(a, b, n)
    fprime = _derivative_toward(f, ts)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["t", "alpha", "kind", "value"])
    for alpha in cli._parse_floats(args.alphas, "--alphas"):
        caputo_grid = operators.evaluate_grid(OperatorKind.CAPUTO, f, alpha, a, b, n)
        columns = {
            "fprime": fprime,
            "RL": rl_boundary_term(f, alpha, a, ts) + caputo_grid,
            "C": caputo_grid,
            "CF": operators.evaluate_grid(OperatorKind.CAPUTO_FABRIZIO, f, alpha, a, b, n),
        }
        for i, t in enumerate(ts.tolist()):
            for kind in ("fprime", "RL", "C", "CF"):
                value = columns[kind][i]
                writer.writerow([repr(float(t)), repr(float(alpha)), kind, repr(float(value))])
    return buffer.getvalue()


class TestFiguresBytes:
    """figures writes each grid point's four rows as one string; the bytes
    are those of the per-row csv.writer."""

    @pytest.mark.parametrize("alphas", [(), ("--alphas", "0.9")], ids=["default", "0.9"])
    @pytest.mark.parametrize("points", [2, 100, 500])
    @pytest.mark.parametrize(
        "name", ["power:2", "power:2.5", "affine:1,1", "exp", "cos", "abs:0.5", "step:0.2,0.6,2"]
    )
    def test_matches_the_per_row_writer(self, capsys, tmp_path, name, points, alphas):
        argv = ["-f", name, "--interval", "0,1", "--points", str(points), *alphas]
        want = _reference_figures(argv)
        code, out, err = run_cli(capsys, "figures", *argv)
        assert code == 0 and err == ""
        assert out == want
        dest = tmp_path / "fig.csv"
        code, out, err = run_cli(capsys, "figures", *argv, "--out", str(dest))
        assert code == 0 and out == "" and err == ""
        assert dest.read_bytes() == want.encode()

    def test_negative_points_and_signed_zeros(self, capsys):
        # t cells below 0 and an f' of -0.0 print as repr does
        argv = ["-f", "affine:-0.0,1", "--interval=-1,1", "--points", "8", "--alphas", "0.5"]
        code, out, _ = run_cli(capsys, "figures", *argv)
        assert code == 0
        assert out == _reference_figures(argv)


class TestGridTooLarge:
    @pytest.mark.parametrize(
        "argv",
        [
            ("figures", "-f", "cos", "--interval", "0,1e308", "--points", "3"),
            ("error", "-f", "cos", "-k", "C", "-p", "inf", "--beta", "0.1",
             "--interval", "0,1e308"),
            # a count numpy refuses before it allocates
            ("figures", "-f", "cos", "--interval", "0,1", "--points", str(10**20)),
        ],
    )
    def test_argument_error_line(self, capsys, tmp_path, argv):
        dest = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv, "--out", str(dest))
        assert [str(w.message) for w in caught] == []
        assert code == 2 and out == ""
        assert err.startswith("error: a grid of ")
        assert len(err.strip().splitlines()) == 1
        assert not dest.exists()


    def test_first_point_on_a_is_refused(self, capsys, tmp_path):
        # (b - a) / 3 is below half an ulp of a = 1, so t_1 rounds onto a
        dest = tmp_path / "x.csv"
        argv = ("figures", "-f", "cos", "--interval", "1,1.0000000000000002", "--points", "3")
        code, out, err = run_cli(capsys, *argv, "--out", str(dest))
        assert code == 2 and out == ""
        assert err.startswith("error: t - a must be positive")
        assert len(err.strip().splitlines()) == 1
        assert not dest.exists()


class TestNegativeValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ("derive", "-f", "cos", "-k", "C", "-a", "0.5", "-t", "0.5"),
            ("error", "-f", "cos", "-k", "C", "-p", "1", "--beta", "0.1"),
            ("figures", "-f", "cos", "--points", "5", "--alphas", "0.5"),
        ],
    )
    def test_interval_with_a_negative_left_end(self, capsys, argv):
        # "-1,1" is read as --interval's value, as "--interval=-1,1" is
        for ends in ("-1,1", "-.5,1"):
            code, joined, _ = run_cli(capsys, *argv, f"--interval={ends}")
            assert code == 0
            code, out, err = run_cli(capsys, *argv, "--interval", ends)
            assert code == 0 and err == ""
            assert out == joined

    def test_negative_beta_is_still_refused(self, capsys):
        code, out, err = run_cli(
            capsys,
            "error", "-f", "cos", "-k", "C", "-p", "1", "--beta", "-0.5", "--interval", "0,1",
        )
        assert code == 2 and out == ""
        assert err == "error: --beta must lie in (0, 1), got -0.5\n"


class TestOutFile:
    def test_argument_error_leaves_no_file(self, capsys, tmp_path):
        dest = tmp_path / "x.csv"
        code, _, _ = run_cli(
            capsys,
            "derive", "-f", "wat", "-k", "C", "-a", "0.5", "--interval", "0,1", "-t", "0.5",
            "--out", str(dest),
        )
        assert code == 2
        assert not dest.exists()

    @pytest.mark.parametrize(
        "argv,status",
        [
            (("derive", "-f", "wat", "-k", "C", "-a", "0.5", "--interval", "0,1", "-t", "0.5"), 2),
            (
                (
                    "order", "-f", "affine:0,1", "-k", "RL", "-p", "1",
                    "--betas", "geometric:1e-1,1e-3,3", "--interval", "0,1",
                ),
                3,
            ),
        ],
    )
    def test_failure_keeps_existing_file(self, capsys, tmp_path, argv, status):
        dest = tmp_path / "x.csv"
        dest.write_text("kept\n")
        code, _, _ = run_cli(capsys, *argv, "--out", str(dest))
        assert code == status
        assert dest.read_text() == "kept\n"

    def test_unwritable_path_is_argument_error(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "table1", "--out", str(dest))
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert "--out" in err and "Traceback" not in err
        assert not dest.exists()


class TestOverflowIsRefused:
    @pytest.mark.parametrize(
        "argv",
        [
            # Gamma(201) overflows a double; the CF form's E_{1,201} series
            # starts from 1/Gamma(201), which underflows
            ("derive", "-f", "power:200", "-k", "CF", "-a", "0.5", "--interval", "0,1", "-t", "0.5"),
            # z^k of the closed form of E_{1,151}(-149)
            ("ratio", "--m", "150", "--T", "149", "--beta", "0.5"),
            # e^a at a = 710
            ("derive", "-f", "exp", "-k", "C", "-a", "0.5", "--interval", "710,711", "-t", "710.5"),
        ],
    )
    def test_numerical_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("numerical error:") and "overflows" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestNoExceptionLeaks:
    WIDE = "--interval=-1e308,1e308"  # finite ends, a width that overflows

    @pytest.mark.parametrize(
        "argv",
        [
            ("derive", "-f", "cos", "-k", "C", "-a", "0.5", WIDE, "-t", "1e308"),
            ("error", "-f", "cos", "-k", "C", "-p", "1", "--beta", "0.01", WIDE),
            ("error", "-f", "cos", "-k", "C", "-p", "inf", "--beta", "0.01", WIDE),
            ("figures", "-f", "cos", WIDE, "--points", "5"),
            # a finite width whose product with the grid size overflows
            ("figures", "-f", "cos", "--interval", "0,1e308", "--points", "3"),
            ("error", "-f", "cos", "-k", "C", "-p", "inf", "--beta", "0.1",
             "--interval", "0,1e308"),
            ("ratio", "--m", "3", "--T", "1", "--beta", "1e-17"),
            ("ratio", "--m", "3", "--T", "2", "--beta", "1e-17"),
        ],
    )
    def test_exit_status_and_one_line(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert [str(w.message) for w in caught] == []
        assert code in (0, 2, 3)
        assert len(err.strip().splitlines()) <= 1
        assert "Traceback" not in err


class TestExponentialOverflow:
    @pytest.mark.parametrize(
        "argv",
        [
            ("derive", "-f", "exp", "-k", "CF", "-a", "0.5", "--interval", "0,711", "-t", "710.5"),
            ("error", "-f", "exp", "-k", "RL", "-p", "inf", "--beta", "0.1",
             "--interval", "710,711"),
            ("error", "-f", "exp", "-k", "C", "-p", "1", "--beta", "0.1", "--interval", "700,711"),
            ("figures", "-f", "exp", "--interval", "0,711", "--points", "5"),
        ],
    )
    def test_past_ln_dbl_max_is_refused_without_a_warning(self, capsys, argv):
        # e^t overflows a double past t = 709.78
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert [str(w.message) for w in caught] == []
        assert code == 3 and out == ""
        assert err.startswith("numerical error:") and "overflows" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "kind,a,t",
        [
            # u = t - a passes ln(DBL_MAX) though t does not
            ("CF", -10.0, 705.0),
            # e^a underflows to 0, e^t does not
            ("C", -800.0, -100.0),
            ("CF", -800.0, -100.0),
        ],
    )
    def test_value_where_e_a_or_e_u_leaves_the_double_range(self, capsys, kind, a, t):
        argv = ("derive", "-f", "exp", "-k", kind, "-a", "0.5", f"--interval={a},{t}", "-t", str(t))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert [str(w.message) for w in caught] == []
        assert code == 0 and err == ""
        with mp.workdps(40):
            u = mp.mpf(t) - mp.mpf(a)
            if kind == "C":  # e^t P(beta, u), beta = 1/2
                exact = mp.exp(t) * mp.gammainc(0.5, 0, u, regularized=True)
            else:  # e^t - e^a e^(-rate u), rate = 1
                exact = mp.exp(t) - mp.exp(a - u)
        assert float(parse_csv(out)[1][4]) == pytest.approx(float(exact), rel=1e-13, abs=0.0)


class TestPowerPastGammaOverflow:
    def test_caputo_value(self, capsys):
        # Gamma(201) overflows a double, Gamma(201)/Gamma(200.5) does not
        argv = ("derive", "-f", "power:200", "-k", "C", "-a", "0.5", "--interval", "0,1", "-t", "0.5")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        with mp.workdps(50):
            exact = mp.gamma(201) / mp.gamma(mp.mpf(200.5)) * mp.mpf(0.5) ** mp.mpf(199.5)
        assert float(parse_csv(out)[1][4]) == pytest.approx(float(exact), rel=1e-12, abs=0.0)


class TestArgparseErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,line",
        [
            (
                ["error", "-f", "cos"],
                "fracorder error: error: the following arguments are required: "
                "--interval, -k/--kind, -p, --beta",
            ),
            (
                ["error", "-f", "cos", "-k", "C", "-p", "1", "--interval", "0,1",
                 "--beta", "abc"],
                "fracorder error: error: argument --beta: invalid float value: 'abc'",
            ),
            (
                ["figures", "-f", "cos", "--interval", "0,1", "--points", "2.5"],
                "fracorder figures: error: argument --points: invalid int value: '2.5'",
            ),
            ([], "fracorder: error: the following arguments are required: command"),
        ],
    )
    def test_one_line_without_usage(self, capsys, tmp_path, argv, line):
        dest = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(dest)] if argv else argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err == line + "\n"
        assert not dest.exists()


class TestArgumentRefusals:
    """Each refusal of a command's own checks: exit 2, one line, no --out file."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["error", "-f", "cos", "-k", "C", "-p", "2", "--beta", "0.1", "--interval", "0,1"],
             "error: -p must be 1 or inf, got '2'"),
            (["order", "-f", "cos", "-k", "C", "-p", "1", "--betas", "geometric:0.1,0.01",
              "--interval", "0,1"],
             "error: --betas expects 'geometric:start,end,per_decade': "),
            (["order", "-f", "cos", "-k", "C", "-p", "1", "--betas", "geometric:0.01,0.1,2",
              "--interval", "0,1"],
             "error: --betas expects 'geometric:start,end,per_decade': "
             "need 0 < end < start < 1 and per_decade >= 1"),
            (["order", "-f", "cos", "-k", "C", "-p", "1", "--betas", "0.1,0.05,0.01",
              "--interval", "0,1"],
             "error: --betas must provide at least 4 points, got 3"),
            (["derive", "-f", "cos", "-k", "C", "-a", "1.5", "--interval", "0,1", "-t", "0.5"],
             "error: -a must lie in (0, 1), got 1.5"),
            (["figures", "-f", "cos", "--interval", "0,1", "--alphas", "0.5,1.2"],
             "error: --alphas entries must lie in (0, 1), got 1.2"),
            (["figures", "-f", "cos", "--interval", "0,1", "--points", "1"],
             "error: --points must be at least 2, got 1"),
        ],
    )
    def test_exit_two_one_line_no_file(self, capsys, tmp_path, argv, message):
        dest = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, *argv, "--out", str(dest))
        assert code == 2 and out == ""
        assert err.startswith(message) and len(err.splitlines()) == 1
        assert not dest.exists()


class TestSharedParser:
    """``main`` builds its parser once per process and reuses it."""

    SRC = str(Path(cli.__file__).resolve().parents[1])

    def _fresh(self, *args):
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": self.SRC},
        )

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_import_builds_nothing(self):
        code = "import fracorder.cli as c; print(c._build_parser.cache_info().currsize)"
        out = self._fresh("-c", code)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == b"0"

    def test_reuse_after_failures_matches_a_fresh_process(self, capsys):
        # an argument error, a numerical failure and --help first, each through
        # the shared parser; the CSVs after them are those of a fresh process
        assert main(["figures", "-f", "nope", "--interval", "0,1"]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--nope"])
        assert exc.value.code == 2
        assert main(["figures", "-f", "cos", "--interval", "0,1e6", "--points", "2"]) == 3
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        capsys.readouterr()
        commands = [
            ["figures", "-f", "affine:1,1", "--interval", "0,1", "--points", "100"],
            ["order", "-f", "abs:1", "-k", "C", "-p", "1", "--interval", "0,2",
             "--betas", "geometric:1e-1,1e-4,12"],
            ["table1"],
        ]
        for argv in commands:
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            fresh = self._fresh("-m", "fracorder", *argv)
            assert fresh.returncode == 0, fresh.stderr
            assert captured.out.encode() == fresh.stdout
