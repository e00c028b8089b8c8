"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Two checks assert behaviour the operators provably do not have and are
therefore expected to fail:

* criterion 6, sup-norm half, for (Exponential, CF) and (AbsShift(1), C):
  the sup-norm error tends to |f'(a+)| (resp. the kink jump), a positive
  constant, so no decay exponent in [0.85, 1.05] exists;
* criterion 8, second verdict: for g(t) = t^2 the sup-norm errors of both
  operators are asymptotically proportional to beta (CF ~ 2 beta,
  C ~ 2 e^(-euler_gamma) beta), so their ratio tends to e^(euler_gamma)
  ~ 1.781 from below and never decreases toward 0.

Both are kept red on purpose; see the test docstrings.
"""

import csv
import io
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fracorder import (
    AbsShift,
    Affine,
    Cosine,
    DegenerateFitError,
    ErrorReport,
    Exponential,
    Interval,
    NormKind,
    OperatorKind,
    Power,
    caputo,
    caputo_fabrizio,
    digamma,
    error_l1,
    error_linf,
    error_sweep,
    fit_order,
    gamma,
    mittag_leffler_one,
    ratio_cf_over_c_l1,
    ratio_limit,
    riemann_liouville,
    rl_integral,
    s_star,
    t_star,
    table1,
)
from fracorder.cli import main as cli_main

RL = OperatorKind.RIEMANN_LIOUVILLE
C = OperatorKind.CAPUTO
CF = OperatorKind.CAPUTO_FABRIZIO
I01 = Interval(0.0, 1.0)
I02 = Interval(0.0, 2.0)

# ten-digit published reference values: m -> (ratio at T=1, ratio at T=m-1)
TABLE_REFERENCE = {
    3: (1.592207522, 0.8881460240),
    4: (1.991876242, 0.8179851126),
    5: (2.344504178, 0.7816816178),
    6: (2.669821563, 0.7594559202),
}


def report(n: int, ok: bool, desc: str) -> None:
    print(f"[criterion {n:>2}] {'PASS' if ok else 'FAIL'} - {desc}")


def test_criterion_01_table_reproduction():
    start = time.perf_counter()
    rows = table1()
    elapsed = time.perf_counter() - start
    ok = len(rows) == 4 and elapsed < 0.1
    for m, at_one, at_top in rows:
        ref_one, ref_top = TABLE_REFERENCE[m]
        ok = ok and abs(at_one - ref_one) <= 1e-8 and abs(at_top - ref_top) <= 1e-8
    report(1, ok, f"all 8 table values within 1e-8, runtime {elapsed * 1e3:.2f} ms")
    assert ok


def test_criterion_02_finite_beta_limit_approach():
    start = time.perf_counter()
    ok = True
    for m in (3, 4, 5, 6):
        for T in (1.0, float(m - 1)):
            finite = ratio_cf_over_c_l1(m, T, 1e-5).value
            limit = ratio_limit(m, T).value
            ok = ok and abs(finite - limit) <= 1e-2
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(2, ok, f"ratio at beta=1e-5 within 1e-2 of the limit, runtime {elapsed:.2f} s")
    assert ok


def test_criterion_03_closed_form_operator_goldens():
    alphas = np.linspace(0.05, 0.95, 10)
    ts = np.linspace(0.1, 1.0, 10)
    worst = 0.0
    for alpha in alphas:
        for t in ts:
            got = caputo(Power(1.0, 0.0), float(alpha), 0.0, float(t))
            expected = t ** (1.0 - alpha) / gamma(2.0 - alpha)
            worst = max(worst, abs(got - expected))
    ok = worst <= 1e-8

    # E_{1,1}, E_{1,2}, E_{1,3} written out in elementary terms
    def cf_expected(g, alpha, t):
        z = -alpha / (1.0 - alpha) * t
        if g == 1:
            ml = math.exp(z)
        elif g == 2:
            ml = (math.exp(z) - 1.0) / z
        else:
            ml = (math.exp(z) - 1.0 - z) / z**2
        return g / alpha * t ** (g - 1.0) * (1.0 - gamma(float(g)) * ml)

    worst_cf = 0.0
    for g in (1, 2, 3):
        for alpha in alphas:
            for t in ts:
                got = caputo_fabrizio(Power(float(g), 0.0), float(alpha), 0.0, float(t))
                worst_cf = max(worst_cf, abs(got - cf_expected(g, float(alpha), float(t))))
    ok = ok and worst_cf <= 1e-8
    report(3, ok, f"caputo worst {worst:.2e}, caputo_fabrizio worst {worst_cf:.2e} (tol 1e-8)")
    assert ok


def test_criterion_04_rl_identity():
    catalog = [
        Affine(1.0, 1.0),
        Affine(0.0, 1.0),
        Power(2.0, 0.0),
        Exponential(),
        Cosine(),
        AbsShift(0.4),
    ]
    rng = np.random.default_rng(41)
    structural_ok = True
    for f in catalog:
        for _ in range(50):
            alpha = float(rng.uniform(0.05, 0.95))
            t = float(rng.uniform(0.5, 2.0))
            lhs = riemann_liouville(f, alpha, 0.0, t)
            rhs = f.value(0.0) * t**-alpha / gamma(1.0 - alpha) + caputo(f, alpha, 0.0, t)
            structural_ok = structural_ok and lhs == rhs

    h = 1e-3
    worst = 0.0
    for f in (Exponential(), Cosine(), Power(2.0, 0.0)):
        for alpha in (0.3, 0.5, 0.7):
            t = 0.6
            diff = (
                rl_integral(f, 1.0 - alpha, 0.0, t + h)
                - rl_integral(f, 1.0 - alpha, 0.0, t - h)
            ) / (2.0 * h)
            worst = max(worst, abs(diff - riemann_liouville(f, alpha, 0.0, t)))
    ok = structural_ok and worst <= 1e-4
    report(4, ok, f"identity exact, central-difference agreement {worst:.2e} (tol 1e-4)")
    assert ok


def test_criterion_05_rl_non_convergence():
    one = Affine(0.0, 1.0)
    ok = True
    for beta in (1e-1, 1e-2, 1e-3):
        value = error_l1(one, RL, beta, I01).value
        ok = ok and abs(value - 1.0 / gamma(1.0 + beta)) <= 1e-8 and value >= 0.9
    refused = False
    betas = list(np.logspace(-1, -3, 25))
    reports = error_sweep(one, RL, NormKind.L1, betas, I01)
    try:
        fit_order(reports)
    except DegenerateFitError:
        refused = True
    ok = ok and refused
    report(5, ok, "RL L1 error equals 1/Gamma(1+beta) and the power-law fit is refused")
    assert ok


def test_criterion_06_order_of_convergence():
    """Fitted rates in [0.85, 1.05] for both norms and E/sqrt(beta) -> 0.

    The sup-norm half for (Exponential, CF) and (AbsShift(1), C) asserts a
    decay these errors provably do not have (they tend to the positive
    constants |f'(0+)| = 1 and 1 + 1/Gamma(1+beta) -> 2), so those two
    sub-cases fail; the assertion is intentionally kept.
    """
    betas = list(np.logspace(-1, -4, 37))
    combos = [
        (Exponential(), CF, I01, "Exponential-CF"),
        (AbsShift(1.0), C, I02, "AbsShift(1)-C"),
        (Power(2.0, 0.0), C, I01, "Power(2)-C"),
        (Power(2.0, 0.0), CF, I01, "Power(2)-CF"),
    ]
    start = time.perf_counter()
    failures = []
    for f, kind, interval, name in combos:
        for p in (NormKind.L1, NormKind.LINF):
            label = f"{name}/{'L1' if p is NormKind.L1 else 'Linf'}"
            reports = error_sweep(f, kind, p, betas, interval)
            try:
                fit = fit_order(reports)
            except DegenerateFitError as exc:
                failures.append(f"{label}: fit refused ({exc})")
                print(f"    {label}: FAIL (no power law)")
                continue
            ratios = [r.value / math.sqrt(r.beta) for r in reports]
            monotone = all(b < a + 1e-12 for a, b in zip(ratios, ratios[1:]))
            vanishing = ratios[-1] <= 0.1 * ratios[0]
            in_range = 0.85 <= fit.r_hat <= 1.05
            print(
                f"    {label}: r_hat={fit.r_hat:.4f} "
                f"E/sqrt(beta) monotone={monotone} vanishing={vanishing}"
            )
            if not (in_range and monotone and vanishing):
                failures.append(f"{label}: r_hat={fit.r_hat:.4f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 30 s")
    report(6, not failures, f"order fits, runtime {elapsed:.1f} s; failures: {failures or 'none'}")
    assert not failures, "; ".join(failures)


def test_criterion_07_counterexample_remarks():
    beta = 1e-4
    cf_ratio = error_l1(Exponential(), CF, beta, I01).value / beta
    c_ratio = error_l1(AbsShift(1.0), C, beta, I02).value / beta
    ok = abs(cf_ratio - 1.0) <= 1e-2 and c_ratio >= 1.5
    report(7, ok, f"E/beta: exponential-CF {cf_ratio:.4f} (~1), |t-1|-C {c_ratio:.3f} (>= 1.5)")
    assert ok


def test_criterion_08a_sup_norm_identity_verdict():
    ok = True
    for beta in (0.1, 0.01):
        c_val = error_linf(Affine(1.0, 0.0), C, beta, I01).value
        cf_val = error_linf(Affine(1.0, 0.0), CF, beta, I01).value
        ok = ok and abs(c_val - 1.0) <= 1e-9 and cf_val >= c_val - 1e-9
    report(8, ok, "f(t)=t: Caputo sup error is 1 and the CF/C sup ratio is >= 1")
    assert ok


def test_criterion_08b_sup_norm_quadratic_verdict():
    """Asserts the CF/C sup ratio for t^2 decreases >= 2x per decade of beta.

    Expected to fail: both sup errors are ~ beta (CF ~ 2 beta, C ~
    2 e^(-euler_gamma) beta), so the ratio increases toward e^(euler_gamma)
    ~ 1.781 and never falls.
    """
    ratios = []
    for beta in (1e-1, 1e-2, 1e-3):
        cf_val = error_linf(Power(2.0, 0.0), CF, beta, I01).value
        c_val = error_linf(Power(2.0, 0.0), C, beta, I01).value
        ratios.append(cf_val / c_val)
    decreasing = all(b <= a / 2.0 for a, b in zip(ratios, ratios[1:]))
    report(8, decreasing, f"t^2 sup ratio per decade: {[f'{r:.3f}' for r in ratios]} (-> 0?)")
    assert decreasing, f"ratio does not tend to 0: {ratios}"


def test_criterion_09_root_bounds():
    rng = np.random.default_rng(90210)
    ok = True
    for _ in range(100):
        m = int(rng.integers(2, 9))
        beta = float(rng.uniform(0.01, 0.99))
        v = t_star(m, beta)
        w = s_star(m, beta)
        rate = (1.0 - beta) / beta
        t_res = gamma(float(m)) * mittag_leffler_one(float(m), -rate * v) - beta
        s_res = math.exp(
            beta * math.log(w) + math.lgamma(float(m)) - math.lgamma(m + beta)
        ) - 1.0
        ok = ok and v >= m - 1 and w >= m - 1 and abs(t_res) <= 1e-9 and abs(s_res) <= 1e-9
    report(9, ok, "100 random samples: t*, s* >= m-1 with defining residual <= 1e-9")
    assert ok


def ml_exact_series(omega: int, z: float, terms: int = 220) -> float:
    """Exact-rational series oracle for E_{1,omega}(z) at integer omega."""
    zq = Fraction(z)
    return float(sum(zq**k / math.factorial(k + omega - 1) for k in range(terms)))


def test_criterion_10_specfun_precision():
    ok = True
    for x in np.linspace(0.5, 100.0, 250):
        ok = ok and abs(digamma(x + 1.0) - digamma(float(x)) - 1.0 / x) <= 1e-11
        ok = ok and abs(gamma(x + 1.0) / gamma(float(x)) - x) <= 1e-11 * x
    worst = 0.0
    for omega in range(2, 9):
        for z in np.linspace(-30.0, -1.0, 24):
            exact = ml_exact_series(omega, float(z))
            got = mittag_leffler_one(float(omega), float(z))
            worst = max(worst, abs(got - exact) / abs(exact))
        at_zero = mittag_leffler_one(float(omega), 0.0)
        ok = ok and abs(at_zero - 1.0 / gamma(float(omega))) <= 2 * math.ulp(at_zero)
    ok = ok and worst <= 1e-8
    report(10, ok, f"digamma/gamma invariants hold; ML closed form vs exact series {worst:.2e}")
    assert ok


def _figures_rows(capsys, function_id: str) -> list[list[str]]:
    code = cli_main(
        [
            "figures", "-f", function_id, "--interval", "0,1",
            "--alphas", "0.5,0.75,0.9,0.99", "--points", "500",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    return list(csv.reader(io.StringIO(out)))[1:]


def test_criterion_11_figures_data(capsys):
    ok = True
    for function_id in ("affine:1,1", "cos"):
        rows = _figures_rows(capsys, function_id)
        by_kind: dict[str, dict[float, float]] = {}
        for t_s, alpha_s, kind, value_s in rows:
            if float(alpha_s) == 0.99:
                by_kind.setdefault(kind, {})[float(t_s)] = float(value_s)
        ts = sorted(by_kind["fprime"])
        for kind in ("C", "CF"):
            worst = max(
                abs(by_kind[kind][t] - by_kind["fprime"][t]) for t in ts if 0.1 <= t <= 1.0
            )
            ok = ok and worst < 5e-2
        if function_id == "affine:1,1":
            blow_up = any(
                by_kind["RL"][t] > 2.0 * abs(by_kind["fprime"][t])
                for t in ts
                if 0.0 < t < 0.05
            )
            ok = ok and blow_up
    report(11, ok, "alpha=0.99 curves within 5e-2 of f' on [0.1, 1]; RL blows up near 0")
    assert ok
