"""Regenerate bench/refs.json, the stored references of the benchmark.

    python3 bench/make_refs.py

Every value comes from mpmath at 40 digits and from formulas written here,
never from the fracorder code under test:

* operator values from exact closed forms (powers, affine, e^t under CF, the
  kink function |t-1|) or, for cos t under Caputo, from its power series
  D^alpha cos t = -sum_k (-1)^k t^(2k+2-alpha) / Gamma(2k+3-alpha);
* sup-norm errors from a scan of the exact error (a uniform grid plus a
  logarithmic one near t = a), the three best points refined by golden-section
  search in mpmath down to ~1e-25 in t, and the analytic one-sided limits at
  t = a+ and at kinks.  For cos this stands in for "more nodes and a finer
  grid": the series is the operator in the limit of infinitely many nodes,
  and the refinement is finer than any grid;
* L1 errors from exact antiderivatives of the error, summed over the pieces
  between kinks and sign changes (roots located by mpmath bisection);
* the CF/C ratio quantities through 1F1 (E_{1,w}(z) = 1F1(1; w; z) / Gamma(w)),
  mpmath digamma, and root finding for t*.

The pools are fixed here; a workload seed only picks cases from them.  The
output is deterministic and takes a few minutes to regenerate.
"""

import json
import math
import random
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 40

OUT = Path(__file__).resolve().parent / "refs.json"

LINF_BETAS = [1e-1, 1e-2, 1e-3, 1e-4]
L1_BETAS = [10.0 ** (-k / 4.0) for k in range(4, 17)]  # 1e-1 .. 1e-4, 4 per decade
FIGURE_ALPHAS = [0.5, 0.75, 0.9, 0.99]  # the CLI's default --alphas
FIGURE_POINTS = 500  # the CLI's default --points
SCAN_POINTS = 4000  # scan of the exact error before golden-section refinement
RATIO_POOL_SIZE = 48


# --- exact operator values, a = 0 -------------------------------------------------


def _rate(alpha):
    return alpha / (1 - alpha)


def caputo_cos(t, alpha):
    t = mp.mpf(t)
    total, k = mp.mpf(0), 0
    while True:
        term = (-1) ** k * t ** (2 * k + 2 - alpha) / mp.gamma(2 * k + 3 - alpha)
        total += term
        if abs(term) < mp.mpf(10) ** -(mp.mp.dps + 5):
            return -total
        k += 1


def caputo_cos_antiderivative(t, alpha):
    """An antiderivative in t of caputo_cos: one more fractional integration."""
    t = mp.mpf(t)
    total, k = mp.mpf(0), 0
    while True:
        term = (-1) ** k * t ** (2 * k + 3 - alpha) / mp.gamma(2 * k + 4 - alpha)
        total += term
        if abs(term) < mp.mpf(10) ** -(mp.mp.dps + 5):
            return -total
        k += 1


def cf_cos(t, alpha):
    lam, b = _rate(alpha), 1 - alpha
    return -(lam * mp.sin(t) - mp.cos(t) + mp.exp(-lam * t)) / (b * (1 + lam**2))


def cf_cos_antiderivative(t, alpha):
    lam, b = _rate(alpha), 1 - alpha
    return (lam * mp.cos(t) + mp.sin(t) + mp.exp(-lam * t) / lam) / (b * (1 + lam**2))


def rl_singular(t, alpha, f0):
    return f0 * mp.mpf(t) ** (-alpha) / mp.gamma(1 - alpha)


def rl_singular_antiderivative(t, alpha, f0):
    return f0 * mp.mpf(t) ** (1 - alpha) / mp.gamma(2 - alpha)


class Case:
    """Exact error e(t) = D^alpha f(t) - f'(t) on (a, b], with its antiderivative.

    ``branches`` lists the (lo, hi) pieces between kinks; ``error`` and
    ``antiderivative`` take the branch index.  ``limits`` are the analytic
    one-sided limits of |e| that the sup may approach without attaining.
    """

    def __init__(self, function, kind, a, b):
        self.function, self.kind, self.a, self.b = function, kind, a, b

    def branches(self):
        if self.function == "abs:1":
            return [(mp.mpf(0), mp.mpf(1)), (mp.mpf(1), mp.mpf(self.b))]
        return [(mp.mpf(self.a), mp.mpf(self.b))]

    def error(self, t, alpha, branch=0):
        beta = 1 - alpha
        lam = _rate(alpha)
        t = mp.mpf(t)
        key = (self.function, self.kind)
        if key == ("cos", "C"):
            return caputo_cos(t, alpha) + mp.sin(t)
        if key == ("cos", "CF"):
            return cf_cos(t, alpha) + mp.sin(t)
        if key == ("cos", "RL"):
            return rl_singular(t, alpha, 1) + caputo_cos(t, alpha) + mp.sin(t)
        if key == ("exp", "CF"):
            return -mp.exp(-lam * t)
        if key == ("power:2", "C"):
            return 2 * t ** (1 + beta) / mp.gamma(2 + beta) - 2 * t
        if key == ("power:2", "CF"):
            return (2 / beta) * (t / lam - (1 - mp.exp(-lam * t)) / lam**2) - 2 * t
        if key == ("abs:1", "C"):
            if branch == 0:
                return 1 - t**beta / mp.gamma(1 + beta)
            return (2 * (t - 1) ** beta - t**beta) / mp.gamma(1 + beta) - 1
        if key == ("affine:1,1", "RL"):
            return rl_singular(t, alpha, 1) + t**beta / mp.gamma(1 + beta) - 1
        raise KeyError(key)

    def antiderivative(self, t, alpha, branch=0):
        beta = 1 - alpha
        lam = _rate(alpha)
        t = mp.mpf(t)
        key = (self.function, self.kind)
        if key == ("cos", "C"):
            return caputo_cos_antiderivative(t, alpha) - mp.cos(t)
        if key == ("cos", "CF"):
            return cf_cos_antiderivative(t, alpha) - mp.cos(t)
        if key == ("cos", "RL"):
            return (
                rl_singular_antiderivative(t, alpha, 1)
                + caputo_cos_antiderivative(t, alpha)
                - mp.cos(t)
            )
        if key == ("exp", "CF"):
            return mp.exp(-lam * t) / lam
        if key == ("power:2", "C"):
            return 2 * t ** (2 + beta) / mp.gamma(3 + beta) - t**2
        if key == ("power:2", "CF"):
            inner = t - (1 - mp.exp(-lam * t)) / lam
            return (2 / beta) * (t**2 / (2 * lam) - inner / lam**2) - t**2
        if key == ("abs:1", "C"):
            if branch == 0:
                return t - t ** (1 + beta) / mp.gamma(2 + beta)
            return (2 * (t - 1) ** (1 + beta) - t ** (1 + beta)) / mp.gamma(2 + beta) - t
        raise KeyError(key)

    def limits(self, alpha):
        """|e| at t -> a+ and at both sides of each kink, where finite."""
        beta = 1 - alpha
        if self.kind == "RL":
            return [mp.inf]  # f(a) != 0 in every RL case: (t-a)^(-alpha) blows up
        fprime_at_a = {"cos": 0, "exp": 1, "power:2": 0, "abs:1": 1}[self.function]
        out = [mp.mpf(fprime_at_a)]  # C and CF vanish as t -> a+
        if self.function == "abs:1":
            out.append(1 + 1 / mp.gamma(1 + beta))  # t -> 1+
            out.append(abs(1 - 1 / mp.gamma(1 + beta)))  # t -> 1-
        return out


# --- sup norm ----------------------------------------------------------------------


def _golden_max(fn, lo, hi, iters=120):
    g = (mp.sqrt(5) - 1) / 2
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = fn(x1)
    return max(f1, f2)


def _scan_points(lo, hi, n):
    width = hi - lo
    pts = {lo + width * mp.mpf(i) / n for i in range(1, n + 1)}
    pts.update(lo + width * mp.mpf(10) ** (-k / mp.mpf(8)) for k in range(1, 8 * 14))
    return sorted(pts)


def sup_error(case, alpha, grid=SCAN_POINTS):
    limits = case.limits(alpha)
    if mp.inf in limits:
        return math.inf
    best = max(limits)
    total_width = case.b - case.a
    for index, (lo, hi) in enumerate(case.branches()):
        n = max(16, int(grid * float(hi - lo) / total_width))
        pts = _scan_points(lo, hi, n)
        err = [abs(case.error(t, alpha, index)) for t in pts]
        top = sorted(range(len(pts)), key=err.__getitem__, reverse=True)[:3]
        for i in top:
            left = pts[max(i - 1, 0)]
            right = pts[min(i + 1, len(pts) - 1)]
            if right > left:
                err_at = lambda t: abs(case.error(t, alpha, index))  # noqa: E731
                best = max(best, _golden_max(err_at, left, right))
            best = max(best, err[i])
    return float(best)


# --- L1 norm -----------------------------------------------------------------------


def l1_error(case, alpha, grid=4000):
    total = mp.mpf(0)
    for index, (lo, hi) in enumerate(case.branches()):
        pts = _scan_points(lo, hi, grid)
        signs = [mp.sign(case.error(t, alpha, index)) for t in pts]
        cuts = [lo]
        for (t0, s0), (t1, s1) in zip(zip(pts, signs), zip(pts[1:], signs[1:])):
            if s0 * s1 < 0:
                root = mp.findroot(lambda t: case.error(t, alpha, index), (t0, t1), solver="bisect")
                cuts.append(root)
        cuts.append(hi)
        for x0, x1 in zip(cuts, cuts[1:]):
            piece = case.antiderivative(x1, alpha, index) - case.antiderivative(x0, alpha, index)
            total += abs(piece)
    return float(total)


# --- analysis ----------------------------------------------------------------------


def ratio_limit(m, T):
    return float(((m - T) / mp.mpf(T)) / (mp.digamma(m + 1) - mp.log(T)))


def ratio_cf_over_c(m, T, beta):
    beta, T = mp.mpf(beta), mp.mpf(T)
    rate = (1 - beta) / beta
    num = T**m / (1 - beta) * (mp.hyp1f1(1, m + 1, -rate * T) - beta)
    den = T**m / mp.gamma(m + beta + 1) * (mp.gamma(m + beta + 1) - mp.gamma(m + 1) * T**beta)
    return float(num / den)


def t_star(m, beta):
    beta = mp.mpf(beta)
    rate = (1 - beta) / beta
    g = lambda v: mp.hyp1f1(1, m, -rate * v) - beta  # noqa: E731
    lo = mp.mpf(m - 1)
    hi = 2 * lo
    while g(hi) > 0:
        lo, hi = hi, 2 * hi
    return float(mp.findroot(g, (lo, hi), solver="bisect"))


def s_star(m, beta):
    beta = mp.mpf(beta)
    return float((mp.gamma(m + beta) / mp.gamma(m)) ** (1 / beta))


def ratio_pool():
    rng = random.Random(20010846)
    pool = []
    for i in range(RATIO_POOL_SIZE):
        m = 2 + i % 9
        if m > 2:
            T = [1.0, float(m - 1), rng.uniform(0.05, m - 1)][i % 3]
        else:
            T = rng.uniform(0.05, 1.0)
        beta = 10.0 ** rng.uniform(-6.0, -1.0)
        pool.append(
            {
                "m": m,
                "T": T,
                "beta": beta,
                "ratio_limit": ratio_limit(m, T),
                "ratio_cf_over_c_l1": ratio_cf_over_c(m, T, beta),
                "t_star": t_star(m, beta),
                "s_star": s_star(m, beta),
            }
        )
    return pool


# --- CLI figures -------------------------------------------------------------------


def figure_rows(function):
    """[[RL, C, CF] per point] per alpha, at t = i / FIGURE_POINTS on (0, 1]."""
    out = []
    for alpha in FIGURE_ALPHAS:
        al = mp.mpf(alpha)
        rows = []
        for i in range(1, FIGURE_POINTS + 1):
            t = mp.mpf(i) / FIGURE_POINTS
            if function == "cos":
                c, cf = caputo_cos(t, al), cf_cos(t, al)
            else:  # affine:1,1
                c = t ** (1 - al) / mp.gamma(2 - al)
                cf = (1 - mp.exp(-_rate(al) * t)) / al
            rows.append([float(rl_singular(t, al, 1) + c), float(c), float(cf)])
        out.append(rows)
    return out


LINF_CASES = [
    ("exp", "CF", 0.0, 1.0),
    ("abs:1", "C", 0.0, 2.0),
    ("power:2", "C", 0.0, 1.0),
    ("power:2", "CF", 0.0, 1.0),
    ("cos", "C", 0.0, 1.0),
    ("cos", "CF", 0.0, 1.0),
    ("affine:1,1", "RL", 0.0, 1.0),
]
L1_CASES = [
    ("exp", "CF", 0.0, 1.0),
    ("abs:1", "C", 0.0, 2.0),
    ("power:2", "C", 0.0, 1.0),
    ("power:2", "CF", 0.0, 1.0),
    ("cos", "C", 0.0, 1.0),
    ("cos", "CF", 0.0, 1.0),
    ("cos", "RL", 0.0, 1.0),
]


def _entry(spec, beta, value):
    function, kind, a, b = spec
    return {"function": function, "kind": kind, "a": a, "b": b, "beta": beta, "value": value}


def main():
    refs = {"linf": [], "l1": []}
    for spec in LINF_CASES:
        case = Case(*spec)
        for beta in LINF_BETAS:
            refs["linf"].append(_entry(spec, beta, sup_error(case, 1 - mp.mpf(beta))))
            print("linf", spec, beta, refs["linf"][-1]["value"], file=sys.stderr)
    for spec in L1_CASES:
        case = Case(*spec)
        for beta in L1_BETAS:
            refs["l1"].append(_entry(spec, beta, l1_error(case, 1 - mp.mpf(beta))))
            print("l1", spec, beta, refs["l1"][-1]["value"], file=sys.stderr)
    refs["ratio"] = ratio_pool()
    refs["table1"] = [[m, ratio_limit(m, 1.0), ratio_limit(m, float(m - 1))] for m in (3, 4, 5, 6)]
    refs["figures"] = {
        "alphas": FIGURE_ALPHAS,
        "points": FIGURE_POINTS,
        "cos": figure_rows("cos"),
        "affine:1,1": figure_rows("affine:1,1"),
    }
    OUT.write_text(json.dumps(refs, separators=(",", ":")) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
