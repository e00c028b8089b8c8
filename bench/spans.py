"""Spans around the calls into each fracorder layer, and the per-layer metrics.

Tracing replaces module attributes with wrappers; fracorder's own modules
call each other through those attributes (``operators.caputo``,
``specfun.gamma``, ``integrate.quad``, ...), so the internal calls are seen
without touching the package.  A span records its name, start, end, parent
and one integer of payload (sample count, closed-form hit, reported
evaluations, thread count).  Spans stay in memory until ``metrics()`` runs.

Layers, bottom up: specfun, funcat, operators, norms (with
scipy.integrate.quad, its adaptive engine), analysis, cli.
"""

import itertools
import threading
import time
from array import array

import numpy as np

LAYER_NAMES = ("specfun", "funcat", "operators", "norms", "analysis", "cli")

_SPECFUN = ("gamma", "ln_gamma", "digamma", "mittag_leffler_one", "mittag_leffler")
_OPERATORS = ("caputo", "caputo_fabrizio", "riemann_liouville", "rl_integral")
_ANALYSIS = ("fit_order", "ratio_cf_over_c_l1", "ratio_limit", "t_star", "s_star", "table1")
_ARRAY_METHODS = ("value_array", "derivative_array")

_FIELDS = 6  # span id, parent id, name id, start ns, end ns, payload


def _no_payload(args, kwargs, result):
    return 0


def _array_payload(args, kwargs, result):
    return len(args[1])  # (self, ts)


def _closed_form_payload(args, kwargs, result):
    return int(result is not None)


def _report_payload(args, kwargs, result):
    return result.n_eval_points


def _sweep_payload(args, kwargs, result):
    return kwargs.get("threads") or 1


class Tracer:
    """Installs span-recording wrappers on fracorder's module attributes."""

    def __init__(self):
        self._names: list[str] = []
        self._layers: list[str] = []
        self._rows = array("q")
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, name, fn, payload):
        name_id = len(self._names)
        self._names.append(name)
        self._layers.append(layer)
        rows, ids, clock, stack_of = self._rows, self._ids, time.perf_counter_ns, self._stack
        main_stack = self._main_stack

        def wrapper(*args, **kwargs):
            sid = next(ids)
            stack = stack_of()
            # a span opened on a pool thread belongs to the main-thread call
            # that is blocked waiting for it (cli order -> error_sweep)
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                rows.extend((sid, parent, name_id, start, end, -1))
                raise
            end = clock()
            stack.pop()
            # one extend per span keeps the row whole when pool threads interleave
            rows.extend((sid, parent, name_id, start, end, payload(args, kwargs, result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, layer, name, payload=_no_payload):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, name, original, payload))

    def install(self):
        import scipy.integrate

        import fracorder.cli
        from fracorder import analysis, funcat, norms, operators, specfun

        for attr in _SPECFUN:
            self._patch(specfun, attr, "specfun", f"specfun.{attr}")
        self._patch(funcat, "closed_form_fractional", "funcat", "funcat.closed_form_fractional",
                    _closed_form_payload)
        for cls in vars(funcat).values():
            if isinstance(cls, type) and issubclass(cls, funcat.TestFunction):
                for attr in _ARRAY_METHODS:
                    if attr in cls.__dict__:
                        self._patch(cls, attr, "funcat", f"funcat.{cls.__name__}.{attr}",
                                    _array_payload)
        for attr in _OPERATORS:
            self._patch(operators, attr, "operators", f"operators.{attr}")
        self._patch(norms, "error_l1", "norms", "norms.error_l1", _report_payload)
        self._patch(norms, "error_linf", "norms", "norms.error_linf", _report_payload)
        self._patch(norms, "error_sweep", "norms", "norms.error_sweep", _sweep_payload)
        self._patch(scipy.integrate, "quad", "norms", "scipy.integrate.quad")
        for attr in _ANALYSIS:
            self._patch(analysis, attr, "analysis", f"analysis.{attr}")
        self._patch(fracorder.cli, "main", "cli", "cli.main")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        table = np.frombuffer(self._rows, dtype=np.int64).reshape(-1, _FIELDS)
        table = table[np.argsort(table[:, 0], kind="stable")]
        keys = ("id", "parent", "name", "start", "end", "payload")
        return {key: table[:, i] for i, key in enumerate(keys)}

    def metrics(self) -> dict[str, float]:
        s = self.spans()
        n = len(s["id"])
        name, payload = s["name"], s["payload"]
        layer = np.array([LAYER_NAMES.index(x) for x in self._layers], dtype=np.int64)[name]
        pos = np.searchsorted(s["id"], s["parent"]).clip(0, max(n - 1, 0))
        parent_row = np.where(s["id"][pos] == s["parent"], pos, -1)
        parent_layer = np.where(parent_row >= 0, layer[parent_row], -1)
        dur = s["end"] - s["start"]
        self_ns = dur - self._child_cover(s, parent_row)

        def in_layer(x):
            return layer == LAYER_NAMES.index(x)

        def named(pred):
            return np.isin(name, [i for i, x in enumerate(self._names) if pred(x)])

        def self_s(x):
            return float(self_ns[in_layer(x)].sum()) / 1e9

        outer_ops = in_layer("operators") & (parent_layer != LAYER_NAMES.index("operators"))
        arrays = named(lambda x: x.endswith(_ARRAY_METHODS))
        op_arrays = arrays & (parent_layer == LAYER_NAMES.index("operators"))
        quadrature = np.zeros(n, dtype=bool)
        quadrature[parent_row[op_arrays]] = True
        closed = named(lambda x: x == "funcat.closed_form_fractional")
        reports = named(lambda x: x in ("norms.error_l1", "norms.error_linf"))
        cli_sweeps = named(lambda x: x == "norms.error_sweep") & (
            parent_layer == LAYER_NAMES.index("cli")
        )
        op_us = dur[outer_ops] / 1e3
        return {
            "specfun.calls": int(in_layer("specfun").sum()),
            "specfun.ml1.calls": int(named(lambda x: x == "specfun.mittag_leffler_one").sum()),
            "specfun.self_s": self_s("specfun"),
            "funcat.closed_form.calls": int(closed.sum()),
            "funcat.closed_form.hit_ratio": (
                float((payload[closed] == 1).sum() / closed.sum()) if closed.any() else 0.0
            ),
            "funcat.points_sampled": int(payload[arrays].clip(0).sum()),
            "funcat.self_s": self_s("funcat"),
            "operators.calls": int(outer_ops.sum()),
            "operators.quadrature.calls": int(quadrature.sum()),
            "operators.nodes.computed": int(payload[op_arrays].clip(0).sum()),
            "operators.call_us.p50": float(np.median(op_us)) if len(op_us) else 0.0,
            "operators.self_s": self_s("operators"),
            "norms.evals.reported": int(payload[reports].clip(0).sum()),
            "norms.evals.counted": int(
                (outer_ops & (parent_layer == LAYER_NAMES.index("norms"))).sum()
            ),
            "norms.quad.calls": int(named(lambda x: x == "scipy.integrate.quad").sum()),
            "norms.self_s": self_s("norms"),
            "analysis.calls": int(in_layer("analysis").sum()),
            "analysis.self_s": self_s("analysis"),
            "cli.self_s": self_s("cli"),
            "cli.threads": int(payload[cli_sweeps].max()) if cli_sweeps.any() else 0,
        }

    @staticmethod
    def _child_cover(s, parent_row) -> np.ndarray:
        """Per span, the length of the union of its children's intervals."""
        cover = np.zeros(len(parent_row), dtype=np.int64)
        kids = np.flatnonzero(parent_row >= 0)
        if not len(kids):
            return cover
        kids = kids[np.lexsort((s["start"][kids], parent_row[kids]))]
        par, start, end = parent_row[kids], s["start"][kids], s["end"][kids]
        np.add.at(cover, par, end - start)
        # Children of one thread never overlap.  Pool threads' children can;
        # any overlap shows between two neighbours in start order, and those
        # parents get an explicit interval union.
        overlap = (par[1:] == par[:-1]) & (start[1:] < end[:-1])
        for p in np.unique(par[1:][overlap]).tolist():
            sel = par == p
            total, reach = 0, 0
            for a, b in zip(start[sel].tolist(), end[sel].tolist()):
                total += max(0, b - max(a, reach))
                reach = max(reach, b)
            cover[p] = total
        return cover
