"""Helpers shared by the test modules."""

from dataclasses import dataclass

from fracorder import TestFunction


@dataclass(frozen=True)
class Opaque(TestFunction):
    """f with its closed forms hidden: the same values, derivative and
    breakpoints, so every operator value comes from quadrature."""

    f: TestFunction

    def value(self, t):
        return self.f.value(t)

    def derivative(self, t):
        return self.f.derivative(t)

    def breakpoints(self):
        return self.f.breakpoints()

    def value_array(self, ts):
        return self.f.value_array(ts)

    def derivative_array(self, ts):
        return self.f.derivative_array(ts)


def record_binds(monkeypatch):
    """Records ``operators._bind``: returns the lists (binds, calls), the
    arguments (kind, f, order, a, b) of each bind, and for each call of a
    bound function (kind, order, a, points, values)."""
    from fracorder import operators

    binds, calls = [], []
    original = operators._bind

    def binding(kind, f, order, a, b):
        binds.append((kind, f, order, a, b))
        bound = original(kind, f, order, a, b)

        def values(ts):
            out = bound(ts)
            calls.append((kind, order, a, ts.copy(), out.copy()))
            return out

        return values

    monkeypatch.setattr(operators, "_bind", binding)
    return binds, calls


def record_errors(monkeypatch):
    """Records ``norms._error``: returns the lists (binds, calls), the
    arguments (kind, f, order, a, b) of each bind, and the points of each
    call of a bound error function."""
    from fracorder import norms

    binds, calls = [], []
    original = norms._error

    def binding(kind, f, order, a, b):
        binds.append((kind, f, order, a, b))
        error = original(kind, f, order, a, b)

        def values(ts, *args):
            calls.append(ts.copy())
            return error(ts, *args)

        return values

    monkeypatch.setattr(norms, "_error", binding)
    return binds, calls
