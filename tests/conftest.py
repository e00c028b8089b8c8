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
