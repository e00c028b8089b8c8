"""The public names: every ``__all__`` entry resolves, once, and the names
that were folded into others stay gone."""

import importlib

import pytest

import fracorder

#: the submodules that declare ``__all__``
SUBMODULES = ["analysis", "funcat", "norms", "operators", "specfun"]


@pytest.mark.parametrize("name", ["fracorder", *(f"fracorder.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert [x for x in exported if not hasattr(module, x)] == []
    assert len(exported) == len(set(exported))


@pytest.mark.parametrize(
    "name",
    [
        "QuadratureScheme",
        "CaputoKernel",
        "CaputoFabrizioKernel",
        "DEFAULT_N_NODES",
        "CustomKernel",
        "KernelSpec",
        "generic_kernel_derivative",
    ],
)
def test_folded_names_are_gone(name):
    # no node count is left to pass: a value at a point runs to its own
    # tolerance and a whole grid sizes itself; OperatorKind names the C and
    # CF kernels, the only ones besides the RL integral's, and no custom
    # kernel is taken
    assert not hasattr(fracorder, name)
    assert name not in fracorder.__all__
    assert not hasattr(fracorder.operators, name)
