"""The public names of the package, and the module bindings tools rely on."""

from __future__ import annotations

import importlib
import pathlib

import pytest

import molien


def test_every_exported_name_resolves():
    assert len(molien.__all__) == len(set(molien.__all__))
    for name in molien.__all__:
        assert getattr(molien, name) is not None


@pytest.mark.parametrize(
    "module, name",
    [
        ("molien.action", "induced_matrix"),
        ("molien.polynomials", "substitute_linear"),
        ("molien.invariants", "reynolds_matrix"),
        ("molien.matrices", "row_reduce"),
        ("molien.matrices", "det_one_minus_lambda"),
    ],
)
def test_traced_functions_stay_bound(module, name):
    # profilers and the benchmark tracer patch these by module attribute
    assert callable(getattr(importlib.import_module(module), name))


def test_one_exact_scalar_core():
    assert molien.GaussianRational.__module__ == "molien.scalars"
    assert molien.ACTIVE_IMPLEMENTATION == "python"
    # tracers patch coercion on the class itself
    assert "coerce" in molien.ScalarBackend.__dict__


def test_no_module_reads_the_environment():
    package = pathlib.Path(molien.__file__).parent
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        assert "environ" not in text and "getenv" not in text, path.name
