"""The public names of the package, and the module bindings tools rely on."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

import molien

REPO = pathlib.Path(__file__).resolve().parents[1]


def _tracer_targets():
    """The (module, attribute) pairs the benchmark tracer wraps, read from its span lists."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", REPO / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _layer in spans.COARSE + spans.FINE]


def test_every_exported_name_resolves():
    assert len(molien.__all__) == len(set(molien.__all__))
    for name in molien.__all__:
        assert getattr(molien, name) is not None


@pytest.mark.parametrize(
    "module, name", _tracer_targets(), ids=[f"{m}-{a}" for m, a in _tracer_targets()]
)
def test_traced_functions_stay_bound(module, name):
    # the benchmark tracer patches these by module attribute, and methods
    # in their class's own namespace
    owner = importlib.import_module(module)
    if "." in name:
        cls_name, method = name.split(".")
        assert callable(getattr(owner, cls_name).__dict__[method])
    else:
        assert callable(getattr(owner, name))


def test_names_the_benchmark_reads():
    # the run metadata records ACTIVE_IMPLEMENTATION, and the distinct-det
    # count reads is_exact off each closed group's backend
    assert molien.ACTIVE_IMPLEMENTATION == "python"
    group = molien.close_group([molien.SquareMatrix([[-1]], molien.EXACT)])
    assert group.backend.is_exact is True
    assert molien.float_backend().is_exact is False


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
