"""The benchmark tracer's named boundaries all exist in ellipticlab.

`perfbench/tracer.py` wraps the functions and methods it names and computes
its per-layer metrics from their spans; a name that no longer resolves to
what the tracer wraps would make its layer read 0 instead of failing.  The
tracer wraps only plain functions (`inspect.isfunction`): a module-level one
defined in that module, or a method in its class's own namespace, so a
cache or other decorator on a traced name would drop its boundary silently.
The tracer module is loaded from its file and read, not edited.
"""

import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from ellipticlab import spectral

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(dotted: str) -> bool:
    """Whether "module.function" or "module.Class.method" names a plain
    function the tracer's `install` would wrap in ellipticlab.<module>."""
    module, *path = dotted.split(".")
    mod = importlib.import_module(f"ellipticlab.{module}")
    if len(path) == 1:
        obj = vars(mod).get(path[0])
        return inspect.isfunction(obj) and obj.__module__ == mod.__name__
    cls, method = path
    owner = vars(mod).get(cls)
    return inspect.isclass(owner) and inspect.isfunction(vars(owner).get(method))


def traced_names(tracer) -> set:
    names = {span for span in tracer.EXPECTED.values() if not span.startswith("kernel:")}
    names |= {f"harness.{name}" for name in tracer.EXPERIMENTS}
    names |= {f"{module}.{cls}.{method}"
              for module, classes in tracer.CLASS_METHODS.items()
              for cls, methods in classes.items() for method in methods}
    names |= set(tracer.WRITERS)
    names |= {span for spans in tracer.SPECTRAL_GROUPS.values() for span in spans}
    return names


def test_every_traced_name_resolves(tracer):
    names = traced_names(tracer)
    assert len(names) > 30
    assert sorted(name for name in names if not resolves(name)) == []


def test_a_missing_name_is_reported(tracer):
    assert not resolves("harness.no_such_experiment")
    assert not resolves("spectral.ResolventSolver.no_such_method")


def test_a_wrapped_function_is_reported(monkeypatch):
    cached = functools.lru_cache(maxsize=1)(spectral.default_test_matrices)
    monkeypatch.setattr(spectral, "default_test_matrices", cached)
    assert not resolves("spectral.default_test_matrices")
    assert resolves("spectral.error_matrix_norms")
