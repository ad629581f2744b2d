"""The benchmark tracer's named boundaries all exist in ellipticlab.

`perfbench/tracer.py` wraps the functions and methods it names and computes
its per-layer metrics from their spans; a name that no longer resolves would
make its layer read 0 instead of failing.  The tracer module is loaded from
its file and read, not edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(dotted: str) -> bool:
    """Whether "module.attr[.attr...]" names an attribute of ellipticlab.<module>."""
    module, *path = dotted.split(".")
    obj = importlib.import_module(f"ellipticlab.{module}")
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return callable(obj)


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
