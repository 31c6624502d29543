"""The names the frozen benchmark's tracer reads from the package.

`perfbench/tracer.py` wraps the functions in its ``TARGETS`` and reads
``.Ptilde.coeffs`` from each `bundle.pullback_fiber` result.  A rename
would only show as ``missing_targets`` in a traced benchmark run; here
it fails the test suite instead.  The tracer is imported as it is and
nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from chatelet.bundle import make_bundle, pullback, pullback_fiber
from chatelet.surface import build_surface, find_params

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_resolve(tracer):
    assert tracer.TARGETS
    for span_name, modname, attr in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr)), \
            span_name


def test_pullback_fiber_has_quartic_coeffs(tracer):
    W = pullback(make_bundle(build_surface(find_params(100))), 3)
    fiber = pullback_fiber(W, (1, 1))
    assert len(tuple(fiber.Ptilde.coeffs)) == 5
    # the observer the tracer attaches to pullback_fiber reads it
    rec = tracer.Recorder()
    tracer.OBSERVERS["bundle.pullback_fiber"](rec, 0, (W, (1, 1)), {}, fiber)
    assert rec.fiber_keys[0] == tuple(fiber.Ptilde.coeffs)
