"""What the frozen benchmark reads from the package.

`perfbench/tracer.py` wraps the functions in its ``TARGETS`` and reads
``.Ptilde.coeffs`` from each `bundle.pullback_fiber` result.  A rename
would only show as ``missing_targets`` in a traced benchmark run; here
it fails the test suite instead.  The tracer is imported as it is and
nothing is wrapped.

`perfbench/check.py` checks every benchmark report; the golden reports
of the benchmark's three subcommands must pass it, so a report the
benchmark would count as an incorrect operation fails here first.  Its
local-table check also runs on the golden `surface` reports.

The tracer counts the scan's decisions where the scan looks
``conic_decide`` up, in `chatelet._kernel.pure`; the scan must reach it
there, and stop at its first hit.  On Iskovskikh's surface the
reciprocity rule leaves it no fiber at all.

The tracer wraps the targets only in the ``chatelet`` modules that are
in ``sys.modules`` after ``import chatelet.cli``, so that import must
list every module of the package, executed or not; a traced `bundle`
run checks that its spans are recorded.
"""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chatelet._kernel import pure
from chatelet.bundle import make_bundle, pullback, pullback_fiber
from chatelet.quartic import BinaryQuartic
from chatelet.surface import (
    ChateletSurface,
    build_surface,
    find_params,
    iskovskikh,
    rational_point_search,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).parent / "data" / "golden"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def check():
    return _load("check")


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


@pytest.mark.parametrize("checker, golden", [
    ("check_counterexample", "counterexample_height40"),
    ("check_counterexample", "counterexample_height150"),
    ("check_counterexample", "counterexample_height500"),
    ("check_counterexample", "counterexample_height2000"),
    ("check_iskovskikh", "iskovskikh_height80"),
    ("check_iskovskikh", "iskovskikh_height1000"),
    ("check_iskovskikh", "iskovskikh_height4000"),
    ("check_bundle", "bundle_fibers4"),
    ("check_bundle", "bundle_fibers50"),
])
def test_golden_passes_benchmark_check(check, checker, golden):
    report = json.loads((GOLDEN / f"{golden}.json").read_text())
    failures, record_failures = getattr(check, checker)(
        report, report["config"]["seed"])
    assert failures == []
    assert all(r == [] for r in record_failures), record_failures


@pytest.mark.parametrize("golden", [
    "surface_stdin_height20",
    "surface_alpha17_height20",
    "surface_alpha_minus3_height20",
    "surface_real_gap_height20",
    "surface_class_disc_height20",
    "surface_degenerate_disc_height20",
])
def test_golden_local_table_passes_benchmark_check(check, golden):
    # every row of the local table is recomputed with sympy, so a golden
    # table is checked on its own, not only compared byte for byte
    stages = json.loads((GOLDEN / f"{golden}.json").read_text())["stages"]
    failures = check._Failures()
    check._check_local(failures, stages["local"],
                       Fraction(stages["surface"]["alpha"]),
                       stages["surface"]["P"])
    assert failures == []


def _traced_decisions(monkeypatch, S, H):
    """The search's result and the `conic_decide` calls that the tracer
    would count."""
    calls = []
    real = pure.conic_decide
    monkeypatch.setattr(pure, "conic_decide",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    return rational_point_search(S, H), calls


def test_scan_decides_through_traced_name(monkeypatch):
    # P~ = -(x^2 - 6)(x^2 - x - 1) and alpha = 3: the symbol
    # (3, -(x^2 - 6))_2 takes both values on the discs at 2, so the
    # reciprocity rule does not hold and the scan decides fibers
    S = ChateletSurface(alpha=Fraction(3),
                        Ptilde=BinaryQuartic((-6, -6, 7, 1, -1)),
                        provenance="user")
    H = 100
    result, calls = _traced_decisions(monkeypatch, S, H)
    assert result.x == (-91, 2)
    # x = infinity, then every coprime (m, n) with |m| <= H, 1 <= n <= H
    fibers = 1 + sum(math.gcd(m, n) == 1
                     for n in range(1, H + 1) for m in range(-H, H + 1))
    assert 0 < len(calls) < fibers


def test_reciprocity_leaves_iskovskikh_no_decision(monkeypatch):
    # the symbols of (-1, 3 - x^2) are +1 at oo and -1 at 2 on every
    # fiber with a point there, so no fiber is decided
    result, calls = _traced_decisions(monkeypatch, iskovskikh(), 100)
    assert not result.found
    assert calls == []


def test_cli_import_lists_every_package_module():
    # a module that first appears in sys.modules while another executes
    # keeps the names it imported unwrapped, and the spans of its calls
    # are lost without a missing target
    src = PERFBENCH.parent / "src"
    want = sorted(".".join(path.relative_to(src).with_suffix("").parts)
                  .removesuffix(".__init__")
                  for path in (src / "chatelet").rglob("*.py"))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, chatelet.cli; "
         "print(sorted(m for m in sys.modules"
         " if m.partition('.')[0] == 'chatelet'))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == str(want)


def test_traced_bundle_records_bundle_spans(tmp_path):
    # a module that `cli` imported only inside a subcommand would keep
    # its own functions unwrapped, with no span and no missing target
    src = str(PERFBENCH.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, CHATELET_PURE_KERNEL="1",
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    prefix = str(tmp_path / "bundle")
    run = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"),
                          prefix, "--", "bundle", "--fibers", "2"],
                         env=env, capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr
    trace = json.loads(Path(prefix + ".layers.json").read_text())
    assert trace["missing_targets"] == []
    for name in ("bundle.bad_fibers", "bundle.verify_pullback",
                 "bundle.pullback_fiber"):
        assert trace["layers"][name]["calls"] > 0, name
    # t = 0, 1, -1; t and -t lie over one fiber of the base bundle
    assert trace["counters"]["bundle.fibers.verified"] == 3
    assert trace["counters"]["bundle.fibers.distinct"] == 2
