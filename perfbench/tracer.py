"""Run one ``chatelet`` CLI invocation with every layer boundary traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py OUT_PREFIX -- counterexample --height 150

The CLI report goes to standard output exactly as ``chatelet`` would
write it.  Before the CLI runs, the public functions listed in
``TARGETS`` are replaced, in every ``chatelet`` module that holds them,
by wrappers that record one span (name, start, end, parent) per call.
The package's code is not changed; the wrappers sit where its callers
look the names up.  Spans stay in memory until the report is written;
then two files are written:

* ``OUT_PREFIX.layers.json``: per-layer calls, inclusive and self times,
  the extra counters, and the monotonic time at which the report was
  flushed (the traced wall time ends there, before the trace is saved);
* ``OUT_PREFIX.spans``: one JSON header line, then the columns ``name``
  (uint16 index into the header's ``names``), ``start`` and ``end``
  (float64, ``time.perf_counter`` seconds) and ``parent`` (int32 span
  index, -1 for a root), each as a raw array; ``load_spans`` reads it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute).  The span name is the layer metric prefix.
TARGETS = (
    ("numbers.is_prime", "chatelet.numbers", "is_prime"),
    ("numbers.factorize", "chatelet.numbers", "factorize"),
    ("numbers.partial_factorize", "chatelet.numbers", "partial_factorize"),
    ("numbers.squarefree_part", "chatelet.numbers", "squarefree_part"),
    ("local.hilbert_symbol", "chatelet.local", "hilbert_symbol"),
    ("local.conic_solvable_global", "chatelet.local",
     "conic_solvable_global"),
    ("kernel.conic_scan", "chatelet._kernel.pure", "conic_scan"),
    ("kernel.conic_decide", "chatelet._kernel.pure", "conic_decide"),
    ("quartic.quartic_disc", "chatelet.quartic", "quartic_disc"),
    ("quartic.quartic_irreducible", "chatelet.quartic",
     "quartic_irreducible"),
    ("surface.verify_local_everywhere", "chatelet.surface",
     "verify_local_everywhere"),
    ("surface.local_solvable_surface", "chatelet.surface",
     "local_solvable_surface"),
    ("surface.obstruction_report", "chatelet.surface", "obstruction_report"),
    ("surface.sample_certified_points", "chatelet.surface",
     "sample_certified_points"),
    ("surface.rational_point_search", "chatelet.surface",
     "rational_point_search"),
    ("bundle.bad_fibers", "chatelet.bundle", "bad_fibers"),
    ("bundle.verify_pullback", "chatelet.bundle", "verify_pullback"),
    # one call per verified fiber: marks where each fiber's work begins
    ("bundle.pullback_fiber", "chatelet.bundle", "pullback_fiber"),
)

_COLUMNS = (("name", "H"), ("start", "d"), ("end", "d"), ("parent", "i"))


class Recorder:
    """Spans and counters of one process, kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, float] = defaultdict(int)
        # pullback_fiber span index -> the fiber quartic it returned
        self.fiber_keys: dict[int, tuple] = {}
        self._stack: list[int] = []

    def wrap(self, span_name, fn, observe=None):
        nid = len(self.names)
        self.names.append(span_name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if observe is not None:
                observe(self, idx, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def layers(self) -> dict[str, dict[str, float]]:
        """calls, time_s (summed durations) and self_s (durations minus
        those of direct children) per span name.  No traced function
        calls itself, so no time is counted twice."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "time_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["time_s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def fiber_duplicate_s(self) -> float:
        """Time spent on verified fibers whose quartic an earlier fiber of
        the same ``verify_pullback`` call already had.  A fiber's time runs
        from its ``pullback_fiber`` span to the next one, or to the end of
        the enclosing ``verify_pullback`` span."""
        if "bundle.pullback_fiber" not in self.names:
            return 0.0
        marker = self.names.index("bundle.pullback_fiber")
        total = 0.0
        by_parent: dict[int, list[int]] = defaultdict(list)
        for i in range(len(self.start)):
            if self.name[i] == marker:
                by_parent[self.parent[i]].append(i)
        for p, idxs in by_parent.items():
            seen = set()
            stop = self.end[p] if p >= 0 else self.end[idxs[-1]]
            bounds = [self.start[i] for i in idxs[1:]] + [stop]
            for i, nxt in zip(idxs, bounds):
                key = self.fiber_keys.get(i)
                if key in seen:
                    total += nxt - self.start[i]
                seen.add(key)
        return total

    def save_spans(self, path: str) -> None:
        header = {"names": self.names, "count": len(self.start),
                  "columns": [list(c) for c in _COLUMNS],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col, _ in _COLUMNS:
                getattr(self, col).tofile(fh)


def load_spans(path: str) -> tuple[list[str], dict[str, array]]:
    """Read a ``.spans`` file back: (names, {column: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for col, code in header["columns"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            cols[col] = arr
    return header["names"], cols


# observe(recorder, span index, args, kwargs, result), after the span ends


def _observe_decide(rec, idx, args, kwargs, result):
    if result:
        rec.counters["kernel.conic_decide.solvable"] += 1


def _observe_global(rec, idx, args, kwargs, result):
    want = kwargs.get("want_witness", args[2] if len(args) > 2 else False)
    if want:
        rec.counters["local.witness.calls"] += 1
        rec.counters["local.witness.time_s"] += rec.end[idx] - rec.start[idx]
        if result[1] is not None:
            rec.counters["local.witness.found"] += 1


def _observe_verify(rec, idx, args, kwargs, result):
    rec.counters["bundle.fibers.verified"] += len(result.fibers)
    rec.counters["bundle.fibers.distinct"] += len(
        {r.fiber_param for r in result.fibers})


def _observe_fiber(rec, idx, args, kwargs, result):
    rec.fiber_keys[idx] = tuple(result.Ptilde.coeffs)


OBSERVERS = {
    "kernel.conic_decide": _observe_decide,
    "local.conic_solvable_global": _observe_global,
    "bundle.verify_pullback": _observe_verify,
    "bundle.pullback_fiber": _observe_fiber,
}


def install(rec: Recorder) -> list[str]:
    """Wrap every target in each loaded ``chatelet`` module that binds
    it.  Returns the targets that no longer exist (skipped)."""
    modules = [m for name, m in sys.modules.items()
               if name == "chatelet" or name.startswith("chatelet.")]
    missing = []
    for span_name, modname, attr in TARGETS:
        try:
            orig = getattr(importlib.import_module(modname), attr)
        except (ImportError, AttributeError):
            missing.append(f"{modname}.{attr}")
            continue
        wrapped = rec.wrap(span_name, orig, OBSERVERS.get(span_name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    prefix, cli_argv = argv[0], argv[2:]
    import chatelet
    import chatelet.cli

    rec = Recorder()
    missing = install(rec)
    code = chatelet.cli.main(cli_argv)
    sys.stdout.flush()
    report_done = time.monotonic()
    layers = rec.layers()
    counters = dict(rec.counters)
    counters["bundle.fibers.duplicate_s"] = rec.fiber_duplicate_s()
    with open(prefix + ".layers.json", "w") as fh:
        json.dump({"exit_code": code, "report_done": report_done,
                   "kernel": getattr(chatelet, "KERNEL_BACKEND", None),
                   "spans": len(rec.start), "missing_targets": missing,
                   "layers": layers, "counters": counters}, fh, indent=1)
    rec.save_spans(prefix + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
