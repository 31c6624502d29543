"""End-to-end benchmark of the ``chatelet`` CLI on the pure-Python kernel.

    python3 perfbench/run.py --workload ce-scan --seed 1 --seconds 35 --trace 0

Run from the repository root.  Each operation is one CLI process started
from source (``src`` on ``PYTHONPATH``, ``CHATELET_PURE_KERNEL=1``), one at
a time, so each has the machine's other CPU to itself.  After one warm-up
import, a run repeats whole rounds while a typical round still ends within
``--seconds``.  Each round times one set-up probe (interpreter start plus
``import chatelet.cli``), then:

* ``--trace 0``: one CLI invocation.  Prints the end-to-end metrics, the
  medians over the run's invocations (at least ``MIN_ROUNDS``) and
  set-up probes (topped up to ``SETUP_REPS``).
* ``--trace 1``: one plain invocation and one under
  ``perfbench/tracer.py``.  Prints the per-layer metrics (medians over
  the traced invocations) and the tracing overhead.

Every report is checked outside the timed region by ``perfbench/check.py``,
and all reports of a run must be byte-identical.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full record of the run, with every sample, is
written to ``.perfbench/results/``; the last traced invocation's spans to
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import CHECKS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# name -> (CLI arguments, fiber records per report); --seed <n> is
# appended.  Why each was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    "ce-scan": (["counterexample", "--height", "150"], 0),
    "isk-scan": (["iskovskikh", "--height", "1000"], 0),
    # t = 0, 1, -1, 2, -2
    "bundle-verify": (["bundle", "--fibers", "4"], 5),
}

# set-up is timed once per round, and after the rounds until there are
# SETUP_REPS samples, so that it is sampled across the whole run
SETUP_REPS = 5
MIN_ROUNDS = 2
SETUP_CODE = ("import chatelet.cli, chatelet; "
              "print(getattr(chatelet, 'KERNEL_BACKEND', 'unknown'))")

# span name -> the aggregates reported for it
LAYERS = (
    ("numbers.is_prime", ("calls", "time_s", "self_s")),
    ("numbers.factorize", ("calls", "time_s", "self_s")),
    ("numbers.partial_factorize", ("calls", "time_s", "self_s")),
    ("numbers.squarefree_part", ("time_s", "self_s")),
    ("local.hilbert_symbol", ("calls", "time_s", "self_s")),
    ("local.conic_solvable_global", ("calls", "time_s", "self_s")),
    ("kernel.conic_scan", ("calls", "time_s", "self_s")),
    ("kernel.conic_decide", ("calls", "time_s", "self_s")),
    ("quartic.quartic_disc", ("calls",)),
    ("quartic.quartic_irreducible", ("calls", "time_s", "self_s")),
    ("surface.verify_local_everywhere", ("calls", "time_s", "self_s")),
    ("surface.local_solvable_surface", ("calls", "time_s", "self_s")),
    ("surface.obstruction_report", ("time_s", "self_s")),
    ("surface.sample_certified_points", ("time_s", "self_s")),
    ("surface.rational_point_search", ("calls", "time_s", "self_s")),
    ("bundle.bad_fibers", ("time_s", "self_s")),
    ("bundle.verify_pullback", ("time_s", "self_s")),
)
COUNTERS = (
    ("local.witness.calls", "count"),
    ("local.witness.found", "count"),
    ("local.witness.time_s", "s"),
    ("kernel.conic_decide.solvable", "count"),
    ("bundle.fibers.verified", "count"),
    ("bundle.fibers.distinct", "count"),
    ("bundle.fibers.duplicate_s", "s"),
)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    env["CHATELET_PURE_KERNEL"] = "1"
    return env


def spawn(argv: list[str], env: dict) -> dict:
    """Run one process to completion; wall time from start to exit, and
    the CPU time and peak RSS the kernel accounts to it."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"t0": t0, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode, "stdout": out}


class Checker:
    """Checks each invocation; a distinct report is checked once."""

    def __init__(self, workload: str, seed: int):
        args, self.records = WORKLOADS[workload]
        self.subcommand = args[0]
        self.seed = seed
        self.first: bytes | None = None
        self.cache: dict[bytes, tuple[list, list]] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, inv: dict, label: str) -> None:
        """Count the invocation and each of its fiber records as one
        operation."""
        n_ops = 1 + self.records
        self.attempted += n_ops
        out = inv["stdout"]
        if self.first is None:
            self.first = out
        head: list[str] = []
        if inv["exit"] != 0:
            head.append(f"exit code {inv['exit']}")
        if out != self.first:
            head.append("report differs from the run's first report")
        if out not in self.cache:
            self.cache[out] = self._check(out)
        whole, records = self.cache[out]
        head += whole
        records = list(records) + [["record missing"]] * (
            self.records - len(records))
        failed = [m for m in records[:self.records] if m]
        if head:
            # a failed invocation fails its records too: none was produced
            # by a run whose report can be trusted
            self.failed += n_ops
        else:
            self.failed += len(failed)
        for msg in head + [m for ms in failed for m in ms]:
            self.messages.append(f"{label}: {msg}")

    def _check(self, out: bytes) -> tuple[list, list]:
        try:
            report = json.loads(out)
            whole, records = CHECKS[self.subcommand](report, self.seed)
        except Exception as exc:  # noqa: BLE001 - any crash is a failed check
            return [f"check raised {type(exc).__name__}: {exc}"], []
        return list(whole), [list(r) for r in records]


def setup_probe(env: dict) -> dict:
    """Interpreter start plus ``import chatelet.cli``; prints the kernel."""
    return spawn([sys.executable, "-c", SETUP_CODE], env)


def layer_metrics(layers: dict, counters: dict) -> dict[str, float]:
    out = {}
    for name, keys in LAYERS:
        rec = layers.get(name, {})
        for key in keys:
            out[f"{name}.{key}"] = rec.get(key, 0)
    for name, _ in COUNTERS:
        out[name] = counters.get(name, 0)
    return out


def spawn_traced(tracer: list[str], prefix: str, env: dict,
                 checker: Checker, layers: list) -> dict:
    """One invocation under the tracer; its wall time ends when the report
    was flushed, before the trace is saved."""
    layers_path = Path(prefix + ".layers.json")
    layers_path.unlink(missing_ok=True)
    inv = spawn(tracer, env)
    checker.add(inv, "traced invocation")
    with open(layers_path) as fh:
        layer_file = json.load(fh)
    inv["process_s"] = inv["wall_s"]
    inv["wall_s"] = layer_file["report_done"] - inv["t0"]
    inv["kernel"] = layer_file["kernel"]
    layers.append(dict(layer_metrics(layer_file["layers"],
                                     layer_file["counters"]),
                       **{"trace.spans": layer_file["spans"]}))
    return inv


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    args = WORKLOADS[workload][0] + ["--seed", str(seed)]
    cli = [sys.executable, "-m", "chatelet.cli", *args]
    warm = setup_probe(env)
    if warm["exit"] != 0:
        raise SystemExit(f"cannot import chatelet.cli from {ROOT / 'src'}")
    kernel = warm["stdout"].decode().strip()
    setup: list[float] = []
    checker = Checker(workload, seed)
    plain, traced, layers = [], [], []
    trace_dir = OUT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    prefix = str(trace_dir / workload)
    tracer = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), prefix,
              "--", *args]
    start = time.monotonic()
    min_rounds = 1 if trace else MIN_ROUNDS
    rounds: list[float] = []
    # a round starts only if a typical round still ends within the budget
    while len(rounds) < min_rounds or (time.monotonic() - start
                                       + statistics.median(rounds) <= seconds):
        t_round = time.monotonic()
        setup.append(setup_probe(env)["wall_s"])
        inv = spawn(cli, env)
        checker.add(inv, f"invocation {len(plain) + 1}")
        plain.append(inv)
        if trace:
            traced.append(spawn_traced(tracer, prefix, env, checker, layers))
        rounds.append(time.monotonic() - t_round)
    while len(setup) < SETUP_REPS:
        setup.append(setup_probe(env)["wall_s"])
    med = statistics.median
    e2e = {
        "wall_s": med(i["wall_s"] for i in plain),
        "setup_s": med(setup),
        "cpu_s": med(i["cpu_s"] for i in plain),
        "peak_rss_mb": med(i["peak_rss_mb"] for i in plain),
    }
    per_layer = {}
    if trace:
        per_layer = {k: med(rec[k] for rec in layers) for k in layers[0]}
        per_layer["trace.wall_s"] = med(i["wall_s"] for i in traced)
        per_layer["trace.overhead_s"] = (per_layer["trace.wall_s"]
                                         - e2e["wall_s"])
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "kernel": kernel, "cli": args,
        "attempted": checker.attempted, "failed": checker.failed,
        "check_failures": checker.messages,
        "setup_s_samples": setup,
        "invocations": [{k: v for k, v in i.items() if k != "stdout"}
                        for i in plain],
        "traced_invocations": [{k: v for k, v in i.items() if k != "stdout"}
                               for i in traced],
        "end_to_end": e2e, "per_layer": per_layer,
    }


UNITS = dict(
    {f"{name}.{key}": "count" if key == "calls" else "s"
     for name, keys in LAYERS for key in keys},
    **dict(COUNTERS),
    **{"trace.spans": "count", "trace.wall_s": "s", "trace.overhead_s": "s",
       "wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "chatelet" / "cli.py").is_file():
        sys.stderr.write(f"no chatelet sources under {ROOT / 'src'}\n")
        return 1
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results_dir / name, "w") as fh:
        json.dump(result, fh, indent=1)
    for msg in result["check_failures"]:
        sys.stderr.write(f"check failed: {msg}\n")
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(f"workload {args.workload}, seed {args.seed}, kernel "
          f"{result['kernel']}: {len(result['invocations'])} invocations, "
          f"{result['attempted']} operations attempted, "
          f"{result['failed']} failed")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {UNITS[key]}")
    print(json.dumps({
        "correct": not result["check_failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
