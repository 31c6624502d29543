"""Command-line driver: end-to-end pipelines with bit-stable JSON reports.

Exit codes: 0 verification certified, 2 usage error, 3 stage failure,
4 verification ran but was inconclusive.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from fractions import Fraction
from typing import Optional

from chatelet import __version__


def _lazy_import(name: str):
    """The module `name`, bound in sys.modules and in its package now and
    executed at its first attribute read (`importlib.util.LazyLoader`),
    unless it is imported already."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    package, _, attr = name.rpartition(".")
    setattr(sys.modules[package], attr, module)
    spec.loader.exec_module(module)
    return module


# Each subcommand executes only the modules it reads, so `--version`, a
# usage error or `hilbert` start without compiling the pipeline.  Every
# module of the package is bound here, also `quartic` and `_kernel.pure`,
# which `cli` never reads: perfbench/tracer.py wraps its targets only in
# the chatelet modules in sys.modules after `import chatelet.cli`, so a
# module that first appeared while another executed would keep the
# names it imported unwrapped.  That holds until the benchmark change of
# ROADMAP item 8 fixes `tracer.install`.
numbers_mod = _lazy_import("chatelet.numbers")
local_mod = _lazy_import("chatelet.local")
_lazy_import("chatelet.quartic")
_lazy_import("chatelet._kernel.pure")
surface_mod = _lazy_import("chatelet.surface")
bundle_mod = _lazy_import("chatelet.bundle")

SCHEMA = "chatelet-report/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STAGE = 3
EXIT_INCONCLUSIVE = 4


def _point(x) -> Optional[list[str]]:
    if x is None:
        return None
    return [str(x[0]), str(x[1])]


def _local_report(rep) -> dict:
    return {
        "surface": rep.surface_id,
        "places": [
            {
                "place": str(r.place),
                "solvable": r.solvable,
                "x": _point(r.witness.x if r.witness else None),
                "certificate": (str(r.witness.certificate)
                                if r.witness else None),
            }
            for r in rep.results
        ],
        "good_places": rep.good_places_tag,
        "disc_cofactor": str(rep.uncertified_disc_cofactor),
        "all_solvable": rep.all_solvable,
    }


def _obstruction(rep) -> dict:
    return {
        "surface": rep.surface_id,
        "invariants": [
            {
                "place": str(r.place),
                "invariant": str(r.invariant),
                "samples": r.samples,
                "justification": r.justification,
            }
            for r in rep.records
        ],
        "good_places": rep.good_places_tag,
        "sum": str(rep.invariant_sum),
        "conclusion": rep.conclusion,
    }


def _search(res) -> dict:
    return {
        "height": res.height,
        "found": res.found,
        "x": _point(res.x),
        "witness": _point(res.witness),
        "note": res.note,
    }


def _fiber_record(r) -> dict:
    return {
        "t": _point(r.t),
        "fiber": _point((r.fiber_param.u, r.fiber_param.v)),
        "smooth": r.smooth,
        "irreducible": r.irreducible,
        "locally_solvable": r.locally_solvable,
        "bad_places": [str(v) for v in r.bad_places],
        "disc_cofactor": str(r.disc_cofactor),
        "point_found": r.point_found,
        "point": _point(r.point),
        "note": r.note,
    }


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_shell(args, subcommand: str) -> dict:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "out") and v is not None}
    return {
        "schema": SCHEMA,
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
    }


def _stop(report: dict, stage: str, error: Exception, args) -> int:
    """Emit the report cut at `stage` by `error`: "inconclusive" (exit 4)
    when a number left the certified range, "error" (exit 3) otherwise."""
    inconclusive = isinstance(error, numbers_mod.OutOfCertifiedRangeError)
    report["error"] = {"stage": stage, "message": str(error)}
    report["status"] = "inconclusive" if inconclusive else "error"
    _emit(report, args.out)
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_STAGE


# ---------------------------------------------------------------------------
# subcommands


def cmd_counterexample(args) -> int:
    report = _report_shell(args, "counterexample")
    stages: dict = {}
    report["stages"] = stages
    try:
        params = surface_mod.find_params(args.bound)
    except (surface_mod.ParamSearchError, ValueError) as e:
        return _stop(report, "find_params", e, args)
    stages["params"] = {"a": params.a, "b": params.b, "c": params.c}
    S = surface_mod.build_surface(params)
    stages["surface"] = surface_mod.surface_to_json(S)
    stages["surface"]["disc"] = str(S.disc)
    stages["local"] = _local_report(S.local)
    if not S.local.all_solvable:
        return _stop(report, "local", ArithmeticError(
            "constructed surface not locally solvable everywhere"), args)
    ob = surface_mod.obstruction_report(
        S, samples_per_place=args.samples, seed=args.seed)
    stages["obstruction"] = _obstruction(ob)
    stages["search"] = _search(
        surface_mod.rational_point_search(S, args.height))
    certified = (ob.conclusion == "no-rational-point-certified"
                 and not stages["search"]["found"])
    report["status"] = "certified" if certified else "inconclusive"
    _emit(report, args.out)
    return EXIT_OK if certified else EXIT_INCONCLUSIVE


def cmd_bundle(args) -> int:
    report = _report_shell(args, "bundle")
    stages: dict = {}
    report["stages"] = stages
    try:
        params = surface_mod.find_params(args.bound)
        S = surface_mod.build_surface(params)
        B = bundle_mod.make_bundle(S)
    except (surface_mod.ParamSearchError, ValueError) as e:
        return _stop(report, "build", e, args)
    stages["bundle"] = bundle_mod.bundle_to_json(B)
    F = B.bad
    stages["bad_fibers"] = {
        "fibers": [_point((f.u, f.v)) for f in F.fibers],
        "affine_classes": sorted(str(q) for q in F.affine_classes()),
    }
    if args.d is not None:
        d = args.d
    else:
        d = bundle_mod.good_d_candidates(F, 1)[0]
    try:
        W = bundle_mod.pullback(B, d)
    except ValueError as e:
        return _stop(report, "pullback", e, args)
    stages["pullback"] = {"d": str(d)}
    ts = bundle_mod.default_sample_ts(2 + args.fibers)
    try:
        rep = bundle_mod.verify_pullback(
            W, ts, search_H=args.height,
            obstruction_samples=args.samples, seed=args.seed)
    except (ValueError, ArithmeticError) as e:
        return _stop(report, "verify_pullback", e, args)
    stages["special_fiber"] = {
        "obstruction": _obstruction(rep.special),
        "search": _search(rep.special_search),
    }
    stages["fibers"] = [_fiber_record(r) for r in rep.fibers]
    stages["summary"] = {
        "sampled": len(rep.fibers),
        "locally_solvable": rep.n_solvable,
        "points_found": rep.n_points_found,
        "point_fraction": (f"{rep.n_points_found}/{len(rep.fibers)}"
                           if rep.fibers else "0/0"),
    }
    certified = rep.all_affine_ok  # special fiber already hard-checked
    report["status"] = "certified" if certified else "inconclusive"
    _emit(report, args.out)
    return EXIT_OK if certified else EXIT_INCONCLUSIVE


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def cmd_hilbert(args) -> int:
    report = _report_shell(args, "hilbert")
    a, b = args.a, args.b
    if a == 0 or b == 0:
        sys.stderr.write("hilbert: arguments must be nonzero\n")
        return EXIT_USAGE
    report["config"]["a"] = str(a)
    report["config"]["b"] = str(b)
    if args.place is not None:
        if args.place == "oo":
            v = local_mod.REAL
        else:
            try:
                p = int(args.place)
                prime = p >= 2 and numbers_mod.is_prime(p)
            except numbers_mod.OutOfCertifiedRangeError as e:
                return _stop(report, "symbol", e, args)
            except ValueError:
                prime = False
            if not prime:
                sys.stderr.write(
                    f"hilbert: --place must be 'oo' or a prime, "
                    f"got {args.place!r}\n")
                return EXIT_USAGE
            v = local_mod.finite_place(p)
        report["stages"] = {"symbol": {
            "place": str(v), "value": local_mod.hilbert_symbol(a, b, v)}}
    else:
        try:
            places = local_mod.support_places(a, b)
        except ValueError as e:
            return _stop(report, "table", e, args)
        table = [{"place": str(v),
                  "value": local_mod.hilbert_symbol(a, b, v)}
                 for v in places]
        product = 1
        for row in table:
            product *= row["value"]
        report["stages"] = {
            "table": table,
            "product": product,
            "product_formula_holds": product == 1,
        }
    report["status"] = "certified"
    _emit(report, args.out)
    return EXIT_OK


def _verify_surface(report: dict, S: surface_mod.ChateletSurface,
                    args) -> int:
    stages: dict = {}
    report["stages"] = stages
    stages["surface"] = surface_mod.surface_to_json(S)
    stages["surface"]["disc"] = str(S.disc)
    try:
        local = S.local
    except (ValueError, ArithmeticError) as e:
        return _stop(report, "local", e, args)
    stages["local"] = _local_report(local)
    try:
        search = surface_mod.rational_point_search(S, args.height)
    except numbers_mod.OutOfCertifiedRangeError as e:
        return _stop(report, "search", e, args)
    stages["search"] = _search(search)
    report["conclusion"] = _conclusion(local, search)
    report["status"] = "certified"
    _emit(report, args.out)
    return EXIT_OK


def _conclusion(local, search) -> str:
    """What the certified report shows: no local point at the first
    failing place, a rational point, or none up to the search height."""
    failing = [r.place for r in local.results if not r.solvable]
    if failing:
        return f"not-locally-solvable at {failing[0]}"
    return "point-found" if search.found else "none-up-to-height"


def cmd_iskovskikh(args) -> int:
    report = _report_shell(args, "iskovskikh")
    return _verify_surface(report, surface_mod.iskovskikh(), args)


def cmd_surface(args) -> int:
    report = _report_shell(args, "surface")
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input) as fh:
                text = fh.read()
    except OSError as e:
        sys.stderr.write(f"surface: cannot read input: {e}\n")
        return EXIT_USAGE
    try:
        S = surface_mod.surface_from_json(text)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
        sys.stderr.write(f"surface: invalid input: {e}\n")
        return EXIT_USAGE
    return _verify_surface(report, S, args)


# ---------------------------------------------------------------------------
# parser


def _at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}: {n}")
        return n
    parse.__name__ = "int"  # argparse's message for a non-integer
    return parse


def _common(sub, height=100):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--height", type=_at_least(0), default=height,
                     help="height bound for rational point search")
    sub.add_argument("--samples", type=_at_least(1), default=20,
                     help="certified local points per place")
    sub.add_argument("--out", help="write the JSON report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chatelet",
        description="Chatelet surfaces violating the Hasse principle, "
                    "and surface bundles with one pointless fiber")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    ce = subs.add_parser("counterexample",
                         help="construct and certify the counterexample")
    _common(ce)
    ce.add_argument("--bound", type=int, default=100,
                    help="parameter search bound")
    ce.set_defaults(func=cmd_counterexample)

    bu = subs.add_parser("bundle",
                         help="build and verify the pulled-back bundle")
    _common(bu)
    bu.add_argument("--bound", type=int, default=100)
    bu.add_argument("--fibers", type=_at_least(0), default=50,
                    help="number of sampled affine fibers beyond 0")
    bu.add_argument("--d", type=int, default=None,
                    help="override the base-change coefficient")
    bu.set_defaults(func=cmd_bundle)

    hi = subs.add_parser("hilbert", help="Hilbert symbol table")
    hi.add_argument("a", type=_parse_rational)
    hi.add_argument("b", type=_parse_rational)
    hi.add_argument("--place", help="'oo' or a prime; default: full table")
    hi.add_argument("--out")
    hi.set_defaults(func=cmd_hilbert)

    isk = subs.add_parser("iskovskikh",
                          help="local table and search on the classical "
                               "surface y^2+z^2 = (x^2-2)(3-x^2)")
    _common(isk, height=500)
    isk.set_defaults(func=cmd_iskovskikh)

    su = subs.add_parser("surface", help="verify a serialized surface")
    su.add_argument("input", help="JSON file, or '-' for stdin")
    _common(su)
    su.set_defaults(func=cmd_surface)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
