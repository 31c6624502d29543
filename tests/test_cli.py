"""CLI subcommands, exit codes and byte-determinism."""

import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from chatelet import bundle as bundle_mod
from chatelet import surface as surface_mod
from chatelet.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_STAGE,
    EXIT_USAGE,
    SCHEMA,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


GOLDEN = Path(__file__).parent / "data" / "golden"

SURFACE_INPUT = '{"alpha": "2", "P": ["6","0","0","0","1"]}'

# stdin of the golden cases that read one; the rest get SURFACE_INPUT
GOLDEN_STDIN = {
    "surface_alpha17_height20": '{"alpha":"17","P":["0","1","0","0","1/2"]}',
    "surface_alpha_minus3_height20":
        '{"alpha":"-3","P":["0","1","0","0","1/2"]}',
    "surface_real_gap_height20":
        '{"alpha":"-2","P":["-1","-7","17","-7","-5"]}',
    "surface_class_disc_height20":
        '{"alpha":"-1","P":["-17","-28","5","-24","12"]}',
    "surface_degenerate_disc_height20":
        '{"alpha":"-1","P":["-26","-22","9","9","-2"]}',
    "surface_unsolvable_at3_height20":
        '{"alpha":"21","P":["21","0","2","30","-15"]}',
}


class TestHilbert:
    def test_table(self, capsys):
        code, rep = run_json(capsys, "hilbert", "697", "41")
        assert code == EXIT_OK
        assert rep["schema"] == SCHEMA
        table = {row["place"]: row["value"]
                 for row in rep["stages"]["table"]}
        assert table == {"oo": 1, "2": 1, "17": -1, "41": -1}
        assert rep["stages"]["product_formula_holds"]

    def test_single_place(self, capsys):
        code, rep = run_json(capsys, "hilbert", "697", "12",
                             "--place", "17")
        assert code == EXIT_OK
        assert rep["stages"]["symbol"] == {"place": "17", "value": -1}

    def test_trivial(self, capsys):
        code, rep = run_json(capsys, "hilbert", "1", "1")
        assert code == EXIT_OK
        assert all(r["value"] == 1 for r in rep["stages"]["table"])

    def test_zero_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "hilbert", "0", "1")
        assert code == EXIT_USAGE

    def test_bad_place_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "hilbert", "3", "5", "--place", "6")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("place", ["1", str(2**64 - 1), "-7", "x",
                                       str(2**65)])
    def test_non_prime_place_is_usage_error(self, capsys, place):
        # 2^64 - 1 is composite and certified so; so is 2^65, past the
        # certified range
        code, out = run_cli(capsys, "hilbert", "697", "41",
                            "--place", place)
        assert code == EXIT_USAGE and out == ""

    def test_place_past_64_bits_is_inconclusive(self, capsys):
        # 2^64 + 13 is prime, but not certifiably so
        code, rep = run_json(capsys, "hilbert", "697", "41",
                             "--place", str(2**64 + 13))
        assert code == EXIT_INCONCLUSIVE
        assert rep["status"] == "inconclusive"
        assert rep["error"]["stage"] == "symbol"
        assert "certified 64-bit range" in rep["error"]["message"]

    def test_rational_arguments(self, capsys):
        code, rep = run_json(capsys, "hilbert", "--", "-1/2", "3/5")
        assert code == EXIT_OK
        assert rep["stages"]["product"] == 1

    @pytest.mark.parametrize("a, b", [("3", "-6/4"), ("-1/2", "3/5"),
                                      ("-6/4", "-.5")])
    def test_negative_rational_needs_no_separator(self, capsys, a, b):
        # argparse's own rule on Python 3.10 to 3.13.0 reads -6/4 as an
        # option, so that the second argument is missing
        code, out = run_cli(capsys, "hilbert", a, b)
        assert code == EXIT_OK
        assert (code, out) == run_cli(capsys, "hilbert", "--", a, b)

    def test_past_64_bits_is_inconclusive(self, capsys):
        # the support needs the primes of a prime past 2^64
        code, rep = run_json(capsys, "hilbert", str(2**64 + 13), "3")
        assert code == EXIT_INCONCLUSIVE
        assert rep["status"] == "inconclusive"
        assert rep["error"]["stage"] == "table"
        assert "certified 64-bit range" in rep["error"]["message"]


class TestCounterexample:
    def test_pipeline(self, capsys):
        code, rep = run_json(capsys, "counterexample", "--height", "60")
        assert code == EXIT_OK
        assert rep["status"] == "certified"
        st = rep["stages"]
        assert st["params"] == {"a": 41, "b": 17, "c": 12}
        assert st["surface"]["P"] == ["5916", "0", "985", "0", "41"]
        assert st["local"]["all_solvable"]
        assert st["obstruction"]["sum"] == "1/2"
        assert st["obstruction"]["conclusion"] == \
            "no-rational-point-certified"
        assert not st["search"]["found"]

    def test_stage_failure(self, capsys):
        code, rep = run_json(capsys, "counterexample", "--bound", "16")
        assert code == EXIT_STAGE
        assert rep["status"] == "error"
        assert rep["error"]["stage"] == "find_params"
        assert "not found below bound" in rep["error"]["message"]

    def test_surface_facts_computed_once(self, capsys, monkeypatch):
        # the local table and the obstruction share one local pass and
        # one discriminant
        calls = {"quartic_disc": [], "verify_local_everywhere": []}
        for name, seen in calls.items():
            real = getattr(surface_mod, name)
            monkeypatch.setattr(surface_mod, name,
                                lambda S, real=real, seen=seen:
                                seen.append(S) or real(S))
        code, _ = run_json(capsys, "counterexample", "--height", "20")
        assert code == EXIT_OK
        assert {k: len(v) for k, v in calls.items()} == \
            {"quartic_disc": 1, "verify_local_everywhere": 1}

    def test_unproved_obstruction_is_stage_failure(self, capsys,
                                                   monkeypatch):
        # without reciprocity bits the report cannot prove the invariants,
        # and the run stops at the obstruction instead of a traceback
        monkeypatch.setattr(surface_mod.ChateletSurface, "brauer",
                            property(lambda S: None))
        code, rep = run_json(capsys, "counterexample", "--height", "5")
        assert code == EXIT_STAGE
        assert rep["status"] == "error"
        assert rep["error"]["stage"] == "obstruction"
        assert "obstruction" not in rep["stages"]

    def test_byte_determinism(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code = main(["counterexample", "--height", "40",
                         "--seed", "5", "--out", str(p)])
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestBundle:
    def test_pipeline(self, capsys):
        code, rep = run_json(capsys, "bundle", "--fibers", "6",
                             "--height", "60")
        assert code == EXIT_OK
        assert rep["status"] == "certified"
        st = rep["stages"]
        assert st["special_fiber"]["obstruction"]["sum"] == "1/2"
        assert not st["special_fiber"]["search"]["found"]
        assert st["summary"]["sampled"] == 7  # t = 0 and six affine
        assert st["summary"]["locally_solvable"] == 7
        for rec in st["fibers"]:
            assert rec["smooth"]
            assert rec["locally_solvable"]

    def test_fibers_zero(self, capsys):
        code, rep = run_json(capsys, "bundle", "--fibers", "0",
                             "--height", "40")
        assert code == EXIT_OK
        assert rep["stages"]["summary"]["sampled"] == 1  # just t = 0

    def test_bad_fibers_computed_once(self, capsys, monkeypatch):
        # the run, its pullback and its verification share one bad set
        calls = []
        real = bundle_mod.bad_fibers
        monkeypatch.setattr(bundle_mod, "bad_fibers",
                            lambda B: calls.append(B) or real(B))
        code, _ = run_json(capsys, "bundle", "--fibers", "0",
                           "--height", "5")
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_bad_d_rejected(self, capsys):
        code, rep = run_json(capsys, "bundle", "--d", "4",
                             "--fibers", "2")
        assert code == EXIT_STAGE
        assert rep["error"]["stage"] == "pullback"

    def test_d_that_fails_locally_is_not_certified(self, capsys):
        # d = 3 passes the square-class check, but t = +-2 and t = +-3
        # give fibers with no 5-adic point: t -> 3 t^2 alone cannot serve
        # this d, and the run must say so rather than certify the family
        code, rep = run_json(capsys, "bundle", "--d", "3", "--fibers", "8")
        assert code == EXIT_INCONCLUSIVE
        assert rep["status"] == "inconclusive"
        failed = [(f["t"][0], f["fiber"]) for f in rep["stages"]["fibers"]
                  if not f["locally_solvable"]]
        assert failed == [("2", ["3", "4"]), ("-2", ["3", "4"]),
                          ("3", ["1", "3"]), ("-3", ["1", "3"])]
        assert rep["stages"]["summary"]["locally_solvable"] == 5
        assert rep["stages"]["summary"]["sampled"] == 9

    @pytest.mark.parametrize("argv, stage", [
        # d itself is a prime past 2^64: its square class is uncertified
        (["--d", str(2**64 + 13)], "pullback"),
        # a fiber value of the fiber scan has a prime factor past 2^64
        (["--d", "10000000019", "--fibers", "1"], "verify_pullback"),
    ])
    def test_past_64_bits_is_inconclusive(self, capsys, argv, stage):
        code, rep = run_json(capsys, "bundle", *argv)
        assert code == EXIT_INCONCLUSIVE
        assert rep["status"] == "inconclusive"
        assert rep["error"]["stage"] == stage
        assert "certified 64-bit range" in rep["error"]["message"]

    def test_byte_determinism(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code = main(["bundle", "--fibers", "4", "--height", "40",
                         "--seed", "9", "--out", str(p)])
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestIskovskikh:
    def test_run(self, capsys):
        code, rep = run_json(capsys, "iskovskikh", "--height", "80")
        assert code == EXIT_OK
        st = rep["stages"]
        assert st["surface"]["P"] == ["-6", "0", "5", "0", "-1"]
        assert st["local"]["all_solvable"]
        assert not st["search"]["found"]


class TestSurface:
    def test_stdin(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"alpha": "2", "P": ["6","0","0","0","1"]}')
        code, rep = run_json(capsys, "surface", str(path),
                             "--height", "20")
        assert code == EXIT_OK
        assert rep["stages"]["search"]["found"]
        assert rep["conclusion"] == "point-found"

    def test_past_64_bits_is_inconclusive(self, capsys, monkeypatch):
        # the fiber scan meets a cofactor beyond the certified range
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"alpha": "-1", "P": ["1","0","0","0","73786976294838206473"]}'))
        code, rep = run_json(capsys, "surface", "-", "--height", "20")
        assert code == EXIT_INCONCLUSIVE
        assert rep["status"] == "inconclusive"
        assert rep["error"]["stage"] == "search"
        assert "certified 64-bit range" in rep["error"]["message"]
        assert rep["stages"]["local"]["all_solvable"]
        assert "search" not in rep["stages"]

    def test_found_fiber_past_64_bits_is_a_point(self, capsys, monkeypatch):
        # (11 x^2 + q1)(7 x^2 + q2), alpha = 7: the value at the hit
        # (-23 : 6) is past 2^64, and its point comes from the class
        # that the scan's decision of the two parts returned
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"alpha": "7", "P": ["1117599346600586289630389", "0",'
            ' "20875690450046", "0", "77"]}'))
        code, rep = run_json(capsys, "surface", "-", "--height", "30")
        assert code == EXIT_OK
        assert rep["conclusion"] == "point-found"
        assert rep["stages"]["search"]["x"] == ["-23", "6"]

    def test_uncertified_content_prime_is_inconclusive(self, capsys,
                                                      monkeypatch):
        # the content N = 1000003 (2^64 + 13) of the integer model shares
        # its primes with the discriminant's cofactor past trial division,
        # so a bad place cannot be certified
        N = 1000003 * (2**64 + 13)
        monkeypatch.setattr("sys.stdin", io.StringIO(
            f'{{"alpha": "3", "P": [{N}, 0, 0, 0, {N}]}}'))
        code, rep = run_json(capsys, "surface", "-", "--height", "0")
        assert code == EXIT_INCONCLUSIVE
        assert rep["status"] == "inconclusive"
        assert rep["error"] == {
            "stage": "local",
            "message": "cannot certify large discriminant factors as "
                       "good places"}

    def test_place_past_walk_bound_is_inconclusive(self, capsys,
                                                   monkeypatch):
        # no one of the six points certifies a local point at 100003, a
        # prime of alpha past the bound of the residue walk
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"alpha":"100003","P":["2","2","-5","0","19"]}'))
        code, rep = run_json(capsys, "surface", "-", "--height", "5")
        assert code == EXIT_INCONCLUSIVE
        assert rep["status"] == "inconclusive"
        assert rep["error"] == {
            "stage": "local",
            "message": "place 100003 too large for exact residue "
                       "enumeration"}

    def test_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_cli(capsys, "surface", str(path))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("text", [
        '[1]',
        '{"alpha": null, "P": ["6","0","0","0","1"]}',
        '{"alpha": "2", "P": 5}',
        '{"alpha": "1/0", "P": ["6","0","0","0","1"]}',
        '{"alpha":"2","P":[6,0,0,0,1],"provenance":{"a":[1]}}',
        '{"alpha": "2", "P": [6, 0, 0, 0, 1], "provenance": 7}',
    ])
    def test_malformed_input(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out = run_cli(capsys, "surface", "-")
        assert code == EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("text", [
        '{"alpha": true, "P": [1, 0, 0, 0, 1.5]}',
        '{"alpha": 0.1, "P": ["1", "0", "0", "0", "1"]}',
        '{"alpha": "2", "P": [6, 0, 0, 0, 1.0]}',
        '{"alpha": "2", "P": [6, false, 0, 0, 1]}',
        '{"alpha": NaN, "P": [6, 0, 0, 0, 1]}',
        '{"alpha": "2", "P": "60001"}',
    ])
    def test_float_bool_and_string_quartic_rejected(self, capsys,
                                                    monkeypatch, text):
        # a JSON float is not the rational it was written as: 0.1 would
        # become 3602879701896397/36028797018963968, and true would be 1
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main(["surface", "-", "--height", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("surface: invalid input: ")

    @pytest.mark.parametrize("text, alpha, P", [
        ('{"alpha": 2, "P": [6, 0, 0, 0, 1]}', "2", ["6", "0", "0", "0", "1"]),
        ('{"alpha": "0.5", "P": ["6", "0", "0", "0", "1/2"]}',
         "1/2", ["6", "0", "0", "0", "1/2"]),
        ('{"alpha": "-3/6", "P": [-1, "2.25", 0, 0, 12345678901234567890]}',
         "-1/2", ["-1", "9/4", "0", "0", "12345678901234567890"]),
    ])
    def test_ints_and_rational_strings_accepted(self, capsys, monkeypatch,
                                                text, alpha, P):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, rep = run_json(capsys, "surface", "-", "--height", "3")
        assert code == EXIT_OK
        assert rep["stages"]["surface"]["alpha"] == alpha
        assert rep["stages"]["surface"]["P"] == P

    @pytest.mark.parametrize("name", ["nonexistent.json", "."])
    def test_unreadable_input(self, capsys, tmp_path, name):
        # a missing file (FileNotFoundError) and a directory
        # (IsADirectoryError) are usage errors, not tracebacks
        code = main(["surface", str(tmp_path / name)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("surface: cannot read input: ")

    def test_conclusion_names_failing_place(self, capsys, monkeypatch):
        # alpha < 0 and P < 0 everywhere: no real point, so the certified
        # report must not read like an empty search
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"alpha":"-1","P":["-1","0","0","0","-1"]}'))
        code, rep = run_json(capsys, "surface", "-", "--height", "10")
        assert code == EXIT_OK
        assert rep["status"] == "certified"
        assert rep["conclusion"] == "not-locally-solvable at oo"
        assert not rep["stages"]["local"]["all_solvable"]
        assert not rep["stages"]["search"]["found"]

    def test_singular_surface_is_stage_failure(self, capsys, tmp_path):
        path = tmp_path / "sing.json"
        path.write_text('{"alpha": "2", "P": ["0","0","1","0","0"]}')
        code, rep = run_json(capsys, "surface", str(path))
        assert code == EXIT_STAGE
        assert rep["error"]["stage"] == "local"


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["counterexample", "--nope"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["counterexample", "--height", "-1"],
        ["bundle", "--height", "-2"],
        ["bundle", "--fibers", "-1"],
        ["iskovskikh", "--height", "-3"],
    ])
    def test_bad_count_rejected(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be at least" in err

    def test_samples_option_is_gone(self, capsys):
        # the invariants are proved, so no option sets a sample size
        assert main(["counterexample", "--samples", "5"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments" in err


def _run_fresh(body: str) -> str:
    """Standard output of `body`, run in a fresh interpreter after
    `from chatelet.cli import main`, with a surface on standard input."""
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        from chatelet.cli import main
        sys.stdin = io.StringIO({GOLDEN_STDIN["surface_real_gap_height20"]!r})
    """) + textwrap.dedent(body)
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_subcommands_never_import_sympy():
    """sympy is a test-side oracle only: no subcommand imports it, at the
    top of a module or lazily.  Checked in a fresh interpreter, since
    the test modules themselves import sympy."""
    out = _run_fresh("""
        runs = [
            ["hilbert", "697", "41"],
            ["counterexample", "--height", "20"],
            ["iskovskikh", "--height", "20"],
            ["bundle", "--fibers", "2"],
            ["surface", "-", "--height", "20"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in runs]
        print(codes, sorted(m for m in sys.modules
                            if m.partition(".")[0] == "sympy"))
    """)
    assert out == f"{[EXIT_OK] * 5} []"


def test_subcommands_never_import_dataclasses():
    """The records are namedtuples, so no subcommand pays for compiling
    `dataclasses` and the `inspect`, `ast` and `dis` it pulls in, nor for
    the methods a dataclass generates through `exec` at import."""
    out = _run_fresh("""
        runs = [
            ["hilbert", "697", "41"],
            ["counterexample", "--height", "20"],
            ["iskovskikh", "--height", "20"],
            ["bundle", "--fibers", "2"],
            ["surface", "-", "--height", "20"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in runs]
        print(codes, [m for m in ("dataclasses", "inspect", "ast", "dis")
                      if m in sys.modules])
    """)
    assert out == f"{[EXIT_OK] * 5} []"


# the package modules besides chatelet, chatelet._kernel and chatelet.cli
# that a subcommand reads through chatelet.surface
PIPELINE = ["_kernel.pure", "local", "numbers", "quartic", "surface"]


@pytest.mark.parametrize("argv, executed", [
    (None, []),
    (["--version"], []),
    (["hilbert", "697", "41"], ["local", "numbers"]),
    (["counterexample", "--height", "20"], PIPELINE),
    (["iskovskikh", "--height", "20"], PIPELINE),
    (["surface", "-", "--height", "20"], PIPELINE),
    (["bundle", "--fibers", "2"], ["bundle", *PIPELINE]),
], ids=["import", "version", "hilbert", "counterexample", "iskovskikh",
        "surface", "bundle"])
def test_entry_point_executes_only_what_it_reads(argv, executed):
    """Every package module is listed in sys.modules at `import
    chatelet.cli` but executed at its first attribute read, so each
    entry point compiles only the modules it runs.  A lazy module's
    class becomes ModuleType once it is executed."""
    out = _run_fresh(f"""
        import types
        code = 0
        if {argv!r} is not None:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main({argv!r})
        print(code, sorted(name for name, module in sys.modules.items()
                           if name.partition(".")[0] == "chatelet"
                           and type(module) is types.ModuleType))
    """)
    base = ["chatelet", "chatelet._kernel", "chatelet.cli"]
    assert out == f"{EXIT_OK} " + str(sorted(
        base + [f"chatelet.{name}" for name in executed]))


class TestGolden:
    """Reports byte for byte as the CLI wrote them when each file was
    last generated; refactors keep them."""

    @pytest.mark.parametrize("name, argv", [
        ("counterexample_height40", ["counterexample", "--height", "40"]),
        ("iskovskikh_height80", ["iskovskikh", "--height", "80"]),
        ("hilbert_697_41", ["hilbert", "697", "41"]),
        ("surface_stdin_height20", ["surface", "-", "--height", "20"]),
        ("bundle_fibers4", ["bundle", "--fibers", "4"]),
        # Fraction coefficients, P(0) = 0 (the point (0, 1) is a
        # degenerate witness at every place), alpha a square at 2 (17)
        # and negative (-3)
        ("surface_alpha17_height20", ["surface", "-", "--height", "20"]),
        ("surface_alpha_minus3_height20",
         ["surface", "-", "--height", "20"]),
        # 26 distinct fibers, the end-to-end bundle run
        ("bundle_fibers50", ["bundle", "--fibers", "50"]),
        # alpha < 0 and the six points fail at oo: the real witness is a
        # point of a sign region of P between its real roots
        ("surface_real_gap_height20", ["surface", "-", "--height", "20"]),
        # the benchmark's own scan runs (perfbench/run.py)
        ("counterexample_height150", ["counterexample", "--height", "150"]),
        ("iskovskikh_height1000", ["iskovskikh", "--height", "1000"]),
        # heights past the benchmark's runs, whose disc walks go deeper
        ("iskovskikh_height4000", ["iskovskikh", "--height", "4000"]),
        ("counterexample_height500", ["counterexample", "--height", "500"]),
        # every fiber up to 2000 ruled out by the reciprocity rule
        ("counterexample_height2000",
         ["counterexample", "--height", "2000"]),
        # the six points fail at 2, so the p-adic sweep finds the
        # witness: a class disc at (5 : 1), a degenerate disc at (1 : 1);
        # and no disc at 3 holds a point
        ("surface_class_disc_height20", ["surface", "-", "--height", "20"]),
        ("surface_degenerate_disc_height20",
         ["surface", "-", "--height", "20"]),
        ("surface_unsolvable_at3_height20",
         ["surface", "-", "--height", "20"]),
    ])
    def test_report(self, tmp_path, monkeypatch, name, argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            GOLDEN_STDIN.get(name, SURFACE_INPUT)))
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
