import functools
import gc
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sliceshear
from sliceshear import cli, hhr_family, print_canonical
from sliceshear.cli import main
from smoke import READER, script_entry


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRep:
    def test_dim(self, capsys):
        code, out, _ = run(capsys, "rep", "dim", "--group", "C8", "--V", "2-2s")
        assert code == 0 and out.strip() == "0"

    def test_fixed(self, capsys):
        code, out, _ = run(
            capsys, "rep", "fixed", "--group", "C4", "--V", "l1", "--k", "1"
        )
        assert code == 0 and out.strip() == "0 over C2"

    def test_restrict(self, capsys):
        code, out, _ = run(
            capsys, "rep", "restrict", "--group", "C4", "--V", "s", "--m", "1"
        )
        assert code == 0 and out.strip() == "1 over C2"

    def test_tau_json(self, capsys):
        code, out, _ = run(
            capsys, "rep", "tau", "--group", "C4", "--V", "2s", "--k", "1", "--json"
        )
        assert code == 0 and json.loads(out) == {"tau": 2}

    def test_lines(self, capsys):
        code, out, _ = run(capsys, "rep", "lines", "--group", "C4", "--V", "0")
        assert code == 0
        assert [row.split()[0] for row in out.strip().splitlines()] == [
            "k=0",
            "k=1",
            "k=2",
        ]


class TestShearing:
    def test_shear(self, capsys):
        code, out, _ = run(
            capsys, "shear", "--n", "2", "--k", "2", "--V", "0", "--t", "3", "--s", "1",
        )
        assert code == 0 and out.strip() == "(t', s') = (12, 10)"

    def test_correspond(self, capsys):
        code, out, _ = run(
            capsys, "correspond", "--group", "C2", "--k", "1", "Nt[1,1]"
        )
        assert code == 0
        assert out.splitlines()[0] == "Nt[1,2]*aL1"

    def test_correspond_boundary_note(self, capsys):
        code, out, _ = run(
            capsys, "correspond", "--group", "C2", "--k", "1", "u2S", "--json"
        )
        payload = json.loads(out)
        assert code == 0 and payload["region"] == "boundary"

    def test_tower(self, capsys):
        code, out, _ = run(capsys, "tower", "--n", "2", "--m", "1")
        rows = out.strip().splitlines()
        assert code == 0 and len(rows) == 2
        assert rows[0].startswith("k=1") and "C4" in rows[0]


class TestDifferentials:
    def test_hhr(self, capsys):
        code, out, _ = run(capsys, "hhr", "--n", "1", "--i", "1")
        assert code == 0
        assert out.strip() == "diff 5: u2S -> Nt[1,2]*aL1*aS^3"

    def test_transport_matches_family(self, capsys):
        code, out, _ = run(
            capsys,
            "transport",
            "--group",
            "C2",
            "--k",
            "3",
            "--diff",
            "3: u2S -> Nt[1,1]*aS^3",
        )
        assert code == 0
        assert out.strip() == print_canonical(hhr_family(3, 1))

    def test_transport_warning_on_outside_region(self, capsys):
        code, out, err = run(
            capsys,
            "transport",
            "--group",
            "C2",
            "--k",
            "1",
            "--V",
            "l1",
            "--diff",
            "3: u2S -> Nt[1,1]*aS^3",
        )
        assert code == 0
        assert "outside the isomorphism region" in err


class TestVanishing:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "vanishing", "--h", "4", "--n", "2")
        rows = out.strip().splitlines()
        assert code == 0
        assert rows[0].endswith("N=121  max_length=121")
        assert rows[1].endswith("N=26  max_length=25")
        assert rows[2].endswith("N=12  max_length=9")

    def test_check_ok(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--h", "2", "--n", "1", "--V", "2-2s",
            "--diff", "5: u2S -> Nt[1,2]*aL1*aS^3",
        )
        assert code == 0 and out.strip() == "ok"

    def test_check_violations_reported(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--h", "2", "--n", "1", "--V", "4-4s", "--json",
            "--diff", "13: u2S^2 -> Nt[2,2]*aL1^3*aS^7",
        )
        payload = json.loads(out)
        assert code == 0 and payload["admissible"] is False
        assert any(v["clause"] == "length" for v in payload["violations"])

    def test_color_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SLICESHEAR_COLOR", "1")
        code, out, _ = run(
            capsys,
            "check",
            "--h", "2", "--n", "1", "--V", "2-2s",
            "--diff", "5: u2S -> Nt[1,2]*aL1*aS^3",
        )
        assert code == 0 and out.strip() == "\x1b[32mok\x1b[0m"


class TestChart:
    def test_render(self, capsys, tmp_path):
        src = tmp_path / "chart.dsl"
        src.write_text("group C2\nwindow -2 4 4\ndiff 3: u2S -> Nt[1,1]*aS^3\n")
        out_path = tmp_path / "chart.svg"
        code, out, _ = run(capsys, "chart", str(src), "-o", str(out_path))
        assert code == 0 and out_path.exists()
        assert out_path.read_bytes().startswith(b"<?xml")

    def test_missing_file_is_usage(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "chart", str(tmp_path / "nope.dsl"), "-o", str(tmp_path / "x.svg")
        )
        assert code == 1 and json.loads(err)["error"]["kind"] == "io"

    def test_unwritable_output_is_io(self, capsys, tmp_path):
        src = tmp_path / "chart.dsl"
        src.write_text("group C2\nwindow 0 4 4\n")
        out_path = tmp_path / "missing" / "x.svg"
        code, out, err = run(capsys, "chart", str(src), "-o", str(out_path))
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["code"]) == ("io", 1)
        assert error["message"].startswith(f"cannot write {out_path}: ")


class TestExitCodes:
    def test_usage(self, capsys):
        code, _, err = run(capsys, "rep", "dim", "--group", "C8")
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "usage"

    def test_rep_op_without_its_flag_is_usage(self, capsys):
        code, out, err = run(capsys, "rep", "tau", "--group", "C4", "--V", "0")
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": {"code": 1, "kind": "usage", "message": "rep tau requires --k"}
        }

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "rep", "dim", "--group", "C8", "--V", "2++s")
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "parse"

    def test_semantic_error(self, capsys):
        code, _, err = run(capsys, "rep", "dim", "--group", "C2", "--V", "l3")
        assert code == 3
        assert json.loads(err)["error"]["kind"] == "semantic"

    @pytest.mark.parametrize(
        "error, code",
        [
            (sliceshear.RepError("boom"), 3),
            (sliceshear.MonomialError("boom"), 3),
            (sliceshear.ShearError("boom"), 3),
            (sliceshear.DifferentialError("boom"), 3),
            (sliceshear.LeibnizZeroError("boom"), 3),
            (sliceshear.JsonSchemaError("$", "boom"), 3),
            (sliceshear.DslSemanticError("boom"), 3),
            (sliceshear.DslSyntaxError("boom"), 2),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
    )
    def test_every_engine_error_has_its_code(self, capsys, monkeypatch, error, code):
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "_handle_hhr", fail)
        kind = "parse" if code == 2 else "semantic"
        err = {"error": {"code": code, "kind": kind, "message": str(error)}}
        assert run(capsys, "hhr", "--n", "1", "--i", "1") == (code, "", json.dumps(err) + "\n")

    @pytest.mark.parametrize("value", ["-1", "-2"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("shear", "--k", "0", "--V", "0", "--t", "0", "--s", "0", "--n"),
             "target group index n must be >= 0, got {}"),
            (("tower", "--m", "1", "--n"), "tower indices must satisfy n >= 1, m >= 1, got ({}, 1)"),
            (("vanishing", "--h", "1", "--n"), "profile index n must be >= 0, got {}"),
            (("check", "--h", "1", "--diff", "3: u2S -> Nt[1,1]*aS^3", "--n"),
             "profile index n must be >= 0, got {}"),
            (("correspond", "aS", "--group", "C2", "--k"), "shear step k must be >= 0, got {}"),
            (("transport", "--group", "C2", "--diff", "3: u2S -> Nt[1,1]*aS^3", "--k"),
             "shear step k must be >= 0, got {}"),
        ],
        ids=["shear-n", "tower-n", "vanishing-n", "check-n", "correspond-k", "transport-k"],
    )
    def test_negative_flag_is_named_in_its_error(self, capsys, argv, message, value):
        # -2 once named the group exponent -1, which no flag holds
        code, out, err = run(capsys, *argv, value)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["message"] == message.format(value)

    def test_chart_parse_error_is_2(self, capsys, tmp_path):
        src = tmp_path / "bad.dsl"
        src.write_text("group C2\nguide diagonal\n")
        code, _, err = run(capsys, "chart", str(src), "-o", str(tmp_path / "x.svg"))
        assert code == 2
        assert json.loads(err)["error"]["line"] == 2

    def test_chart_semantic_error_is_3(self, capsys, tmp_path):
        src = tmp_path / "bad.dsl"
        src.write_text("group C2\ndiff 4: u2S -> aS^4\n")
        code, _, err = run(capsys, "chart", str(src), "-o", str(tmp_path / "x.svg"))
        assert code == 3

    def test_chart_without_a_window_has_no_line_or_column(self, capsys, tmp_path):
        src = tmp_path / "nowin.dsl"
        src.write_text("group C2\nclass x = aS\n")
        out = tmp_path / "x.svg"
        err = {"error": {"code": 3, "kind": "semantic", "message": "cannot render a chart without a window"}}
        assert run(capsys, "chart", str(src), "-o", str(out)) == (3, "", json.dumps(err) + "\n")
        assert not out.exists()

    def test_error_object_carries_the_column(self, capsys, tmp_path):
        src = tmp_path / "bad.dsl"
        src.write_text("group C4\ngrading 1+l5\n")
        code, _, err = run(capsys, "chart", str(src), "-o", str(tmp_path / "x.svg"))
        assert code == 3
        assert json.loads(err) == {
            "error": {
                "code": 3,
                "kind": "semantic",
                "message": "l5 is not a basis element of RO(C4)",
                "line": 2,
                "col": 10,
            }
        }
        # a flag value has no line; its column is the position in the value
        code, _, err = run(capsys, "rep", "dim", "--group", "C4", "--V", "2-x")
        assert code == 2
        assert json.loads(err) == {
            "error": {
                "code": 2,
                "kind": "parse",
                "message": "dangling sign in representation literal",
                "col": 2,
            }
        }

    def test_group_flag_error_has_column_0(self, capsys):
        for argv in (
            ("rep", "dim", "--group", "C6", "--V", "0"),
            ("correspond", "--group", "C2", "--level", "C6", "--k", "1", "aS"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 3
            assert json.loads(err) == {
                "error": {
                    "code": 3,
                    "kind": "semantic",
                    "message": "group order 6 is not a power of 2",
                    "col": 0,
                }
            }

    def test_chart_literal_past_digit_limit_is_3(self, capsys, tmp_path, default_digit_limit):
        src = tmp_path / "big.dsl"
        src.write_text("group C" + "1" * 5000 + "\n")
        code, out, err = run(capsys, "chart", str(src), "-o", str(tmp_path / "x.svg"))
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": {
                "code": 3,
                "kind": "semantic",
                "message": "integer literal of 5000 digits is too long",
                "line": 1,
                "col": 6,
            }
        }

    def test_chart_diff_too_long_to_print_is_3(self, capsys, tmp_path, default_digit_limit):
        # an exponent of 3,001 digits is refused where it is written; it once
        # reached validate, whose message then had too many digits to print
        src = tmp_path / "big.dsl"
        e = 10**3000
        src.write_text(f"group C2\ndiff 2: Nt[2048,1]^{e} -> Nt[2048,1]^{e}*aS\n")
        code, out, err = run(capsys, "chart", str(src), "-o", str(tmp_path / "x.svg"))
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "code": 3, "kind": "semantic", "message": "integer literal of 3001 digits is too long",
            "line": 2, "col": 19,
        }

    def test_chart_norm_index_too_large_for_its_power_is_3(self, capsys, tmp_path):
        # 2^i cannot be built for i = 10^30; it once exited 1 as an internal
        # OverflowError, and the generator index bound now refuses it at its factor
        src = tmp_path / "big.dsl"
        src.write_text(f"group C2\ndiff 3: Nt[{10**30},1] -> Nt[1,1]*aS^3\n")
        code, out, err = run(capsys, "chart", str(src), "-o", str(tmp_path / "x.svg"))
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": {
                "code": 3,
                "kind": "semantic",
                "message": f"Nt[{10**30},1]: generator index must be <= 2048",
                "line": 2,
                "col": 8,
            }
        }

    def test_chart_class_norm_index_too_large_for_its_power_is_3(self, capsys, tmp_path):
        # a class is admitted as a diff endpoint is; it once exited 1 as an
        # internal OverflowError when the chart placed it
        src = tmp_path / "big.dsl"
        src.write_text(f"group C2\nwindow 0 4 4\nclass x = Nt[{10**30},1]\n")
        out_svg = tmp_path / "x.svg"
        code, out, err = run(capsys, "chart", str(src), "-o", str(out_svg))
        assert code == 3 and out == "" and not out_svg.exists()
        assert json.loads(err) == {
            "error": {
                "code": 3,
                "kind": "semantic",
                "message": f"Nt[{10**30},1]: generator index must be <= 2048",
                "line": 3,
                "col": 10,
            }
        }

    @pytest.mark.parametrize("limit", [4300, 0], ids=["default-limit", "no-limit"])
    @pytest.mark.parametrize(
        "argv, dest",
        [
            (["shear", "--n", "1", "--k", "1", "--V", "0", "--t", "9" * 4400, "--s", "0"], "t"),
            # a repeated flag is read by argparse
            (["shear", "--n", "1", "--n", "1", "--k", "1", "--V", "0", "--s", "0",
              "--t", "9" * 4400], "t"),
            (["shear", "--n", "1", "--k", "1", "--V", "0", "--t=-" + "9" * 3001, "--s", "0"], "t"),
            (["hhr", "--n", "1_" * 4400 + "1", "--i", "1"], "n"),
            # a flag its subcommand leaves unread is refused too
            (["rep", "dim", "--group", "C8", "--V", "0", "--k", "9" * 4400], "k"),
        ],
        ids=["shear-t", "argparse", "negative", "underscores", "unread"],
    )
    def test_int_flag_past_the_digit_bound_is_refused_under_any_limit(
        self, capsys, default_digit_limit, limit, argv, dest
    ):
        # with 4,400 digits, --t once exited 1 usage (an invalid int) under the
        # default int/str limit and 3 with the limit off
        sys.set_int_max_str_digits(limit)  # the fixture restores it
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": {"code": 3, "kind": "semantic", "message": f"{dest} has more than 3000 digits"}
        }

    @pytest.mark.parametrize(
        "value", ["9" * 3000, "-" + "9" * 3000, "0" * 2999 + "7"],
        ids=["nines", "negative", "leading-zeros"],
    )
    def test_int_flag_at_the_digit_bound_is_read(self, value):
        argv = ["shear", "--n", "1", "--k", "1", "--V", "0", f"--t={value}", "--s", "0"]
        assert cli._read(argv).t == cli.build_parser().parse_args(argv).t == int(value)

    @pytest.mark.parametrize(
        "value", ["1__0", "x" + "9" * 4400, "9" * 4400 + "x"],
        ids=["double-underscore", "letter-first", "letter-last"],
    )
    def test_int_flag_that_is_no_literal_is_usage(self, capsys, value):
        code, _, err = run(capsys, "hhr", "--n", value, "--i", "1")
        assert code == 1
        assert json.loads(err)["error"]["message"] == f"argument --n: invalid int value: {value!r}"

    def test_diff_spec_error_has_column_0(self, capsys):
        code, _, err = run(capsys, "transport", "--group", "C2", "--k", "1", "--diff", "nonsense")
        assert code == 2
        assert json.loads(err) == {
            "error": {
                "code": 2,
                "kind": "parse",
                "message": "expected '<r>: <source> -> <target>', got 'nonsense'",
                "col": 0,
            }
        }


class TestLastResort:
    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["human", "json"])
    def test_integer_past_digit_limit_is_internal(
        self, capsys, monkeypatch, default_digit_limit, flags
    ):
        # a result with more digits than int-to-str allows, printed as text or
        # as JSON; the engine's bounds keep its own results under the limit
        huge = 10**5000
        monkeypatch.setattr(cli, "_handle_hhr", lambda args: (huge, {"n": huge}))
        code, out, err = run(capsys, "hhr", "--n", "1", "--i", "1", *flags)
        assert code == 1 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert (error.keys(), error["code"], error["kind"]) == (
            {"code", "kind", "message"}, 1, "internal"
        )
        assert error["message"].startswith("ValueError: Exceeds the limit")

    @pytest.mark.parametrize(
        "error, message",
        [
            (MemoryError(), "MemoryError: "),
            (RecursionError("maximum recursion depth exceeded"),
             "RecursionError: maximum recursion depth exceeded"),
        ],
        ids=["MemoryError", "RecursionError"],
    )
    def test_any_other_exception_is_internal(self, capsys, monkeypatch, error, message):
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "_handle_hhr", fail)
        err = {"error": {"code": 1, "kind": "internal", "message": message}}
        assert run(capsys, "hhr", "--n", "1", "--i", "1") == (1, "", json.dumps(err) + "\n")

    def test_help_and_interrupt_pass_through(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

        def interrupt(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_handle_hhr", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["hhr", "--n", "1", "--i", "1"])


# The exact output of every README command: (command, human stdout, --json
# payload, printed by json.dumps with indent=2).
README_CALLS = [
    ("rep dim --group C8 --V '2-2s'", "0\n", {"dimension": 0}),
    ("rep fixed --group C8 --V 'l1' --k 1", "l1 over C4\n", {"rep": "l1", "group": 2}),
    (
        "rep lines --group C8 --V '0'",
        "k=0  slope=0  tau=0  s = 0\n"
        "k=1  slope=1  tau=0  s = 1(t-s)\n"
        "k=2  slope=3  tau=0  s = 3(t-s)\n"
        "k=3  slope=7  tau=0  s = 7(t-s)\n",
        {
            "lines": [
                {"k": 0, "slope": 0, "tau": 0, "intercept": "0"},
                {"k": 1, "slope": 1, "tau": 0, "intercept": "0"},
                {"k": 2, "slope": 3, "tau": 0, "intercept": "0"},
                {"k": 3, "slope": 7, "tau": 0, "intercept": "0"},
            ]
        },
    ),
    (
        "shear --n 2 --k 2 --V '0' --t 3 --s 1",
        "(t', s') = (12, 10)\n",
        {"t_prime": 12, "s_prime": 10},
    ),
    (
        "correspond --group C2 --k 1 'Nt[1,1]*aS^3'",
        "Nt[1,2]*aL1*aS^3\nnote: source lies outside the proven isomorphism region\n",
        {
            "class": {
                "group": 2, "level": 2, "coeff": 1, "norms": [[1, 2, 1]],
                "a": {"s": 3, "l1": 1}, "u": {},
            },
            "canonical": "Nt[1,2]*aL1*aS^3",
            "region": "outside",
        },
    ),
    (
        "tower --n 2 --m 1",
        "k=1  s = 1(t-s)  C=0  ->  C4 at height 2\nk=2  s = 3(t-s)  C=0  ->  C2 at height 1\n",
        {
            "tower": [
                {
                    "k": 1, "slope": 1, "intercept": "0", "threshold": "0",
                    "target_group": 2, "target_height": 2,
                },
                {
                    "k": 2, "slope": 3, "intercept": "0", "threshold": "0",
                    "target_group": 1, "target_height": 1,
                },
            ]
        },
    ),
    (
        "hhr --n 1 --i 1",
        "diff 5: u2S -> Nt[1,2]*aL1*aS^3\n",
        {
            "differential": {
                "group": 2,
                "page": 5,
                "source": {
                    "group": 2, "level": 2, "coeff": 1, "norms": [], "a": {}, "u": {"2s": 1},
                },
                "target": {
                    "group": 2, "level": 2, "coeff": 1, "norms": [[1, 2, 1]],
                    "a": {"s": 3, "l1": 1}, "u": {},
                },
                "provenance": "generated",
            }
        },
    ),
    (
        "transport --group C2 --k 3 --diff '3: u2S -> Nt[1,1]*aS^3'",
        "diff 17: u2S -> Nt[1,4]*aL3^4*aL2^2*aL1*aS^3\n",
        {
            "differential": {
                "group": 4,
                "page": 17,
                "source": {
                    "group": 4, "level": 4, "coeff": 1, "norms": [], "a": {}, "u": {"2s": 1},
                },
                "target": {
                    "group": 4, "level": 4, "coeff": 1, "norms": [[1, 4, 1]],
                    "a": {"s": 3, "l1": 1, "l2": 2, "l3": 4}, "u": {},
                },
                "provenance": "transported",
            },
            "warnings": [],
        },
    ),
    (
        "vanishing --h 4 --n 2",
        "k=0  slope=0  tau=0  N=121  max_length=121\n"
        "k=1  slope=1  tau=0  N=26  max_length=25\n"
        "k=2  slope=3  tau=0  N=12  max_length=9\n",
        {
            "vanishing": [
                {"k": 0, "slope": 0, "tau": 0, "N": 121, "max_length": 121},
                {"k": 1, "slope": 1, "tau": 0, "N": 26, "max_length": 25},
                {"k": 2, "slope": 3, "tau": 0, "N": 12, "max_length": 9},
            ]
        },
    ),
    (
        "check --h 2 --n 1 --V '2-2s' --diff '5: u2S -> Nt[1,2]*aL1*aS^3'",
        "ok\n",
        {"admissible": True, "violations": []},
    ),
    (
        "chart chart.dsl -o chart.svg",
        "wrote chart.svg (2496 bytes)\n",
        {"output": "chart.svg", "bytes": 2496, "classes": 0, "differentials": 1},
    ),
]


@pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
@pytest.mark.parametrize(
    "command, human, payload", README_CALLS, ids=[c[0].split(" -")[0] for c in README_CALLS]
)
def test_readme_command_output(capsys, tmp_path, monkeypatch, command, human, payload, as_json):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SLICESHEAR_COLOR", raising=False)
    (tmp_path / "chart.dsl").write_text("group C2\nwindow -2 4 4\ndiff 3: u2S -> Nt[1,1]*aS^3\n")
    argv = shlex.split(command) + ["--json"] * as_json
    out = json.dumps(payload, indent=2) + "\n" if as_json else human
    assert run(capsys, *argv) == (0, out, "")


_SRC = str(Path(sliceshear.__file__).resolve().parents[1])


def _child(code: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    """Run code in a fresh, isolated interpreter that imports this tree's sliceshear."""
    code = f"import sys; sys.path.insert(0, {_SRC!r})\n{code}"
    return subprocess.run(
        [sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, timeout=timeout
    )


def _loaded(code: str) -> set[str]:
    """The modules a fresh, isolated interpreter holds after running code."""
    proc = _child(f"{code}\nprint(*sys.modules, file=sys.stderr)")
    proc.check_returncode()
    return set(proc.stderr.split())


def _engine(code: str) -> set[str]:
    return {m.removeprefix("sliceshear.") for m in _loaded(code) if m.startswith("sliceshear.")}


def _cli(*argv: str) -> str:
    return f"from sliceshear.cli import main\nassert main({list(argv)!r}) == 0"


# one human-output success per subcommand
_GOLDEN = str(Path(__file__).resolve().parent / "goldens" / "hu_kriz_c2.dsl")
_ONE_SHOT = {
    "rep": ("rep", "dim", "--group", "C8", "--V", "2-2s"),
    "shear": ("shear", "--n", "2", "--k", "2", "--V", "0", "--t", "3", "--s", "1"),
    "correspond": ("correspond", "--group", "C2", "--k", "1", "Nt[1,1]*aS^3"),
    "tower": ("tower", "--n", "2", "--m", "1"),
    "hhr": ("hhr", "--n", "1", "--i", "1"),
    "transport": ("transport", "--group", "C2", "--k", "3", "--diff", "3: u2S -> Nt[1,1]*aS^3"),
    "vanishing": ("vanishing", "--h", "4", "--n", "2"),
    "check": ("check", "--h", "2", "--n", "1", "--V", "2-2s", "--diff", "5: u2S -> Nt[1,2]*aL1*aS^3"),
    "chart": ("chart", _GOLDEN, "-o", os.devnull),
}


def test_import_pulls_in_no_xml_or_network_modules():
    loaded = _loaded("import sliceshear.cli")
    assert "sliceshear.cli" in loaded
    assert not loaded & {"xml.sax", "ssl", "http.client", "email", "urllib.request"}


@pytest.mark.parametrize(
    "code, modules",
    [
        ("import sliceshear", set()),
        ("import sliceshear.reps", {"reps"}),
        ("import sliceshear.cli", {"reps", "cli"}),
        ("from sliceshear import cli", {"reps", "cli"}),
        (_cli("rep", "dim", "--group", "C8", "--V", "2-2s"), {"reps", "cli"}),
        (_cli("rep", "lines", "--group", "C8", "--V", "0", "--json"), {"reps", "cli"}),
        (_cli("vanishing", "--h", "2", "--n", "1"), {"reps", "cli", "vanishing"}),
        (_cli(*_ONE_SHOT["hhr"]), {"reps", "cli", "differentials", "dsl", "monomials"}),
        (_cli(*_ONE_SHOT["check"]), {"reps", "cli", "differentials", "dsl", "monomials", "vanishing"}),
        (_cli(*_ONE_SHOT["correspond"]),
         {"reps", "cli", "differentials", "dsl", "monomials", "shearing"}),
        (_cli(*_ONE_SHOT["transport"]),
         {"reps", "cli", "differentials", "dsl", "monomials", "shearing"}),
        (_cli(*_ONE_SHOT["chart"]),
         {"reps", "cli", "differentials", "dsl", "monomials", "vanishing", "svg"}),
    ],
    ids=[
        "package", "reps", "cli", "from-package", "rep-dim", "rep-lines", "vanishing",
        "hhr", "check", "correspond", "transport", "chart",
    ],
)
def test_entry_point_loads_only_its_modules(code, modules):
    assert _engine(code) == modules


@pytest.mark.parametrize(
    "argv",
    [
        ("shear", "--n", "2", "--k", "2", "--V", "0", "--t", "3", "--s", "1"),
        ("tower", "--n", "2", "--m", "1", "--json"),
    ],
    ids=["shear", "tower"],
)
def test_shear_and_tower_skip_the_chart_modules(argv):
    assert _engine(_cli(*argv)) == {"reps", "cli", "shearing"}


@functools.cache
def _bare() -> frozenset[str]:
    return frozenset(_loaded("pass"))


@pytest.mark.parametrize("name", list(_ONE_SHOT))
def test_one_shot_imports_no_stdlib_it_does_not_run(name):
    """Beyond a bare interpreter, a human-output success imports no ``json``,
    no ``dataclasses`` or ``inspect``, no ``html`` and no ``argparse`` or the
    ``gettext`` it pulls in, and only ``tower`` (its thresholds) and ``chart``
    (its guide lines) make a Fraction and import ``fractions`` and ``decimal``."""
    extra = _loaded(_cli(*_ONE_SHOT[name])) - _bare()
    assert not extra & {"json", "dataclasses", "inspect", "html", "argparse", "gettext"}
    if name not in {"tower", "chart"}:
        assert not extra & {"fractions", "decimal"}


@pytest.mark.parametrize(
    "argv", [("--help",), ("rep", "dim", "--group", "C8")], ids=["help", "usage-error"]
)
def test_help_and_usage_errors_load_argparse(argv):
    """argparse, which writes every help text and usage error, still runs for them."""
    code = f"from sliceshear.cli import main\ntry:\n    main({list(argv)!r})\n"
    assert "argparse" in _loaded(code + "except SystemExit:\n    pass")


# the child's hhr handler reads hhr_family from its module, so this makes it fail
_HHR_FAILS = (
    "import sliceshear.differentials as d\n"
    "def fail(n, i): raise MemoryError\n"
    "d.hhr_family = fail\n"
)


@pytest.mark.parametrize(
    "setup, argv, code, kind",
    [
        ("", ("hhr", "--n", "1", "--i", "1"), 0, None),
        ("", ("rep", "dim", "--group", "C8"), 1, "usage"),
        (_HHR_FAILS, ("hhr", "--n", "1", "--i", "1"), 1, "internal"),
        ("", ("rep", "dim", "--group", "C8", "--V", "2++s"), 2, "parse"),
        ("", ("rep", "dim", "--group", "C2", "--V", "l3", "--json"), 3, "semantic"),
    ],
    ids=["ok", "usage", "internal", "parse", "semantic"],
)
def test_module_entry_point_prints_at_most_one_error_line(setup, argv, code, kind):
    """``python -m sliceshear.cli``, as a user runs it: the exit code, and on
    stderr nothing or one JSON error line, never a traceback."""
    proc = _child(
        f"{setup}import runpy; sys.argv[1:] = {list(argv)!r}\n"
        "runpy.run_module('sliceshear.cli', run_name='__main__', alter_sys=True)"
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stdout + proc.stderr
    if kind is None:
        assert proc.stdout and proc.stderr == ""
    else:
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["error"].items() >= {"code": code, "kind": kind}.items()


# one success, --help, one usage error and one semantic error, with their exit codes
_ENTRY_CASES = {
    "ok": (("rep", "dim", "--group", "C8", "--V", "2-2s"), 0),
    "help": (("--help",), 0),
    "usage": (("rep", "dim", "--group", "C8"), 1),
    "semantic": (("rep", "dim", "--group", "C6", "--V", "0"), 3),
}
_MODULE, _FUNCTION = script_entry()
# each way of starting the program, on the argv in sys.argv[1:]
_PROGRAMS = {
    "main": "from sliceshear.cli import main\nsys.exit(main())",
    "module": "import runpy\nrunpy.run_module('sliceshear.cli', run_name='__main__', alter_sys=True)",
    "script": f"from {_MODULE} import {_FUNCTION}\nsys.exit({_FUNCTION}())",
}


def _entry_child(program: str, argv: tuple[str, ...], count: Path) -> tuple:
    """(exit code, stdout, stderr, the collector's freeze count at exit) of
    one program in a child; an atexit hook writes the count to the file count."""
    proc = _child(
        "import atexit, gc\n"
        f"atexit.register(lambda: open({str(count)!r}, 'w').write(str(gc.get_freeze_count())))\n"
        f"sys.argv[1:] = {list(argv)!r}\n{_PROGRAMS[program]}"
    )
    return proc.returncode, proc.stdout, proc.stderr, int(count.read_text())


def test_main_in_process_freezes_nothing(capsys):
    """``main(argv)`` has no process-wide effect, so it may run inside pytest."""
    before = gc.get_freeze_count()
    for argv, code in _ENTRY_CASES.values():
        if argv == ("--help",):
            with pytest.raises(SystemExit):
                main(list(argv))
        else:
            assert main(list(argv)) == code
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_script_entry_is_the_module_entry():
    """The console script that pyproject.toml names runs the function that
    ``python -m sliceshear.cli`` runs."""
    assert (_MODULE, _FUNCTION) == ("sliceshear.cli", "run")
    assert "sys.exit(run())" in Path(cli.__file__).read_text(encoding="utf-8")


@pytest.mark.parametrize("program", ["module", "script"])
@pytest.mark.parametrize("case", list(_ENTRY_CASES))
def test_program_entry_freezes_the_collector_and_prints_what_main_does(program, case, tmp_path):
    """Both ways of starting the program exit with the collector frozen, and
    with the exit code, stdout and stderr of ``main`` run in a child."""
    argv, code = _ENTRY_CASES[case]
    *want, unfrozen = _entry_child("main", argv, tmp_path / "main")
    *got, frozen = _entry_child(program, argv, tmp_path / program)
    assert got == want and want[0] == code and want[1] + want[2]
    assert unfrozen == 0 and frozen > 0


_TOP = (1 << 2047) - 1  # the slope of the k = 2047 line
_LAST = (1 << 2048) - 1  # the slope of the k = 2048 line


@pytest.mark.parametrize(
    "argv, first, last",
    [
        (
            ("tower", "--n", "2047", "--m", "1"),
            f"k=1  s = 1(t-s)  C=0  ->  C{1 << 2047} at height {1 << 2046}",
            f"k=2047  s = {_TOP}(t-s)  C=0  ->  C2 at height 1",
        ),
        (
            ("rep", "lines", "--group", f"C{1 << 2048}", "--V", "0"),
            "k=0  slope=0  tau=0  s = 0",
            f"k=2048  slope={_LAST}  tau=0  s = {_LAST}(t-s)",
        ),
    ],
    ids=["tower", "rep-lines"],
)
def test_tables_over_C_2_to_the_2048_are_linear(argv, first, last):
    """Over the largest group the engine admits, every row reads one memoized
    series, so 2,048 rows take well under 10 s; a per-row tau recomputation
    (cubic in n) takes minutes."""
    proc = _child(_cli(*argv), timeout=10)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert (len(rows), rows[0], rows[-1]) == (2047 + 2 * (argv[0] == "rep"), first, last)


# -- the table reader ----------------------------------------------------------
#
# main reads a plain call from cli's flag table and hands every other argv to
# argparse.  Calls are drawn from the table itself, then mutated.

_TABLE = cli._commands()
_STRINGS = ["C2", "C8", "0", "2-2s", "Nt[1,1]", "u2S", "3: u2S -> Nt[1,1]*aS^3", "no-such.dsl", ""]
# tokens a mutation inserts or puts in place of another
_ODD = [
    "--", "-", "-h", "--help", "-g=C8", "-gC8", "--bogus", "-x", "-3", "--t=-3", "-2s", "x", "1.5",
    "", " 2", "1_0", "--json", "--json=1", "--V=", "--k=", "--n", "--k", "--V", "--group", "-g",
    "-o", "--output=x.svg", "--gr", "--h", "rep", "dim", "C8", "0", "3",
]


@st.composite
def _plain_argv(draw) -> list[str]:
    """A call in the form the reader takes: every positional, every required
    flag and some optional ones, in any order, as ``--flag value``,
    ``--flag=value`` or ``-g value``, and ``--json`` anywhere or nowhere."""
    command = draw(st.sampled_from(list(_TABLE)))
    _, _, positionals, flags = _TABLE[command]
    words = [[draw(st.sampled_from(choices or _STRINGS))] for _, choices, _ in positionals]
    for names, _, kind, default, _ in flags:
        if default is ... or draw(st.booleans()):
            name = draw(st.sampled_from(names))
            value = str(draw(st.integers(0, 4))) if kind is int else draw(st.sampled_from(_STRINGS))
            equals = name.startswith("--") and draw(st.booleans())
            words.append([f"{name}={value}"] if equals else [name, value])
    if draw(st.booleans()):
        words.append(["--json"])
    return [command, *(token for word in draw(st.permutations(words)) for token in word)]


@st.composite
def _mutated_argv(draw) -> list[str]:
    """A plain call with up to three tokens inserted, deleted, replaced or
    abbreviated: duplicates, values that start with ``-``, ``--``, missing
    flags, unknown flags, help, ``-g=C8``, non-ints and empty strings."""
    argv = draw(_plain_argv())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "abbreviate", "repeat"]))
        if edit == "insert" or at == len(argv):
            argv.insert(at, draw(st.sampled_from(_ODD)))
        elif edit == "delete":
            del argv[at]
        elif edit == "replace":
            argv[at] = draw(st.sampled_from(_ODD))
        elif edit == "abbreviate":
            argv[at] = argv[at][: draw(st.integers(1, max(1, len(argv[at]) - 1)))]
        else:
            argv[at:at] = argv[at : at + 2]
    return argv


def _parsed(argv: list[str]) -> dict:
    return vars(cli.build_parser().parse_args(argv))


@settings(max_examples=300, deadline=None)
@given(_plain_argv())
def test_the_reader_takes_every_plain_call_as_argparse_does(argv):
    args = cli._read(argv)
    assert args is not None and vars(args) == _parsed(argv)


@settings(max_examples=500, deadline=None)
@given(_mutated_argv())
def test_the_reader_takes_a_call_only_as_argparse_does(argv):
    args = cli._read(argv)
    if args is not None:
        assert vars(args) == _parsed(argv)


@pytest.mark.parametrize("argv, takes", READER, ids=[shlex.join(argv) for argv, _ in READER])
def test_the_reader_leaves_to_argparse_the_forms_it_does_not_take(argv, takes):
    """Repeated flags, ``-g=C8``, a value after a separate flag that starts
    with ``-`` and a second ``--json`` read the same under this Python's
    argparse, but not under every version's: the reader leaves them to it."""
    args = cli._read(argv)
    assert (args is not None) == takes
    if takes:
        assert vars(args) == _parsed(argv)


def _outcome(argv: list[str], capsys) -> tuple:
    try:
        code = main(list(argv))
    except SystemExit as e:  # help
        code = ("exit", e.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(_plain_argv(), _mutated_argv()))
def test_main_prints_what_argparse_alone_leads_to(capsys, monkeypatch, tmp_path, argv):
    """Exit code, stdout and stderr are those of main with the reader
    declining every argv, so that argparse reads them all."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SLICESHEAR_COLOR", raising=False)
    read = _outcome(argv, capsys)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read", lambda argv: None)
        assert _outcome(argv, capsys) == read
