import json
import subprocess
import sys
from pathlib import Path

import sliceshear
from sliceshear import hhr_family, print_canonical
from sliceshear.cli import main


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


class TestExitCodes:
    def test_usage(self, capsys):
        code, _, err = run(capsys, "rep", "dim", "--group", "C8")
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "usage"

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
            }
        }


def test_import_pulls_in_no_xml_or_network_modules():
    src = str(Path(sliceshear.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import sliceshear.cli; "
        "print(*sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert "sliceshear.cli" in loaded
    assert not loaded & {"xml.sax", "ssl", "http.client", "email", "urllib.request"}
