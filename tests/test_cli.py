"""The command-line interface: output forms, exit codes, error positions."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cubalg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_product_eq3_shape(capsys):
    code, out, _ = run_cli(
        capsys, "product", "[s@0,p@0,s@0]", "[p@0,s@0,s@0]", "--periods", "5,5,5"
    )
    assert code == 0
    assert out.strip() == "-1/4*[p@0,p@0,s@0] + 1/4*[p@0,p@0,i@0] + 1/4*[p@0,p@0,i@1]"


def test_product_json(capsys):
    code, out, _ = run_cli(
        capsys, "product", "[p@0]", "[s@0]", "--periods", "5", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"lattice": {"periods": [5]}, "terms": [{"cell": [["p", 0]], "coef": "1/2"}]}


def test_boundary_command(capsys):
    code, out, _ = run_cli(capsys, "boundary", "[s@0]", "--periods", "5")
    assert code == 0
    assert out.strip() == "-[p@0] + [p@1]"


def test_pair_command(capsys):
    code, out, _ = run_cli(capsys, "pair", "[p@0]", "[s@0]", "--periods", "7")
    assert code == 0
    assert out.strip() == "1/2"
    # canonical JSON, as every --json output: sorted keys, no spaces
    code, out, _ = run_cli(
        capsys, "pair", "[p@0,p@0,p@0]", "[s@0,s@0,s@0]", "--periods", "5,5,5", "--json"
    )
    assert code == 0
    assert out == '{"pairing":"1/8"}\n'


def test_pairing_matrix_command(capsys):
    code, out, _ = run_cli(capsys, "pairing-matrix", "--degree", "0", "--periods", "3")
    assert code == 0
    data = json.loads(out)
    assert data == {"degree": 0, "det": "1/4", "nondegenerate": True, "rank": 3}


def test_crumble_command(capsys):
    code, out, _ = run_cli(capsys, "crumble", "--k", "3", "[s@0]", "--periods", "5")
    assert code == 0
    assert out.strip() == "[s@0] + [s@1] + [s@2]"
    code, _, err = run_cli(capsys, "crumble", "--k", "2", "[s@0]", "--periods", "5")
    assert code == 2
    assert "odd" in err


def test_betti_commands(capsys):
    code, out, _ = run_cli(capsys, "betti", "--complex", "2h", "--periods", "3,3,3")
    assert code == 0
    assert out.strip() == "1 3 3 1"
    code, out, _ = run_cli(capsys, "betti", "--complex", "h", "--periods", "4,3,3", "--json")
    assert code == 0
    assert json.loads(out) == {"betti": [1, 3, 3, 1], "complex": "h"}


def test_star_command(capsys):
    code, out, _ = run_cli(capsys, "star", "1,2,0:x", "--periods", "3,3,3")
    assert code == 0
    assert out.strip() == "1,2,0:yz"
    code, out, _ = run_cli(capsys, "star", "1,2,0:-", "--periods", "3,3,3", "--json")
    assert code == 0
    assert json.loads(out) == {"center": [1, 2, 0], "dirs": "xyz"}


def test_star_reduces_its_center(capsys):
    code, out, _ = run_cli(capsys, "star", "7,0,0:x", "--periods", "3,3,3")
    assert code == 0
    assert out.strip() == "1,0,0:yz"
    code, out, _ = run_cli(capsys, "star", "4,5,3:-", "--periods", "3,4,3", "--json")
    assert code == 0
    assert json.loads(out) == {"center": [1, 1, 0], "dirs": "xyz"}


def test_parse_error_reports_position(capsys):
    code, _, err = run_cli(capsys, "product", "[s@0,q@0]", "[s@0,s@0]", "--periods", "5,5")
    assert code == 2
    assert "position 5" in err
    assert "^" in err


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--axioms", "A,E", "--periods", "5,5,5")
    assert code == 0
    assert "all checks passed" in out
    code, out, _ = run_cli(capsys, "verify", "--axioms", "G", "--periods", "4,3,3")
    assert code == 1
    assert "degenerate-pairing" in out


def test_verify_json_schema_and_determinism(capsys):
    args = ["verify", "--axioms", "A,C", "--periods", "5,5,5", "--seed", "3", "--json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    data = json.loads(out1)
    assert data["schema"] == "cubalg/1"
    assert data["passed"] is True
    assert [r["check"] for r in data["reports"]] == ["A", "C"]


def test_verify_unknown_axiom(capsys):
    code, _, err = run_cli(capsys, "verify", "--axioms", "Z", "--periods", "5,5,5")
    assert code == 2
    assert "unknown axiom" in err


def test_period_below_three_reports_its_reason(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--periods", "2"])
    assert exc.value.code == 2
    assert "every period must be >= 3" in capsys.readouterr().err


def test_verify_text_is_byte_deterministic_and_timings_add_seconds(capsys):
    args = ["verify", "--axioms", "A,C", "--periods", "3,3,3", "--window", "1"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2 and "s) " not in out1
    _, timed, _ = run_cli(capsys, *args, "--timings")
    status = [line for line in timed.splitlines() if line.startswith("[")]
    assert len(status) == 2 and all(re.search(r"violations=0 \(\d+\.\d\ds\) ", s) for s in status)
    assert re.sub(r"\(\d+\.\d\ds\) ", "", timed) == out1


def test_verify_into_a_closed_pipe_prints_no_traceback():
    # the reader of stdout is gone before the report is written, as with
    # `cubalg verify ... --json | head -c 20`
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [sys.executable, "-m", "cubalg.cli", "verify", "--axioms", "A"]
    argv += ["--periods", "3,3,3", "--window", "1", "--json"]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
