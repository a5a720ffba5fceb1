"""`verify --json` for four reference invocations, byte for byte.

The files under tests/data/verify/ pin the statement: any change to a
verdict, a count, a recorded violation or the key order shows here.
Regenerate one only for a change that alters the statement on purpose,
and say which field changed.
"""

from pathlib import Path

import pytest

from cubalg.cli import main

DATA = Path(__file__).resolve().parent / "data" / "verify"

CASES = [
    ("abceg-333-w2", ["--axioms", "A,B,C,E,G", "--periods", "3,3,3", "--window", "2"], 0),
    ("betti-g-d-h-j-335-w1", ["--axioms", "BETTI,G,D,H,J", "--periods", "3,3,5", "--window", "1"], 0),
    ("f-s6-star-555", ["--axioms", "F,S6,STAR", "--periods", "5,5,5"], 0),
    ("g-betti-c-433", ["--axioms", "G,BETTI,C", "--periods", "4,3,3"], 1),
]


@pytest.mark.parametrize("name, args, rc", CASES, ids=[c[0] for c in CASES])
def test_verify_json_matches_golden(name, args, rc, capsys):
    assert main(["verify", "--json", *args]) == rc
    assert capsys.readouterr().out.encode() == (DATA / f"{name}.json").read_bytes()
