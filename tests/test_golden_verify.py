"""`verify --json` for five reference invocations, byte for byte.

The files under tests/data/verify/ pin the statement: any change to a
verdict, a count, a recorded violation or the key order shows here.
Regenerate one only for a change that alters the statement on purpose,
and say which field changed.
"""

import json
from pathlib import Path

import pytest

from cubalg.cli import main

DATA = Path(__file__).resolve().parent / "data" / "verify"

CASES = [
    ("abceg-333-w2", ["--axioms", "A,B,C,E,G", "--periods", "3,3,3", "--window", "2"], 0),
    ("betti-g-d-h-j-335-w1", ["--axioms", "BETTI,G,D,H,J", "--periods", "3,3,5", "--window", "1"], 0),
    ("f-s6-star-555", ["--axioms", "F,S6,STAR", "--periods", "5,5,5"], 0),
    ("g-betti-c-433", ["--axioms", "G,BETTI,C", "--periods", "4,3,3"], 1),
    ("c-3333-w1", ["--axioms", "C", "--periods", "3,3,3,3", "--window", "1"], 0),
]


def first_difference(got: bytes, want: bytes) -> str | None:
    """The first report, in report order, and its first key whose values
    differ between two `verify --json` outputs, or None if none does."""
    got_doc, want_doc = json.loads(got), json.loads(want)
    got_reports, want_reports = got_doc.pop("reports"), want_doc.pop("reports")
    for i, (g, w) in enumerate(zip(got_reports, want_reports)):
        for key in [*w, *(k for k in g if k not in w)]:
            if g.get(key) != w.get(key):
                return f"report {i} ({w.get('check')}), key {key!r}: got {g.get(key)!r:.300}"
    if len(got_reports) != len(want_reports):
        return f"{len(got_reports)} reports, expected {len(want_reports)}"
    for key in [*want_doc, *got_doc]:
        if got_doc.get(key) != want_doc.get(key):
            return f"top-level key {key!r}: got {got_doc.get(key)!r}"
    return None


@pytest.mark.parametrize("name, args, rc", CASES, ids=[c[0] for c in CASES])
def test_verify_json_matches_golden(name, args, rc, capsys):
    assert main(["verify", "--json", *args]) == rc
    got, want = capsys.readouterr().out.encode(), (DATA / f"{name}.json").read_bytes()
    assert first_difference(got, want) is None
    assert got == want


def test_first_difference_names_the_report_and_key():
    want = (DATA / "g-betti-c-433.json").read_bytes()
    doc = json.loads(want)
    doc["reports"][1]["checked"] += 1
    got = json.dumps(doc).encode()
    assert first_difference(got, want).startswith("report 1 (C), key 'checked': got ")
    assert first_difference(want, want) is None
