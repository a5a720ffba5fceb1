"""Command-line front end.

Chains are written in the text grammar (e.g. "1/2*[p@0,s@1,s@2]"); a bare
cell means coefficient 1.  All output is text; --json switches to the
canonical JSON renderings.  Exit codes: 0 success / all checks passed,
1 a check failed or was skipped, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chain import boundary
from .grammar import (
    ChainParseError,
    chain_to_json_dict,
    format_chain,
    format_rational,
    parse_chain,
)
from .homology import betti
from .lattice import LatticeSpec
from .pairing import pairing, pairing_report
from .product import crumble, product
from .twoh import TwoHCell, star
from .verify import CHECK_ORDER, verify_axioms

DEFAULT_PERIODS = "5,5,5"


def _parse_periods(text: str) -> LatticeSpec:
    try:
        periods = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"periods must be comma-separated integers: {text!r}")
    try:
        return LatticeSpec(periods)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_two_h(text: str) -> TwoHCell:
    """2h cell literal: 'x,y,z:dirs' with dirs a subset of xyz ('-' for none)."""
    try:
        center_text, dirs_text = text.split(":")
        center = tuple(int(c) for c in center_text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"2h cell literal must look like '1,2,0:xz' or '1,2,0:-', got {text!r}"
        )
    dirs = set()
    if dirs_text != "-":
        for ch in dirs_text:
            if ch not in "xyz":
                raise argparse.ArgumentTypeError(f"unknown direction {ch!r} in {text!r}")
            dirs.add("xyz".index(ch))
    return TwoHCell(center, frozenset(dirs))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubalg",
        description="Exact transverse-intersection algebra on periodic cubical lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, periods_default=DEFAULT_PERIODS):
        p.add_argument(
            "--periods",
            type=_parse_periods,
            default=_parse_periods(periods_default),
            help=f"lattice periods, comma separated (default {periods_default})",
        )
        p.add_argument("--json", action="store_true", help="emit canonical JSON")

    p = sub.add_parser("product", help="intersection product of two chains")
    p.add_argument("a")
    p.add_argument("b")
    add_common(p)

    p = sub.add_parser("boundary", help="boundary of a chain")
    p.add_argument("a")
    add_common(p)

    p = sub.add_parser("pair", help="augmentation pairing <a,b>")
    p.add_argument("a")
    p.add_argument("b")
    add_common(p)

    p = sub.add_parser("pairing-matrix", help="rank/determinant of the degree-p pairing")
    p.add_argument("--degree", type=int, required=True)
    add_common(p)

    p = sub.add_parser("crumble", help="refine a chain onto the k-fold finer lattice")
    p.add_argument("--k", type=int, default=3, help="odd refinement factor (default 3)")
    p.add_argument("a")
    add_common(p)

    p = sub.add_parser("betti", help="rational Betti numbers")
    p.add_argument("--complex", dest="complex_kind", choices=["h", "2h"], default="h")
    add_common(p, periods_default="3,3,3")

    p = sub.add_parser("star", help="star-dual of a 2h cell ('1,2,0:xz')")
    p.add_argument("cell", type=_parse_two_h)
    add_common(p, periods_default="3,3,3")

    p = sub.add_parser("verify", help="run axiom checks and report violations")
    p.add_argument(
        "--axioms",
        default="ALL",
        help=f"comma-separated subset of {','.join(CHECK_ORDER)} or ALL",
    )
    p.add_argument("--window", type=int, default=2, help="exhaustive window size (default 2)")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks (default 0)")
    p.add_argument("--k", type=int, default=3, help="crumbling factor (default 3)")
    p.add_argument(
        "--timings", action="store_true", help="include each check's elapsed time (text and JSON)"
    )
    add_common(p)

    return parser


def _emit_json(payload) -> None:
    """Print payload as canonical JSON: sorted keys, no spaces."""
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _emit_chain(chain, as_json: bool) -> None:
    if as_json:
        _emit_json(chain_to_json_dict(chain))
    else:
        print(format_chain(chain))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed pipe shows here, inside the try
        return code
    except BrokenPipeError:
        # the reader left; send the rest of the output, and the flush at
        # exit, to devnull (the recipe in Python's `signal` documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ChainParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    lattice = args.periods
    if args.command == "product":
        a = parse_chain(args.a, lattice)
        b = parse_chain(args.b, lattice)
        _emit_chain(product(a, b), args.json)
        return 0
    if args.command == "boundary":
        _emit_chain(boundary(parse_chain(args.a, lattice)), args.json)
        return 0
    if args.command == "pair":
        a = parse_chain(args.a, lattice)
        b = parse_chain(args.b, lattice)
        value = pairing(a, b)
        if args.json:
            _emit_json({"pairing": format_rational(value)})
        else:
            print(format_rational(value))
        return 0
    if args.command == "pairing-matrix":
        report = pairing_report(args.degree, lattice)
        _emit_json(report)
        return 0
    if args.command == "crumble":
        _emit_chain(crumble(parse_chain(args.a, lattice), args.k), args.json)
        return 0
    if args.command == "betti":
        numbers = betti(args.complex_kind, lattice)
        if args.json:
            _emit_json({"complex": args.complex_kind, "betti": list(numbers)})
        else:
            print(" ".join(str(b) for b in numbers))
        return 0
    if args.command == "star":
        dual = star(args.cell, lattice)
        if args.json:
            dirs = "".join("xyz"[i] for i in sorted(dual.directions)) or "-"
            _emit_json({"center": list(dual.center), "dirs": dirs})
        else:
            print(str(dual))
        return 0
    if args.command == "verify":
        reports = verify_axioms(
            lattice.periods,
            axioms=args.axioms,
            window=args.window,
            seed=args.seed,
            k=args.k,
        )
        all_passed = all(r.passed for r in reports)
        if args.json:
            payload = {
                "schema": "cubalg/1",
                "passed": all_passed,
                "reports": [r.to_json_dict(include_timings=args.timings) for r in reports],
            }
            _emit_json(payload)
        else:
            for r in reports:
                status = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}[r.status]
                elapsed = f"({r.elapsed:.2f}s) " if args.timings else ""
                print(
                    f"[{status}] {r.check_id:5s} checked={r.checked:<8d} "
                    f"violations={r.violation_count} {elapsed}{r.description}"
                )
                for v in r.violations[:5]:
                    print(f"         violation: {json.dumps(v, sort_keys=True)}")
                for w in r.witnesses[:2]:
                    print(f"         witness:   {json.dumps(w, sort_keys=True)}")
            if all_passed:
                print("all checks passed")
            else:
                failed = any(r.status == "failed" for r in reports)
                print("CHECK FAILURES PRESENT" if failed else "SOME CHECKS SKIPPED")
        return 0 if all_passed else 1
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
