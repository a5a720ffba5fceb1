#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (periods 3,3,3, window 1).

    python3 perfbench/selftest.py

Runs a tiny workload through run.main with tracing off and on, and checks
that every metric BENCHMARK.json names is printed with its unit and that
no operation fails.  Then runs it again with one deliberately wrong
expected `checked` count and checks that exactly that operation is
counted as failed.  Takes about 15 seconds.

F is left out: on period-3 axes its sampler draws pairs whose
intersection covers a whole axis and the check raises.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = run.Workload(
    "selftest-333",
    [run.Invocation("A,B,C,D,E,G,H,J,S6,BETTI,STAR", (3, 3, 3), 1)],
    "benchmark self-test",
)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def last_json_line(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(argv)
    require(rc == 0, f"run.main({argv}) returned {rc}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORKLOADS[TINY.name] = TINY
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", TINY.name, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
        result = last_json_line(argv)
        require(sorted(result) == ["attempted", "correct", "failed", "metrics"], str(sorted(result)))
        want = {m["name"]: m["unit"] for m in declared[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        require(got == want, f"trace {trace}: metrics {got} differ from BENCHMARK.json {want}")
        require(result["correct"] and result["failed"] == 0, f"trace {trace}: {result}")
        per_round = len(TINY.invocations[0].check_ids()) + 1
        require(result["attempted"] == per_round, f"attempted {result['attempted']}")
        print(f"selftest: trace {trace} emits all {len(want)} metrics, 0 of "
              f"{result['attempted']} operations failed")

    wrong = TINY.invocations[0].expected()
    wrong["B"] += 1
    result = run.run(TINY, 0, 0, False, expected=wrong)
    failed = [op["op"] for op in result["operations"] if op["failed"]]
    require(failed == ["B"], f"wrong expected B count gave failed operations {failed}")
    require(not result["correct"], "a wrong expected value must make the run incorrect")
    print("selftest: a wrong expected B count is counted as 1 failed operation")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
