#!/usr/bin/env python3
"""cubalg benchmark: time `cubalg verify` end to end and check its verdicts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--json FILE]

Run from the root of a checkout; cubalg is imported from ./src.  Each
round launches the workload's `cubalg verify` invocations one after
another, each as a fresh interpreter calling `cubalg.cli.main` (see
child.py), and its times are their sums; rounds repeat while
the next one still fits in --seconds, and at least one runs.  Outputs are
checked outside the timed region against computations made apart from
the program (checks.py).  The last line printed is one JSON object with
`correct`, `attempted`, `failed` and `metrics`:

* --trace 0: verify_s, setup_s, cpu_s, peak_rss_mb (medians; times are
  scaled to a reference speed, see child.py);
* --trace 1: each process runs untraced, then traced, and the per-layer
  metrics of tracing.py plus trace.overhead_s are reported; spans go to
  perfbench/out/spans-WORKLOAD-seedN.jsonl.

Standard library only.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from child import REFERENCE_S
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEADLINE_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 24
REF_PAIRS = 400
CHECK_ORDER = ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "S6", "BETTI", "STAR"]

END_TO_END = {
    "verify_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Invocation:
    """One `cubalg verify` call of a round."""

    axioms: str
    periods: tuple[int, ...]
    window: int

    def check_ids(self) -> list[str]:
        return list(CHECK_ORDER) if self.axioms == "ALL" else self.axioms.split(",")

    def expected(self) -> dict[str, int]:
        counts = checks.expected_checked(self.periods, self.window)
        counts["F"] = 200
        counts["I"] = 6
        return {cid: counts[cid] for cid in self.check_ids() if cid in counts}

    def argv(self) -> list[str]:
        return [
            "verify",
            "--axioms", self.axioms,
            "--periods", ",".join(map(str, self.periods)),
            "--window", str(self.window),
            "--json",
        ]


@dataclass
class Workload:
    """A round runs the invocations one after another, each in a fresh
    process; the round's times are their sums."""

    name: str
    invocations: list[Invocation]
    why: str


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "exhaustive-333",
            [Invocation("A,B,C,E,G", (3, 3, 3), 2)],
            "kernel memo, triple scan and the harness pair and triple loops at window 2; "
            "no geometry or homology, tiny pairing matrices",
        ),
        Workload(
            "homology-sampled",
            [
                Invocation("BETTI,G,D,H,J", (3, 3, 5), 1),
                # F's cost follows the number of pairs its seed draws (about
                # +-15 %), so every round keeps the program's default seed
                Invocation("F,S6,STAR", (5, 5, 5), 2),
            ],
            "exact elimination on a non-cubic lattice, then cuboid sampling, "
            "truncation and crumbling at 5,5,5; little kernel work",
        ),
    ]
}


class RunError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CUBALG_BACKEND", None)  # measure the default backend
    env.pop("PYTHONPATH", None)
    return env


def remaining(deadline: float) -> float:
    return deadline - time.monotonic()


def run_child(cli_argv, deadline, trace=None) -> dict:
    """One workload process; returns its JSON line, or {'error': ...}."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC)]
    if trace is not None:
        cmd += ["--trace", *trace]
    cmd += ["--", *cli_argv]
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=max(1.0, remaining(deadline)),
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": f"unreadable child output: {proc.stdout[-500:]!r}"}


def measure_setup(deadline, samples: int) -> list[tuple[float, float]]:
    """Interpreter start through `import cubalg.cli`, in fresh processes:
    (seconds, median time of five speed-sample loops run right after)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import cubalg.cli; "
        "t = time.perf_counter(); sys.path.insert(0, sys.argv[2]); "
        "import statistics, child; "
        "print(t, statistics.median(child.sample_pass() for _ in range(5)))"
    )
    cmd = [sys.executable, "-c", code, str(SRC), str(HERE)]
    env = child_env()
    subprocess.run(cmd, capture_output=True, env=env, check=True, timeout=60)  # bytecode cache
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, check=True,
            timeout=max(1.0, remaining(deadline)),
        )
        t1, loop_s = map(float, proc.stdout.split())
        out.append((t1 - t0, loop_s))
    return out


def speed_scale(result: dict) -> float:
    """REFERENCE_S over the median of the speed samples taken while the
    process's call ran (see child.py)."""
    return REFERENCE_S / statistics.median(result["speed_samples_s"])


def combine(results: list[dict]) -> dict:
    """One round's figures from its processes: times, scaled to the
    reference speed, add up; memory is the largest; traced totals add up."""
    errors = [r["error"] for r in results if "error" in r]
    if errors:
        return {"error": "; ".join(errors)}
    out = {
        "verify_s": sum(r["verify_s"] * speed_scale(r) for r in results),
        "cpu_s": sum(r["cpu_s"] * speed_scale(r) for r in results),
        "verify_unscaled_s": sum(r["verify_s"] for r in results),
        "cpu_unscaled_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "backend": results[0]["backend"],
        "version": results[0]["version"],
    }
    if all("raw" in r for r in results):
        raw: dict[str, float] = {}
        for r in results:
            for key, value in r["raw"].items():
                raw[key] = raw.get(key, 0) + value
        out["raw"] = raw
    return out


def run_round(argvs, round_no, trace, spans_path, deadline) -> dict:
    parts = []
    for argv in argvs:
        part = {"argv": argv, "plain": run_child(argv, deadline)}
        if trace:
            part["traced"] = run_child(argv, deadline, (str(spans_path), f"round{round_no}"))
        parts.append(part)
    rec = {"parts": parts, "plain": combine([p["plain"] for p in parts])}
    if trace:
        rec["traced"] = combine([p["traced"] for p in parts])
    return rec


def evaluate(workload, rec, cubalg, ref_rng, expected=None) -> list[dict]:
    """Operations of one round: per process, one per check report plus the
    reference product comparison.  Each is {'op', 'failed', 'wrong', 'why'};
    `wrong` marks output that disagrees with the independent checks."""
    ops = []
    for inv, part in zip(workload.invocations, rec["parts"]):
        ids = inv.check_ids()
        want = inv.expected() if expected is None else expected
        result = part["plain"]
        if "error" in result:
            ops += [
                {"op": cid, "failed": True, "wrong": False, "why": [result["error"]]}
                for cid in ids
            ]
        else:
            try:
                reports = {r["check"]: r for r in json.loads(result["output"])["reports"]}
            except (ValueError, KeyError):
                reports = {}
            for cid in ids:
                rep = reports.get(cid)
                if rep is None:
                    ops.append({"op": cid, "failed": True, "wrong": False, "why": ["no report"]})
                    continue
                why = checks.check_report(rep, inv.periods, want)
                ops.append({"op": cid, "failed": bool(why), "wrong": bool(why), "why": why})
        why = checks.compare_products(cubalg, inv.periods, inv.window, ref_rng, REF_PAIRS)
        ops.append({"op": "REF", "failed": bool(why), "wrong": bool(why), "why": why})
    return ops


def median(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(rounds, setup) -> dict[str, float | None]:
    done = [r["plain"] for r in rounds if "error" not in r["plain"]]
    return {
        "verify_s": median([p["verify_s"] for p in done]),
        "setup_s": median([seconds * REFERENCE_S / loop_s for seconds, loop_s in setup]),
        "cpu_s": median([p["cpu_s"] for p in done]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in done]),
    }


def layer_metrics(rounds) -> dict[str, float | None]:
    per_round: dict[str, list[float]] = {name: [] for name in [*LAYER_METRICS, "trace.overhead_s"]}
    for r in rounds:
        if "error" in r["plain"] or "error" in r["traced"]:
            continue
        for name, (_unit, _better, value) in LAYER_METRICS.items():
            per_round[name].append(value(r["traced"]["raw"]))
        per_round["trace.overhead_s"].append(r["traced"]["verify_s"] - r["plain"]["verify_s"])
    return {name: median(values) for name, values in per_round.items()}


def metric_units(trace: bool) -> dict[str, str]:
    if not trace:
        return END_TO_END
    units = {name: unit for name, (unit, _b, _v) in LAYER_METRICS.items()}
    units["trace.overhead_s"] = "s"
    return units


def import_cubalg():
    if not (SRC / "cubalg" / "__init__.py").is_file():
        raise RunError(f"no cubalg source under {SRC}")
    sys.path.insert(0, str(SRC))
    import cubalg

    return cubalg


def run(workload: Workload, seed: int, seconds: float, trace: bool, expected=None) -> dict:
    """One benchmark run; returns the full result (see main for the printout)."""
    deadline = time.monotonic() + DEADLINE_S
    cubalg = import_cubalg()
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_path.write_text("")
    # half the set-up samples before the rounds and half after, so that they
    # span the run rather than one stretch of the machine's speed
    setup = [] if trace else measure_setup(deadline, SETUP_SAMPLES // 2)

    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        argvs = [inv.argv() for inv in workload.invocations]
        rounds.append(run_round(argvs, len(rounds), trace, spans_path, deadline))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds or remaining(deadline) < 1.5 * last + 15:
            break
    if not trace:
        setup += measure_setup(deadline, SETUP_SAMPLES - len(setup))

    ops = []
    for round_no, rec in enumerate(rounds):
        ref_rng = random.Random(f"ref:{workload.name}:{seed}:{round_no}")
        ops += evaluate(workload, rec, cubalg, ref_rng, expected)
    metrics = layer_metrics(rounds) if trace else end_to_end_metrics(rounds, setup)
    done = [r for r in rounds if "error" not in r["plain"]]
    first = done[0]["plain"] if done else {}
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "argv": [part["argv"] for part in rounds[0]["parts"]],
        "backend": first.get("backend"),
        "cubalg_version": first.get("version"),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "rounds": len(rounds),
        "processes": [
            {"round": round_no, "side": side, "argv": part["argv"]}
            | {k: v for k, v in part[side].items() if k not in ("output", "raw")}
            for round_no, r in enumerate(rounds)
            for part in r["parts"]
            for side in ("plain", "traced")
            if side in part
        ],
        "setup_samples": setup,
        "unscaled": {
            "verify_s": median([r["plain"]["verify_unscaled_s"] for r in done]),
            "cpu_s": median([r["plain"]["cpu_unscaled_s"] for r in done]),
            "setup_s": median([seconds for seconds, _ in setup]),
        },
        "spans_file": str(spans_path.relative_to(ROOT)) if trace else None,
        "operations": ops,
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "correct": not any(op["wrong"] for op in ops),
        "metrics": metrics,
        "units": metric_units(trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="FILE", help="also write every metric and detail here")
    args = parser.parse_args(argv)
    # a termination signal unwinds through subprocess.run, which kills and
    # waits for the workload process it is running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (RunError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    metrics = result["metrics"]
    if any(v is None for v in metrics.values()):
        print("benchmark error: no workload process completed", file=sys.stderr)
        for op in result["operations"]:
            if op["failed"]:
                print(f"  {op['op']}: {'; '.join(op['why'])}", file=sys.stderr)
        return 1

    print(
        f"cubalg {result['cubalg_version']}  backend={result['backend']}  "
        f"python={result['python']}  workload={result['workload']}  seed={result['seed']}  "
        f"rounds={result['rounds']}  trace={int(result['trace'])}"
    )
    for op in result["operations"]:
        if op["failed"]:
            print(f"FAILED {op['op']}: {'; '.join(op['why'])}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {result['units'][name]}")
    if not result["trace"]:
        unscaled = result["unscaled"]
        print(f"  unscaled medians: verify_s {unscaled['verify_s']:.6f} s, "
              f"cpu_s {unscaled['cpu_s']:.6f} s, setup_s {unscaled['setup_s']:.6f} s")
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": result["units"][name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
