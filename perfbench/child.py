"""One fresh `cubalg verify` process, timed from inside.

    python3 perfbench/child.py SRC [--trace SPANS RUN_ID] -- verify ARGS...

Imports cubalg from SRC, calls `cubalg.cli.main(ARGS)` with its standard
output captured, and prints one JSON line: exit code, wall and CPU time of
the call, the speed samples taken while it ran, peak memory of the
process, backend, version and the captured output.  With --trace the layers are wrapped first (see
tracing.py), the spans are appended to SPANS and the raw per-layer totals
are added to the JSON line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import threading
import time
from fractions import Fraction


# The machine is a share of a host whose speed wanders by tens of percent
# within seconds and over minutes.  While the call runs, a sampler thread
# times a short fixed loop every SAMPLE_EVERY_S on the core the call's
# thread is on; the benchmark scales the call's times by REFERENCE_S over
# the median loop time, so they read as if every call ran at one speed.
SAMPLE_LOOP = 3_000
SAMPLE_EVERY_S = 0.1
REFERENCE_S = 0.001  # the loop time the scaled figures assume


def sample_pass() -> float:
    """CPU seconds this thread takes for a fixed loop of the kind cubalg
    runs (a tuple-keyed memo, integer arithmetic, a few Fractions); they
    depend on the machine and the interpreter only.  Thread CPU time leaves
    out the slices the call's thread runs in meanwhile."""
    t0 = time.thread_time()
    memo: dict = {}
    total, acc = Fraction(0), 0
    for i in range(SAMPLE_LOOP):
        key = (i % 61, i % 37)
        v = memo.get(key)
        if v is None:
            v = memo[key] = divmod(i * 7919, 65521)[1]
        acc += v
        if i % 64 == 0:
            total += Fraction(v, 1 + i % 5)
    return time.thread_time() - t0


def current_cpu(tid: int) -> int | None:
    """The core thread `tid` of this process last ran on (Linux only)."""
    try:
        with open(f"/proc/self/task/{tid}/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class SpeedSampler(threading.Thread):
    """Runs sample_pass every SAMPLE_EVERY_S until stopped, each time moved
    onto the core the watched thread is on.  Only this thread's affinity
    changes; the call and anything it starts may use every core.  Takes
    about 1 % of the call's wall time."""

    def __init__(self, watched_tid: int) -> None:
        super().__init__(daemon=True)
        self.watched_tid = watched_tid
        self.samples: list[float] = []
        self.stop = threading.Event()

    def run(self) -> None:
        while True:
            cpu = current_cpu(self.watched_tid)
            if cpu is not None and hasattr(os, "sched_setaffinity"):
                try:
                    os.sched_setaffinity(0, {cpu})  # 0: the calling thread
                except OSError:
                    pass
            self.samples.append(sample_pass())
            if self.stop.wait(SAMPLE_EVERY_S):
                return


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1 :]
    src = os.path.abspath(opts[0])
    sys.path.insert(0, src)
    import cubalg
    import cubalg.cli

    if not os.path.abspath(cubalg.__file__).startswith(src + os.sep):
        print(f"cubalg imported from {cubalg.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    entry = cubalg.cli.main
    if opts[1:2] == ["--trace"]:
        import tracing

        spans_path, run_id = opts[2], opts[3]
        tracer = tracing.install(run_id)
        entry = tracer.span("cli.main", entry)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        sampler = SpeedSampler(threading.get_native_id())
        sampler.start()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        rc = entry(cli_argv)
        verify_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        sampler.stop.set()
        sampler.join()
        cpu_s -= sum(sampler.samples)  # the sampler's own CPU time
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_kib = usage.ru_maxrss  # KiB on Linux
    try:
        # ru_maxrss also keeps the high-water mark of the process image it
        # was forked from, i.e. the benchmark's own; VmHWM covers this image only
        with open("/proc/self/status") as status:
            peak_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration, ValueError):
        pass
    result = {
        "rc": rc,
        "verify_s": verify_s,
        "speed_samples_s": sampler.samples,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kib / 1024,
        "backend": cubalg.backend_name(),
        "version": cubalg.__version__,
        "output": captured.getvalue(),
    }
    if tracer is not None:
        tracer.write_spans(spans_path)
        result["raw"] = tracer.raw()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
