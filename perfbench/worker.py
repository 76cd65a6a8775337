"""One step of a benchmark run, in a fresh interpreter.

    python3 perfbench/worker.py setup|input|repeat SPEC.json

``setup`` times importing ``volpool.cli`` and building the workload's
validated config objects; ``input`` writes the pool_ingest CSV; ``repeat``
runs the workload's CLI calls in-process through ``volpool.cli.main``,
traced when the spec asks. ``setup`` also times ``reference_s`` just before
set-up, and ``repeat`` times one batch of it at the start of each call and
every ``TICK_S`` seconds during it (``SpeedGauge``).
Each mode prints one JSON object on stdout. The package is imported from the
checkout's ``src``, never from elsewhere.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
REFERENCE_BATCHES = 12
TICK_S = 0.25  # one gauge batch, ~6-9 ms, per quarter second: 2-4% of a call


def reference_s(batches: int = REFERENCE_BATCHES) -> float:
    """Seconds a fixed task takes: a gauge of the machine's current speed.

    The task does what volpool's hot paths do (heap operations, dict updates,
    tuple allocation, a sort) with the collector off, so that what the
    program left on the heap cannot change the gauge.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(batches):  # small batches, so the gauge adds nothing to peak RSS
        heap, sums = [], {}
        for i in range(5_000):
            heapq.heappush(heap, ((i * 7919) % 10007 * 0.5, i))
            sums[i % 977] = sums.get(i % 977, 0.0) + i * 1.5
        while heap:
            heapq.heappop(heap)
        rows = [(i, f"h{i}", i * 0.25) for i in range(5_000)]
        rows.sort(key=lambda r: -r[2])
    elapsed = time.perf_counter() - t0
    if was_enabled:
        gc.enable()
    return elapsed


class SpeedGauge:
    """Times one batch of ``reference_s`` at once and every ``TICK_S`` seconds after.

    The batches run from SIGALRM, between the bytecodes of whatever the
    process is doing, so they sample the machine's speed during a call and
    not only around it.
    """

    def __init__(self):
        self.ticks: list[float] = []

    def _tick(self, signum, frame):
        self.ticks.append(reference_s(1))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1e-6, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space, in MiB.

    Not ``ru_maxrss``: Linux carries the peak of the address space that exec
    replaced into it, and subprocess may start a child on the parent's
    address space (vfork), so that figure includes the runner's own peak.
    """
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")) / 1024.0


def setup(spec: dict) -> dict:
    ref = reference_s()
    t0 = time.perf_counter()
    import volpool.cli  # noqa: F401  (the import is what is timed)
    from volpool import capacity, population, sim

    for kind, path in spec["validate"]:
        cfg = json.loads(Path(path).read_text())
        if kind == "sim":
            sim.sim_config_from_config(cfg)
        elif kind == "pool":
            population.pool_spec_from_config(dict(cfg["pool"]), default_seed=cfg["seed"])
        else:
            capacity.factors_from_config(dict(cfg.get("factors", {})))
    return {"setup_s": time.perf_counter() - t0, "ref_s": ref}


def make_input(spec: dict) -> dict:
    import workloads

    return workloads.make_ingest_input(spec["path"], spec["rows"], spec["seed"])


def repeat(spec: dict) -> dict:
    import contextlib
    import io
    import traceback

    import volpool
    from volpool import cli

    if not Path(volpool.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"volpool imported from {volpool.__file__}, not the checkout")
    recorder = uninstall = None
    if spec["traced"]:
        import spans

        recorder = spans.SpanRecorder()
        uninstall = spans.install(recorder)
    calls = []
    try:
        for command, argv in spec["calls"]:
            span = recorder.span(f"cli.{command}") if recorder else contextlib.nullcontext()
            gauge = SpeedGauge()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), span, gauge:
                    rc = cli.main(argv)
            except Exception:  # a traceback is a failed call, not a failed run
                traceback.print_exc()
                rc = None
            calls.append({"command": command, "rc": rc, "wall_s": time.perf_counter() - t0,
                          "ticks": gauge.ticks})
    finally:
        if uninstall:
            uninstall()
    result = {"calls": calls, "peak_rss_mb": peak_rss_mb()}
    if recorder:
        result["layers"] = recorder.summary()
        result["counts"] = recorder.counts
        result["spans"] = [[s.name, s.start, s.end, s.parent] for s in recorder.spans]
    return result


MODES = {"setup": setup, "input": make_input, "repeat": repeat}

if __name__ == "__main__":
    # The two CPUs of a small VM speed up and slow down independently. On one
    # CPU the reference gauge and the work it scales see the same machine.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    mode, spec_path = sys.argv[1], sys.argv[2]
    out = MODES[mode](json.loads(Path(spec_path).read_text()))
    print(json.dumps(out))
