"""In-memory spans around volpool's layers, recorded from outside the package.

A traced run patches each public function of ``cli``, ``population``,
``ingest``, ``capacity`` and ``sim`` at the name its caller resolves it by,
so ``volpool.sim.generate_pool`` is wrapped as well as
``volpool.population.generate_pool``: ``sim`` imports that function by name.
Patching a module attribute also catches calls from inside the same module,
because those look the name up in the module's globals.

``HostRecord`` constructions are counted by wrapping the class's ``__init__``;
the record itself is unchanged. Per-record helpers such as
``hosts.whole_host_flops`` and ``hosts.field_getter`` (which ``cli`` calls
once per record) run millions of times per workload and are not wrapped: a
span each would cost more than the work it times.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in SpanRecorder.spans


class SpanRecorder:
    """Spans of one single-threaded run, in start order, plus work counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = self._clock()

    def add(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``count(args, result)`` maps to work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, n in count(args, result).items():
                    self.add(f"{name}.{key}", n)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += own
        return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread's call stack, so the children of a span are
    disjoint intervals inside it.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _n_hosts(args, result):
    return {"hosts": len(result)}


def _parsed_rows(args, result):
    return {"rows": len(result.records) + len(result.rejects),
            "rejects": len(result.rejects)}


def _serialized_rows(args, result):
    return {"rows": len(args[0])}


def _host_points(args, result):
    return {"host_points": len(args[0]) * len(args[1])}


def _sim_results(args, result):
    return {"results": result.n_results}


# (module, attribute, span name, work count); see the module docstring for
# why some functions appear under two modules.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("volpool.population", "generate_pool", "population.generate_pool", _n_hosts),
    ("volpool.sim", "generate_pool", "population.generate_pool", _n_hosts),
    ("volpool.population", "pool_spec_from_config", "population.pool_spec_from_config", None),
    ("volpool.sim", "pool_spec_from_config", "population.pool_spec_from_config", None),
    ("volpool.population", "assign_users", "population.assign_users", _n_hosts),
    ("volpool.population", "lifetime_stats", "population.lifetime_stats", None),
    ("volpool.ingest", "parse_hosts", "ingest.parse_hosts", _parsed_rows),
    ("volpool.ingest", "serialize_hosts", "ingest.serialize_hosts", _serialized_rows),
    ("volpool.ingest", "breakdown", "ingest.breakdown", None),
    ("volpool.ingest", "hosts_per_user", "ingest.hosts_per_user", None),
    ("volpool.ingest", "histogram_of_values", "ingest.histogram_of_values", None),
    ("volpool.ingest", "auto_edges", "ingest.auto_edges", None),
    ("volpool.capacity", "hardware_flops", "capacity.hardware_flops", None),
    ("volpool.capacity", "compute_vs_rate_curve", "capacity.compute_vs_rate_curve", _host_points),
    ("volpool.capacity", "factors_from_config", "capacity.factors_from_config", None),
    ("volpool.capacity", "utilization_product", "capacity.utilization_product", None),
    ("volpool.capacity", "hardware_product", "capacity.hardware_product", None),
    ("volpool.capacity", "potential_flops", "capacity.potential_flops", None),
    ("volpool.sim", "potential_flops", "capacity.potential_flops", None),
    ("volpool.sim", "run_simulation", "sim.run_simulation", _sim_results),
    ("volpool.sim", "sim_config_from_config", "sim.sim_config_from_config", None),
    ("volpool.sim", "factors_from_sim_config", "sim.factors_from_sim_config", None),
    ("volpool.sim", "analytic_comparison", "sim.analytic_comparison", None),
)

RECORDS_BUILT = "hosts.records_built"


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Patch every target and the HostRecord counter; returns the undo."""
    undo: list[tuple[object, str, object]] = []
    for module_name, attr, name, count in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        undo.append((module, attr, original))
        setattr(module, attr, recorder.wrap(name, original, count))

    record_cls = importlib.import_module("volpool.hosts").HostRecord
    original_init = record_cls.__init__
    recorder.counts[RECORDS_BUILT] = 0

    @functools.wraps(original_init)
    def counted_init(self, *args, **kwargs):
        recorder.counts[RECORDS_BUILT] += 1
        original_init(self, *args, **kwargs)

    undo.append((record_cls, "__init__", original_init))
    record_cls.__init__ = counted_init

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
