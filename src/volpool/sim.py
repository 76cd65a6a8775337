"""Event-driven simulation of a redundant volunteer computing project.

The simulated world: hosts arrive by a Poisson process and live for sampled
lifetimes. Their on, connected and allowed states flip as the traces of
:mod:`volpool.traces` say, drawn from streams the event order does not
touch, so configs that differ only in task, quorum or egress cap see the
same hosts come, go and flip. A central server hands out replicas of
identical work units, at most one per host per unit (each host is its own
user), requiring ``min_quorum`` matching results to validate and topping up
replicas after mismatches, timeouts and host departures until
``max_replicas`` is exhausted.

A host fetches work only while communication is allowed, spacing RPCs by the
stock client's minimum connection interval and requesting enough to cover at
least that interval. It downloads one input file at a time at its own link
speed (jointly capped by the optional server egress limit, shared max-min
fairly), computes one replica at a time at its pool's ``flops`` column times
``cpu_efficiency`` (times ``resource_share`` when other projects compete),
and overlaps the next download with the current computation. Completed
results return at the next allowed communication; results still out at their
deadline are written off and reissued. Every replica gets the same deadline
offset and passes through its host first in, first out, so the oldest
replica on a host is always the next one due: each host keeps a single
deadline event, armed on its oldest replica.

Only a state change is an event. A flip is not one: a compute completion is
pushed once, at the instant where the host's compute-up time times its speed
covers the replica's FLOP, and uncapped a download completion once, through
its communication-up time; a host's flips are applied when its next event or
the next sample walks past them. Only an edge of its communication wakes a
host: uncapped an up-edge, and under an egress cap either edge, as an edge
of a listed host moves the flow list. A download whose completion would
start nothing (uncapped, while its host has a replica to compute and no
other input waits) completes without an event, at the host's next event,
the next sample or the end of the run; each keeps the seq its event would
have taken, so same-time events run in the same order. A fetch retry that
could not fetch is not pushed; its seq is taken at the fetch that set it,
so retries due at the same instant run in the order of their fetches.

Everything random flows from one 64-bit seed: identical configs give
identical reports, byte for byte. Time is seconds internally, days at the
configuration and reporting surface.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from . import config
from .capacity import CapacityFactors, potential_flops
from .population import ChurnModel, PoolSpec, generate_pool, pool_spec_from_config
from .traces import Traces
from .units import (
    GIGA,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    kbps_to_mb_per_s,
    mbps_to_mb_per_s,
)

# Stock client spacing between scheduler RPCs; a host also buffers at least
# this much work.
MIN_CONNECTION_INTERVAL_DAYS = 0.1

# The most availability flips a simulate config may expect. The criterion-7
# steady-state config expects about 1.4 million.
MAX_FLIPS = 10_000_000


class WorkUnitState(Enum):
    IN_PROGRESS = "InProgress"
    VALIDATED = "Validated"
    INVALID = "Invalid"


class ResultOutcome(Enum):
    CORRECT = "Correct"
    ERRONEOUS = "Erroneous"
    TIMED_OUT = "TimedOut"
    LOST = "Lost"


# The members, bound once: the hot paths read a module global, not an enum
# class attribute, which costs an order of magnitude more.
_IN_PROGRESS, _VALIDATED, _INVALID = WorkUnitState
_CORRECT, _ERRONEOUS, _TIMED_OUT, _LOST = ResultOutcome


@dataclass(frozen=True)
class TaskSpec:
    """One work unit's resource demands. FLOP, MB and days throughout."""

    flops_per_task: float
    input_size: float
    deadline: float = 7.0
    memory_footprint: float = 32.0

    def __post_init__(self):
        if self.flops_per_task <= 0:
            raise ValueError("flops_per_task must be positive")
        if self.input_size <= 0:
            raise ValueError("input_size must be positive")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.memory_footprint <= 0:
            raise ValueError("memory_footprint must be positive")


@dataclass(slots=True)
class WorkUnit:
    """Server-side counts for one unit; it is created with its first replica."""

    replicas_issued: int = 0
    n_results: int = 0
    state: WorkUnitState = _IN_PROGRESS
    # scheduler bookkeeping
    users: set = field(default_factory=set)  # indices of the hosts issued a replica
    n_correct: int = 0
    deficit: int = 0
    in_needs: bool = False
    stamp: int = 0  # order of its latest entry into the server's queue


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run."""

    duration_days: float
    seed: int
    churn: ChurnModel
    pool_spec: PoolSpec
    task: TaskSpec
    min_quorum: int = 2
    max_replicas: int = 4
    error_rate: float = 0.0
    server_egress_cap: float | None = None  # Mbps, shared across downloads
    competing_share: bool = False
    mean_dwell_hours: float = 12.0  # mean sojourn in the up state of each renewal
    work_buffer_days: float | None = None  # fetch horizon; default connection interval
    timeline_step_hours: float = 6.0

    def __post_init__(self):
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if self.seed < 0:
            raise ValueError("seed is negative")
        if self.min_quorum < 1:
            raise ValueError("min_quorum must be at least 1")
        if self.max_replicas < self.min_quorum:
            raise ValueError("max_replicas below min_quorum")
        if not (0.0 <= self.error_rate < 1.0):
            raise ValueError("error_rate outside [0, 1)")
        if self.server_egress_cap is not None and self.server_egress_cap <= 0:
            raise ValueError("server_egress_cap must be positive")
        if self.mean_dwell_hours <= 0:
            raise ValueError("mean_dwell_hours must be positive")
        if self.work_buffer_days is not None and self.work_buffer_days <= 0:
            raise ValueError("work_buffer_days must be positive")
        if self.timeline_step_hours <= 0:
            raise ValueError("timeline_step_hours must be positive")


@dataclass(frozen=True)
class TimelineSample:
    time_days: float
    active_hosts: int
    validated_workunits: int
    achieved_gflops: float  # cumulative validated work over elapsed time
    raw_gflops: float
    bytes_downloaded: float  # cumulative input payload delivered, MB


@dataclass(frozen=True)
class SimReport:
    """Aggregates of one run. Rates are GFLOPS, sustained over the run."""

    achieved_gflops: float
    raw_gflops: float
    bytes_downloaded: float  # total input payload delivered, MB
    mean_active_hosts: float
    replicas_per_validated_task: float
    timeline: tuple[TimelineSample, ...]
    duration_days: float
    seed: int
    n_workunits: int = 0
    n_validated: int = 0
    n_invalid: int = 0
    n_results: int = 0
    downloads_completed: int = 0
    observed_on_fraction: float = 0.0
    observed_connected_fraction: float = 0.0
    observed_active_fraction: float = 0.0

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "timeline"}


def _buffer_s(cfg: SimConfig) -> float:
    """Seconds of work a host fetches ahead."""
    return max(cfg.work_buffer_days or 0.0, MIN_CONNECTION_INTERVAL_DAYS) * SECONDS_PER_DAY


def _water_level(caps: Iterable[float], n: int, total: float) -> float:
    """The max-min fair share of ``total`` among ``n`` flows with ascending ``caps``.

    Each flow gets the smaller of its cap and the level; the level is
    infinite when the caps fit within ``total``. The scan stops at the first
    cap above the share, so it reads only the flows slower than the level.
    """
    remaining = total
    left = n
    for c in caps:
        share = remaining / left
        if c > share:
            return share
        remaining -= c
        left -= 1
    return math.inf


# A host's availability is a mask of three bits, one per renewal process. It
# may compute while on and allowed, and communicate while all three are up.
_ON, _CONN, _ALLOW = 1, 2, 4
_COMPUTE = _ON | _ALLOW
_COMM = _ON | _CONN | _ALLOW

_TRACE_KEPT = 64  # flips applied that a trace holds before dropping them


class _Replica:
    __slots__ = ("wu", "deadline_s", "seq", "outcome")

    def __init__(self, wu, deadline_s, seq):
        self.wu = wu
        self.deadline_s = deadline_s
        self.seq = seq  # where its deadline sorts among same-time events
        self.outcome = None


class _Host:
    __slots__ = (
        "idx", "arrive_s", "depart_s",
        "mask", "tr_t", "tr_m", "tr_i", "tr_next", "tr_procs", "up_s",
        "flops_rate", "dl_cap", "mem_ok", "buffer_flop",
        "work", "n_done", "n_ready", "deadline_armed",
        "cp_busy", "cp_running", "cp_mark", "cp_epoch", "cp_left",
        "dl_busy", "dl_running", "dl_mark", "dl_epoch", "dl_left", "dl_tag", "dl_listed",
        "dl_due", "dl_seq",
        "next_fetch_s", "fetch_seq", "fetch_armed",
    )

    def __init__(self, idx, arrive_s, depart_s, flops_rate, dl_cap, mem_ok, buffer_flop, task):
        self.idx = idx  # also the host's user: one replica per host per unit
        self.arrive_s = arrive_s
        self.depart_s = depart_s
        self.mask = _COMM  # availability bits, as of the last flip applied
        # The trace, as ``Traces`` draws it: ``tr_t``, ``tr_m``, ``tr_procs`` and
        # ``up_s``, by bit position. ``tr_i`` is the first flip not yet applied,
        # due at ``tr_next`` (inf once none is left).
        self.tr_t = None
        self.tr_m = None
        self.tr_i = 0
        self.tr_next = -math.inf
        self.tr_procs = ()
        self.up_s: list[float] | None = None
        self.flops_rate = flops_rate
        self.dl_cap = dl_cap  # MB/s
        self.mem_ok = mem_ok
        self.buffer_flop = buffer_flop
        # Replicas in fetch order: ``n_done`` computed ones awaiting return,
        # then ``n_ready`` downloaded ones, the first of which is computing,
        # then the one downloading and those waiting for input. A deque
        # while the host is a member, ``()`` before and after.
        self.work: deque[_Replica] | tuple = ()
        self.n_done = 0
        self.n_ready = 0
        self.deadline_armed = False  # a deadline event is pending
        # Two slots, compute and download, each hold the FLOP or MB its one
        # replica lacks as settled, and a whole task or input while empty.
        # ``cp_running`` while the computing replica progresses; ``cp_busy``
        # while it has one, paused or not, whose completion is scheduled.
        # ``dl_running`` and, uncapped, ``dl_busy`` likewise.
        self.cp_busy = False
        self.cp_running = False
        self.cp_mark = arrive_s
        self.cp_epoch = 0
        self.cp_left = task.flops_per_task
        self.dl_busy = False
        self.dl_running = False
        self.dl_mark = arrive_s
        self.dl_epoch = 0
        self.dl_left = task.input_size
        self.dl_tag = None  # finish tag on the shared clock while at the fair share
        self.dl_listed = False  # in the engine's flow list under an egress cap
        # A lazy download completes at ``dl_due`` without an event of its own:
        # uncapped, while the host computes and no other input waits, its
        # completion would start nothing. ``dl_seq`` is the seq its event
        # would have taken. ``dl_due`` is inf while no download is lazy.
        self.dl_due = math.inf
        self.dl_seq = 0
        # The fetch retry due at (next_fetch_s, fetch_seq), both set by the
        # fetch before it; ``fetch_armed`` while its event is in the heap. A
        # retry that cannot fetch is not pushed.
        self.next_fetch_s = -1.0
        self.fetch_seq = 0
        self.fetch_armed = False


class _Engine:
    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.duration_s = cfg.duration_days * SECONDS_PER_DAY
        self.task = cfg.task
        self.heap: list = []
        self.seq = 0
        self.now_seq = 0  # the seq of the event running at ``now``
        # ``_dl_changed(h, now)``: a host's download queue or communication
        # eligibility changed
        if cfg.server_egress_cap is None:
            self.cap_mb = None
            self._dl_changed = self._sync_download_lazy
        else:
            self.cap_mb = mbps_to_mb_per_s(cfg.server_egress_cap)
            self._dl_changed = self._sync_download_capped

        # server: the units owed replicas, in stamp order; ``parked`` holds
        # those that every live host already holds, until a host arrives
        self.needs: deque[WorkUnit] = deque()
        self.parked: list[WorkUnit] = []
        self.n_queued = 0
        self.wu_seq = 0
        self.n_validated = 0
        self.n_invalid = 0
        self.n_results = 0
        self.validated_results_total = 0
        self.validated_flop = 0.0

        # accumulators; raw work is ``_sweep``
        self.done_flop = 0.0  # one whole task per completed replica
        self.lost_flop = 0.0  # partial work of replicas written off or lost
        self.mb_downloaded = 0.0
        self.downloads_completed = 0
        self.member_time = 0.0
        self.up_time = [0.0, 0.0, 0.0]  # seconds on, connected and allowed, as ``_Host.up_s``
        # the hosts arrived and not yet departed, by idx, in arrival order
        self.live_hosts: dict[int, _Host] = {}
        # Egress sharing. Running downloads sit in ``flows`` sorted by
        # (dl_cap, idx). A flow whose cap is at most ``level`` runs at its cap
        # with its own completion event; every other flow runs at ``level``
        # and finishes when ``clock``, the MB each such flow has received
        # since the run began, reaches its tag in ``tags``. One pending
        # _on_shared_done event, due at ``shared_eta``, serves the earliest tag.
        self.flows: list[tuple[float, int, _Host]] = []
        self.level = math.inf
        self.clock = 0.0
        self.clock_mark = 0.0
        self.tags: list[tuple[float, int, int, _Host]] = []
        self.shared_epoch = 0
        self.shared_eta: float | None = None
        self.timeline: list[TimelineSample] = []

    # -- event plumbing ----------------------------------------------------

    def _push(self, t: float, handler, a=None, b=0):
        """Call ``handler(a, b, t)`` at ``t``; same-time events run in push order."""
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, handler, a, b))

    # -- compute side ------------------------------------------------------

    def _progress(self, h: _Host, now: float) -> float:
        """FLOP the computing replica has done since ``cp_mark``, up to what it lacks."""
        if not h.cp_running:
            return 0.0
        done = (now - h.cp_mark) * h.flops_rate
        left = h.cp_left
        return done if done < left else left

    def _settle_compute(self, h: _Host, now: float):
        done = self._progress(h, now)
        if done > 0.0:
            h.cp_left -= done
        h.cp_mark = now

    def _stop_compute(self, h: _Host, now: float) -> float:
        """End the computing replica's run on ``h`` and return the FLOP it
        lacked. Its slot holds a whole task again; its completion goes stale."""
        self._settle_compute(h, now)
        left = h.cp_left
        h.cp_left = self.task.flops_per_task
        h.n_ready -= 1
        h.cp_running = h.cp_busy = False
        h.cp_epoch += 1
        return left

    def _sync_compute(self, h: _Host, now: float):
        """Push the completion of a replica that starts computing, once.

        It lands where the host's compute-up time, times its speed, covers
        the replica's FLOP, and is left out when the replica's deadline or
        its host's departure, or the end of the run, comes first.
        """
        busy = h.n_ready > 0 and h.flops_rate > 0.0
        if busy != h.cp_busy:
            h.cp_epoch += 1
            h.cp_busy = busy
            h.cp_running = busy and h.mask & _COMPUTE == _COMPUTE
            if busy:
                if h.cp_running:
                    h.cp_mark = now
                r = h.work[h.n_done]
                eta = now + h.cp_left / h.flops_rate
                if not (h.cp_running and eta < h.tr_next):  # else no flip comes first
                    eta = self._walk(h, now, h.cp_left, h.flops_rate, _COMPUTE)
                if eta < r.deadline_s and eta < h.depart_s and eta <= self.duration_s:
                    self._push(eta, self._on_cp_done, h, h.cp_epoch)
        if not busy and h.dl_due < math.inf:
            self._push_download(h)  # the download's completion now starts compute

    # -- download side -----------------------------------------------------

    def _settle_download(self, h: _Host, now: float):
        if h.dl_running:
            if h.dl_tag is not None:
                left = h.dl_tag - self._clock(now)
                h.dl_left = left if left > 0.0 else 0.0
            else:
                moved = (now - h.dl_mark) * h.dl_cap
                if moved > h.dl_left:
                    moved = h.dl_left
                if moved > 0.0:
                    h.dl_left -= moved
        h.dl_mark = now

    def _stop_download(self, h: _Host):
        """End the downloading input's run on ``h``. Its slot holds a whole
        input again; its completion, pushed or lazy, goes stale."""
        h.dl_left = self.task.input_size
        h.dl_running = h.dl_busy = False
        h.dl_epoch += 1
        h.dl_due = math.inf

    def _sync_download_lazy(self, h: _Host, now: float):
        """``_sync_compute`` for an input, through its host's communication-up time; uncapped.

        A completion that would start nothing, while the host computes and no
        other input waits, is kept lazy at ``dl_due`` instead of pushed.
        """
        i = h.n_done + h.n_ready  # the input downloading or next to download
        busy = len(h.work) > i and h.dl_cap > 0.0
        if busy and h.dl_busy:
            if len(h.work) > i + 1 and h.dl_due < math.inf:
                self._push_download(h)  # its completion now starts the next input
            return
        h.dl_epoch += 1
        h.dl_busy = busy
        h.dl_due = math.inf
        h.dl_running = busy and h.mask == _COMM
        if busy:
            if h.dl_running:
                h.dl_mark = now
            r = h.work[i]
            eta = now + h.dl_left / h.dl_cap
            if not (h.dl_running and eta < h.tr_next):  # else no flip comes first
                eta = self._walk(h, now, h.dl_left, h.dl_cap, _COMM)
            if eta < r.deadline_s and eta < h.depart_s and eta <= self.duration_s:
                if h.cp_busy and len(h.work) == i + 1:
                    self.seq += 1
                    h.dl_due = eta
                    h.dl_seq = self.seq
                else:
                    self._push(eta, self._on_dl_done, h, h.dl_epoch)

    def _push_download(self, h: _Host):
        """Give a lazy download its completion event, under its reserved seq."""
        heapq.heappush(self.heap, (h.dl_due, h.dl_seq, self._on_dl_done, h, h.dl_epoch))
        h.dl_due = math.inf

    def _land_download(self, h: _Host, now: float):
        """Complete a lazy download due by ``now``, as its event would have."""
        if h.dl_due == now and h.dl_seq > self.now_seq:
            return  # its event would run after the current one
        self._complete_download(h)

    def _complete_download(self, h: _Host):
        """Count the input downloading on ``h`` as delivered; any event of it goes stale."""
        self._stop_download(h)
        h.n_ready += 1
        self.mb_downloaded += self.task.input_size
        self.downloads_completed += 1

    def _sync_download_capped(self, h: _Host, now: float):
        """Keep ``h`` listed in ``flows`` exactly while its download can run.

        Settle must have run first. Only a change to the list moves the
        level, and then only the flows whose cap lies between the old and
        the new level change kind.
        """
        want = len(h.work) > h.n_done + h.n_ready and h.mask == _COMM and h.dl_cap > 0.0
        if want == h.dl_listed:
            if want and not h.dl_running:
                # the next input on a listed host: same list, same level
                self._start_flow(h, now)
                self._schedule_shared(now)
            return
        if self.level < math.inf:
            self.clock += (now - self.clock_mark) * self.level
        self.clock_mark = now
        flows = self.flows
        if want:
            insort(flows, (h.dl_cap, h.idx, h))
        else:
            if h.dl_running:
                h.dl_running = False
                h.dl_epoch += 1
            del flows[bisect_left(flows, (h.dl_cap, h.idx))]
        h.dl_listed = want
        old, new = self.level, _water_level((f[0] for f in flows), len(flows), self.cap_mb)
        lo, hi = (old, new) if old < new else (new, old)
        movers = [g for _, _, g in flows[bisect_right(flows, (lo, math.inf)):
                                         bisect_right(flows, (hi, math.inf))]
                  if g.dl_running]
        for g in movers:
            self._settle_download(g, now)  # at the old level
        self.level = new
        for g in movers:
            self._start_flow(g, now)
        if want:
            self._start_flow(h, now)
        self._schedule_shared(now)

    def _start_flow(self, h: _Host, now: float):
        """Run a listed host's settled download at its cap or at the level."""
        h.dl_epoch += 1
        h.dl_running = True
        h.dl_mark = now
        left = h.dl_left
        if h.dl_cap <= self.level:
            h.dl_tag = None
            self._push(now + left / h.dl_cap, self._on_dl_done, h, h.dl_epoch)
        else:
            h.dl_tag = self._clock(now) + left
            heapq.heappush(self.tags, (h.dl_tag, h.idx, h.dl_epoch, h))

    def _clock(self, now: float) -> float:
        """The shared clock at ``now``; meaningful while some flow is shared."""
        return self.clock + (now - self.clock_mark) * self.level

    def _schedule_shared(self, now: float):
        """Keep one pending event, due when the earliest tag is reached."""
        tags = self.tags
        while tags and tags[0][2] != tags[0][3].dl_epoch:
            heapq.heappop(tags)  # its flow finished, paused or changed kind
        eta = None
        if tags:
            left = tags[0][0] - self._clock(now)
            eta = now + left / self.level if left > 0.0 else now
        if eta != self.shared_eta:
            self.shared_eta = eta
            self.shared_epoch += 1
            if eta is not None:
                self._push(eta, self._on_shared_done, None, self.shared_epoch)

    # -- server ------------------------------------------------------------

    def _make_replica(self, wu: WorkUnit, h: _Host, now: float) -> _Replica:
        wu.replicas_issued += 1
        wu.deficit -= 1
        wu.users.add(h.idx)
        self.seq += 1
        return _Replica(wu, now + self.task.deadline * SECONDS_PER_DAY, self.seq)

    def _queue(self, wu: WorkUnit):
        wu.in_needs = True
        wu.stamp = self.n_queued
        self.n_queued += 1
        self.needs.append(wu)

    def _held_by_every_live_host(self, wu: WorkUnit) -> bool:
        """Whether every live host already holds a replica of ``wu``.

        ``wu.users`` holds at most ``max_replicas`` hosts, so this is cheap.
        """
        live = self.live_hosts
        return len(wu.users) >= len(live) and live.keys() <= wu.users

    def _unpark(self):
        """Return the parked units to the queue, each where it stood."""
        parked = sorted(self.parked, key=attrgetter("stamp"))
        merged = list(heapq.merge(self.needs, parked, key=attrgetter("stamp")))
        self.needs.clear()
        self.needs.extend(merged)
        self.parked.clear()

    def _assign(self, h: _Host, n: int, now: float) -> list[_Replica]:
        out: list[_Replica] = []
        skipped: list[WorkUnit] = []
        while n > 0 and self.needs:
            wu = self.needs.popleft()
            if wu.state is not _IN_PROGRESS or wu.deficit <= 0:
                wu.in_needs = False
                continue
            if h.idx in wu.users:
                if self._held_by_every_live_host(wu):
                    self.parked.append(wu)
                else:
                    skipped.append(wu)
                continue
            out.append(self._make_replica(wu, h, now))
            n -= 1
            if wu.deficit > 0:
                skipped.append(wu)
            else:
                wu.in_needs = False
        if skipped:
            self.needs.extendleft(reversed(skipped))
        while n > 0:
            wu = WorkUnit(deficit=self.cfg.min_quorum)
            self.wu_seq += 1
            out.append(self._make_replica(wu, h, now))
            n -= 1
            if wu.deficit > 0:
                self._queue(wu)
        return out

    def _deliver(self, r: _Replica, outcome: ResultOutcome):
        """Count a terminal result against its work unit and apply the quorum rule.

        A unit is validated once ``min_quorum`` of its results are correct,
        and written off once the replicas its budget has left are fewer than
        the correct results it lacks; otherwise it is owed replicas.
        """
        wu = r.wu
        wu.n_results += 1
        self.n_results += 1
        state = wu.state
        if state is _VALIDATED:
            self.validated_results_total += 1
            return
        if state is not _IN_PROGRESS:
            return
        if outcome is _CORRECT:
            wu.n_correct += 1  # one replica per host, and each host is its own user
        cfg = self.cfg
        needed = cfg.min_quorum - wu.n_correct
        if needed <= 0:
            wu.state = _VALIDATED
            self.n_validated += 1
            self.validated_results_total += wu.n_results
            self.validated_flop += self.task.flops_per_task
            wu.deficit = 0
            return
        if needed > cfg.max_replicas - wu.n_results:
            wu.state = _INVALID
            self.n_invalid += 1
            wu.deficit = 0
            return
        # top up the replicas outstanding or owed to what is still needed;
        # needed <= max_replicas - n_results keeps issued + owed within budget
        grow = needed - (wu.replicas_issued - wu.n_results) - wu.deficit
        if grow > 0:
            wu.deficit += grow
            if not wu.in_needs:
                self._queue(wu)

    def _flush_returns(self, h: _Host):
        while h.n_done:
            h.n_done -= 1
            r = h.work.popleft()
            self._deliver(r, r.outcome)

    def _arm_deadline(self, h: _Host):
        """Keep one deadline event pending for the oldest replica on ``h``.

        It takes the seq reserved when that replica was fetched, so it sorts
        among same-time events where a deadline event of its own would.
        """
        if h.deadline_armed or not h.work:
            return
        r = h.work[0]
        if r.deadline_s <= self.duration_s:
            h.deadline_armed = True
            heapq.heappush(self.heap, (r.deadline_s, r.seq, self._on_deadline, h, 0))

    # -- work fetch ----------------------------------------------------------

    def _try_fetch(self, h: _Host, now: float):
        """Fetch what the buffer lacks, or push the retry due when allowed.

        The caller has checked that ``h`` is live and can communicate. A
        fetch sets the next retry: its instant and the seq its event takes,
        so retries due at the same instant run in the order of the fetches
        that set them. A call before that instant pushes the retry, once,
        if a fetch could then succeed.
        """
        if not h.mem_ok:
            return
        if now + 1e-9 < h.next_fetch_s:
            t = h.next_fetch_s
            if not h.fetch_armed and self._may_fetch_at(h, t):
                h.fetch_armed = True
                heapq.heappush(self.heap, (t, h.fetch_seq, self._on_fetch, h, h.fetch_seq))
            return
        # the buffer gap counts the in-flight replica's progress, which is
        # not settled: only an edge of its trace or its end splits a run of
        # compute. A host with a full buffer writes nothing.
        need = h.buffer_flop - (self._flop_on_hand(h) - self._progress(h, now))
        if need <= 0.0:
            return
        n = math.ceil(need / self.task.flops_per_task)
        h.work.extend(self._assign(h, n, now))
        self._arm_deadline(h)
        h.next_fetch_s = now + MIN_CONNECTION_INTERVAL_DAYS * SECONDS_PER_DAY
        self.seq += 1
        h.fetch_seq = self.seq  # a retry still in the heap goes stale
        h.fetch_armed = False
        self._dl_changed(h, now)  # new replicas await input: compute is unchanged

    def _may_fetch_at(self, h: _Host, t: float) -> bool:
        """Whether a retry at ``t`` could fetch, as far as is known now.

        The host must still be there, so ``_on_fetch`` needs no liveness
        test, and its buffer must have room even if it computes without
        pause until ``t``. Only handlers that call ``_try_fetch`` lower the
        buffer otherwise, and they ask again. The margin absorbs the float
        residue a completion drops from the buffer.
        """
        if h.depart_s <= t:
            return False
        left_at_t = self._flop_on_hand(h) - h.flops_rate * (t - h.cp_mark)
        return left_at_t <= h.buffer_flop * (1.0 + 1e-9)

    def _flop_on_hand(self, h: _Host) -> float:
        """The FLOP the replicas on ``h`` not yet computed lack, as settled:
        a whole task each, but ``cp_left`` for the first, which may be computing."""
        n = len(h.work) - h.n_done
        return (n - 1) * self.task.flops_per_task + h.cp_left if n else 0.0

    # -- walking the traces ----------------------------------------------------

    def _advance(self, h: _Host, now: float):
        """Apply ``h``'s flips up to ``now``, in time order.

        Callers test ``h.tr_next <= now`` first, which is all a host with no
        flip due costs. A flip pushes no completion: those stand already, at
        the instants their walks gave. What is left is to settle the side
        whose eligibility changes. Only a down-edge of a running side has
        progress to settle, so only it calls ``_settle_compute`` or
        ``_settle_download``. Every flip of a run passes through here; the
        other edges only set the side's flag and mark, and make no call.
        Under a cap a communication edge moves the flow list too; each is a
        wake, so it comes here at its own instant.
        """
        times, masks = h.tr_t, h.tr_m
        i = h.tr_i
        if i >= _TRACE_KEPT:  # drop the flips applied, which no walk reads again
            del times[:i], masks[:i]
            i = 0
        mask = h.mask
        while True:
            if i == len(times):
                del times[:], masks[:]
                i = 0
                h.mask = mask
                if not self.traces.extend(h):
                    t = math.inf
                    break
            t = times[i]
            if t > now:
                break
            new = masks[i]
            i += 1
            if (mask & _COMPUTE == _COMPUTE) != (new & _COMPUTE == _COMPUTE):
                if h.cp_running:  # a down-edge
                    self._settle_compute(h, t)
                    h.cp_running = False
                else:
                    h.cp_running = h.cp_busy and new & _COMPUTE == _COMPUTE
                    h.cp_mark = t
            if (mask == _COMM) != (new == _COMM):
                if self.cap_mb is not None:
                    h.mask = new  # what ``_sync_download_capped`` reads
                    self._settle_download(h, t)
                    self._sync_download_capped(h, t)
                else:
                    if h.dl_due <= t:
                        self._land_download(h, t)
                    if h.dl_running:  # a down-edge
                        self._settle_download(h, t)
                        h.dl_running = False
                    else:
                        h.dl_running = h.dl_busy and new == _COMM
                        h.dl_mark = t
            mask = new
        h.mask = mask
        h.tr_i = i
        h.tr_next = t

    def _walk(self, h: _Host, now: float, left: float, rate: float, bits: int) -> float:
        """The instant at which ``left`` is done at ``rate`` while ``bits`` are up.

        ``h`` must have been advanced to ``now``. The walk does the float
        operations that settling at each edge of its trace would, in the same
        order, so the instant is the one an engine that made every flip an
        event would reach (the tests' ``_EagerEngine``).
        """
        up = h.mask & bits == bits
        mark = now
        times, masks = h.tr_t, h.tr_m
        i = h.tr_i
        while True:
            if i == len(times):
                if not self.traces.extend(h):
                    break
                continue
            if (masks[i] & bits == bits) != up:
                edge = times[i]
                if up:
                    eta = mark + left / rate
                    if eta < edge:
                        return eta
                    done = (edge - mark) * rate
                    if done > left:
                        done = left
                    if done > 0.0:
                        left -= done
                mark = edge
                up = not up
            i += 1
        return mark + left / rate if up else math.inf

    def _next_comm_edge(self, h: _Host, up: bool) -> float:
        """The instant of ``h``'s next flip into communication if ``up``, out of it if not.

        A flip changes one bit, so every flip to ``_COMM`` is an up-edge and,
        from an up state, every flip is a down-edge.
        """
        times, masks = h.tr_t, h.tr_m
        i = h.tr_i
        while True:
            if i == len(times):
                if not self.traces.extend(h):
                    return math.inf
                continue
            if (masks[i] == _COMM) is up:
                return times[i]
            i += 1

    def _arm_wake(self, h: _Host):
        """Push a wake at ``h``'s next communication edge: uncapped, its next up-edge.

        At an up-edge the host returns results and calls ``_try_fetch``,
        which may fetch or push a retry; many such wakes do neither. Under
        a cap either edge of a host with input to download moves the flow
        list. A host whose memory the task does not fit never holds work, so
        its edges push nothing.
        """
        if h.mem_ok:
            u = self._next_comm_edge(h, self.cap_mb is None or h.mask != _COMM)
            if u < math.inf:
                self._push(u, self._on_wake, h)

    def _catch_up(self, h: _Host, now: float):
        """Apply ``h``'s flips and land its lazy download, each if due by ``now``."""
        if h.tr_next <= now:
            self._advance(h, now)
        if h.dl_due <= now:
            self._land_download(h, now)

    def _on_wake(self, h: _Host, _, now: float):
        self._advance(h, now)  # applies the edge at ``now``
        if h.mask == _COMM:
            if h.n_done:
                self._flush_returns(h)
            self._try_fetch(h, now)
        self._arm_wake(h)

    # -- event handlers --------------------------------------------------------

    def _on_arrive(self, h: _Host, _, now: float):
        if h.depart_s <= self.duration_s:
            self._push(h.depart_s, self._on_depart, h)
        while h.tr_t is None:
            self.traces.draw()
        self._arm_wake(h)
        h.work = deque()
        self.live_hosts[h.idx] = h
        if self.parked:
            self._unpark()
        if h.mask == _COMM:
            self._try_fetch(h, now)

    def _on_depart(self, h: _Host, _, now: float):
        self._catch_up(h, now)
        self._retire(h, now)
        del self.live_hosts[h.idx]
        work = list(h.work)
        done, fetched = work[:h.n_done], work[h.n_done:h.n_done + h.n_ready]
        # computing, then the input still to come, downloaded, computed
        doomed = fetched[:1] + work[h.n_done + h.n_ready:] + fetched[1:] + done
        if h.n_ready:
            self.lost_flop += self.task.flops_per_task - self._stop_compute(h, now)
        self._stop_download(h)
        h.work = ()
        h.n_done = h.n_ready = 0
        for r in doomed:
            self._deliver(r, _LOST)
        self._dl_changed(h, now)  # under a cap, this takes the host off the flow list

    def _retire(self, h: _Host, now: float):
        """Close ``h``'s membership at ``now`` and add its times to the run's.

        Its trace is complete by then: every flip before ``now`` is applied.
        """
        self.member_time += now - h.arrive_s
        self.up_time = [a + b for a, b in zip(self.up_time, h.up_s)]

    def _on_cp_done(self, h: _Host, epoch: int, now: float):
        if epoch != h.cp_epoch:  # paused, finished or departed since
            return
        self._catch_up(h, now)
        # a float residue may be left; the replica still did one whole task
        self._stop_compute(h, now)
        self.done_flop += self.task.flops_per_task
        h.work[h.n_done].outcome = (
            _ERRONEOUS
            if self.cfg.error_rate > 0.0 and self.rng.random() < self.cfg.error_rate
            else _CORRECT
        )
        h.n_done += 1
        comm = h.mask == _COMM
        if comm:
            self._flush_returns(h)
        self._sync_compute(h, now)
        if comm:
            self._try_fetch(h, now)

    def _on_dl_done(self, h: _Host, epoch: int, now: float):
        if epoch != h.dl_epoch:  # paused, finished or departed since
            return
        self._catch_up(h, now)  # this download was pushed: none is lazy
        self._settle_download(h, now)
        self._complete_download(h)
        self._dl_changed(h, now)
        self._sync_compute(h, now)

    def _on_shared_done(self, _, epoch: int, now: float):
        if epoch != self.shared_epoch:
            return
        self.shared_eta = None
        _, _, dl_epoch, h = heapq.heappop(self.tags)
        self._on_dl_done(h, dl_epoch, now)

    def _on_deadline(self, h: _Host, _, now: float):
        """Write off each oldest replica that is due, then re-arm at the next.

        Replicas share one deadline offset and pass through the host in
        fetch order, so only the oldest can be due.
        """
        self._catch_up(h, now)
        work = h.work
        while work and work[0].deadline_s <= now:
            if h.n_done:  # computed, awaiting return
                r = work.popleft()
                h.n_done -= 1
            elif h.n_ready:  # computing
                r = work.popleft()
                self.lost_flop += self.task.flops_per_task - self._stop_compute(h, now)
                self._sync_compute(h, now)
            else:  # downloading
                r = work.popleft()
                self._stop_download(h)
                self._dl_changed(h, now)
            self._deliver(r, _TIMED_OUT)
            if h.mask == _COMM:
                self._try_fetch(h, now)
        h.deadline_armed = False
        self._arm_deadline(h)

    def _on_fetch(self, h: _Host, seq: int, now: float):
        if seq != h.fetch_seq:  # a later fetch set another retry
            return
        h.fetch_armed = False
        self._catch_up(h, now)
        if h.mask == _COMM:
            self._try_fetch(h, now)

    def _sweep(self, now: float) -> float:
        """Land every lazy download due by ``now``; return the raw work done by then.

        Raw work is whole tasks, then the partial work of the computing
        replicas up to ``now``, which is not settled. Completed replicas
        count whole tasks, as validated units do, and the other terms are not
        negative, so raw work never rounds below validated work. A lazy
        download needs a computing replica, so one pass over the hosts with
        one serves both.
        """
        f = self.task.flops_per_task
        computing = 0.0
        for h in self.live_hosts.values():
            if h.n_ready:
                self._catch_up(h, now)
                computing += f - (h.cp_left - self._progress(h, now))
        return self.done_flop + self.lost_flop + computing

    def _on_sample(self, _, __, now: float):
        raw_flop = self._sweep(now)
        t = now if now > 0 else 1.0
        self.timeline.append(
            TimelineSample(
                time_days=now / SECONDS_PER_DAY,
                active_hosts=len(self.live_hosts),
                validated_workunits=self.n_validated,
                achieved_gflops=self.validated_flop / t / GIGA,
                raw_gflops=raw_flop / t / GIGA,
                bytes_downloaded=self.mb_downloaded,
            )
        )

    # -- main loop -------------------------------------------------------------

    def run(self) -> SimReport:
        cfg = self.cfg
        duration_days = cfg.duration_days
        seeds = np.random.SeedSequence(cfg.seed)
        arrivals_seed, lifetimes_seed, errors_seed, traces_seed = seeds.spawn(4)
        self.rng = random.Random(int(errors_seed.generate_state(2, np.uint64)[0]))  # errors

        initial = generate_pool(cfg.pool_spec)
        arrivals_d = cfg.churn.arrival_times(duration_days, np.random.default_rng(arrivals_seed))
        arrival_pool = generate_pool(replace(cfg.pool_spec, n_hosts=len(arrivals_d),
                                             seed=int(seeds.generate_state(4, np.uint64)[3])))
        lifetimes_d = cfg.churn.sample_lifetimes(len(initial) + len(arrival_pool),
                                                 np.random.default_rng(lifetimes_seed))

        def column(name):
            return np.concatenate([initial.column(name), arrival_pool.column(name)])

        # Each host's static values, a column at a time; host ``idx`` is row
        # ``idx`` of the initial pool followed by the arrival pool.
        arrive_d = np.concatenate([np.zeros(len(initial)), arrivals_d])
        arrive_s = arrive_d * SECONDS_PER_DAY
        with np.errstate(over="ignore"):  # a departure past the float range never comes
            depart_s = (arrive_d + lifetimes_d) * SECONDS_PER_DAY
        flops_rate = column("flops") * GIGA * column("cpu_efficiency")
        if cfg.competing_share:
            flops_rate = flops_rate * column("resource_share")
        # the on, connected and allowed processes: bits ``_ON``, ``_CONN`` and ``_ALLOW``
        fracs = np.stack([column(name) for name in
                          ("on_fraction", "connected_fraction", "active_fraction")], axis=1)
        with np.errstate(over="ignore"):  # a link past the float range is infinite
            dl_cap = kbps_to_mb_per_s(column("throughput_down"))
        hosts = zip(
            arrive_s.tolist(),
            depart_s.tolist(),
            flops_rate.tolist(),
            dl_cap.tolist(),
            (column("ram") >= self.task.memory_footprint).tolist(),
            (_buffer_s(cfg) * flops_rate).tolist(),
        )
        del initial, arrival_pool  # the hosts hold their values; free the columns
        by_idx = [_Host(idx, *values, self.task) for idx, values in enumerate(hosts)]
        for h in by_idx:
            self._push(h.arrive_s, self._on_arrive, h)
        self.traces = Traces(traces_seed, cfg.mean_dwell_hours * SECONDS_PER_HOUR, by_idx,
                             arrive_s, np.minimum(depart_s, self.duration_s), fracs)

        step = cfg.timeline_step_hours * SECONDS_PER_HOUR
        t = step
        while t < self.duration_s:
            self._push(t, self._on_sample)
            t += step
        self._push(self.duration_s, self._on_sample)

        heap = self.heap
        pop = heapq.heappop
        while heap:
            t, seq, handler, a, b = pop(heap)
            if t > self.duration_s:
                break
            self.now_seq = seq
            handler(a, b, t)

        dur_s = self.duration_s
        for h in self.live_hosts.values():
            if h.tr_next <= dur_s:
                self._advance(h, dur_s)
            self._retire(h, dur_s)
        self.now_seq = self.seq + 1  # every event due by the end has run
        raw_flop = self._sweep(dur_s)

        member = self.member_time
        on_frac, conn_frac, allow_frac = (t / member if member else 0.0 for t in self.up_time)
        return SimReport(
            achieved_gflops=self.validated_flop / dur_s / GIGA,
            raw_gflops=raw_flop / dur_s / GIGA,
            bytes_downloaded=self.mb_downloaded,
            mean_active_hosts=member / dur_s,
            replicas_per_validated_task=(
                self.validated_results_total / self.n_validated
                if self.n_validated
                else 0.0
            ),
            timeline=tuple(self.timeline),
            duration_days=duration_days,
            seed=cfg.seed,
            n_workunits=self.wu_seq,
            n_validated=self.n_validated,
            n_invalid=self.n_invalid,
            n_results=self.n_results,
            downloads_completed=self.downloads_completed,
            observed_on_fraction=on_frac,
            observed_connected_fraction=conn_frac,
            observed_active_fraction=allow_frac,
        )


def run_simulation(config: SimConfig) -> SimReport:
    """Run one seeded simulation to completion and aggregate it."""
    return _Engine(config).run()


def analytic_comparison(report: SimReport, factors: CapacityFactors) -> dict:
    """Compare a steady-state run against the closed-form prediction.

    Meaningful only once churn has fully turned the pool over; the guard
    demands the run cover at least twenty mean lifetimes.
    """
    if report.duration_days < 20.0 * factors.mean_lifetime:
        raise ValueError("run too short for steady-state comparison")
    predicted = potential_flops(factors)
    if predicted <= 0:
        raise ValueError("predicted capacity is zero")
    achieved = report.achieved_gflops
    return {
        "predicted": predicted,
        "achieved": achieved,
        "relative_error": abs(achieved - predicted) / predicted,
    }


def factors_from_sim_config(cfg: SimConfig) -> CapacityFactors:
    """Capacity factors implied by a simulation config.

    Field means are those of the rounded and clamped values the generated
    hosts hold, redundancy comes from the quorum, resource share only when
    projects compete.
    """
    pool = cfg.pool_spec
    return CapacityFactors(
        arrival_rate=cfg.churn.mean_arrival_rate(cfg.duration_days),
        mean_lifetime=cfg.churn.lifetime_mean_days,
        mean_ncpus=pool.field_mean("n_cpus"),
        mean_flops_per_cpu=pool.field_mean("flops_per_cpu"),
        cpu_efficiency=pool.field_mean("cpu_efficiency"),
        on_fraction=pool.field_mean("on_fraction"),
        active_fraction=pool.field_mean("active_fraction"),
        redundancy=float(cfg.min_quorum),
        resource_share=pool.field_mean("resource_share") if cfg.competing_share else 1.0,
        connected_fraction=pool.field_mean("connected_fraction"),
    )


SIMULATE_OPTIONS = (
    "duration_days", "seed", "churn", "pool", "task", "min_quorum",
    "max_replicas", "error_rate", "server_egress_cap_mbps",
    "competing_share", "mean_dwell_hours", "work_buffer_days",
    "timeline_step_hours",
)


def sim_config_from_config(cfg: Mapping, seed_override: int | None = None) -> SimConfig:
    """Build a SimConfig from a JSON-shaped dict with modest defaults."""
    top, churn_opt, task_opt = "simulate option", "churn option", "task option"
    config.section(cfg, top, SIMULATE_OPTIONS)
    seed = config.count(cfg, "seed", 1, top)
    if seed_override is not None:
        seed = seed_override

    churn_cfg = config.section(
        cfg.get("churn", {}), churn_opt, ("arrival_rate", "lifetime_mean_days")
    )
    rate = churn_cfg.get("arrival_rate")
    if isinstance(rate, list):
        if not all(isinstance(seg, list) and len(seg) == 2 for seg in rate):
            raise config.ConfigError("piecewise arrival_rate must be [[day, rate], ...]")
        rate = tuple(
            (config.real(day, "arrival_rate day"), config.real(r, "arrival_rate"))
            for day, r in rate
        )
    else:
        rate = config.number(churn_cfg, "arrival_rate", 2.0, churn_opt)
    churn = ChurnModel(
        arrival_rate=rate,
        lifetime_mean_days=config.number(churn_cfg, "lifetime_mean_days", 91.0, churn_opt),
    )

    pool_cfg = config.section(cfg.get("pool", {}), "pool option", None)
    pool = pool_spec_from_config({"n_hosts": 200, **pool_cfg}, default_seed=seed)

    task_cfg = config.section(cfg.get("task", {}), task_opt, (
        "flops_per_task", "input_size_mb", "deadline_days", "memory_footprint_mb",
    ))
    task = TaskSpec(
        flops_per_task=config.number(task_cfg, "flops_per_task", 1.3e13, task_opt),
        input_size=config.number(task_cfg, "input_size_mb", 5.0, task_opt),
        deadline=config.number(task_cfg, "deadline_days", 7.0, task_opt),
        memory_footprint=config.number(task_cfg, "memory_footprint_mb", 32.0, task_opt),
    )

    def optional(key):
        # absent and null both leave the value unset
        return None if cfg.get(key) is None else config.number(cfg, key, None, top)

    sim_cfg = SimConfig(
        duration_days=config.number(cfg, "duration_days", 30.0, top),
        seed=seed,
        churn=churn,
        pool_spec=pool,
        task=task,
        min_quorum=config.count(cfg, "min_quorum", 2, top),
        max_replicas=config.count(cfg, "max_replicas", 4, top),
        error_rate=config.number(cfg, "error_rate", 0.0, top),
        server_egress_cap=optional("server_egress_cap_mbps"),
        competing_share=config.flag(cfg, "competing_share", top),
        mean_dwell_hours=config.number(cfg, "mean_dwell_hours", 12.0, top),
        work_buffer_days=optional("work_buffer_days"),
        timeline_step_hours=config.number(cfg, "timeline_step_hours", 6.0, top),
    )
    f = factors_from_sim_config(sim_cfg)
    days = sim_cfg.duration_days
    arrivals = f.arrival_rate * days
    config.within_limit(arrivals, "expected arrivals")
    config.within_limit(days * 24.0 / sim_cfg.timeline_step_hours, "timeline samples")
    # every host fetches a full buffer on arrival, and each fetch at least one task
    mean_flops = (
        f.mean_ncpus * f.mean_flops_per_cpu * GIGA * f.cpu_efficiency * f.resource_share
    )
    per_host = max(1.0, _buffer_s(sim_cfg) * mean_flops / task.flops_per_task)
    config.within_limit((pool.n_hosts + arrivals) * per_host, "expected buffered replicas")
    # a process with up fraction f flips 2 f / dwell times an hour; one whose
    # mean fraction is 0 or 1 never flips on any host
    flips_per_day = sum(
        2.0 * 24.0 * frac / sim_cfg.mean_dwell_hours
        for frac in (f.on_fraction, f.connected_fraction, f.active_fraction)
        if 0.0 < frac < 1.0
    )
    host_days = (pool.n_hosts + arrivals) * min(f.mean_lifetime, days)
    config.within_limit(host_days * flips_per_day, "expected availability flips", MAX_FLIPS)
    return sim_cfg
