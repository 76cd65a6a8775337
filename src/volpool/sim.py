"""Event-driven simulation of a redundant volunteer computing project.

The simulated world: hosts arrive by a Poisson process, live for sampled
lifetimes, and flip between on/off, connected/disconnected and
allowed/blocked states through independent alternating renewal processes
with exponential sojourns calibrated so the long-run fractions match each
host's recorded availability. A central server hands out replicas of
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
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import config
from .capacity import CapacityFactors, potential_flops
from .population import ChurnModel, PoolSpec, generate_pool, pool_spec_from_config
from .units import (
    GIGA,
    RATE_QUANTUM_FLOP,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    kbps_to_mb_per_s,
    mbps_to_mb_per_s,
)

# Stock client spacing between scheduler RPCs; a host also buffers at least
# this much work.
MIN_CONNECTION_INTERVAL_DAYS = 0.1


class WorkUnitState(Enum):
    IN_PROGRESS = "InProgress"
    VALIDATED = "Validated"
    INVALID = "Invalid"


class ResultOutcome(Enum):
    CORRECT = "Correct"
    ERRONEOUS = "Erroneous"
    TIMED_OUT = "TimedOut"
    LOST = "Lost"


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

    @property
    def data_rate(self) -> float:
        """MB of input per 3.6e12 FLOP of computing."""
        return self.input_size / (self.flops_per_task / RATE_QUANTUM_FLOP)


@dataclass(frozen=True)
class ResultRecord:
    """One returned result, as ``validate_quorum`` reads it."""

    user_id: str
    outcome: ResultOutcome


@dataclass
class WorkUnit:
    """Server-side counts for one unit; it is created with its first replica."""

    id: int
    replicas_issued: int = 0
    n_results: int = 0
    state: WorkUnitState = WorkUnitState.IN_PROGRESS
    # scheduler bookkeeping
    users: set = field(default_factory=set)  # indices of the hosts issued a replica
    n_correct: int = 0
    deficit: int = 0
    in_needs: bool = False


class QuorumOutcome(Enum):
    VALIDATED = "Validated"
    NEED_MORE = "NeedMore"
    INVALID = "Invalid"


@dataclass(frozen=True)
class QuorumDecision:
    outcome: QuorumOutcome
    additional_replicas: int = 0


def _still_needed(
    n_correct: int, n_results: int, min_quorum: int, max_replicas: int
) -> int | None:
    """Correct results a unit still needs: 0 once validated, None for a write-off.

    A unit is a write-off when the replicas its budget has left after
    ``n_results`` returns are fewer than the correct results it lacks.
    """
    needed = min_quorum - n_correct
    if needed <= 0:
        return 0
    if needed > max_replicas - n_results:
        return None
    return needed


def validate_quorum(
    results: Sequence[ResultRecord], min_quorum: int, max_replicas: int
) -> QuorumDecision:
    """Apply the validation rule to a finished set of results.

    Correct results always agree, erroneous ones never match anything, so
    validation needs ``min_quorum`` correct results from distinct users.
    If the remaining replica budget cannot reach that, the unit is a write-off.
    """
    if min_quorum < 1:
        raise ValueError("min_quorum must be at least 1")
    if max_replicas < min_quorum:
        raise ValueError("max_replicas below min_quorum")
    correct_users = {r.user_id for r in results if r.outcome is ResultOutcome.CORRECT}
    needed = _still_needed(len(correct_users), len(results), min_quorum, max_replicas)
    if needed == 0:
        return QuorumDecision(QuorumOutcome.VALIDATED)
    if needed is None:
        return QuorumDecision(QuorumOutcome.INVALID)
    return QuorumDecision(QuorumOutcome.NEED_MORE, additional_replicas=needed)


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

    achieved_flops: float
    raw_flops: float
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
        return {
            "achieved_gflops": self.achieved_flops,
            "raw_gflops": self.raw_flops,
            "bytes_downloaded": self.bytes_downloaded,
            "mean_active_hosts": self.mean_active_hosts,
            "replicas_per_validated_task": self.replicas_per_validated_task,
            "duration_days": self.duration_days,
            "seed": self.seed,
            "n_workunits": self.n_workunits,
            "n_validated": self.n_validated,
            "n_invalid": self.n_invalid,
            "n_results": self.n_results,
            "downloads_completed": self.downloads_completed,
            "observed_on_fraction": self.observed_on_fraction,
            "observed_connected_fraction": self.observed_connected_fraction,
            "observed_active_fraction": self.observed_active_fraction,
        }


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


# Event codes, dispatch order is tie-broken by insertion sequence.
(_EV_ARRIVE, _EV_DEPART, _EV_TOGGLE, _EV_FETCH, _EV_DL_DONE, _EV_DL_SHARED, _EV_CP_DONE,
 _EV_DEADLINE, _EV_SAMPLE) = range(9)

_PROC_ON, _PROC_CONN, _PROC_ALLOW = range(3)


class _Replica:
    __slots__ = ("wu", "flops_left", "input_left", "deadline_s", "seq", "outcome")

    def __init__(self, wu, flops, input_mb, deadline_s, seq):
        self.wu = wu
        self.flops_left = flops
        self.input_left = input_mb
        self.deadline_s = deadline_s
        self.seq = seq  # where its deadline sorts among same-time events
        self.outcome = None


class _Host:
    __slots__ = (
        "idx", "alive", "arrive_s", "depart_s",
        "fracs", "on", "conn", "allow",
        "flops_rate", "dl_cap", "mem_ok", "buffer_flop",
        "work", "n_done", "n_ready", "deadline_armed",
        "cp_running", "cp_mark", "cp_epoch",
        "dl_running", "dl_mark", "dl_epoch", "dl_tag", "dl_listed",
        "on_hand_flop", "next_fetch_s", "fetch_pending",
        "occ_mark",
    )

    def __init__(self, idx, arrive_s, depart_s, fracs, flops_rate, dl_cap, mem_ok,
                 buffer_flop):
        self.idx = idx  # also the host's user: one replica per host per unit
        self.alive = True
        self.arrive_s = arrive_s
        self.depart_s = depart_s
        self.fracs = fracs  # long-run on, connected, allowed fractions, by _PROC_*
        self.on = True
        self.conn = True
        self.allow = True
        self.flops_rate = flops_rate
        self.dl_cap = dl_cap  # MB/s
        self.mem_ok = mem_ok
        self.buffer_flop = buffer_flop
        # Replicas in fetch order: ``n_done`` computed ones awaiting return,
        # then ``n_ready`` downloaded ones, the first of which is computing,
        # then the one downloading and those waiting for input.
        self.work: deque[_Replica] = deque()
        self.n_done = 0
        self.n_ready = 0
        self.deadline_armed = False  # a deadline event is pending
        self.cp_running = False
        self.cp_mark = arrive_s
        self.cp_epoch = 0
        self.dl_running = False
        self.dl_mark = arrive_s
        self.dl_epoch = 0
        self.dl_tag = None  # finish tag on the shared clock while at the fair share
        self.dl_listed = False  # in the engine's flow list under an egress cap
        self.on_hand_flop = 0.0
        self.next_fetch_s = -1.0
        self.fetch_pending = False
        self.occ_mark = arrive_s

    def comm_ok(self) -> bool:
        return self.on and self.conn and self.allow

    def compute_ok(self) -> bool:
        return self.on and self.allow


class _Engine:
    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.duration_s = cfg.duration_days * SECONDS_PER_DAY
        self.task = cfg.task
        self.heap: list = []
        self.seq = 0
        self.now = 0.0

        ss = np.random.SeedSequence(cfg.seed)
        kids = ss.spawn(3)
        self.arrival_rng = np.random.default_rng(kids[0])
        self.life_rng = np.random.default_rng(kids[1])
        self.rng = random.Random(int(kids[2].generate_state(2, np.uint64)[0]))

        self.dwell_s = cfg.mean_dwell_hours * SECONDS_PER_HOUR
        self.cap_mb = (
            mbps_to_mb_per_s(cfg.server_egress_cap)
            if cfg.server_egress_cap is not None
            else None
        )

        # server
        self.needs: deque[WorkUnit] = deque()
        self.wu_seq = 0
        self.n_validated = 0
        self.n_invalid = 0
        self.n_results = 0
        self.validated_results_total = 0
        self.validated_flop = 0.0

        # accumulators; raw work is ``_raw_flop``
        self.done_flop = 0.0  # one whole task per completed replica
        self.lost_flop = 0.0  # partial work of replicas written off or lost
        self.mb_downloaded = 0.0
        self.downloads_completed = 0
        self.member_time = 0.0
        self.on_time = 0.0
        self.conn_time = 0.0
        self.allow_time = 0.0
        self.live_hosts: dict[int, _Host] = {}  # by idx, in arrival order
        # Egress sharing. Running downloads sit in ``flows`` sorted by
        # (dl_cap, idx). A flow whose cap is at most ``level`` runs at its cap
        # with its own completion event; every other flow runs at ``level``
        # and finishes when ``clock``, the MB each such flow has received
        # since the run began, reaches its tag in ``tags``. One pending
        # _EV_DL_SHARED event, due at ``shared_eta``, serves the earliest tag.
        self.flows: list[tuple[float, int, _Host]] = []
        self.level = math.inf
        self.clock = 0.0
        self.clock_mark = 0.0
        self.tags: list[tuple[float, int, int, _Host]] = []
        self.shared_epoch = 0
        self.shared_eta: float | None = None
        self.timeline: list[TimelineSample] = []

    # -- event plumbing ----------------------------------------------------

    def _push(self, t: float, code: int, a=None, b=0):
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, code, a, b))

    # -- occupancy ---------------------------------------------------------

    def _settle_occupancy(self, h: _Host, now: float):
        dt = now - h.occ_mark
        if dt > 0.0:
            self.member_time += dt
            if h.on:
                self.on_time += dt
            if h.conn:
                self.conn_time += dt
            if h.allow:
                self.allow_time += dt
        h.occ_mark = now

    # -- compute side ------------------------------------------------------

    def _settle_compute(self, h: _Host, now: float):
        if h.cp_running:
            r = h.work[h.n_done]
            done = (now - h.cp_mark) * h.flops_rate
            if done > r.flops_left:
                done = r.flops_left
            if done > 0.0:
                r.flops_left -= done
                h.on_hand_flop -= done
        h.cp_mark = now

    def _sync_compute(self, h: _Host, now: float):
        """Run the oldest downloaded replica exactly while the host may compute.

        Settle must have run first. A running replica whose state did not
        change keeps its scheduled completion: constant rate means the
        completion instant is unchanged.
        """
        desired = h.n_ready > 0 and h.compute_ok() and h.flops_rate > 0.0
        if desired == h.cp_running:
            return  # idle stays idle; a running replica keeps its completion
        h.cp_epoch += 1
        h.cp_running = desired
        if desired:
            h.cp_mark = now
            eta = now + h.work[h.n_done].flops_left / h.flops_rate
            self._push(eta, _EV_CP_DONE, h, h.cp_epoch)

    # -- download side -----------------------------------------------------

    def _settle_download(self, h: _Host, now: float):
        if h.dl_running:
            r = h.work[h.n_done + h.n_ready]
            if h.dl_tag is not None:
                left = h.dl_tag - self._clock(now)
                r.input_left = left if left > 0.0 else 0.0
            else:
                moved = (now - h.dl_mark) * h.dl_cap
                if moved > r.input_left:
                    moved = r.input_left
                if moved > 0.0:
                    r.input_left -= moved
        h.dl_mark = now

    def _sync_download_uncapped(self, h: _Host, now: float):
        desired = len(h.work) > h.n_done + h.n_ready and h.comm_ok() and h.dl_cap > 0.0
        if desired and h.dl_running:
            return  # unchanged; completion event stands
        h.dl_epoch += 1
        h.dl_running = desired
        if desired:
            h.dl_mark = now
            eta = now + h.work[h.n_done + h.n_ready].input_left / h.dl_cap
            self._push(eta, _EV_DL_DONE, h, h.dl_epoch)

    def _sync_download_capped(self, h: _Host, now: float):
        """Keep ``h`` listed in ``flows`` exactly while its download can run.

        Settle must have run first. Only a change to the list moves the
        level, and then only the flows whose cap lies between the old and
        the new level change kind.
        """
        want = len(h.work) > h.n_done + h.n_ready and h.comm_ok() and h.dl_cap > 0.0
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
        left = h.work[h.n_done + h.n_ready].input_left
        if h.dl_cap <= self.level:
            h.dl_tag = None
            self._push(now + left / h.dl_cap, _EV_DL_DONE, h, h.dl_epoch)
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
                self._push(eta, _EV_DL_SHARED, None, self.shared_epoch)

    def _dl_changed(self, h: _Host, now: float):
        """A host's download queue or communication eligibility changed."""
        if self.cap_mb is None:
            self._sync_download_uncapped(h, now)
        else:
            self._sync_download_capped(h, now)

    # -- server ------------------------------------------------------------

    def _make_replica(self, wu: WorkUnit, h: _Host, now: float) -> _Replica:
        wu.replicas_issued += 1
        wu.deficit -= 1
        wu.users.add(h.idx)
        self.seq += 1
        return _Replica(
            wu, self.task.flops_per_task, self.task.input_size,
            now + self.task.deadline * SECONDS_PER_DAY, self.seq,
        )

    def _assign(self, h: _Host, n: int, now: float) -> list[_Replica]:
        out: list[_Replica] = []
        skipped: list[WorkUnit] = []
        while n > 0 and self.needs:
            wu = self.needs.popleft()
            if wu.state is not WorkUnitState.IN_PROGRESS or wu.deficit <= 0:
                wu.in_needs = False
                continue
            if h.idx in wu.users:
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
            wu = WorkUnit(id=self.wu_seq, deficit=self.cfg.min_quorum)
            self.wu_seq += 1
            out.append(self._make_replica(wu, h, now))
            n -= 1
            if wu.deficit > 0:
                wu.in_needs = True
                self.needs.append(wu)
        return out

    def _deliver(self, r: _Replica, outcome: ResultOutcome):
        """Count a terminal result against its work unit and react."""
        wu = r.wu
        wu.n_results += 1
        self.n_results += 1
        if wu.state is WorkUnitState.VALIDATED:
            self.validated_results_total += 1
            return
        if wu.state is not WorkUnitState.IN_PROGRESS:
            return
        if outcome is ResultOutcome.CORRECT:
            wu.n_correct += 1  # one replica per host, and each host is its own user
        cfg = self.cfg
        needed = _still_needed(wu.n_correct, wu.n_results, cfg.min_quorum, cfg.max_replicas)
        if needed == 0:
            wu.state = WorkUnitState.VALIDATED
            self.n_validated += 1
            self.validated_results_total += wu.n_results
            self.validated_flop += self.task.flops_per_task
            wu.deficit = 0
            return
        if needed is None:
            wu.state = WorkUnitState.INVALID
            self.n_invalid += 1
            wu.deficit = 0
            return
        # top up the replicas outstanding or owed to what is still needed;
        # needed <= max_replicas - n_results keeps issued + owed within budget
        grow = needed - (wu.replicas_issued - wu.n_results) - wu.deficit
        if grow > 0:
            wu.deficit += grow
            if not wu.in_needs:
                wu.in_needs = True
                self.needs.append(wu)

    def _flush_returns(self, h: _Host, now: float):
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
            heapq.heappush(self.heap, (r.deadline_s, r.seq, _EV_DEADLINE, h, 0))

    # -- work fetch ----------------------------------------------------------

    def _try_fetch(self, h: _Host, now: float):
        if not h.alive or not h.mem_ok or not h.comm_ok():
            return
        if now + 1e-9 < h.next_fetch_s:
            if not h.fetch_pending and h.next_fetch_s <= self.duration_s:
                h.fetch_pending = True
                self._push(h.next_fetch_s, _EV_FETCH, h)
            return
        # bring the in-flight replica up to date so the buffer gap is real
        self._settle_compute(h, now)
        need = h.buffer_flop - h.on_hand_flop
        if need <= 0.0:
            return
        n = math.ceil(need / self.task.flops_per_task)
        replicas = self._assign(h, n, now)
        for r in replicas:
            h.work.append(r)
            h.on_hand_flop += self.task.flops_per_task
        self._arm_deadline(h)
        h.next_fetch_s = now + MIN_CONNECTION_INTERVAL_DAYS * SECONDS_PER_DAY
        self._dl_changed(h, now)
        self._sync_compute(h, now)

    # -- state changes -------------------------------------------------------

    def _apply_transition(self, h: _Host, now: float):
        self._sync_compute(h, now)
        self._dl_changed(h, now)
        if h.comm_ok():
            self._flush_returns(h, now)
            self._try_fetch(h, now)

    # -- event handlers --------------------------------------------------------

    def _on_arrive(self, h: _Host, now: float):
        if h.depart_s <= self.duration_s:
            self._push(h.depart_s, _EV_DEPART, h)
        states = []
        for proc, frac in enumerate(h.fracs):
            if frac >= 1.0:
                state = True
            elif frac <= 0.0:
                state = False
            else:
                state = self.rng.random() < frac
                self._push_toggle(h, proc, state, now)
            states.append(state)
        h.on, h.conn, h.allow = states
        self.live_hosts[h.idx] = h
        if h.comm_ok():
            self._try_fetch(h, now)

    def _on_depart(self, h: _Host, now: float):
        if not h.alive:
            return
        self._settle_occupancy(h, now)
        self._settle_compute(h, now)
        self._settle_download(h, now)
        h.alive = False
        del self.live_hosts[h.idx]
        work = list(h.work)
        done, fetched = work[:h.n_done], work[h.n_done:h.n_done + h.n_ready]
        if fetched:
            self.lost_flop += self.task.flops_per_task - fetched[0].flops_left
        # computing, then the input still to come, downloaded, computed
        doomed = fetched[:1] + work[h.n_done + h.n_ready:] + fetched[1:] + done
        h.work.clear()
        h.n_done = h.n_ready = 0
        h.cp_running = False
        h.dl_running = False
        h.cp_epoch += 1
        h.dl_epoch += 1
        for r in doomed:
            self._deliver(r, ResultOutcome.LOST)
        if self.cap_mb is not None:
            self._sync_download_capped(h, now)

    def _on_toggle(self, h: _Host, proc: int, now: float):
        if not h.alive:
            return
        self._settle_occupancy(h, now)
        self._settle_compute(h, now)
        self._settle_download(h, now)
        if proc == _PROC_ON:
            h.on = state = not h.on
        elif proc == _PROC_CONN:
            h.conn = state = not h.conn
        else:
            h.allow = state = not h.allow
        self._push_toggle(h, proc, state, now)
        self._apply_transition(h, now)

    def _push_toggle(self, h: _Host, proc: int, up: bool, now: float):
        """Draw how long ``proc`` stays ``up`` (or down) from ``now``; push its flip.

        Up sojourns average ``dwell_s``, down ones whatever makes the long-run
        up fraction the host's fraction for ``proc``.
        """
        frac = h.fracs[proc]
        mean = self.dwell_s if up else self.dwell_s * (1.0 - frac) / frac
        t = now + self.rng.expovariate(1.0 / mean)
        # The departure was pushed first, so a toggle at or after it would
        # find the host gone; the draw that timed it is made all the same.
        if t < h.depart_s and t <= self.duration_s:
            self._push(t, _EV_TOGGLE, h, proc)

    def _on_cp_done(self, h: _Host, epoch: int, now: float):
        if not h.alive or epoch != h.cp_epoch:
            return
        self._settle_compute(h, now)
        r = h.work[h.n_done]
        # a float residue may be left; the replica still did one whole task
        self.done_flop += self.task.flops_per_task
        h.on_hand_flop -= r.flops_left
        r.outcome = (
            ResultOutcome.ERRONEOUS
            if self.cfg.error_rate > 0.0 and self.rng.random() < self.cfg.error_rate
            else ResultOutcome.CORRECT
        )
        h.n_done += 1
        h.n_ready -= 1
        h.cp_running = False
        h.cp_epoch += 1
        if h.comm_ok():
            self._flush_returns(h, now)
        self._sync_compute(h, now)
        if h.comm_ok():
            self._try_fetch(h, now)

    def _on_dl_done(self, h: _Host, epoch: int, now: float):
        if not h.alive or epoch != h.dl_epoch:
            return
        self._settle_download(h, now)
        h.work[h.n_done + h.n_ready].input_left = 0.0
        h.n_ready += 1
        h.dl_running = False
        h.dl_epoch += 1
        self.mb_downloaded += self.task.input_size
        self.downloads_completed += 1
        self._dl_changed(h, now)
        self._sync_compute(h, now)

    def _on_shared_done(self, epoch: int, now: float):
        if epoch != self.shared_epoch:
            return
        self.shared_eta = None
        _, _, dl_epoch, h = heapq.heappop(self.tags)
        self._on_dl_done(h, dl_epoch, now)

    def _on_deadline(self, h: _Host, now: float):
        """Write off each oldest replica that is due, then re-arm at the next.

        Replicas share one deadline offset and pass through the host in
        fetch order, so only the oldest can be due.
        """
        work = h.work
        while work and work[0].deadline_s <= now:
            self._settle_compute(h, now)
            self._settle_download(h, now)
            r = work.popleft()
            if h.n_done:  # computed, awaiting return
                h.n_done -= 1
            elif h.n_ready:  # computing
                h.n_ready -= 1
                h.cp_running = False
                h.cp_epoch += 1
                h.on_hand_flop -= r.flops_left
                self.lost_flop += self.task.flops_per_task - r.flops_left
                self._sync_compute(h, now)
            else:  # downloading
                h.dl_running = False
                h.dl_epoch += 1
                h.on_hand_flop -= r.flops_left
                self._dl_changed(h, now)
            self._deliver(r, ResultOutcome.TIMED_OUT)
            if h.comm_ok():
                self._try_fetch(h, now)
        h.deadline_armed = False
        self._arm_deadline(h)

    def _on_fetch(self, h: _Host, now: float):
        h.fetch_pending = False
        self._try_fetch(h, now)

    def _raw_flop(self) -> float:
        """Work done so far, as settled: whole tasks, then partial ones.

        Completed replicas count whole tasks, as validated units do, and the
        other terms are not negative, so raw work never rounds below
        validated work.
        """
        f = self.task.flops_per_task
        computing = sum(
            f - h.work[h.n_done].flops_left for h in self.live_hosts.values() if h.n_ready
        )
        return self.done_flop + self.lost_flop + computing

    def _on_sample(self, now: float):
        t = now if now > 0 else 1.0
        self.timeline.append(
            TimelineSample(
                time_days=now / SECONDS_PER_DAY,
                active_hosts=len(self.live_hosts),
                validated_workunits=self.n_validated,
                achieved_gflops=self.validated_flop / t / GIGA,
                raw_gflops=self._raw_flop() / t / GIGA,
                bytes_downloaded=self.mb_downloaded,
            )
        )

    # -- main loop -------------------------------------------------------------

    def run(self) -> SimReport:
        cfg = self.cfg
        duration_days = cfg.duration_days

        initial = generate_pool(cfg.pool_spec)
        arrivals_d = cfg.churn.arrival_times(duration_days, self.arrival_rng)
        arrival_seed = int(
            np.random.SeedSequence(cfg.seed).generate_state(4, np.uint64)[3]
        )
        arrival_pool = generate_pool(
            replace(cfg.pool_spec, n_hosts=len(arrivals_d), seed=arrival_seed)
        )
        lifetimes_d = cfg.churn.sample_lifetimes(
            len(initial) + len(arrival_pool), self.life_rng
        )

        def column(name):
            return np.concatenate([initial.column(name), arrival_pool.column(name)])

        # Each host's static values, a column at a time; host ``idx`` is row
        # ``idx`` of the initial pool followed by the arrival pool.
        arrive_d = np.concatenate([np.zeros(len(initial)), arrivals_d])
        flops_rate = column("flops") * GIGA * column("cpu_efficiency")
        if cfg.competing_share:
            flops_rate = flops_rate * column("resource_share")
        hosts = zip(
            (arrive_d * SECONDS_PER_DAY).tolist(),
            ((arrive_d + lifetimes_d) * SECONDS_PER_DAY).tolist(),
            zip(*(column(name).tolist() for name in
                  ("on_fraction", "connected_fraction", "active_fraction"))),
            flops_rate.tolist(),
            kbps_to_mb_per_s(column("throughput_down")).tolist(),
            (column("ram") >= self.task.memory_footprint).tolist(),
            (_buffer_s(cfg) * flops_rate).tolist(),
        )
        del initial, arrival_pool  # the hosts hold their values; free the columns
        for idx, values in enumerate(hosts):
            h = _Host(idx, *values)
            self._push(h.arrive_s, _EV_ARRIVE, h)

        step = cfg.timeline_step_hours * SECONDS_PER_HOUR
        t = step
        while t < self.duration_s:
            self._push(t, _EV_SAMPLE)
            t += step
        self._push(self.duration_s, _EV_SAMPLE)

        heap = self.heap
        while heap:
            t, _, code, a, b = heapq.heappop(heap)
            if t > self.duration_s:
                break
            self.now = t
            if code == _EV_CP_DONE:
                self._on_cp_done(a, b, t)
            elif code == _EV_DL_DONE:
                self._on_dl_done(a, b, t)
            elif code == _EV_TOGGLE:
                self._on_toggle(a, b, t)
            elif code == _EV_FETCH:
                self._on_fetch(a, t)
            elif code == _EV_DEADLINE:
                self._on_deadline(a, t)
            elif code == _EV_ARRIVE:
                self._on_arrive(a, t)
            elif code == _EV_DEPART:
                self._on_depart(a, t)
            elif code == _EV_DL_SHARED:
                self._on_shared_done(b, t)
            else:
                self._on_sample(t)

        end = self.duration_s
        for h in self.live_hosts.values():
            self._settle_occupancy(h, end)
            self._settle_compute(h, end)

        dur_s = self.duration_s
        member = self.member_time
        return SimReport(
            achieved_flops=self.validated_flop / dur_s / GIGA,
            raw_flops=self._raw_flop() / dur_s / GIGA,
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
            observed_on_fraction=self.on_time / member if member else 0.0,
            observed_connected_fraction=self.conn_time / member if member else 0.0,
            observed_active_fraction=self.allow_time / member if member else 0.0,
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
    achieved = report.achieved_flops
    return {
        "predicted": predicted,
        "achieved": achieved,
        "relative_error": abs(achieved - predicted) / predicted,
    }


def factors_from_sim_config(cfg: SimConfig) -> CapacityFactors:
    """Capacity factors implied by a simulation config.

    Field means come from the pool generators before rounding and clamping,
    redundancy from the quorum, resource share only when projects compete.
    """
    pool = cfg.pool_spec

    def frac(name: str) -> float:
        return min(1.0, max(0.0, pool.field_mean(name)))

    return CapacityFactors(
        arrival_rate=cfg.churn.mean_arrival_rate(cfg.duration_days),
        mean_lifetime=cfg.churn.lifetime_mean_days,
        mean_ncpus=pool.field_mean("n_cpus"),
        mean_flops_per_cpu=pool.field_mean("flops_per_cpu"),
        cpu_efficiency=frac("cpu_efficiency"),
        on_fraction=frac("on_fraction"),
        active_fraction=frac("active_fraction"),
        redundancy=float(cfg.min_quorum),
        resource_share=frac("resource_share") if cfg.competing_share else 1.0,
        connected_fraction=frac("connected_fraction"),
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
    days = sim_cfg.duration_days
    arrivals = churn.mean_arrival_rate(days) * days
    config.within_limit(arrivals, "expected arrivals")
    config.within_limit(days * 24.0 / sim_cfg.timeline_step_hours, "timeline samples")
    # every host fetches a full buffer on arrival, and each fetch at least one task
    mean_flops = (
        pool.field_mean("n_cpus") * pool.field_mean("flops_per_cpu") * GIGA
        * pool.field_mean("cpu_efficiency")
        * (pool.field_mean("resource_share") if sim_cfg.competing_share else 1.0)
    )
    per_host = max(1.0, _buffer_s(sim_cfg) * mean_flops / task.flops_per_task)
    config.within_limit((pool.n_hosts + arrivals) * per_host, "expected buffered replicas")
    return sim_cfg
