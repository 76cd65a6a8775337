"""Discrete-event pool simulation: quorum logic, throughput laws, invariants.

Slow checks share one module-scoped "workhorse" run with churn, errors and
deadline pressure; targeted behaviours get small dedicated runs whose
expected values come from closed forms computed in the test body.
"""

import json
import math
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from volpool import cli, ingest, presets
from volpool import sim as simmod
from volpool.capacity import compute_vs_rate_curve, utilization_product
from volpool.hosts import HostRecord
from volpool.population import ChurnModel, EmpiricalDistribution, assign_users, generate_pool
from volpool.sim import (
    ResultOutcome,
    SimConfig,
    TaskSpec,
    analytic_comparison,
    factors_from_sim_config,
    run_simulation,
    sim_config_from_config,
)
from volpool.units import kbps_to_mb_per_s

from conftest import IN_PROGRESS, INVALID, VALIDATED, flat_spec, quorum_state, replica_cost

NO_CHURN = ChurnModel(arrival_rate=0.0, lifetime_mean_days=1e9)
DAY_S = 86400.0


# -- quorum rule ---------------------------------------------------------------


def test_quorum_examples():
    assert quorum_state({"a", "b"}, 2, 2, 4) == (VALIDATED, 0)
    assert quorum_state({"a"}, 2, 2, 4) == (IN_PROGRESS, 1)
    # two corrects from one user only count once
    assert quorum_state(["a", "a"], 2, 2, 4) == (IN_PROGRESS, 1)
    assert quorum_state(set(), 3, 2, 4) == (INVALID, 2)
    assert quorum_state(set(), 0, 2, 4) == (IN_PROGRESS, 2)


def enumerated_replica_cost(p):
    """P(validated), E[replicas | validated] and its sigma at quorum 2 of at
    most 4 replicas: a unit validates on replica 2, 3 or 4 when that many
    results hold 0, 1 or 2 errors, none of them on the last result."""
    s = 1.0 - p
    probs = {2: s * s, 3: 2 * s * s * p, 4: 3 * s * s * p * p}
    mass = sum(probs.values())
    mean = sum(n * pr for n, pr in probs.items()) / mass
    second = sum(n * n * pr for n, pr in probs.items()) / mass
    return mass, mean, math.sqrt(second - mean * mean)


def test_exact_oracle_matches_enumeration():
    for p in (0.0, 0.01, 0.05, 0.3, 0.9):
        got = replica_cost(p, 2, 4)
        assert got == pytest.approx(enumerated_replica_cost(p), rel=0, abs=1e-12)


# -- fair shares -----------------------------------------------------------------


def fair_shares(caps, total):
    """Max-min fair split of ``total`` among capped flows, as the engine makes it:
    each flow gets the smaller of its cap and the water level."""
    level = simmod._water_level(sorted(caps), len(caps), total)
    return [min(c, level) for c in caps]


def test_fair_shares_examples():
    assert fair_shares([1.0, 2.0, 3.0], 3.0) == [1.0, 1.0, 1.0]
    assert fair_shares([0.5, 2.0, 3.0], 3.0) == [0.5, 1.25, 1.25]
    assert fair_shares([1.0, 2.0], 10.0) == [1.0, 2.0]  # cap not binding
    assert fair_shares([], 5.0) == []


@settings(max_examples=100)
@given(
    caps=st.lists(st.floats(0.0, 100.0), max_size=8),
    total=st.floats(0.0, 300.0),
)
def test_fair_shares_properties(caps, total):
    alloc = fair_shares(caps, total)
    assert len(alloc) == len(caps)
    assert all(0.0 <= a <= c + 1e-9 for a, c in zip(alloc, caps))
    want = min(total, sum(caps))
    assert sum(alloc) == pytest.approx(want, abs=1e-6)
    # max-min fairness: every uncapped flow gets the largest allocation
    if alloc:
        top = max(alloc)
        for a, c in zip(alloc, caps):
            if a < c - 1e-9:
                assert a == pytest.approx(top, abs=1e-9)


# -- egress sharing in the engine -------------------------------------------------


class _CheckedEngine(simmod._Engine):
    """Checks the lazy fair sharing after every change to a capped download.

    Besides the rates, it integrates each host's remaining input itself, at
    the rates in force since its previous check, and compares.
    """

    def __init__(self, cfg):
        super().__init__(cfg)
        self.n_checks = 0
        self.checked_at = 0.0
        self.rates = {}  # host -> its download rate since checked_at, MB/s
        self.left = {}  # host -> input MB its download still needed at checked_at
        self.finished = []  # hosts whose download completed since checked_at
        self.stopped = []  # hosts whose download ended since checked_at, completed or not

    def _complete_download(self, h):
        self.finished.append(h)
        super()._complete_download(h)

    def _stop_download(self, h):
        self.stopped.append(h)
        super()._stop_download(h)

    def _sync_download_capped(self, h, now):
        super()._sync_download_capped(h, now)
        self.n_checks += 1
        for g, rate in self.rates.items():
            self.left[g] -= rate * (now - self.checked_at)
            assert self.left[g] >= -1e-6  # no download overruns its input
        for g in self.finished:
            assert self.left[g] == pytest.approx(0.0, abs=1e-6)
        for g in self.stopped:
            self.left.pop(g, None)  # its next input starts whole
        self.finished.clear()
        self.stopped.clear()
        cap = self.cap_mb
        running = sorted(
            (g.dl_cap, g.idx) for g in self.live_hosts.values()
            if len(g.work) > g.n_done + g.n_ready and g.mask == simmod._COMM and g.dl_cap > 0.0
        )
        assert [(c, i) for c, i, _ in self.flows] == running
        flows = [g for _, _, g in self.flows]
        assert all(g.dl_running for g in flows)
        rates = [g.dl_cap if g.dl_tag is None else self.level for g in flows]
        want = fair_shares([g.dl_cap for g in flows], cap)
        for got, exp in zip(rates, want):
            assert got == pytest.approx(exp, rel=1e-12)
        assert sum(rates) <= cap * (1.0 + 1e-12)
        assert self.mb_downloaded <= cap * now * (1.0 + 1e-12)
        for g in flows:
            if g.dl_tag is None:
                left = g.dl_left - (now - g.dl_mark) * g.dl_cap
            else:
                left = g.dl_tag - self._clock(now)
            assert left == pytest.approx(self.left.setdefault(g, self.task.input_size), abs=1e-6)
        self.rates = dict(zip(flows, rates))
        self.checked_at = now
        # the one pending shared event is due when the earliest live tag is reached
        shared = [g for g in flows if g.dl_tag is not None]
        live_tags = sorted(t for t, _, e, g in self.tags if e == g.dl_epoch)
        assert live_tags == sorted(g.dl_tag for g in shared)
        if shared:
            left = max(live_tags[0] - self._clock(now), 0.0)
            assert self.shared_eta == pytest.approx(now + left / self.level, rel=1e-12)
        else:
            assert self.level == math.inf and self.shared_eta is None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_hosts=st.integers(1, 16),
    link_cv=st.floats(0.05, 2.0),
    cap_frac=st.floats(0.05, 2.0),
    arrival_rate=st.floats(0.0, 20.0),
    lifetime=st.floats(0.2, 5.0),
    availability=st.floats(0.5, 1.0),
    dwell_hours=st.floats(0.5, 6.0),
    deadline=st.floats(0.02, 1.0),
    input_mb=st.floats(1.0, 40.0),
    task_flop=st.floats(1e11, 2e13),
)
def test_lazy_egress_sharing_matches_fair_shares(
    seed, n_hosts, link_cv, cap_frac, arrival_rate, lifetime, availability,
    dwell_hours, deadline, input_mb, task_flop,
):
    spec = flat_spec(n_hosts, seed=seed % 1000, on=availability,
                     conn=availability, act=availability)
    # heterogeneous links, so flows below the fair share keep their own rate
    links = EmpiricalDistribution.from_lognormal(mean=1000.0, cv=link_cv, n=64)
    spec = replace(spec, field_generators={**spec.field_generators, "throughput_down": links})
    link_total_mbps = sum(generate_pool(spec).throughput_down.tolist()) / 1000.0
    cfg = SimConfig(
        duration_days=1.0, seed=seed,
        churn=ChurnModel(arrival_rate=arrival_rate, lifetime_mean_days=lifetime),
        pool_spec=spec,
        task=TaskSpec(flops_per_task=task_flop, input_size=input_mb, deadline=deadline),
        min_quorum=2, max_replicas=3, error_rate=0.1,
        server_egress_cap=cap_frac * link_total_mbps, mean_dwell_hours=dwell_hours,
    )
    engine = _CheckedEngine(cfg)
    report = engine.run()
    # every fetch is checked; a host that never communicates fetches nothing
    assert engine.n_checks > 0 or report.n_workunits == 0
    assert report.bytes_downloaded <= engine.cap_mb * DAY_S * (1.0 + 1e-12)


def _capped_quorum_config(cap_mbps):
    return sim_config_from_config({
        "duration_days": 2.0, "seed": 1,
        "churn": {"arrival_rate": 25.0, "lifetime_mean_days": 10.0},
        "pool": {"n_hosts": 250},
        "task": {"input_size_mb": 20.0},
        "min_quorum": 2, "max_replicas": 4, "error_rate": 0.05,
        "server_egress_cap_mbps": cap_mbps,
    })


def test_binding_egress_cap_costs_few_events():
    """Sharing a binding cap re-schedules only the flows that change kind."""
    uncapped = simmod._Engine(_capped_quorum_config(None))
    free = uncapped.run()
    capped = simmod._Engine(_capped_quorum_config(1.25))
    shared = capped.run()
    assert shared.bytes_downloaded < 0.6 * free.bytes_downloaded  # the cap binds
    assert capped.seq <= 2 * uncapped.seq


class _LivenessCheckedEngine(simmod._Engine):
    """Checks that the handlers need no liveness test of their own.

    Every wake, every compute or download completion whose epoch is still
    current and every fetch retry whose seq is still current is for a live
    host. Events that reach a departed host are counted by kind: their
    epochs alone must turn them away.
    """

    def __init__(self, cfg):
        super().__init__(cfg)
        self.n_wakes = 0
        self.current = Counter()
        self.after_departure = Counter()

    def _check(self, h, current, kind):
        live = h.idx in self.live_hosts
        if current:
            assert live
            self.current[kind] += 1
        elif not live:
            self.after_departure[kind] += 1

    def _on_wake(self, h, _, now):
        assert h.idx in self.live_hosts
        self.n_wakes += 1
        super()._on_wake(h, _, now)

    def _on_cp_done(self, h, epoch, now):
        self._check(h, epoch == h.cp_epoch, "compute")
        super()._on_cp_done(h, epoch, now)

    def _on_dl_done(self, h, epoch, now):
        self._check(h, epoch == h.dl_epoch, "download")
        super()._on_dl_done(h, epoch, now)

    def _on_fetch(self, h, seq, now):
        self._check(h, seq == h.fetch_seq, "fetch")
        super()._on_fetch(h, seq, now)


@pytest.mark.parametrize("cap_mbps", [None, 2.0], ids=["uncapped", "capped"])
@pytest.mark.parametrize("seed", [1, 2])
def test_handlers_only_act_on_live_hosts(seed, cap_mbps):
    """Half-day lifetimes: hosts depart mid-download and mid-compute.

    No compute completion or fetch retry is pushed past its host's
    departure, nor, uncapped, any download completion. Under a cap a
    download that starts or changes rate pushes its completion without a
    departure test.
    """
    cfg = SimConfig(
        duration_days=3.0, seed=seed,
        churn=ChurnModel(arrival_rate=40.0, lifetime_mean_days=0.5),
        pool_spec=flat_spec(20, seed=seed, on=0.7, conn=0.7, act=0.7, thr=500.0),
        task=TaskSpec(flops_per_task=5e12, input_size=20.0, deadline=1.0),
        min_quorum=2, max_replicas=3, error_rate=0.1,
        server_egress_cap=cap_mbps, mean_dwell_hours=2.0,
    )
    engine = _LivenessCheckedEngine(cfg)
    engine.run()
    assert engine.n_wakes > 0 and min(engine.current.values()) > 0
    assert len(engine.current) == 3
    assert engine.after_departure["compute"] == engine.after_departure["fetch"] == 0
    assert (engine.after_departure["download"] > 0) == (cap_mbps is not None)


class _DeadlineCountingEngine(simmod._Engine):
    """Counts hosts, deadline events and the results they time out."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.n_hosts = 0
        self.deadline_events = 0
        self.timed_out = 0

    def _on_arrive(self, h, _, now):
        self.n_hosts += 1
        super()._on_arrive(h, _, now)

    def _on_deadline(self, *args):
        self.deadline_events += 1
        super()._on_deadline(*args)

    def _deliver(self, r, outcome):
        self.timed_out += outcome is ResultOutcome.TIMED_OUT
        super()._deliver(r, outcome)


def _small_steady_config():
    """The criterion-7 config cut to 200 hosts and 10 days, still at steady state."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "simulate_steady_state.json"
    cfg = json.loads(path.read_text())
    cfg.update(duration_days=10.0, seed=1)
    cfg["pool"]["n_hosts"] = 200
    cfg["churn"]["arrival_rate"] = 200 / cfg["churn"]["lifetime_mean_days"]
    return sim_config_from_config(cfg)


def test_deadlines_cost_few_events():
    """One deadline timer per host, not one event per replica."""
    sim_cfg = _small_steady_config()
    engine = _DeadlineCountingEngine(sim_cfg)
    report = engine.run()
    bound = engine.timed_out + engine.n_hosts * (
        sim_cfg.duration_days / sim_cfg.task.deadline + 1.0
    )
    assert report.n_results > 4 * bound  # one event per replica would not fit
    assert engine.deadline_events <= bound


class _FetchCountingEngine(simmod._Engine):
    """Counts download completion and fetch retry events, and the fetches they make."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.dl_events = 0
        self.fetch_events = 0
        self.idle_fetch_events = 0
        self.fetches = 0

    def _on_dl_done(self, *args):
        self.dl_events += 1
        super()._on_dl_done(*args)

    def _assign(self, h, n, now):
        self.fetches += 1
        return super()._assign(h, n, now)

    def _on_fetch(self, *args):
        self.fetch_events += 1
        before = self.fetches
        super()._on_fetch(*args)
        self.idle_fetch_events += self.fetches == before


def test_idle_downloads_and_retries_cost_few_events():
    """A download that would start nothing and a retry that cannot fetch push no event."""
    engine = _FetchCountingEngine(_small_steady_config())
    report = engine.run()
    assert report.downloads_completed > 10_000
    # most inputs arrive while the previous replica computes
    assert engine.dl_events <= 0.2 * report.downloads_completed
    # a retry waits for a buffer with room; most of those that still fetch
    # nothing find the host unable to communicate
    assert engine.idle_fetch_events <= 0.25 * engine.fetch_events


class _RetryOrderEngine(simmod._Engine):
    """Records, per fetch retry, the fetch that set it, the first call that
    came too early for it and the order in which the retries run."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.set_by = {}  # (retry instant, host) -> order of the fetch that set it
        self.early = {}  # (retry instant, host) -> order of its first too-early call
        self.retried = []  # (instant, host) of each current retry, in the order run

    def _try_fetch(self, h, now):
        due = h.next_fetch_s
        if now + 1e-9 < due:
            self.early.setdefault((due, h.idx), len(self.early))
        super()._try_fetch(h, now)
        if h.next_fetch_s != due:
            self.set_by[(h.next_fetch_s, h.idx)] = len(self.set_by)

    def _on_fetch(self, h, seq, now):
        if self.now_seq == h.fetch_seq:
            self.retried.append((now, h.idx))
        super()._on_fetch(h, seq, now)


def test_tied_retries_run_in_fetch_order():
    """Always-on hosts that all fetch at the start retry at one instant.

    They differ in speed, so their first replicas complete, and their first
    too-early calls come, in another order than their fetches. The retries
    run in the order of the fetches that set them.
    """
    speeds = EmpiricalDistribution((1.0, 2.0, 3.0, 4.0, 5.0, 6.0))  # GFLOPS
    spec = flat_spec(6, seed=5)
    spec = replace(spec, field_generators={**spec.field_generators, "flops_per_cpu": speeds})
    cfg = SimConfig(
        duration_days=1.0, seed=5, churn=NO_CHURN, pool_spec=spec,
        task=TaskSpec(flops_per_task=2e12, input_size=1.0, deadline=2.0), min_quorum=1,
    )
    engine = _RetryOrderEngine(cfg)
    engine.run()
    retried = engine.retried
    assert len({t for t, _ in retried}) < len(retried)  # some retries are tied
    in_fetch_order = sorted(retried, key=engine.set_by.get)
    assert in_fetch_order != sorted(retried, key=engine.early.get)
    assert retried == in_fetch_order


class _CountingQueue(deque):
    def __init__(self):
        super().__init__()
        self.pops = 0

    def popleft(self):
        self.pops += 1
        return super().popleft()


class _WalkCountingEngine(simmod._Engine):
    """Counts the work units ``_assign`` takes off the server's queue."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.needs = _CountingQueue()


def test_assign_walks_units_no_live_host_can_take_once():
    """One host and quorum 2: every unit waits for a second host that never comes."""
    cfg = sim_config_from_config({
        "duration_days": 100.0, "timeline_step_hours": 100000.0,
        "pool": {"n_hosts": 1},
        "churn": {"arrival_rate": 0.0, "lifetime_mean_days": 1e9},
    })
    engine = _WalkCountingEngine(cfg)
    report = engine.run()
    assert report.n_validated == 0 and report.n_workunits > 200
    # each unit is walked when it first waits; the quadratic walk re-read
    # every waiting unit at every fetch
    assert engine.needs.pops <= 2 * report.n_workunits


class _UnparkedEngine(simmod._Engine):
    """Walks past every unit it cannot serve, parking none."""

    def _held_by_every_live_host(self, wu):
        return False


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_hosts=st.integers(1, 3),
    quorum=st.integers(2, 3),
    extra=st.integers(0, 2),
    arrival_rate=st.floats(0.0, 3.0),
    lifetime=st.floats(0.5, 5.0),
    error_rate=st.sampled_from([0.0, 0.2]),
)
def test_parked_units_return_in_queue_order(
    seed, n_hosts, quorum, extra, arrival_rate, lifetime, error_rate,
):
    """Few hosts, high quorum: units wait for arrivals, and leave in the order they came."""
    cfg = SimConfig(
        duration_days=8.0, seed=seed,
        churn=ChurnModel(arrival_rate=arrival_rate, lifetime_mean_days=lifetime),
        pool_spec=flat_spec(n_hosts, seed=seed % 1000, on=0.8, conn=0.8, act=0.8),
        task=TaskSpec(flops_per_task=2e13, input_size=1.0, deadline=2.0),
        min_quorum=quorum, max_replicas=quorum + extra, error_rate=error_rate,
    )
    parking = _WalkCountingEngine(cfg)
    assert parking.run() == _UnparkedEngine(cfg).run()


class _EagerEngine(simmod._Engine):
    """The reference the engine's walks are checked against: it leaves nothing out.

    Every flip is an event. It settles the side whose eligibility changes
    and pushes a completion afresh whenever a replica or an input resumes;
    at a communication up-edge it returns results and fetches. Each download
    completion and each fetch retry is pushed.
    """

    def __init__(self, cfg):
        super().__init__(cfg)
        if self.cap_mb is None:
            self._dl_changed = self._sync_download

    def _arm_wake(self, h):
        """Push the event of ``h``'s next flip, if its trace holds one."""
        if h.tr_i < len(h.tr_t) or self.traces.extend(h):
            self._push(h.tr_t[h.tr_i], self._on_flip, h)

    def _on_flip(self, h, _, now):
        if h.tr_next <= now:
            self._advance(h, now)
        self._arm_wake(h)

    def _advance(self, h, now):
        times, masks = h.tr_t, h.tr_m
        while True:
            if h.tr_i == len(times):
                del times[:], masks[:]
                h.tr_i = 0
                if not self.traces.extend(h):
                    h.tr_next = math.inf
                    return
            t = times[h.tr_i]
            if t > now:
                h.tr_next = t
                return
            h.tr_i += 1
            self._flip(h, t, masks[h.tr_i - 1])

    def _flip(self, h, t, mask):
        """Apply one flip at ``t``: only the side whose eligibility changes is touched."""
        old, h.mask = h.mask, mask
        cp_bits, comm_bits = simmod._COMPUTE, simmod._COMM
        compute = (old & cp_bits == cp_bits) != (mask & cp_bits == cp_bits)
        comm = (old == comm_bits) != (mask == comm_bits)
        if compute:
            self._settle_compute(h, t)
        if comm:
            self._settle_download(h, t)
        if compute:
            self._sync_compute(h, t)
        if comm:
            self._dl_changed(h, t)
            if mask == comm_bits:
                self._flush_returns(h)
                self._try_fetch(h, t)

    def _sync_compute(self, h, now):
        """Run the oldest downloaded replica exactly while the host may compute."""
        may_compute = h.mask & simmod._COMPUTE == simmod._COMPUTE
        running = h.n_ready > 0 and may_compute and h.flops_rate > 0.0
        if running != h.cp_running:
            h.cp_epoch += 1
            h.cp_running = running
            if running:
                h.cp_mark = now
                eta = now + h.cp_left / h.flops_rate
                self._push(eta, self._on_cp_done, h, h.cp_epoch)

    def _sync_download(self, h, now):
        """Run the next input exactly while the host may communicate, uncapped."""
        i = h.n_done + h.n_ready
        running = len(h.work) > i and h.mask == simmod._COMM and h.dl_cap > 0.0
        if running != h.dl_running:
            h.dl_epoch += 1
            h.dl_running = running
            if running:
                h.dl_mark = now
                eta = now + h.dl_left / h.dl_cap
                self._push(eta, self._on_dl_done, h, h.dl_epoch)

    def _may_fetch_at(self, h, t):
        return h.depart_s > t


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_hosts=st.integers(1, 12),
    availability=st.sampled_from([1.0, 0.95, 0.7, 0.4]),
    always_connected=st.booleans(),
    arrival_rate=st.floats(0.0, 20.0),
    lifetime=st.floats(0.2, 5.0),
    quorum=st.integers(1, 2),
    error_rate=st.sampled_from([0.0, 0.1]),
    dwell_hours=st.floats(0.5, 6.0),
    deadline=st.floats(0.05, 1.0),
    input_mb=st.floats(0.1, 40.0),
    task_flop=st.floats(1e11, 2e13),
    buffer_days=st.sampled_from([None, 0.3]),
    cap_mbps=st.sampled_from([None, 2.0]),
)
def test_events_left_out_change_no_output(
    seed, n_hosts, availability, always_connected, arrival_rate, lifetime, quorum,
    error_rate, dwell_hours, deadline, input_mb, task_flop, buffer_days, cap_mbps,
):
    """Skipping idle events changes no output.

    The engine walks the hosts' traces instead of popping their flips, and
    wakes a host only at an edge of its communication. Identical hosts that
    are always on fetch, download and retry at tied instants; the reserved
    seqs keep those ties in order. A host that is always connected flips
    compute and communication together, so one flip settles both sides.
    """
    cfg = SimConfig(
        duration_days=1.5, seed=seed,
        churn=ChurnModel(arrival_rate=arrival_rate, lifetime_mean_days=lifetime),
        pool_spec=flat_spec(n_hosts, seed=seed % 1000, on=availability,
                            conn=1.0 if always_connected else availability,
                            act=availability),
        task=TaskSpec(flops_per_task=task_flop, input_size=input_mb, deadline=deadline),
        min_quorum=quorum, max_replicas=quorum + 1, error_rate=error_rate,
        server_egress_cap=cap_mbps, mean_dwell_hours=dwell_hours,
        work_buffer_days=buffer_days,
    )
    lazy, eager = simmod._Engine(cfg), _EagerEngine(cfg)
    assert lazy.run() == eager.run()
    assert lazy.seq <= eager.seq


class _SlotCheckedEngine(simmod._Engine):
    """Checks every live host's two slots, compute and download, after each handler.

    A slot holds the progress of the replica in it and a whole task or input
    while it holds none: the compute slot whenever no replica is ready, the
    download slot whenever no input waits. Both stay between none and whole.
    """

    def _check_slots(self):
        flop, mb = self.task.flops_per_task, self.task.input_size
        for h in self.live_hosts.values():
            assert 0.0 <= h.cp_left <= flop
            assert 0.0 <= h.dl_left <= mb
            if h.n_ready == 0:
                assert h.cp_left == flop
            if len(h.work) == h.n_done + h.n_ready:
                assert h.dl_left == mb


def _slot_checked(handler):
    def checked(self, a, b, now):
        handler(self, a, b, now)
        self._check_slots()
    return checked


for _name in [name for name in vars(simmod._Engine) if name.startswith("_on_")]:
    setattr(_SlotCheckedEngine, _name, _slot_checked(getattr(simmod._Engine, _name)))


@pytest.mark.parametrize("cap_mbps", [None, 2.0], ids=["uncapped", "capped"])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_hosts=st.integers(1, 10),
    availability=st.sampled_from([1.0, 0.9, 0.6]),
    arrival_rate=st.floats(0.0, 20.0),
    lifetime=st.floats(0.2, 3.0),
    quorum=st.integers(1, 3),
    error_rate=st.sampled_from([0.0, 0.2]),
    dwell_hours=st.floats(0.5, 6.0),
    deadline=st.floats(0.05, 1.0),
    input_mb=st.floats(0.1, 40.0),
    task_flop=st.floats(1e11, 2e13),
    buffer_days=st.sampled_from([None, 0.3]),
)
# a flow started at a large shared clock: its tag less the clock rounded above
# the whole input
@example(seed=0, n_hosts=7, availability=0.9, arrival_rate=0.0, lifetime=2.0, quorum=1,
         error_rate=0.0, dwell_hours=1.0, deadline=1.0, input_mb=0.642940909011864,
         task_flop=1e11, buffer_days=0.3)
def test_each_slot_holds_one_replicas_progress(
    cap_mbps, seed, n_hosts, availability, arrival_rate, lifetime, quorum,
    error_rate, dwell_hours, deadline, input_mb, task_flop, buffer_days,
):
    """Completions, deadlines and departures each empty a slot; the next
    replica starts from a whole task or input, and checking changes no output."""
    cfg = SimConfig(
        duration_days=1.5, seed=seed,
        churn=ChurnModel(arrival_rate=arrival_rate, lifetime_mean_days=lifetime),
        pool_spec=flat_spec(n_hosts, seed=seed % 1000, on=availability,
                            conn=availability, act=availability),
        task=TaskSpec(flops_per_task=task_flop, input_size=input_mb, deadline=deadline),
        min_quorum=quorum, max_replicas=quorum + 1, error_rate=error_rate,
        server_egress_cap=cap_mbps, mean_dwell_hours=dwell_hours,
        work_buffer_days=buffer_days,
    )
    assert _SlotCheckedEngine(cfg).run() == simmod._Engine(cfg).run()


class _PopCountingEngine(simmod._Engine):
    """Counts handler calls by name, and the pops that find nothing to do.

    Each call is a heap pop, except a download completion that a shared
    completion event runs under a cap.

    A stale completion is a compute completion whose epoch is no longer
    current. A wake off the mark is one at a flip the engine need not wake
    for (``_wakes_for``).
    """

    def __init__(self, cfg):
        super().__init__(cfg)
        self.pops = Counter()
        self.stale_completions = 0
        self.wakes_off_the_mark = 0

    def _wakes_for(self, h, now):
        """Whether ``h``'s flip at ``now`` is one the engine must wake for.

        That is a communication edge of a host that may hold work: uncapped
        an up-edge, under a cap either edge.
        """
        self._advance(h, math.nextafter(now, -math.inf))  # every flip before this one
        if not (h.mem_ok and h.tr_next == now):
            return False
        was_up, up = h.mask == simmod._COMM, h.tr_m[h.tr_i] == simmod._COMM
        return was_up != up and (up or self.cap_mb is not None)

    def _on_cp_done(self, h, epoch, now):
        self.stale_completions += epoch != h.cp_epoch
        super()._on_cp_done(h, epoch, now)

    def _on_wake(self, h, _, now):
        self.wakes_off_the_mark += not self._wakes_for(h, now)
        super()._on_wake(h, _, now)


def _counted(name, handler):
    def counted(self, a, b, now):
        self.pops[name] += 1
        handler(self, a, b, now)
    return counted


for _name in [name for name in vars(simmod._Engine) if name.startswith("_on_")]:
    setattr(_PopCountingEngine, _name, _counted(_name, getattr(_PopCountingEngine, _name)))


class _EagerPopCountingEngine(_PopCountingEngine, _EagerEngine):
    """Also counts, among the flips it pops, those the engine must wake for."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.flips_to_wake_for = 0

    def _on_flip(self, h, _, now):
        self.pops["_on_flip"] += 1
        self.flips_to_wake_for += self._wakes_for(h, now)
        super()._on_flip(h, _, now)


@pytest.mark.parametrize("cap_mbps", [None, 2.0], ids=["uncapped", "capped"])
def test_engine_pops_no_idle_flip_or_stale_completion(cap_mbps):
    """Compute flips and idle flips are walked, not popped, and a compute
    completion is pushed once: the engine pops a wake for exactly the
    communication edges it needs, uncapped the up-edges alone."""
    cfg = SimConfig(
        duration_days=4.0, seed=3,
        churn=ChurnModel(arrival_rate=10.0, lifetime_mean_days=2.0),
        pool_spec=flat_spec(20, seed=3, on=0.7, conn=0.9, act=0.8),
        task=TaskSpec(flops_per_task=5e12, input_size=5.0, deadline=1.0),
        min_quorum=2, max_replicas=3, error_rate=0.1, mean_dwell_hours=3.0,
        server_egress_cap=cap_mbps,
    )
    lazy, eager = _PopCountingEngine(cfg), _EagerPopCountingEngine(cfg)
    assert lazy.run() == eager.run()
    assert "_on_flip" not in lazy.pops and lazy.pops["_on_wake"] > 0
    assert lazy.wakes_off_the_mark == 0
    assert lazy.pops["_on_wake"] == eager.flips_to_wake_for
    assert lazy.stale_completions == 0 and eager.stale_completions > 0
    if cap_mbps is None:
        assert eager.pops["_on_flip"] > 2 * lazy.pops["_on_wake"]
    assert sum(lazy.pops.values()) <= 0.75 * sum(eager.pops.values())


def test_availability_is_common_to_task_quorum_and_cap():
    """Traces hang off the pool and the churn alone: changing the task, the
    quorum or the egress cap leaves every host's flips where they were."""
    base = SimConfig(
        duration_days=3.0, seed=4,
        churn=ChurnModel(arrival_rate=10.0, lifetime_mean_days=1.0),
        pool_spec=flat_spec(12, seed=4, on=0.7, conn=0.8, act=0.75),
        task=TaskSpec(flops_per_task=5e12, input_size=5.0, deadline=1.0),
        min_quorum=1, max_replicas=1, mean_dwell_hours=2.0,
    )
    variants = [
        base,
        replace(base, task=TaskSpec(flops_per_task=2e13, input_size=40.0, deadline=2.0)),
        replace(base, min_quorum=2, max_replicas=4, error_rate=0.1),
        replace(base, server_egress_cap=1.0),
    ]
    reports = [run_simulation(cfg) for cfg in variants]
    assert len(set(reports)) == len(reports)  # the runs differ
    for name in ("observed_on_fraction", "observed_connected_fraction",
                 "observed_active_fraction", "mean_active_hosts"):
        assert len({getattr(r, name) for r in reports}) == 1, name


# -- config validation ------------------------------------------------------------


def test_task_spec_validation():
    with pytest.raises(ValueError, match="flops_per_task must be positive"):
        TaskSpec(flops_per_task=0.0, input_size=1.0)
    with pytest.raises(ValueError, match="input_size must be positive"):
        TaskSpec(flops_per_task=1.0, input_size=0.0)
    with pytest.raises(ValueError, match="deadline must be positive"):
        TaskSpec(flops_per_task=1.0, input_size=1.0, deadline=0.0)


def test_sim_config_validation():
    ok = dict(
        duration_days=1.0, seed=1, churn=NO_CHURN,
        pool_spec=flat_spec(1, seed=1),
        task=TaskSpec(flops_per_task=1e12, input_size=1.0),
    )
    with pytest.raises(ValueError, match="duration_days must be positive"):
        SimConfig(**{**ok, "duration_days": 0.0})
    with pytest.raises(ValueError, match="min_quorum must be at least 1"):
        SimConfig(**ok, min_quorum=0)
    with pytest.raises(ValueError, match="max_replicas below min_quorum"):
        SimConfig(**ok, min_quorum=3, max_replicas=2)
    with pytest.raises(ValueError, match="error_rate outside"):
        SimConfig(**ok, error_rate=1.0)
    with pytest.raises(ValueError, match="server_egress_cap must be positive"):
        SimConfig(**ok, server_egress_cap=0.0)
    with pytest.raises(ValueError, match="work_buffer_days must be positive"):
        SimConfig(**ok, work_buffer_days=0.0)


# -- small closed-form runs ---------------------------------------------------------


def test_single_dedicated_host_tracks_hardware_speed():
    """A 1 GFLOPS always-on host should sustain ~1 GFLOPS of validated work."""
    cfg = SimConfig(
        duration_days=10.0, seed=5, churn=NO_CHURN,
        pool_spec=flat_spec(1, seed=2),
        task=TaskSpec(flops_per_task=5e11, input_size=0.1),
        min_quorum=1, max_replicas=1,
    )
    r = run_simulation(cfg)
    assert r.mean_active_hosts == 1.0
    assert 0.998 <= r.achieved_gflops <= 1.0 + 1e-9
    assert r.achieved_gflops <= r.raw_gflops <= 1.0 + 1e-9
    # every validated unit took one download of one input file
    assert r.n_validated in (r.downloads_completed, r.downloads_completed - 1)
    assert r.bytes_downloaded == pytest.approx(r.downloads_completed * 0.1)
    assert r.observed_on_fraction == 1.0
    assert r.observed_connected_fraction == 1.0


def test_network_bound_run_matches_saturation_formula():
    """Input data 10x the link-feedable rate cuts throughput to a tenth."""
    task = TaskSpec(flops_per_task=1e12, input_size=1250.0, deadline=5.0)
    data_rate = 1250.0 / (1e12 / 3.6e12)  # MB per 3.6e12 FLOP
    assert data_rate == 4500.0
    cfg = SimConfig(
        duration_days=40.0, seed=13, churn=NO_CHURN,
        pool_spec=flat_spec(20, seed=5),
        task=task, min_quorum=1, max_replicas=1,
    )
    factors = factors_from_sim_config(cfg)
    assert utilization_product(factors) == 1.0  # always on, quorum 1
    # 1 GFLOPS at 1 Mbps: critical rate 450, so 4500 leaves a tenth
    total, _ = compute_vs_rate_curve(generate_pool(cfg.pool_spec), [data_rate], factors)
    predicted = total[0]
    assert predicted == pytest.approx(2.0)
    r = run_simulation(cfg)
    assert r.achieved_gflops == pytest.approx(predicted, rel=0.05)


def test_server_egress_cap_limits_aggregate_rate():
    base = dict(
        duration_days=10.0, seed=21, churn=NO_CHURN,
        pool_spec=flat_spec(5, seed=6),
        task=TaskSpec(flops_per_task=1e12, input_size=1250.0, deadline=5.0),
        min_quorum=1, max_replicas=1,
    )
    uncapped = run_simulation(SimConfig(**base))
    capped = run_simulation(SimConfig(**base, server_egress_cap=2.0))
    # five 1 Mbps links compete for 2 Mbps: 0.25 MB/s aggregate
    budget_mb = 0.25 * 10.0 * DAY_S
    assert capped.bytes_downloaded <= budget_mb + 1e-6
    assert capped.bytes_downloaded >= 0.9 * budget_mb
    assert capped.bytes_downloaded < 0.5 * uncapped.bytes_downloaded
    assert capped.achieved_gflops < 0.5 * uncapped.achieved_gflops


def test_timeline_counts_work_up_to_each_sample():
    """A task longer than the run: every sample counts the progress made by then."""
    cfg = SimConfig(
        duration_days=1.0, seed=1, churn=NO_CHURN,
        pool_spec=flat_spec(1, seed=1),
        task=TaskSpec(flops_per_task=1e15, input_size=1.0, deadline=30.0),
        min_quorum=1, max_replicas=1,
    )
    r = run_simulation(cfg)
    assert r.n_results == 0 and r.downloads_completed == 1
    start_s = 1.0 / kbps_to_mb_per_s(1000.0)  # computing starts once the input is in
    assert len(r.timeline) == 4
    for sample in r.timeline:
        t = sample.time_days * DAY_S
        assert sample.raw_gflops == pytest.approx((t - start_s) / t, rel=1e-12)
    assert r.timeline[-1].raw_gflops == pytest.approx(r.raw_gflops, rel=1e-12)


def test_deadline_starved_units_invalidate():
    """Two-day tasks against a one-day deadline never validate."""
    cfg = SimConfig(
        duration_days=10.0, seed=3, churn=NO_CHURN,
        pool_spec=flat_spec(1, seed=2),
        task=TaskSpec(flops_per_task=2.0 * DAY_S * 1e9, input_size=1.0, deadline=1.0),
        min_quorum=1, max_replicas=1,
    )
    r = run_simulation(cfg)
    assert r.n_validated == 0
    assert r.n_invalid >= 9
    assert r.achieved_gflops == 0.0
    assert r.replicas_per_validated_task == 0.0
    # the host still burnt its cycles on the doomed work
    assert r.raw_gflops == pytest.approx(1.0, rel=0.01)


def test_empty_pool_runs_to_nothing():
    cfg = SimConfig(
        duration_days=5.0, seed=1, churn=NO_CHURN,
        pool_spec=flat_spec(0, seed=1),
        task=TaskSpec(flops_per_task=1e12, input_size=1.0),
        min_quorum=1, max_replicas=1,
    )
    r = run_simulation(cfg)
    assert r.achieved_gflops == 0.0
    assert r.raw_gflops == 0.0
    assert r.bytes_downloaded == 0.0
    assert r.mean_active_hosts == 0.0
    assert r.n_workunits == 0
    assert len(r.timeline) == 20  # 6-hour cadence over 5 days


def test_observed_availability_matches_renewal_process():
    """Time-averaged on/connected/active fractions converge to the host fields.

    For an alternating renewal process with stationary fraction f, mean up
    dwell m and mean down dwell m(1-f)/f, the autocovariance of the state is
    f(1-f)exp(-|dt|/tau) with tau = m(1-f), so a T-day average has variance
    ~2 f(1-f) tau / T. Thirty independent hosts shrink sigma by sqrt(30).
    """
    f_on, f_conn, f_act = 0.6, 0.85, 0.75
    n, days = 30, 70.0
    cfg = SimConfig(
        duration_days=days, seed=8, churn=NO_CHURN,
        pool_spec=flat_spec(n, seed=8, on=f_on, conn=f_conn, act=f_act),
        task=TaskSpec(flops_per_task=1e18, input_size=1.0),
        min_quorum=1, max_replicas=1,
    )
    r = run_simulation(cfg)

    def three_sigma(f):
        up_days = 0.5  # mean up dwell: 12 hours
        tau = up_days * (1.0 - f)
        return 3.0 * math.sqrt(2.0 * f * (1.0 - f) * tau / days / n)

    assert abs(r.observed_on_fraction - f_on) <= three_sigma(f_on)
    assert abs(r.observed_connected_fraction - f_conn) <= three_sigma(f_conn)
    assert abs(r.observed_active_fraction - f_act) <= three_sigma(f_act)


def test_steady_pool_size_obeys_arrival_lifetime_product():
    """10 hosts/day living 15 days hold the pool near 150."""
    cfg = SimConfig(
        duration_days=300.0, seed=19,
        churn=ChurnModel(arrival_rate=10.0, lifetime_mean_days=15.0),
        pool_spec=flat_spec(150, seed=10),  # start at the fixed point
        task=TaskSpec(flops_per_task=1e18, input_size=1.0),
        min_quorum=1, max_replicas=1,
    )
    r = run_simulation(cfg)
    assert r.mean_active_hosts == pytest.approx(150.0, rel=0.05)


# -- workhorse run: churn, errors and deadlines together ------------------------------


class _LoggingEngine(simmod._Engine):
    """Logs every host, work unit, result and fetch, which the engine does not keep.

    After every delivery it also holds the engine's count-based decision to
    ``quorum_state`` over the unit's results so far.
    """

    def __init__(self, cfg):
        super().__init__(cfg)
        self.units = []  # every WorkUnit, in creation order
        self.results = {}  # id(unit) -> (host id, outcome) of each result, as the server got them
        self.returns = []  # (host id, outcome, day the server got it) of each result
        self.fetches = []  # (host id, day) of each fetch
        self.hosts = []  # every host, in arrival order
        self.timeouts = []  # (deadline, instant written off) of each timed-out replica
        self.host_of = {}  # replica -> the host it was issued to

    def _on_arrive(self, h, _, now):
        self.hosts.append(h)
        super()._on_arrive(h, _, now)

    def _make_replica(self, wu, h, now):
        if wu.replicas_issued == 0:
            self.units.append(wu)
            self.results[id(wu)] = []
        r = super()._make_replica(wu, h, now)
        self.host_of[r] = h
        return r

    def _assign(self, h, n, now):
        self.fetches.append((h.idx, now / DAY_S))
        return super()._assign(h, n, now)

    def _deliver(self, r, outcome):
        wu = r.wu
        deciding = wu.state is IN_PROGRESS
        results = self.results[id(wu)]
        h = self.host_of[r]
        results.append((h.idx, outcome))
        self.returns.append((h.idx, outcome, self.now / DAY_S))
        if outcome is ResultOutcome.TIMED_OUT:
            self.timeouts.append((r.deadline_s, self.now))
        super()._deliver(r, outcome)
        if not deciding:
            return  # a late result for a unit already decided
        cfg = self.cfg
        correct = [user for user, out in results if out is ResultOutcome.CORRECT]
        state, lacking = quorum_state(correct, len(results), cfg.min_quorum, cfg.max_replicas)
        assert wu.state is state
        if state is IN_PROGRESS:
            # the replicas outstanding or owed cover what is still needed
            assert wu.replicas_issued - len(results) + wu.deficit >= lacking
            assert wu.replicas_issued + wu.deficit <= cfg.max_replicas


def _timed(handler):
    def timed(self, a, b, now):
        self.now = now  # the instant of the event running, which _deliver logs
        handler(self, a, b, now)
    return timed


for _name in [name for name in vars(simmod._Engine) if name.startswith("_on_")]:
    setattr(_LoggingEngine, _name, _timed(getattr(_LoggingEngine, _name)))


@pytest.fixture(scope="module")
def workhorse():
    cfg = SimConfig(
        duration_days=30.0, seed=23,
        churn=ChurnModel(arrival_rate=30.0, lifetime_mean_days=8.0),
        pool_spec=flat_spec(40, seed=3, on=0.7, conn=0.8, act=0.75, eff=0.9,
                            flops=1.5, thr=400.0),
        task=TaskSpec(flops_per_task=2e13, input_size=2.0, deadline=2.0),
        min_quorum=2, max_replicas=4, error_rate=0.1,
    )
    engine = _LoggingEngine(cfg)
    report = engine.run()
    return cfg, engine, report


def test_workhorse_produces_work(workhorse):
    _, _, r = workhorse
    assert r.n_validated > 5000
    assert r.n_invalid > 0
    assert 0 < r.mean_active_hosts < 30.0 * 8.0


def test_workhorse_deadlines_fire_on_time(workhorse):
    _, engine, _ = workhorse
    assert len(engine.timeouts) > 20
    assert all(now == deadline for deadline, now in engine.timeouts)


def test_workhorse_download_conservation(workhorse):
    cfg, _, r = workhorse
    assert r.bytes_downloaded == pytest.approx(
        r.downloads_completed * cfg.task.input_size, rel=1e-12
    )


def test_workhorse_redundancy_overhead(workhorse):
    cfg, _, r = workhorse
    # each validated unit was computed at least min_quorum times
    assert r.raw_gflops >= cfg.min_quorum * r.achieved_gflops * (1 - 1e-12)
    assert r.replicas_per_validated_task >= cfg.min_quorum


def test_workhorse_unit_invariants(workhorse):
    cfg, engine, r = workhorse
    assert len(engine.units) == r.n_workunits
    states = {"Validated": 0, "Invalid": 0}
    n_results = 0
    for wu in engine.units:
        results = engine.results[id(wu)]
        assert 0 <= wu.replicas_issued <= cfg.max_replicas
        assert len(results) <= wu.replicas_issued
        users = [user for user, _ in results]
        assert len(set(users)) == len(users)  # never two replicas per user
        n_results += len(results)
        correct = {user for user, outcome in results if outcome is ResultOutcome.CORRECT}
        name = wu.state.value
        if name == "Validated":
            assert len(correct) >= cfg.min_quorum
        elif name == "Invalid":
            assert len(correct) < cfg.min_quorum
        states[name] = states.get(name, 0) + 1
    assert states["Validated"] == r.n_validated
    assert states["Invalid"] == r.n_invalid
    assert n_results == r.n_results


def test_workhorse_results_bounded_by_membership(workhorse):
    _, engine, r = workhorse
    depart = {h.idx: h.depart_s / DAY_S for h in engine.hosts}
    arrive = {h.idx: h.arrive_s / DAY_S for h in engine.hosts}
    assert len(engine.returns) == r.n_results
    for host_id, outcome, day in engine.returns:
        assert 0.0 <= day <= r.duration_days + 1e-9
        assert day >= arrive[host_id] - 1e-9
        if outcome is ResultOutcome.LOST:
            # a lost result is surrendered the moment its host departs
            assert day == pytest.approx(depart[host_id], abs=1e-9)


def test_workhorse_fetch_spacing_respects_connection_interval(workhorse):
    _, engine, _ = workhorse
    per_host = {}
    for host_id, t in engine.fetches:
        per_host.setdefault(host_id, []).append(t)
    assert len(per_host) > 100
    for times in per_host.values():
        for a, b in zip(times, times[1:]):
            assert b - a >= 0.1 - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    quorum=st.integers(1, 3),
    extra=st.integers(0, 2),
    error_rate=st.floats(0.0, 0.5),
    n_hosts=st.integers(1, 12),
    deadline=st.floats(0.05, 1.0),
)
def test_engine_quorum_decisions_follow_the_rule(
    seed, quorum, extra, error_rate, n_hosts, deadline,
):
    """Every quorum size and budget, with losses, timeouts and errors."""
    cfg = SimConfig(
        duration_days=1.0, seed=seed,
        churn=ChurnModel(arrival_rate=10.0, lifetime_mean_days=0.5),
        pool_spec=flat_spec(n_hosts, seed=seed % 1000, on=0.8, conn=0.8, act=0.8),
        task=TaskSpec(flops_per_task=5e12, input_size=1.0, deadline=deadline),
        min_quorum=quorum, max_replicas=quorum + extra, error_rate=error_rate,
    )
    engine = _LoggingEngine(cfg)
    r = engine.run()  # the subclass checks each delivery
    assert sum(len(results) for results in engine.results.values()) == r.n_results
    assert all(now == deadline for deadline, now in engine.timeouts)  # never late
    states = [wu.state for wu in engine.units]
    assert states.count(VALIDATED) == r.n_validated
    assert states.count(INVALID) == r.n_invalid


def test_workhorse_observed_fractions(workhorse):
    _, _, r = workhorse
    assert r.observed_on_fraction == pytest.approx(0.7, abs=0.03)
    assert r.observed_connected_fraction == pytest.approx(0.8, abs=0.03)
    assert r.observed_active_fraction == pytest.approx(0.75, abs=0.03)


def test_workhorse_timeline(workhorse):
    _, _, r = workhorse
    times = [s.time_days for s in r.timeline]
    assert times == sorted(times)
    assert times[0] > 0.0
    assert times[-1] == r.duration_days
    for a, b in zip(r.timeline, r.timeline[1:]):
        assert b.validated_workunits >= a.validated_workunits
        assert b.bytes_downloaded >= a.bytes_downloaded
    last = r.timeline[-1]
    assert last.validated_workunits == r.n_validated
    assert last.achieved_gflops == pytest.approx(r.achieved_gflops)
    assert last.raw_gflops == pytest.approx(r.raw_gflops, rel=1e-12)
    assert last.bytes_downloaded == pytest.approx(r.bytes_downloaded)


# -- reproducibility -----------------------------------------------------------------


def churny_config(seed):
    return SimConfig(
        duration_days=12.0, seed=seed,
        churn=ChurnModel(arrival_rate=6.0, lifetime_mean_days=4.0),
        pool_spec=flat_spec(10, seed=4, on=0.8),
        task=TaskSpec(flops_per_task=1e13, input_size=3.0, deadline=2.0),
        min_quorum=2, max_replicas=4, error_rate=0.05,
    )


def test_same_seed_same_report():
    first, second = _LoggingEngine(churny_config(33)), _LoggingEngine(churny_config(33))
    a, b = first.run(), second.run()
    assert a == b
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )
    assert first.fetches == second.fetches


def test_different_seed_different_run():
    a = run_simulation(churny_config(33))
    c = run_simulation(churny_config(34))
    assert a.achieved_gflops != c.achieved_gflops


# (command, config) runs through cli.main; "input" names the host CSV a
# case reads, which is written from a generated pool with multi-host users
# and one malformed row. ingest reads only CSVs, so its "pool" case reads
# the CSV of a generated pool as written, with no rejects.
RECORD_FREE_RUNS = {
    "ingest-csv": ("ingest", {"input": "edited"}),
    "ingest-pool": ("ingest", {"input": "written"}),
    "stats-csv": ("stats", {"input": "edited"}),
    "stats-pool": ("stats", {"seed": 3, "pool": {"n_hosts": 300}}),
    "sweep-csv": ("sweep", {"input": "edited", "rates": {"stop": 500.0, "n": 11}}),
    "sweep-pool": ("sweep", {"seed": 3, "pool": {"n_hosts": 300}, "per_host_factors": True}),
    # the settings of churny_config(33): arrivals join the initial pool
    "simulate": ("simulate", {
        "duration_days": 12.0, "seed": 33,
        "churn": {"arrival_rate": 6.0, "lifetime_mean_days": 4.0},
        "pool": {"n_hosts": 10, "seed": 4, "fields": dict(
            flat_spec(10, seed=4, on=0.8).field_generators)},
        "task": {"flops_per_task": 1e13, "input_size_mb": 3.0, "deadline_days": 2.0},
        "min_quorum": 2, "max_replicas": 4, "error_rate": 0.05,
    }),
}


@pytest.mark.parametrize("case", list(RECORD_FREE_RUNS))
def test_a_run_builds_no_host_records(case, tmp_path, monkeypatch):
    """Every command reads its pools by column, never by row: a whole CLI
    run constructs no ``HostRecord``."""
    pool = assign_users(
        generate_pool(presets.reference_pool_spec(n_hosts=300, seed=2)),
        presets.HOSTS_PER_USER_PCT, seed=2,
    )
    written = ingest.serialize_hosts(pool)
    edited = written + written.splitlines()[1].replace("Intel", "VIA") + "\n"
    for name, text in (("written", written), ("edited", edited)):
        (tmp_path / f"{name}.csv").write_text(text)

    command, cfg = RECORD_FREE_RUNS[case]
    if "input" in cfg:
        cfg = {**cfg, "input": str(tmp_path / f"{cfg['input']}.csv")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))

    built, pool_sizes = [], []
    original = HostRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    def sized(spec):
        drawn = generate_pool(spec)
        pool_sizes.append(len(drawn))
        return drawn

    monkeypatch.setattr(HostRecord, "__init__", counted)
    monkeypatch.setattr(simmod, "generate_pool", sized)
    args = [command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
    assert cli.main(args) == 0
    if command == "simulate":
        assert len(pool_sizes) == 2 and pool_sizes[1] > 0  # the arrival pool
        report = json.loads((tmp_path / "out" / "sim_report.json").read_text())
        assert report["n_results"] > 0
    assert built == []


# -- analytic comparison ---------------------------------------------------------------


def test_analytic_comparison_steady_state():
    cfg = SimConfig(
        duration_days=24.0, seed=29,
        churn=ChurnModel(arrival_rate=40.0, lifetime_mean_days=1.2),
        pool_spec=flat_spec(48, seed=7),
        task=TaskSpec(flops_per_task=5e11, input_size=0.5, deadline=1.0),
        min_quorum=1, max_replicas=1,
    )
    r = run_simulation(cfg)
    factors = factors_from_sim_config(cfg)
    out = analytic_comparison(r, factors)
    assert out["predicted"] == pytest.approx(40.0 * 1.2)  # all other factors are 1
    assert out["relative_error"] == abs(out["achieved"] - out["predicted"]) / out["predicted"]
    assert out["relative_error"] < 0.05


def test_analytic_comparison_guards():
    r = run_simulation(
        SimConfig(
            duration_days=5.0, seed=1,
            churn=ChurnModel(arrival_rate=1.0, lifetime_mean_days=10.0),
            pool_spec=flat_spec(2, seed=1),
            task=TaskSpec(flops_per_task=1e12, input_size=1.0),
            min_quorum=1, max_replicas=1,
        )
    )
    factors = factors_from_sim_config(
        SimConfig(
            duration_days=5.0, seed=1,
            churn=ChurnModel(arrival_rate=1.0, lifetime_mean_days=10.0),
            pool_spec=flat_spec(2, seed=1),
            task=TaskSpec(flops_per_task=1e12, input_size=1.0),
            min_quorum=1, max_replicas=1,
        )
    )
    with pytest.raises(ValueError, match="run too short"):
        analytic_comparison(r, factors)


def test_factors_from_sim_config():
    cfg = SimConfig(
        duration_days=50.0, seed=1,
        churn=ChurnModel(arrival_rate=5.0, lifetime_mean_days=20.0),
        pool_spec=flat_spec(10, seed=1, on=0.7, conn=0.8, act=0.75, eff=0.9, share=0.6),
        task=TaskSpec(flops_per_task=1e12, input_size=1.0),
        min_quorum=3, max_replicas=5,
    )
    f = factors_from_sim_config(cfg)
    assert f.arrival_rate == 5.0
    assert f.mean_lifetime == 20.0
    assert f.mean_ncpus == 1.0
    assert f.mean_flops_per_cpu == 1.0
    assert f.on_fraction == 0.7
    assert f.connected_fraction == 0.8
    assert f.active_fraction == 0.75
    assert f.cpu_efficiency == 0.9
    assert f.redundancy == 3.0
    assert f.resource_share == 1.0  # single-project host: full machine
    competing = factors_from_sim_config(
        SimConfig(
            duration_days=50.0, seed=1, churn=cfg.churn, pool_spec=cfg.pool_spec,
            task=cfg.task, min_quorum=3, max_replicas=5, competing_share=True,
        )
    )
    assert competing.resource_share == 0.6


def test_competing_share_scales_throughput():
    base = dict(
        duration_days=10.0, seed=5, churn=NO_CHURN,
        pool_spec=flat_spec(1, seed=2, share=0.5),
        task=TaskSpec(flops_per_task=5e11, input_size=0.1),
        min_quorum=1, max_replicas=1,
    )
    alone = run_simulation(SimConfig(**base))
    shared = run_simulation(SimConfig(**base, competing_share=True))
    assert alone.achieved_gflops == pytest.approx(1.0, abs=0.01)
    assert shared.achieved_gflops == pytest.approx(0.5, abs=0.01)


# -- JSON config loading -----------------------------------------------------------------


def test_sim_config_from_config_full():
    cfg = sim_config_from_config(
        {
            "duration_days": 15.0,
            "seed": 7,
            "churn": {"arrival_rate": 3.5, "lifetime_mean_days": 40.0},
            "task": {
                "flops_per_task": 2e13,
                "input_size_mb": 4.0,
                "deadline_days": 3.0,
            },
            "pool": {"n_hosts": 25},
            "min_quorum": 3,
            "max_replicas": 6,
            "error_rate": 0.02,
            "server_egress_cap_mbps": 10.0,
            "competing_share": True,
            "work_buffer_days": 0.5,
        }
    )
    assert cfg.duration_days == 15.0
    assert cfg.seed == 7
    assert cfg.churn.arrival_rate == ((0.0, 3.5),)
    assert cfg.pool_spec.n_hosts == 25
    assert cfg.task.input_size == 4.0
    assert cfg.task.deadline == 3.0
    assert cfg.min_quorum == 3 and cfg.max_replicas == 6
    assert cfg.server_egress_cap == 10.0
    assert cfg.competing_share is True
    assert cfg.work_buffer_days == 0.5


def test_sim_config_defaults_and_seed_override():
    cfg = sim_config_from_config({})
    assert cfg.duration_days == 30.0
    assert cfg.seed == 1
    assert cfg.pool_spec.n_hosts == 200
    assert cfg.min_quorum == 2 and cfg.max_replicas == 4
    assert cfg.server_egress_cap is None
    forced = sim_config_from_config({"seed": 9}, seed_override=77)
    assert forced.seed == 77


def test_sim_config_piecewise_churn():
    cfg = sim_config_from_config(
        {"churn": {"arrival_rate": [[0.0, 10.0], [100.0, 0.0]]}}
    )
    assert cfg.churn.arrival_rate == ((0.0, 10.0), (100.0, 0.0))


def test_sim_config_unknown_keys():
    with pytest.raises(ValueError, match="unknown simulate option: 'walltime'"):
        sim_config_from_config({"walltime": 3})
    with pytest.raises(ValueError, match="unknown churn option: 'halflife'"):
        sim_config_from_config({"churn": {"halflife": 3}})
    with pytest.raises(ValueError, match="unknown task option: 'priority'"):
        sim_config_from_config({"task": {"priority": 1}})
