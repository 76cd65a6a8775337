"""Shared fixtures: cheap deterministic pools, a homogeneous-spec factory,
host tables built from and read as dicts of field values, and the quorum
rule with the exact replica cost it implies."""

import math
from functools import cache

import pytest

from volpool import population as pop
from volpool import presets
from volpool.hosts import HOST_FIELDS, CpuVendor, HostTable, OperatingSystem, Venue
from volpool.sim import WorkUnitState

IN_PROGRESS, VALIDATED, INVALID = WorkUnitState


def flat_spec(
    n,
    seed,
    flops=1.0,
    on=1.0,
    conn=1.0,
    act=1.0,
    eff=1.0,
    share=1.0,
    thr=1000.0,
    ram=1024.0,
):
    """PoolSpec whose every numeric field is a constant: n identical hosts."""
    return pop.PoolSpec(
        n_hosts=n,
        seed=seed,
        field_generators={
            "n_cpus": 1.0,
            "flops_per_cpu": flops,
            "iops_per_cpu": 1.0,
            "ram": ram,
            "swap": 1.0,
            "disk_total": 50.0,
            "disk_free": 20.0,
            "throughput_down": thr,
            "on_fraction": on,
            "connected_fraction": conn,
            "active_fraction": act,
            "cpu_efficiency": eff,
            "tz_offset": 0.0,
            "created": 0.0,
            "last_contact": 0.0,
            "resource_share": share,
        },
    )


# One valid host: the values a host given to ``host_table`` holds unless it
# sets its own.
HOST = dict(
    host_id="h0",
    user_id="u0",
    n_cpus=1,
    flops_per_cpu=1.0,
    iops_per_cpu=2.0,
    ram=512.0,
    swap=1.0,
    disk_total=40.0,
    disk_free=10.0,
    throughput_down=1000.0,
    on_fraction=0.8,
    connected_fraction=0.9,
    active_fraction=0.7,
    cpu_efficiency=0.9,
    cpu_vendor=CpuVendor.INTEL,
    os=OperatingSystem.LINUX,
    country="USA",
    venue=Venue.HOME,
    tz_offset=0,
    created=0,
    last_contact=100,
    resource_share=1.0,
)


def host_table(hosts) -> HostTable:
    """A table of ``hosts``, each a dict of the field values that differ from
    ``HOST``; the table checks them."""
    hosts = [{**HOST, **host} for host in hosts]
    return HostTable(**{name: [host[name] for host in hosts] for name in HOST_FIELDS})


def host_rows(table: HostTable) -> list[dict]:
    """Each host of ``table`` as a dict of its Python values, read off the
    columns: ``host_table(host_rows(table)) == table``."""
    columns = (getattr(table, name) for name in HOST_FIELDS)
    values = [col.tolist() if hasattr(col, "tolist") else list(col) for col in columns]
    return [dict(zip(HOST_FIELDS, row)) for row in zip(*values)]


def quorum_state(correct_users, n_results, min_quorum, max_replicas):
    """The validation rule, from its definition, over a unit's results so far.

    ``correct_users`` holds the users whose results were correct. The unit is
    validated once they number ``min_quorum``, and written off once the
    replicas its budget has left after ``n_results`` results cannot make up
    the difference. Returns the unit's state and the correct results it lacks.
    """
    lacking = min_quorum - len(set(correct_users))
    if lacking <= 0:
        return VALIDATED, 0
    if lacking > max_replicas - n_results:
        return INVALID, lacking
    return IN_PROGRESS, lacking


def replica_cost(p, min_quorum, max_replicas):
    """P(validated), E[replicas | validated] and its sigma, exactly, for one unit.

    The server issues ``min_quorum`` replicas. Each result comes from a user
    of its own and is erroneous with probability ``p``, independently, and
    none is lost or late. After each result the server applies
    ``quorum_state`` and tops the replicas outstanding up to the correct
    results the unit lacks. A validated unit costs every replica it was
    issued.
    """

    @cache
    def walk(correct, results, issued):
        # P(validated), E[replicas; validated], E[replicas^2; validated] from
        # a state with issued - results replicas outstanding
        total = (0.0, 0.0, 0.0)
        for ok, prob in ((1, 1.0 - p), (0, p)):
            c, n = correct + ok, results + 1
            state, lacking = quorum_state(range(c), n, min_quorum, max_replicas)
            if state is VALIDATED:
                part = (1.0, issued, issued * issued)
            elif state is INVALID:
                part = (0.0, 0.0, 0.0)
            else:
                part = walk(c, n, max(issued, n + lacking))
            total = tuple(t + prob * x for t, x in zip(total, part))
        return total

    mass, first, second = walk(0, 0, min_quorum)
    mean = first / mass
    return mass, mean, math.sqrt(second / mass - mean * mean)


@pytest.fixture(scope="session")
def make_flat_spec():
    return flat_spec


@pytest.fixture(scope="session")
def reference_pool_2k():
    """Small reference-marginal pool, shared across statistical tests."""
    return pop.generate_pool(presets.reference_pool_spec(n_hosts=2000, seed=7))


@pytest.fixture(scope="session")
def reference_pool_20k():
    """Larger reference-marginal pool for tighter statistical checks."""
    return pop.generate_pool(presets.reference_pool_spec(n_hosts=20000, seed=7))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criteria verdict lines collected during the run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for line in RESULTS:
        terminalreporter.write_line("  " + line)
