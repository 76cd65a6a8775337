"""Closed-form capacity, saturation and aggregate analysis.

Numeric anchors are recomputed in this file from first principles (unit
definitions, explicit factor products, brute-force filters) before being
compared against the library.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volpool import capacity, presets
from volpool.capacity import (
    CapacityFactors,
    access_rate,
    compute_vs_rate_curve,
    conditional_aggregate,
    critical_data_rate,
    factors_from_config,
    hardware_flops,
    hardware_product,
    potential_flops,
    storage_potential,
    utilization_product,
)
from volpool.population import generate_pool

from conftest import flat_spec, host_rows, host_table

# -- oracles ------------------------------------------------------------------

# One sustained Mbps moves (10^6 bits/s) / (8 bits/byte) * 3600 s / (10^6
# bytes/MB) megabytes in an hour. Decimal prefixes throughout.
MB_PER_HOUR_AT_1MBPS = (10**6 / 8) * 3600 / 10**6

MEASURED = dict(
    cpu_efficiency=0.899,
    on_fraction=0.81,
    active_fraction=0.84,
    redundancy=2.0,
    resource_share=0.917,
)
UTILIZATION_ORACLE = 0.899 * 0.81 * 0.84 * (1.0 / 2.0) * 0.917


def measured_factors(**overrides) -> CapacityFactors:
    base = dict(
        arrival_rate=331785.0 / 91.0,
        mean_lifetime=91.0,
        mean_ncpus=1.0,
        mean_flops_per_cpu=1.613,
        connected_fraction=0.83,
        **MEASURED,
    )
    base.update(overrides)
    return CapacityFactors(**base)


def unit_factors() -> CapacityFactors:
    """Every fraction 1 and redundancy 1, so the utilization product is 1."""
    return measured_factors(
        cpu_efficiency=1.0, on_fraction=1.0, active_fraction=1.0,
        redundancy=1.0, resource_share=1.0,
    )


def one_host(speed_gflops=1.0, kbps=1000.0):
    """One host of ``speed_gflops`` GFLOPS on a ``kbps`` link, for ``host_table``."""
    return {"flops_per_cpu": speed_gflops, "throughput_down": kbps}


# -- utilization & potential ----------------------------------------------------


def test_unit_identity_450():
    assert MB_PER_HOUR_AT_1MBPS == 450.0


def test_utilization_product_measured_band():
    f = measured_factors()
    assert utilization_product(f) == pytest.approx(UTILIZATION_ORACLE, rel=1e-12)
    assert abs(utilization_product(f) - 0.2805) <= 0.0005


def test_utilization_identity_and_annihilator():
    assert utilization_product(unit_factors()) == 1.0
    assert utilization_product(measured_factors(on_fraction=0.0)) == 0.0


def test_factor_validation():
    with pytest.raises(ValueError, match="redundancy"):
        measured_factors(redundancy=0.5)
    with pytest.raises(ValueError, match="outside"):
        measured_factors(on_fraction=1.2)
    with pytest.raises(ValueError, match="negative"):
        measured_factors(arrival_rate=-1.0)


def test_headline_capacity():
    f = measured_factors()
    hardware = hardware_product(f)
    assert hardware == pytest.approx(535169.0, rel=1e-3)
    potential = potential_flops(f)
    assert potential == pytest.approx(hardware * UTILIZATION_ORACLE, rel=1e-12)
    assert potential == pytest.approx(149800.0, rel=0.005)


def test_potential_zero_arrivals():
    assert potential_flops(measured_factors(arrival_rate=0.0)) == 0.0


def test_doubling_redundancy_halves_output():
    f1 = measured_factors(redundancy=1.0)
    f2 = measured_factors(redundancy=2.0)
    assert potential_flops(f2) == pytest.approx(potential_flops(f1) / 2.0)


@settings(max_examples=60)
@given(
    name=st.sampled_from(
        ["arrival_rate", "mean_lifetime", "mean_flops_per_cpu",
         "cpu_efficiency", "on_fraction", "resource_share", "redundancy"]
    ),
    c=st.floats(min_value=0.1, max_value=1.0),
)
def test_multiplicative_separability(name, c):
    """Scaling one factor by c scales the product by c (1/c for redundancy)."""
    f = measured_factors()
    if name == "redundancy":
        # redundancy must stay >= 1, so grow it and expect a 1/k response
        k = 1.0 / c
        scaled = dataclasses.replace(f, redundancy=f.redundancy * k)
        expected = potential_flops(f) / k
    else:
        scaled = dataclasses.replace(f, **{name: getattr(f, name) * c})
        expected = potential_flops(f) * c
    assert potential_flops(scaled) == pytest.approx(expected, rel=1e-9)


# -- per-host saturation ----------------------------------------------------------


def test_hardware_flops_examples():
    assert hardware_flops(host_table([])) == 0.0
    pool = host_table([one_host(1.0), one_host(2.0)])
    assert hardware_flops(pool) == pytest.approx(3.0)


def crossover(host) -> float:
    """The critical data rate of a one-host pool."""
    return critical_data_rate(host_table([host]))[0]


def test_critical_rate_reference_host():
    host = one_host(speed_gflops=1.0, kbps=1000.0)  # 1 GFLOPS, 1 Mbps
    assert crossover(host) == MB_PER_HOUR_AT_1MBPS == 450.0


def test_critical_rate_scaling():
    assert crossover(one_host(2.0, 1000.0)) == pytest.approx(225.0)
    assert crossover(one_host(1.0, 0.0)) == 0.0
    # no speed, so never link-bound
    assert crossover(one_host(0.0, 1000.0)) == math.inf
    assert crossover(one_host(0.0, 0.0)) == math.inf


def available_flops(host, data_rate):
    """What one host sustains at a data rate: its one-row curve at unit factors."""
    pool = host_table([host])
    total, _ = compute_vs_rate_curve(pool, [data_rate], unit_factors())
    return total[0]


def test_available_flops_examples():
    ref = one_host(1.0, 1000.0)
    assert available_flops(ref, 450.0) == pytest.approx(1.0)
    assert available_flops(ref, 900.0) == pytest.approx(0.5)
    assert available_flops(ref, 0.0) == 1.0
    with pytest.raises(ValueError, match="negative"):
        available_flops(ref, -1.0)


@settings(max_examples=50)
@given(
    speed=st.floats(min_value=0.01, max_value=50.0),
    kbps=st.floats(min_value=1.0, max_value=1e6),
    r1=st.floats(min_value=0.0, max_value=5000.0),
    r2=st.floats(min_value=0.0, max_value=5000.0),
)
def test_available_flops_monotone_and_capped(speed, kbps, r1, r2):
    host = one_host(speed, kbps)
    lo, hi = sorted((r1, r2))
    a_lo = available_flops(host, lo)
    a_hi = available_flops(host, hi)
    assert a_hi <= a_lo + 1e-12
    assert a_lo <= speed * (1 + 1e-12)
    if hi <= crossover(host):
        assert a_hi == pytest.approx(speed)


# -- rate curve --------------------------------------------------------------------


def test_curve_at_zero_equals_potential(reference_pool_2k):
    f = measured_factors()
    total, unsaturated = compute_vs_rate_curve(reference_pool_2k, [0.0, 10.0], f)
    expected = utilization_product(f) * hardware_flops(reference_pool_2k)
    assert total[0] == pytest.approx(expected, rel=1e-12)
    assert unsaturated[0] == 1.0


def test_curve_at_a_tiny_rate_equals_the_zero_rate_point():
    # no crossover lies below 1e-310, so no host is link-bound and no link is
    # divided by the rate, which would overflow
    pool = host_table([one_host(1.0, 1000.0), one_host(2.5, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (zero, tiny), _ = compute_vs_rate_curve(pool, [0.0, 1e-310], unit_factors())
    assert tiny == zero


def test_curve_monotone(reference_pool_2k):
    grid = list(np.linspace(0.0, 2000.0, 21))
    totals, unsat = compute_vs_rate_curve(reference_pool_2k, grid, measured_factors())
    totals, unsat = totals.tolist(), unsat.tolist()
    assert all(a >= b - 1e-9 for a, b in zip(totals, totals[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(unsat, unsat[1:]))
    assert all(0.0 <= u <= 1.0 for u in unsat)


def test_curve_single_host_threshold():
    host = one_host(1.0, 1000.0)
    _, unsaturated = compute_vs_rate_curve(
        host_table([host]), [450.0, 451.0], measured_factors()
    )
    assert unsaturated.tolist() == [1.0, 0.0]


def test_curve_unsaturated_fraction_counts_hosts(reference_pool_2k):
    # one host that is never link-bound and one that is at every positive rate
    pool = host_table([*host_rows(reference_pool_2k), one_host(0.0, 1000.0), one_host(1.0, 0.0)])
    crit = critical_data_rate(pool)
    assert crit[-2] == math.inf and crit[-1] == 0.0
    # rates at hosts' own crossovers, where link >= r * speed and link / speed
    # >= r can round differently
    grid = list(np.unique(np.append(crit[:-2:20], [0.0, 450.0, math.inf])))
    totals, unsaturated = compute_vs_rate_curve(pool, grid, measured_factors())
    for r, u in zip(grid, unsaturated):
        assert u == np.mean(crit >= r)
    assert unsaturated[0] == 1.0
    assert 0.0 < unsaturated[grid.index(450.0)] < 1.0
    # an infinite rate prices every host with a finite crossover at 0; only
    # the host without speed stays unsaturated
    assert totals[-1] == 0.0
    assert unsaturated[-1] == 1 / len(pool)


def test_curve_at_a_host_crossover_equals_the_zero_rate_point():
    # at its own crossover a host is not link-bound, so it keeps its full
    # speed, where min(speed, link / R) rounds just below it
    pool = host_table([{"flops_per_cpu": 1.3, "throughput_down": 3064.1}])
    grid = [0.0, critical_data_rate(pool)[0]]
    (zero, at), (_, at_unsaturated) = compute_vs_rate_curve(
        pool, grid, presets.reference_capacity_factors()
    )
    assert at_unsaturated == 1.0
    assert at == zero


def test_curve_grid_validation(reference_pool_2k):
    with pytest.raises(ValueError, match="ascend"):
        compute_vs_rate_curve(reference_pool_2k, [1.0, 1.0], measured_factors())
    with pytest.raises(ValueError, match="negative"):
        compute_vs_rate_curve(reference_pool_2k, [-1.0, 0.0], measured_factors())
    with pytest.raises(ValueError, match="^data rate nan is not a number$"):
        compute_vs_rate_curve(reference_pool_2k, [0.0, math.nan], measured_factors())


def test_curve_per_host_factors_matches_direct_product():
    pool = generate_pool(
        flat_spec(20, seed=6, on=0.5, act=0.8, eff=0.9, share=0.7, thr=500.0)
    )
    f = measured_factors(redundancy=2.0)
    r = 300.0
    total, _ = compute_vs_rate_curve(pool, [r], f, per_host_factors=True)
    expected = sum(
        min(h["n_cpus"] * h["flops_per_cpu"],
            MB_PER_HOUR_AT_1MBPS * h["throughput_down"] / 1000.0 / r)
        * h["cpu_efficiency"] * h["on_fraction"] * h["active_fraction"] * h["resource_share"]
        / f.redundancy
        for h in host_rows(pool)
    )
    assert total[0] == pytest.approx(expected, rel=1e-12)


def test_curve_empty_pool():
    total, unsaturated = compute_vs_rate_curve(host_table([]), [0.0, 1.0], measured_factors())
    assert total.tolist() == [0.0, 0.0]
    assert unsaturated.tolist() == [1.0, 1.0]


def stable_sort_curve(pool, r_grid, factors, per_host_factors):
    """``compute_vs_rate_curve`` with its hosts ordered by
    ``np.argsort(crossover, kind="stable")``, the rest of it as written."""
    grid = capacity.rate_grid(r_grid)
    n = len(pool)
    if per_host_factors:
        util = capacity._utilization(
            pool.cpu_efficiency, pool.on_fraction, pool.active_fraction,
            factors.redundancy, pool.resource_share,
        )
    else:
        util = utilization_product(factors)
    crossover = critical_data_rate(pool)
    order = np.argsort(crossover, kind="stable")
    with np.errstate(over="ignore"):
        links = np.concatenate(
            ([0.0], np.cumsum((capacity._link_mb_per_hour(pool) * util)[order])))
        speeds = np.concatenate(
            (np.cumsum((pool.column("flops") * util)[order][::-1])[::-1], [0.0]))
    k = np.searchsorted(crossover[order], grid)
    total = speeds[k] + np.divide(links[k], grid, out=np.zeros(len(grid)), where=k > 0)
    unsaturated = (n - k) / n if n else np.ones(len(grid))
    return total, unsaturated


@pytest.mark.parametrize("per_host_factors", [False, True], ids=["pooled", "per-host"])
@pytest.mark.parametrize("seed", range(4))
def test_curve_sums_tied_hosts_in_table_order(seed, per_host_factors):
    """Few distinct speeds and links, so most crossovers tie; a zero speed
    makes a crossover infinite and a zero link makes one zero."""
    rng = np.random.default_rng(seed)
    n = 2000
    draws = zip(rng.choice([1, 2, 4], n), rng.choice([0.0, 0.3, 1.0, 2.0], n),
                rng.choice([0.0, 250.0, 500.0, 1000.0], n), rng.choice([0.3, 0.7, 1.0], n),
                rng.choice([0.1, 0.25, 1.0], n))
    pool = host_table(
        {"host_id": f"h{i}", "n_cpus": int(cpus), "flops_per_cpu": float(speed),
         "throughput_down": float(link), "on_fraction": float(on), "resource_share": float(share)}
        for i, (cpus, speed, link, on, share) in enumerate(draws)
    )
    crossover = critical_data_rate(pool)
    grid = sorted({0.0, 1e-3, 50.0, math.inf, *crossover.tolist()})
    got = compute_vs_rate_curve(pool, grid, measured_factors(), per_host_factors)
    want = stable_sort_curve(pool, grid, measured_factors(), per_host_factors)
    assert all(map(np.array_equal, got, want))


@settings(max_examples=200)
@given(values=st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, math.nan]), max_size=30))
def test_stable_order_matches_the_stable_sort(values):
    arr = np.array(values, dtype=float)
    assert np.array_equal(capacity._stable_order(arr), np.argsort(arr, kind="stable"))


# -- conditional aggregates ---------------------------------------------------------


def make_trio():
    return host_table(
        {**one_host(speed), "disk_free": disk, "host_id": f"t{i}"}
        for i, (speed, disk) in enumerate(zip((1.0, 2.0, 3.0), (10.0, 20.0, 30.0)))
    )


def test_conditional_aggregate_trio():
    pool = make_trio()
    out = conditional_aggregate(pool, "flops", "disk_free", [15.0])
    assert out == [(15.0, 5.0)]


def test_conditional_aggregate_extremes():
    pool = make_trio()
    out = conditional_aggregate(pool, "flops", "disk_free", [-1e9, 1e9])
    assert out[0][1] == pytest.approx(6.0)  # grand total
    assert out[1][1] == 0.0


def test_conditional_aggregate_brute_force(reference_pool_2k):
    hosts = host_rows(reference_pool_2k)[:20]
    thresholds = [0.0, 10.0, 30.0, 60.0, 200.0]
    got = conditional_aggregate(host_table(hosts), "flops", "disk_free", thresholds)
    for t, total in got:
        direct = sum(
            h["n_cpus"] * h["flops_per_cpu"] for h in hosts if h["disk_free"] >= t
        )
        assert total == pytest.approx(direct, rel=1e-12)
    totals = [v for _, v in got]
    assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))


# -- storage and access -------------------------------------------------------------


def test_storage_scale_matches_snapshot_mean(reference_pool_20k):
    total_gb = storage_potential(reference_pool_20k)
    per_host = total_gb / len(reference_pool_20k)
    sigma = 36.0 / math.sqrt(len(reference_pool_20k))  # cv = 1 fixture shape
    assert abs(per_host - 36.0) <= 3 * sigma


def test_access_rate_network_oracle():
    """331,785 hosts x 289 Kbps x 0.81 x 0.83 is about 8.1 GB/s."""
    f = measured_factors()
    pool = generate_pool(flat_spec(100, seed=2, thr=289.0))
    rate = access_rate(pool, f, mode="network")
    per_host = 289.0 * 1000.0 / 8.0  # bytes per second on the wire
    assert rate == pytest.approx(100 * per_host * 0.81 * 0.83, rel=1e-12)
    full_scale = rate / 100 * 331785
    assert full_scale == pytest.approx(8.06e9, rel=0.01)
    assert 8.0e9 < full_scale < 8.2e9  # "~8.1 GB/s" to two figures


def test_access_rate_disk_mode():
    f = measured_factors(on_fraction=1.0, active_fraction=1.0)
    pool = host_table([one_host()])
    assert access_rate(pool, f, mode="disk", per_host_disk_rate=1.0) == 1e6
    assert access_rate(pool, f, mode="disk", per_host_disk_rate=0.0) == 0.0
    with pytest.raises(ValueError, match="disk rate is negative"):
        access_rate(pool, f, mode="disk", per_host_disk_rate=-1.0)
    with pytest.raises(ValueError, match="unknown access mode"):
        access_rate(pool, f, mode="tape")


# -- config loading ------------------------------------------------------------------


def test_factors_from_config_defaults_to_reference():
    assert factors_from_config({}) == presets.reference_capacity_factors()


def test_factors_from_config_merge():
    f = factors_from_config({"redundancy": 3.0, "on_fraction": 0.5})
    assert f.redundancy == 3.0
    assert f.on_fraction == 0.5
    assert f.mean_flops_per_cpu == presets.MEAN_FLOPS_PER_HOST
    with pytest.raises(ValueError, match="unknown capacity factor"):
        factors_from_config({"bandwidth": 1.0})
