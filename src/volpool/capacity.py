"""Analytic capacity model for a volunteer host pool.

The centrepiece is a product formula: a pool sustained by ``arrival_rate``
hosts/day living ``mean_lifetime`` days holds ``arrival_rate * mean_lifetime``
hosts in steady state; multiplying by mean CPUs per host and speed per CPU
gives raw hardware FLOPS; multiplying by the utilization factors (efficiency,
on-fraction, active-fraction, redundancy overhead, project share) gives the
FLOPS a project can actually bank.

The second half handles data-limited workloads. A workload's data rate R is
MB of input per 3.6e12 FLOP of computing, an hour of a 1 GFLOPS machine, so
R is also MB per hour per GFLOPS of sustained speed. A host whose link can no
longer feed its CPU at rate R is saturated; its contribution flattens at what
the link delivers. Sweeping R produces the pool's compute-versus-data-rate
curve.

Everything here is closed-form over a host table's columns; nothing samples.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from . import config
from .hosts import HostTable, row_sum
from .units import (
    MB_PER_MBPS_HOUR,
    MEGA,
    kbps_to_bytes_per_s,
    kbps_to_mbps,
)

_FRACTION_FACTORS = (
    "cpu_efficiency",
    "on_fraction",
    "active_fraction",
    "resource_share",
    "connected_fraction",
)


@dataclass(frozen=True)
class CapacityFactors:
    """Average factors feeding the capacity product.

    ``connected_fraction`` rides along for storage and data-access figures;
    the FLOPS product deliberately leaves it out, since computing needs no
    live network link.
    """

    arrival_rate: float  # hosts per day
    mean_lifetime: float  # days
    mean_ncpus: float
    mean_flops_per_cpu: float  # GFLOPS
    cpu_efficiency: float
    on_fraction: float
    active_fraction: float
    redundancy: float
    resource_share: float
    connected_fraction: float

    def __post_init__(self):
        for name in ("arrival_rate", "mean_lifetime", "mean_ncpus", "mean_flops_per_cpu"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} is negative")
        for name in _FRACTION_FACTORS:
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} outside [0, 1]")
        if self.redundancy < 1.0:
            raise ValueError("redundancy must be at least 1")


def utilization_product(factors: CapacityFactors) -> float:
    """Fraction of raw hardware FLOPS a project keeps.

    Efficiency, on-fraction and active-fraction discount time and speed;
    redundancy divides because every result is computed that many times;
    resource_share discounts for competing projects.
    """
    return _utilization(
        factors.cpu_efficiency,
        factors.on_fraction,
        factors.active_fraction,
        factors.redundancy,
        factors.resource_share,
    )


def _utilization(efficiency, on, active, redundancy, share):
    """The utilization product of scalars or per-host columns, in one order."""
    return efficiency * on * active * (1.0 / redundancy) * share


def hardware_product(factors: CapacityFactors) -> float:
    """Steady-state raw hardware GFLOPS before any utilization discount."""
    return (
        factors.arrival_rate
        * factors.mean_lifetime
        * factors.mean_ncpus
        * factors.mean_flops_per_cpu
    )


def potential_flops(factors: CapacityFactors) -> float:
    """Sustained useful GFLOPS of the steady-state pool."""
    return hardware_product(factors) * utilization_product(factors)


def hardware_flops(pool: HostTable) -> float:
    """Summed whole-host nominal speed of an explicit pool, in GFLOPS."""
    return row_sum(pool.column("flops"))


def _link_mb_per_hour(pool: HostTable) -> np.ndarray:
    """MB each host's downstream link delivers in an hour."""
    return MB_PER_MBPS_HOUR * kbps_to_mbps(pool.throughput_down)


def critical_data_rate(pool: HostTable) -> np.ndarray:
    """Each host's crossover data rate, in MB per 3.6e12 FLOP.

    A host computing at s GFLOPS consumes R*s MB per hour at data rate R,
    while a b Mbps link delivers 450*b MB per hour; the crossover is 450*b/s.
    At or below it the CPU limits the host, above it the link does. A host
    with no speed is never link-bound: its crossover is infinite.
    """
    speed = pool.column("flops")
    crossover = np.full(len(pool), np.inf)
    with np.errstate(over="ignore"):  # inf at a tiny speed, which is right
        return np.divide(_link_mb_per_hour(pool), speed, out=crossover, where=speed > 0)


def rate_grid(r_grid: Sequence[float]) -> np.ndarray:
    """The data rates of a curve as a new float64 array; they must be numbers,
    non-negative and strictly ascending. An infinite rate is allowed."""
    grid = np.array(r_grid, dtype=np.float64)
    if np.isnan(grid).any():
        raise ValueError("data rate nan is not a number")
    if (grid < 0).any():
        raise ValueError("data rate is negative")
    if np.any(grid[:-1] >= grid[1:]):
        raise ValueError("data-rate grid must ascend")
    return grid


def compute_vs_rate_curve(
    pool: HostTable,
    r_grid: Sequence[float],
    factors: CapacityFactors,
    per_host_factors: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Total usable GFLOPS and the unsaturated fraction at each workload
    data rate of an ascending grid, as two float64 arrays aligned with it.

    One rule decides whether a host is link-bound at data rate R: its
    ``critical_data_rate`` lies below R. A link-bound host delivers what its
    b Mbps link feeds, 450*b/R GFLOPS; every other host computes at its full
    speed. ``unsaturated_fraction`` is the share of hosts that are not
    link-bound. Each host's speed is discounted by the utilization product,
    either the pool-average one from ``factors`` or, with
    ``per_host_factors``, each host's own fractions (redundancy still comes
    from ``factors``).

    The hosts are sorted once by crossover, so a prefix sum of discounted
    links and a suffix sum of discounted speeds give every point from one
    search: the cost is one sort plus one binary search per rate.
    """
    grid = rate_grid(r_grid)
    n = len(pool)
    if per_host_factors:
        util = _utilization(
            pool.cpu_efficiency, pool.on_fraction, pool.active_fraction,
            factors.redundancy, pool.resource_share,
        )
    else:
        util = utilization_product(factors)
    crossover = critical_data_rate(pool)
    order = np.argsort(crossover, kind="stable")
    # links[k]: the first k hosts' discounted links; speeds[k]: the rest's speeds.
    # A sum past the float range is inf; the writer reports one that reaches a total.
    with np.errstate(over="ignore"):
        links = np.concatenate(([0.0], np.cumsum((_link_mb_per_hour(pool) * util)[order])))
        speeds = np.concatenate(
            (np.cumsum((pool.column("flops") * util)[order][::-1])[::-1], [0.0]))
    k = np.searchsorted(crossover[order], grid)  # hosts whose crossover lies below R
    # at R = 0 no host is link-bound, so there is no 0/0 to take
    total = speeds[k] + np.divide(links[k], grid, out=np.zeros(len(grid)), where=k > 0)
    unsaturated = (n - k) / n if n else np.ones(len(grid))
    return total, unsaturated


def conditional_aggregate(
    pool: HostTable,
    resource_a: str,
    resource_b: str,
    thresholds: Sequence[float],
) -> list[tuple[float, float]]:
    """Total of resource_a over hosts whose resource_b meets each threshold.

    Selectors follow ``HostTable.column``. Raising the threshold only
    shrinks the qualifying set, so totals are non-increasing in it.
    """
    a_vals = pool.column(resource_a).astype(float)
    b_vals = pool.column(resource_b).astype(float)
    out = []
    for t in thresholds:
        t = float(t)
        out.append((t, float(a_vals[b_vals >= t].sum()) if len(pool) else 0.0))
    return out


def storage_potential(pool: HostTable) -> float:
    """Volunteered free disk in GB: ``disk_free`` summed over ``pool`` in row order.

    Which availability or redundancy discounts apply depends on the storage
    application, so a caller scales the raw total itself.
    """
    return row_sum(pool.disk_free)


def access_rate(
    pool: HostTable,
    factors: CapacityFactors,
    mode: str = "network",
    per_host_disk_rate: float = 0.0,
) -> float:
    """Aggregate rate at which stored data could be served, in bytes/s.

    Network mode sums every host's downstream link, discounted by the
    on and connected fractions. Disk mode charges each host the given local
    rate in MB/s, discounted by the on and active fractions.
    """
    if mode == "network":
        total_link = row_sum(kbps_to_bytes_per_s(pool.throughput_down))
        return total_link * factors.on_fraction * factors.connected_fraction
    if mode == "disk":
        if per_host_disk_rate < 0:
            raise ValueError("disk rate is negative")
        return (
            len(pool)
            * per_host_disk_rate
            * MEGA
            * factors.on_fraction
            * factors.active_fraction
        )
    raise ValueError(f"unknown access mode: {mode!r}")


def factors_from_config(cfg: Mapping) -> CapacityFactors:
    """CapacityFactors from a JSON-shaped dict, defaulting to the bundled
    reference averages."""
    from . import presets

    base = presets.reference_capacity_factors()
    names = [f.name for f in fields(CapacityFactors)]
    config.section(cfg, "capacity factor", names)
    return CapacityFactors(
        **{
            name: config.number(cfg, name, getattr(base, name), "capacity factor")
            for name in names
        }
    )
