"""Analytic capacity model for a volunteer host pool.

The centrepiece is a product formula: a pool sustained by ``arrival_rate``
hosts/day living ``mean_lifetime`` days holds ``arrival_rate * mean_lifetime``
hosts in steady state; multiplying by mean CPUs per host and speed per CPU
gives raw hardware FLOPS; multiplying by the utilization factors (efficiency,
on-fraction, active-fraction, redundancy overhead, project share) gives the
FLOPS a project can actually bank.

The second half handles data-limited workloads. A workload's data rate R is
MB of input per 3.6e12 FLOP of computing. A host whose link can no longer
feed its CPU at rate R is saturated; its contribution flattens at what the
link delivers. Sweeping R produces the pool's compute-versus-data-rate curve.

Everything here is closed-form over a host table's columns; nothing samples.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from . import config
from .hosts import HostRecord, HostTable, row_sum, whole_host_flops
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


@dataclass(frozen=True)
class RateCurvePoint:
    data_rate: float  # MB per 3.6e12 FLOP
    total_flops: float  # GFLOPS
    unsaturated_fraction: float


def utilization_product(factors: CapacityFactors) -> float:
    """Fraction of raw hardware FLOPS a project keeps.

    Efficiency, on-fraction and active-fraction discount time and speed;
    redundancy divides because every result is computed that many times;
    resource_share discounts for competing projects.
    """
    return (
        factors.cpu_efficiency
        * factors.on_fraction
        * factors.active_fraction
        * (1.0 / factors.redundancy)
        * factors.resource_share
    )


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


def critical_data_rate(host: HostRecord) -> float:
    """Largest data rate this host's link can feed its CPU, in MB/quantum.

    A host computing at s GFLOPS consumes R*s MB per hour at data rate R,
    while a b Mbps link delivers 450*b MB per hour; the crossover is
    450*b/s. A host with no measured speed has no defined crossover.
    """
    speed = whole_host_flops(host)
    if speed <= 0:
        raise ValueError("undefined critical rate for zero-speed host")
    return MB_PER_MBPS_HOUR * kbps_to_mbps(host.throughput_down) / speed


def rate_grid(r_grid: Sequence[float]) -> list[float]:
    """The data rates of a curve as floats; they must be non-negative and
    strictly ascending."""
    grid = [float(r) for r in r_grid]
    if any(r < 0 for r in grid):
        raise ValueError("data rate is negative")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("data-rate grid must ascend")
    return grid


def compute_vs_rate_curve(
    pool: HostTable,
    r_grid: Sequence[float],
    factors: CapacityFactors,
    per_host_factors: bool = False,
) -> list[RateCurvePoint]:
    """Total usable GFLOPS at each workload data rate in an ascending grid.

    At data rate R a host on a b Mbps link delivers min(speed, 450*b/R)
    GFLOPS: below its critical rate the CPU is the bottleneck, above it the
    link is. Each point discounts this per-host deliverable speed by the
    utilization product, either the pool-average one from ``factors`` or,
    with ``per_host_factors``, each host's own fractions (redundancy still
    comes from ``factors``). ``unsaturated_fraction`` is the share of hosts
    whose critical rate is at or above the grid point.
    """
    grid = rate_grid(r_grid)
    n = len(pool)
    speed = pool.column("flops")
    link_hourly = MB_PER_MBPS_HOUR * kbps_to_mbps(pool.throughput_down)
    if per_host_factors:
        util = (
            pool.cpu_efficiency * pool.on_fraction * pool.active_fraction
            * pool.resource_share / factors.redundancy
        )
    else:
        util = utilization_product(factors)

    points = []
    for r in grid:
        if r == 0:
            avail = speed
            unsat = 1.0
        else:
            with np.errstate(over="ignore"):  # inf at a tiny rate; the speed caps it
                avail = np.minimum(speed, link_hourly / r)
            unsat = float(np.mean(link_hourly >= r * speed)) if n else 1.0
        points.append(
            RateCurvePoint(
                data_rate=r,
                total_flops=float(np.sum(avail * util)),
                unsaturated_fraction=unsat,
            )
        )
    return points


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


_STORAGE_FACTORS = {
    "on_fraction",
    "connected_fraction",
    "active_fraction",
    "resource_share",
    "redundancy",
}


def storage_potential(
    pool: HostTable,
    factors: CapacityFactors,
    selection: Sequence[str] = (),
) -> float:
    """Usable volunteered disk in GB: summed free space times chosen factors.

    ``selection`` names the discounts to apply, any subset of on_fraction,
    connected_fraction, active_fraction, resource_share and redundancy (the
    last divides). Which discounts apply depends on the storage application,
    so the caller picks; an empty selection returns the raw free total.
    """
    scale = 1.0
    for name in selection:
        if name not in _STORAGE_FACTORS:
            raise ValueError(f"unknown storage factor: {name!r}")
        if name == "redundancy":
            scale /= factors.redundancy
        else:
            scale *= getattr(factors, name)
    return row_sum(pool.disk_free) * scale


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
