"""Bundled reference marginals for a large public desktop grid.

The tables below describe a snapshot of roughly 330,000 volunteered hosts on
a single large BOINC project in early 2006: hardware breakdowns by CPU vendor
and operating system, locale and venue splits, host-ownership concentration
and long-run availability fractions.
They serve two purposes: sensible defaults for the CLI, and fixtures whose
aggregate behaviour is known in advance so tests can pin it.

Counts are hosts observed in the snapshot; speeds are GFLOPS per host
measured by the client's Whetstone benchmark; disk in GB; throughput in Kbps.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from .capacity import CapacityFactors
from .hosts import CpuVendor, HostTable, OperatingSystem, Venue
from .population import EmpiricalDistribution, PoolSpec, generate_pool
from .units import SECONDS_PER_DAY

SNAPSHOT_N_HOSTS = 331_785
SNAPSHOT_TOTAL_GFLOPS = 535_169.0
MEAN_FLOPS_PER_HOST = 1.613  # GFLOPS, whole host
MEAN_IOPS_PER_HOST = 2.0  # GIOPS; fixture scale, not a measured aggregate
MEAN_RAM_MB = 819.0
MEAN_SWAP_GB = 2.03
MEAN_DISK_TOTAL_GB = 63.0
MEAN_DISK_FREE_GB = 36.0
MEAN_THROUGHPUT_KBPS = 289.0
MEAN_LIFETIME_DAYS = 91.0

ON_FRACTION = 0.81
CONNECTED_FRACTION = 0.83
ACTIVE_FRACTION = 0.84
CPU_EFFICIENCY = 0.899
MEAN_RESOURCE_SHARE = 0.917

# (hosts, mean GFLOPS per host) by CPU vendor.
VENDOR_TABLE: dict[CpuVendor, tuple[int, float]] = {
    CpuVendor.INTEL: (217_278, 1.600),
    CpuVendor.AMD: (95_958, 1.737),
    CpuVendor.POWERPC: (15_827, 1.149),
    CpuVendor.SPARC: (1_035, 0.755),
    CpuVendor.OTHER: (1_687, 1.233),
}

# (hosts, mean GFLOPS per host) by operating system, Windows per version.
OS_TABLE: dict[OperatingSystem, tuple[int, float]] = {
    OperatingSystem.WINDOWS_XP: (229_555, 1.739),
    OperatingSystem.WINDOWS_2000: (42_830, 1.310),
    OperatingSystem.WINDOWS_2003: (10_367, 2.690),
    OperatingSystem.WINDOWS_98: (6_591, 0.680),
    OperatingSystem.WINDOWS_MILLENNIUM: (1_973, 0.789),
    OperatingSystem.WINDOWS_NT: (1_249, 0.754),
    OperatingSystem.WINDOWS_LONGHORN: (86, 2.054),
    OperatingSystem.WINDOWS_95: (37, 0.453),
    OperatingSystem.LINUX: (21_042, 1.148),
    OperatingSystem.DARWIN: (15_830, 1.150),
    OperatingSystem.SUNOS: (1_091, 0.852),
    OperatingSystem.OTHER: (1_134, 1.364),
}

# Hosts for the ten most common countries; everything else pools into Other.
COUNTRY_TABLE: dict[str, int] = {
    "USA": 131_916,
    "Germany": 33_236,
    "UK": 23_638,
    "Canada": 14_821,
    "Japan": 12_931,
    "France": 9_412,
    "Australia": 7_747,
    "Italy": 6_921,
    "Netherlands": 6_609,
    "Spain": 6_418,
    "Other": 78_136,
}

VENUE_TABLE: dict[Venue, int] = {
    Venue.HOME: 187_742,
    Venue.WORK: 52_484,
    Venue.SCHOOL: 12_023,
    Venue.NONE: 79_535,
}

# Share of all hosts owned through users of each size bucket, in percent.
HOSTS_PER_USER_PCT: dict[str, float] = {
    "1": 41.4,
    "2-10": 44.2,
    "11-100": 11.1,
    "101-1000": 1.7,
    "1000+": 1.4,
}

# Snapshot epoch and the synthetic account-creation horizon used by fixtures.
SNAPSHOT_UTC = 1_138_752_000  # 2006-02-01
_FIXTURE_AGE_DAYS = 400.0

# Spread shapes for fixture marginals. Means above are measured; these
# coefficients of variation only control the fixture tails.
_FIXTURE_CV = {
    "flops_per_cpu": 0.6,
    "iops_per_cpu": 0.6,
    "ram": 0.7,
    "swap": 1.0,
    "disk_total": 1.0,
    "disk_free": 1.0,
    "throughput_down": 1.2,
}


def reference_capacity_factors() -> CapacityFactors:
    """Averages of the snapshot, arranged as capacity-formula factors.

    Arrival rate is backed out of the steady-state pool size and the mean
    lifetime, so arrival_rate * mean_lifetime reproduces the snapshot host
    count and the hardware product reproduces its total GFLOPS.
    """
    return CapacityFactors(
        arrival_rate=SNAPSHOT_N_HOSTS / MEAN_LIFETIME_DAYS,
        mean_lifetime=MEAN_LIFETIME_DAYS,
        mean_ncpus=1.0,
        mean_flops_per_cpu=MEAN_FLOPS_PER_HOST,
        cpu_efficiency=CPU_EFFICIENCY,
        on_fraction=ON_FRACTION,
        active_fraction=ACTIVE_FRACTION,
        redundancy=2.0,
        resource_share=MEAN_RESOURCE_SHARE,
        connected_fraction=CONNECTED_FRACTION,
    )


@lru_cache(maxsize=1)
def _lifetime_offsets(n: int = 1024) -> EmpiricalDistribution:
    """Contact-lag quantiles: exponential, mean near the measured lifetime,
    truncated to the fixture age window. Built once; every reference spec
    shares it."""
    import math

    mean_s = MEAN_LIFETIME_DAYS * SECONDS_PER_DAY
    cap = (_FIXTURE_AGE_DAYS - 1.0) * SECONDS_PER_DAY
    created = SNAPSHOT_UTC - _FIXTURE_AGE_DAYS * SECONDS_PER_DAY
    samples = sorted(
        created + min(-mean_s * math.log(1.0 - (i + 0.5) / n), cap) for i in range(n)
    )
    return EmpiricalDistribution(tuple(samples))


def reference_pool_spec(n_hosts: int, seed: int) -> PoolSpec:
    """Pool spec whose marginals match the snapshot averages.

    Numeric fields use lognormal-shaped quantile vectors hitting the measured
    means exactly; availability fractions and efficiency enter as constants;
    categorical weights come straight from the breakdown tables.
    """
    created = int(SNAPSHOT_UTC - _FIXTURE_AGE_DAYS * SECONDS_PER_DAY)

    def ln(name: str, mean: float) -> EmpiricalDistribution:
        return EmpiricalDistribution.from_lognormal(mean=mean, cv=_FIXTURE_CV[name])

    generators = {
        "n_cpus": 1.0,
        "flops_per_cpu": ln("flops_per_cpu", MEAN_FLOPS_PER_HOST),
        "iops_per_cpu": ln("iops_per_cpu", MEAN_IOPS_PER_HOST),
        "ram": ln("ram", MEAN_RAM_MB),
        "swap": ln("swap", MEAN_SWAP_GB),
        "disk_total": ln("disk_total", MEAN_DISK_TOTAL_GB),
        "disk_free": ln("disk_free", MEAN_DISK_FREE_GB),
        "throughput_down": ln("throughput_down", MEAN_THROUGHPUT_KBPS),
        "on_fraction": ON_FRACTION,
        "connected_fraction": CONNECTED_FRACTION,
        "active_fraction": ACTIVE_FRACTION,
        "cpu_efficiency": CPU_EFFICIENCY,
        "tz_offset": 0.0,
        "created": float(created),
        "last_contact": _lifetime_offsets(),
        "resource_share": MEAN_RESOURCE_SHARE,
    }
    return PoolSpec(
        n_hosts=n_hosts,
        seed=seed,
        field_generators=generators,
        vendor_weights={v: float(c) for v, (c, _) in VENDOR_TABLE.items()},
        os_weights={o: float(c) for o, (c, _) in OS_TABLE.items()},
        country_weights={c: float(n) for c, n in COUNTRY_TABLE.items()},
        venue_weights={v: float(c) for v, c in VENUE_TABLE.items()},
        # free space tracks disk size; full coupling also keeps the free
        # mean exact, since equal dispersion means free < total at every
        # quantile and the consistency clamp never fires
        rank_correlations=(("disk_total", "disk_free", 1.0),),
    )


def vendor_conditional_pool(n_hosts: int, seed: int) -> HostTable:
    """Synthetic pool whose per-vendor speed means follow the vendor table.

    One draw of the reference pool, whose vendors follow the table's host
    shares, so a vendor's host count is drawn, not apportioned exactly. Each
    host's ``flops_per_cpu`` is then scaled by its vendor's mean over
    ``MEAN_FLOPS_PER_HOST``: ``from_lognormal`` rescales one fixed shape to
    its mean, so every vendor keeps the fixture shape around its own mean.
    """
    pool = generate_pool(reference_pool_spec(n_hosts, seed))
    vendor = pool.cpu_vendor
    ratio = np.array([VENDOR_TABLE[v][1] / MEAN_FLOPS_PER_HOST for v in vendor.levels])
    return replace(pool, flops_per_cpu=pool.flops_per_cpu * ratio[vendor.codes])
