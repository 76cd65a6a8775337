"""Domain model for a volunteered host.

A host record bundles the hardware inventory (CPUs, benchmark speeds, memory,
disk, network throughput), the measured availability fractions, and ownership
and locale attributes. Records are immutable; generators and parsers construct
them, everything downstream only reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable


class CpuVendor(Enum):
    INTEL = "Intel"
    AMD = "AMD"
    POWERPC = "PowerPC"
    SPARC = "SPARC"
    OTHER = "Other"


class OperatingSystem(Enum):
    """Operating system labels, Windows split out by version.

    The enum value is the flat label used in CSV files and breakdown keys;
    ``family`` collapses the Windows versions back to one group.
    """

    WINDOWS_XP = "Windows XP"
    WINDOWS_2000 = "Windows 2000"
    WINDOWS_2003 = "Windows 2003"
    WINDOWS_98 = "Windows 98"
    WINDOWS_MILLENNIUM = "Windows Millennium"
    WINDOWS_NT = "Windows NT"
    WINDOWS_LONGHORN = "Windows Longhorn"
    WINDOWS_95 = "Windows 95"
    LINUX = "Linux"
    DARWIN = "Darwin"
    SUNOS = "SunOS"
    OTHER = "Other"

    @property
    def family(self) -> str:
        return self.value.split(" ")[0]


class Venue(Enum):
    HOME = "Home"
    WORK = "Work"
    SCHOOL = "School"
    NONE = "None"


_NONNEGATIVE_FIELDS = (
    "flops_per_cpu",
    "iops_per_cpu",
    "ram",
    "swap",
    "disk_total",
    "disk_free",
    "throughput_down",
)

_FRACTION_FIELDS = (
    "on_fraction",
    "connected_fraction",
    "active_fraction",
    "cpu_efficiency",
    "resource_share",
)


@dataclass(frozen=True)
class HostRecord:
    """One volunteered host as measured at its last server contact.

    Benchmark speeds are per CPU in GFLOPS / GIOPS, memory in MB, swap and
    disk in GB, downstream throughput in Kbps. The three availability values
    are long-run fractions of wall time; ``cpu_efficiency`` is the share of
    nominal benchmark speed actually delivered while computing.
    ``resource_share`` is the fraction of the host granted to this project
    when it competes with others. Timestamps are UTC epoch seconds.
    """

    host_id: str
    user_id: str
    n_cpus: int
    flops_per_cpu: float
    iops_per_cpu: float
    ram: float
    swap: float
    disk_total: float
    disk_free: float
    throughput_down: float
    on_fraction: float
    connected_fraction: float
    active_fraction: float
    cpu_efficiency: float
    cpu_vendor: CpuVendor
    os: OperatingSystem
    country: str
    venue: Venue
    tz_offset: int
    created: int
    last_contact: int
    resource_share: float

    def __post_init__(self):
        if self.n_cpus < 1:
            raise ValueError("n_cpus must be at least 1")
        for name in _NONNEGATIVE_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} is negative")
        for name in _FRACTION_FIELDS:
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} outside [0, 1]")
        if self.disk_free > self.disk_total:
            raise ValueError("disk_free exceeds disk_total")
        if self.last_contact < self.created:
            raise ValueError("last_contact precedes created")


def whole_host_flops(host: HostRecord) -> float:
    """Aggregate nominal speed of the box in GFLOPS."""
    return host.n_cpus * host.flops_per_cpu


def whole_host_iops(host: HostRecord) -> float:
    return host.n_cpus * host.iops_per_cpu


# Numeric fields a pool generator or fitter may target, in the canonical
# order generators consume random draws.
NUMERIC_FIELDS = (
    "n_cpus",
    "flops_per_cpu",
    "iops_per_cpu",
    "ram",
    "swap",
    "disk_total",
    "disk_free",
    "throughput_down",
    "on_fraction",
    "connected_fraction",
    "active_fraction",
    "cpu_efficiency",
    "tz_offset",
    "created",
    "last_contact",
    "resource_share",
)

# Derived quantities accepted anywhere a field selector is.
_DERIVED_GETTERS: dict[str, Callable[[HostRecord], float]] = {
    "flops": whole_host_flops,
    "iops": whole_host_iops,
}


def field_getter(selector) -> Callable[[HostRecord], float]:
    """Resolve a field selector to a callable on host records.

    Accepts a callable as-is, a numeric field name, or one of the derived
    names "flops" / "iops" meaning the whole-host aggregate.
    """
    if callable(selector):
        return selector
    if selector in _DERIVED_GETTERS:
        return _DERIVED_GETTERS[selector]
    if selector in NUMERIC_FIELDS:
        return lambda host: getattr(host, selector)
    raise ValueError(f"unknown host field selector: {selector!r}")
