"""Domain model for a volunteered host and for a pool of them.

A host record bundles the hardware inventory (CPUs, benchmark speeds, memory,
disk, network throughput), the measured availability fractions, and ownership
and locale attributes. A pool is a ``HostTable``: one column per record
field, validated once per column. Generators and parsers build tables and
everything downstream reads their columns; a ``HostRecord`` is one row of a
table, for code that follows a single host. Both are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain
from typing import Mapping

import numpy as np


class CpuVendor(Enum):
    INTEL = "Intel"
    AMD = "AMD"
    POWERPC = "PowerPC"
    SPARC = "SPARC"
    OTHER = "Other"


class OperatingSystem(Enum):
    """Operating system labels, Windows split out by version.

    The enum value is the flat label used in CSV files and breakdown keys.
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

FRACTION_FIELDS = (
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
        check_host(vars(self))


_NONNEGATIVE_RULES = tuple((name, f"{name} is negative") for name in _NONNEGATIVE_FIELDS)
_FRACTION_RULES = tuple((name, f"{name} outside [0, 1]") for name in FRACTION_FIELDS)


def host_rules(values: Mapping):
    """The host rules in order, each as a (test, message) pair.

    ``values`` maps field names to one host's values or to whole columns;
    ``test`` is true, or a mask true on the rows, where ``values`` break the
    rule. The fraction test is written without a chained comparison so that
    it works on columns too; NaN fails it.
    """
    yield values["n_cpus"] < 1, "n_cpus must be at least 1"
    for name, message in _NONNEGATIVE_RULES:
        yield values[name] < 0, message
    for name, message in _FRACTION_RULES:
        v = values[name]
        yield (v < 0.0) | (v > 1.0) | (v != v), message
    yield values["disk_free"] > values["disk_total"], "disk_free exceeds disk_total"
    yield values["last_contact"] < values["created"], "last_contact precedes created"


def check_host(values: Mapping, is_broken=bool) -> None:
    """Raise ValueError with the message of the first of ``host_rules``
    that ``values`` break.

    ``is_broken`` reduces a rule's test to a bool: ``bool`` for one host,
    ``np.any`` for whole columns. The block parser of ``volpool.ingest``
    reads the same rules as masks, to name the first rule each row breaks.
    """
    for test, message in host_rules(values):
        if is_broken(test):
            raise ValueError(message)


def whole_host_flops(host: HostRecord) -> float:
    """Aggregate nominal speed of the box in GFLOPS."""
    return host.n_cpus * host.flops_per_cpu


HOST_FIELDS = tuple(f.name for f in fields(HostRecord))
ID_FIELDS = ("host_id", "user_id")
CATEGORICAL_FIELDS = ("cpu_vendor", "os", "country", "venue")
# Numeric fields a pool generator or fitter may target, in the canonical
# order generators consume random draws.
NUMERIC_FIELDS = tuple(
    name for name in HOST_FIELDS if name not in ID_FIELDS + CATEGORICAL_FIELDS
)
INT_FIELDS = ("n_cpus", "tz_offset", "created", "last_contact")
# Rows converted to Python values at a time when a table is read row by row
# or written out, which bounds the memory that conversion takes.
ROW_BLOCK = 4096


def _read_only(values, dtype) -> np.ndarray:
    """``values`` as an array of ``dtype`` that cannot be written through."""
    arr = np.asarray(values, dtype=dtype).view()
    arr.flags.writeable = False
    return arr


def row_sum(column) -> float:
    """The sum of ``column`` added one row at a time, in row order, from 0.0.

    ``np.bincount`` adds each group's weights this way, and so does the
    builtin ``sum`` up to Python 3.11; NumPy's ``sum`` adds pairwise and the
    builtin ``sum`` of Python 3.12+ compensates, so both can differ from it
    in the last bits.
    """
    zeros = np.zeros(len(column), np.intp)
    return float(np.bincount(zeros, weights=column, minlength=1)[0])


class Categorical:
    """A column of repeated labels: one code per row into ``levels``.

    Levels are distinct; a level no row uses is allowed. Two categoricals
    are equal when they hold the same label in every row, whatever their
    codes.
    """

    __slots__ = ("codes", "levels")

    def __init__(self, codes, levels):
        self.levels = tuple(levels)
        self.codes = _read_only(codes, np.intp)
        if self.codes.ndim != 1:
            raise ValueError("codes must be one-dimensional")
        if len(self.codes) and not (
            0 <= self.codes.min() and self.codes.max() < len(self.levels)
        ):
            raise ValueError("category code outside its levels")

    @classmethod
    def of(cls, labels) -> "Categorical":
        """Encode a sequence of labels, levels in order of first appearance."""
        labels = list(labels)
        index = {label: code for code, label in enumerate(dict.fromkeys(labels))}
        return cls(np.fromiter(map(index.__getitem__, labels), np.intp, len(labels)), index)

    def __len__(self) -> int:
        return len(self.codes)

    def tolist(self, rows=slice(None)) -> list:
        """The labels of ``rows``, one per row."""
        return list(map(self.levels.__getitem__, self.codes[rows].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Categorical):
            return NotImplemented
        return self.tolist() == other.tolist()


@dataclass(frozen=True, eq=False, repr=False)
class HostTable:
    """A pool of hosts held column by column.

    Each ``HostRecord`` field is one column: a tuple of strings for the two
    ids, a ``Categorical`` for vendor, os, country and venue, and a read-only
    numpy array for the rest, int64 for ``n_cpus`` and the three timestamps,
    float64 otherwise. Construction converts the columns and checks them
    with the ``HostRecord`` rules, once per column. ``len``, indexing and
    iteration give ``HostRecord`` rows of Python scalars; a slice gives a
    table. Equality is column by column and exact.
    """

    host_id: tuple
    user_id: tuple
    n_cpus: np.ndarray
    flops_per_cpu: np.ndarray
    iops_per_cpu: np.ndarray
    ram: np.ndarray
    swap: np.ndarray
    disk_total: np.ndarray
    disk_free: np.ndarray
    throughput_down: np.ndarray
    on_fraction: np.ndarray
    connected_fraction: np.ndarray
    active_fraction: np.ndarray
    cpu_efficiency: np.ndarray
    cpu_vendor: Categorical
    os: Categorical
    country: Categorical
    venue: Categorical
    tz_offset: np.ndarray
    created: np.ndarray
    last_contact: np.ndarray
    resource_share: np.ndarray

    def __post_init__(self):
        for name in HOST_FIELDS:
            value = getattr(self, name)
            if name in ID_FIELDS:
                value = tuple(value)
            elif name in CATEGORICAL_FIELDS:
                if not isinstance(value, Categorical):
                    value = Categorical.of(value)
            else:
                value = _read_only(value, np.int64 if name in INT_FIELDS else np.float64)
                if value.ndim != 1:
                    raise ValueError(f"{name} column must be one-dimensional")
            object.__setattr__(self, name, value)
        if any(len(getattr(self, name)) != len(self.host_id) for name in HOST_FIELDS):
            raise ValueError("host columns differ in length")
        check_host(vars(self), np.any)

    @classmethod
    def from_records(cls, records) -> "HostTable":
        records = list(records)
        return cls(**{name: [getattr(r, name) for r in records] for name in HOST_FIELDS})

    @classmethod
    def concat(cls, tables) -> "HostTable":
        """The rows of ``tables``, one table after another."""
        tables = list(tables)
        columns = {}
        for name in HOST_FIELDS:
            parts = [getattr(t, name) for t in tables]
            if name in ID_FIELDS:
                columns[name] = tuple(chain.from_iterable(parts))
            elif name in CATEGORICAL_FIELDS:
                columns[name] = list(chain.from_iterable(p.tolist() for p in parts))
            else:
                columns[name] = np.concatenate(parts) if parts else []
        return cls(**columns)

    def __len__(self) -> int:
        return len(self.host_id)

    def _lists(self, rows=slice(None)) -> list[list]:
        """Every column's Python values over ``rows``, in field order."""
        out = []
        for name in HOST_FIELDS:
            col = getattr(self, name)
            if name in ID_FIELDS:
                out.append(list(col[rows]))
            elif name in CATEGORICAL_FIELDS:
                out.append(col.tolist(rows))
            else:
                out.append(col[rows].tolist())
        return out

    def __iter__(self):
        for start in range(0, len(self), ROW_BLOCK):
            for values in zip(*self._lists(slice(start, start + ROW_BLOCK))):
                yield HostRecord(*values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return HostTable(**dict(zip(HOST_FIELDS, self._lists(index))))
        i = range(len(self))[index]  # bounds and negative indices
        return HostRecord(*(values[0] for values in self._lists(slice(i, i + 1))))

    def column(self, selector: str) -> np.ndarray:
        """One numeric field, or "flops" / "iops" for the whole-host aggregate."""
        if selector == "flops":
            return self.n_cpus * self.flops_per_cpu
        if selector == "iops":
            return self.n_cpus * self.iops_per_cpu
        if selector in NUMERIC_FIELDS:
            return getattr(self, selector)
        raise ValueError(f"unknown host field selector: {selector!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, HostTable):
            return NotImplemented
        return len(self) == len(other) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, n), getattr(other, n)) for n in HOST_FIELDS)
        )

    def __repr__(self) -> str:
        return f"HostTable(<{len(self)} hosts>)"
