"""Domain model for a pool of volunteered hosts.

A pool is a ``HostTable``: one column per host field, the hardware inventory
(CPUs, benchmark speeds, memory, disk, network throughput), the measured
availability fractions, and ownership and locale attributes. The table is
the one declaration of those fields and the one place they are checked,
once per column, against ``host_rules``. Generators and parsers build
tables and everything downstream, per-host figures such as the crossover
data rate included, reads their columns. Label columns, the user id
included, are ``Categorical`` codes into distinct levels, and the levels of
the vendor, os and venue columns are members of their enums; the ids a
generator draws are ``Numbered``, spelled only when a CSV cell needs one. A
table is read by column only and is immutable.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields, make_dataclass
from enum import Enum
from itertools import count, filterfalse
from operator import eq
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


# Rows converted at a time when a table is parsed or written out, which
# bounds the memory that conversion takes.
ROW_BLOCK = 4096


def _encode(labels, levels: dict, codes: array) -> None:
    """Append the code of each of ``labels`` to ``codes``; a label new to
    ``levels`` becomes the next level, in order of first appearance."""
    new = filterfalse(levels.__contains__, dict.fromkeys(labels))
    levels.update(zip(new, count(len(levels))))
    codes.extend(map(levels.__getitem__, labels))


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


class Numbered(Sequence):
    """The labels ``prefix`` + ``str(i)`` for ``i`` in ``range(n)``, each
    spelled only when it is read; ``n`` may also be a ``range`` itself.

    ``len``, indexing and slicing follow ``range``: a negative index counts
    from the end, one out of range raises IndexError, and a slice is another
    ``Numbered``. It equals any tuple, list or ``Numbered`` holding the same
    strings in the same order. Generated ids are numbered this way, so a
    pool of n hosts holds no n id strings.
    """

    __slots__ = ("prefix", "numbers")

    def __init__(self, prefix: str, n):
        self.prefix = prefix
        self.numbers = n if isinstance(n, range) else range(n)

    def __len__(self) -> int:
        return len(self.numbers)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Numbered(self.prefix, self.numbers[index])
        return f"{self.prefix}{self.numbers[index]}"

    def __iter__(self):
        return map(self.prefix.__add__, map(str, self.numbers))

    def __eq__(self, other) -> bool:
        if isinstance(other, Numbered) and other.prefix == self.prefix:
            return self.numbers == other.numbers
        if not isinstance(other, (Numbered, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class Categorical:
    """A column of repeated labels: one code per row into ``levels``.

    Levels are distinct; a level no row uses is allowed. ``levels`` is a
    tuple, or a ``Numbered`` kept as it is. Two categoricals are equal when
    they hold the same label in every row, whatever their codes.
    """

    __slots__ = ("codes", "levels")

    def __init__(self, codes, levels):
        self.levels = levels if isinstance(levels, Numbered) else tuple(levels)
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
        levels, codes = {}, array("q")
        _encode(list(labels), levels, codes)
        return cls(codes, levels)

    def __len__(self) -> int:
        return len(self.codes)

    def tolist(self) -> list:
        """The labels, one per row."""
        return list(map(self.levels.__getitem__, self.codes.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Categorical):
            return NotImplemented
        return self.tolist() == other.tolist()


@dataclass(frozen=True, eq=False, repr=False)
class HostTable:
    """A pool of hosts held column by column.

    Each row is one volunteered host as measured at its last server contact.
    Benchmark speeds are per CPU in GFLOPS / GIOPS, memory in MB, swap and
    disk in GB, downstream throughput in Kbps. The three availability values
    are long-run fractions of wall time; ``cpu_efficiency`` is the share of
    nominal benchmark speed actually delivered while computing.
    ``resource_share`` is the fraction of the host granted to this project
    when it competes with others. Timestamps are UTC epoch seconds.

    Each field is one column: a tuple or a ``Numbered`` of strings for
    ``host_id``, a ``Categorical`` for ``user_id``, vendor, os, country and
    venue, and a read-only numpy array for the rest, int64 for ``n_cpus``
    and the three timestamps, float64 otherwise. Construction converts the
    columns, encoding a label column given as a sequence and converting each
    level of an ``ENUM_FIELDS`` column through its enum, which takes a member
    or its value. It raises ValueError naming the first level that is
    neither; failing that, with the message of the first of ``host_rules``
    that any row breaks. ``len`` counts the hosts. Equality is column by column and
    exact, so labels given as enum values equal the same labels given as
    members.
    """

    host_id: tuple | Numbered
    user_id: Categorical
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
                if not isinstance(value, Numbered):
                    value = tuple(value)
            elif name in CATEGORICAL_FIELDS:
                if not isinstance(value, Categorical):
                    value = Categorical.of(value)
                if name in ENUM_FIELDS:
                    value = _enum_members(name, value)
            else:
                value = _read_only(value, np.int64 if name in INT_FIELDS else np.float64)
                if value.ndim != 1:
                    raise ValueError(f"{name} column must be one-dimensional")
            object.__setattr__(self, name, value)
        if any(len(getattr(self, name)) != len(self.host_id) for name in HOST_FIELDS):
            raise ValueError("host columns differ in length")
        for test, message in host_rules(vars(self)):
            if np.any(test):
                raise ValueError(message)

    def __len__(self) -> int:
        return len(self.host_id)

    def column(self, selector: str) -> np.ndarray:
        """One numeric field, or "flops" / "iops" for the whole-host aggregate."""
        if selector in ("flops", "iops"):
            with np.errstate(over="ignore"):  # inf past the float range, for writers to report
                return self.n_cpus * getattr(self, f"{selector}_per_cpu")
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


HOST_FIELDS = tuple(f.name for f in fields(HostTable))
ID_FIELDS = ("host_id",)
CATEGORICAL_FIELDS = ("user_id", "cpu_vendor", "os", "country", "venue")
# The label columns whose levels are enum members, in the order a parse checks
# their labels.
ENUM_FIELDS = {"cpu_vendor": CpuVendor, "os": OperatingSystem, "venue": Venue}
# Numeric fields a pool generator or fitter may target, in the canonical
# order generators consume random draws.
NUMERIC_FIELDS = tuple(
    name for name in HOST_FIELDS if name not in ID_FIELDS + CATEGORICAL_FIELDS
)
INT_FIELDS = ("n_cpus", "tz_offset", "created", "last_contact")

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

_NONNEGATIVE_RULES = tuple(
    (name, f"{name} is negative", f"{name} is not finite") for name in _NONNEGATIVE_FIELDS
)
_FRACTION_RULES = tuple((name, f"{name} outside [0, 1]") for name in FRACTION_FIELDS)


def _enum_members(name: str, column: Categorical) -> Categorical:
    """``column`` with each level replaced by its ``ENUM_FIELDS[name]``
    member; levels that name one member become one level."""
    members = []
    for level in column.levels:
        try:
            members.append(ENUM_FIELDS[name](level))
        except ValueError:
            raise ValueError(f"unknown {name}: {level!r}") from None
    if members == list(column.levels):
        return column
    merged = Categorical.of(members)
    return Categorical(merged.codes[column.codes], merged.levels)


def host_rules(values: Mapping):
    """The host rules in order, each as a (test, message) pair.

    ``values`` maps field names to one host's values or to whole columns;
    ``test`` is true, or a mask true on the rows, where ``values`` break the
    rule. The fraction test is written without a chained comparison so that
    it works on columns too, and NaN fails it; a size or speed that is NaN or
    infinite fails its finite test. A ``HostTable`` raises the message of
    the first rule any of its rows breaks; the block parser of
    ``volpool.ingest`` reads the rules as masks, to name the first rule each
    row breaks, though its own number check rejects every NaN and infinity
    first.
    """
    yield values["n_cpus"] < 1, "n_cpus must be at least 1"
    for name, negative, infinite in _NONNEGATIVE_RULES:
        v = values[name]
        yield v < 0, negative
        yield ~np.isfinite(v), infinite
    for name, message in _FRACTION_RULES:
        v = values[name]
        yield (v < 0.0) | (v > 1.0) | (v != v), message
    yield values["disk_free"] > values["disk_total"], "disk_free exceeds disk_total"
    yield values["last_contact"] < values["created"], "last_contact precedes created"


# Nothing in the package builds a row; perfbench's tracer counts the instances
# built during a run by wrapping this class's __init__, so it stays for that.
HostRecord = make_dataclass(
    "HostRecord",
    HOST_FIELDS,
    frozen=True,
    # before Python 3.12 make_dataclass would name the module ``types``
    namespace={
        "__module__": __name__,
        "__doc__": "One row of a ``HostTable``: each host field's Python value.",
    },
)
