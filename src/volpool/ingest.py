"""Host-record CSV interchange and descriptive statistics.

The CSV schema is fixed: one header row with exact column names, one host per
line, integer epoch timestamps, decimal units as named in the headers. A
malformed file (wrong header) fails as a whole; a malformed row becomes a
reject entry carrying its line number and the first violated rule, and
parsing continues. Serialization is canonical, so parse -> serialize is a
byte-level identity on files this module wrote.

Breakdown tables, ownership buckets and half-open histograms live here too;
they read the columns of a host table regardless of where it came from.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .hosts import (
    CATEGORICAL_FIELDS,
    HOST_FIELDS,
    ID_FIELDS,
    INT_FIELDS,
    ROW_BLOCK,
    CpuVendor,
    HostTable,
    OperatingSystem,
    Venue,
    check_host,
)

HOST_CSV_COLUMNS = (
    "host_id",
    "user_id",
    "n_cpus",
    "flops_per_cpu_gflops",
    "iops_per_cpu_giops",
    "ram_mb",
    "swap_gb",
    "disk_total_gb",
    "disk_free_gb",
    "throughput_down_kbps",
    "on_fraction",
    "connected_fraction",
    "active_fraction",
    "cpu_efficiency",
    "cpu_vendor",
    "os",
    "country",
    "venue",
    "tz_offset_s",
    "created_utc",
    "last_contact_utc",
    "resource_share",
)

BREAKDOWN_KEYS = ("cpu_vendor", "os", "country", "venue")

_VENDOR_BY_LABEL = {v.value: v for v in CpuVendor}
_OS_BY_LABEL = {o.value: o for o in OperatingSystem}
_VENUE_BY_LABEL = {v.value: v for v in Venue}


@dataclass(frozen=True)
class ParseResult:
    records: HostTable
    rejects: tuple[tuple[int, str], ...]  # (line number, reason)


@dataclass(frozen=True)
class BreakdownRow:
    key: str
    n_hosts: int
    mean_flops: float
    total_flops: float
    mean_disk_free: float
    mean_throughput: float


@dataclass(frozen=True)
class UserBucketRow:
    bucket: str
    n_users: int
    n_hosts: int
    pct_hosts: float


@dataclass(frozen=True)
class Histogram:
    """Counts over half-open bins [e_i, e_{i+1}); out-of-range samples,
    including one equal to the last edge, land in the overflow tally."""

    field_name: str
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    overflow: int


def _float_field(name: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"invalid {name}: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"invalid {name}: {text!r}")
    return value


_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _int_field(name: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid {name}: {text!r}") from None
    if not _INT64_MIN <= value <= _INT64_MAX:  # a host table column is int64
        raise ValueError(f"invalid {name}: {text!r}")
    return value


def _row_values(row: Sequence[str]) -> dict:
    """One CSV row as host field values, checked like a ``HostRecord``."""
    if len(row) != len(HOST_CSV_COLUMNS):
        raise ValueError("wrong column count")
    (
        host_id,
        user_id,
        n_cpus,
        flops,
        iops,
        ram,
        swap,
        disk_total,
        disk_free,
        throughput,
        on_f,
        conn_f,
        act_f,
        eff,
        vendor,
        os_label,
        country,
        venue,
        tz,
        created,
        last_contact,
        share,
    ) = row
    if vendor not in _VENDOR_BY_LABEL:
        raise ValueError(f"unknown cpu_vendor: {vendor!r}")
    if os_label not in _OS_BY_LABEL:
        raise ValueError(f"unknown os: {os_label!r}")
    if venue not in _VENUE_BY_LABEL:
        raise ValueError(f"unknown venue: {venue!r}")
    values = dict(
        host_id=host_id,
        user_id=user_id,
        n_cpus=_int_field("n_cpus", n_cpus),
        flops_per_cpu=_float_field("flops_per_cpu_gflops", flops),
        iops_per_cpu=_float_field("iops_per_cpu_giops", iops),
        ram=_float_field("ram_mb", ram),
        swap=_float_field("swap_gb", swap),
        disk_total=_float_field("disk_total_gb", disk_total),
        disk_free=_float_field("disk_free_gb", disk_free),
        throughput_down=_float_field("throughput_down_kbps", throughput),
        on_fraction=_float_field("on_fraction", on_f),
        connected_fraction=_float_field("connected_fraction", conn_f),
        active_fraction=_float_field("active_fraction", act_f),
        cpu_efficiency=_float_field("cpu_efficiency", eff),
        cpu_vendor=_VENDOR_BY_LABEL[vendor],
        os=_OS_BY_LABEL[os_label],
        country=country,
        venue=_VENUE_BY_LABEL[venue],
        tz_offset=_int_field("tz_offset_s", tz),
        created=_int_field("created_utc", created),
        last_contact=_int_field("last_contact_utc", last_contact),
        resource_share=_float_field("resource_share", share),
    )
    check_host(values)
    return values


def parse_hosts(source) -> ParseResult:
    """Parse a host CSV from a path or text stream.

    Leading ``#`` comment lines are permitted before the header. A missing
    or unexpected header aborts the whole file; each bad data row is
    reported in ``rejects`` and skipped.
    """
    if hasattr(source, "read"):
        return _parse_stream(source)
    with open(source, "r", newline="") as fh:
        return _parse_stream(fh)


def _parse_stream(fh) -> ParseResult:
    reader = csv.reader(fh)
    header = None
    for row in reader:
        if row and row[0].startswith("#"):
            continue
        header = row
        break
    if header is None:
        raise ValueError("missing header row")
    if tuple(header) != HOST_CSV_COLUMNS:
        unknown = [c for c in header if c not in HOST_CSV_COLUMNS]
        if unknown:
            raise ValueError(f"unknown column: {unknown[0]!r}")
        raise ValueError("header does not match host CSV schema")

    # numbers go straight into machine arrays, so no Python object per
    # value outlives its row
    columns = {
        name: [] if name in ID_FIELDS or name in CATEGORICAL_FIELDS
        else array("q" if name in INT_FIELDS else "d")
        for name in HOST_FIELDS
    }
    appends = [(name, columns[name].append) for name in HOST_FIELDS]
    rejects: list[tuple[int, str]] = []
    for row in reader:
        if not row:
            continue
        try:
            values = _row_values(row)
        except ValueError as err:
            rejects.append((reader.line_num, str(err)))
            continue
        for name, append in appends:
            append(values[name])
    return ParseResult(HostTable(**columns), tuple(rejects))


def _text_columns(records: HostTable, rows: slice) -> list[list[str]]:
    """Each column's ``rows`` as CSV text: shortest round-trip floats, labels."""
    out = []
    for name in HOST_FIELDS:
        col = getattr(records, name)
        if name in ID_FIELDS:
            out.append(col[rows])
        elif name in CATEGORICAL_FIELDS:
            labels = [getattr(v, "value", v) for v in col.levels]
            out.append([labels[c] for c in col.codes[rows].tolist()])
        else:
            out.append(list(map(repr if col.dtype.kind == "f" else str, col[rows].tolist())))
    return out


def serialize_hosts(records: HostTable, header_comment: str | None = None) -> str:
    """Render a host table to canonical CSV text."""
    buf = io.StringIO()
    if header_comment is not None:
        buf.write(f"# {header_comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HOST_CSV_COLUMNS)
    for start in range(0, len(records), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        writer.writerows(zip(*_text_columns(records, rows)))
    return buf.getvalue()


def write_hosts_csv(records: HostTable, path, header_comment=None) -> None:
    Path(path).write_text(serialize_hosts(records, header_comment))


def breakdown(records: HostTable, key: str) -> list[BreakdownRow]:
    """Per-category host counts and means, largest group first, Total last.

    ``key`` is one of cpu_vendor, os, country, venue. The os key uses the
    flat per-version labels, one line per Windows version. Every sum adds
    its hosts one by one in table order: ``np.bincount`` adds each group's
    weights in row order, as the builtin ``sum`` does up to Python 3.11,
    which the Total row uses.
    """
    if key not in BREAKDOWN_KEYS:
        raise ValueError(f"unknown breakdown key: {key!r}")
    cat = getattr(records, key)
    columns = (records.column("flops"), records.disk_free, records.throughput_down)
    counts = np.bincount(cat.codes, minlength=len(cat.levels)).tolist()
    sums = [
        np.bincount(cat.codes, weights=col, minlength=len(cat.levels)).tolist()
        for col in columns
    ]

    def _row(label: str, n: int, flops: float, disk_free: float, thr: float) -> BreakdownRow:
        return BreakdownRow(
            key=label,
            n_hosts=n,
            mean_flops=flops / n if n else 0.0,
            total_flops=flops,
            mean_disk_free=disk_free / n if n else 0.0,
            mean_throughput=thr / n if n else 0.0,
        )

    rows = [
        _row(getattr(level, "value", str(level)), n, *(s[k] for s in sums))
        for k, (level, n) in enumerate(zip(cat.levels, counts))
        if n
    ]
    rows.sort(key=lambda row: (-row.n_hosts, row.key))
    rows.append(_row("Total", len(records), *(sum(col.tolist()) for col in columns)))
    return rows


def hosts_per_user(records: HostTable) -> list[UserBucketRow]:
    """Ownership distribution: users and hosts per hosts-owned bucket."""
    from .population import USER_BUCKETS  # bucket boundaries shared with generation

    per_user = np.fromiter(Counter(records.user_id).values(), dtype=np.int64)
    total_hosts = len(records)
    rows = []
    for bucket, lo, _hi in USER_BUCKETS:
        hi = math.inf if bucket.endswith("+") else _hi
        owned = per_user[(lo <= per_user) & (per_user <= hi)]
        n_hosts = int(owned.sum())
        rows.append(
            UserBucketRow(
                bucket=bucket,
                n_users=len(owned),
                n_hosts=n_hosts,
                pct_hosts=100.0 * n_hosts / total_hosts if total_hosts else 0.0,
            )
        )
    return rows


def histogram_of_values(values, bin_edges: Sequence[float], field_name: str) -> Histogram:
    """Counts of ``values`` over the half-open bins between ``bin_edges``."""
    edges = [float(e) for e in bin_edges]
    if len(edges) < 2:
        raise ValueError("need at least two bin edges")
    if any(a >= b for a, b in zip(edges, edges[1:])):
        raise ValueError("bin edges not strictly ascending")
    arr = np.asarray(values, dtype=float)
    e = np.asarray(edges)
    if arr.size == 0:
        return Histogram(field_name, tuple(edges), (0,) * (len(edges) - 1), 0)
    idx = np.searchsorted(e, arr, side="right") - 1
    in_range = (arr >= e[0]) & (idx <= len(edges) - 2)
    counts = np.bincount(idx[in_range], minlength=len(edges) - 1)
    return Histogram(
        field_name,
        tuple(edges),
        tuple(int(c) for c in counts),
        int(arr.size - in_range.sum()),
    )


def auto_edges(values, n_bins: int = 50) -> list[float]:
    """Deterministic linear bin edges covering the data, max included."""
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        return [0.0, 1.0]
    lo, hi = float(vals.min()), float(vals.max())
    if hi <= lo:
        return [float(lo), float(lo) + 1.0]
    edges = np.linspace(lo, hi, n_bins + 1)
    edges[-1] = np.nextafter(hi, math.inf)
    return [float(e) for e in edges]
