"""Host-record CSV interchange and descriptive statistics.

The CSV schema is fixed: one header row with exact column names, one host per
line, integer epoch timestamps, decimal units as named in the headers. A
malformed file (wrong header) fails as a whole; a malformed row becomes a
reject entry carrying its line number and the first rule it breaks, and
parsing continues. Serialization is canonical, so parse -> serialize is a
byte-level identity on files this module wrote.

Rows are parsed a block of ``ROW_BLOCK`` at a time, and that is the only
parse path: each label column of a block is mapped to enum codes, each
numeric column is converted in one pass, and ``hosts.host_rules`` are
evaluated over the block's columns as masks. A rejected row is given the
first rule it breaks, in this order: the column count; ``cpu_vendor``,
``os``, ``venue``; the numbers in column order; the host rules. Writing
turns each label column's levels into cells once per call, joins a block's
cells by hand, and quotes a host id, user id or country cell that holds a
delimiter, quote or line break; ``csv_cells`` is that quoting rule, and the
CLI writes its own CSVs through it too.

Breakdown tables, ownership buckets and half-open histograms live here too;
they read the columns of a host table regardless of where it came from.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .hosts import (
    CATEGORICAL_FIELDS,
    HOST_FIELDS,
    ID_FIELDS,
    INT_FIELDS,
    NUMERIC_FIELDS,
    ROW_BLOCK,
    Categorical,
    CpuVendor,
    HostTable,
    OperatingSystem,
    Venue,
    host_rules,
    row_sum,
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

# A block parse keeps the host ids, user ids and countries as strings, which
# the table encodes once it is built, and maps each enum column's labels to
# codes over all of the enum's members.
_TEXT_FIELDS = ("host_id", "user_id", "country")
_ENUM_LEVELS = {
    "cpu_vendor": tuple(CpuVendor),
    "os": tuple(OperatingSystem),
    "venue": tuple(Venue),
}
_ENUM_CODES = {
    name: {level.value: code for code, level in enumerate(levels)}
    for name, levels in _ENUM_LEVELS.items()
}


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


def parse_hosts(source) -> ParseResult:
    """Parse a host CSV from a path or text stream.

    Leading ``#`` comment lines are permitted before the header. A missing
    or unexpected header aborts the whole file; each bad data row is
    reported in ``rejects`` and skipped.
    """
    if hasattr(source, "read"):
        return _parse_stream(source)
    with open(source, "r", encoding="utf-8", newline="") as fh:
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

    # numbers and enum codes go straight into machine arrays, so no Python
    # object per value outlives its block
    columns = {
        name: [] if name in _TEXT_FIELDS
        else array("q" if name in INT_FIELDS or name in _ENUM_LEVELS else "d")
        for name in HOST_FIELDS
    }
    rejects: list[tuple[int, str]] = []
    for rows, lines in _row_blocks(reader):
        _parse_block(rows, lines, columns, rejects)
    for name, levels in _ENUM_LEVELS.items():
        columns[name] = Categorical(columns[name], levels)
    return ParseResult(HostTable(**columns), tuple(rejects))


def _row_blocks(reader):
    """The non-empty rows of ``reader``, ``ROW_BLOCK`` at a time, each block
    with the line number every row of it ends on."""
    rows, lines = [], []
    for row in reader:
        if row:
            rows.append(row)
            lines.append(reader.line_num)
            if len(rows) == ROW_BLOCK:
                yield rows, lines
                rows, lines = [], []
    if rows:
        yield rows, lines


def _parse_block(rows, lines, columns, rejects) -> None:
    """Append the accepted ``rows`` to ``columns`` and the rejected ones to
    ``rejects``, each with the first rule it breaks: the column count, then
    the labels, then the numbers in column order, then the host rules."""
    fits = np.fromiter(map(len, rows), np.intp, len(rows)) == len(HOST_CSV_COLUMNS)
    at = np.flatnonzero(fits).tolist()  # the index in ``rows`` of each shaped row
    shaped = rows if len(at) == len(rows) else [rows[i] for i in at]
    n = len(shaped)
    why = dict.fromkeys(np.flatnonzero(~fits).tolist(), "wrong column count")

    def reject(broken, message, texts=None) -> None:
        """Give each row of ``broken`` without an earlier reason this one."""
        for i in np.flatnonzero(broken).tolist():
            why.setdefault(at[i], message if texts is None else f"{message}: {texts[i]!r}")

    texts = dict(zip(HOST_FIELDS, zip(*shaped) if n else repeat((), len(HOST_FIELDS))))
    values = {name: texts[name] for name in _TEXT_FIELDS}
    for name, codes in _ENUM_CODES.items():
        values[name] = np.fromiter(map(codes.get, texts[name], repeat(-1)), np.intp, n)
        reject(values[name] < 0, f"unknown {name}", texts[name])
    for name, csv_name in zip(HOST_FIELDS, HOST_CSV_COLUMNS):
        if name in NUMERIC_FIELDS:
            values[name], broken = _number_column(texts[name], name in INT_FIELDS)
            reject(broken, f"invalid {csv_name}", texts[name])
    for broken, message in host_rules(values):
        reject(broken, message)

    rejects.extend((lines[i], why[i]) for i in sorted(why))
    keep = np.ones(len(rows), bool)
    keep[np.fromiter(why, np.intp, len(why))] = False
    keep = keep[at]
    whole = keep.all()
    for name in HOST_FIELDS:
        col = values[name]
        if isinstance(col, np.ndarray):
            columns[name].frombytes((col if whole else col[keep]).tobytes())
        else:
            columns[name].extend(col if whole else compress(col, keep))


def _number_column(texts, is_int: bool) -> tuple[np.ndarray, np.ndarray]:
    """``texts`` as an int64 or float64 column, and the mask of the cells that
    are not an int64 integer or a finite float."""
    dtype = np.int64 if is_int else np.float64
    convert = int if is_int else float
    try:
        col = np.fromiter(map(convert, texts), dtype, len(texts))
        broken = np.zeros(len(texts), bool)
    except (ValueError, OverflowError):  # a bad cell: convert one at a time
        col = np.zeros(len(texts), dtype)
        broken = np.ones(len(texts), bool)
        for i, text in enumerate(texts):
            try:
                col[i] = convert(text)
            except (ValueError, OverflowError):
                continue
            broken[i] = False
    if not is_int:
        broken |= ~np.isfinite(col)
    return col, broken


def _text_columns(records: HostTable, rows: slice, level_cells: dict) -> list:
    """Each column's ``rows`` as CSV cells: shortest round-trip floats, and
    labels looked up in ``level_cells``, each categorical column's levels
    written as cells."""
    out = []
    for name in HOST_FIELDS:
        col = getattr(records, name)
        if name in ID_FIELDS:
            out.append(csv_cells(col[rows]))
        elif name in CATEGORICAL_FIELDS:
            out.append(list(map(level_cells[name].__getitem__, col.codes[rows].tolist())))
        else:
            out.append(list(map(repr if col.dtype.kind == "f" else str, col[rows].tolist())))
    return out


_CSV_SPECIAL = (",", '"', "\r", "\n")


def csv_cells(texts):
    """``texts`` as CSV cells. A text holding a delimiter, quote or line break
    is quoted with its quotes doubled, a bare carriage return included on
    every Python version; any other text is its own cell."""
    joined = "".join(texts)
    if not any(c in joined for c in _CSV_SPECIAL):
        return texts
    return [
        '"' + t.replace('"', '""') + '"' if any(c in t for c in _CSV_SPECIAL) else t
        for t in texts
    ]


def serialize_hosts(records: HostTable, header_comment: str | None = None) -> str:
    """Render a host table to canonical CSV text."""
    buf = io.StringIO()
    if header_comment is not None:
        buf.write(f"# {header_comment}\n")
    buf.write(",".join(HOST_CSV_COLUMNS) + "\n")
    # once per call: a user id column may hold as many levels as rows
    level_cells = {
        name: csv_cells([getattr(v, "value", v) for v in getattr(records, name).levels])
        for name in CATEGORICAL_FIELDS
    }
    for start in range(0, len(records), ROW_BLOCK):
        cells = _text_columns(records, slice(start, start + ROW_BLOCK), level_cells)
        buf.write("\n".join(map(",".join, zip(*cells))))
        buf.write("\n")
    return buf.getvalue()


def write_hosts_csv(records: HostTable, path, header_comment=None) -> None:
    Path(path).write_text(serialize_hosts(records, header_comment), encoding="utf-8")


def breakdown(records: HostTable, key: str) -> list[BreakdownRow]:
    """Per-category host counts and means, largest group first, Total last.

    ``key`` is one of cpu_vendor, os, country, venue. The os key uses the
    flat per-version labels, one line per Windows version. Every sum adds
    its hosts one by one in table order, on every Python version:
    ``np.bincount`` adds each group's weights in row order, and ``row_sum``
    adds the Total row's the same way.
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
    rows.append(_row("Total", len(records), *map(row_sum, columns)))
    return rows


def hosts_per_user(records: HostTable) -> list[UserBucketRow]:
    """Ownership distribution: users and hosts per hosts-owned bucket."""
    from .population import USER_BUCKETS  # bucket boundaries shared with generation

    per_user = np.bincount(records.user_id.codes)
    per_user = per_user[per_user > 0]  # a level no row uses is no user
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
        # past 2**53 adding 1.0 rounds back to lo
        return [lo, max(lo + 1.0, math.nextafter(lo, math.inf))]
    edges = np.linspace(lo, hi, n_bins + 1)
    edges[-1] = np.nextafter(hi, math.inf)
    # a range a few ulps wide rounds several edges to one value; a set, as
    # the first np.unique call of a process costs megabytes of resident code
    return sorted(set(edges.tolist()))
