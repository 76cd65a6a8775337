"""Host-record CSV interchange and descriptive statistics.

The CSV schema is fixed: one header row with exact column names, one host per
line, integer epoch timestamps, decimal units as named in the headers. A
malformed file (wrong header) fails as a whole; a malformed row becomes a
reject entry carrying its line number and the first rule it breaks, and
parsing continues. Serialization is canonical, so parse -> serialize is a
byte-level identity on files this module wrote.

Rows are parsed a block of ``ROW_BLOCK`` lines at a time, and each block
goes through one block parser. A block of plain lines (no quote, carriage
return or NUL, none longer than the csv module's field limit) is tokenized by
hand: each line's comma count gives its width, and the lines of the schema's
width are joined and split on commas once. The first block that is not plain
hands itself and the rest of the file to ``csv.reader``, the one tokenizer
of quoted cells. The block parser maps each enum column's labels to codes,
converts each numeric column in one pass and evaluates ``hosts.host_rules``
over the block's columns as masks. A rejected row is given the first rule it
breaks, in this order: the column count; ``cpu_vendor``, ``os``, ``venue``;
the numbers in column order; the host rules. The user ids and countries of
the accepted rows are encoded as each block lands, levels in order of first
appearance (``hosts._encode``, as for ``Categorical.of``), so a parse holds
one string per distinct label.

Host tables and the CLI's tables are all written by ``csv_blocks`` from
columns. It checks every column's length and every float before any text
exists. It turns each label column's levels into cells once, and likewise
the distinct values of a number column that holds at most ``ROW_BLOCK`` of
them, as a generated or parsed host column mostly does; a number column
with more is made into text a block at a time. It joins each block of
``ROW_BLOCK`` rows by hand, and quotes a cell holding a delimiter, quote or
line break by the rule of ``csv_cells``.

Breakdown tables, ownership buckets and half-open histograms live here too;
they read the columns of a host table regardless of where it came from.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, islice, repeat
from typing import Iterator, Sequence

import numpy as np

from .hosts import (
    CATEGORICAL_FIELDS,
    ENUM_FIELDS,
    HOST_FIELDS,
    INT_FIELDS,
    NUMERIC_FIELDS,
    ROW_BLOCK,
    Categorical,
    HostTable,
    Numbered,
    _encode,
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

# A block parse keeps the host ids as strings, encodes user ids and countries
# as their rows are accepted, levels in order of first appearance, and maps
# each enum column's labels to codes over all of the enum's members.
_TEXT_FIELDS = ("host_id", "user_id", "country")
_LABEL_FIELDS = ("user_id", "country")
_ENUM_LEVELS = {name: tuple(enum) for name, enum in ENUM_FIELDS.items()}
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


# The hosts-owned buckets of ``hosts_per_user``: label, fewest and most hosts
# a user of it owns. The summary leaves the last one open above;
# ``population.assign_users`` draws user sizes up to its most.
USER_BUCKETS = (
    ("1", 1, 1),
    ("2-10", 2, 10),
    ("11-100", 11, 100),
    ("101-1000", 101, 1000),
    ("1000+", 1001, 3000),
)


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
    lines = iter(fh)
    reader = csv.reader(lines)
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

    # numbers and label codes go straight into machine arrays, so of a block's
    # cells only the host ids and the labels new to their column outlive it
    columns = {
        name: [] if name == "host_id"
        else array("q" if name in INT_FIELDS or name in CATEGORICAL_FIELDS else "d")
        for name in HOST_FIELDS
    }
    labels = {name: {} for name in _LABEL_FIELDS}  # label -> code, in order of appearance
    rejects: list[tuple[int, str]] = []
    add = partial(_parse_block, columns=columns, labels=labels, rejects=rejects)
    _parse_lines(lines, reader.line_num, add)
    for name, levels in chain(_ENUM_LEVELS.items(), labels.items()):
        columns[name] = Categorical(columns[name], levels)
    return ParseResult(HostTable(**columns), tuple(rejects))


_BLANK_LINES = ("\n", "\r\n")


def _parse_lines(lines, line_no: int, add) -> None:
    """Pass the data rows of ``lines``, which follow line ``line_no``, to
    ``add`` up to ``ROW_BLOCK`` lines at a time, as ``_parse_block`` takes
    them. A blank line is no row.

    A block of plain lines, with no quote, NUL or carriage return other than
    one just before a newline, and none longer than the csv module's field
    limit, is split on commas as one string: CRLF line endings read like LF.
    From the first block that is not plain on, ``csv.reader`` reads the rest
    of the stream.
    """
    width = len(HOST_CSV_COLUMNS)
    limit = csv.field_size_limit()
    while block := list(islice(lines, ROW_BLOCK)):
        text = "".join(block)
        crlf = "\r" in text
        bare_cr = crlf and text.count("\r") != text.count("\r\n")
        if '"' in text or bare_cr or "\0" in text or max(map(len, block)) > limit:
            _parse_rows(csv.reader(chain(block, lines)), line_no, add)
            return
        line_nos = range(line_no + 1, line_no + 1 + len(block))
        commas = np.fromiter(map(str.count, block, repeat(",")), np.intp, len(block))
        misfits = np.flatnonzero(commas != width - 1).tolist()
        if misfits:
            fits = (commas == width - 1).tolist()
            text = "".join(compress(block, fits))
            line_nos = list(compress(line_nos, fits))
            misfits = [line_no + 1 + i for i in misfits if block[i] not in _BLANK_LINES]
        line_no += len(block)
        del block  # the lines are freed before their cells are made: a smaller peak
        if crlf:  # every \r ends a line, just before its \n
            text = text.replace("\r", "")
        # each row's last cell and the next row's first are split apart too
        add(text.replace("\n", ",").split(","), line_nos, misfits)


def _parse_rows(reader, line_no: int, add) -> None:
    """``_parse_lines`` over the rows of ``reader``, whose first line
    follows line ``line_no``."""
    width = len(HOST_CSV_COLUMNS)
    cells, line_nos, misfits = [], [], []
    for row in reader:
        if len(row) == width:
            cells += row
            line_nos.append(line_no + reader.line_num)
        elif row:
            misfits.append(line_no + reader.line_num)
        if len(line_nos) + len(misfits) == ROW_BLOCK:
            add(cells, line_nos, misfits)
            cells, line_nos, misfits = [], [], []
    if line_nos or misfits:
        add(cells, line_nos, misfits)


def _parse_block(cells, line_nos, misfits, *, columns, labels, rejects) -> None:
    """Append a block's accepted rows to ``columns`` and its rejected ones to
    ``rejects``, each with the first rule it breaks: the column count, then
    the labels, then the numbers in column order, then the host rules.

    Row ``i`` of the block is ``cells[i * w:(i + 1) * w]`` for the schema's
    ``w`` columns, and ends on line ``line_nos[i]``; ``misfits`` holds the
    line numbers of the block's rows of another width. A column of
    ``labels`` is appended as codes into its level dict.
    """
    n = len(line_nos)
    width = len(HOST_CSV_COLUMNS)
    why = dict.fromkeys(misfits, "wrong column count")  # line number -> reason
    keep = np.ones(n, bool)

    def reject(broken, message, texts=None) -> None:
        """Give each row of ``broken`` without an earlier reason this one."""
        keep[broken] = False
        for i in np.flatnonzero(broken).tolist():
            why.setdefault(line_nos[i], message if texts is None else f"{message}: {texts[i]!r}")

    texts = {name: cells[k:n * width:width] for k, name in enumerate(HOST_FIELDS)}
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

    rejects.extend(sorted(why.items()))
    whole = keep.all()
    for name in HOST_FIELDS:
        col = values[name]
        if isinstance(col, np.ndarray):
            columns[name].frombytes((col if whole else col[keep]).tobytes())
            continue
        kept = col if whole else list(compress(col, keep))
        if name in labels:
            _encode(kept, labels[name], columns[name])
        else:
            columns[name].extend(kept)


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


def csv_blocks(header: Sequence[str], columns: Sequence) -> Iterator[str]:
    """The CSV text of ``columns`` under ``header``: the header line, then
    the rows ``ROW_BLOCK`` at a time, each block one string of whole lines.

    A column is a numpy array, a ``Categorical`` or any other sequence. Every
    column is checked before any text is made: one of another length than
    the first, or a float that is NaN or infinite, raises ValueError naming
    it. A label column's levels, and a number column's distinct values when
    there are at most ``ROW_BLOCK`` of them, are each made into text once.
    """
    columns = list(columns)
    n_rows = len(columns[0]) if columns else 0
    for name, col in zip(header, columns):
        if len(col) != n_rows:
            raise ValueError(f"column {name!r} has {len(col)} rows, not {n_rows}")
    writers = list(map(_cell_writer, columns))
    return _csv_lines(header, writers, n_rows)


def _csv_lines(header, writers, n_rows: int) -> Iterator[str]:
    yield ",".join(csv_cells(list(header))) + "\n"
    for start in range(0, n_rows, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        yield "\n".join(map(",".join, zip(*(write(rows) for write in writers)))) + "\n"


def _cell_writer(col):
    """The function from a slice of rows to ``col``'s cells there: floats
    shortest round-trip, an enum label as its value, anything else through
    ``str``, each quoted by ``csv_cells``. Raises ValueError on a float of
    ``col`` that is NaN or infinite.

    A ``Categorical``'s levels become cells once, and so do the distinct
    values of a number array that holds at most ``ROW_BLOCK`` of them: each
    block's cells are then looked up by code, so the column never holds more
    texts than one block of cells. A number array with more distinct values
    is written a block at a time."""
    if isinstance(col, Categorical):
        # once per column: a user id column may hold as many levels as rows
        levels = csv_cells([getattr(v, "value", v) for v in col.levels])
        return lambda rows: list(map(levels.__getitem__, col.codes[rows].tolist()))
    if isinstance(col, np.ndarray):  # numbers need no quotes
        text = repr if col.dtype.kind == "f" else str
        if col.dtype.kind == "f":
            _check_finite(col[~np.isfinite(col)].tolist())
        # a float64 by its bits, which keep -0.0 apart from 0.0
        keys = col.view(np.int64) if col.dtype == np.float64 else col
        distinct = _distinct(keys) if keys.dtype.kind in "biu" else None
        if distinct is None:
            return lambda rows: list(map(text, col[rows].tolist()))
        levels = list(map(text, distinct.view(col.dtype).tolist()))
        return lambda rows: list(map(levels.__getitem__,
                                     np.searchsorted(distinct, keys[rows]).tolist()))
    if isinstance(col, Numbered) or set(map(type, col)) <= {str}:  # texts only
        return lambda rows: csv_cells(col[rows])
    _check_finite([v for v in col if isinstance(v, float) and not math.isfinite(v)])
    return lambda rows: csv_cells([repr(float(v)) if isinstance(v, float) else str(v)
                                   for v in col[rows]])


def _distinct(keys: np.ndarray):
    """The distinct values of ``keys`` in ascending order, or None when there
    are more than ``ROW_BLOCK`` of them."""
    keys = np.sort(keys)
    new = np.empty(len(keys), bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new] if np.count_nonzero(new) <= ROW_BLOCK else None


def _check_finite(nonfinite: list) -> None:
    if nonfinite:
        raise ValueError(f"{float(nonfinite[0])!r} is not a finite number")


def serialize_hosts(records: HostTable, header_comment: str | None = None) -> str:
    """Render a host table to canonical CSV text."""
    return "".join(_host_lines(records, header_comment))


def write_hosts_csv(records: HostTable, path, header_comment=None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_host_lines(records, header_comment))


def _host_lines(records: HostTable, header_comment):
    comment = [] if header_comment is None else [f"# {header_comment}\n"]
    return chain(comment, csv_blocks(HOST_CSV_COLUMNS, [getattr(records, n) for n in HOST_FIELDS]))


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


def histogram_of_values(values, bin_edges: Sequence[float]) -> Histogram:
    """Counts of ``values`` over the half-open bins between ``bin_edges``.

    Each value's bin is first guessed by arithmetic, as if the edges were
    evenly spaced, and the guess is kept only where the real edges confirm
    it: ``e[g] <= x < e[g + 1]``. The values that fail the check (off-grid
    edges, a value on an edge that rounded the wrong way, NaN, infinities,
    anything out of range) are binned by a binary search over the edges. So
    any strictly ascending edges give exact counts, and the near-even edges
    of ``auto_edges`` and ``lifetime_stats`` seldom need the search.
    """
    edges = [float(e) for e in bin_edges]
    if len(edges) < 2:
        raise ValueError("need at least two bin edges")
    if any(not a < b for a, b in zip(edges, edges[1:])):  # NaN fails too
        raise ValueError("bin edges not strictly ascending")
    arr = np.asarray(values, dtype=float)
    e = np.asarray(edges)
    n_bins = len(edges) - 1
    # an infinite edge or a span past the float range makes a guess NaN or
    # inf; fmax and fmin send it to some bin, which the check then judges
    with np.errstate(over="ignore", invalid="ignore"):
        guess = arr - edges[0]
        guess *= n_bins / (edges[-1] - edges[0])
    # in place: a column's temporaries cost as much as the arithmetic
    np.fmax(guess, 0.0, out=guess)  # fmax sends NaN to 0
    idx = np.fmin(guess, n_bins - 1, out=guess).astype(np.intp)
    # the edges around each guess, read into the guess's buffer in turn
    hit = np.take(e, idx, out=guess, mode="clip") <= arr
    hit &= arr < np.take(e[1:], idx, out=guess, mode="clip")
    miss = np.flatnonzero(~hit)
    # bin n_bins is the overflow tally: below the first edge, at or past the
    # last, or NaN
    idx[miss] = (np.searchsorted(e, arr[miss], side="right") - 1) % (n_bins + 1)
    counts = np.bincount(idx, minlength=n_bins + 1).tolist()
    return Histogram(tuple(edges), tuple(counts[:-1]), counts[-1])


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
    # past the largest float this is inf, which a writer reports; numpy's
    # nextafter would warn of the overflow first
    edges[-1] = math.nextafter(hi, math.inf)
    # a range a few ulps wide rounds several edges to one value; a set, as
    # the first np.unique call of a process costs megabytes of resident code
    return sorted(set(edges.tolist()))
