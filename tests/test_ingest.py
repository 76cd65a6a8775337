"""Host CSV parsing, serialization and summary statistics."""

import csv
import dataclasses
import io
import math
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volpool import ingest, presets
from volpool.hosts import (
    HOST_FIELDS,
    INT_FIELDS,
    NUMERIC_FIELDS,
    Categorical,
    CpuVendor,
    OperatingSystem,
    Venue,
    host_rules,
)
from volpool.ingest import (
    auto_edges,
    breakdown,
    histogram_of_values,
    hosts_per_user,
    parse_hosts,
    serialize_hosts,
    write_hosts_csv,
)
from volpool.population import assign_users, generate_pool

from conftest import host_rows, host_table

HEADER = ",".join(ingest.HOST_CSV_COLUMNS)

# Hand-written rows using shortest-repr floats so a parse/serialize cycle is
# byte-identical.
CANON_ROWS = [
    "a1,ua,1,1.5,2.0,1024.0,1.0,60.0,30.0,289.0,0.81,0.83,0.84,0.899,"
    "Intel,Windows XP,USA,Home,-18000,1104192000,1138752000,0.917",
    "b2,ub,2,1.737,1.25,512.0,2.5,40.0,10.5,64.0,1.0,1.0,1.0,1.0,"
    "AMD,Linux,Germany,None,3600,1110000000,1130000000,1.0",
    "c3,uc,1,0.755,0.5,256.0,0.25,8.0,0.0,33.6,0.5,0.25,0.75,0.9,"
    "SPARC,SunOS,Japan,Work,32400,1104192000,1104192000,0.05",
]
CANON_TEXT = HEADER + "\n" + "\n".join(CANON_ROWS) + "\n"


@pytest.fixture()
def canon_records():
    result = parse_hosts(io.StringIO(CANON_TEXT))
    assert result.rejects == ()
    return result.records


# -- parsing -----------------------------------------------------------------


def test_parse_canonical_rows(canon_records):
    assert len(canon_records) == 3
    a, b, c = host_rows(canon_records)
    assert a["host_id"] == "a1" and a["user_id"] == "ua"
    assert a["flops_per_cpu"] == 1.5 and a["throughput_down"] == 289.0
    assert a["cpu_vendor"] is CpuVendor.INTEL and a["os"] is OperatingSystem.WINDOWS_XP
    assert a["tz_offset"] == -18000 and a["created"] == 1104192000
    assert b["n_cpus"] == 2 and b["venue"] is Venue.NONE
    assert c["disk_free"] == 0.0 and c["resource_share"] == 0.05


def test_round_trip_is_byte_identical(canon_records):
    assert serialize_hosts(canon_records) == CANON_TEXT


def test_round_trip_through_file(tmp_path, canon_records):
    path = tmp_path / "hosts.csv"
    write_hosts_csv(canon_records, path, header_comment="fixture")
    text = path.read_text()
    assert text.startswith("# fixture\n")
    again = parse_hosts(path)
    assert again.records == canon_records
    assert again.rejects == ()


def test_round_trip_through_file_keeps_a_bare_carriage_return(tmp_path, canon_records):
    table = host_table(
        {**host, "host_id": f"a\rb{i}", "country": "J\rP"}
        for i, host in enumerate(host_rows(canon_records))
    )
    path = tmp_path / "hosts.csv"
    write_hosts_csv(table, path)
    again = parse_hosts(path)
    assert again.records == table
    assert again.rejects == ()


def test_round_trip_generated_pool():
    # numbered ids, grouped owners and relabelled string ids, compared both ways
    base = generate_pool(presets.reference_pool_spec(n_hosts=50, seed=4))
    for pool in (
        base,
        assign_users(base, presets.HOSTS_PER_USER_PCT, seed=4),
        dataclasses.replace(base, host_id=[f"v.{h}" for h in base.host_id],
                            user_id=[f"v.{u}" for u in base.user_id.tolist()]),
    ):
        result = parse_hosts(io.StringIO(serialize_hosts(pool)))
        assert result.records == pool
        assert pool == result.records
        assert result.rejects == ()


def test_comment_lines_before_header_skipped():
    text = "# one\n# two\n" + CANON_TEXT
    result = parse_hosts(io.StringIO(text))
    assert len(result.records) == 3


def test_header_only_file():
    result = parse_hosts(io.StringIO(HEADER + "\n"))
    assert len(result.records) == 0
    assert result.rejects == ()


def test_missing_header():
    with pytest.raises(ValueError, match="missing header row"):
        parse_hosts(io.StringIO(""))
    with pytest.raises(ValueError, match="missing header row"):
        parse_hosts(io.StringIO("# only a comment\n"))


def test_unknown_column():
    bad = HEADER.replace("swap_gb", "pagefile_gb")
    with pytest.raises(ValueError, match="unknown column: 'pagefile_gb'"):
        parse_hosts(io.StringIO(bad + "\n"))


def test_reordered_header_rejected():
    cols = list(ingest.HOST_CSV_COLUMNS)
    cols[0], cols[1] = cols[1], cols[0]
    with pytest.raises(ValueError, match="header does not match"):
        parse_hosts(io.StringIO(",".join(cols) + "\n"))


def row_with(**patches) -> str:
    """CANON row a with named CSV fields replaced."""
    fields = dict(zip(ingest.HOST_CSV_COLUMNS, CANON_ROWS[0].split(",")))
    fields.update({k: str(v) for k, v in patches.items()})
    return ",".join(fields[c] for c in ingest.HOST_CSV_COLUMNS)


@pytest.mark.parametrize(
    "patch, reason",
    [
        (dict(cpu_vendor="VIA"), "unknown cpu_vendor: 'VIA'"),
        (dict(os="BeOS"), "unknown os: 'BeOS'"),
        (dict(venue="Cafe"), "unknown venue: 'Cafe'"),
        (dict(ram_mb="soft"), "invalid ram_mb: 'soft'"),
        (dict(n_cpus="1.5"), "invalid n_cpus: '1.5'"),
        (dict(ram_mb="nan"), "invalid ram_mb: 'nan'"),
        (dict(disk_free_gb="61.0"), "disk_free exceeds disk_total"),
        (dict(on_fraction="1.2"), "on_fraction outside [0, 1]"),
        (dict(last_contact_utc="0"), "last_contact precedes created"),
    ],
)
def test_bad_rows_rejected_with_reason(patch, reason):
    text = HEADER + "\n" + row_with(**patch) + "\n"
    result = parse_hosts(io.StringIO(text))
    assert len(result.records) == 0
    assert len(result.rejects) == 1
    line, msg = result.rejects[0]
    assert line == 2
    assert msg == reason


def test_wrong_column_count_rejected():
    text = HEADER + "\n" + CANON_ROWS[0] + ",extra\n"
    result = parse_hosts(io.StringIO(text))
    assert result.rejects == ((2, "wrong column count"),)


def test_good_rows_survive_bad_neighbours():
    text = (
        HEADER + "\n"
        + CANON_ROWS[0] + "\n"
        + row_with(cpu_vendor="VIA") + "\n"
        + CANON_ROWS[2] + "\n"
    )
    result = parse_hosts(io.StringIO(text))
    assert result.records.host_id == ("a1", "c3")
    assert result.rejects == ((3, "unknown cpu_vendor: 'VIA'"),)


def test_serialized_row_uses_shortest_repr(canon_records):
    row = serialize_hosts(canon_records).splitlines()[1].split(",")
    assert row[3] == "1.5"
    assert row[2] == "1"
    assert row[18] == "-18000"


# -- block parse and joined write, against row-by-row references -----------------


def csv_line(cells) -> str:
    """``cells`` as one CSV line. ``csv.writer`` quotes the characters of its
    line terminator, so a bare ``\r`` is quoted on every Python version."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


LABELS = {"cpu_vendor": CpuVendor, "os": OperatingSystem, "venue": Venue}


def ref_number(csv_name, text, convert):
    """One numeric cell: an int64 integer or a finite float."""
    try:
        value = convert(text)
    except ValueError:
        raise ValueError(f"invalid {csv_name}: {text!r}") from None
    if not (-(2**63) <= value < 2**63 if convert is int else math.isfinite(value)):
        raise ValueError(f"invalid {csv_name}: {text!r}")
    return value


def ref_host(row):
    """One CSV row as a dict of field values, its rules checked in reason order:
    the column count, the labels, the numbers in column order, then
    ``host_rules`` on the row's values."""
    if len(row) != len(ingest.HOST_CSV_COLUMNS):
        raise ValueError("wrong column count")
    cells = dict(zip(HOST_FIELDS, row))
    for name, enum in LABELS.items():
        if cells[name] not in {member.value for member in enum}:
            raise ValueError(f"unknown {name}: {cells[name]!r}")
    values = {}
    for name, csv_name in zip(HOST_FIELDS, ingest.HOST_CSV_COLUMNS):
        if name in LABELS:
            values[name] = LABELS[name](cells[name])
        elif name in ("host_id", "user_id", "country"):
            values[name] = cells[name]
        else:
            values[name] = ref_number(csv_name, cells[name], int if name in INT_FIELDS else float)
    for broken, message in host_rules(values):
        if broken:
            raise ValueError(message)
    return values


def ref_parse_stream(fh):
    """The row-by-row parser: every row through ``ref_host``."""
    reader = csv.reader(fh)
    header = next(row for row in reader if not (row and row[0].startswith("#")))
    assert tuple(header) == ingest.HOST_CSV_COLUMNS
    records, rejects = [], []
    for row in reader:
        if not row:
            continue
        try:
            records.append(ref_host(row))
        except ValueError as err:
            rejects.append((reader.line_num, str(err)))
    return ingest.ParseResult(host_table(records), tuple(rejects))


COLUMN = {name: i for i, name in enumerate(ingest.HOST_CSV_COLUMNS)}
# every reject kind of test_bad_rows_rejected_with_reason, as (column, text)
BAD_CELLS = [
    ("cpu_vendor", "VIA"), ("os", "BeOS"), ("venue", "Cafe"), ("ram_mb", "soft"),
    ("n_cpus", "1.5"), ("ram_mb", "nan"), ("disk_free_gb", "61.0"), ("on_fraction", "1.2"),
    ("last_contact_utc", "0"),
]
# texts that Python's int or float read in a way worth checking
NUMBER_TEXTS = [
    "nan", "inf", "1e400", "1_0", " 2 ", "+3", "9223372036854775808", "-9223372036854775809",
]
IDS = ["a1", "x,y", "p\nq", "r\r\ns", "a\rb", 'say "hi"', ""]


@st.composite
def csv_rows(draw, ids=IDS):
    """A CANON row with up to three cells replaced, so that one row can break
    a label, a number and a host rule at once, an id of ``ids``, or a wrong
    width."""
    row = draw(st.sampled_from(CANON_ROWS)).split(",")
    row[0] = draw(st.sampled_from(ids))
    edits = st.sampled_from(BAD_CELLS) | st.tuples(
        st.sampled_from(ingest.HOST_CSV_COLUMNS), st.sampled_from(NUMBER_TEXTS)
    )
    for column, text in draw(st.lists(edits, max_size=3)):
        row[COLUMN[column]] = text
    width = draw(st.sampled_from([0, 0, 0, -1, 1]))
    return row[:width] if width < 0 else row + ["extra"] * width


@st.composite
def host_csv_texts(draw):
    rows = draw(st.lists(csv_rows() | st.none(), max_size=12))
    # None is a blank line, skipped but counted
    lines = ("\n" if row is None else csv_line(row) for row in rows)
    return csv_line(ingest.HOST_CSV_COLUMNS) + "".join(lines)


def check_block_parse_matches_row_parse(text, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "ROW_BLOCK", block)  # flagged rows cross block edges
        got = parse_hosts(io.StringIO(text))
    want = ref_parse_stream(io.StringIO(text))
    assert got.records == want.records
    assert got.rejects == want.rejects


@settings(max_examples=300, deadline=None)
@given(text=host_csv_texts(), block=st.integers(1, 3))
def test_block_parse_matches_row_parse(text, block):
    check_block_parse_matches_row_parse(text, block)


@settings(max_examples=300, deadline=None)
@given(text=host_csv_texts(), block=st.integers(1, 3))
def test_block_parse_matches_row_parse_with_crlf_line_endings(text, block):
    check_block_parse_matches_row_parse(text.replace("\n", "\r\n"), block)  # quoted ones too


# ids that keep a line plain, a "#" one included; and ids with a quote,
# carriage return or NUL, which only csv.reader reads
PLAIN_IDS = ["a1", "#a1", "", " a1 "]
SPECIAL_IDS = ['x"y', "a\rb", "n\x00l"]


@st.composite
def handover_texts(draw):
    """Plain lines, then maybe a line holding the text's first quote, carriage
    return or NUL, quoted or raw, then any lines. Blank and whitespace-only
    lines are among them, rows are 21, 22 or 23 cells wide, and the last line
    may lack its newline."""
    plain = st.sampled_from(["\n", " \n", "\t\n"]) | csv_rows(PLAIN_IDS).map(
        lambda row: ",".join(row) + "\n")
    lines = draw(st.lists(plain, max_size=8))
    special = csv_rows(SPECIAL_IDS)
    if draw(st.booleans()):
        lines.append(draw(special.map(csv_line) | special.map(lambda row: ",".join(row) + "\n")))
        lines += draw(st.lists(plain | csv_rows().map(csv_line), max_size=4))
    text = csv_line(ingest.HOST_CSV_COLUMNS) + "".join(lines)
    return text[:-1] if lines and draw(st.booleans()) else text


def outcome(parse, text):
    """What ``parse`` makes of ``text``: its result, or the csv error it raises."""
    try:
        result = parse(io.StringIO(text))
    except csv.Error as err:
        return str(err)
    return result.records, result.rejects


@settings(max_examples=300, deadline=None)
@given(text=handover_texts(), block=st.integers(1, 3))
def test_block_parse_hands_over_to_the_csv_reader(text, block):
    """Plain blocks are split on commas and the first block holding a quote,
    bare carriage return or NUL goes to csv.reader with the rest of the stream:
    the same rows and reject lines as csv.reader reading every row, and the
    same error on a raw carriage return."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "ROW_BLOCK", block)  # the first special line after a block edge
        got = outcome(parse_hosts, text)
    assert got == outcome(ref_parse_stream, text)


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("longest", ["line", "field"])
def test_block_parse_hands_a_long_line_to_the_csv_reader(block, longest):
    """A line longer than csv.reader's field limit goes to csv.reader after
    plain blocks: one with no field that long parses as it would, and a field
    over the limit raises csv.reader's error."""
    limit = csv.field_size_limit()
    if longest == "line":  # two fields of half the limit and more
        long_row = row_with(host_id="h" * (limit // 2 + 1), user_id="u" * (limit // 2 + 1))
    else:
        long_row = row_with(host_id="h" * (limit + 1))
    text = "\n".join([HEADER, *CANON_ROWS, row_with(cpu_vendor="VIA"), long_row, *CANON_ROWS]) + "\n"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "ROW_BLOCK", block)
        got = outcome(parse_hosts, text)
    want = outcome(ref_parse_stream, text)
    assert got == want
    if longest == "line":
        assert len(got[0]) == 7 and got[1] == ((5, "unknown cpu_vendor: 'VIA'"),)
    else:
        assert got == f"field larger than field limit ({limit})"


def test_block_parse_matches_row_parse_on_a_generated_pool():
    pool = generate_pool(presets.reference_pool_spec(n_hosts=5000, seed=5))  # two blocks
    lines = serialize_hosts(pool).splitlines()
    for i in range(2, len(lines), 37):
        lines[i] = lines[i].replace(",", ",-", 3 + i % 5)  # rows break different rules
    text = "\n".join(lines) + "\n"
    got, want = parse_hosts(io.StringIO(text)), ref_parse_stream(io.StringIO(text))
    assert len(got.rejects) > 50
    assert got.records == want.records
    assert got.rejects == want.rejects


def test_crlf_file_parses_like_its_lf_twin(tmp_path):
    """A host CSV with CRLF line endings, blank lines and malformed rows gives
    the table and the (line, reason) rejects of the same file with LF, every
    block split by hand."""
    pool = generate_pool(presets.reference_pool_spec(n_hosts=5000, seed=5))  # two blocks
    lines = serialize_hosts(pool).splitlines()
    for i in range(2, len(lines), 37):
        lines[i] = lines[i].replace(",", ",-", 3 + i % 5)  # rows break different rules
    for i in (3, 900, 4097, len(lines)):
        lines.insert(i, "")
    lines[50] += ",extra"
    lines[60] = lines[60].rsplit(",", 1)[0]
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes(("\n".join(lines) + "\n").encode())
    crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    want = parse_hosts(lf)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_parse_rows", None)  # csv.reader never takes over
        got = parse_hosts(crlf)
    assert len(got.records) > 4000 and len(want.rejects) > 50
    assert got.records == want.records
    assert got.rejects == want.rejects
    assert (51, "wrong column count") in got.rejects


def ref_serialize(records):
    """Every row through ``csv_line``, cells rendered one value at a time."""

    def cell(value):
        if isinstance(value, Enum):
            return value.value
        return repr(value) if isinstance(value, float) else str(value)

    rows = ([cell(host[name]) for name in HOST_FIELDS] for host in host_rows(records))
    return "".join(map(csv_line, [ingest.HOST_CSV_COLUMNS, *rows]))


CANON_HOSTS = host_rows(parse_hosts(io.StringIO(CANON_TEXT)).records)
TEXTS = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "é"]), max_size=4)


FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(st.tuples(TEXTS, TEXTS, TEXTS), max_size=7),
    block=st.integers(1, 3),
    mixed=st.lists(
        st.tuples(TEXTS, st.integers(), FLOATS, st.one_of(TEXTS, st.integers(), FLOATS)),
        max_size=7,
    ),
)
def test_serialize_matches_csv_writer(cells, block, mixed):
    table = host_table(
        {**CANON_HOSTS[i % 3], "host_id": h, "user_id": u, "country": c}
        for i, (h, u, c) in enumerate(cells)
    )
    header = ("text", "int", "float", "mixed")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "ROW_BLOCK", block)  # blocks with and without quoted cells
        got = serialize_hosts(table)
        # sequence columns, as the CLI's small tables are written
        written = "".join(ingest.csv_blocks(header, list(zip(*mixed))))
    assert got == ref_serialize(table)
    assert written == "".join(map(csv_line, [header, *mixed]))


def ref_number_cells(col):
    """An array's cells one value at a time: a float through ``repr``, any
    other number through ``str``."""
    return [repr(float(v)) if col.dtype.kind == "f" else str(v) for v in col]


def written_columns(header, columns):
    """The text ``csv_blocks`` writes for ``columns`` under ``header``, and the
    text of the per-cell reference."""
    got = "".join(ingest.csv_blocks(header, columns))
    want = "".join(map(csv_line, [header, *zip(*map(ref_number_cells, columns))]))
    return got, want


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1, 1.5, 1e16, -2.5e-300]
EDGE_INTS = [-(2**63), 2**63 - 1, -1, 0, 1, 10**18]


@settings(max_examples=300, deadline=None)
@given(
    block=st.integers(1, 5),
    n_rows=st.integers(0, 14),
    pool=st.integers(1, 8),
    data=st.data(),
)
def test_number_columns_match_per_cell_reference(block, n_rows, pool, data):
    # a pool of few values drawn over and over gives columns with as many
    # distinct values as the block or fewer, a bigger pool gives more
    floats = st.sampled_from(EDGE_FLOATS) | FLOATS
    ints = st.sampled_from(EDGE_INTS) | st.integers(-(2**63), 2**63 - 1)
    floats, ints = (data.draw(st.lists(v, min_size=pool, max_size=pool)) for v in (floats, ints))

    def column(values, dtype, length=n_rows):
        return np.array(data.draw(st.lists(st.sampled_from(values), min_size=length,
                                           max_size=length)), dtype)

    header = ("float", "int", "small", "bool", "strided")
    columns = [
        column(floats, np.float64),
        column(ints, np.int64),
        column(range(pool), np.uint8),
        column([False, True], bool),
        column(floats, np.float64, 2 * n_rows)[::2],  # a strided view
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "ROW_BLOCK", block)  # both the levels and the block path
        got, want = written_columns(header, columns)
    assert got == want


@pytest.mark.parametrize("block", [1, 2, 5])
@pytest.mark.parametrize("extra", [0, 1])
def test_number_columns_at_the_distinct_value_bound(block, extra):
    # exactly ROW_BLOCK distinct values take the levels path, one more the
    # block path, and both write every cell as the reference does
    distinct = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.5, 0.1][: block + extra]
    floats = np.array(distinct * 3)[::-1]
    ints = np.array([-(2**63), 2**63 - 1, -1, 0, 1, 7][: block + extra] * 3, np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "ROW_BLOCK", block)
        for col in (floats, ints):
            keys = col.view(np.int64)
            assert (ingest._distinct(keys) is None) == bool(extra)
        got, want = written_columns(("float", "int"), [floats, ints])
    assert got == want
    assert got.count("\n-0.0,") == 3


def test_number_columns_empty():
    columns = [np.array([], np.float64), np.array([], np.int64), np.array([], bool)]
    assert "".join(ingest.csv_blocks(("a", "b", "c"), columns)) == "a,b,c\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("block", [1, 4096])
def test_nonfinite_number_raises_before_any_text(bad, block):
    col = np.array([1.0, 2.0, bad, 1.0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "ROW_BLOCK", block)
        with pytest.raises(ValueError, match=f"^{bad!r} is not a finite number$"):
            ingest.csv_blocks(("ok", "bad"), [np.zeros(4), col])  # no line is asked for


@pytest.mark.parametrize(
    "columns, name, rows, n_rows",
    [
        ([np.array([1.0, 2.0, 3.0]), np.array([4, 5])], "b", 2, 3),  # a shorter later column
        ([np.array([1.0, 2.0]), np.array([4, 5, 6])], "b", 3, 2),  # a longer later column
        ([("x",), (1, 2), np.array([0.5])], "b", 2, 1),
        ([np.array([1.0]), np.array([2.0]), Categorical([0, 0], ("z",))], "c", 2, 1),
    ],
)
def test_columns_of_unequal_length_raise(columns, name, rows, n_rows):
    with pytest.raises(ValueError, match=f"^column '{name}' has {rows} rows, not {n_rows}$"):
        ingest.csv_blocks(("a", "b", "c"), columns)  # no line is asked for


def test_round_trip_of_all_distinct_floats_past_the_bound():
    # every float column holds 5,000 distinct values, more than ROW_BLOCK,
    # within the host rules
    n_hosts = 5000
    pool = generate_pool(presets.reference_pool_spec(n_hosts=n_hosts, seed=6))
    rng = np.random.default_rng(6)
    sizes = ("flops_per_cpu", "iops_per_cpu", "ram", "swap", "throughput_down")
    fractions = ("on_fraction", "connected_fraction", "active_fraction", "cpu_efficiency",
                 "resource_share")
    free = rng.lognormal(3.0, 2.0, n_hosts)
    table = dataclasses.replace(
        pool,
        disk_free=free,
        disk_total=free + rng.lognormal(3.0, 2.0, n_hosts),
        **{name: rng.lognormal(2.0, 3.0, n_hosts) for name in sizes},
        **{name: rng.random(n_hosts) for name in fractions},
    )
    for name in NUMERIC_FIELDS:
        col = getattr(table, name)
        if col.dtype.kind == "f":
            assert len(set(col.tolist())) > ingest.ROW_BLOCK
    text = serialize_hosts(table)
    result = parse_hosts(io.StringIO(text))
    assert result.rejects == ()
    assert serialize_hosts(result.records) == text
    assert text == ref_serialize(table)


# -- breakdowns ------------------------------------------------------------------


def test_breakdown_trio(canon_records):
    rows = breakdown(canon_records, "cpu_vendor")
    # 1 host each: alphabetical order, Total appended
    assert [r.key for r in rows] == ["AMD", "Intel", "SPARC", "Total"]
    by_key = {r.key: r for r in rows}
    assert by_key["AMD"].mean_flops == pytest.approx(2 * 1.737)
    assert by_key["Intel"].total_flops == pytest.approx(1.5)
    total = by_key["Total"]
    assert total.n_hosts == 3
    assert total.total_flops == pytest.approx(1.5 + 3.474 + 0.755)
    assert total.mean_disk_free == pytest.approx((30.0 + 10.5 + 0.0) / 3)
    assert total.mean_throughput == pytest.approx((289.0 + 64.0 + 33.6) / 3)


def test_breakdown_sorted_by_count(canon_records):
    hosts = host_rows(canon_records)
    rows = breakdown(host_table([*hosts, {**hosts[2], "host_id": "c4"}]), "cpu_vendor")
    assert [r.key for r in rows] == ["SPARC", "AMD", "Intel", "Total"]
    assert rows[0].n_hosts == 2


def test_breakdown_counts_sum_to_total(canon_records):
    for key in ingest.BREAKDOWN_KEYS:
        rows = breakdown(canon_records, key)
        assert rows[-1].key == "Total"
        assert sum(r.n_hosts for r in rows[:-1]) == rows[-1].n_hosts


def test_breakdown_venue_none_label(canon_records):
    rows = breakdown(canon_records, "venue")
    assert any(r.key == "None" and r.n_hosts == 1 for r in rows)


def test_breakdown_unknown_key(canon_records):
    with pytest.raises(ValueError, match="unknown breakdown key"):
        breakdown(canon_records, "ram")


def test_vendor_conditional_pool_breakdown():
    """Per-vendor pools keep their own speed scale after mixing."""
    pool = presets.vendor_conditional_pool(30000, seed=9)
    rows = {r.key: r for r in breakdown(pool, "cpu_vendor")}
    total_share = sum(n for n, _ in presets.VENDOR_TABLE.values())
    for vendor, (count, mean_gflops) in presets.VENDOR_TABLE.items():
        row = rows[vendor.value]
        expect_n = 30000 * count / total_share
        assert abs(row.n_hosts - expect_n) <= 3 * math.sqrt(expect_n) + 1
        # resampling noise around the per-vendor mean: cv 0.6 fixture shape
        sigma = 0.6 * mean_gflops / math.sqrt(max(row.n_hosts, 1))
        assert abs(row.mean_flops - mean_gflops) <= 3 * sigma + 1e-9
    assert rows["Total"].mean_flops == pytest.approx(1.613, abs=0.03)


# -- ownership -----------------------------------------------------------------


def owned(user_id, n):
    return [{"host_id": f"{user_id}.{i}", "user_id": user_id} for i in range(n)]


def test_hosts_per_user_buckets():
    records = (
        owned("s1", 1) + owned("s2", 1) + owned("s3", 1)
        + owned("m", 5)
        + owned("big", 1000)  # on the edge of the two largest buckets, in one of them
        + owned("farm", 2987) + owned("farm2", 1001)
    )
    rows = {r.bucket: r for r in hosts_per_user(host_table(records))}
    assert rows["1"].n_users == 3 and rows["1"].n_hosts == 3
    assert rows["2-10"].n_users == 1 and rows["2-10"].n_hosts == 5
    assert rows["11-100"].n_users == 0
    assert rows["101-1000"].n_users == 1 and rows["101-1000"].n_hosts == 1000
    assert rows["1000+"].n_users == 2 and rows["1000+"].n_hosts == 2987 + 1001
    assert sum(r.n_hosts for r in rows.values()) == len(records)
    assert sum(r.pct_hosts for r in rows.values()) == pytest.approx(100.0)
    assert rows["1000+"].pct_hosts == pytest.approx(100.0 * 3988 / len(records))


def test_hosts_per_user_skips_levels_no_row_uses():
    # four levels, two of them owning no host: two users
    owners = Categorical([1, 1, 1, 3], ["idle", "a", "idle2", "b"])
    table = dataclasses.replace(host_table(owned("a", 4)), user_id=owners)
    rows = {r.bucket: r for r in hosts_per_user(table)}
    assert rows["1"].n_users == 1 and rows["1"].n_hosts == 1
    assert rows["2-10"].n_users == 1 and rows["2-10"].n_hosts == 3
    assert sum(r.n_users for r in rows.values()) == 2


def test_hosts_per_user_empty():
    rows = hosts_per_user(host_table([]))
    assert all(r.n_users == 0 and r.pct_hosts == 0.0 for r in rows)


# -- histograms -------------------------------------------------------------------


def test_histogram_of_values_basic():
    h = histogram_of_values([0.0, 1.0, 2.5, 5.0, 5.0], [0.0, 2.0, 4.0, 5.0])
    assert h.counts == (2, 1, 0)
    assert h.overflow == 2  # the last edge is exclusive
    assert h.bin_edges == (0.0, 2.0, 4.0, 5.0)


def test_histogram_half_open_bins():
    h = histogram_of_values([2.0], [0.0, 2.0, 4.0])
    assert h.counts == (0, 1)  # inner edge belongs to the right bin
    below = histogram_of_values([-0.5], [0.0, 2.0])
    assert below.counts == (0,)
    assert below.overflow == 1


def test_histogram_empty_values():
    h = histogram_of_values([], [0.0, 1.0, 2.0])
    assert h.counts == (0, 0)
    assert h.overflow == 0


def test_histogram_edge_validation():
    with pytest.raises(ValueError, match="at least two bin edges"):
        histogram_of_values([1.0], [0.0])
    with pytest.raises(ValueError, match="strictly ascending"):
        histogram_of_values([1.0], [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="strictly ascending"):  # NaN compares false
        histogram_of_values([0.5, 1.5], [0.0, math.nan, 2.0])


@settings(max_examples=60)
@given(
    values=st.lists(st.floats(-50, 50), max_size=60),
    edges=st.lists(
        st.floats(-40, 40), min_size=2, max_size=8, unique=True
    ).map(sorted),
)
def test_histogram_conserves_samples(values, edges):
    h = histogram_of_values(values, edges)
    assert sum(h.counts) + h.overflow == len(values)
    assert len(h.counts) == len(edges) - 1


@settings(max_examples=30)
@given(
    values=st.lists(st.floats(0, 10), max_size=30),
    seed=st.integers(0, 100),
)
def test_histogram_permutation_invariant(values, seed):
    import random

    shuffled = list(values)
    random.Random(seed).shuffle(shuffled)
    edges = [0.0, 2.0, 5.0, 10.0]
    assert histogram_of_values(values, edges) == histogram_of_values(shuffled, edges)


def test_histogram_over_records(canon_records):
    h = histogram_of_values(canon_records.column("flops"), [0.0, 1.0, 2.0, 4.0])
    direct = histogram_of_values(
        [r["n_cpus"] * r["flops_per_cpu"] for r in host_rows(canon_records)],
        [0.0, 1.0, 2.0, 4.0],
    )
    assert h == direct
    assert h.counts == (1, 1, 1)  # 0.755, 1.5, 3.474


def test_histogram_named_field(canon_records):
    # a raw field, read by its column name
    h = histogram_of_values(canon_records.column("ram"), [0.0, 600.0, 2000.0])
    assert h.counts == (2, 1)


def test_auto_edges_cover_data():
    values = [3.0, 1.0, 14.0, 7.5]
    edges = auto_edges(values, n_bins=10)
    assert len(edges) == 11
    assert edges[0] == 1.0
    assert edges[-1] > 14.0  # nudged past the max so it lands in-range
    h = histogram_of_values(values, edges)
    assert h.overflow == 0
    assert sum(h.counts) == 4


def test_auto_edges_degenerate():
    assert auto_edges([], 5) == [0.0, 1.0]
    assert auto_edges([2.0, 2.0], 5) == [2.0, 3.0]
    assert auto_edges([1e17, 1e17], 5) == [1e17, 1e17 + 16]  # 1e17 + 1.0 == 1e17
    # ranges a few ulps wide, where linear edges round onto each other
    for values in ([1e17, 1e17], [1e17, 1e17 + 16], [0.0, 5e-324]):
        edges = auto_edges(values, 50)
        assert all(a < b for a, b in zip(edges, edges[1:])), edges
        assert edges[0] == min(values) and edges[-1] > max(values)
        h = histogram_of_values(values, edges)
        assert h.overflow == 0 and sum(h.counts) == len(values)
