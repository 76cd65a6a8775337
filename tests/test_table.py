"""The columnar host table: construction, validation, enum labels, and a
reference oracle holding every columnar pool function to the per-host loop
it replaced, bit for bit; only the rate curve's totals, summed in another
order, are held to a stated float bound."""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from volpool import capacity, ingest, population, presets
from volpool.capacity import CapacityFactors
from volpool.cli import HIST_FIELDS
from volpool.hosts import (
    ENUM_FIELDS,
    HOST_FIELDS,
    Categorical,
    CpuVendor,
    HostTable,
    OperatingSystem,
    Venue,
)
from volpool.units import MB_PER_MBPS_HOUR, SECONDS_PER_DAY, kbps_to_bytes_per_s, kbps_to_mbps

from conftest import flat_spec, host_rows, host_table


def small_pool(n=6, seed=2):
    return population.generate_pool(presets.reference_pool_spec(n_hosts=n, seed=seed))


# -- construction and validation ---------------------------------------------------

# (field, bad value, message) triples, one per host rule, in the order the
# rules run; each case is named by its field and bad value
BROKEN = (
    [("n_cpus", 0, "n_cpus must be at least 1")]
    + [(name, bad, message)
       for name in ("flops_per_cpu", "iops_per_cpu", "ram", "swap",
                    "disk_total", "disk_free", "throughput_down")
       for bad, message in ((-1.0, f"{name} is negative"),
                            (math.inf, f"{name} is not finite"),
                            (math.nan, f"{name} is not finite"))]
    + [(name, bad, f"{name} outside [0, 1]")
       for name in ("on_fraction", "connected_fraction", "active_fraction",
                    "cpu_efficiency", "resource_share")
       for bad in (1.5, -0.1, math.nan)]
    + [("disk_free", 41.0, "disk_free exceeds disk_total"),
       ("last_contact", -1, "last_contact precedes created")]
)


@pytest.mark.parametrize("name, bad, message", BROKEN,
                         ids=[f"{name}-{bad}" for name, bad, _ in BROKEN])
def test_table_rejects_each_record_rule_with_its_message(name, bad, message):
    good = host_table([{}, {"host_id": "h1"}])
    column = getattr(good, name).tolist()
    column[1] = bad
    with pytest.raises(ValueError) as err:
        dataclasses.replace(good, **{name: column})
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        host_table([{name: bad}])
    assert str(err.value) == message


def test_table_checks_rules_in_record_order():
    # one host breaks ram, another n_cpus: the n_cpus rule comes first, as
    # it does for a single host breaking both
    good = host_table([{}, {"host_id": "h1"}])
    with pytest.raises(ValueError, match="^n_cpus must be at least 1$"):
        dataclasses.replace(good, ram=[-1.0, 512.0], n_cpus=[1, 0])
    with pytest.raises(ValueError, match="^n_cpus must be at least 1$"):
        host_table([{"ram": -1.0, "n_cpus": 0}])


def test_table_rejects_ragged_columns():
    good = host_table([{}, {"host_id": "h1"}])
    with pytest.raises(ValueError, match="differ in length"):
        dataclasses.replace(good, ram=[512.0])
    with pytest.raises(ValueError, match="code outside its levels"):
        dataclasses.replace(good, venue=Categorical([0, 1], [Venue.HOME]))


def test_table_rejects_an_unknown_label_with_the_parsers_message():
    good = host_table([{}, {"host_id": "h1"}])
    with pytest.raises(ValueError) as err:
        dataclasses.replace(good, cpu_vendor=["Intel", "Bogus"])
    assert str(err.value) == "unknown cpu_vendor: 'Bogus'"
    lines = ingest.serialize_hosts(good).splitlines()
    parsed = ingest.parse_hosts(io.StringIO(lines[0] + "\n" + lines[1].replace("Intel", "Bogus")))
    assert parsed.rejects == ((2, str(err.value)),)
    for name, labels, message in (
        ("venue", [1, 2], "unknown venue: 1"),
        ("os", Categorical([0, 0], [CpuVendor.OTHER]), "unknown os: <CpuVendor.OTHER: 'Other'>"),
    ):
        with pytest.raises(ValueError) as err:
            dataclasses.replace(good, **{name: labels})
        assert str(err.value) == message


def test_labels_given_as_values_equal_labels_given_as_members():
    pool = small_pool(40, seed=3)
    spelled = dataclasses.replace(pool, **{
        name: [member.value for member in getattr(pool, name).tolist()]
        for name in ENUM_FIELDS
    })
    assert spelled == pool and pool == spelled
    assert ingest.parse_hosts(io.StringIO(ingest.serialize_hosts(spelled))).records == spelled
    # a value and its member are one level
    mixed = host_table([{"venue": "Home"}, {"venue": Venue.HOME}, {"venue": "Work"}])
    assert mixed.venue.levels == (Venue.HOME, Venue.WORK)
    assert mixed.venue.codes.tolist() == [0, 0, 1]


def test_table_is_immutable():
    table = small_pool()
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.ram = table.swap
    with pytest.raises(ValueError, match="read-only"):
        table.ram[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        table.os.codes[0] = 0


def test_equality_is_exact_and_ignores_category_codes():
    table = small_pool(20, seed=1)
    assert table == small_pool(20, seed=1)
    assert table != small_pool(20, seed=2)
    assert host_table(host_rows(table)) == table
    flipped = Categorical(
        len(table.venue.levels) - 1 - table.venue.codes, table.venue.levels[::-1]
    )
    assert dataclasses.replace(table, venue=flipped) == table
    nudged = table.ram.copy()
    nudged[3] = np.nextafter(nudged[3], math.inf)
    assert dataclasses.replace(table, ram=nudged) != table


def test_empty_pool_is_an_empty_table():
    empty = population.generate_pool(flat_spec(0, seed=1))
    assert isinstance(empty, HostTable)
    assert len(empty) == 0
    assert empty == host_table([])


def test_parse_then_serialize_is_a_byte_identity():
    pool = population.assign_users(small_pool(300, seed=8), presets.HOSTS_PER_USER_PCT, seed=8)
    text = ingest.serialize_hosts(pool, "fixture")
    parsed = ingest.parse_hosts(io.StringIO(text))
    assert parsed.records == pool
    assert ingest.serialize_hosts(parsed.records, "fixture") == text


def test_parse_rejects_integers_outside_int64():
    row = ",".join(ingest.serialize_hosts(small_pool(1)).splitlines()[1].split(",")[:19]
                   + [str(2**63), str(2**63), "1.0"])
    result = ingest.parse_hosts(io.StringIO(",".join(ingest.HOST_CSV_COLUMNS) + "\n" + row + "\n"))
    assert len(result.records) == 0
    assert result.rejects == ((2, f"invalid created_utc: '{2**63}'"),)


# -- reference oracle ---------------------------------------------------------------
# The per-host loops the columnar functions replaced, kept as the reference,
# each reading hosts as the dicts of Python values ``host_rows`` gives. Every
# columnar result must equal its loop's result bit for bit, so results are
# compared by repr, which also tells 0 from 0.0.


def _getter(selector):
    derived = {"flops": lambda host: host["n_cpus"] * host["flops_per_cpu"],
               "iops": lambda host: host["n_cpus"] * host["iops_per_cpu"]}
    return derived.get(selector, lambda host: host[selector])


def left_to_right(values) -> float:
    """The sum of ``values`` added one at a time, in order, from 0.0, which
    the builtin ``sum`` of Python 3.12+ does not do: it compensates."""
    total = 0.0
    for value in values:
        total += value
    return total


def ref_histogram_of_values(values, bin_edges):
    edges = [float(e) for e in bin_edges]
    arr = np.asarray(list(values), dtype=float)
    e = np.asarray(edges)
    if arr.size == 0:
        return ingest.Histogram(tuple(edges), (0,) * (len(edges) - 1), 0)
    idx = np.searchsorted(e, arr, side="right") - 1
    in_range = (arr >= e[0]) & (idx <= len(edges) - 2)
    counts = np.bincount(idx[in_range], minlength=len(edges) - 1)
    return ingest.Histogram(
        tuple(edges), tuple(int(c) for c in counts), int(arr.size - in_range.sum())
    )


def ref_auto_edges(values, n_bins=50):
    vals = list(values)
    if not vals:
        return [0.0, 1.0]
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return [float(lo), max(float(lo) + 1.0, math.nextafter(lo, math.inf))]
    edges = np.linspace(lo, hi, n_bins + 1)
    edges[-1] = np.nextafter(hi, math.inf)
    return sorted({float(e) for e in edges})


def ref_breakdown(records, key):
    groups = {}
    for r in records:
        attr = r[key]
        label = attr.value if hasattr(attr, "value") else str(attr)
        groups.setdefault(label, []).append(r)

    def _row(label, members):
        n = len(members)
        flops = left_to_right(r["n_cpus"] * r["flops_per_cpu"] for r in members)
        return ingest.BreakdownRow(
            key=label,
            n_hosts=n,
            mean_flops=flops / n if n else 0.0,
            total_flops=flops,
            mean_disk_free=left_to_right(r["disk_free"] for r in members) / n if n else 0.0,
            mean_throughput=left_to_right(r["throughput_down"] for r in members) / n if n else 0.0,
        )

    rows = [_row(label, members) for label, members in groups.items()]
    rows.sort(key=lambda row: (-row.n_hosts, row.key))
    rows.append(_row("Total", records))
    return rows


def ref_hosts_per_user(records):
    per_user = {}
    for r in records:
        per_user[r["user_id"]] = per_user.get(r["user_id"], 0) + 1
    rows = []
    for bucket, lo, _hi in ingest.USER_BUCKETS:
        hi = math.inf if bucket.endswith("+") else _hi
        users = [c for c in per_user.values() if lo <= c <= hi]
        n_hosts = sum(users)
        rows.append(ingest.UserBucketRow(
            bucket=bucket, n_users=len(users), n_hosts=n_hosts,
            pct_hosts=100.0 * n_hosts / len(records) if records else 0.0,
        ))
    return rows


def ref_lifetime_stats(records, now):
    lifetimes = []
    for r in records:
        if (now - r["last_contact"]) / SECONDS_PER_DAY >= population.CENSOR_DAYS:
            lifetimes.append((r["last_contact"] - r["created"]) / SECONDS_PER_DAY)
    if not lifetimes:  # every host censored: no mean, one empty bin
        return population.LifetimeStats(
            mean_days=None, n_hosts=0,
            histogram=ref_histogram_of_values([], [0.0, population.CENSOR_DAYS]),
        )
    top = max(lifetimes)
    n_bins = max(1, math.ceil((top + 1e-9) / population.CENSOR_DAYS))
    bin_edges = [population.CENSOR_DAYS * i for i in range(n_bins + 1)]
    hist = ref_histogram_of_values(lifetimes, bin_edges)
    return population.LifetimeStats(
        mean_days=float(np.mean(lifetimes)), n_hosts=len(lifetimes), histogram=hist
    )


def ref_rate_curve(pool, grid, factors, per_host_factors):
    n = len(pool)
    speed = np.asarray([h["n_cpus"] * h["flops_per_cpu"] for h in pool], dtype=float)
    link_hourly = np.asarray(
        [MB_PER_MBPS_HOUR * kbps_to_mbps(h["throughput_down"]) for h in pool], dtype=float
    )
    # each host's crossover rate as documented; a host with no speed never saturates
    crossover = [link / s if s > 0 else math.inf
                 for link, s in zip(link_hourly.tolist(), speed.tolist())]
    if per_host_factors:
        util = np.asarray(
            [h["cpu_efficiency"] * h["on_fraction"] * h["active_fraction"] * h["resource_share"]
             for h in pool],
            dtype=float,
        ) / factors.redundancy
    else:
        util = capacity.utilization_product(factors)
    totals, unsaturated = [], []
    for r in grid:
        if r == 0:
            avail = speed
        else:
            avail = np.minimum(speed, link_hourly / r)
        totals.append(float(np.sum(avail * util)))
        unsaturated.append(sum(c >= r for c in crossover) / n if n else 1.0)
    return totals, unsaturated


def assert_curve_matches(table, rows, grid, per_host_factors):
    """The rate curve against ``ref_rate_curve``: unsaturated fractions bit
    for bit, totals within (n + 9) eps S, S the hosts' discounted speeds
    summed. The two sum the same terms in different orders and roundings;
    CHANGES.md derives the bound."""
    got_totals, got_unsat = capacity.compute_vs_rate_curve(table, grid, FACTORS, per_host_factors)
    want_totals, want_unsat = ref_rate_curve(rows, grid, FACTORS, per_host_factors)
    assert len(got_totals) == len(got_unsat) == len(grid)
    assert repr(got_unsat.tolist()) == repr(want_unsat)
    scale = ref_rate_curve(rows, [0.0], FACTORS, per_host_factors)[0][0]
    bound = (len(rows) + 9) * np.finfo(float).eps * scale
    for g, w in zip(got_totals.tolist(), want_totals):
        assert abs(g - w) <= bound, (g, w, bound)


def ref_conditional_aggregate(pool, resource_a, resource_b, thresholds):
    get_a, get_b = _getter(resource_a), _getter(resource_b)
    a_vals = np.asarray([get_a(h) for h in pool], dtype=float)
    b_vals = np.asarray([get_b(h) for h in pool], dtype=float)
    return [(float(t), float(a_vals[b_vals >= float(t)].sum()) if len(pool) else 0.0)
            for t in thresholds]


# a size or fraction is any float in its range or one of a few listed values
_SIZE_FLOATS = st.floats(0.0, 1e4, allow_nan=False, allow_subnormal=False)
_SIZE_PICKS = (0.0, 0.1, 0.2, 0.3, 1e-9, 1234.5678)
_SIZES = _SIZE_FLOATS | st.sampled_from(_SIZE_PICKS)
_FRACTION_FLOATS = st.floats(0.0, 1.0)
_FRACTION_PICKS = (0.0, 0.1, 0.3, 1.0)
COUNTRIES = ("USA", "Germany", "Japan", "None", "Other")

# each label column's levels; a pool uses some leading run of a shuffle of them
# and leaves the rest as empty groups
LABEL_LEVELS = {"cpu_vendor": list(CpuVendor), "os": list(OperatingSystem),
                "country": list(COUNTRIES), "venue": list(Venue)}
_SIZE_FIELDS = ("flops_per_cpu", "iops_per_cpu", "ram", "swap", "disk_total",
                "throughput_down")
# disk_free is drawn as a share of disk_total, with the fractions
_FRACTION_FIELDS = ("on_fraction", "connected_fraction", "active_fraction",
                    "cpu_efficiency", "resource_share", "disk_free")


def picks(floats, digits: int, listed) -> list:
    """One row's ``floats``, each replaced by ``listed[d - 1]`` where its
    digit ``d`` of ``digits``, written in base ``len(listed) + 1``, is not 0."""
    row = []
    for value in floats:
        digits, d = divmod(digits, len(listed) + 1)
        row.append(listed[d - 1] if d else value)
    return row


def floats_and_picks(fields, floats, listed):
    """A float per field, and the digits that choose which become listed values."""
    return st.tuples(st.tuples(*[floats] * len(fields)),
                     st.integers(0, (len(listed) + 1) ** len(fields) - 1))


@st.composite
def pools(draw):
    """A table of up to 30 hosts, drawn as one list of row tuples. A list per
    column, each size or fraction a choice between a float and a listed
    value, cost hypothesis several times the test's own work; here one
    integer per row and kind picks the listed values."""
    n = draw(st.integers(0, 30))
    n_users = draw(st.integers(1, max(n, 1)))  # multi-host users
    levels = {name: draw(st.permutations(labels)) for name, labels in LABEL_LEVELS.items()}
    used = [draw(st.integers(1, len(labels))) for labels in levels.values()]
    row = st.tuples(
        st.integers(0, n_users - 1),
        st.integers(1, 8),
        floats_and_picks(_SIZE_FIELDS, _SIZE_FLOATS, _SIZE_PICKS),
        floats_and_picks(_FRACTION_FIELDS, _FRACTION_FLOATS, _FRACTION_PICKS),
        st.tuples(*[st.integers(0, k - 1) for k in used]),
        st.integers(-43_200, 50_400),
        st.integers(0, 400 * 86_400),
        st.integers(0, 200 * 86_400),  # last_contact after created
    )
    hosts = []
    for user, n_cpus, sizes, fractions, codes, tz, created, after in draw(
        st.lists(row, min_size=n, max_size=n)
    ):
        host = dict(zip(_SIZE_FIELDS, picks(*sizes, _SIZE_PICKS)))
        host.update(zip(_FRACTION_FIELDS, picks(*fractions, _FRACTION_PICKS)))
        host["disk_free"] *= host["disk_total"]
        host.update(zip(LABEL_LEVELS, codes))
        host.update(host_id=f"h{len(hosts)}", user_id=f"u{user}", n_cpus=n_cpus,
                    tz_offset=tz, created=created, last_contact=created + after)
        hosts.append(host)
    columns = {name: [host[name] for host in hosts] for name in HOST_FIELDS}
    for name in LABEL_LEVELS:
        columns[name] = Categorical(columns[name], levels[name])
    return HostTable(**columns)


FACTORS = CapacityFactors(
    arrival_rate=3645.99, mean_lifetime=91.0, mean_ncpus=1.0, mean_flops_per_cpu=1.613,
    cpu_efficiency=0.899, on_fraction=0.81, active_fraction=0.84, redundancy=3.0,
    resource_share=0.917, connected_fraction=0.83,
)


@settings(max_examples=150, deadline=None)
@given(
    table=pools(),
    silence_days=st.floats(-50.0, 400.0),
    grid=st.lists(st.floats(1e-3, 2000.0) | st.just(0.0), min_size=1, max_size=5,
                  unique=True).map(sorted),
    thresholds=st.lists(_SIZES, max_size=4),
)
def test_columnar_functions_match_the_record_loops(table, silence_days, grid, thresholds):
    rows = host_rows(table)
    for key in ingest.BREAKDOWN_KEYS:
        assert repr(ingest.breakdown(table, key)) == repr(ref_breakdown(rows, key)), key
    assert repr(ingest.hosts_per_user(table)) == repr(ref_hosts_per_user(rows))

    # the stats command's histograms, values taken the way it takes them
    for stem, selector in HIST_FIELDS:
        values = table.column(selector)
        got = ingest.histogram_of_values(values, ingest.auto_edges(values))
        old = [_getter(selector)(r) for r in rows]
        assert repr(got) == repr(ref_histogram_of_values(old, ref_auto_edges(old))), stem
        got = ingest.histogram_of_values(values, [0.0, 1.0, 50.0])
        assert repr(got) == repr(ref_histogram_of_values(old, [0.0, 1.0, 50.0])), stem

    # all censored, none censored and between, from how long the pool is silent
    now = (max(table.last_contact.tolist(), default=0)) + silence_days * SECONDS_PER_DAY
    assert repr(population.lifetime_stats(table, now)) == repr(ref_lifetime_stats(rows, now))

    assert repr(capacity.hardware_flops(table)) == repr(
        left_to_right(h["n_cpus"] * h["flops_per_cpu"] for h in rows))
    assert repr(capacity.storage_potential(table)) == repr(
        left_to_right(h["disk_free"] for h in rows))
    network = left_to_right(kbps_to_bytes_per_s(h["throughput_down"]) for h in rows)
    assert repr(capacity.access_rate(table, FACTORS)) == repr(
        network * FACTORS.on_fraction * FACTORS.connected_fraction)
    for a, b in (("flops", "disk_free"), ("iops", "n_cpus"), ("ram", "tz_offset")):
        assert repr(capacity.conditional_aggregate(table, a, b, thresholds)) == repr(
            ref_conditional_aggregate(rows, a, b, thresholds))
    for per_host in (False, True):
        assert_curve_matches(table, rows, grid, per_host)


@st.composite
def binned_values(draw):
    """Bin edges, any strictly ascending floats or near-even ones, and values
    that include the edges themselves, NaN and the infinities."""
    if draw(st.booleans()):
        edges = sorted(draw(st.lists(st.floats(allow_nan=False), min_size=2, max_size=8,
                                     unique=True)))
    else:  # as auto_edges and lifetime_stats make them, rounding and all
        lo = draw(st.floats(-1e6, 1e6))
        width = draw(st.floats(1e-9, 1e6))
        edges = sorted({lo + width * i for i in range(draw(st.integers(1, 60)) + 1)})
    values = draw(st.lists(st.floats() | st.sampled_from(edges), max_size=40))
    return values, edges


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(case=binned_values())
@example(case=([-1e308, -1.0, 0.0, 1e308, math.nan, math.inf], [-1e308, 1e308]))  # span overflows
@example(case=([-math.inf, 0.0, 2.0, math.inf, math.nan], [-math.inf, 0.0, 1.0, math.inf]))
@example(case=([0.0, 1.0, 5e-324, 1e-323], [0.0, 5e-324, 1e-323]))  # bins one ulp wide
def test_histogram_matches_the_binary_search(case):
    values, edges = case
    assert repr(ingest.histogram_of_values(values, edges)) == repr(
        ref_histogram_of_values(values, edges))


def test_oracle_covers_a_generated_pool_with_owners():
    """The same comparison on a reference pool grouped into multi-host users."""
    table = population.assign_users(small_pool(3000, seed=4), presets.HOSTS_PER_USER_PCT, seed=4)
    rows = host_rows(table)
    for key in ingest.BREAKDOWN_KEYS:
        assert repr(ingest.breakdown(table, key)) == repr(ref_breakdown(rows, key))
    assert repr(ingest.hosts_per_user(table)) == repr(ref_hosts_per_user(rows))
    now = max(r["last_contact"] for r in rows) + 30.0 * SECONDS_PER_DAY
    assert repr(population.lifetime_stats(table, now)) == repr(ref_lifetime_stats(rows, now))
    assert_curve_matches(table, rows, [0.0, 50.0, 450.0], True)
