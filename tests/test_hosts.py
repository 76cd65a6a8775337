"""Host model: the table's checks on one row, rows, and field selectors."""

import dataclasses

import pytest

from volpool.hosts import (
    HOST_FIELDS,
    CpuVendor,
    HostRecord,
    OperatingSystem,
    HostTable,
    Numbered,
    Venue,
)


def make_host(**overrides) -> HostRecord:
    base = dict(
        host_id="h0",
        user_id="u0",
        n_cpus=1,
        flops_per_cpu=1.0,
        iops_per_cpu=2.0,
        ram=512.0,
        swap=1.0,
        disk_total=40.0,
        disk_free=10.0,
        throughput_down=1000.0,
        on_fraction=0.8,
        connected_fraction=0.9,
        active_fraction=0.7,
        cpu_efficiency=0.9,
        cpu_vendor=CpuVendor.INTEL,
        os=OperatingSystem.LINUX,
        country="USA",
        venue=Venue.HOME,
        tz_offset=0,
        created=0,
        last_contact=100,
        resource_share=1.0,
    )
    base.update(overrides)
    return HostRecord(**base)


def one_row_table(**overrides) -> HostTable:
    """A table of the one host ``make_host`` builds: the table checks it."""
    return HostTable.from_records([make_host(**overrides)])


# -- record validation ------------------------------------------------------------


def test_record_validation_messages():
    with pytest.raises(ValueError, match="n_cpus"):
        one_row_table(n_cpus=0)
    with pytest.raises(ValueError, match="ram is negative"):
        one_row_table(ram=-1.0)
    with pytest.raises(ValueError, match="on_fraction outside"):
        one_row_table(on_fraction=1.5)
    with pytest.raises(ValueError, match="disk_free exceeds disk_total"):
        one_row_table(disk_free=50.0, disk_total=40.0)
    with pytest.raises(ValueError, match="last_contact precedes created"):
        one_row_table(created=10, last_contact=5)


def test_record_is_immutable():
    h = make_host()
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.ram = 1.0


def test_record_fields_are_the_table_fields():
    assert [f.name for f in dataclasses.fields(HostRecord)] == list(HOST_FIELDS)
    assert [f.name for f in dataclasses.fields(HostTable)] == list(HOST_FIELDS)
    assert HostRecord.__module__ == "volpool.hosts"


# -- field selectors ---------------------------------------------------------------


def test_column_resolution():
    table = one_row_table(n_cpus=2, flops_per_cpu=1.5, iops_per_cpu=1.0)
    assert table.column("ram").tolist() == [512.0]
    assert table.column("flops").tolist() == [3.0]
    assert table.column("iops").tolist() == [2.0]
    with pytest.raises(ValueError, match="unknown host field selector"):
        table.column("speed")


# -- numbered ids -------------------------------------------------------------------


def test_numbered_indexes_like_a_range():
    ids = Numbered("h", 5)
    assert len(ids) == 5 and list(ids) == ["h0", "h1", "h2", "h3", "h4"]
    assert ids[0] == "h0" and ids[4] == "h4"
    assert ids[-1] == "h4" and ids[-5] == "h0"
    assert isinstance(ids[1:4], Numbered)
    assert ids[1:4] == ("h1", "h2", "h3") and ids[::-2] == ["h4", "h2", "h0"]
    assert ids[3:1] == () and ids[7:] == []
    for out in (5, -6):
        with pytest.raises(IndexError):
            ids[out]


def test_numbered_equals_the_strings_it_spells():
    ids = Numbered("u", 3)
    assert ids == ("u0", "u1", "u2") and ("u0", "u1", "u2") == ids
    assert ["u0", "u1", "u2"] == ids and ids == Numbered("u", range(3))
    assert Numbered("u1", 1) == Numbered("u", range(10, 11))  # "u10" both ways
    assert ids != ("u0", "u1") and ids != ("u0", "u1", "x2") and ids != Numbered("h", 3)
    assert ids != "u0u1u2"
    table = HostTable.from_records([make_host(), make_host(host_id="h1")])
    assert dataclasses.replace(table, host_id=Numbered("h", 2)) == table
