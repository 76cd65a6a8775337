"""End-to-end command line behaviour, run in-process through cli.main."""

import argparse
import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from volpool import capacity as cap
from volpool import cli
from volpool import ingest as ing
from volpool import population as pop
from volpool import presets
from volpool.cli import main
from volpool.sim import SIMULATE_OPTIONS

COMMENT_RE = re.compile(r"^# seed=\d+ config=[0-9a-f]{12}$")

# constant generators: two identical 1 GFLOPS always-on hosts et al.
FLAT_FIELDS = {
    "n_cpus": 1, "flops_per_cpu": 1.0, "iops_per_cpu": 1.0, "ram": 1024.0,
    "swap": 1.0, "disk_total": 50.0, "disk_free": 20.0, "throughput_down": 1000.0,
    "on_fraction": 1.0, "connected_fraction": 1.0, "active_fraction": 1.0,
    "cpu_efficiency": 1.0, "tz_offset": 0.0, "created": 0.0, "last_contact": 0.0,
    "resource_share": 1.0,
}


def write_config(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    """Return (comment, header, rows) for a CLI-written CSV, read as csv.reader
    needs it: a quoted cell keeps its carriage returns and newlines."""
    with open(path, encoding="utf-8", newline="") as fh:
        comment = fh.readline().rstrip("\n")
        rows = list(csv.reader(fh))
    assert COMMENT_RE.match(comment), comment
    return comment, rows[0], rows[1:]


def read_json(path):
    doc = json.loads(path.read_text())
    assert set(doc["meta"]) == {"seed", "config_sha256"}
    return doc


# -- ingest ---------------------------------------------------------------------


@pytest.fixture()
def hosts_csv(tmp_path):
    pool = pop.generate_pool(presets.reference_pool_spec(n_hosts=20, seed=4))
    path = tmp_path / "hosts.csv"
    text = ing.serialize_hosts(pool)
    text += text.splitlines()[1].replace("Intel", "VIA") + "\n"  # one bad row
    path.write_text(text)
    return path, pool


def test_ingest_accepts_and_rejects(tmp_path, capsys, hosts_csv):
    path, pool = hosts_csv
    cfg = write_config(tmp_path, "ingest.json", {"input": str(path)})
    out = tmp_path / "out"
    assert main(["ingest", "--config", cfg, "--out", str(out)]) == 0
    assert "ingest: 20 accepted, 1 rejected" in capsys.readouterr().out

    parsed = ing.parse_hosts(out / "hosts.parsed.csv")
    assert parsed.records == pool
    comment, header, rows = read_csv(out / "rejects.csv")
    assert header == ["line", "reason"]
    assert rows == [["22", "unknown cpu_vendor: 'VIA'"]]


def test_ingest_all_rows_bad(tmp_path, capsys, hosts_csv):
    path, _ = hosts_csv
    text = path.read_text().splitlines()
    bad_only = "\n".join([text[0], text[-1]]) + "\n"  # header + the VIA row
    bad_path = tmp_path / "bad.csv"
    bad_path.write_text(bad_only)
    cfg = write_config(tmp_path, "ingest.json", {"input": str(bad_path)})
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "no rows accepted" in capsys.readouterr().err


def test_ingest_header_problem(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("# nothing here\n")
    cfg = write_config(tmp_path, "ingest.json", {"input": str(src)})
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "missing header row" in capsys.readouterr().err


def test_ingest_unreadable_input(tmp_path, capsys):
    cfg = write_config(tmp_path, "i.json", {"input": str(tmp_path / "absent.csv")})
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "cannot read input" in capsys.readouterr().err


def test_ingest_field_over_the_csv_limit(tmp_path, capsys, hosts_csv):
    path, _ = hosts_csv
    header, row = path.read_text().splitlines()[:2]
    path.write_text(f"{header}\n{'x' * 200_000}{row[row.index(','):]}\n")
    cfg = write_config(tmp_path, "ingest.json", {"input": str(path)})
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "field larger than field limit" in capsys.readouterr().err


def test_host_csvs_are_utf8_under_an_ascii_locale(tmp_path):
    """Host CSVs are read and written as UTF-8 whatever the locale says."""
    pool = pop.generate_pool(presets.reference_pool_spec(n_hosts=3, seed=4))
    pool = dataclasses.replace(pool, country=["Côte d'Ivoire"] * len(pool))
    src = tmp_path / "hosts.csv"
    src.write_text(ing.serialize_hosts(pool), encoding="utf-8")
    cfg = write_config(tmp_path, "ingest.json", {"input": str(src)})
    out = tmp_path / "out"
    written = tmp_path / "written.csv"
    env = {**os.environ, "LC_ALL": "C",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUTF8", None)
    ascii_python = [sys.executable, "-X", "utf8=0"]
    done = subprocess.run(
        ascii_python + ["-m", "volpool.cli", "ingest", "--config", cfg, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert ing.parse_hosts(out / "hosts.parsed.csv").records == pool
    script = ("import sys; from volpool import ingest; "
              "ingest.write_hosts_csv(ingest.parse_hosts(sys.argv[1]).records, sys.argv[2])")
    done = subprocess.run(ascii_python + ["-c", script, str(src), str(written)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert written.read_bytes() == src.read_bytes()


def test_ingest_requires_input_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "i.json", {})
    assert main(["ingest", "--config", cfg]) == 2
    assert "needs an 'input' path" in capsys.readouterr().err


# -- stats -----------------------------------------------------------------------

STATS_FILES = (
    "breakdown_vendor.csv", "breakdown_os.csv", "breakdown_country.csv",
    "breakdown_venue.csv", "hosts_per_user.csv",
    "hist_flops.csv", "hist_iops.csv", "hist_ram.csv", "hist_swap.csv",
    "hist_throughput.csv", "hist_disk_total.csv", "hist_disk_free.csv",
    "hist_tz.csv", "hist_lifetime.csv", "stats.json",
)


def test_stats_writes_summary_set(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "stats.json.cfg", {"seed": 11, "pool": {"n_hosts": 300}}
    )
    out = tmp_path / "out"
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 0
    assert "300 hosts summarized" in capsys.readouterr().out
    for name in STATS_FILES:
        assert (out / name).exists(), name

    doc = read_json(out / "stats.json")
    assert doc["meta"]["seed"] == 11
    assert doc["n_hosts"] == 300
    assert doc["hardware_gflops"] > 0

    _, header, rows = read_csv(out / "breakdown_vendor.csv")
    assert header[0] == "cpu_vendor"
    assert rows[-1][0] == "Total" and rows[-1][1] == "300"
    assert sum(int(r[1]) for r in rows[:-1]) == 300

    _, header, rows = read_csv(out / "hosts_per_user.csv")
    assert header == ["bucket", "n_users", "n_hosts", "pct_hosts"]
    assert sum(float(r[3]) for r in rows) == pytest.approx(100.0)

    _, header, rows = read_csv(out / "hist_flops.csv")
    assert header == ["bin_start", "bin_end", "count"]
    assert rows[-1][0] == "overflow"
    assert sum(int(r[2]) for r in rows) == 300  # every host lands in some bin


def test_stats_empty_pool_is_an_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {"pool": {"n_hosts": 0}})
    assert main(["stats", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "empty record set" in capsys.readouterr().err


def test_stats_reads_host_csv(tmp_path, capsys, hosts_csv):
    path, pool = hosts_csv
    cfg = write_config(tmp_path, "s.json", {"input": str(path)})
    out = tmp_path / "out"
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(out / "stats.json")
    assert doc["n_hosts"] == 20
    assert doc["hardware_gflops"] == pytest.approx(cap.hardware_flops(pool))


def test_stats_leaves_recent_hosts_out_of_lifetimes(tmp_path):
    """Lifetimes count only hosts silent for 30 days before the latest contact."""
    day = 86400
    last = [100 * day] * 10 + [170 * day, 171 * day] + [200 * day] * 8
    pool = pop.generate_pool(presets.reference_pool_spec(n_hosts=20, seed=4))
    pool = dataclasses.replace(pool, created=[0] * 20, last_contact=last)
    path = tmp_path / "hosts.csv"
    path.write_text(ing.serialize_hosts(pool))
    cfg = write_config(tmp_path, "s.json", {"input": str(path)})
    out = tmp_path / "out"
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(out / "stats.json")
    assert doc["lifetime_n_hosts"] == 11  # the day-170 host is silent for exactly 30 days
    assert doc["lifetime_mean_days"] == pytest.approx((10 * 100 + 170) / 11)


def test_stats_on_an_all_recent_pool_has_no_lifetimes(tmp_path, capsys):
    """Every flat host was last seen at the latest contact: none has ended."""
    cfg = write_config(tmp_path, "s.json", {"pool": {"n_hosts": 5, "fields": dict(FLAT_FIELDS)}})
    out = tmp_path / "out"
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(out / "stats.json")
    assert doc["lifetime_mean_days"] is None and doc["lifetime_n_hosts"] == 0
    _, header, rows = read_csv(out / "hist_lifetime.csv")
    assert header == ["bin_start", "bin_end", "count"]
    assert rows == [["0.0", "30.0", "0"], ["overflow", "", "0"]]


def test_output_cells_keep_a_bare_carriage_return(tmp_path):
    """A label holding a bare \\r is quoted in every CLI CSV, on every Python."""
    pool = pop.generate_pool(presets.reference_pool_spec(n_hosts=3, seed=4))
    path = tmp_path / "hosts.csv"
    path.write_text(ing.serialize_hosts(dataclasses.replace(pool, country=["a\rb"] * 3)))
    cfg = write_config(tmp_path, "s.json", {"input": str(path)})
    out = tmp_path / "out"
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "breakdown_country.csv")
    assert [row[:2] for row in rows] == [["a\rb", "3"], ["Total", "3"]]


def test_stats_on_equal_huge_values_exits_0(tmp_path, capsys):
    """Every host with ram 1e17 MB, where 1e17 + 1.0 rounds back to 1e17."""
    pool = pop.generate_pool(presets.reference_pool_spec(n_hosts=20, seed=4))
    path = tmp_path / "hosts.csv"
    path.write_text(ing.serialize_hosts(dataclasses.replace(pool, ram=[1e17] * 20)))
    cfg = write_config(tmp_path, "s.json", {"input": str(path)})
    out = tmp_path / "out"
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "hist_ram.csv")
    assert rows == [["1e+17", "1.0000000000000002e+17", "20"], ["overflow", "", "0"]]


@pytest.mark.parametrize("source, count", [("config", "1.73611e+12"), ("csv", "3.85802e+07")])
def test_stats_refuses_too_many_lifetime_bins(tmp_path, capsys, source, count):
    """A lifetime of 1.7e12 or 3.9e7 thirty-day bins, whose edges once ran
    out of memory: exit 2 before the lifetime histogram is built."""
    if source == "config":
        payload = {"seed": 3, "pool": {"n_hosts": 20, "fields": {
            "created": 0, "last_contact": {"samples": [4.5e18, 9e18]}}}}
    else:
        # one host gone after 1e14 s, and one heard from 30 days later
        pool = pop.generate_pool(presets.reference_pool_spec(n_hosts=2, seed=4))
        path = tmp_path / "hosts.csv"
        path.write_text(ing.serialize_hosts(dataclasses.replace(
            pool, created=[0, 0], last_contact=[10**14, 10**14 + 30 * 86400])))
        payload = {"input": str(path)}
    cfg = write_config(tmp_path, "s.json", payload)
    out = tmp_path / "out"
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"volpool: lifetime bins of {count} exceeds the limit of 1000000\n"
    assert not (out / "hist_lifetime.csv").exists()


# -- capacity --------------------------------------------------------------------


def test_capacity_reference_numbers(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["capacity", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("capacity: ")
    assert "GFLOPS sustained" in printed

    doc = read_json(out / "capacity.json")
    factors = presets.reference_capacity_factors()
    assert doc["potential_gflops"] == pytest.approx(cap.potential_flops(factors))
    assert doc["potential_gflops"] == pytest.approx(
        doc["hardware_gflops"] * doc["utilization"]
    )
    assert doc["factors"]["redundancy"] == factors.redundancy
    assert doc["meta"]["seed"] == 0


def test_capacity_redundancy_override(tmp_path):
    base = tmp_path / "a"
    main(["capacity", "--out", str(base)])
    cfg = write_config(tmp_path, "c.json", {"factors": {"redundancy": 1.0}})
    solo = tmp_path / "b"
    assert main(["capacity", "--config", cfg, "--out", str(solo)]) == 0
    doubled = read_json(solo / "capacity.json")["potential_gflops"]
    halved = read_json(base / "capacity.json")["potential_gflops"]
    assert doubled == pytest.approx(2.0 * halved)


def test_capacity_csv_format(tmp_path):
    out = tmp_path / "out"
    assert main(["capacity", "--out", str(out), "--format", "csv"]) == 0
    assert not (out / "capacity.json").exists()
    _, header, rows = read_csv(out / "capacity.csv")
    assert header == ["name", "value"]
    table = dict(rows)
    assert float(table["potential_gflops"]) == pytest.approx(
        float(table["hardware_gflops"]) * float(table["utilization"])
    )


def test_capacity_unknown_factor(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"factors": {"overclock": 2.0}})
    assert main(["capacity", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown capacity factor" in capsys.readouterr().err


def test_capacity_seed_flag_lands_in_meta(tmp_path):
    out = tmp_path / "out"
    assert main(["capacity", "--out", str(out), "--seed", "7"]) == 0
    assert read_json(out / "capacity.json")["meta"]["seed"] == 7


# -- sweep -----------------------------------------------------------------------


def test_sweep_explicit_rates(tmp_path, capsys):
    payload = {"seed": 3, "pool": {"n_hosts": 150}, "rates": [0.0, 450.0, 900.0]}
    cfg = write_config(tmp_path, "sweep.json", payload)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert "3 grid points over 150 hosts" in capsys.readouterr().out

    _, header, rows = read_csv(out / "rate_curve.csv")
    assert header == ["data_rate", "total_gflops", "unsaturated_fraction"]
    rates = [float(r[0]) for r in rows]
    totals = [float(r[1]) for r in rows]
    unsat = [float(r[2]) for r in rows]
    assert rates == [0.0, 450.0, 900.0]

    # at no data demand the curve starts at the full utilization product
    spec = pop.pool_spec_from_config(dict(payload["pool"]), default_seed=3)
    pool = pop.generate_pool(spec)
    factors = cap.factors_from_config({})
    assert totals[0] == pytest.approx(
        cap.utilization_product(factors) * cap.hardware_flops(pool), rel=1e-12
    )
    assert unsat[0] == 1.0
    assert totals == sorted(totals, reverse=True)
    assert 0.0 <= unsat[2] <= unsat[1] < 1.0


def test_sweep_grid_spec(tmp_path):
    cfg = write_config(
        tmp_path, "sweep.json",
        {"pool": {"n_hosts": 30}, "rates": {"start": 0.0, "stop": 100.0, "n": 5}},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "rate_curve.csv")
    assert [float(r[0]) for r in rows] == [0.0, 25.0, 50.0, 75.0, 100.0]


def test_sweep_bad_grids(tmp_path, capsys):
    cfg = write_config(tmp_path, "a.json", {"rates": {"step": 5}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown rates option" in capsys.readouterr().err
    cfg = write_config(
        tmp_path, "b.json", {"rates": {"start": 0.0, "stop": 10.0, "log": True}}
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "log-spaced rates need a positive start" in capsys.readouterr().err
    cfg = write_config(
        tmp_path, "c.json", {"rates": {"start": 1.0, "stop": 0.0, "log": True}}
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "log-spaced rates need a positive start and stop" in capsys.readouterr().err


# -- simulate --------------------------------------------------------------------


def simulate_config(**overrides):
    cfg = {
        "duration_days": 5.0,
        "seed": 5,
        "churn": {"arrival_rate": 0.0, "lifetime_mean_days": 1e9},
        "pool": {"n_hosts": 2, "fields": dict(FLAT_FIELDS)},
        "task": {
            "flops_per_task": 5e11,
            "input_size_mb": 0.1,
            "deadline_days": 7.0,
        },
        "min_quorum": 1,
        "max_replicas": 1,
    }
    cfg.update(overrides)
    return cfg


def test_simulate_dedicated_pair(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", simulate_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("simulate: ")
    assert "GFLOPS sustained" in printed

    rep = read_json(out / "sim_report.json")
    # two dedicated 1 GFLOPS hosts, minus the work still in flight at the end
    assert 1.98 <= rep["achieved_gflops"] <= 2.0 + 1e-9
    assert rep["bytes_downloaded"] == pytest.approx(
        rep["downloads_completed"] * 0.1
    )
    assert rep["seed"] == 5

    _, header, rows = read_csv(out / "timeline.csv")
    assert header[0] == "time_days"
    assert len(rows) == 20  # 6-hour cadence over 5 days
    assert float(rows[-1][0]) == 5.0

    comp = read_json(out / "analytic_comparison.json")
    assert comp["valid"] is False
    assert comp["reason"] == "run too short for steady-state comparison"


def test_simulate_steady_state_comparison(tmp_path):
    cfg = write_config(
        tmp_path, "sim.json",
        simulate_config(
            duration_days=24.0,
            seed=29,
            churn={"arrival_rate": 40.0, "lifetime_mean_days": 1.2},
            pool={"n_hosts": 48, "fields": dict(FLAT_FIELDS)},
            task={
                "flops_per_task": 5e11,
                "input_size_mb": 0.5,
                "deadline_days": 1.0,
            },
        ),
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    comp = read_json(out / "analytic_comparison.json")
    assert comp["valid"] is True
    assert comp["predicted"] == pytest.approx(48.0)
    assert comp["relative_error"] < 0.05


def test_simulate_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "sim.json", simulate_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("sim_report.json", "timeline.csv", "analytic_comparison.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("cap_mbps", [None, 1.0], ids=["uncapped", "capped"])
def test_simulate_link_near_the_float_range(tmp_path, cap_mbps):
    """A 1e308 Kbps link overflows to an infinite one without a warning and
    runs as a 1e300 Kbps link does: both feed any download at once."""
    outputs = []
    for kbps in (1e308, 1e300):
        payload = {"duration_days": 2, "seed": 1,
                   "pool": {"n_hosts": 5, "fields": {"throughput_down": kbps}}}
        if cap_mbps is not None:
            payload["server_egress_cap_mbps"] = cap_mbps
        cfg = write_config(tmp_path, f"sim_{kbps}.json", payload)
        out = tmp_path / f"out_{kbps}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        # the comment line and "meta" name the config, which differs
        outputs.append((
            {k: v for k, v in read_json(out / "sim_report.json").items() if k != "meta"},
            (out / "timeline.csv").read_text().split("\n", 1)[1],
        ))
    assert outputs[0] == outputs[1]


def test_simulate_lifetime_near_the_float_range(tmp_path):
    """A 1e305-day mean lifetime overflows departures to inf without a warning
    and runs as a 1e300-day one does: no host departs within the run."""
    reports = []
    for days in (1e305, 1e300):
        payload = {"duration_days": 2, "pool": {"n_hosts": 3},
                   "churn": {"lifetime_mean_days": days}}
        cfg = write_config(tmp_path, f"sim_{days}.json", payload)
        out = tmp_path / f"out_{days}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        # "meta" names the config, which differs
        reports.append({k: v for k, v in read_json(out / "sim_report.json").items()
                        if k != "meta"})
    assert reports[0] == reports[1]


@pytest.mark.parametrize("payload", [
    {"pool": {"n_hosts": 3, "fields": {"on_fraction": {"samples": [1e-310, 0.9]}}}},
    {"pool": {"n_hosts": 3}, "mean_dwell_hours": 1e305},
], ids=["tiny-on-fraction", "huge-dwell"])
def test_simulate_infinite_mean_sojourn(tmp_path, payload):
    """A sojourn whose mean overflows, down at an on fraction of 1e-310 or
    either way at a 1e305-hour dwell, never ends: no warning, and every other
    process's trace and the report stay finite."""
    cfg = write_config(tmp_path, "sim.json", {"duration_days": 2, **payload})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = read_json(out / "sim_report.json")
    numbers = [v for k, v in report.items() if k != "meta"]
    assert all(abs(v) < float("inf") for v in numbers)  # NaN fails too
    assert 0.0 < report["observed_on_fraction"] < 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stats_largest_float_sample(tmp_path, capsys):
    """The last auto edge past the largest float is inf: no overflow warning,
    and the histogram that holds it is refused by its writer."""
    payload = {"pool": {"n_hosts": 100,
                        "fields": {"ram": {"samples": [0, 1.7976931348623157e308]}}}}
    cfg = write_config(tmp_path, "stats.json", payload)
    out = tmp_path / "out"
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"volpool: cannot write {out / 'hist_ram.csv'}: inf is not a finite number\n"


def test_sweep_links_near_the_float_range(tmp_path):
    """The link prefix sum of 100 1e308 Kbps hosts overflows without a warning;
    no rate reads the infinite prefix, so the curve written is finite."""
    payload = {"pool": {"n_hosts": 100, "fields": {"throughput_down": 1e308}}}
    cfg = write_config(tmp_path, "sweep.json", payload)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "rate_curve.csv")
    cells = [float(cell) for row in rows for cell in row]
    assert rows and all(abs(c) < float("inf") for c in cells)


def test_timeline_cells_are_plain_numbers(tmp_path):
    """A churned reference-pool run: every timeline cell parses as a float."""
    payload = {"duration_days": 1.0, "seed": 3, "pool": {"n_hosts": 30},
               "churn": {"arrival_rate": 20.0, "lifetime_mean_days": 0.5}}
    cfg = write_config(tmp_path, "sim.json", payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "timeline.csv")
    assert len(rows) == 4 and "raw_gflops" in header
    for row in rows:
        assert [float(cell) for cell in row]  # no np.float64(...) text


def test_simulate_seed_flag_changes_run(tmp_path):
    cfg = write_config(
        tmp_path, "sim.json",
        simulate_config(churn={"arrival_rate": 2.0, "lifetime_mean_days": 2.0}),
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
    a = read_json(out1 / "sim_report.json")
    b = read_json(out2 / "sim_report.json")
    assert b["meta"]["seed"] == 99 and b["seed"] == 99
    assert a["seed"] == 5
    assert a["achieved_gflops"] != b["achieved_gflops"]


# a steady-state run whose pool fields are overridden by the test
def steady_config(fields):
    return {"duration_days": 25, "min_quorum": 1,
            "pool": {"n_hosts": 20, "fields": fields},
            "churn": {"arrival_rate": 20, "lifetime_mean_days": 1}}


def simulate_outputs(tmp_path, name, payload) -> dict:
    """Exit 0, then each of the three simulate outputs without its meta."""
    cfg = write_config(tmp_path, f"{name}.json", payload)
    out = tmp_path / name
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "timeline.csv")
    docs = {f: read_json(out / f) for f in ("sim_report.json", "analytic_comparison.json")}
    for doc in docs.values():
        del doc["meta"]
    return {"timeline.csv": (header, rows), **docs}


@pytest.mark.parametrize("fields, held", [
    pytest.param({"n_cpus": 0.2}, {"n_cpus": 1}, id="fractional-cpus"),
    pytest.param({"n_cpus": -1}, {"n_cpus": 1}, id="negative-cpus"),
    pytest.param({"on_fraction": {"samples": [0.3, 1.7]}},
                 {"on_fraction": {"samples": [0.3, 1.0]}}, id="on-fraction-above-1"),
])
def test_prediction_reads_the_values_the_hosts_hold(tmp_path, fields, held):
    """A pool field that generate_pool rounds or clamps runs and predicts
    exactly as the values its hosts hold."""
    got = simulate_outputs(tmp_path, "given", steady_config(fields))
    want = simulate_outputs(tmp_path, "held", steady_config(held))
    assert got == want
    comp = got["analytic_comparison.json"]
    assert comp["valid"] is True and comp["relative_error"] < 0.2


@pytest.mark.parametrize("fields", [
    pytest.param({"n_cpus": -1}, id="negative-cpus"),
    pytest.param({"flops_per_cpu": -2.0}, id="negative-speed"),
])
def test_negative_pool_means_run(tmp_path, fields):
    """Negative means are floored: the hosts hold 1 CPU or zero speed, and a
    one-day run has no valid comparison."""
    payload = {"duration_days": 1, "pool": {"n_hosts": 5, "fields": fields}}
    comp = simulate_outputs(tmp_path, "neg", payload)["analytic_comparison.json"]
    assert comp == {"valid": False, "reason": "run too short for steady-state comparison"}


def test_simulate_rejects_unknown_option(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", simulate_config(walltime=3))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "bad simulate config" in capsys.readouterr().err


# -- shared grammar and failure modes ------------------------------------------------


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
    assert "volpool:" in capsys.readouterr().err


def test_missing_required_config(capsys):
    assert main(["ingest"]) == 2
    assert "volpool:" in capsys.readouterr().err


def test_format_only_on_capacity(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {"pool": {"n_hosts": 5}})
    out = tmp_path / "o"
    assert main(["stats", "--config", cfg, "--out", str(out), "--format", "csv"]) == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_missing(tmp_path, capsys):
    assert main(["stats", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_not_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["stats", "--config", str(path)]) == 2
    assert "config is not valid JSON" in capsys.readouterr().err


def test_config_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    assert main(["stats", "--config", str(path)]) == 2
    assert "config root must be a JSON object" in capsys.readouterr().err


def test_stats_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "s.json", {"seed": 2, "pool": {"n_hosts": 80}})
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["stats", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["stats", "--config", cfg, "--out", str(out2)]) == 0
    for name in STATS_FILES:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# -- the config boundary -----------------------------------------------------------

NAN, INF = float("nan"), float("inf")
NO_CV = {"ram": {"lognormal": {"mean": 1.0}}}

# (subcommand and its flags, config, fragment of the one stderr line); each config either
# hung, exited 0 with wrong or non-standard output, or died with a traceback
# before the one config reader existed
MALFORMED = [
    pytest.param("simulate", {"duration_days": NAN, "pool": {"n_hosts": 5}},
                 "'duration_days' must be finite", id="simulate-duration-nan"),
    pytest.param("simulate",
                 {"duration_days": 1, "mean_dwell_hours": NAN, "pool": {"n_hosts": 5}},
                 "'mean_dwell_hours' must be finite", id="simulate-dwell-nan"),
    pytest.param("capacity", {"factors": {"arrival_rate": INF}},
                 "'arrival_rate' must be finite", id="capacity-rate-inf"),
    pytest.param("capacity", {"factors": {"redundancy": NAN}},
                 "'redundancy' must be finite", id="capacity-redundancy-nan"),
    pytest.param("sweep", {"pool": {"n_hosts": 5}, "rates": [0, INF]},
                 "rates entry must be finite", id="sweep-rates-inf"),
    pytest.param("stats", {"seed": 1, "pool": {"n_host": 50}},
                 "unknown pool option: 'n_host'", id="stats-pool-typo"),
    pytest.param("stats", {"sed": 1, "pool": {"n_hosts": 50}},
                 "unknown stats option: 'sed'", id="stats-top-typo"),
    # accepted once, but it never shaped a generated pool
    pytest.param("stats", {"pool": {"n_hosts": 5, "hosts_per_user_weights": {"1": 1.0}}},
                 "unknown pool option: 'hosts_per_user_weights'",
                 id="stats-hosts-per-user-weights"),
    # accepted once, but uploads are not simulated
    pytest.param("simulate", simulate_config(task={"output_size_mb": 0.1}),
                 "unknown task option: 'output_size_mb'", id="simulate-output-size"),
    pytest.param("stats", {"seed": 1, "pool": {"n_hosts": 50.7}},
                 "'n_hosts' must be an integer", id="stats-fractional-hosts"),
    pytest.param("sweep", {"pool": {"n_hosts": 5}, "per_host_factors": "no"},
                 "'per_host_factors' must be true or false", id="sweep-string-flag"),
    pytest.param("stats", {"seed": 1, "pool": 5},
                 "expected a JSON object of pool options", id="stats-pool-number"),
    pytest.param("capacity", {"factors": 5},
                 "expected a JSON object of capacity factors", id="capacity-factors-number"),
    pytest.param("stats", {"seed": "abc", "pool": {"n_hosts": 5}},
                 "'seed' must be an integer", id="stats-seed-string"),
    pytest.param("sweep", {"pool": {"n_hosts": 5}, "rates": {"n": -1}},
                 "bad sweep config", id="sweep-negative-n"),
    pytest.param("sweep", {"pool": {"n_hosts": 5}, "rates": {"start": "x"}},
                 "'start' must be a number", id="sweep-start-string"),
    pytest.param("stats", {"pool": {"n_hosts": 5, "fields": NO_CV}},
                 "'cv' is required", id="stats-lognormal-no-cv"),
    pytest.param("simulate", {"duration_days": 1, "pool": {"n_hosts": 5, "fields": NO_CV}},
                 "'cv' is required", id="simulate-lognormal-no-cv"),
    pytest.param("simulate",
                 {"duration_days": 1, "pool": {"n_hosts": 5, "vendor_weights": {"AMD": 0}}},
                 "vendor weights sum to zero", id="simulate-zero-weights"),
    # each weight finite, their sum not: rng.choice got no probabilities
    pytest.param("stats", {"pool": {"n_hosts": 5,
                                    "country_weights": {"A": 1e308, "B": 1e308}}},
                 "country weights do not sum to a finite number", id="stats-overflowing-weights"),
    pytest.param("simulate",
                 {"duration_days": 1, "pool": {"n_hosts": 5,
                                               "os_weights": {"Linux": 1e308, "Darwin": 1e308}}},
                 "os weights do not sum to a finite number", id="simulate-overflowing-weights"),
    pytest.param("simulate", {"duration_days": 1, "seed": -1, "pool": {"n_hosts": 5}},
                 "seed is negative", id="simulate-negative-seed"),
    # zero used to fall back silently to the default buffer
    pytest.param("simulate", simulate_config(work_buffer_days=0),
                 "work_buffer_days must be positive", id="simulate-zero-buffer"),
    pytest.param("simulate", {"min_quorum": 0},
                 "min_quorum must be at least 1", id="simulate-zero-quorum"),
    # both factors finite, their product not: no JSON can hold the result
    pytest.param("capacity", {"factors": {"arrival_rate": 1e308, "mean_lifetime": 1e308}},
                 "not JSON compliant", id="capacity-overflow"),
    # the same overflow used to be written to CSV as inf, with exit 0
    pytest.param("capacity --format csv",
                 {"factors": {"arrival_rate": 1e308, "mean_lifetime": 1e308}},
                 "inf is not a finite number", id="capacity-csv-overflow"),
    # finite but huge counts, each of which used to run out of memory
    pytest.param("stats", {"pool": {"n_hosts": 10**8}},
                 "'n_hosts' of 1e+08 exceeds the limit", id="stats-huge-pool"),
    pytest.param("simulate", {"duration_days": 1000, "pool": {"n_hosts": 1},
                              "churn": {"arrival_rate": 1e5}},
                 "expected arrivals of 1e+08 exceeds the limit", id="simulate-huge-arrivals"),
    pytest.param("simulate", {"duration_days": 1e7, "pool": {"n_hosts": 1},
                              "churn": {"arrival_rate": 0}},
                 "timeline samples of 4e+07 exceeds the limit", id="simulate-huge-timeline"),
    pytest.param("simulate", {"duration_days": 1, "work_buffer_days": 5000,
                              "churn": {"arrival_rate": 0}},
                 "expected buffered replicas of 9.6375e+06 exceeds the limit",
                 id="simulate-huge-buffer"),
    # every flip is drawn and walked: a short dwell costs memory and time
    pytest.param("simulate", {"duration_days": 10, "pool": {"n_hosts": 10},
                              "mean_dwell_hours": 0.001},
                 "expected availability flips of", id="simulate-short-dwell"),
    # a draw between stored values would leave field_mean inexact
    pytest.param("simulate",
                 {"duration_days": 1, "pool": {"n_hosts": 5, "fields": {
                     "flops_per_cpu": {"samples": [1.0, 2.0], "interpolate": True}}}},
                 "unknown flops_per_cpu generator option: 'interpolate'",
                 id="simulate-interpolate"),
    # an integer field beyond int64 was cast to INT64_MIN: a traceback, a cast
    # warning with exit 0, or every host silently binned at INT64_MIN
    pytest.param("stats", {"pool": {"n_hosts": 5, "fields": {"n_cpus": 1e300}}},
                 "n_cpus values outside the int64 range", id="stats-huge-cpus"),
    pytest.param("simulate", {"duration_days": 1, "pool": {"n_hosts": 5,
                                                           "fields": {"created": 1e19}}},
                 "created values outside the int64 range", id="simulate-huge-created"),
    pytest.param("stats", {"pool": {"n_hosts": 5, "fields": {"tz_offset": -1e19}}},
                 "tz_offset values outside the int64 range", id="stats-huge-tz-offset"),
    pytest.param("sweep", {"pool": {"n_hosts": 5}, "rates": {"n": 10**9}},
                 "rates option 'n' of 1e+09 exceeds the limit", id="sweep-huge-grid"),
    pytest.param("stats", {"pool": {"n_hosts": 5, "fields": {
                     "ram": {"lognormal": {"mean": 1.0, "cv": 1.0, "n": 10**9}}}}},
                 "lognormal option 'n' of 1e+09 exceeds the limit", id="stats-huge-lognormal"),
    # finite options whose samples overflow: a table holds no infinite size
    pytest.param("sweep", {"pool": {"n_hosts": 5, "fields": {
                     "throughput_down": {"lognormal": {"mean": 1e308, "cv": 3.0}}}}},
                 "lognormal samples overflow", id="sweep-overflowing-lognormal"),
    # ends numpy cannot space: each warned, then exited on a NaN rate never written
    pytest.param("sweep", {"pool": {"n_hosts": 5},
                           "rates": {"start": 1, "stop": -5, "log": True}},
                 "data rate is negative", id="sweep-log-negative-stop"),
    pytest.param("sweep", {"pool": {"n_hosts": 5},
                           "rates": {"start": 1e308, "stop": -1e308, "n": 3}},
                 "data rate is negative", id="sweep-overflowing-span"),
    # whole-host speeds past the float range: the writer reports the inf, and
    # the sweep's float64 columns leave no rate_curve.csv
    pytest.param("stats", {"pool": {"n_hosts": 5, "fields": {"n_cpus": 4,
                                                             "flops_per_cpu": 1e308}}},
                 "inf is not a finite number", id="stats-overflowing-flops"),
    pytest.param("sweep", {"pool": {"n_hosts": 5, "fields": {"n_cpus": 4,
                                                             "flops_per_cpu": 1e308}}},
                 "inf is not a finite number", id="sweep-overflowing-flops"),
    # finite speeds whose sum overflows: the suffix sum is inf without a
    # warning, and the writer reports the total that reads it
    pytest.param("sweep", {"pool": {"n_hosts": 100, "fields": {"flops_per_cpu": 1e307}}},
                 "inf is not a finite number", id="sweep-overflowing-speed-sum"),
]


@contextlib.contextmanager
def time_limit(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command, payload, fragment", MALFORMED)
def test_malformed_config_exits_2(tmp_path, capsys, command, payload, fragment):
    cfg = write_config(tmp_path, "bad.json", payload)
    out = tmp_path / "out"
    with time_limit(10):
        assert main([*command.split(), "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("volpool: ") and err.count("\n") == 1, err
    assert fragment in err
    assert not out.exists() or not any(out.iterdir())


SAMPLE_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "scripts" / "configs").glob("*.json")
)


@pytest.mark.parametrize("path", SAMPLE_CONFIGS, ids=lambda p: p.stem)
def test_sample_configs_pass_their_reader(path):
    """Each shipped config passes the reader its name prefix names; none is run."""
    command = path.stem.split("_", 1)[0]
    read = getattr(cli, f"read_{command}")
    read(argparse.Namespace(command=command, seed=None), json.loads(path.read_text()))


def test_sample_configs_cover_every_command():
    assert {p.stem.split("_", 1)[0] for p in SAMPLE_CONFIGS} == set(cli._COMMANDS)


def test_make_fixture_writes_a_parseable_pool(tmp_path, capsys):
    """The fixture script, run in-process as CI's smoke step runs it."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_fixture.py"
    spec = importlib.util.spec_from_file_location("make_fixture", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "hosts.csv"
    module.main(["--n-hosts", "500", "--assign-users", "--vendor-conditional",
                 "--out", str(out)])
    parsed = ing.parse_hosts(out)
    assert len(parsed.records) == 500 and parsed.rejects == ()
    users = len(set(parsed.records.user_id.tolist()))
    assert 1 < users < 500
    assert capsys.readouterr().out == f"500 hosts across {users} users -> {out}\n"
    text = out.read_text(encoding="utf-8")
    assert ing.serialize_hosts(parsed.records, "synthetic fixture seed=1") == text


def test_readme_lists_every_simulate_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Simulate options", 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.M)[0]
    listed = re.findall(r"^- `(\w+)`", section, flags=re.M)
    assert sorted(listed) == sorted(SIMULATE_OPTIONS)


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Subcommands", 1)[1].split("\n#", 1)[0]
    # each subcommand's bullet, up to the next bullet or the section's end
    bullets = dict(re.findall(r"^- `(\w+)` - (.*?)(?=^- `|\Z)", section, flags=re.M | re.S))
    for command, keys in cli.CONFIG_KEYS.items():
        listed = re.search(r"Keys: ((?:`\w+`,\s+)*`\w+`)\.", bullets[command])
        assert listed, command
        assert sorted(re.findall(r"`(\w+)`", listed.group(1))) == sorted(keys), command


@st.composite
def small_simulate_configs(draw):
    quorum = draw(st.integers(1, 3))
    return {
        "duration_days": draw(st.floats(0.05, 3.0)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "churn": {"arrival_rate": draw(st.floats(0.0, 5.0)),
                  "lifetime_mean_days": draw(st.floats(0.1, 5.0))},
        "pool": {"n_hosts": draw(st.integers(0, 30))},
        "task": {"flops_per_task": draw(st.floats(5e12, 5e13)),
                 "input_size_mb": draw(st.floats(0.01, 20.0)),
                 "deadline_days": draw(st.floats(0.05, 3.0))},
        "min_quorum": quorum,
        "max_replicas": draw(st.integers(quorum, 3)),
        "error_rate": draw(st.floats(0.0, 0.5)),
        "server_egress_cap_mbps": draw(st.one_of(st.none(), st.floats(0.1, 10.0))),
        "mean_dwell_hours": draw(st.floats(0.5, 24.0)),
    }


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=150, deadline=None)
@given(payload=small_simulate_configs())
# one host computes four tasks and departs; summing the pieces of its work
# used to round raw work below validated work
@example(payload={
    "duration_days": 1.0, "seed": 1869,
    "churn": {"arrival_rate": 0.0, "lifetime_mean_days": 1.21875},
    "pool": {"n_hosts": 1},
    "task": {"flops_per_task": 7675076352880.257, "input_size_mb": 3.0, "deadline_days": 1.0},
    "min_quorum": 1, "max_replicas": 1, "error_rate": 0.0,
    "server_egress_cap_mbps": None, "mean_dwell_hours": 8.25,
})
def test_simulate_random_small_configs(payload):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), "sim.json", payload)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", cfg, "--out", tmp]) == 0
        rep = json.loads(
            (Path(tmp) / "sim_report.json").read_text(), parse_constant=_reject_constant
        )
    assert rep["n_validated"] + rep["n_invalid"] <= rep["n_workunits"]
    # a running sum of equal terms, not one product: allow float rounding
    assert rep["bytes_downloaded"] == pytest.approx(
        rep["downloads_completed"] * payload["task"]["input_size_mb"], rel=1e-9
    )
    assert rep["achieved_gflops"] <= rep["raw_gflops"]
