"""Self-tests of the benchmark at smoke sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_of_a_hand_built_tree():
    tree = [
        spans.Span("cli.stats", 0.0, 10.0, None),
        spans.Span("population.generate_pool", 1.0, 4.0, 0),
        spans.Span("ingest.breakdown", 5.0, 8.0, 0),
        spans.Span("ingest.histogram_of_values", 6.0, 7.5, 2),
        spans.Span("cli.sweep", 10.0, 12.0, None),
    ]
    assert spans.self_times(tree) == [4.0, 3.0, 1.5, 1.5, 2.0]


def test_recorder_nests_spans_and_counts_work():
    ticks = iter(range(100))
    rec = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda xs: xs[::-1], count=lambda args, result: {"items": len(result)})
    outer = rec.wrap("outer", lambda xs: inner(inner(xs)))
    assert outer([1, 2, 3]) == [1, 2, 3]
    assert [(s.name, s.parent) for s in rec.spans] == [("outer", None), ("inner", 0), ("inner", 0)]
    summary = rec.summary()
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] == summary["outer"]["total_s"] - summary["inner"]["total_s"]
    assert rec.counts == {"inner.items": 6}


def test_install_counts_records_and_leaves_behaviour_alone():
    from volpool import population, presets, sim
    from volpool.hosts import HostRecord

    spec = presets.reference_pool_spec(n_hosts=50, seed=3)
    before = population.generate_pool(spec)
    original = (population.generate_pool, sim.generate_pool, HostRecord.__init__)
    rec = spans.SpanRecorder()
    uninstall = spans.install(rec)
    try:
        assert sim.generate_pool is not original[1]
        traced = sim.generate_pool(spec)
    finally:
        uninstall()
    assert traced == before
    assert rec.counts[spans.RECORDS_BUILT] == 50
    assert rec.counts["population.generate_pool.hosts"] == 50
    assert (population.generate_pool, sim.generate_pool, HostRecord.__init__) == original


def test_reference_time_takes_out_the_gauge_and_scales_by_its_speed():
    batch_s = run.REFERENCE_S / run.worker.REFERENCE_BATCHES
    # the gauge ran at half and at a quarter of the reference speed: mean speed 3/8
    call = {"wall_s": 10.0, "ticks": [2 * batch_s, 4 * batch_s]}
    assert run.reference_time_s(call) == pytest.approx((10.0 - 6 * batch_s) * 0.375)


@pytest.fixture(scope="module")
def smoke_runs():
    """One traced smoke-size run per workload: an untraced and a traced repeat."""
    return {name: run.run_workload(name, seed=2, seconds=0, trace=True, sizes=workloads.SMOKE)
            for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_passes_its_checks_and_reports_every_metric(smoke_runs, name):
    result = smoke_runs[name]
    assert result["attempted"] == 2 * len(workloads.calls(name, 2, workloads.SMOKE, "w"))
    assert result["failed"] == 0
    assert all(ok for rep in result["repeats"] for _, ok, _ in rep["checks"])
    assert result["repeats"][0]["digests"] == result["repeats"][1]["digests"]
    e2e = run.metrics_of(dict(result, trace=False))
    assert set(e2e) == set(run.declared("end_to_end"))
    assert all(m["value"] > 0 for m in e2e.values())
    layers = run.metrics_of(result)
    assert set(layers) == set(run.declared("per_layer"))
    assert 0 < layers["trace.accounted_frac"]["value"] < 1


def test_self_times_cover_the_traced_wall_time(smoke_runs):
    """Every span's self time adds up to the traced calls; the named layers take a share."""
    for name, result in smoke_runs.items():
        rep = next(r for r in result["repeats"] if r["traced"])
        wall = run.wall_s(rep)
        assert 0.95 < sum(row["self_s"] for row in rep["layers"].values()) / wall <= 1.0
        layers = run.per_layer(result)
        cli_share = layers["cli.self_s"] / wall
        assert layers["trace.accounted_frac"] + cli_share <= 1.0 + 1e-9
    # the simulation is most of sim_steady; in pool_synthetic cli's own loops show
    assert run.per_layer(smoke_runs["sim_steady"])["trace.accounted_frac"] > 0.5
    assert run.per_layer(smoke_runs["pool_synthetic"])["cli.self_s"] > 0


def test_layers_land_on_the_workloads_that_use_them(smoke_runs):
    layer = {name: run.per_layer(r) for name, r in smoke_runs.items()}
    assert layer["sim_steady"]["sim.run_simulation.self_s"] > 0
    assert layer["pool_synthetic"]["sim.run_simulation.self_s"] == 0
    # two generate_pool calls of 3000 hosts each, one record per host
    assert layer["pool_synthetic"]["hosts.records_built"] == 6000
    assert layer["pool_ingest"]["population.generate_pool.self_s"] == 0
    assert layer["pool_ingest"]["ingest.parse_hosts.rejects"] == workloads.SMOKE.ingest_rows // 100
    assert layer["pool_ingest"]["population.assign_users.hosts_per_s"] > 0


def _doctored(smoke_runs, name, tmp_path):
    """Copy of a smoke run's work directory whose outputs a test may edit."""
    work = tmp_path / name
    shutil.copytree(ROOT / run.WORK / name, work)
    return work / "out"


def _failed(name, out, injected=None):
    return [c for c in workloads.check(name, out, workloads.SMOKE, injected) if not c[1]]


def _edit_json(path: Path, **changes):
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))


def test_capped_check_rejects_over_budget_downloads(smoke_runs, tmp_path):
    out = _doctored(smoke_runs, "sim_capped_quorum", tmp_path)
    assert _failed("sim_capped_quorum", out) == []
    budget = workloads.EGRESS_CAP_MBPS / 8 * 86_400 * workloads.SMOKE.capped_days
    _edit_json(out / "simulate" / "sim_report.json", bytes_downloaded=budget + 1.0)
    assert [c[0] for c in _failed("sim_capped_quorum", out)] == ["simulate"]
    _edit_json(out / "simulate" / "sim_report.json", bytes_downloaded=0.0,
               replicas_per_validated_task=1.5)
    assert len(_failed("sim_capped_quorum", out)) == 1


def test_steady_check_rejects_a_wrong_capacity(smoke_runs, tmp_path):
    out = _doctored(smoke_runs, "sim_steady", tmp_path)
    report = json.loads((out / "simulate" / "sim_report.json").read_text())
    _edit_json(out / "simulate" / "sim_report.json", achieved_gflops=report["achieved_gflops"] * 0.5)
    assert len(_failed("sim_steady", out)) == 1


def test_ingest_check_rejects_a_reject_count_off_by_one(smoke_runs, tmp_path):
    injected = smoke_runs["pool_ingest"]["injected"]
    out = _doctored(smoke_runs, "pool_ingest", tmp_path)
    assert _failed("pool_ingest", out, injected) == []
    rejects = out / "ingest" / "rejects.csv"
    lines = rejects.read_text().splitlines()
    rejects.write_text("\n".join(lines[:-1]) + "\n")
    assert {c[0] for c in _failed("pool_ingest", out, injected)} == {"ingest"}
    moved = dict(injected, rejected_lines=[n + 1 for n in injected["rejected_lines"]])
    rejects.write_text("\n".join(lines) + "\n")
    assert len(_failed("pool_ingest", out, moved)) == 1


def test_pool_checks_reject_wrong_totals_and_a_rising_curve(smoke_runs, tmp_path):
    out = _doctored(smoke_runs, "pool_synthetic", tmp_path)
    stats = json.loads((out / "stats" / "stats.json").read_text())
    _edit_json(out / "stats" / "stats.json", n_hosts=stats["n_hosts"] - 1,
               hardware_gflops=stats["hardware_gflops"] * 1.2)
    assert len([c for c in _failed("pool_synthetic", out) if c[0] == "stats"]) == 2
    curve = out / "sweep" / "rate_curve.csv"
    lines = curve.read_text().splitlines()
    last = lines[-1].split(",")
    lines[-1] = ",".join([last[0], repr(float(lines[-2].split(",")[1]) + 1.0), last[2]])
    curve.write_text("\n".join(lines) + "\n")
    assert "rate curve never increases" in [c[2] for c in _failed("pool_synthetic", out)]


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
