"""Acceptance gate: ten headline checks, one visible PASS/FAIL line each.

Every check recomputes its expected value from first principles (explicit
factor products, unit re-derivations, an exact recursion for the replica cost
of the quorum, closed-form pool dynamics) and asserts at the stated tolerance.
The collected lines are echoed again in the terminal summary.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from volpool import ingest, presets
from volpool.capacity import (
    compute_vs_rate_curve,
    critical_data_rate,
    hardware_flops,
    hardware_product,
    potential_flops,
    storage_potential,
    utilization_product,
)
from volpool.cli import main as cli_main
from volpool.population import ChurnModel, assign_users, generate_pool
from volpool.sim import (
    SimConfig,
    TaskSpec,
    analytic_comparison,
    factors_from_sim_config,
    run_simulation,
    sim_config_from_config,
)
from volpool.units import GB_PER_PB

from conftest import flat_spec, replica_cost

RESULTS: list[str] = []

# criterion 7's run, which the benchmark's sim_steady and the CI smoke step read too
STEADY_STATE_CONFIG = (
    Path(__file__).resolve().parents[1] / "scripts" / "configs" / "simulate_steady_state.json"
)


def check(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def test_criterion_01_utilization_product():
    util = utilization_product(presets.reference_capacity_factors())
    expected = 0.899 * 0.81 * 0.84 * (1.0 / 2.0) * 0.917
    ok = util == pytest.approx(expected, rel=1e-12) and abs(util - 0.2805) <= 0.0005
    check(1, ok, f"utilization_product = {util:.6f} (target 0.2805 +/- 0.0005)")


def test_criterion_02_headline_capacity():
    factors = presets.reference_capacity_factors()
    hardware = hardware_product(factors)
    potential = potential_flops(factors)
    rel = abs(potential - 149_800.0) / 149_800.0
    ok = hardware == pytest.approx(535_169.0, rel=1e-3) and rel <= 0.005
    check(
        2,
        ok,
        f"potential = {potential:.1f} GFLOPS from {hardware:.0f} hardware "
        f"(vs 149800, rel err {rel:.2%}, tol 0.5%)",
    )


def test_criterion_03_critical_rate_identity():
    # one sustained Mbps moves (1e6/8) bytes each second; over an hour and
    # scaled to decimal megabytes that is the whole identity
    derived = (10**6 / 8) * 3600 / 10**6
    pool = generate_pool(flat_spec(1, seed=1, flops=1.0, thr=1000.0))
    rate = critical_data_rate(pool)[0]
    ok = derived == 450.0 and rate == 450.0
    check(3, ok, f"critical_data_rate(1 GFLOPS, 1 Mbps) = {rate} (derived {derived})")


def test_criterion_04_rate_curve_shape():
    pool = generate_pool(presets.reference_pool_spec(n_hosts=50_000, seed=12))
    factors = presets.reference_capacity_factors()
    grid = list(np.linspace(0.0, 100.0, 41))
    totals, _ = compute_vs_rate_curve(pool, grid, factors)
    totals = totals.tolist()
    potential = utilization_product(factors) * hardware_flops(pool)
    starts_right = totals[0] == pytest.approx(potential, rel=1e-9)
    monotone = all(a >= b - 1e-9 for a, b in zip(totals, totals[1:]))
    tail_ratio = totals[-1] / potential
    ok = starts_right and monotone and tail_ratio > 0.10
    check(
        4,
        ok,
        f"50k-host curve starts at potential, non-increasing, "
        f"keeps {tail_ratio:.1%} at R=100 (floor 10%)",
    )


def test_criterion_05_littles_law():
    cfg = SimConfig(
        duration_days=600.0, seed=15,
        churn=ChurnModel(arrival_rate=20.0, lifetime_mean_days=30.0),
        pool_spec=flat_spec(600, seed=1),  # start at the steady-state size
        task=TaskSpec(flops_per_task=1e18, input_size=1.0),
        min_quorum=1, max_replicas=1,
    )
    report = run_simulation(cfg)
    rel = abs(report.mean_active_hosts - 600.0) / 600.0
    check(
        5,
        rel <= 0.05,
        f"mean active hosts {report.mean_active_hosts:.1f} vs 600 "
        f"(rel err {rel:.2%}, tol 5%)",
    )


def test_criterion_06_redundancy_overhead():
    exact = run_simulation(
        SimConfig(
            duration_days=20.0, seed=11, churn=ChurnModel(0.0, 1e9),
            pool_spec=flat_spec(40, seed=2),
            task=TaskSpec(flops_per_task=2.5e13, input_size=5.0),
            min_quorum=2, max_replicas=4, error_rate=0.0,
        )
    )
    noisy = run_simulation(
        SimConfig(
            duration_days=40.0, seed=11, churn=ChurnModel(0.0, 1e9),
            pool_spec=flat_spec(100, seed=9),
            task=TaskSpec(flops_per_task=2.5e13, input_size=5.0),
            min_quorum=2, max_replicas=4, error_rate=0.05,
        )
    )
    # the simulated mean over n validated units is off the exact one by
    # sigma / sqrt(n) in standard error; allow three
    _, oracle, sigma = replica_cost(0.05, 2, 4)
    spread = 3.0 * sigma / math.sqrt(noisy.n_validated)
    sim_val = noisy.replicas_per_validated_task
    ok = (
        exact.replicas_per_validated_task == 2.0
        and exact.n_validated > 1000
        and exact.n_invalid == 0
        and noisy.n_validated > 5000
        and 2.0 < sim_val < 2.35
        and abs(sim_val - oracle) <= spread
    )
    check(
        6,
        ok,
        f"replicas/validated: {exact.replicas_per_validated_task} at no errors "
        f"({exact.n_validated} validated, {exact.n_invalid} invalid); "
        f"{sim_val:.4f} at 5% errors in (2, 2.35), exact {oracle:.5f} "
        f"+/- {spread:.4f} (3 sigma / sqrt {noisy.n_validated})",
    )


def test_criterion_07_analytic_simulated_agreement():
    cfg = sim_config_from_config(json.loads(STEADY_STATE_CONFIG.read_text()))
    report = run_simulation(cfg)
    out = analytic_comparison(report, factors_from_sim_config(cfg))
    check(
        7,
        out["relative_error"] <= 0.05,
        f"steady-state 2000-host pool: achieved {out['achieved']:.1f} vs "
        f"predicted {out['predicted']:.1f} GFLOPS "
        f"(rel err {out['relative_error']:.2%}, tol 5%)",
    )


def test_criterion_08_table_reproduction():
    pool = generate_pool(presets.reference_pool_spec(n_hosts=150_000, seed=5))
    pool = assign_users(pool, presets.HOSTS_PER_USER_PCT, seed=5)

    rows = {b.key: b for b in ingest.breakdown(pool, "cpu_vendor")}
    weight_total = sum(n for n, _ in presets.VENDOR_TABLE.values())
    vendor_dev = max(
        abs(100.0 * rows[v.value].n_hosts / len(pool) - 100.0 * n / weight_total)
        for v, (n, _) in presets.VENDOR_TABLE.items()
    )
    pcts = {b.bucket: b.pct_hosts for b in ingest.hosts_per_user(pool)}
    bucket_dev = max(
        abs(pcts[bucket] - want)
        for bucket, want in presets.HOSTS_PER_USER_PCT.items()
    )
    ok = vendor_dev <= 1.0 and bucket_dev <= 1.0
    check(
        8,
        ok,
        f"vendor shares off by at most {vendor_dev:.3f} pct-pts, ownership "
        f"buckets by {bucket_dev:.3f} (tol 1.0 absolute)",
    )


def test_criterion_09_storage_aggregate():
    full = generate_pool(
        presets.reference_pool_spec(n_hosts=presets.SNAPSHOT_N_HOSTS, seed=1)
    )
    petabytes = storage_potential(full) / GB_PER_PB

    small = generate_pool(presets.reference_pool_spec(n_hosts=10_000, seed=1))
    small_total = storage_potential(small)
    small_dev = abs(small_total - 36.0 * 10_000)
    small_band = 3.0 * 36.0 * math.sqrt(10_000)  # resampling noise, cv = 1
    ok = 11.9 <= petabytes <= 12.1 and small_dev <= small_band
    check(
        9,
        ok,
        f"free disk across {presets.SNAPSHOT_N_HOSTS} hosts = {petabytes:.3f} PB "
        f"(band 11.9-12.1); 10k-host total {small_total:.0f} GB within "
        f"{small_band:.0f} of 360000",
    )


def test_criterion_10_determinism(tmp_path):
    sim_cfg = {
        "duration_days": 4.0,
        "seed": 5,
        "churn": {"arrival_rate": 3.0, "lifetime_mean_days": 2.0},
        "pool": {"n_hosts": 10},
        "task": {"flops_per_task": 1e13, "input_size_mb": 1.0},
        "min_quorum": 2,
        "max_replicas": 4,
        "error_rate": 0.05,
    }
    host_csv = tmp_path / "hosts.csv"
    ingest.write_hosts_csv(
        generate_pool(presets.reference_pool_spec(n_hosts=15, seed=3)), host_csv
    )
    jobs = {
        "ingest": {"input": str(host_csv)},
        "stats": {"seed": 2, "pool": {"n_hosts": 60}},
        "capacity": {},
        "sweep": {"seed": 3, "pool": {"n_hosts": 40}, "rates": [0.0, 200.0, 400.0]},
        "simulate": sim_cfg,
    }
    mismatched = []
    n_files = 0
    for command, payload in jobs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(payload))
        dirs = (tmp_path / f"{command}.1", tmp_path / f"{command}.2")
        for d in dirs:
            rc = cli_main(
                [command, "--config", str(cfg_path), "--out", str(d)]
            )
            assert rc == 0, command
        for produced in sorted(p.name for p in dirs[0].iterdir()):
            n_files += 1
            if (dirs[0] / produced).read_bytes() != (dirs[1] / produced).read_bytes():
                mismatched.append(f"{command}/{produced}")
    check(
        10,
        not mismatched,
        f"all five commands rerun byte-identical across {n_files} output files"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
