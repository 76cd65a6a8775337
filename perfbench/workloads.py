"""The four workloads: their CLI calls, seeded inputs and output checks.

Each workload is a fixed sequence of ``volpool`` subcommands whose configs
are built here from the benchmark seed. Every subcommand writes into its own
directory under the workload's ``out/``; the checks below read those files
back. Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sim_steady", "sim_capped_quorum", "pool_synthetic", "pool_ingest")

# Snapshot totals the pool_synthetic checks scale from.
SNAPSHOT_HOSTS = 331_785
SNAPSHOT_GFLOPS = 535_169.0

ANALYTIC_TOLERANCE = 0.05  # criterion 7 of the acceptance gate
# Half the pool's download demand, so the cap binds on every seed; see NOTES.md.
EGRESS_CAP_MBPS = 1.25
RATE_GRID = {"start": 0.0, "stop": 500.0, "n": 101}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, SMOKE keeps self-tests quick."""

    steady_hosts: int = 2000
    steady_days: float = 20.0
    capped_hosts: int = 250
    capped_days: float = 2.0
    synthetic_hosts: int = SNAPSHOT_HOSTS
    ingest_rows: int = 100_000
    # relative tolerance on total GFLOPS; the sum of n lognormal speeds with
    # cv 0.6 has a relative spread of 0.6 / sqrt(n), 0.1% at snapshot scale
    gflops_tolerance: float = 0.005
    analytic_tolerance: float = ANALYTIC_TOLERANCE


FULL = Sizes()
SMOKE = Sizes(
    steady_hosts=200, steady_days=3.0, capped_hosts=60, capped_days=0.5,
    synthetic_hosts=3000, ingest_rows=3000, gflops_tolerance=0.05,
    analytic_tolerance=0.1,
)

# The criterion-7 config of the acceptance gate: a flat steady-state pool.
STEADY_CONFIG = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "simulate_steady_state.json"


@dataclass(frozen=True)
class Call:
    command: str
    config_name: str
    config: dict

    def argv(self, work: str) -> list[str]:
        return [self.command, "--config", f"{work}/{self.config_name}",
                "--out", f"{work}/out/{self.command}"]


def steady_config(seed: int, sizes: Sizes) -> dict:
    """The criterion-7 config, cut to ``sizes`` and seeded; the pool stays at steady state."""
    cfg = json.loads(STEADY_CONFIG.read_text())
    cfg.update(duration_days=sizes.steady_days, seed=seed)
    cfg["pool"]["n_hosts"] = sizes.steady_hosts
    cfg["churn"]["arrival_rate"] = sizes.steady_hosts / cfg["churn"]["lifetime_mean_days"]
    return cfg


def capped_config(seed: int, sizes: Sizes) -> dict:
    """Reference-marginal pool whose downloads share a binding egress cap."""
    lifetime = 10.0
    return {
        "duration_days": sizes.capped_days,
        "seed": seed,
        "churn": {"arrival_rate": sizes.capped_hosts / lifetime,
                  "lifetime_mean_days": lifetime},
        "pool": {"n_hosts": sizes.capped_hosts},
        "task": {"input_size_mb": 20.0},
        "min_quorum": 2,
        "max_replicas": 4,
        "error_rate": 0.05,
        "server_egress_cap_mbps": EGRESS_CAP_MBPS,
    }


def calls(name: str, seed: int, sizes: Sizes, work: str) -> list[Call]:
    """CLI calls of one repeat; ``work`` is the workload directory."""
    if name == "sim_steady":
        return [Call("simulate", "simulate.json", steady_config(seed, sizes))]
    if name == "sim_capped_quorum":
        return [Call("simulate", "simulate.json", capped_config(seed, sizes))]
    if name == "pool_synthetic":
        pool = {"seed": seed, "pool": {"n_hosts": sizes.synthetic_hosts}}
        return [Call("stats", "stats.json", pool),
                Call("sweep", "sweep.json", dict(pool, rates=RATE_GRID))]
    if name == "pool_ingest":
        parsed = {"input": f"{work}/out/ingest/hosts.parsed.csv"}
        return [Call("ingest", "ingest.json", {"input": f"{work}/hosts.csv"}),
                Call("stats", "stats.json", parsed),
                Call("sweep", "sweep.json", dict(parsed, rates=RATE_GRID))]
    raise ValueError(f"unknown workload: {name!r}")


def validated_objects(name: str) -> list[tuple[str, str]]:
    """(kind, config name) of the objects set-up builds from the configs."""
    if name.startswith("sim_"):
        return [("sim", "simulate.json")]
    if name == "pool_synthetic":
        return [("pool", "stats.json"), ("factors", "sweep.json")]
    return [("factors", "sweep.json")]


# -- pool_ingest input ---------------------------------------------------------

# (reason, edit) pairs; every edit breaks exactly one rule of the host CSV
# schema, so each edited row is rejected on its own line. Column indices
# follow volpool.ingest.HOST_CSV_COLUMNS.
_MALFORMED = (
    ("wrong column count", lambda row: row[:-1]),
    ("non-numeric speed", lambda row: _set(row, 3, "fast")),
    ("non-finite throughput", lambda row: _set(row, 9, "inf")),
    ("negative ram", lambda row: _set(row, 5, "-1.0")),
    ("free disk above total", lambda row: _set(row, 8, repr(float(row[7]) + 1.0))),
    ("fraction above one", lambda row: _set(row, 10, "1.5")),
    ("unknown vendor", lambda row: _set(row, 14, "Zilog")),
    ("contact before creation", lambda row: _set(row, 20, str(int(row[19]) - 1))),
)
MALFORMED_EVERY = 100  # about 1% of rows


def _set(row: list[str], idx: int, value: str) -> list[str]:
    return row[:idx] + [value] + row[idx + 1:]


def make_ingest_input(path: str, rows: int, seed: int) -> dict:
    """Write the pool_ingest host CSV and return what went into it.

    A reference pool is generated, grouped into multi-host users with the
    snapshot's ownership shares, serialized, and then about one row in a
    hundred is broken in one of the ways listed in ``_MALFORMED``.
    """
    import numpy as np

    from volpool import ingest, population, presets

    t0 = time.perf_counter()
    pool = population.generate_pool(presets.reference_pool_spec(rows, seed))
    t1 = time.perf_counter()
    pool = population.assign_users(pool, presets.HOSTS_PER_USER_PCT, seed=seed)
    t2 = time.perf_counter()
    lines = ingest.serialize_hosts(pool, f"perfbench pool_ingest seed={seed}").splitlines()
    del pool

    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    picked = np.sort(rng.choice(rows, size=rows // MALFORMED_EVERY, replace=False))
    kinds = rng.integers(0, len(_MALFORMED), size=len(picked))
    first_data_line = 3  # comment line, header line, then rows
    rejected = []
    for row_idx, kind in zip(picked.tolist(), kinds.tolist()):
        line_no = first_data_line + row_idx
        row = next(csv.reader([lines[line_no - 1]]))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(_MALFORMED[kind][1](row))
        lines[line_no - 1] = buf.getvalue()
        rejected.append(line_no)
    Path(path).write_text("\n".join(lines) + "\n")
    return {
        "rows": rows,
        "rejected_lines": rejected,
        "generate_s": t1 - t0,
        "assign_users_s": t2 - t1,
        "total_s": time.perf_counter() - t0,
    }


# -- reading outputs back ------------------------------------------------------


def _csv_rows(path: Path) -> list[list[str]]:
    """Data rows of a CLI CSV: the comment and header lines dropped."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[2:]


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every output file, keyed by path relative to ``out``."""
    result = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        result[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def sim_outcome(out: Path) -> dict:
    """Simulated statistics of a sim workload, with the analytic error."""
    from volpool import sim
    from volpool.capacity import potential_flops

    report = _json(out / "simulate" / "sim_report.json")
    factors = sim.factors_from_sim_config(sim.sim_config_from_config(_json(out.parent / "simulate.json")))
    predicted = potential_flops(factors)
    achieved = report["achieved_gflops"]
    # Per host, the prediction drops the pool-size term arrival x lifetime,
    # whose sampled value a run shorter than many lifetimes does not pin down.
    per_host = predicted / (factors.arrival_rate * factors.mean_lifetime)
    hosts = report["mean_active_hosts"]
    n_wu = report["n_workunits"]
    return {
        "host_days": hosts * report["duration_days"],
        "analytic_rel_err": abs(achieved - predicted) / predicted,
        "analytic_rel_err_per_host": abs(achieved / hosts - per_host) / per_host if hosts else 1.0,
        "n_results": report["n_results"],
        "downloads_completed": report["downloads_completed"],
        "n_workunits": n_wu,
        "useful_flop_ratio": (report["achieved_gflops"] / report["raw_gflops"]
                              if report["raw_gflops"] else 0.0),
        "validated_per_workunit": report["n_validated"] / n_wu if n_wu else 0.0,
        "replicas_per_validated": report["replicas_per_validated_task"],
        "bytes_downloaded": report["bytes_downloaded"],
    }


def work_done(name: str, out: Path) -> dict:
    """What one repeat accomplished, from its outputs."""
    if name.startswith("sim_"):
        return sim_outcome(out)
    return {"hosts": _json(out / "stats" / "stats.json")["n_hosts"]}


# -- output checks -------------------------------------------------------------
#
# A check is (command, ok, detail); a failed check counts its command as a
# failed CLI call.


def check(name: str, out: Path, sizes: Sizes, injected: dict | None = None) -> list[tuple[str, bool, str]]:
    if name == "sim_steady":
        got = sim_outcome(out)
        err = got["analytic_rel_err_per_host"]
        return [("simulate", err <= sizes.analytic_tolerance,
                 f"analytic_rel_err_per_host {err:.4f} <= {sizes.analytic_tolerance} "
                 f"(pool-wide analytic_rel_err {got['analytic_rel_err']:.4f})")]
    if name == "sim_capped_quorum":
        got = sim_outcome(out)
        budget = EGRESS_CAP_MBPS / 8.0 * 86_400.0 * sizes.capped_days
        rpv = got["replicas_per_validated"]
        return [
            ("simulate", got["bytes_downloaded"] <= budget,
             f"bytes_downloaded {got['bytes_downloaded']:.0f} MB <= cap x duration {budget:.0f} MB "
             f"({got['bytes_downloaded'] / budget:.1%} used)"),
            ("simulate", 2.0 <= rpv <= 4.0, f"replicas_per_validated {rpv:.4f} in [2, 4]"),
        ]
    if name == "pool_synthetic":
        n = sizes.synthetic_hosts
        want_gflops = SNAPSHOT_GFLOPS * n / SNAPSHOT_HOSTS
        return _check_totals(out, n, want_gflops, sizes.gflops_tolerance) + _check_curve(out)
    if name == "pool_ingest":
        return _check_ingest(out, injected) + _check_curve(out)
    raise ValueError(f"unknown workload: {name!r}")


def _check_totals(out: Path, n_hosts: int, gflops: float, tolerance: float) -> list[tuple[str, bool, str]]:
    stats = _json(out / "stats" / "stats.json")
    rel = abs(stats["hardware_gflops"] - gflops) / gflops
    return [
        ("stats", stats["n_hosts"] == n_hosts, f"n_hosts {stats['n_hosts']} == {n_hosts}"),
        ("stats", rel <= tolerance,
         f"hardware_gflops {stats['hardware_gflops']:.1f} within "
         f"{tolerance:.1%} of {gflops:.1f} ({rel:.3%})"),
    ]


def _check_curve(out: Path) -> list[tuple[str, bool, str]]:
    """The rate curve starts at the pool's potential and never rises."""
    from volpool import capacity

    hardware = _json(out / "stats" / "stats.json")["hardware_gflops"]
    curve = [float(r[1]) for r in _csv_rows(out / "sweep" / "rate_curve.csv")]
    potential = hardware * capacity.utilization_product(capacity.factors_from_config({}))
    starts = bool(curve) and math.isclose(curve[0], potential, rel_tol=1e-9)
    return [
        ("sweep", starts and len(curve) == RATE_GRID["n"],
         f"rate curve of {len(curve)} points starts at the potential {potential:.1f} GFLOPS"),
        ("sweep", all(b <= a for a, b in zip(curve, curve[1:])), "rate curve never increases"),
    ]


def _check_ingest(out: Path, injected: dict) -> list[tuple[str, bool, str]]:
    accepted = len(_csv_rows(out / "ingest" / "hosts.parsed.csv"))
    rejects = _csv_rows(out / "ingest" / "rejects.csv")
    lines = [int(r[0]) for r in rejects]
    stats = _json(out / "stats" / "stats.json")
    rows = injected["rows"]
    return [
        ("ingest", accepted + len(rejects) == rows,
         f"accepted {accepted} + rejected {len(rejects)} == rows written {rows}"),
        ("ingest", lines == injected["rejected_lines"],
         f"{len(lines)} rejected line numbers equal the "
         f"{len(injected['rejected_lines'])} injected ones"),
        ("stats", stats["n_hosts"] == accepted,
         f"stats n_hosts {stats['n_hosts']} == accepted {accepted}"),
    ]
