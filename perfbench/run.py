"""volpool benchmark: four seeded workloads driven through ``volpool.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S

A run writes its configs and inputs under ``.perfbench_work/<workload>/`` in
the checkout, times set-up in fresh interpreters, then repeats the
workload's CLI sequence, each repeat in a fresh process, until ``--seconds``
have passed and at least two repeats are done. Every repeat's outputs are
checked and digested. The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` count CLI calls, and ``metrics``
holds the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its
per-layer metrics (``--trace 1``, where every second repeat is traced).
``--all`` runs every workload both ways, prints everything, and records the
results for that seed, with the machine's description, in ``baseline.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "baseline.json"  # results of --all; runs compare digests with it
WORK = ".perfbench_work"  # relative to ROOT, so configs and outputs repeat byte for byte
MIN_REPEATS = 2
# worker.reference_s() on the machine of NOTES.md in a fast spell; setup_s
# and throughput are scaled to this machine speed, see NOTES.md.
REFERENCE_S = 0.08
SETUP_REPEATS = 7
RUN_LIMIT_S = 160  # a run must end within 180 s, whatever its children do
# Threads a BLAS or OpenMP runtime may start; every workload is one thread.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Spans of the layers the per-layer table names. trace.accounted_frac is the
# share of the traced wall time their self times cover; cli.self_s and small
# unlisted helpers such as ingest.auto_edges make up the rest.
LAYERS = (
    "sim.run_simulation", "population.generate_pool", "population.lifetime_stats",
    "ingest.parse_hosts", "ingest.serialize_hosts", "ingest.breakdown",
    "ingest.histogram_of_values", "ingest.hosts_per_user",
    "capacity.compute_vs_rate_curve", "capacity.hardware_flops",
)
THROUGHPUT_NAMES = {  # the name and unit each workload's throughput is known by
    "sim_steady": ("sim_host_days_per_s", "host-day/s"),
    "sim_capped_quorum": ("sim_host_days_per_s", "host-day/s"),
    "pool_synthetic": ("hosts_per_s", "host/s"),
    "pool_ingest": ("hosts_per_s", "host/s"),
}


class ChildFailed(RuntimeError):
    pass


def child(mode: str, spec: dict, spec_path: Path, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
    # set-up is timed as a normal install sees it, with bytecode cached
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, str(spec_path.relative_to(ROOT))],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise ChildFailed(f"{mode} stopped after {timeout:.0f} s") from err
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: workloads.Sizes = workloads.FULL) -> dict:
    """One benchmark run; returns everything it measured and checked."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work_rel = f"{WORK}/{name}"
    work = ROOT / work_rel
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calls = workloads.calls(name, seed, sizes, work_rel)
    for call in calls:
        (work / call.config_name).write_text(json.dumps(call.config, indent=1))
    spec_path = work / "spec.json"

    injected = None
    if name == "pool_ingest":
        injected = child("input", {"path": f"{work_rel}/hosts.csv",
                                   "rows": sizes.ingest_rows, "seed": seed}, spec_path, deadline)
    validate = [(kind, f"{work_rel}/{cfg}") for kind, cfg in workloads.validated_objects(name)]
    setup = [child("setup", {"validate": validate}, spec_path, deadline)
             for _ in range(SETUP_REPEATS)]

    out = work / "out"
    argvs = [(c.command, c.argv(work_rel)) for c in calls]
    repeats = []
    t0 = time.monotonic()
    while ((len(repeats) < MIN_REPEATS or time.monotonic() - t0 < seconds)
           and time.monotonic() < deadline):
        traced = trace and len(repeats) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        rep = {"traced": traced, "failed": set()}
        try:
            rep.update(child("repeat", {"calls": argvs, "traced": traced}, spec_path, deadline))
        except ChildFailed as err:
            print(f"repeat {len(repeats)}: {err}", file=sys.stderr)
            rep["failed"] = {c.command for c in calls}
            repeats.append(rep)
            continue
        if traced:
            (work / f"spans-repeat{len(repeats)}.json").write_text(json.dumps(rep.pop("spans")))
        rep["failed"] = {c["command"] for c in rep["calls"] if c["rc"] != 0}
        if not rep["failed"]:
            try:
                rep["checks"] = workloads.check(name, out, sizes, injected)
                rep["work"] = workloads.work_done(name, out)
            except (OSError, ValueError, KeyError, IndexError) as err:
                print(f"repeat {len(repeats)}: unreadable outputs: {err!r}", file=sys.stderr)
                rep["checks"] = [(c.command, False, "outputs unreadable") for c in calls]
                rep.pop("work", None)
            rep["failed"] |= {cmd for cmd, ok, _ in rep["checks"] if not ok}
            rep["digests"] = workloads.digests(out)
            rep["output_bytes"] = workloads.output_bytes(out)
        repeats.append(rep)

    # outputs must not depend on the repeat or on tracing
    good = [r for r in repeats if "digests" in r]
    for rep in good[1:]:
        for path, digest in rep["digests"].items():
            if good[0]["digests"].get(path) != digest:
                rep["failed"].add(path.split("/")[0])
    attempted = len(calls) * len(repeats)
    failed = sum(len(r["failed"]) for r in repeats)
    return {
        "workload": name, "seed": seed, "trace": trace,
        "setup": setup, "injected": injected, "repeats": repeats,
        "attempted": attempted, "failed": failed,
    }


def reference_time_s(call: dict) -> float:
    """A call's wall time, less its gauge batches, at the speed where
    reference_s takes REFERENCE_S; the gauge sampled the speed during it."""
    batch_s = REFERENCE_S / worker.REFERENCE_BATCHES
    speed = statistics.fmean(batch_s / t for t in call["ticks"])
    return (call["wall_s"] - sum(call["ticks"])) * speed


def throughput(name: str, rep: dict, clock=reference_time_s) -> float:
    """Work per second of the timed CLI calls of one repeat, by ``clock``."""
    if name.startswith("sim_"):
        return rep["work"]["host_days"] / clock(rep["calls"][0])
    return rep["work"]["hosts"] / sum(clock(c) for c in rep["calls"])


def gauge_s(rep: dict) -> float:
    """Mean gauge reading of a repeat, as a whole reference_s task."""
    ticks = [t for c in rep["calls"] for t in c["ticks"]]
    return statistics.fmean(ticks) * worker.REFERENCE_BATCHES


def scaled_setup_s(setup: dict) -> float:
    """Set-up time at the machine speed where the reference task takes REFERENCE_S."""
    return setup["setup_s"] * REFERENCE_S / setup["ref_s"]


def end_to_end(run: dict) -> dict:
    reps = [r for r in run["repeats"] if "work" in r and not r["traced"]]
    return {
        "throughput_per_s": median([throughput(run["workload"], r) for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "setup_s": median([scaled_setup_s(s) for s in run["setup"]]),
    }


def wall_s(rep: dict) -> float:
    return sum(c["wall_s"] for c in rep["calls"])


def reference_s_of(rep: dict) -> float:
    return sum(reference_time_s(c) for c in rep["calls"])


def _per_repeat_layers(rep: dict, untraced_reference_s: float) -> dict:
    layers, counts = rep["layers"], rep["counts"]

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def rate(name, key):
        t = total(name)
        return counts.get(f"{name}.{key}", 0) / t if t else 0.0

    wall = wall_s(rep)
    cli_spans = [n for n in layers if n.startswith("cli.")]
    m = {
        "sim.run_simulation.self_s": self_s("sim.run_simulation"),
        "sim.results_per_s": rate("sim.run_simulation", "results"),
        "population.generate_pool.hosts_per_s": rate("population.generate_pool", "hosts"),
        "population.generate_pool.self_s": self_s("population.generate_pool"),
        "hosts.records_built": counts.get("hosts.records_built", 0),
        "ingest.parse_hosts.rows_per_s": rate("ingest.parse_hosts", "rows"),
        "ingest.parse_hosts.rejects": counts.get("ingest.parse_hosts.rejects", 0),
        "ingest.serialize_hosts.rows_per_s": rate("ingest.serialize_hosts", "rows"),
        "ingest.breakdown.self_s": self_s("ingest.breakdown"),
        "ingest.histogram_of_values.self_s": self_s("ingest.histogram_of_values"),
        "ingest.hosts_per_user.self_s": self_s("ingest.hosts_per_user"),
        "population.lifetime_stats.self_s": self_s("population.lifetime_stats"),
        "capacity.compute_vs_rate_curve.host_points_per_s":
            rate("capacity.compute_vs_rate_curve", "host_points"),
        "capacity.hardware_flops.self_s": self_s("capacity.hardware_flops"),
        "cli.self_s": sum(self_s(n) for n in cli_spans),
        "cli.output_bytes": rep["output_bytes"],
        "trace.overhead_s": reference_s_of(rep) - untraced_reference_s,
        "trace.accounted_frac": sum(self_s(n) for n in LAYERS) / wall,
    }
    for command in ("ingest", "stats", "sweep", "simulate"):
        m[f"cli.{command}.s"] = total(f"cli.{command}")
    return m


def per_layer(run: dict) -> dict:
    name = run["workload"]
    reps = run["repeats"]
    done = [r for r in reps if "work" in r]
    untraced = median([reference_s_of(r) for r in done if not r["traced"]])
    # each traced repeat follows an untraced one, which sees a machine nearest its own
    traced = [_per_repeat_layers(r, reference_s_of(reps[i - 1]) if "work" in reps[i - 1] else untraced)
              for i, r in enumerate(reps) if r["traced"] and "work" in r]
    if traced:
        m = {key: median([t[key] for t in traced]) for key in traced[0]}
    else:  # every traced repeat failed: zeros, and the run reports correct: false
        m = dict.fromkeys(declared("per_layer"), 0.0)
    work = done[0]["work"] if done else {}
    for key in ("n_results", "downloads_completed", "n_workunits", "useful_flop_ratio",
                "validated_per_workunit", "replicas_per_validated", "analytic_rel_err",
                "analytic_rel_err_per_host"):
        m[f"sim.{key}"] = work.get(key, 0) if name.startswith("sim_") else 0
    m["bench.reference_s"] = median([gauge_s(r) for r in done])
    injected = run["injected"] or {}
    assign_s = injected.get("assign_users_s")
    m["population.assign_users.hosts_per_s"] = injected["rows"] / assign_s if assign_s else 0.0
    m["bench.input_gen_s"] = injected.get("total_s", 0.0)
    return m


def bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in bench()[section]}


def metrics_of(run: dict) -> dict:
    section = "per_layer" if run["trace"] else "end_to_end"
    values = per_layer(run) if run["trace"] else end_to_end(run)
    units = declared(section)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} not as in BENCHMARK.json")
    return {k: {"value": values[k], "unit": units[k]} for k in sorted(units)}


def combined_digest(run: dict) -> str | None:
    good = [r for r in run["repeats"] if "digests" in r]
    if not good:
        return None
    text = "\n".join(f"{d} {p}" for p, d in sorted(good[0]["digests"].items()))
    return hashlib.sha256(text.encode()).hexdigest()


def recorded_digest(name: str, seed: int) -> str | None:
    if not RECORD.is_file():
        return None
    runs = json.loads(RECORD.read_text()).get("seeds", {}).get(str(seed), {})
    return runs.get("workloads", {}).get(name, {}).get("digest")


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(run: dict, metrics: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    name, reps = run["workload"], run["repeats"]
    print(f"workload {name} seed {run['seed']} trace {int(run['trace'])}: "
          f"{len(reps)} repeats ({sum(r['traced'] for r in reps)} traced), "
          f"{run['attempted']} CLI calls, {run['failed']} failed "
          f"(failed_frac {run['failed'] / run['attempted']:.4f})")
    print("  meta " + json.dumps(machine(), sort_keys=True))
    for key, m in metrics.items():
        print(f"  {key:50s} {m['value']:.6g} {m['unit']}")
    good = [r for r in reps if "work" in r and not r["traced"]]
    if good and not run["trace"]:
        label, unit = THROUGHPUT_NAMES[name]
        values = [throughput(name, r) for r in good]
        raw = [throughput(name, r, clock=lambda c: c["wall_s"]) for r in good]
        print(f"  {label} {median(values):.6g} {unit} at reference speed (repeats: "
              + ", ".join(f"{v:.6g}" for v in values) + f"); by wall time {median(raw):.6g}")
        print(f"  reference task {median([gauge_s(r) for r in good]):.4f} s "
              f"in repeats, {median([s['ref_s'] for s in run['setup']]):.4f} s in set-up "
              f"(scaled to {REFERENCE_S} s); set-up unscaled "
              f"{median([s['setup_s'] for s in run['setup']]):.4f} s")
        if name.startswith("sim_"):
            work = good[0]["work"]
            print(f"  analytic_rel_err {work['analytic_rel_err']:.6g} "
                  f"(per host {work['analytic_rel_err_per_host']:.6g})")
    if run["injected"]:
        inj = run["injected"]
        print(f"  input: {inj['rows']} rows, {len(inj['rejected_lines'])} malformed, "
              f"generated in {inj['total_s']:.3f} s (not timed)")
    for i, rep in enumerate(reps):
        for cmd, ok, detail in rep.get("checks", []):
            if i == 0 or not ok:
                print(f"  check {'ok  ' if ok else 'FAIL'} {cmd}: {detail} (repeat {i})")
    digest = combined_digest(run)
    known = recorded_digest(name, run["seed"])
    verdict = ("no recorded digest for this seed" if known is None else
               "matches the recorded digest" if known == digest else
               f"DIFFERS from the recorded digest {known}")
    print(f"  outputs sha256 {digest}: {verdict}")


def run_all(seed: int, seconds: float) -> int:
    results = {}
    ok = True
    for name in workloads.WORKLOADS:
        entry = {}
        for trace in (False, True):
            run = run_workload(name, seed, seconds, trace)
            metrics = metrics_of(run)
            report(run, metrics)
            ok &= run["failed"] == 0
            entry["per_layer" if trace else "end_to_end"] = {k: m["value"] for k, m in metrics.items()}
            entry["attempted"] = entry.get("attempted", 0) + run["attempted"]
            entry["failed"] = entry.get("failed", 0) + run["failed"]
            entry["digest"] = combined_digest(run)
        results[name] = entry
    doc = json.loads(RECORD.read_text()) if RECORD.is_file() else {}
    # each seed keeps the description of the machine and commit that ran it
    doc.setdefault("seeds", {})[str(seed)] = {
        "meta": dict(machine(), seconds=seconds), "workloads": results}
    RECORD.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded seed {seed} in {RECORD}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, traced and not")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "volpool" / "__init__.py").is_file():
        print(f"perfbench: no volpool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = bench()["run_seconds"] if args.seconds is None else args.seconds
    if args.all:
        return run_all(args.seed, seconds)
    if args.workload is None:
        p.error("--workload or --all is required")
    run = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    metrics = metrics_of(run)
    report(run, metrics)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
