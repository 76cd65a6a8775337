"""Command line front end.

Five subcommands cover the toolkit: ``ingest`` (parse and normalize a host
CSV), ``stats`` (breakdowns, user buckets, histograms, lifetimes), ``capacity``
(closed-form capacity products), ``sweep`` (capacity versus task data rate)
and ``simulate`` (the event-driven project simulation).

Conventions shared by every subcommand: configuration comes from a JSON file
named by ``--config``; ``--seed`` overrides any seed found there; outputs land
in ``--out`` (default: current directory). Each subcommand reads its whole
config through :mod:`volpool.config` before it does any work, so a bad config
writes nothing. Every CSV written starts with a
``# seed=... config=...`` comment and every JSON document carries the same
pair under a ``meta`` key, so an output can always be traced to the exact
inputs that produced it. Exit status is 0 for success and 2 for any usage,
configuration, input or data problem; 1 is reserved for a requested check
failing its assertion, which no current subcommand performs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
from typing import Mapping, Sequence

import numpy as np

from . import capacity as cap
from . import config
from . import ingest as ing
from . import population as pop
from . import sim as simmod
from .hosts import HOST_FIELDS, HostTable

# (file stem, HostTable.column selector) pairs behind the hist_<stem>.csv
# outputs; flops and iops are whole-host aggregates, the rest raw fields.
HIST_FIELDS = (
    ("flops", "flops"),
    ("iops", "iops"),
    ("ram", "ram"),
    ("swap", "swap"),
    ("throughput", "throughput_down"),
    ("disk_total", "disk_total"),
    ("disk_free", "disk_free"),
    ("tz", "tz_offset"),
)

class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits the process on bad usage; raise instead so main() stays
    # in control of the exit code and tests can call it in-process.
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="volpool", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, needs_config, helptext in (
        ("ingest", True, "parse a host CSV, writing accepted rows and rejects"),
        ("stats", True, "summarize a host CSV: breakdowns, buckets, histograms"),
        ("capacity", False, "evaluate the closed-form capacity products"),
        ("sweep", True, "capacity as a function of task data rate"),
        ("simulate", True, "run the event-driven project simulation"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=needs_config, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", default=".", help="output directory")
        if name == "capacity":
            sp.add_argument(
                "--format", choices=("csv", "json"), default="json",
                help="write capacity.csv or capacity.json",
            )
    return p


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise _UsageError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise _UsageError(f"config is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise _UsageError("config root must be a JSON object")
    return cfg


def _meta(seed: int, cfg: Mapping) -> dict:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]
    return {"seed": seed, "config_sha256": digest}


def _comment(meta: Mapping) -> str:
    return f"# seed={meta['seed']} config={meta['config_sha256']}"


def _write_csv(path: str, meta: Mapping, header: Sequence[str], columns) -> None:
    # every float is checked before the file is opened, so a bad one leaves none
    try:
        blocks = ing.csv_blocks(header, columns)
    except ValueError as err:
        raise _DataError(f"cannot write {path}: {err}") from err
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_comment(meta) + "\n")
        fh.writelines(blocks)


def _write_json(path: str, meta: Mapping, payload: dict) -> None:
    doc = dict(payload)
    doc["meta"] = dict(meta)
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise _DataError(f"cannot write {path}: {err}") from err
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


# -- config readers ------------------------------------------------------------
# Each reads its subcommand's whole config before any work starts, and main()
# turns any ValueError one raises into exit status 2.


# The top-level keys each subcommand's config may hold, which the README lists
# after "Keys:"; simulate's are ``sim.SIMULATE_OPTIONS``.
CONFIG_KEYS = {
    "ingest": ("input", "seed"),
    "stats": ("input", "pool", "seed"),
    "capacity": ("factors", "seed"),
    "sweep": ("input", "pool", "seed", "rates", "factors", "per_host_factors"),
}


def _options(args, cfg: Mapping) -> tuple[int, dict]:
    """Check the top-level keys; return the seed (flag > config > 0) and meta."""
    where = f"{args.command} option"
    config.section(cfg, where, CONFIG_KEYS[args.command])
    seed = config.count(cfg, "seed", 0, where)
    if args.seed is not None:
        seed = args.seed
    return seed, _meta(seed, cfg)


def _input_path(cfg: Mapping) -> str:
    path = cfg.get("input")
    if not isinstance(path, str):
        raise config.ConfigError(f"needs an 'input' path, got {path!r}")
    return path


def _host_source(cfg: Mapping, seed: int):
    """The host CSV to ingest or, failing that, the pool spec to draw."""
    if "input" in cfg:
        return _input_path(cfg)
    return pop.pool_spec_from_config(cfg.get("pool", {}), default_seed=seed)


def _rate_grid(cfg: Mapping) -> np.ndarray:
    spec = cfg.get("rates", {})
    if isinstance(spec, list):
        config.within_limit(len(spec), "rates entries")
        return cap.rate_grid([config.real(r, "rates entry") for r in spec])
    where = "rates option"
    config.section(spec, where, ("start", "stop", "n", "log"))
    n = config.count(spec, "n", 51, where)
    config.within_limit(n, f"{where} 'n'")
    start = config.number(spec, "start", 0.0, where)
    stop = config.number(spec, "stop", 10.0, where)
    # before numpy spaces them: a negative end can overflow, a zero one has no log
    if start < 0 or stop < 0:
        raise config.ConfigError("data rate is negative")
    if config.flag(spec, "log", where):
        if min(start, stop) == 0:
            raise config.ConfigError("log-spaced rates need a positive start and stop")
        return cap.rate_grid(np.geomspace(start, stop, n))
    return cap.rate_grid(np.linspace(start, stop, n))


def read_ingest(args, cfg: Mapping):
    _, meta = _options(args, cfg)
    return meta, _input_path(cfg)


def read_stats(args, cfg: Mapping):
    seed, meta = _options(args, cfg)
    return meta, _host_source(cfg, seed)


def read_capacity(args, cfg: Mapping):
    _, meta = _options(args, cfg)
    return meta, cap.factors_from_config(cfg.get("factors", {}))


def read_sweep(args, cfg: Mapping):
    seed, meta = _options(args, cfg)
    return (
        meta,
        _host_source(cfg, seed),
        _rate_grid(cfg),
        cap.factors_from_config(cfg.get("factors", {})),
        config.flag(cfg, "per_host_factors", "sweep option"),
    )


def read_simulate(args, cfg: Mapping):
    sim_cfg = simmod.sim_config_from_config(cfg, seed_override=args.seed)
    return _meta(sim_cfg.seed, cfg), sim_cfg


# -- subcommands ---------------------------------------------------------------


def _parse_input(path: str):
    try:
        return ing.parse_hosts(path)
    except OSError as err:
        raise _DataError(f"cannot read input: {err}") from err
    except (ValueError, csv.Error) as err:
        raise _DataError(str(err)) from err


def _records(source) -> HostTable:
    """The host table of a ``_host_source`` result."""
    if isinstance(source, str):
        result = _parse_input(source)
        if not result.records:
            raise _DataError("no rows accepted from input")
        return result.records
    return pop.generate_pool(source)


def cmd_ingest(args, meta: Mapping, path: str) -> int:
    result = _parse_input(path)

    out_csv = _outpath(args, "hosts.parsed.csv")
    columns = [getattr(result.records, name) for name in HOST_FIELDS]
    _write_csv(out_csv, meta, ing.HOST_CSV_COLUMNS, columns)
    _write_csv(
        _outpath(args, "rejects.csv"), meta, ("line", "reason"), zip(*result.rejects)
    )
    print(
        f"ingest: {len(result.records)} accepted, "
        f"{len(result.rejects)} rejected -> {out_csv}"
    )
    if not result.records:
        raise _DataError("no rows accepted from input")
    return 0


def _write_histogram(path: str, meta: Mapping, hist) -> None:
    edges = hist.bin_edges
    columns = ((*edges[:-1], "overflow"), (*edges[1:], ""), (*hist.counts, hist.overflow))
    _write_csv(path, meta, ("bin_start", "bin_end", "count"), columns)


def cmd_stats(args, meta: Mapping, source) -> int:
    records = _records(source)
    if not records:
        raise _DataError("empty record set")

    # breakdown_vendor.csv keeps the short stem; the record attribute it
    # groups on is cpu_vendor.
    for stem, key in (("vendor", "cpu_vendor"), ("os", "os"),
                      ("country", "country"), ("venue", "venue")):
        rows = ing.breakdown(records, key)
        _write_csv(
            _outpath(args, f"breakdown_{stem}.csv"),
            meta,
            (key, "n_hosts", "mean_flops", "total_flops",
             "mean_disk_free", "mean_throughput"),
            zip(*map(dataclasses.astuple, rows)),
        )

    buckets = ing.hosts_per_user(records)
    _write_csv(
        _outpath(args, "hosts_per_user.csv"),
        meta,
        ("bucket", "n_users", "n_hosts", "pct_hosts"),
        zip(*map(dataclasses.astuple, buckets)),
    )

    for stem, selector in HIST_FIELDS:
        values = records.column(selector)
        hist = ing.histogram_of_values(values, ing.auto_edges(values), stem)
        _write_histogram(_outpath(args, f"hist_{stem}.csv"), meta, hist)

    # the latest instant the snapshot saw: hosts heard from within the
    # censoring window before it may still be alive
    now = int(records.last_contact.max())
    try:
        life = pop.lifetime_stats(records, now=now)
    except ValueError:
        life = None
    if life is not None:
        _write_histogram(_outpath(args, "hist_lifetime.csv"), meta, life.histogram)
    else:  # every host still reporting: no lifetimes to bin yet
        empty = ing.histogram_of_values([], [0.0, 30.0], "lifetime_days")
        _write_histogram(_outpath(args, "hist_lifetime.csv"), meta, empty)
    payload = {
        "n_hosts": len(records),
        "hardware_gflops": cap.hardware_flops(records),
        "lifetime_mean_days": life.mean_days if life else None,
        "lifetime_n_hosts": life.n_hosts if life else 0,
    }
    _write_json(_outpath(args, "stats.json"), meta, payload)
    print(f"stats: {len(records)} hosts summarized -> {args.out}")
    return 0


def cmd_capacity(args, meta: Mapping, factors: cap.CapacityFactors) -> int:
    hardware = cap.hardware_product(factors)
    util = cap.utilization_product(factors)
    potential = cap.potential_flops(factors)
    payload = {
        "hardware_gflops": hardware,
        "utilization": util,
        "potential_gflops": potential,
        "factors": dataclasses.asdict(factors),
    }
    if args.format == "csv":
        rows = [("hardware_gflops", hardware), ("utilization", util),
                ("potential_gflops", potential)]
        rows += sorted(payload["factors"].items())
        _write_csv(_outpath(args, "capacity.csv"), meta, ("name", "value"), zip(*rows))
    else:
        _write_json(_outpath(args, "capacity.json"), meta, payload)
    print(
        f"capacity: {potential:.1f} GFLOPS sustained "
        f"({hardware:.1f} GFLOPS hardware x {util:.6f} utilization)"
    )
    return 0


def cmd_sweep(args, meta: Mapping, source, grid, factors, per_host: bool) -> int:
    records = _records(source)
    total, unsaturated = cap.compute_vs_rate_curve(records, grid, factors, per_host)
    _write_csv(
        _outpath(args, "rate_curve.csv"),
        meta,
        ("data_rate", "total_gflops", "unsaturated_fraction"),
        (grid, total, unsaturated),
    )
    print(f"sweep: {len(grid)} grid points over {len(records)} hosts")
    return 0


def cmd_simulate(args, meta: Mapping, sim_cfg: simmod.SimConfig) -> int:
    report = simmod.run_simulation(sim_cfg)
    _write_json(_outpath(args, "sim_report.json"), meta, report.to_json_dict())
    _write_csv(
        _outpath(args, "timeline.csv"),
        meta,
        [f.name for f in dataclasses.fields(simmod.TimelineSample)],
        zip(*map(dataclasses.astuple, report.timeline)),
    )
    factors = simmod.factors_from_sim_config(sim_cfg)
    try:
        comparison = simmod.analytic_comparison(report, factors)
        payload = {"valid": True, **comparison}
    except ValueError as err:
        payload = {"valid": False, "reason": str(err)}
    _write_json(_outpath(args, "analytic_comparison.json"), meta, payload)
    print(
        f"simulate: {report.n_validated} validated of {report.n_workunits} "
        f"workunits, {report.achieved_gflops:.3f} GFLOPS sustained"
    )
    return 0


_COMMANDS = {
    "ingest": (read_ingest, cmd_ingest),
    "stats": (read_stats, cmd_stats),
    "capacity": (read_capacity, cmd_capacity),
    "sweep": (read_sweep, cmd_sweep),
    "simulate": (read_simulate, cmd_simulate),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args.config)
        read, run = _COMMANDS[args.command]
        try:
            settings = read(args, cfg)
        except ValueError as err:
            raise _UsageError(f"bad {args.command} config: {err}") from err
        return run(args, *settings)
    except (_UsageError, _DataError) as err:
        print(f"volpool: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
