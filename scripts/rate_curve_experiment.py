#!/usr/bin/env python3
"""Sweep sustained capacity against task data intensity and report knee points.

Generates a synthetic pool with the reference marginals, evaluates the
compute-versus-data-rate curve on a linear grid, writes it as CSV and prints
where capacity falls to 75/50/25/10 percent of the data-free potential.
"""

import argparse

import numpy as np

from volpool import presets
from volpool.capacity import compute_vs_rate_curve
from volpool.ingest import csv_blocks
from volpool.population import generate_pool


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-hosts", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--max-rate", type=float, default=500.0,
                    help="largest data rate on the grid, MB per 3.6e12 FLOP")
    ap.add_argument("--points", type=int, default=101)
    ap.add_argument("--per-host-factors", action="store_true",
                    help="weight each host by its own availability fields")
    ap.add_argument("--out", default="rate_curve.csv")
    args = ap.parse_args()

    pool = generate_pool(
        presets.reference_pool_spec(n_hosts=args.n_hosts, seed=args.seed)
    )
    factors = presets.reference_capacity_factors()
    grid = np.linspace(0.0, args.max_rate, args.points)
    total, unsaturated = compute_vs_rate_curve(
        pool, grid, factors, per_host_factors=args.per_host_factors
    )

    blocks = csv_blocks(
        ("data_rate", "total_gflops", "unsaturated_fraction"), (grid, total, unsaturated)
    )
    with open(args.out, "w", newline="") as fh:
        fh.writelines(blocks)

    top = total[0]
    print(f"{len(pool)} hosts, potential {top:.0f} GFLOPS at R=0 -> {args.out}")
    for frac in (0.75, 0.50, 0.25, 0.10):
        knees = np.flatnonzero(total <= frac * top)
        if not len(knees):
            print(f"  never falls to {frac:.0%} on this grid")
        else:
            knee = knees[0]
            print(
                f"  {frac:.0%} of potential at R ~ {grid[knee]:.1f} "
                f"({unsaturated[knee]:.1%} of hosts still CPU-bound)"
            )


if __name__ == "__main__":
    main()
