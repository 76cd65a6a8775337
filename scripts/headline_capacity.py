#!/usr/bin/env python3
"""Print the closed-form capacity table for the reference host population.

Walks the analysis end to end: hardware product, utilization factors,
sustained computing potential, aggregate free disk, and the two bulk access
rates, each at full snapshot scale.
"""

import argparse

from volpool import presets
from volpool.capacity import (
    access_rate,
    hardware_product,
    potential_flops,
    storage_potential,
    utilization_product,
)
from volpool.population import generate_pool
from volpool.units import GB_PER_PB


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-hosts", type=int, default=presets.SNAPSHOT_N_HOSTS,
                    help="synthetic pool size for the per-host aggregates")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    factors = presets.reference_capacity_factors()
    hardware = hardware_product(factors)
    util = utilization_product(factors)
    print(f"hardware product     {hardware:>12.0f} GFLOPS")
    for name in ("cpu_efficiency", "on_fraction", "active_fraction",
                 "resource_share"):
        print(f"  x {name:<18} {getattr(factors, name):>6.3f}")
    print(f"  / redundancy         {factors.redundancy:>6.3f}")
    print(f"utilization product  {util:>12.6f}")
    print(f"sustained potential  {potential_flops(factors):>12.0f} GFLOPS")

    pool = generate_pool(
        presets.reference_pool_spec(n_hosts=args.n_hosts, seed=args.seed)
    )
    scale = presets.SNAPSHOT_N_HOSTS / max(len(pool), 1)
    disk_pb = storage_potential(pool) * scale / GB_PER_PB
    net = access_rate(pool, factors, mode="network") * scale
    disk_rate = access_rate(pool, factors, mode="disk", per_host_disk_rate=20.0) * scale
    print(f"free disk            {disk_pb:>12.2f} PB")
    print(f"network access rate  {net / 1e9:>12.2f} GB/s")
    print(f"disk access rate     {disk_rate / 1e12:>12.2f} TB/s")


if __name__ == "__main__":
    main()
