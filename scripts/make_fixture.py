#!/usr/bin/env python3
"""Generate a host CSV fixture for the ingest and stats commands.

Draws a synthetic population with the reference marginals, optionally with
per-vendor speed scales and a realistic hosts-per-user assignment, and writes
it in the canonical host CSV schema.
"""

import argparse

from volpool import presets
from volpool.ingest import write_hosts_csv
from volpool.population import assign_users, generate_pool


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-hosts", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--vendor-conditional", action="store_true",
                    help="draw speed per CPU vendor instead of one pooled scale")
    ap.add_argument("--assign-users", action="store_true",
                    help="group hosts under users with the ownership buckets")
    ap.add_argument("--out", default="hosts.csv")
    args = ap.parse_args(argv)

    if args.vendor_conditional:
        pool = presets.vendor_conditional_pool(args.n_hosts, seed=args.seed)
    else:
        pool = generate_pool(
            presets.reference_pool_spec(n_hosts=args.n_hosts, seed=args.seed)
        )
    if args.assign_users:
        pool = assign_users(pool, presets.HOSTS_PER_USER_PCT, seed=args.seed)

    write_hosts_csv(pool, args.out, header_comment=f"synthetic fixture seed={args.seed}")
    users = len(set(pool.user_id.tolist()))
    print(f"{len(pool)} hosts across {users} users -> {args.out}")


if __name__ == "__main__":
    main()
