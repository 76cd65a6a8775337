"""Capacity modeling toolkit for volunteer computing pools.

The package splits into ten small modules:

- :mod:`volpool.hosts` - the columnar host table, which declares and checks
  the host fields
- :mod:`volpool.units` - unit constants and conversions
- :mod:`volpool.population` - synthetic pools, churn and lifetime statistics
- :mod:`volpool.presets` - a calibrated reference population
- :mod:`volpool.capacity` - closed-form capacity, storage and rate analysis
- :mod:`volpool.sim` - an event-driven simulation of a redundant project
- :mod:`volpool.traces` - the simulated hosts' availability traces
- :mod:`volpool.ingest` - host CSV parsing, serialization and summaries
- :mod:`volpool.config` - the checked reader of every JSON config
- :mod:`volpool.cli` - the ``volpool`` command line
"""

from .capacity import (
    CapacityFactors,
    compute_vs_rate_curve,
    critical_data_rate,
    hardware_flops,
    hardware_product,
    potential_flops,
    storage_potential,
    utilization_product,
)
from .hosts import HostTable
from .ingest import parse_hosts, serialize_hosts, write_hosts_csv
from .population import (
    ChurnModel,
    EmpiricalDistribution,
    PoolSpec,
    assign_users,
    generate_pool,
    lifetime_stats,
)
from .sim import (
    SimConfig,
    SimReport,
    TaskSpec,
    analytic_comparison,
    factors_from_sim_config,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityFactors",
    "ChurnModel",
    "EmpiricalDistribution",
    "HostTable",
    "PoolSpec",
    "SimConfig",
    "SimReport",
    "TaskSpec",
    "analytic_comparison",
    "assign_users",
    "compute_vs_rate_curve",
    "critical_data_rate",
    "factors_from_sim_config",
    "generate_pool",
    "hardware_flops",
    "hardware_product",
    "lifetime_stats",
    "parse_hosts",
    "potential_flops",
    "run_simulation",
    "serialize_hosts",
    "storage_potential",
    "utilization_product",
    "write_hosts_csv",
]
