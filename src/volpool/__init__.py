"""Capacity modeling toolkit for volunteer computing pools.

The package splits into six small modules:

- :mod:`volpool.hosts` - the columnar host table, which declares and checks
  the host fields, and the row record derived from it
- :mod:`volpool.population` - synthetic pools, churn and lifetime statistics
- :mod:`volpool.capacity` - closed-form capacity, storage and rate analysis
- :mod:`volpool.sim` - an event-driven simulation of a redundant project
- :mod:`volpool.ingest` - host CSV parsing, serialization and summaries
- :mod:`volpool.presets` - a calibrated reference population
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
from .hosts import HostRecord, HostTable
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
    QuorumDecision,
    ResultOutcome,
    ResultRecord,
    SimConfig,
    SimReport,
    TaskSpec,
    analytic_comparison,
    factors_from_sim_config,
    run_simulation,
    validate_quorum,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityFactors",
    "ChurnModel",
    "EmpiricalDistribution",
    "HostRecord",
    "HostTable",
    "PoolSpec",
    "QuorumDecision",
    "ResultOutcome",
    "ResultRecord",
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
    "validate_quorum",
    "write_hosts_csv",
]
