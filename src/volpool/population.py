"""Synthetic host populations and churn.

Three building blocks live here: resampling distributions fitted from data
(or built from a parametric shape), a churn model pairing an arrival rate
with a lifetime distribution, and a pool specification that deterministically
expands into a ``HostTable`` under a 64-bit seed.

Generation is marginal-by-marginal: every numeric field draws independently
unless a rank-correlation hook couples a pair. Categorical fields draw from
explicit weight tables. The same spec and seed always produce the same pool,
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from . import config, ingest
from .hosts import (
    FRACTION_FIELDS,
    INT_FIELDS,
    NUMERIC_FIELDS,
    Categorical,
    CpuVendor,
    HostTable,
    Numbered,
    OperatingSystem,
    Venue,
)
from .units import SECONDS_PER_DAY

# A host silent for this long is considered departed; anything younger is
# still censored and must not enter lifetime estimates.
CENSOR_DAYS = 30.0

USER_BUCKETS = (
    ("1", 1, 1),
    ("2-10", 2, 10),
    ("11-100", 11, 100),
    ("101-1000", 101, 1000),
    ("1000+", 1001, 3000),
)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """A distribution represented by its sorted sample vector.

    ``quantile`` inverts the empirical CDF: a uniform draw picks one of the
    stored samples, each with equal probability, so the mean of the draws is
    the mean of the stored samples.
    """

    sorted_samples: tuple[float, ...]

    def __post_init__(self):
        if len(self.sorted_samples) == 0:
            raise ValueError("no data to fit")
        if any(
            a > b for a, b in zip(self.sorted_samples, self.sorted_samples[1:])
        ):
            raise ValueError("samples are not sorted ascending")

    @cached_property
    def _array(self) -> np.ndarray:
        return np.asarray(self.sorted_samples, dtype=float)

    def quantile(self, u):
        """Inverse CDF at u in [0, 1); accepts scalars or arrays."""
        arr = self._array
        n = len(arr)
        u = np.asarray(u, dtype=float)
        if u.size and not (0.0 <= u.min() and u.max() < 1.0):  # NaN fails too
            raise ValueError("quantile argument outside [0, 1)")
        out = arr[np.minimum((u * n).astype(np.int64), n - 1)]
        return out if out.ndim else float(out)

    @classmethod
    def from_lognormal(
        cls, mean: float, cv: float, n: int = 1024
    ) -> "EmpiricalDistribution":
        """Deterministic lognormal-shaped sample vector with an exact mean.

        Builds n mid-quantiles of a lognormal with the given coefficient of
        variation, then rescales so the sample mean lands on ``mean``
        exactly. No randomness involved.
        """
        if mean <= 0:
            raise ValueError("mean must be positive")
        if cv <= 0:
            raise ValueError("cv must be positive")
        sigma = math.sqrt(math.log(1.0 + cv * cv))
        norm = NormalDist()
        z = [norm.inv_cdf((i + 0.5) / n) for i in range(n)]
        with np.errstate(over="ignore", invalid="ignore"):
            raw = np.exp(sigma * np.asarray(z))
            scaled = raw * (mean / float(np.mean(raw)))
        if not np.isfinite(scaled).all():  # a host table holds no infinite size
            raise ValueError("lognormal samples overflow: lower the mean or cv")
        return cls(tuple(float(v) for v in scaled))


@dataclass(frozen=True)
class ChurnModel:
    """Arrival process plus lifetime distribution for a host pool.

    ``arrival_rate`` is either a constant in hosts/day or a piecewise-constant
    schedule ((start_day, rate), ...) with the first segment starting at day
    zero; a constant r is stored as the schedule ((0.0, r),). Lifetimes are
    exponential with the given mean.
    """

    arrival_rate: float | tuple[tuple[float, float], ...] = 0.0
    lifetime_mean_days: float = 91.0

    def __post_init__(self):
        rate = self.arrival_rate
        segs = ((0.0, rate),) if isinstance(rate, (int, float)) else tuple(rate)
        object.__setattr__(self, "arrival_rate", segs)
        if not segs or segs[0][0] != 0.0:
            raise ValueError("piecewise arrival schedule must start at day 0")
        starts = [s for s, _ in segs]
        if starts != sorted(starts):
            raise ValueError("arrival schedule segments out of order")
        if any(r < 0 for _, r in segs):
            raise ValueError("arrival_rate is negative")
        if self.lifetime_mean_days <= 0:
            raise ValueError("lifetime_mean_days must be positive")

    def _segments(self, duration: float) -> list[tuple[float, float, float]]:
        segs = self.arrival_rate
        out = []
        for i, (start, rate) in enumerate(segs):
            end = segs[i + 1][0] if i + 1 < len(segs) else duration
            if start >= duration:
                break
            out.append((start, min(end, duration), float(rate)))
        return out

    def mean_arrival_rate(self, duration: float) -> float:
        """Time-averaged arrival rate over [0, duration] days."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        total = sum((e - s) * r for s, e, r in self._segments(duration))
        return total / duration

    def arrival_times(self, duration: float, rng: np.random.Generator) -> list[float]:
        """Poisson arrival instants in days over [0, duration)."""
        times: list[float] = []
        for start, end, rate in self._segments(duration):
            if rate <= 0:
                continue
            t = start
            scale = 1.0 / rate
            while True:
                t += rng.exponential(scale)
                if t >= end:
                    break
                times.append(t)
        return times

    def sample_lifetimes(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(self.lifetime_mean_days, n)


# tz_offset may be negative; everything else non-negative.
_SIGNED_FIELDS = frozenset({"tz_offset"})


def _finish(name: str, values: np.ndarray) -> np.ndarray:
    """The host values that a field's generator values become.

    Fractions are clipped to [0, 1], every other field except ``tz_offset``
    is floored at 0, integer fields are rounded, and ``n_cpus`` is raised to
    at least 1. The result stays float; ``generate_pool`` casts the integer
    columns.
    """
    if name in FRACTION_FIELDS:
        values = np.clip(values, 0.0, 1.0)
    elif name not in _SIGNED_FIELDS:
        values = np.maximum(values, 0.0)
    if name in INT_FIELDS:
        values = np.rint(values)
    if name == "n_cpus":
        values = np.maximum(values, 1)
    return values


@dataclass(frozen=True)
class PoolSpec:
    """Deterministic recipe for a synthetic pool.

    ``field_generators`` maps every numeric host field to a constant or an
    EmpiricalDistribution; each drawn value becomes a host value through
    ``_finish``, and ``field_mean`` is the exact mean of those host values.
    Categorical weights need not be normalised; they only need a positive
    sum. Every host gets its own user; ``assign_users`` groups hosts into
    multi-host users. The optional ``rank_correlations``
    entries (field_a, field_b, weight) couple two fields through a mixture
    copula: with probability ``weight`` field_b reuses field_a's uniform
    draw, so the rank correlation equals the weight. field_a must come before
    field_b in ``NUMERIC_FIELDS``, the order the fields are drawn in.
    """

    n_hosts: int
    seed: int
    field_generators: Mapping[str, object]
    vendor_weights: Mapping[CpuVendor, float] = field(
        default_factory=lambda: {CpuVendor.OTHER: 1.0}
    )
    os_weights: Mapping[OperatingSystem, float] = field(
        default_factory=lambda: {OperatingSystem.OTHER: 1.0}
    )
    country_weights: Mapping[str, float] = field(
        default_factory=lambda: {"Other": 1.0}
    )
    venue_weights: Mapping[Venue, float] = field(
        default_factory=lambda: {Venue.NONE: 1.0}
    )
    rank_correlations: tuple[tuple[str, str, float], ...] = ()

    def __post_init__(self):
        if self.n_hosts < 0:
            raise ValueError("n_hosts is negative")
        if self.seed < 0:
            raise ValueError("seed is negative")
        missing = [f for f in NUMERIC_FIELDS if f not in self.field_generators]
        if missing:
            raise ValueError(f"field_generators missing {missing}")
        for name, weights in (
            ("vendor_weights", self.vendor_weights),
            ("os_weights", self.os_weights),
            ("country_weights", self.country_weights),
            ("venue_weights", self.venue_weights),
        ):
            if any(w < 0 for w in weights.values()):
                raise ValueError(f"{name} has a negative weight")
        for name in ("vendor", "os", "country", "venue"):
            total = sum(getattr(self, f"{name}_weights").values())
            if total <= 0:
                raise ValueError(f"{name} weights sum to zero")
            if not math.isfinite(total):
                raise ValueError(f"{name} weights do not sum to a finite number")
        seen = set()
        for a, b, w in self.rank_correlations:
            if not (0.0 <= w <= 1.0):
                raise ValueError("rank correlation weight outside [0, 1]")
            if a not in NUMERIC_FIELDS or b not in NUMERIC_FIELDS:
                raise ValueError("rank correlation names unknown field")
            if a == b or a in seen or b in seen:
                raise ValueError("each field may appear in one correlated pair")
            if NUMERIC_FIELDS.index(a) > NUMERIC_FIELDS.index(b):
                raise ValueError(
                    f"rank correlation ({a!r}, {b!r}): {a} is drawn after {b}; "
                    "the source must come first in the field order"
                )
            seen.update((a, b))
        for name in INT_FIELDS:
            held = self._finished_support(name)
            # NaN fails the test too
            if not np.all((held >= -(2.0**63)) & (held < 2.0**63)):
                raise ValueError(f"{name} values outside the int64 range")

    def _finished_support(self, name: str) -> np.ndarray:
        """The values a field's column can hold: each stored value of its
        generator (a constant is one stored value), finished."""
        gen = self.field_generators[name]
        if isinstance(gen, EmpiricalDistribution):
            support = gen._array
        else:
            support = np.array([float(gen)])
        return _finish(name, support)

    def field_mean(self, name: str) -> float:
        """Mean of the values a field's column holds, rounded and clamped.

        Every draw picks one stored value of the generator (a constant is one
        stored value) with equal probability, so the mean of the finished
        stored values is the column's exact mean. The cross-field rules of
        ``generate_pool`` (``disk_free`` at most ``disk_total``,
        ``last_contact`` at least ``created``) are not applied.
        """
        return float(np.mean(self._finished_support(name)))


def _categorical(rng, weights: Mapping, n: int) -> Categorical:
    keys = list(weights.keys())
    w = np.asarray([float(weights[k]) for k in keys], dtype=float)
    return Categorical(rng.choice(len(keys), size=n, p=w / w.sum()), keys)


def generate_pool(spec: PoolSpec) -> HostTable:
    """Expand a pool spec into a host table, bit-identical per seed.

    One pass over ``NUMERIC_FIELDS``: each field draws its uniform column (a
    correlated field draws a mix column and then a fresh one) and finishes its
    host values at once. The one uniform held past its own field is a rank
    correlation's source, which its target, later in the field order,
    reuses; the target's draw then lets it go. A constant outside every
    correlated pair reads no uniform, so it advances the generator past its
    column instead of drawing it, which leaves every later draw where it
    was; its value is finished once and fills the column. The label columns
    draw last.
    """
    n = spec.n_hosts
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

    reuse = {b: (a, w) for a, b, w in spec.rank_correlations}
    sources = {a for a, _, _ in spec.rank_correlations}
    paired = sources | reuse.keys()
    uniforms: dict[str, np.ndarray] = {}
    columns: dict[str, np.ndarray] = {}
    for name in NUMERIC_FIELDS:
        gen = spec.field_generators[name]
        empirical = isinstance(gen, EmpiricalDistribution)
        if empirical or name in paired:
            u = rng.random(n)
            if name in reuse:
                source, weight = reuse[name]
                u = np.where(u < weight, uniforms.pop(source), rng.random(n))
            if name in sources:
                uniforms[name] = u
        else:
            rng.bit_generator.advance(n)  # one 64-bit step per double
        if empirical:
            values = _finish(name, gen.quantile(u))
        else:
            values = np.full(n, spec._finished_support(name)[0])
        columns[name] = values.astype(np.int64) if name in INT_FIELDS else values

    columns["disk_free"] = np.minimum(columns["disk_free"], columns["disk_total"])
    columns["last_contact"] = np.maximum(columns["last_contact"], columns["created"])

    return HostTable(
        host_id=Numbered("h", n),
        user_id=Categorical(np.arange(n), Numbered("u", n)),
        cpu_vendor=_categorical(rng, spec.vendor_weights, n),
        os=_categorical(rng, spec.os_weights, n),
        country=_categorical(rng, spec.country_weights, n),
        venue=_categorical(rng, spec.venue_weights, n),
        **columns,
    )


def _apportion(weights: Sequence[float], total: int) -> list[int]:
    """Largest-remainder split of ``total`` items proportional to weights."""
    wsum = sum(weights)
    if wsum <= 0:
        raise ValueError("ownership weights sum to zero")
    quotas = [w / wsum * total for w in weights]
    counts = [int(q) for q in quotas]
    leftover = total - sum(counts)
    order = sorted(
        range(len(weights)), key=lambda i: (quotas[i] - counts[i], -i), reverse=True
    )
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def assign_users(
    pool: HostTable,
    weights: Mapping[str, float],
    seed: int,
) -> HostTable:
    """Group hosts into users so each ownership bucket owns its weight of hosts.

    The pool is partitioned into contiguous bucket chunks by largest-remainder
    apportionment; within a chunk, user sizes draw uniformly from the bucket's
    range. The tail of a chunk is reshaped so the final users stay inside the
    bucket's bounds whenever the chunk is big enough to allow it, keeping
    recovered bucket shares faithful to the weights. Host order is preserved;
    only the user id column changes.
    """
    if len(pool) == 0:
        return pool
    by_bucket = {b: (lo, hi) for b, lo, hi in USER_BUCKETS}
    for b in weights:
        if b not in by_bucket:
            raise ValueError(f"unknown ownership bucket: {b!r}")
    labels = [b for b, _, _ in USER_BUCKETS]
    w = [float(weights.get(b, 0.0)) for b in labels]
    if any(x < 0 for x in w):
        raise ValueError("ownership weights must be non-negative")
    counts = _apportion(w, len(pool))

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sizes: list[int] = []
    for label, chunk in zip(labels, counts):
        lo, hi = by_bucket[label]
        remaining = chunk
        while remaining > 0:
            size = min(int(rng.integers(lo, hi + 1)), remaining)
            # never leave a tail smaller than the bucket minimum
            if 0 < remaining - size < lo:
                if remaining <= hi:
                    size = remaining
                else:
                    size = remaining - lo
            sizes.append(size)
            remaining -= size
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return replace(pool, user_id=Categorical(owner, Numbered("u", len(sizes))))


@dataclass(frozen=True)
class LifetimeStats:
    """Lifetime summary over hosts no longer reporting."""

    mean_days: float
    n_hosts: int
    histogram: "ingest.Histogram"


def lifetime_stats(
    records: HostTable,
    now: float,
    bin_edges: Sequence[float] | None = None,
) -> LifetimeStats:
    """Mean and histogram of host lifetimes, censoring-aware.

    Only hosts silent for at least CENSOR_DAYS before ``now`` count; their
    lifetime is last_contact minus created. Default bins are 30-day wide.
    """
    last = records.last_contact
    gone = (now - last) / SECONDS_PER_DAY >= CENSOR_DAYS
    lifetimes = (last[gone] - records.created[gone]) / SECONDS_PER_DAY
    if len(lifetimes) == 0:
        raise ValueError("all hosts censored")
    if bin_edges is None:
        top = float(lifetimes.max())
        n_bins = max(1, math.ceil((top + 1e-9) / CENSOR_DAYS))
        bin_edges = [CENSOR_DAYS * i for i in range(n_bins + 1)]
    hist = ingest.histogram_of_values(lifetimes, bin_edges, "lifetime_days")
    return LifetimeStats(
        mean_days=float(np.mean(lifetimes)), n_hosts=len(lifetimes), histogram=hist
    )


def pool_spec_from_config(cfg: Mapping, default_seed: int) -> PoolSpec:
    """Build a PoolSpec from a JSON-shaped dict, filling gaps from presets."""
    from . import presets

    where = "pool option"
    config.section(cfg, where, (
        "n_hosts", "seed", "fields", "vendor_weights", "os_weights",
        "country_weights", "venue_weights",
    ))
    n_hosts = config.count(cfg, "n_hosts", 10000, where)
    config.within_limit(n_hosts, f"{where} 'n_hosts'")
    base = presets.reference_pool_spec(
        n_hosts=n_hosts, seed=config.count(cfg, "seed", default_seed, where)
    )
    gens = dict(base.field_generators)
    field_cfg = config.section(cfg.get("fields", {}), "numeric field", NUMERIC_FIELDS)
    for name, genspec in field_cfg.items():
        gens[name] = _generator_from_config(name, genspec)

    def weights(key, label, default):
        if key not in cfg:
            return default
        table = config.section(cfg[key], f"{key} label", None)
        return {label(k): config.number(table, k, None, key) for k in table}

    return replace(
        base,
        field_generators=gens,
        vendor_weights=weights("vendor_weights", CpuVendor, base.vendor_weights),
        os_weights=weights("os_weights", OperatingSystem, base.os_weights),
        country_weights=weights("country_weights", str, base.country_weights),
        venue_weights=weights("venue_weights", Venue, base.venue_weights),
    )


def _generator_from_config(name: str, genspec):
    if isinstance(genspec, (int, float)):
        return config.real(genspec, f"field {name!r}")
    where = f"{name} generator option"
    if isinstance(genspec, Mapping) and "lognormal" in genspec:
        config.section(genspec, where, ("lognormal",))
        p = config.section(genspec["lognormal"], "lognormal option", ("mean", "cv", "n"))
        n = config.count(p, "n", 1024, "lognormal option")
        config.within_limit(n, "lognormal option 'n'")
        return EmpiricalDistribution.from_lognormal(
            mean=config.number(p, "mean", None, "lognormal option"),
            cv=config.number(p, "cv", None, "lognormal option"),
            n=n,
        )
    if isinstance(genspec, Mapping) and isinstance(genspec.get("samples"), list):
        config.section(genspec, where, ("samples",))
        return EmpiricalDistribution(
            tuple(sorted(config.real(v, f"sample of {name!r}") for v in genspec["samples"]))
        )
    raise ValueError(f"bad generator spec for field {name!r}")
