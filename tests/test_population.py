"""Synthetic pool generation, churn and lifetime statistics.

Statistical assertions bound the Monte-Carlo error explicitly: resampling a
stored quantile vector has the vector's own variance, so three standard
errors of its standard deviation make an honest tolerance.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from volpool import population as pop
from volpool import presets
from volpool.hosts import (
    FRACTION_FIELDS,
    INT_FIELDS,
    NUMERIC_FIELDS,
    Categorical,
    CpuVendor,
    HostTable,
    OperatingSystem,
    Venue,
)
from volpool.ingest import Histogram
from volpool.population import (
    CENSOR_DAYS,
    ChurnModel,
    EmpiricalDistribution,
    PoolSpec,
    assign_users,
    generate_pool,
    lifetime_stats,
    pool_spec_from_config,
)
from volpool.units import SECONDS_PER_DAY

from conftest import flat_spec, host_rows, host_table


def three_sigma_of_mean(dist: EmpiricalDistribution, n: int) -> float:
    return 3.0 * float(np.std(np.asarray(dist.sorted_samples))) / math.sqrt(n)


# -- empirical distributions -----------------------------------------------------


def test_distribution_rejects_bad_vectors():
    with pytest.raises(ValueError, match="no data"):
        EmpiricalDistribution(())
    with pytest.raises(ValueError, match="not sorted"):
        EmpiricalDistribution((2.0, 1.0))


def test_resampling_returns_stored_samples_only():
    dist = EmpiricalDistribution((1.0, 2.0, 7.0))
    rng = np.random.default_rng(0)
    draws = dist.quantile(rng.random(500))
    assert set(np.unique(draws)) <= {1.0, 2.0, 7.0}
    assert isinstance(dist.quantile(rng.random()), float)


def test_quantile_domain():
    dist = EmpiricalDistribution((1.0, 2.0))
    with pytest.raises(ValueError, match="quantile argument"):
        dist.quantile(1.0)
    with pytest.raises(ValueError, match="quantile argument"):
        dist.quantile(-0.01)
    with pytest.raises(ValueError, match="quantile argument"):
        dist.quantile(math.nan)
    with pytest.raises(ValueError, match="quantile argument"):
        dist.quantile(np.array([0.2, math.nan, 0.5]))
    assert dist.quantile(0.0) == 1.0
    assert dist.quantile(0.999) == 2.0


def test_from_lognormal_hits_mean_exactly():
    dist = EmpiricalDistribution.from_lognormal(mean=289.0, cv=1.2)
    assert np.mean(dist.sorted_samples) == pytest.approx(289.0, rel=1e-12)
    # deterministic construction
    again = EmpiricalDistribution.from_lognormal(mean=289.0, cv=1.2)
    assert dist.sorted_samples == again.sorted_samples
    with pytest.raises(ValueError, match="mean must be positive"):
        EmpiricalDistribution.from_lognormal(mean=0.0, cv=1.0)
    with pytest.raises(ValueError, match="cv must be positive"):
        EmpiricalDistribution.from_lognormal(mean=1.0, cv=0.0)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be at least 1"):
            EmpiricalDistribution.from_lognormal(mean=1.0, cv=1.0, n=n)


def test_generate_then_fit_closure(reference_pool_20k):
    """Column means land within 3 sigma of each generator's mean."""
    spec = presets.reference_pool_spec(n_hosts=20000, seed=7)
    n = len(reference_pool_20k)
    for name in ("flops_per_cpu", "ram", "swap", "throughput_down"):
        gen = spec.field_generators[name]
        mean = float(np.mean(reference_pool_20k.column(name)))
        tol = three_sigma_of_mean(gen, n)
        assert abs(mean - spec.field_mean(name)) <= tol, name


def test_throughput_fit_within_2pct():
    pool = generate_pool(presets.reference_pool_spec(n_hosts=10000, seed=3))
    mean = float(np.mean(pool.column("throughput_down")))
    assert mean == pytest.approx(289.0, rel=0.02)


# the fields the capacity prediction reads from a pool spec
PREDICTED_FIELDS = ("n_cpus", "flops_per_cpu", *FRACTION_FIELDS)
# negatives, fractions above 1 and fractional CPU counts all reach the rounding
# and clamping that generate_pool applies; rounded, since a subnormal value
# would underflow the standard error
_values = st.floats(-2.0, 3.0).map(lambda v: round(v, 3))
_generators = st.one_of(
    _values,
    st.lists(_values, min_size=1, max_size=6).map(
        lambda v: EmpiricalDistribution(tuple(sorted(v)))
    ),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(gens=st.fixed_dictionaries({}, optional={n: _generators for n in PREDICTED_FIELDS}))
@example(gens={"n_cpus": 0.2})
@example(gens={"on_fraction": EmpiricalDistribution((0.3, 1.7))})
def test_field_mean_is_the_mean_of_the_generated_column(gens):
    """field_mean is the mean of the values the hosts hold, after rounding and
    clamping: within 5 standard errors of a 20,000-host column's mean."""
    base = flat_spec(20000, seed=11)
    spec = PoolSpec(
        n_hosts=base.n_hosts, seed=base.seed,
        field_generators={**base.field_generators, **gens},
    )
    pool = generate_pool(spec)
    for name in PREDICTED_FIELDS:
        col = pool.column(name).astype(float)
        tol = 5.0 * float(np.std(col)) / math.sqrt(len(col))
        assert spec.field_mean(name) == pytest.approx(np.mean(col), rel=1e-12, abs=tol), name


def test_reference_factors_match_the_reference_pool():
    """The two preset descriptions of the snapshot agree on every mean the
    capacity product reads."""
    factors = presets.reference_capacity_factors()
    spec = presets.reference_pool_spec(n_hosts=10, seed=1)
    assert factors.mean_ncpus == spec.field_mean("n_cpus")
    assert factors.mean_flops_per_cpu == spec.field_mean("flops_per_cpu")
    for name in FRACTION_FIELDS:
        assert getattr(factors, name) == spec.field_mean(name), name


# -- pool generation ---------------------------------------------------------------


def test_empty_pool():
    assert len(generate_pool(flat_spec(0, seed=1))) == 0


def test_generation_is_deterministic():
    spec = presets.reference_pool_spec(n_hosts=300, seed=42)
    assert generate_pool(spec) == generate_pool(spec)


def test_different_seeds_differ():
    a = generate_pool(presets.reference_pool_spec(n_hosts=50, seed=1))
    b = generate_pool(presets.reference_pool_spec(n_hosts=50, seed=2))
    assert a != b


def test_generated_records_satisfy_invariants(reference_pool_2k):
    for h in host_rows(reference_pool_2k):
        assert h["disk_free"] <= h["disk_total"]
        assert 0.0 <= h["on_fraction"] <= 1.0
        assert h["n_cpus"] >= 1
        assert h["last_contact"] >= h["created"]


def test_spec_validation():
    gens = dict(flat_spec(1, 1).field_generators)
    del gens["ram"]
    with pytest.raises(ValueError, match="field_generators missing"):
        PoolSpec(n_hosts=1, seed=1, field_generators=gens)
    with pytest.raises(ValueError, match="negative weight"):
        PoolSpec(
            n_hosts=1,
            seed=1,
            field_generators=flat_spec(1, 1).field_generators,
            vendor_weights={CpuVendor.INTEL: -1.0},
        )


def test_rank_correlation_validation():
    gens = flat_spec(1, 1).field_generators
    with pytest.raises(ValueError, match="weight outside"):
        PoolSpec(1, 1, gens, rank_correlations=(("ram", "swap", 1.5),))
    with pytest.raises(ValueError, match="unknown field"):
        PoolSpec(1, 1, gens, rank_correlations=(("ram", "speed", 0.5),))
    with pytest.raises(ValueError, match="one correlated pair"):
        PoolSpec(
            1, 1, gens,
            rank_correlations=(("ram", "swap", 0.5), ("swap", "disk_free", 0.5)),
        )
    # the target draws before its source: generate_pool had no uniform to reuse
    with pytest.raises(ValueError, match="'disk_free', 'disk_total'.*drawn after"):
        PoolSpec(1, 1, gens, rank_correlations=(("disk_free", "disk_total", 0.5),))


def test_zero_weight_categorical_errors():
    with pytest.raises(ValueError, match="weights sum to zero"):
        PoolSpec(
            n_hosts=3,
            seed=1,
            field_generators=flat_spec(3, 1).field_generators,
            vendor_weights={CpuVendor.OTHER: 0.0},
        )


@st.composite
def _label_weights(draw):
    """1-300 label weights: positive ones from 1e-300 to 1, and zeros placed
    first, in the middle and last."""
    positive = st.sampled_from([1e-300, 1e-150, 1e-17, 0.25, 0.5, 1.0]) | st.floats(1e-300, 1.0)
    weights = draw(st.lists(positive, min_size=1, max_size=297))
    for where in draw(st.lists(st.sampled_from(["first", "middle", "last"]), max_size=3)):
        weights.insert({"first": 0, "middle": len(weights) // 2, "last": len(weights)}[where], 0.0)
    return weights


_SNAPSHOT_COUNTRIES = [float(c) for c in presets.COUNTRY_TABLE.values()]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(weights=_label_weights(), n=st.integers(0, 20_000), seed=st.integers(0, 2**32 - 1))
# cumulative weights on the grid's cell edges
@example(weights=[1.0] * 4, n=5000, seed=0)
@example(weights=[0.0, 1.0, 0.0, 1.0, 0.0], n=1024, seed=1)
# the largest table, and the one-cell table, crossed and not
@example(weights=_SNAPSHOT_COUNTRIES, n=300_000, seed=2)
@example(weights=_SNAPSHOT_COUNTRIES, n=127, seed=2)
@example(weights=[0.0, 0.0, 3.0], n=127, seed=3)
def test_categorical_draws_the_codes_of_generator_choice(weights, n, seed):
    """A label column is ``Generator.choice``'s draw: the same codes from an
    identically seeded generator, left in the same state."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = pop._categorical(rng, dict(enumerate(weights)), n)
    p = np.array(weights)
    want = ref.choice(len(p), size=n, p=p / p.sum())
    assert np.array_equal(got.codes, want)
    assert rng.random() == ref.random()


def test_vendor_shares_match_weights():
    """Categorical draws reproduce explicit weight tables within 1% absolute."""
    weights = {
        CpuVendor.INTEL: 217278.0,
        CpuVendor.AMD: 95958.0,
        CpuVendor.POWERPC: 15827.0,
        CpuVendor.SPARC: 1035.0,
        CpuVendor.OTHER: 1687.0,
    }
    total = sum(weights.values())
    spec = PoolSpec(
        n_hosts=100_000,
        seed=3,
        field_generators=flat_spec(1, 1).field_generators,
        vendor_weights=weights,
    )
    pool = generate_pool(spec)
    counts = Counter(pool.cpu_vendor.tolist())
    for vendor, w in weights.items():
        share = counts[vendor] / len(pool)
        assert abs(share - w / total) < 0.01, vendor


def test_full_rank_coupling_is_comonotone():
    spec = PoolSpec(
        n_hosts=2000,
        seed=9,
        field_generators={
            **flat_spec(1, 1).field_generators,
            "disk_total": EmpiricalDistribution.from_lognormal(63.0, 1.0),
            "disk_free": EmpiricalDistribution.from_lognormal(36.0, 1.0),
        },
        rank_correlations=(("disk_total", "disk_free", 1.0),),
    )
    pool = generate_pool(spec)
    total, free = pool.disk_total, pool.disk_free
    # same uniform drives both quantiles: ranks agree and the clamp never fires
    assert np.all(free <= total)
    order = np.argsort(total, kind="stable")
    assert np.all(np.diff(free[order]) >= 0)


def test_reference_disk_free_mean_survives_clamp(reference_pool_20k):
    spec = presets.reference_pool_spec(n_hosts=20000, seed=7)
    gen = spec.field_generators["disk_free"]
    mean = float(np.mean(reference_pool_20k.disk_free))
    assert abs(mean - 36.0) <= three_sigma_of_mean(gen, len(reference_pool_20k))


def two_pass_pool(spec: PoolSpec) -> HostTable:
    """``generate_pool`` from its definition, every uniform drawn first.

    One uniform column per field in ``NUMERIC_FIELDS`` order; a correlated
    field draws a mix column and then a fresh one, and takes its source's
    uniform where the mix is below the weight. Each column is then its
    generator at its uniform, finished: fractions clipped to [0, 1], the
    other fields but ``tz_offset`` floored at 0, integer fields rounded, at
    least one CPU, free disk at most the disk, last contact no earlier than
    creation. The label columns draw last: vendor, os, country, venue.
    """
    n = spec.n_hosts
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    reuse = {b: (a, w) for a, b, w in spec.rank_correlations}
    uniforms = {}
    for name in NUMERIC_FIELDS:
        if name in reuse:
            source, weight = reuse[name]
            mix, fresh = rng.random(n), rng.random(n)
            uniforms[name] = np.where(mix < weight, uniforms[source], fresh)
        else:
            uniforms[name] = rng.random(n)
    columns = {}
    for name in NUMERIC_FIELDS:
        gen = spec.field_generators[name]
        if isinstance(gen, EmpiricalDistribution):
            v = gen.quantile(uniforms[name])
        else:
            v = np.full(n, float(gen))
        if name in FRACTION_FIELDS:
            v = np.clip(v, 0.0, 1.0)
        elif name != "tz_offset":
            v = np.maximum(v, 0.0)
        if name in INT_FIELDS:
            v = np.rint(v)
        if name == "n_cpus":
            v = np.maximum(v, 1.0)
        columns[name] = v
    columns["disk_free"] = np.minimum(columns["disk_free"], columns["disk_total"])
    columns["last_contact"] = np.maximum(columns["last_contact"], columns["created"])
    for name, weights in (("cpu_vendor", spec.vendor_weights), ("os", spec.os_weights),
                          ("country", spec.country_weights), ("venue", spec.venue_weights)):
        p = np.array(list(weights.values()), dtype=float)
        columns[name] = Categorical(
            rng.choice(len(p), size=n, p=p / p.sum()), list(weights)
        )
    return HostTable(
        host_id=[f"h{i}" for i in range(n)], user_id=[f"u{i}" for i in range(n)], **columns
    )


_weights = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _correlated_specs(draw):
    """Reference label weights; any numeric field a constant or a short sample
    vector; 0-2 correlated pairs, each source before its target."""
    base = presets.reference_pool_spec(n_hosts=draw(st.integers(0, 30)),
                                       seed=draw(st.integers(0, 2**32 - 1)))
    gens = draw(st.fixed_dictionaries({}, optional={n: _generators for n in NUMERIC_FIELDS}))
    k = draw(st.integers(0, 2))
    fields = draw(st.lists(st.sampled_from(NUMERIC_FIELDS), unique=True,
                           min_size=2 * k, max_size=2 * k))
    pairs = tuple(
        (*sorted(fields[i:i + 2], key=NUMERIC_FIELDS.index), draw(_weights))
        for i in range(0, len(fields), 2)
    )
    return replace(base, field_generators={**base.field_generators, **gens},
                   rank_correlations=pairs)


_REFERENCE_25 = presets.reference_pool_spec(n_hosts=25, seed=3)


def _with(spec, pairs=(), **generators):
    """``spec`` with the given field generators and correlated pairs added."""
    return replace(spec, field_generators={**spec.field_generators, **generators},
                   rank_correlations=spec.rank_correlations + pairs)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(spec=_correlated_specs())
@example(spec=_REFERENCE_25)
# integer constants that round, one of them signed
@example(spec=_with(_REFERENCE_25, n_cpus=2.6, tz_offset=-3599.5))
# a constant as a pair's source, then as a pair's target
@example(spec=_with(_REFERENCE_25, (("n_cpus", "ram", 0.5),)))
@example(spec=_with(_REFERENCE_25, (("swap", "active_fraction", 0.5),)))
# label columns long enough for a guide table
@example(spec=replace(_REFERENCE_25, n_hosts=5000))
def test_one_pass_generation_matches_the_two_pass_draw(spec):
    assert generate_pool(spec) == two_pass_pool(spec)


def test_vendor_conditional_pool_scales_the_reference_speeds():
    """The same hosts as the reference pool, each vendor's speeds scaled by
    its mean over the pooled mean."""
    base = generate_pool(presets.reference_pool_spec(n_hosts=3000, seed=5))
    pool = presets.vendor_conditional_pool(3000, seed=5)
    ratio = {v: mean / presets.MEAN_FLOPS_PER_HOST
             for v, (_, mean) in presets.VENDOR_TABLE.items()}
    expect = base.flops_per_cpu * np.array([ratio[v] for v in base.cpu_vendor.tolist()])
    assert np.array_equal(pool.flops_per_cpu, expect)
    assert set(pool.cpu_vendor.tolist()) == set(presets.VENDOR_TABLE)
    assert replace(pool, flops_per_cpu=base.flops_per_cpu) == base


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=0, max_value=40), seed=st.integers(0, 2**32 - 1))
def test_generation_determinism_property(n, seed):
    spec = flat_spec(n, seed)
    assert generate_pool(spec) == generate_pool(spec)
    assert len(generate_pool(spec)) == n


# -- user assignment ---------------------------------------------------------------


def test_assign_users_single_host_bucket():
    pool = generate_pool(flat_spec(50, 1))
    out = assign_users(pool, {"1": 1.0}, seed=1)
    owners = Counter(out.user_id.tolist())
    assert all(n == 1 for n in owners.values())
    assert len(owners) == 50


def test_assign_users_two_hosts_share_one_user():
    pool = generate_pool(flat_spec(2, 1))
    for seed in range(10):
        out = assign_users(pool, {"2-10": 1.0}, seed=seed)
        assert len(set(out.user_id.tolist())) == 1


def test_assign_users_preserves_hosts_and_order():
    pool = generate_pool(flat_spec(200, 3))
    out = assign_users(pool, {"1": 1.0, "2-10": 2.0, "11-100": 1.0}, seed=4)
    assert out.host_id == pool.host_id
    assert len(out) == len(pool)


def test_assign_users_bucket_shares():
    """Recovered host shares per bucket track the weights within 1% absolute."""
    from volpool.ingest import hosts_per_user

    weights = {"1": 30.0, "2-10": 40.0, "11-100": 20.0, "101-1000": 10.0}
    pool = generate_pool(flat_spec(20000, 5))
    out = assign_users(pool, weights, seed=5)
    rows = {r.bucket: r for r in hosts_per_user(out)}
    for bucket, w in weights.items():
        assert abs(rows[bucket].pct_hosts - w) < 1.0, bucket
    assert sum(r.n_hosts for r in rows.values()) == len(pool)


def test_assign_users_tail_stays_in_bounds():
    """A chunk whose tail would undershoot the bucket minimum is reshaped."""
    pool = generate_pool(flat_spec(500, 2))
    out = assign_users(pool, {"11-100": 1.0}, seed=11)
    sizes = Counter(out.user_id.tolist())
    assert all(11 <= s <= 100 for s in sizes.values())


def test_assign_users_errors():
    pool = generate_pool(flat_spec(3, 1))
    empty = host_table([])
    assert len(assign_users(empty, {"1": 1.0}, seed=1)) == 0
    with pytest.raises(ValueError, match="unknown ownership bucket"):
        assign_users(pool, {"nope": 1.0}, seed=1)
    with pytest.raises(ValueError, match="non-negative"):
        assign_users(pool, {"1": -1.0}, seed=1)
    with pytest.raises(ValueError, match="sum to zero"):
        assign_users(pool, {"1": 0.0}, seed=1)


# -- churn -------------------------------------------------------------------------


def test_churn_validation():
    with pytest.raises(ValueError, match="arrival_rate is negative"):
        ChurnModel(arrival_rate=-1.0)
    with pytest.raises(ValueError, match="start at day 0"):
        ChurnModel(arrival_rate=((1.0, 5.0),))
    with pytest.raises(ValueError, match="out of order"):
        ChurnModel(arrival_rate=((0.0, 5.0), (10.0, 1.0), (5.0, 2.0)))
    with pytest.raises(ValueError, match="lifetime_mean_days"):
        ChurnModel(arrival_rate=1.0, lifetime_mean_days=0.0)


def test_piecewise_mean_rate():
    m = ChurnModel(arrival_rate=((0.0, 10.0), (5.0, 0.0)))
    assert m.mean_arrival_rate(10.0) == pytest.approx(5.0)
    flat = ChurnModel(arrival_rate=3.0)
    assert flat.mean_arrival_rate(123.0) == 3.0


def test_zero_rate_produces_no_arrivals():
    rng = np.random.default_rng(0)
    assert ChurnModel(arrival_rate=0.0).arrival_times(100.0, rng) == []
    m = ChurnModel(arrival_rate=((0.0, 0.0), (50.0, 4.0)))
    times = m.arrival_times(100.0, np.random.default_rng(1))
    assert all(t >= 50.0 for t in times)
    assert len(times) > 100  # ~200 expected over the active half


def test_arrival_times_rate_matches():
    m = ChurnModel(arrival_rate=20.0)
    times = m.arrival_times(500.0, np.random.default_rng(2))
    # Poisson count: 10,000 expected, sigma = 100
    assert abs(len(times) - 10000) < 300
    assert all(0.0 <= t < 500.0 for t in times)
    assert times == sorted(times)


def test_lifetime_sampling():
    m = ChurnModel(arrival_rate=1.0, lifetime_mean_days=30.0)
    draws = m.sample_lifetimes(100_000, np.random.default_rng(3))
    assert abs(float(np.mean(draws)) - 30.0) < 3 * 30.0 / math.sqrt(100_000)


# -- lifetime statistics -----------------------------------------------------------


def _aged_host(created_day: float, last_day: float, hid: str) -> dict:
    return {
        "host_id": hid,
        "created": int(created_day * SECONDS_PER_DAY),
        "last_contact": int(last_day * SECONDS_PER_DAY),
    }


def test_lifetime_mean_91_days():
    host = _aged_host(0.0, 91.0, "a")
    stats = lifetime_stats(host_table([host]), now=140.0 * SECONDS_PER_DAY)
    assert stats.mean_days == pytest.approx(91.0)
    assert stats.n_hosts == 1
    # 30-day default bins: day 91 falls in [90, 120)
    idx = stats.histogram.counts.index(1)
    assert stats.histogram.bin_edges[idx] == pytest.approx(90.0)


def test_lifetime_censoring():
    active = _aged_host(0.0, 135.0, "recent")  # heard from 5 days ago
    gone = _aged_host(0.0, 50.0, "gone")
    now = 140.0 * SECONDS_PER_DAY
    stats = lifetime_stats(host_table([active, gone]), now=now)
    assert stats.n_hosts == 1
    assert stats.mean_days == pytest.approx(50.0)
    # every host still censored: no lifetimes, no mean, one empty 30-day bin
    none = lifetime_stats(host_table([active]), now=now)
    assert none.n_hosts == 0 and none.mean_days is None
    assert none.histogram == Histogram((0.0, CENSOR_DAYS), (0,), 0)


def test_lifetime_zero_allowed():
    host = _aged_host(10.0, 10.0, "z")
    stats = lifetime_stats(host_table([host]), now=100.0 * SECONDS_PER_DAY)
    assert stats.mean_days == 0.0
    assert stats.histogram.counts[0] == 1


def test_lifetime_explicit_bins():
    host = _aged_host(0.0, 45.0, "b")
    stats = lifetime_stats(host_table([host]), now=300.0 * SECONDS_PER_DAY, bin_edges=[0, 50, 100])
    assert stats.histogram.counts == (1, 0)


# -- config loading ----------------------------------------------------------------


def test_pool_spec_from_config_overrides():
    spec = pool_spec_from_config(
        {
            "n_hosts": 12,
            "seed": 4,
            "fields": {
                "ram": 2048.0,
                "swap": {"lognormal": {"mean": 3.0, "cv": 0.5}},
                "throughput_down": {"samples": [100.0, 200.0]},
            },
            "vendor_weights": {"AMD": 1.0},
            "venue_weights": {"Home": 1.0},
            "country_weights": {"Japan": 1.0},
        },
        default_seed=0,
    )
    assert spec.n_hosts == 12 and spec.seed == 4
    assert spec.field_generators["ram"] == 2048.0
    assert np.mean(spec.field_generators["swap"].sorted_samples) == pytest.approx(3.0)
    assert spec.field_generators["throughput_down"].sorted_samples == (100.0, 200.0)
    pool = generate_pool(spec)
    assert set(pool.cpu_vendor.tolist()) == {CpuVendor.AMD}
    assert set(pool.venue.tolist()) == {Venue.HOME}
    assert set(pool.country.tolist()) == {"Japan"}


def test_pool_spec_from_config_errors():
    with pytest.raises(ValueError, match="unknown numeric field"):
        pool_spec_from_config({"fields": {"speed": 1.0}}, default_seed=0)
    with pytest.raises(ValueError, match="bad generator spec"):
        pool_spec_from_config({"fields": {"ram": "fast"}}, default_seed=0)
    with pytest.raises(ValueError):
        pool_spec_from_config({"os_weights": {"BeOS": 1.0}}, default_seed=0)
