"""Availability traces, checked against their definition without an engine."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from volpool import traces

# Four hosts under a 9-second mean up sojourn, so that every process that
# flips draws at least 10 chunks; the last host's first two processes never flip.
DWELL_S = 9.0
ARRIVE = np.array([0.0, 3600.0, 50000.0, 0.0])
END = np.array([86400.0, 60000.0, 86400.0, 40000.0])
FRACS = np.array([[0.3, 0.5, 0.9], [0.7, 0.6, 0.4], [0.45, 0.8, 0.55], [1.0, 0.0, 0.5]])
UNIT_ROUNDOFF = 2.0**-53


def down_mean(up_mean, frac):
    """The mean down sojourn that makes ``frac`` the up fraction; inf past the float range."""
    with np.errstate(over="ignore"):
        return up_mean * (1.0 - frac) / frac


def drawn(seed, order):
    """The hosts, their traces drawn from ``seed`` and extended to the end in ``order``."""
    hosts = [SimpleNamespace(idx=i) for i in range(len(FRACS))]
    trs = traces.Traces(np.random.SeedSequence(seed), DWELL_S, list(hosts), ARRIVE, END, FRACS)
    trs.draw()
    for i in order:
        while trs.extend(hosts[i]):
            pass
    return hosts


def test_a_merged_trace_is_its_processes_flips_in_time_order():
    for h, arrive, end, fracs in zip(drawn(1, range(len(FRACS))), ARRIVE, END, FRACS):
        times = np.array(h.tr_t)
        masks = np.frombuffer(h.tr_m, np.uint8)
        assert len(times) == len(masks) and not h.tr_procs
        assert np.all(np.diff(times) >= 0.0)
        assert np.all((times >= arrive) & (times < end))
        flipped = np.concatenate(([h.mask], masks[:-1])) ^ masks
        assert np.isin(flipped, [1, 2, 4]).all()  # one bit per flip
        for k, frac in enumerate(fracs.tolist()):
            bit = 1 << k
            if frac in (0.0, 1.0):
                assert h.mask & bit == bit * frac and not (flipped & bit).any()
                assert h.up_s[k] == (end - arrive) * frac
                continue
            # the up time, summed from the merged flips of this bit alone
            up, mark, total = bool(h.mask & bit), arrive, 0.0
            flips = times[(flipped & bit) != 0].tolist()
            for t in flips:
                if up:
                    total += t - mark
                up, mark = not up, t
            if up:
                total += end - mark
            assert len(flips) >= 10 * traces._CHUNK
            # Both sums add the same float differences, at most one per flip
            # and one for the end, in different orders: each is within
            # gamma_n = n*u / (1 - n*u) of the exact sum, relative to the membership.
            n = len(flips) + 1
            gamma = n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)
            assert abs(total - h.up_s[k]) <= 2.0 * gamma * (end - arrive)


def test_later_chunks_do_not_depend_on_the_order_hosts_ask():
    """Each host's later chunks come from streams of its own."""
    forward, backward = drawn(7, [0, 1, 2, 3]), drawn(7, [3, 2, 1, 0])
    for a, b in zip(forward, backward):
        assert (a.tr_t, a.tr_m, a.up_s) == (b.tr_t, b.tr_m, b.up_s)


@settings(max_examples=100, deadline=None)
@given(
    segments=st.lists(
        st.tuples(st.integers(1, 40), st.booleans(), st.floats(0.0, 1e6),
                  st.floats(0.0, 1e7), st.floats(1e-6, 1.0, exclude_max=True)),
        min_size=1, max_size=6),
    lead_down=st.sampled_from([1e300, down_mean(43200.0, 1e-310)]),
    up_mean=st.floats(1.0, 1e5),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_trace_segment_takes_its_own_running_sum(segments, lead_down, up_mean, seed):
    """A segment's flips and up time are those of a call on its sojourns alone,
    bit for bit, even behind a segment whose down mean is 1e300 or inf."""
    sizes, ups, starts, spans, fracs = map(np.array, zip(*segments))
    downs = np.concatenate(([lead_down], down_mean(up_mean, fracs[1:])))
    sojourns = np.random.default_rng(seed).standard_exponential(int(sizes.sum()))
    ends = starts + spans
    times, was_up, up_s, seg, first = traces._renewals(
        starts, ups, sizes, sojourns, up_mean, downs, ends)
    assert seg.tolist() == [k for k, n in enumerate(sizes) for _ in range(n)]
    for k, (a, n) in enumerate(zip(first.tolist(), sizes.tolist())):
        alone = traces._renewals(starts[k:k + 1], ups[k:k + 1], sizes[k:k + 1],
                                 sojourns[a:a + n], up_mean, downs[k:k + 1], ends[k:k + 1])
        assert times[a:a + n].tobytes() == alone[0].tobytes()
        assert was_up[a:a + n].tolist() == alone[1].tolist()
        assert up_s[k:k + 1].tobytes() == alone[2].tobytes()
        assert 0.0 <= up_s[k] <= ends[k] - starts[k] + 1e-6  # and not NaN
