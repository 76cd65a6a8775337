"""Availability traces: the instants at which each host's states flip.

Host ``i`` of a run has one alternating renewal process per column of
``fracs[i]``; process ``k`` is bit ``1 << k`` of its mask. Up sojourns
average the mean dwell, down ones whatever makes the long-run up fraction
the host's fraction; a fraction of 0 or 1 never flips. A trace covers the
membership, from arrival to departure or the end of the run. No stream
depends on the order in which hosts ask for their traces: first chunks come
from one stream in blocks, in host order, and each later chunk of a process
from a stream keyed by (run key, host, bit, chunk).
"""

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat

import numpy as np

# Sojourns per process per chunk after the first. The first chunk is capped
# at this size too, so a long membership is drawn a chunk at a time rather
# than held whole from the host's arrival.
_CHUNK = 256
# Hosts whose first chunks are drawn at once: enough to spread the cost of
# the numpy calls, few enough that little is drawn ahead of the arrivals.
_BLOCK = 64


def _sojourns(rng: "np.random.Generator", n: int) -> np.ndarray:
    """``n`` sojourns of unit mean from ``rng``; every sojourn of a trace is drawn here."""
    return rng.standard_exponential(n)


def _renewals(start, up, sizes, sojourns, up_mean, down_mean, end):
    """Flip instants of alternating renewal processes, one segment each.

    Segment k starts at ``start[k]``, up if ``up[k]``, and times its flips
    with the next ``sizes[k]`` of ``sojourns``, in units of the mean: up
    sojourns average ``up_mean``, down ones ``down_mean[k]``. Each segment
    takes its own running sum from its start, in a row padded with zero
    steps, so its instants and up time are those of a call on it alone.
    Returns the instants, whether the sojourn ending at each was up, each
    segment's up time before ``end[k]``, each instant's segment and each
    segment's first index.
    """
    drawn = np.arange(sizes.max(initial=0)) < sizes[:, None]
    was_up = (np.arange(drawn.shape[1]) % 2 == 0) == up[:, None]
    steps = np.zeros(drawn.shape)
    steps[drawn] = sojourns * np.where(was_up, up_mean, down_mean[:, None])[drawn]
    times = start[:, None] + np.cumsum(steps, axis=1)
    prev = np.concatenate((start[:, None], times[:, :-1]), axis=1)
    clip = end[:, None]
    up_time = np.where(was_up, np.minimum(times, clip) - np.minimum(prev, clip), 0.0)
    up_s = np.cumsum(up_time, axis=1)[:, -1] if drawn.size else np.zeros(len(sizes))
    first = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(len(sizes)), sizes)
    return times[drawn], was_up[drawn], up_s, seg, first


def _merge(times, bits, owner, mask0):
    """Each host's flips in time order, and its mask after each.

    Flip ``j`` at ``times[j]`` flips bit ``bits[j]`` of host ``owner[j]``,
    whose mask before these flips is ``mask0[owner[j]]``; flips at the same
    instant take bit order. Returns the instants and masks, host after host,
    and each host's first index followed by their count.
    """
    order = np.lexsort((bits, times, owner))
    owner = owner[order]
    acc = np.bitwise_xor.accumulate(bits[order])
    starts = np.searchsorted(owner, np.arange(len(mask0) + 1))
    before = np.concatenate(([0], acc))[starts[:-1]]  # the xor of earlier hosts' flips
    return times[order], (acc ^ (before ^ mask0)[owner]).astype(np.uint8), starts


@dataclass(slots=True)
class _Process:
    """One renewal process of a host whose trace is not yet all merged."""

    bit: int
    down_mean: float
    times: list  # flips drawn but not merged, up to ``last``
    last: float  # the latest instant drawn
    up: bool  # the state from ``last`` on
    n_chunks: int = 1  # chunks drawn, the first included


class Traces:
    """The traces of a run's hosts, each drawn when first asked for.

    ``hosts[i]``, a member from ``arrive_s[i]`` to ``end_s[i]``, is any object
    with its index ``idx``. Drawing sets its initial ``mask``, its flip
    instants ``tr_t`` (an ``array("d")``) and the mask after each ``tr_m`` (a
    ``bytearray``), its processes' up times ``up_s``, as drawn so far, and
    ``tr_procs``, the processes ``extend`` has yet to draw to the end.
    """

    def __init__(self, seed: "np.random.SeedSequence", dwell_s: float, hosts: list,
                 arrive_s: np.ndarray, end_s: np.ndarray, fracs: np.ndarray):
        self.rng = np.random.default_rng(seed)
        self.key = int(seed.generate_state(1, np.uint64)[0])
        self.dwell_s = dwell_s
        self.hosts, self.arrive_s, self.end_s, self.fracs = hosts, arrive_s, end_s, fracs
        self.n_drawn = 0

    def draw(self):
        """Draw the initial states and first chunks of the next block of hosts."""
        lo = self.n_drawn
        hi = self.n_drawn = min(lo + _BLOCK, len(self.hosts))
        hosts, self.hosts[lo:hi] = self.hosts[lo:hi], repeat(None, hi - lo)  # callers hold them
        arrive, end, fracs = self.arrive_s[lo:hi], self.end_s[lo:hi], self.fracs[lo:hi]
        mask0 = (fracs >= 1.0) @ (1 << np.arange(fracs.shape[1]))
        host_up_s = np.where(fracs >= 1.0, (end - arrive)[:, None], 0.0)
        # one segment of sojourns per process that flips, host by host
        host, pos = np.nonzero((fracs > 0.0) & (fracs < 1.0))
        frac = fracs[host, pos]
        ups = self.rng.random(len(frac)) < frac
        # A process flips 2·frac times per mean dwell. A first chunk holds 1.3
        # times the flips expected over the membership, plus 6 for short
        # memberships, whose counts spread widest: most hosts never draw a second.
        span = (end - arrive)[host] / self.dwell_s
        sizes = np.minimum(_CHUNK, np.ceil(2.6 * frac * span) + 6).astype(np.int64)
        sojourns = _sojourns(self.rng, int(sizes.sum()))
        np.bitwise_or.at(mask0, host, np.where(ups, 1 << pos, 0))

        with np.errstate(over="ignore"):  # a mean past the float range: a sojourn never ends
            down_mean = self.dwell_s * (1.0 - frac) / frac
        times, was_up, up_s, seg, starts = _renewals(
            arrive[host], ups, sizes, sojourns, self.dwell_s, down_mean, end[host])
        host_up_s[host, pos] = up_s  # final unless a process falls short of the end
        last_at = starts + sizes - 1
        last = times[last_at]
        # merge each host's flips up to the instant all its processes reach
        horizon = np.full(len(hosts), math.inf)
        np.minimum.at(horizon, host, last)
        owner = host[seg]
        kept = np.flatnonzero((times <= horizon[owner]) & (times < end[owner]))
        kept_t, masks, offsets = _merge(times[kept], 1 << pos[seg[kept]], owner[kept], mask0)
        for h, a, b, m, s_row in zip(hosts, offsets[:-1].tolist(), offsets[1:].tolist(),
                                     mask0.tolist(), host_up_s.tolist()):
            h.mask = m
            h.tr_t = array("d", kept_t[a:b].tobytes())
            h.tr_m = bytearray(masks[a:b].tobytes())
            h.up_s = s_row
            h.tr_procs = []
        # the processes of hosts with some process not drawn to the end
        for k in np.flatnonzero((horizon < end)[host]).tolist():
            drawn = times[starts[k]:starts[k] + sizes[k]]
            hosts[host[k]].tr_procs.append(_Process(
                1 << int(pos[k]), float(down_mean[k]), drawn[drawn > horizon[host[k]]].tolist(),
                float(last[k]), not was_up[last_at[k]]))

    def extend(self, h) -> bool:
        """Append the next flips of ``h``'s trace; False once it holds them all.

        Flips are merged up to the earliest instant that some process has
        not been drawn past, and a process is drawn further when it holds
        that instant, adding its up time to the host's. A process drawn past
        the end of the membership is complete.
        """
        procs = h.tr_procs
        if not procs:
            return False
        end = float(self.end_s[h.idx])
        times, bits = [], []
        while not times and procs:
            horizon = min(p.last for p in procs)
            for p in procs:
                n = bisect_right(p.times, horizon)
                k = bisect_left(p.times, end, 0, n)
                times += p.times[:k]
                bits += repeat(p.bit, k)
                del p.times[:n]
            for p in procs:
                if not p.times and p.last < end:  # drawn up to the horizon: draw the next chunk
                    rng = np.random.default_rng((self.key, h.idx, p.bit, p.n_chunks))
                    t, was_up, up_s, _, _ = _renewals(
                        np.array([p.last]), np.array([p.up]), np.array([_CHUNK]),
                        _sojourns(rng, _CHUNK), self.dwell_s, np.array([p.down_mean]),
                        np.array([end]))
                    p.times, p.last, p.up = t.tolist(), float(t[-1]), not was_up[-1]
                    h.up_s[p.bit.bit_length() - 1] += float(up_s[0])
                    p.n_chunks += 1
            procs[:] = [p for p in procs if p.times]
        mask = h.tr_m[-1] if h.tr_m else h.mask
        t, masks, _ = _merge(np.array(times), np.array(bits, np.int64),
                             np.zeros(len(times), np.intp), np.array([mask]))
        h.tr_t.frombytes(t.tobytes())
        h.tr_m += masks.tobytes()
        return bool(times)
