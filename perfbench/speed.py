"""A speed reference that end-to-end times are scaled by.

On a few vCPUs of a shared host, the same work can run 40% slower one
minute than the next, as the host's other tenants come and go. Wall times
taken in separate runs then differ by more than any change worth measuring.
A short fixed loop of interpreter work slows down by nearly the same share
at the same moment.

So the benchmark times this loop before and after every measured interval
and reports the interval as its wall time times REFERENCE_S over the mean
of the two loop times: the time the interval would have taken on a machine
where the loop takes REFERENCE_S. The loop is the benchmark's own code, so
a change to the program moves the scaled times as it moves the wall times.

The loop builds a dict of small sets, like the union's provenance map, and
walks it. In six processes on the development machine, whose raw median
times ranged over 1.4x, it cut the spread (interquartile range over median)
of the per-process median `verify_lemmas` and `two_tier_decode` times on the
KK GF(2^7) code from 0.30 and 0.21 to 0.07 and 0.03. A loop of numpy scalar
access, as in ``linalg.rref``, cut them only to 0.11 and 0.09.
"""

import statistics
import time

# Loop time the scaled times refer to; about the loop's median time on the
# 2-vCPU Xeon VM (2.1 GHz) the benchmark was developed on, so scaled times
# read like wall times there.
REFERENCE_S = 0.000125
REPEATS = 5


def _loop():
    owners_of = {i: {i & 7, i & 3} for i in range(300)}
    hits = 0
    for _ in range(6):
        for owners in owners_of.values():
            if 3 in owners:
                hits += 1
    return hits


def sample():
    """Seconds the loop takes now: the fastest of REPEATS runs back to back,
    so one interrupt does not count as a slow machine."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return min(times)


class Gauge:
    """Scales the wall time of each interval by the loop times around it."""

    def __init__(self):
        self.samples = []
        self.mark()

    def mark(self):
        """Time the loop now, as the start of the next interval."""
        self.last = sample()
        self.samples.append(self.last)

    def scale(self, wall):
        """`wall` seconds of the interval that just ended, in reference seconds."""
        before = self.last
        self.mark()
        return wall * 2 * REFERENCE_S / (before + self.last)

    def summary(self):
        return (f"speed reference loop: median {statistics.median(self.samples) * 1e6:.1f} us, "
                f"range {min(self.samples) * 1e6:.1f}-{max(self.samples) * 1e6:.1f} us over "
                f"{len(self.samples)} samples (scaled times refer to {REFERENCE_S * 1e6:g} us)")
