"""The speed probe: how fast the machine ran while a run measured pgh.

The machine the benchmark was written on is a shared 2-vCPU VM whose speed
drifts with its neighbours' load, by up to half over seconds to minutes:
the same `large_groups` pass took 17.8 s in one run and 22.0 s in the next.
Timed as they are, ten runs of one commit spread by more than the bounds.

While a SpeedProbe is active, a SIGALRM handler runs `reference_work()`
every PROBE_INTERVAL_S of wall time and times it, so the samples are spread
evenly over the run and see the machine as the workload saw it.  A sample's
speed is REFERENCE_S / (its time); a time measured in the run is scaled to
seconds at the reference speed by multiplying it with the mean speed of the
samples taken while it ran.  The mean, not the median, because the samples
are evenly spaced in time: when the machine switches between a fast and a
slow state within a pass, the mean weighs each state by the time the pass
spent in it.

The reference work is frozen copies of pgh 1.0.0's collector and of its
`mat_mul`, multiplying fixed elements of a fixed group
(`reference_group.json`, the stem cover of G1(3,7) that pgh 1.0.0
computes) and a fixed integer matrix.  It has the shape of pgh's two hot
loops (collection and the Smith form), but no change to pgh can move its
time: only the machine's speed does.
"""

import functools
import gc
import json
import random
import signal
import statistics
import time
from pathlib import Path

PROBE_INTERVAL_S = 0.5
# About the time reference_work() takes on the machine the baseline was
# recorded on (2-vCPU Xeon VM, Python 3.11.7) when nothing else loads it;
# scaled times are seconds of that machine at that speed.
REFERENCE_S = 0.020
REFERENCE_PAIRS = 30
REFERENCE_MATRIX = 36


@functools.cache
def reference_data():
    """(group, element pairs, matrix) that reference_work() multiplies.

    The group is reference_group.json, in pgh's JSON presentation format
    (generators numbered from 1), as (p, ngens, power words, commutator
    rules); the pairs and the matrix are drawn with a fixed seed."""
    doc = json.loads(Path(__file__).with_name("reference_group.json").read_text())
    p, n = doc["p"], doc["ngens"]
    power = [()] * n
    for i, w in doc.get("power", {}).items():
        power[int(i) - 1] = tuple((g - 1, e) for g, e in w)
    comm = {}
    for key, w in doc.get("comm", {}).items():
        j, i = (int(x) - 1 for x in key.split(","))
        comm[(j, i)] = tuple((g - 1, e) for g, e in w)
    rng = random.Random(0)
    pairs = [tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(2))
             for _ in range(REFERENCE_PAIRS)]
    matrix = [[rng.randrange(-9, 10) for _ in range(REFERENCE_MATRIX)]
              for _ in range(REFERENCE_MATRIX)]
    return (p, n, tuple(power), comm), pairs, matrix


def _collect_into(group, vec, word):
    """pgh 1.0.0's PcPresentation._collect_into."""
    p, n, power, comm = group
    stack = [(g, e) for g, e in reversed(list(word))]
    while stack:
        g, e = stack.pop()
        if e == 0:
            continue
        if e < 0:
            if e < -1:
                stack.append((g, e + 1))
            pw = power[g]
            if pw:
                stack.extend((h, -f) for h, f in pw)
            stack.append((g, p - 1))
            continue
        if e > 1:
            stack.append((g, e - 1))
        tail = [(t, vec[t]) for t in range(g + 1, n) if vec[t]]
        if not tail:
            vec[g] += 1
            if vec[g] == p:
                vec[g] = 0
                if power[g]:
                    stack.extend(reversed(power[g]))
            continue
        for t, _ in tail:
            vec[t] = 0
        vec[g] += 1
        pending = []
        if vec[g] == p:
            vec[g] = 0
            pending.extend(power[g])
        for t, ct in tail:
            cw = comm.get((t, g))
            if cw:
                for _ in range(ct):
                    pending.append((t, 1))
                    pending.extend(cw)
            else:
                pending.append((t, ct))
        stack.extend(reversed(pending))


def _mat_mul(a, b):
    """pgh 1.0.0's snf.mat_mul (the U·A·V self-check of the Smith form)."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def reference_work():
    """Multiply the fixed element pairs, then the fixed matrix by itself
    twice; returns the products."""
    group, pairs, matrix = reference_data()
    out = []
    for x, y in pairs:
        vec = list(x)
        _collect_into(group, vec, [(i, e) for i, e in enumerate(y) if e])
        out.append(tuple(vec))
    return out, _mat_mul(_mat_mul(matrix, matrix), matrix)


class SpeedProbe:
    """Samples the machine's speed every PROBE_INTERVAL_S while active.

    Time spent in the handler is kept in `spent`, so that `scaled()` can
    time a call without it, in seconds and in reference seconds.  The
    garbage collector is off during a sample, so a collection of pgh's
    heap does not land in the probe's time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        reference_data()  # loaded now, so that samples time only the work

    def sample(self, signum=None, frame=None):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, fn):
        """(result of fn(), its time, its time in reference seconds).  A
        sample is taken first, so even a short call has one."""
        self.sample()
        since = len(self.samples) - 1
        t0, spent0 = time.perf_counter(), self.spent
        out = fn()
        t = time.perf_counter() - t0 - (self.spent - spent0)
        return out, t, t * self.speed(since)

    def speed(self, since=0):
        """The machine's mean speed over the samples from number `since` on
        (1 is the reference speed, below 1 slower); if there are none, one
        is taken now."""
        if len(self.samples) <= since:
            self.sample()
        return statistics.fmean(REFERENCE_S / t for t in self.samples[since:])
