"""A fixed probe of the host's speed, to scale measured times by.

On a shared VM the speed of a vCPU changes from one moment to the next:
a pure-Python loop runs at one of two speeds about 40% apart, switching
within a second, and the share of time at the slow speed changes over
minutes.  The benchmark probes the host right before and right after
each timed call and scales the call's time by PROBE_REFERENCE_S over
the mean time of those probes.

The probe mixes the two kinds of work the task runs do: interpreted
Python arithmetic and small numpy products and determinants called from
a Python loop.  It imports nothing from grasskernels, so a change to the
program never changes the probe.
"""

import statistics
import time

import numpy

# The probe's mean time on the 2-vCPU Xeon VM the benchmark was written
# on.  It only sets the scale of the scaled times: a scaled time reads
# in seconds at the host speed where one probe takes this long.
PROBE_REFERENCE_S = 0.02

PROBE_LOOP = 150_000
_BASES = [numpy.linalg.qr(numpy.random.default_rng(k).standard_normal(
    (100, 2)))[0] for k in range(20)]


def probe():
    """Seconds for one run of the fixed probe work."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    for a in _BASES:
        for b in _BASES:
            m = a.T @ b
            total += float(numpy.linalg.det(m @ m.T))
    return time.perf_counter() - start


def probe_for(seconds):
    """Probe times over about `seconds` of probing, at least one."""
    until = time.perf_counter() + seconds
    samples = [probe()]
    while time.perf_counter() < until:
        samples.append(probe())
    return samples


def scaled(seconds, samples):
    """`seconds` at the host speed where a probe takes PROBE_REFERENCE_S."""
    return seconds * PROBE_REFERENCE_S / statistics.fmean(samples)
