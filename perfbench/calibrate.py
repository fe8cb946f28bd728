"""Host-speed calibration: a fixed loop of the benchmark's own code.

The shared host this benchmark was tuned on changes speed by a third
over an hour, uniformly across the three workloads (see README.md), so
raw seconds from two sets of runs taken apart in time differ by more than
the bounds. ``run.py`` therefore times this loop between rounds and
reports every time metric multiplied by ``REFERENCE_S / q``, where q is
the 10th percentile of the run's samples: seconds on a host where that
percentile is ``REFERENCE_S``. The loop shares no code with the package,
so a change to the package moves the metrics and not the scale.

Not the fastest sample: that is one extreme moment of the host. In six
runs of ``operator_chain`` it read 1.99 ms once and 2.18-2.26 ms
otherwise, while the 10th percentile read 2.26-2.45 ms; scaled by it,
the percentiles of ``operator_chain`` and ``run_s`` of ``verify_all``
spread less from run to run than when scaled by the fastest sample.
``run_s`` takes each operation's 10th-percentile repeat to match: when
the host is slow for most of a run but not all of it, an operation's
fastest repeat still finds a quiet moment while the 10th percentile of
the samples does not, and the ratio of the two would move.

One sample mixes the two kinds of work the package does: interpreter
work on floats, tuples and dicts (``series``, ``taylor``, the outer
sums) and numpy ufuncs on small arrays and on a few-MB array (the shell
kernels and the batched quadrature sweep).
"""

import statistics
import time

import numpy as np

# 10th percentile and mean of the samples on the reference machine of
# README.md
REFERENCE_S = 2.4e-3
REFERENCE_MEAN_S = 2.6e-3
# share of a run spent on samples, and samples per burst
SHARE = 0.05
BURST = 10

_SMALL = np.linspace(0.1, 0.9, 64)
_LARGE = np.linspace(0.1, 0.9, 1 << 19)        # 4 MB
# written in place, so that a sample allocates no large array: how fast
# the allocator hands one out depends on what the process freed before
_BUF = np.empty_like(_LARGE)


def sample():
    """Seconds one pass of the fixed loop takes."""
    t0 = time.perf_counter()
    memo = {}
    acc = 1.0
    for i in range(3000):
        key = (i & 31, i >> 5)
        acc = acc * 0.999 + 1.0 / (i + 1.5)
        memo[key] = memo.get((key[0], key[1] - 1), 0.0) + acc
    small = _SMALL
    for _ in range(200):
        small = np.cumprod(small * 0.999 + 0.001)
    np.multiply(_LARGE, small[-1], out=_BUF)
    np.sqrt(_BUF, out=_BUF)
    _BUF.sum()
    return time.perf_counter() - t0


class Calibrator:
    """Keeps the samples of one run; spends about ``SHARE`` of the
    elapsed time on them, in bursts of ``BURST`` samples back to back.
    A sample that follows other work finds cold caches and runs slower
    than one that follows a sample; in bursts, nine samples in ten follow
    a sample, so the 10th percentile is a warm one whatever the
    workload's rounds are like."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def top_up(self, elapsed):
        """Take bursts until the samples make ``SHARE`` of ``elapsed``
        seconds (at least one burst)."""
        while self.spent < SHARE * elapsed or not self.samples:
            for _ in range(BURST):
                s = sample()
                self.samples.append(s)
                self.spent += s

    def factor(self, long_ops=False):
        """Multiplier from this host's seconds to reference seconds.
        Operations of seconds (``long_ops``) span the host's quiet and
        slow moments alike, so they are scaled by the mean sample; short
        ones by the 10th percentile, like their 10th-percentile repeats."""
        if long_ops:
            return REFERENCE_MEAN_S / statistics.fmean(self.samples)
        return REFERENCE_S / self.reference_sample()

    def reference_sample(self):
        """The 10th percentile of the samples, in seconds."""
        return statistics.quantiles(self.samples, n=10)[0]
