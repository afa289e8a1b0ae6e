"""Machine-speed yardstick for the host clock.

On a shared host the speed of the same Python code drifts by up to a
factor of two over minutes: on a 2-vCPU KVM guest one Table 1 op took
1.3-3.1 s, and the medians of consecutive 25-second windows in one
process spread by 14% of their median (interquartile range).  The
benchmark therefore times this fixed pure-Python task (bytes splitting,
integer parsing, a tuple sort, dict inserts, a join and an integer loop:
the kinds of work the program's host time goes to) after every op, for
5% of the op's length, and scales each op's host seconds by
``REFERENCE_S`` over the median of the samples taken right after it and
after its neighbours (at least ``MIN_SAMPLES`` of them); set-up is scaled
by samples taken right after it.  A single sample varies by a third
between consecutive ops, hence the pooling.  Over five runs per workload
(fresh processes, seeds 1-5, 35 s and 30 s for shuffle-streaming;
op_s_p50 IQR over median, as table1 / shuffle-scaling /
shuffle-streaming) this gave 9% / 3% / 4%, where one scale for the
whole run gave 19% / 8% / 14%, the samples before and after each op
alone 10% / 5% / 17%, and raw seconds 32% / 9% / 12%.
The task belongs to the benchmark, not to the program, so no change to
the program can move it.
"""

from __future__ import annotations

import random
import statistics
import time

#: Typical median yardstick time on the reference host, 2 vCPUs of an
#: Intel Xeon at 2.1 GHz (KVM guest) under CPython 3.11, so that scaled
#: seconds read close to raw ones there.
REFERENCE_S = 0.023
#: Yardstick time as a share of op time.
DUTY = 0.05
#: Fewest samples an op's scale is taken from.
MIN_SAMPLES = 5


class Yardstick:
    """Times one fixed task; ``scale()`` turns raw host seconds into
    seconds at the reference machine speed."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._lines = [
            b"chr%d\t%d\t%d\t+\t%d\t%d" % (
                rng.randrange(1, 23), rng.randrange(10**8), rng.randrange(10**8),
                rng.randrange(1, 50), rng.randrange(101),
            )
            for _ in range(12_000)
        ]
        self.samples: list[float] = []
        #: The samples taken after each followed op, in op order.
        self.windows: list[list[float]] = []

    def follow(self, op_s: float) -> None:
        """Sample after an op of ``op_s`` host seconds, for about
        ``DUTY`` of its length and at least once."""
        self.windows.append(
            [self.sample() for _ in range(max(1, round(op_s * DUTY / REFERENCE_S)))]
        )

    def op_scales(self) -> list[float]:
        """One scale per followed op, from the samples after it and after
        the ops on either side, widened until there are ``MIN_SAMPLES``."""
        scales = []
        for index in range(len(self.windows)):
            reach = 1
            while True:
                pool = [sample for window in self.windows[max(0, index - reach):index + reach + 1]
                        for sample in window]
                if len(pool) >= MIN_SAMPLES or reach >= len(self.windows):
                    break
                reach += 1
            scales.append(REFERENCE_S / statistics.median(pool))
        return scales

    def sample(self) -> float:
        started = time.perf_counter()
        records = []
        for line in self._lines:
            fields = line.split(b"\t")
            records.append((fields[0], int(fields[1]), line))
        records.sort()
        index = {position: record for _chrom, position, record in records}
        b"\n".join(index.values())
        total = 0
        for value in range(50_000):
            total += value
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
