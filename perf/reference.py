"""The reference kernel that divides the host's speed out of a latency.

The host this benchmark runs on changes speed by 10–40 % for seconds or
minutes at a time (README, *noise findings*): the same trial, same seed,
same layout, took 2.7 – 3.7 s of step time within ten minutes.  No
statistic over a 20-second run removes noise that outlasts the run, so
the benchmark measures the host while it measures the program: a fixed
3-ms kernel of the same kind of work (set intersections, dict counting,
a sort over tuples) runs before every timed step, and each latency is
divided by how much slower than :data:`REFERENCE_MS` the kernel ran
around it.  A reported millisecond is therefore a millisecond *at the
host's quiet speed*; on a quiet host it is a plain millisecond.

The kernel touches nothing of the program, so a change to ``src/``
cannot move it.  It does leave the CPU caches as cold before every step
as a user's think time would.
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter
from typing import List, Sequence

#: What the kernel takes on the build host when it is quiet.  Only a
#: unit convention: every value scales with it, no comparison does.
REFERENCE_MS = 2.8

#: A latency is scaled by the median of the kernel samples up to this
#: many steps before and after it.
WINDOW = 3


class ReferenceKernel:
    def __init__(self) -> None:
        rng = random.Random(5)
        self._rows = [set(rng.sample(range(400_000), 2000)) for _ in range(8)]
        self._extension = set(rng.sample(range(400_000), 60_000))
        self._terms = [("t", i) for i in range(400_000)]

    def __call__(self) -> float:
        """Run once; returns the time it took in ms."""
        started = perf_counter()
        terms, extension = self._terms, self._extension
        counts: dict = {}
        for row in self._rows:
            for i in extension & row:
                counts[terms[i]] = counts.get(terms[i], 0) + 1
        sorted(counts.items(), key=lambda item: item[0])
        return (perf_counter() - started) * 1e3

    def sample(self, times: int = 3) -> List[float]:
        return [self() for _ in range(times)]


def slowdown(samples: Sequence[float]) -> float:
    """How much slower than the reference the host ran (1.0 = quiet)."""
    return median(samples) / REFERENCE_MS


def at_reference_speed(ms: Sequence[float], kernel_ms: Sequence[float]) -> List[float]:
    """Scale step latencies to the host's quiet speed.  ``kernel_ms`` has
    one sample taken before each step and one after the last."""
    return [
        value / slowdown(kernel_ms[max(0, i - WINDOW + 1):i + WINDOW + 1])
        for i, value in enumerate(ms)
    ]
