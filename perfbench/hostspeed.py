"""Scaling of measured times by the speed of a shared host.

On a shared host the speed of the interpreter drifts by tens of
percent within seconds, and it slows the library and any other Python
code alike.  ``HostSpeed`` runs a fixed reference task every
REF_EVERY_S between queries.  A query that ran from ``t0`` to ``t1`` is
scaled by REF_SECONDS over the median duration of the reference task
sampled from ``t0 - WINDOW_S`` to ``t1 + WINDOW_S``: the result is the
time it would have taken on a host that runs the reference task in
REF_SECONDS.  On repeated runs of one fixed input this cut the spread
of the median latency from about 50% of its value to about 4%.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

REF_SECONDS = 0.0005
REF_EVERY_S = 0.02
WINDOW_S = 1.0


def reference_task() -> int:
    """Fixed interpreter work: small dicts, tuples, sorting, str()."""
    acc = 0
    for i in range(100):
        d = {(i, j): i * j for j in range(12)}
        t = tuple(sorted(d.values(), reverse=True))
        acc += len(str(t)) + hash(t) % 7
    return acc


class HostSpeed:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self._cache: dict[tuple[int, int], float] = {}

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_task()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.durations.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """Scale for work done from ``t0`` to ``t1`` (perf_counter)."""
        key = (math.floor(t0 / 0.25), math.floor(t1 / 0.25))
        if key not in self._cache:
            lo = bisect.bisect_left(self.times, key[0] * 0.25 - WINDOW_S)
            hi = bisect.bisect_right(self.times, (key[1] + 1) * 0.25 + WINDOW_S)
            window = self.durations[lo:hi] or self.durations
            self._cache[key] = REF_SECONDS / statistics.median(window)
        return self._cache[key]

    def scale(self, starts, ends) -> list[float]:
        """Scaled durations of the spans from ``starts[i]`` to ``ends[i]``."""
        return [(t1 - t0) * self.factor(t0, t1) for t0, t1 in zip(starts, ends)]

    def note(self) -> str:
        med = statistics.median(self.durations)
        return (
            f"reference task: {len(self.durations)} samples, median {med * 1e3:.3f} ms "
            f"against nominal {REF_SECONDS * 1e3:g} ms"
        )
