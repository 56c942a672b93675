"""Sample bookkeeping for the benchmark: latency logs, medians, tails.

Every operation of a timed phase lands in a :class:`SampleLog` under its
class — ``"ask"`` (a decision-problem question) or ``"mutate"`` (an
``add_*`` step) — tagged with the *cycle* it ran in and the operation it
repeats.  A cycle is one pass of rounds over the whole input pool, and every
round starts from fresh copies of its input, so each cycle repeats every
operation on the same state.

The run's latencies are taken over *operations*, not samples: each
operation's repetitions are first reduced to one value (the workload's
``repeat_statistic``), then the median and tail are taken over those
values.  The machine the benchmark was built on shares its cores with
other tenants, which slows the same work by up to 1.7x in stretches from
milliseconds to minutes; the fastest repetition of a deterministic
in-process operation is its cost on an undisturbed core.  The number of
operations depends only on the pool, so the tail percentile never moves
with the speed of the code.
"""

from __future__ import annotations

import resource
import statistics
from typing import Callable, Dict, List, Optional, Tuple

#: percentiles a tail may be reported at, highest first
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

#: a tail percentile needs at least this many operations beyond it
TAIL_MIN_BEYOND = 10

KINDS = ("ask", "mutate")

#: reduces the repetitions of one operation (or one set-up input) to a value
Statistic = Callable[[List[float]], float]


class SampleLog:
    """Latencies per operation class, their cycles, and answer checks."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        #: the cycle each sample was taken in, parallel to ``samples``
        self.cycles: Dict[str, List[int]] = {kind: [] for kind in KINDS}
        #: the operation each sample repeats, ``(round index, position in
        #: the round)``, parallel to ``samples``
        self.ops: Dict[str, List[Tuple[int, int]]] = {kind: [] for kind in KINDS}
        self.cycle = 0
        self.attempted = 0
        self.failed = 0
        self.inconsistent = 0
        self.failures: List[str] = []
        self._round = 0
        self._position = 0

    def begin_round(self, index: int) -> None:
        """Mark the start of round *index* of a cycle."""
        self._round = index
        self._position = 0

    def record(self, kind: str, seconds: float) -> None:
        self.samples[kind].append(seconds)
        self.cycles[kind].append(self.cycle)
        self.ops[kind].append((self._round, self._position))
        self._position += 1

    def check(self, got: object, expected: object, where: str) -> None:
        """Count one checked answer, failed unless *got* equals *expected*."""
        self.attempted += 1
        if got != expected:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{where}: got {got!r}, expected {expected!r}")

    def per_op(self, kind: str, statistic: Statistic) -> List[float]:
        """*statistic* over the repetitions of each *kind* operation."""
        return per_key(zip(self.ops[kind], self.samples[kind]), statistic)


def per_key(pairs, statistic: Statistic) -> List[float]:
    """*statistic* over the values of each key of ``(key, value)`` *pairs*."""
    grouped: Dict[object, List[float]] = {}
    for key, value in pairs:
        grouped.setdefault(key, []).append(value)
    return [statistic(values) for values in grouped.values()]


def percentile(samples: List[float], pct: float) -> float:
    """The nearest-rank *pct* percentile of *samples*."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil(n * pct / 100)
    return ordered[int(rank) - 1]


def tail_percentile(count: int) -> float:
    """The highest percentile of :data:`TAIL_LADDER` with at least
    :data:`TAIL_MIN_BEYOND` of *count* values beyond it."""
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


def summarize(log: SampleLog, kind: str, statistic: Statistic) -> Dict[str, float]:
    """Median latency and tail of one operation class, in milliseconds, over
    its operations' *statistic* values."""
    values = log.per_op(kind, statistic)
    pct = tail_percentile(len(values))
    return {
        "p50_ms": statistics.median(values) * 1000.0,
        "tail_ms": percentile(values, pct) * 1000.0,
        "tail_pct": pct,
        "operations": len(values),
        "samples": len(log.samples[kind]),
    }


def stationarity(
    log: SampleLog, kind: str, cycles: int, bound: float, statistic: Statistic
) -> Dict[str, object]:
    """Median latency of the first and the last quarter of a run, in
    milliseconds, each reduced per operation with *statistic* like the
    reported median.

    The quarters are cut at whole cycles, so they hold the same operations.
    A gap larger than *bound* (a share of the first quarter's median) is
    flagged: the operation got steadily cheaper or dearer as the run went
    on, so another run length would move the reported median.
    """
    if cycles < 2:
        return {"first_ms": None, "last_ms": None, "gap": None, "flagged": False}
    span = max(1, cycles // 4)

    def level(first: int, stop: int) -> float:
        pairs = [
            (op, seconds)
            for op, seconds, cycle in zip(log.ops[kind], log.samples[kind], log.cycles[kind])
            if first <= cycle < stop
        ]
        return statistics.median(per_key(pairs, statistic))

    first_median = level(0, span)
    last_median = level(cycles - span, cycles)
    gap = abs(last_median - first_median) / first_median
    return {
        "first_ms": first_median * 1000.0,
        "last_ms": last_median * 1000.0,
        "gap": gap,
        "flagged": gap > bound,
    }


def peak_memory_mib(include_children: bool = False) -> float:
    """Peak resident set of this process (plus its largest reaped child).

    Read from ``getrusage``, so it costs nothing while the latencies are
    being measured.  Children count only once they have been waited for.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def median_and_spread(values: List[float]) -> Tuple[float, Optional[float]]:
    """Median and interquartile spread (a share of the median) of *values*."""
    middle = statistics.median(values)
    if len(values) < 4 or middle == 0:
        return middle, None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return middle, (q3 - q1) / middle
