"""Fast self-test of the benchmark: every workload at tiny size, with its oracle.

    python3 perfbench/selftest.py

Each workload runs one pass over a two-input pool, untraced and then twice
traced; every answer must match the oracle, the traced passes must repeat
their deterministic counters exactly, and the tail helper must pick the
percentiles ``measure.py`` documents.  Takes a few seconds; exits non-zero
on the first failure.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
from measure import SampleLog, percentile, tail_percentile  # noqa: E402
from run import round_items, rounds_per_pass, serve_layers, time_setup  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: class attributes that shrink each workload to a few operations
TINY = {
    "stream": {"pool_size": 2, "mutations": 8, "window": 4},
    "cold": {"pool_size": 2},
    "preserve": {"pool_size": 2, "candidates": 2, "additions": 1},
    "serve": {"pool_size": 2, "mutations": 8, "window": 4, "compact_log_threshold": 4},
}


def check_tails() -> None:
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(39) == 50.0
    assert percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.0
    assert percentile([3.0, 1.0, 2.0, 4.0], 75.0) == 3.0
    log = SampleLog()
    for cycle, seconds in enumerate((3.0, 1.0)):
        log.cycle = cycle
        log.begin_round(0)
        log.record("ask", seconds)
        log.record("ask", seconds + 1.0)
    assert sorted(log.per_op("ask", min)) == [1.0, 2.0]


def one_pass(workload, pool, expected, log, recorder=None):
    for index in range(rounds_per_pass(workload, pool)):
        item, answers = round_items(workload, pool, expected, index)
        mirror = [] if recorder is not None else None
        workload.run_round(item, answers, log, mirror)
        if recorder is not None and workload.name == "serve":
            serve_layers(workload, mirror, recorder)


def check_workload(name: str) -> None:
    workload = WORKLOADS[name]()
    for attribute, value in TINY[name].items():
        setattr(workload, attribute, value)
    pool = [workload.make_input(7000 + index) for index in range(workload.pool_size)]
    expected = [workload.expected(item) for item in pool]
    log = SampleLog()
    try:
        workload.seeds = [7000 + index for index in range(workload.pool_size)]
        time_setup(workload, expected, 0, log)
        workload.open()
        one_pass(workload, pool, expected, log)
        counts = []
        for _ in range(2):
            with tracing.Recorder() as recorder:
                one_pass(workload, pool, expected, log, recorder)
            counts.append({key: recorder.counts[key] for key in tracing.DETERMINISTIC})
    finally:
        workload.close()
    assert log.failed == 0, f"{name}: {log.failed} failed: {log.failures}"
    assert log.samples["ask"] and log.samples["mutate"], f"{name}: missing samples"
    assert counts[0] == counts[1], f"{name}: counters differ: {counts}"
    assert counts[0]["search.solves"] > 0, f"{name}: the traced pass saw no solve"
    print(f"selftest {name}: {log.attempted} answers checked, counters {counts[0]}")


def main() -> int:
    check_tails()
    tracing.install()
    for name in TINY:
        check_workload(name)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
