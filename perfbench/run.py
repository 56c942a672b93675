"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``stream``, ``cold``,
``preserve`` and ``serve``.  A run generates its inputs from ``--seed``,
computes every answer's oracle, then runs whole cycles of rounds over the
input pool for ``--seconds``, each cycle followed by timed set-ups, and checks
every answer.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics of traced passes (see ``tracing.py``) instead.

The last line of standard output is the result object; the line before it
holds provenance and the run's self-checks.  The run re-executes itself with
``PYTHONHASHSEED=0`` so that two runs with the same seed do the same work.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

#: the fewest set-ups a run times
SETUP_REPEATS = 9

#: after each cycle, set-ups run (at least one, each on the next pool input)
#: until they have taken this share of the cycle's wall time
SETUP_SHARE = 0.25


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the library's Python sources, which identifies the code
    measured where there is no ``.git`` to read a commit from."""
    digest = hashlib.sha256()
    for folder, _subfolders, files in sorted(os.walk(SOURCE)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SOURCE).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def bounds() -> dict:
    """Each end-to-end metric's bound, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def round_items(workload, pool, expected, index):
    """The input and oracle answers of round *index* (lists for ``serve``,
    whose rounds drive several logical sessions)."""
    width = getattr(workload, "sessions", None)
    if width is None:
        return pool[index % len(pool)], expected[index % len(pool)]
    picks = [(index * width + offset) % len(pool) for offset in range(width)]
    return [pool[p] for p in picks], [expected[p] for p in picks]


def rounds_per_pass(workload, pool) -> int:
    """Rounds that use every pool input once."""
    return len(pool) // getattr(workload, "sessions", 1)


def time_setup(workload, expected, index, log):
    """Seconds from imported modules to the first checked answer on pool
    input *index*, after a full garbage collection."""
    gc.collect()
    start = time.perf_counter()
    answer = workload.setup(workload.seeds[index])
    elapsed = time.perf_counter() - start
    workload.end_setup()
    log.check(answer, expected[index][0], f"{workload.name} set-up answer")
    return elapsed


def end_to_end(workload, pool, expected, seconds, report):
    """Whole cycles over the pool until *seconds* have passed, each followed
    by set-ups.

    Every timing repeats once per cycle on the same state: an operation, a
    round.  Each is reduced over its repetitions with the workload's
    ``repeat_statistic`` before the metrics are taken over them.  Set-ups
    are spread over the run instead of timed in one burst, so a stall of
    the machine moves a few samples, not the median; they walk the pool, so
    the median does not hang on a few inputs, and each input's set-ups are
    reduced to the fastest, as a set-up repeats deterministic work."""
    from measure import (
        KINDS, SampleLog, peak_memory_mib, per_key, stationarity, summarize,
    )

    limits = bounds()
    statistic = workload.repeat_statistic
    log = SampleLog()
    time_setup(workload, expected, 0, log)  # untimed warm-up
    workload.open()
    per_cycle = rounds_per_pass(workload, pool)
    # ``(round index, seconds)`` of every round, and operations per cycle
    rounds, setups = [], []
    operations = 0
    start = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - start < seconds:
        begin = time.perf_counter()
        for index in range(per_cycle):
            item, answers = round_items(workload, pool, expected, index)
            log.begin_round(index)
            round_start = time.perf_counter()
            workload.run_round(item, answers, log)
            rounds.append((index, time.perf_counter() - round_start))
        if not operations:
            operations = sum(len(samples) for samples in log.samples.values())
        cycle_s = time.perf_counter() - begin
        setups_begin = time.perf_counter()
        while True:
            index = len(setups) % (workload.setup_inputs or len(pool))
            setups.append((index, time_setup(workload, expected, index, log)))
            if time.perf_counter() - setups_begin >= SETUP_SHARE * cycle_s:
                break
        log.cycle += 1
    wall = time.perf_counter() - start
    workload.close()
    cycles = log.cycle
    setup_s = statistics.median(per_key(setups, min))
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    tails, drift = {}, {}
    for kind in KINDS:
        summary = summarize(log, kind, statistic)
        metrics[f"{kind}_p50_ms"] = {"value": summary["p50_ms"], "unit": "ms"}
        metrics[f"{kind}_tail_ms"] = {"value": summary["tail_ms"], "unit": "ms"}
        tails[f"{kind}_tail_ms"] = {
            key: summary[key] for key in ("tail_pct", "operations", "samples")
        }
        drift[kind] = stationarity(log, kind, cycles, limits[f"{kind}_p50_ms"], statistic)
    ops_per_s = operations / sum(per_key(rounds, statistic))
    metrics["ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
    metrics["peak_mem_mib"] = {
        "value": peak_memory_mib(include_children=workload.name == "serve"),
        "unit": "MiB",
    }
    asks = len(log.samples["ask"])
    report.update(
        cycles=cycles,
        timed_s=wall,
        setups={"count": len(setups), "quartiles_s": statistics.quantiles(
            [seconds for _index, seconds in setups], n=4)},
        tails=tails,
        stationarity=drift,
        inconsistent_share=log.inconsistent / asks if asks else 0.0,
        failures=log.failures,
    )
    return log, metrics


def serve_layers(workload, mirror, recorder):
    """Split each served request into the serve hop and in-process layers.

    Every request of the round is answered again, in order, on a warm
    in-process session in the same state; the hop is the served latency
    minus that in-process time.  At each compaction point the snapshot round
    trip the service performs (``snapshot_bytes`` then ``restore_bytes``) is
    timed on the same session."""
    from repro.session import ReasoningSession
    from repro.session.snapshot import restore_bytes, snapshot_bytes

    for items, scripts, latencies in mirror:
        for item, script, served_latencies in zip(items, scripts, latencies):
            session = ReasoningSession(item.specification.copy())
            mutations = 0
            for (kind, request), served in zip(script, served_latencies):
                start = time.perf_counter()
                workload.apply_in_process(session, request)
                recorder.serve_hops.append(served - (time.perf_counter() - start))
                mutations += kind == "mutate"
                if kind == "mutate" and mutations % workload.compact_log_threshold == 0:
                    start = time.perf_counter()
                    payload = snapshot_bytes(session)
                    restore_bytes(payload)
                    recorder.snapshots.append((len(payload), time.perf_counter() - start))


def traced(workload, pool, expected, seconds, report):
    """Alternate untraced and traced passes over the whole pool.

    The first traced pass gives the layer metrics; every later one must
    repeat its deterministic counters exactly, or the run is invalid."""
    import tracing
    from measure import SampleLog

    tracing.install()
    log = SampleLog()
    time_setup(workload, expected, 0, log)
    workload.open()
    passes = rounds_per_pass(workload, pool)
    ratios, first, mismatches = [], None, []
    started = time.perf_counter()
    while len(ratios) < 2 or time.perf_counter() - started < seconds:
        gc.collect()
        begin = time.perf_counter()
        for index in range(passes):
            item, answers = round_items(workload, pool, expected, index)
            workload.run_round(item, answers, log)
        untraced_s = time.perf_counter() - begin
        gc.collect()
        recorder = tracing.Recorder()
        pass_log = SampleLog()
        begin = time.perf_counter()
        with recorder:
            for index in range(passes):
                item, answers = round_items(workload, pool, expected, index)
                mirror = []
                workload.run_round(item, answers, pass_log, mirror)
                if workload.name == "serve":
                    serve_layers(workload, mirror, recorder)
        ratios.append((time.perf_counter() - begin) / untraced_s)
        log.attempted += pass_log.attempted
        log.failed += pass_log.failed
        log.failures.extend(pass_log.failures)
        counts = {name: recorder.counts[name] for name in tracing.DETERMINISTIC}
        if first is None:
            first = (recorder, pass_log, counts)
        elif counts != first[2]:
            mismatches.append(counts)
    workload.close()
    recorder, pass_log, counts = first
    operations = sum(len(samples) for samples in pass_log.samples.values())
    metrics = tracing.layer_report(recorder, operations)
    layer_s = tracing.layer_seconds(recorder)
    if workload.name == "serve":
        layer_s["serve"] = sum(recorder.serve_hops)
        snapshots = recorder.snapshots or [(0, 0.0)]
        metrics.update({
            "serve.hop_ms": statistics.median(recorder.serve_hops) * 1000.0,
            "serve.request_bytes": statistics.mean(recorder.request_bytes),
            "serve.compactions": len(recorder.snapshots),
            "snapshot.bytes": statistics.mean(size for size, _s in snapshots),
            "snapshot.ms": statistics.mean(s for _size, s in snapshots) * 1000.0,
        })
    else:
        metrics.update({name: 0.0 for name in tracing.SERVE_METRICS})
    op_s = sum(sum(samples) for samples in pass_log.samples.values())
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    metrics["trace.coverage_ratio"] = sum(layer_s.values()) / op_s
    if mismatches:
        log.failed += 1
        log.failures.append("determinism counters differ between traced passes")
    report.update(
        traced_passes=len(ratios),
        overhead_ratios=ratios,
        determinism={"counts": counts, "mismatches": mismatches},
        layer_share={layer: s / op_s for layer, s in layer_s.items()},
        dominant_layer={
            "measured": max(layer_s, key=layer_s.get),
            "predicted": workload.predicted["most"],
        },
        least_layer={
            "measured": min((l for l in layer_s if layer_s[l] > 0), key=layer_s.get),
            "predicted": workload.predicted["least"],
        },
        failures=log.failures[:5],
    )
    return log, {
        name: {"value": value, "unit": tracing.unit_of(name)}
        for name, value in metrics.items()
    }


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The service's workers are joined by ``ReasoningService.close``; this
    catches any that outlived it, and the ``multiprocessing`` resource
    tracker, which the spawn context starts and nothing waits for: left
    alone it ends only after this process has, as an orphan."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # replace this process rather than wait on a child, so whoever runs
        # the benchmark waits on the process that does the work
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], environment)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no library sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    from repro.solvers.backend import resolve_backend
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    seeds = workload.seeds = [args.seed * 1000 + index for index in range(workload.pool_size)]
    pool = [workload.make_input(seed) for seed in seeds]
    expected = [workload.expected(item) for item in pool]
    report = {
        "provenance": {
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "backend": resolve_backend(None),
            "nproc": os.cpu_count(),
            "workload": args.workload,
            "seed": args.seed,
            "input_seeds": seeds,
            "seconds": args.seconds,
            "trace": args.trace,
        }
    }
    run = traced if args.trace else end_to_end
    try:
        log, metrics = run(workload, pool, expected, args.seconds, report)
    finally:
        workload.close()
        stop_children()
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": max(1, log.attempted),
        "failed": log.failed,
        "metrics": metrics,
    }))
    return 0


# the service's spawned worker imports this file as its main module, so the
# entry point stays behind the guard and the top level imports nothing heavy
if __name__ == "__main__":
    raise SystemExit(main())
