"""Process and resource lifetime of the serving stack.

Workers must not outlive the process that supervises them, however it dies;
reaped incarnations must give back their descriptors; and lanes of evicted
sessions must not accumulate."""

import asyncio
import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.serve import ReasoningService
from repro.session import ProblemRequest
from repro.testing.faults import Fault, FaultPlan
from repro.workloads import company
from repro.workloads.synthetic import preservation_workload

SOURCE = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: a host process that serves one request, reports its worker and
#: resource-tracker pids, then idles until it is killed
HOST = textwrap.dedent(
    """
    import asyncio, json, multiprocessing, sys, time
    from multiprocessing import resource_tracker
    from repro.serve import ReasoningService
    from repro.session import ProblemRequest
    from repro.workloads import company

    service = ReasoningService(processes=1)
    answer = asyncio.run(
        service.submit(company.company_specification(), ProblemRequest("cps"))
    )
    assert answer.ok, answer.error
    pids = [child.pid for child in multiprocessing.active_children()]
    pids.append(resource_tracker._resource_tracker._pid)
    print(json.dumps(pids), flush=True)
    time.sleep(120)
    """
)

#: one open/submit/close cycle, then a normal interpreter exit
CYCLE = textwrap.dedent(
    """
    import asyncio
    from repro.serve import ReasoningService
    from repro.session import ProblemRequest
    from repro.workloads import company

    service = ReasoningService(processes=2)
    answer = asyncio.run(
        service.submit(company.company_specification(), ProblemRequest("cps"))
    )
    assert answer.ok, answer.error
    service.close()
    """
)


def _python(script, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(SOURCE)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.Popen(
        [sys.executable, "-c", script], env=env, text=True, **kwargs
    )


def _gone(pid):
    """True when *pid* no longer runs; a zombie counts as gone (its new
    parent may never reap it)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return True
    return stat[stat.rindex(")") + 2] in "ZX"


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def run(coro):
    return asyncio.run(coro)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs procfs")
class TestOrphans:
    @pytest.mark.parametrize(
        "signum", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"]
    )
    def test_workers_and_tracker_exit_with_their_host(self, signum):
        host = _python(HOST, stdout=subprocess.PIPE)
        try:
            pids = json.loads(host.stdout.readline())
        finally:
            host.send_signal(signum)
            host.wait(timeout=30)
            host.stdout.close()
        assert len(pids) == 2  # the worker and the resource tracker
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not all(map(_gone, pids)):
            time.sleep(0.05)
        survivors = [pid for pid in pids if not _gone(pid)]
        for pid in survivors:  # do not leave them behind for later tests
            os.kill(pid, signal.SIGKILL)
        assert survivors == []

    def test_a_closed_service_leaves_nothing_on_stderr(self):
        cycle = _python(CYCLE, stderr=subprocess.PIPE)
        _out, err = cycle.communicate(timeout=60)
        assert cycle.returncode == 0, err
        assert "resource_tracker" not in err
        assert "leaked semaphore" not in err


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs procfs")
class TestChannelHygiene:
    def test_respawns_and_close_give_back_every_descriptor(self):
        from multiprocessing import resource_tracker

        # the tracker is a process-wide singleton that any spawn starts once
        resource_tracker.ensure_running()
        before = _open_fds()
        # every first request of an incarnation kills it: one respawn each
        plan = FaultPlan.of(Fault("worker.execute", "kill", after=0, times=1))
        service = ReasoningService(processes=1, retries=0, fault_plan=plan)
        spec = company.company_specification()
        try:
            for _ in range(5):
                answer = run(service.submit(spec, ProblemRequest("cps")))
                assert answer.failure is not None
                assert answer.failure.kind == "WorkerCrashed"
            assert service.stats()["supervisor"]["respawns"] == 5
        finally:
            service.close()
        assert _open_fds() == before


class TestLanePruning:
    def test_evicted_sessions_release_their_lanes(self):
        service = ReasoningService(processes=1, session_capacity=4)
        try:
            for seed in range(20):
                spec, _query = preservation_workload(
                    candidates=2, conflict_groups=1, seed=seed
                )
                answer = run(service.submit(spec, ProblemRequest("cps")))
                assert answer.ok, answer.error
            stats = service.stats()
        finally:
            service.close()
        assert stats["router"]["evictions"] >= 16
        assert stats["supervisor"]["lanes"] <= 4
