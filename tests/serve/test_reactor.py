"""The supervisor's pump is a reactor: it sleeps until a result, a death, a
wake or its earliest timer, and never spins.

Each timer test runs with no other traffic, so nothing but the timer itself
can wake the pump in time for the asserted bound."""

import asyncio
import multiprocessing
import os
import resource
import signal
import time

from repro.serve import ReasoningService
from repro.session import ProblemRequest
from repro.testing.faults import Fault, FaultPlan
from repro.workloads import company


def run(coro):
    return asyncio.run(coro)


def test_a_retried_read_fires_after_its_backoff():
    plan = FaultPlan.of(Fault("worker.request", "raise", after=0, times=1))
    spec = company.company_specification()
    service = ReasoningService(processes=1, retries=1, backoff_s=0.3, fault_plan=plan)

    async def scenario():
        started = time.monotonic()
        answer = await asyncio.wait_for(
            service.submit(spec, ProblemRequest("cps")), timeout=10.0
        )
        return answer, time.monotonic() - started

    try:
        answer, elapsed = run(scenario())
    finally:
        service.close()
    assert answer.ok, answer.error
    assert answer.attempts == 2
    assert 0.3 <= elapsed < 3.0


def test_a_queued_item_expires_at_its_deadline():
    # the first request holds the only worker for 3 s; the second, queued
    # behind it, must expire at its own 0.3 s deadline, not when the
    # worker frees up
    plan = FaultPlan.of(Fault("worker.execute", "sleep", seconds=3.0, times=1))
    spec = company.company_specification()
    service = ReasoningService(processes=1, fault_plan=plan)

    async def scenario():
        first = asyncio.ensure_future(service.submit(spec, ProblemRequest("cps")))
        await asyncio.sleep(0)  # the first request is dispatched
        started = time.monotonic()
        queued = await service.submit(spec, ProblemRequest("cps"), deadline=0.3)
        elapsed = time.monotonic() - started
        return queued, elapsed, await first

    try:
        queued, elapsed, first = run(scenario())
    finally:
        service.close()
    assert queued.degraded is not None and queued.degraded.reason == "deadline"
    assert 0.3 <= elapsed < 2.0
    assert first.ok, first.error


def test_close_returns_promptly_while_the_pump_waits_without_a_timer():
    service = ReasoningService(processes=1)
    answer = run(service.submit(company.company_specification(), ProblemRequest("cps")))
    assert answer.ok, answer.error
    time.sleep(0.2)  # the pump is now blocked with no timer pending
    started = time.monotonic()
    service.close()
    assert time.monotonic() - started < 1.0


def test_a_dead_idle_worker_does_not_make_the_pump_spin():
    before = {child.pid for child in multiprocessing.active_children()}
    service = ReasoningService(processes=1)
    try:
        spec = company.company_specification()
        assert run(service.submit(spec, ProblemRequest("cps"))).ok
        (worker,) = [
            child for child in multiprocessing.active_children()
            if child.pid not in before
        ]
        os.kill(worker.pid, signal.SIGKILL)
        time.sleep(0.3)  # the pump sees the death and reaps the worker
        spent = resource.getrusage(resource.RUSAGE_SELF).ru_utime
        time.sleep(1.0)
        spent = resource.getrusage(resource.RUSAGE_SELF).ru_utime - spent
        assert spent < 0.1
        # the deferred respawn happens once work arrives again
        again = run(service.submit(spec, ProblemRequest("cps")))
        assert again.ok, again.error
        assert service.stats()["supervisor"]["respawns"] == 1
    finally:
        service.close()
