"""Chaos suite: the service under injected faults.

Every scenario drives the *real* code paths — real spawned worker processes,
real crashes (``os._exit``), real pickling failures — via the compiled-in
fault points of :mod:`repro.testing.faults`.  The contract under test: a fault
fails (or degrades, with a label) only its own request; neighbours answer
exactly as a fault-free serial session would."""

import asyncio
import time

import pytest

from repro.serve import Mutation, ReasoningService
from repro.session import ProblemRequest, ReasoningSession, answer_request
from repro.testing.faults import Fault, FaultPlan
from repro.workloads import company
from repro.workloads.synthetic import preservation_workload

ORDER = {"salary": [("s1", "s3")]}


def run(coro):
    return asyncio.run(coro)


def serve(**kwargs):
    kwargs.setdefault("processes", 1)
    return ReasoningService(**kwargs)


class TestWorkerCrash:
    def test_killed_worker_is_respawned_and_the_read_retried(self):
        # generation=0 scopes the kill to the first incarnation: the respawned
        # worker (generation 1) starts with fresh hit counters and must not
        # crash again on the retry
        plan = FaultPlan.of(
            Fault("worker.execute", "kill", after=1, times=1, generation=0)
        )
        spec = company.company_specification()
        oracle = ReasoningSession(company.company_specification())

        async def scenario():
            async with serve(retries=1, fault_plan=plan) as svc:
                first = await svc.submit(spec, ProblemRequest("cps"))
                crashed = await svc.submit(spec, ProblemRequest("ecp"))
                after = await svc.submit(spec, ProblemRequest("cps"))
                return first, crashed, after, svc.stats()["supervisor"]

        first, crashed, after, stats = run(scenario())
        assert first.ok and first.value == oracle.consistent()
        # the crashed read was transparently retried on the respawned worker
        assert crashed.ok and crashed.value == oracle.ecp(None)
        assert crashed.ok, crashed.error
        assert crashed.attempts == 2
        assert after.ok and after.value == oracle.consistent()
        assert stats["respawns"] == 1

    def test_crash_with_retries_exhausted_is_a_structured_failure(self):
        plan = FaultPlan.of(Fault("worker.execute", "kill", after=0, times=1))
        spec = company.company_specification()

        async def scenario():
            async with serve(retries=0, fault_plan=plan) as svc:
                return await svc.submit(spec, ProblemRequest("cps"))

        answer = run(scenario())
        assert not answer.ok
        assert answer.failure is not None
        assert answer.failure.kind == "WorkerCrashed"
        assert answer.failure.retryable

    def test_crashed_mutation_is_never_retried_and_never_committed(self):
        plan = FaultPlan.of(
            Fault("worker.execute", "kill", after=0, times=1, generation=0)
        )
        spec = company.company_specification()
        oracle = ReasoningSession(company.company_specification())

        async def scenario():
            async with serve(retries=2, fault_plan=plan) as svc:
                lost = await svc.submit(
                    spec, Mutation("add_order", args=("Emp", "salary", "s1", "s3"))
                )
                read = await svc.submit(spec, ProblemRequest("cop", args=("Emp", ORDER)))
                return lost, read, svc.stats()["router"]

        lost, read, router = run(scenario())
        # the mutation failed structurally (at-least-once retry could have
        # double-applied it, so the service must not retry mutations at all)
        assert not lost.ok
        assert lost.attempts == 1
        assert lost.failure is not None and lost.failure.kind == "WorkerCrashed"
        # ... and was never committed: the re-warmed session answers baseline
        assert router["mutated_sessions"] == 0
        assert read.ok and read.value == oracle.certain_ordering("Emp", ORDER)

    def test_committed_mutations_survive_a_crash_via_log_replay(self):
        # mutate first (no fault yet), then crash the worker on a later read:
        # the respawned worker must rebuild the session from (base, log)
        plan = FaultPlan.of(
            Fault("worker.execute", "kill", after=2, times=1, generation=0)
        )
        spec = company.company_specification()
        oracle = ReasoningSession(company.company_specification())
        oracle.add_order("Emp", "salary", "s1", "s3")

        async def scenario():
            async with serve(retries=1, fault_plan=plan) as svc:
                committed = await svc.submit(
                    spec, Mutation("add_order", args=("Emp", "salary", "s1", "s3"))
                )
                warm = await svc.submit(spec, ProblemRequest("cop", args=("Emp", ORDER)))
                # third hit crashes; the retry lands on a respawned worker
                # whose session is re-warmed by replaying the committed log
                rewarmed = await svc.submit(
                    spec, ProblemRequest("cop", args=("Emp", ORDER))
                )
                return committed, warm, rewarmed, svc.stats()["supervisor"]

        committed, warm, rewarmed, stats = run(scenario())
        assert committed.ok, committed.error
        expected = oracle.certain_ordering("Emp", ORDER)
        assert warm.ok and warm.value == expected
        assert rewarmed.ok, rewarmed.error
        assert rewarmed.value == expected
        assert rewarmed.attempts == 2
        assert stats["respawns"] == 1


class TestPoison:
    def test_poison_result_fails_only_its_own_request(self):
        plan = FaultPlan.of(Fault("worker.result", "poison", after=0, times=1))
        spec = company.company_specification()
        oracle = ReasoningSession(company.company_specification())

        async def scenario():
            async with serve(fault_plan=plan) as svc:
                poisoned = await svc.submit(spec, ProblemRequest("cps"))
                neighbour = await svc.submit(spec, ProblemRequest("cps"))
                return poisoned, neighbour

        poisoned, neighbour = run(scenario())
        assert not poisoned.ok
        assert poisoned.failure is not None
        assert poisoned.failure.exception == "TypeError"
        assert "unpicklable" in poisoned.failure.message
        assert neighbour.ok and neighbour.value == oracle.consistent()

    def test_unpicklable_request_is_rejected_at_submission(self):
        spec = company.company_specification()

        async def scenario():
            async with serve() as svc:
                bad = ProblemRequest("ccqa", query=lambda: None)
                rejected = await svc.submit(spec, bad)
                healthy = await svc.submit(spec, ProblemRequest("cps"))
                return rejected, healthy, svc.stats()["supervisor"]["respawns"]

        rejected, healthy, respawns = run(scenario())
        # the request fails alone, as a structured answer
        assert not rejected.ok and rejected.failure is not None
        assert not rejected.failure.retryable
        # the poison payload never reached a worker, so nothing crashed
        assert healthy.ok and respawns == 0


class TestDeadlines:
    def test_expired_deadline_is_an_explicit_degraded_answer(self):
        spec = company.company_specification()

        async def scenario():
            async with serve() as svc:
                return await svc.submit(spec, ProblemRequest("cps"), deadline=-0.5)

        answer = run(scenario())
        assert not answer.ok
        assert answer.degraded is not None
        assert answer.degraded.reason == "deadline"
        assert answer.degraded.attempted

    def test_hung_worker_is_killed_at_deadline_plus_grace(self):
        plan = FaultPlan.of(Fault("worker.execute", "sleep", seconds=8.0, times=1))
        spec = company.company_specification()
        oracle = ReasoningSession(company.company_specification())

        async def scenario():
            async with serve(fault_plan=plan, hang_grace_s=0.4) as svc:
                started = time.monotonic()
                hung = await svc.submit(spec, ProblemRequest("cps"), deadline=0.4)
                elapsed = time.monotonic() - started
                recovered = await svc.submit(spec, ProblemRequest("cps"))
                return hung, elapsed, recovered

        hung, elapsed, recovered = run(scenario())
        assert not hung.ok
        assert hung.degraded is not None and hung.degraded.reason == "deadline"
        # killed at ~deadline+grace (0.8s), nowhere near the 8s stall
        assert elapsed < 4.0
        assert recovered.ok and recovered.value == oracle.consistent()

    def test_budget_exhaustion_mid_solve_is_labeled_with_the_spend(self):
        # the "budget" fault raises ResourceBudgetExceeded from inside the
        # worker's evaluation — the deadline-at-k-conflicts shape
        plan = FaultPlan.of(Fault("solver.solve", "budget", after=0, times=1))
        spec, query = preservation_workload(candidates=3, conflict_groups=2, seed=1)

        async def scenario():
            async with serve(fault_plan=plan) as svc:
                degraded = await svc.submit(spec, ProblemRequest("cpp", query=query))
                resumed = await svc.submit(spec, ProblemRequest("cpp", query=query))
                return degraded, resumed

        degraded, resumed = run(scenario())
        assert not degraded.ok
        assert degraded.degraded is not None
        assert degraded.degraded.reason == "injected"
        assert degraded.degraded.spent is not None
        assert "cpp" in degraded.degraded.attempted
        # the wider (fault-free) retry resumes the warm session to the truth
        oracle = ReasoningSession(
            preservation_workload(candidates=3, conflict_groups=2, seed=1)[0]
        )
        assert resumed.ok and resumed.value == oracle.cpp(query)


class TestOverload:
    def test_admission_control_rejects_beyond_the_queue_limit(self):
        plan = FaultPlan.of(Fault("worker.execute", "sleep", seconds=0.3, every=1))
        spec = company.company_specification()

        async def scenario():
            async with serve(queue_limit=2, fault_plan=plan) as svc:
                tasks = [
                    asyncio.create_task(svc.submit(spec, ProblemRequest("cps")))
                    for _ in range(8)
                ]
                return await asyncio.gather(*tasks)

        answers = run(scenario())
        accepted = [a for a in answers if a.ok]
        rejected = [a for a in answers if not a.ok]
        assert accepted and rejected  # some of each
        for answer in rejected:
            assert answer.failure is not None
            assert answer.failure.kind == "Overloaded"
            assert answer.failure.retryable


#: one of each fault, each firing once: a crash, a transient error, a
#: poisoned result and an injected budget exhaustion
ONE_SHOT = FaultPlan.of(
    Fault("worker.execute", "kill", after=2, times=1, generation=0),
    Fault("worker.request", "raise", after=4, times=1),
    Fault("worker.result", "poison", after=6, times=1),
    Fault("solver.solve", "budget", after=3, times=1),
)

#: sustained chaos: a stall every 4th execution, a crash every 9th and a
#: transient error every 7th request, per worker, with fresh counters in
#: every respawned incarnation
PERIODIC = FaultPlan.of(
    Fault("worker.execute", "sleep", seconds=0.01, every=4),
    Fault("worker.execute", "kill", every=9),
    Fault("worker.request", "raise", every=7),
)


class TestPropertySweep:
    """Degraded or failed answers are always labeled — never silently wrong.

    A fault plan runs under a stream of requests across three logical
    sessions; every answer must either match the fault-free serial oracle
    exactly or carry an explicit failure/degraded label.  The periodic plan
    replays the stream three times, so that some worker reaches its ninth
    execution and crashes."""

    @pytest.mark.parametrize(
        "plan, rounds", [(ONE_SHOT, 1), (PERIODIC, 3)], ids=["one-shot", "periodic"]
    )
    def test_every_answer_is_correct_or_labeled(self, plan, rounds):
        specs = [
            company.company_specification(),
            preservation_workload(candidates=3, conflict_groups=2, seed=1)[0],
            preservation_workload(candidates=2, conflict_groups=2, seed=7)[0],
        ]
        query1 = preservation_workload(candidates=3, conflict_groups=2, seed=1)[1]
        query2 = preservation_workload(candidates=2, conflict_groups=2, seed=7)[1]
        items = [
            (0, ProblemRequest("cps")),
            (1, ProblemRequest("cpp", query=query1)),
            (2, ProblemRequest("ecp", query=query2)),
            (0, ProblemRequest("dcip", args=("Emp",))),
            (1, ProblemRequest("ecp", query=query1)),
            (2, ProblemRequest("cps")),
            (0, ProblemRequest("cop", args=("Emp", ORDER))),
            (1, ProblemRequest("bcp", query=query1, args=(2,))),
            (2, ProblemRequest("cpp", query=query2)),
            (0, ProblemRequest("cps")),
        ] * rounds
        # the serial, fault-free oracle
        oracle_sessions = [ReasoningSession(s) for s in (
            company.company_specification(),
            preservation_workload(candidates=3, conflict_groups=2, seed=1)[0],
            preservation_workload(candidates=2, conflict_groups=2, seed=7)[0],
        )]
        expected = [answer_request(oracle_sessions[i], req) for i, req in items]

        async def scenario():
            async with serve(processes=2, retries=1, fault_plan=plan) as svc:
                answers = await svc.gather(
                    [(specs[i], req) for i, req in items]
                )
                return answers, svc.stats()["supervisor"]

        answers, stats = run(scenario())
        assert len(answers) == len(items)
        for answer, truth in zip(answers, expected):
            if answer.ok:
                assert answer.value == truth  # never silently wrong
            else:
                assert answer.failure is not None or answer.degraded is not None
                if answer.degraded is not None:
                    assert answer.degraded.reason
                    assert answer.degraded.attempted
        # the plan actually fired: both plans crash a worker, which the
        # supervisor respawns (retried faults may legitimately end up ok)
        assert stats["respawns"] >= 1
