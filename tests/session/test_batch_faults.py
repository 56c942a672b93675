"""Chaos tests for the batch driver's parallel mode (a ReasoningService client).

The contract is per request: a worker failure (crash, hang, poisoned result)
fails only the request it was executing — every other answer is exactly what
a fault-free serial run produces.  Reads are retried once, so a one-shot crash
is invisible in the answers; a crash that also kills the retry comes back as
a retryable ``WorkerCrashed`` record."""

from repro.serve import BatchDriver
from repro.session import ProblemRequest
from repro.testing.faults import Fault, FaultPlan
from repro.workloads import company
from repro.workloads.synthetic import (
    SyntheticConfig,
    preservation_workload,
    random_specification,
)

#: one worker, killed on its last (5th) execution and again on the retry:
#: by then every other lane is drained, so the retry is the first execution
#: of the respawned generation 1
KILL_THE_RETRY = FaultPlan.of(
    Fault("worker.execute", "kill", after=4, times=1, generation=0),
    Fault("worker.execute", "kill", after=0, times=1, generation=1),
)


def _three_spec_stream():
    """Three structurally distinct specs → three session lanes."""
    spec_a = company.company_specification()
    spec_b, query_b = preservation_workload(
        candidates=2, conflict_groups=1, spoiler=True, seed=2
    )
    spec_c = random_specification(SyntheticConfig(seed=5, with_constraints=False))
    return [
        (spec_a, ProblemRequest("cps")),
        (spec_a, ProblemRequest("dcip", args=("Emp",))),
        (spec_b, ProblemRequest("cpp", query=query_b)),
        (spec_b, ProblemRequest("ecp", query=query_b)),
        (spec_c, ProblemRequest("cps")),
    ]


def _serial_oracle(requests):
    return BatchDriver(serial=True).run(requests)


def _assert_exact(result, truth):
    assert result.ok, result.error
    assert (result.problem, result.value) == (truth.problem, truth.value)


class TestCrashIsolation:
    def test_one_shot_kill_is_retried_and_answers_correctly(self):
        requests = _three_spec_stream()
        oracle = _serial_oracle(requests)
        # the first execution of generation 0 dies; the respawned worker
        # answers the retry and everything else
        plan = FaultPlan.of(
            Fault("worker.execute", "kill", after=0, times=1, generation=0)
        )
        with BatchDriver(processes=1, fault_plan=plan) as driver:
            results = driver.run(requests)
            respawns = driver._service.stats()["supervisor"]["respawns"]
        assert respawns == 1
        for result, truth in zip(results, oracle):
            _assert_exact(result, truth)
        assert results[0].attempts == 2  # the killed request, retried

    def test_killed_request_fails_alone_with_neighbours_exact(self):
        requests = _three_spec_stream()
        oracle = _serial_oracle(requests)
        with BatchDriver(processes=1, fault_plan=KILL_THE_RETRY) as driver:
            results = driver.run(requests)
            respawns = driver._service.stats()["supervisor"]["respawns"]
        assert respawns == 2
        failed = [index for index, result in enumerate(results) if not result.ok]
        assert len(failed) == 1
        crashed = results[failed[0]]
        assert crashed.failure.kind == "WorkerCrashed"
        assert crashed.failure.retryable
        assert crashed.attempts == 2
        for index, (result, truth) in enumerate(zip(results, oracle)):
            if index != failed[0]:
                _assert_exact(result, truth)

    def test_error_string_property_stays_compatible(self):
        with BatchDriver(processes=1, fault_plan=KILL_THE_RETRY) as driver:
            results = driver.run(_three_spec_stream())
        failed = [r for r in results if not r.ok]
        assert failed
        # .error renders the structured record in the historical repr style
        assert failed[0].error.startswith("WorkerCrashed(")
        ok = [r for r in results if r.ok]
        assert ok and all(r.error is None for r in ok)

    def test_failure_records_survive_pickling(self):
        import pickle

        with BatchDriver(processes=1, fault_plan=KILL_THE_RETRY) as driver:
            results = driver.run(_three_spec_stream())
        clone = pickle.loads(pickle.dumps(results))
        assert [r.ok for r in clone] == [r.ok for r in results]
        failed = next(r for r in clone if not r.ok)
        assert failed.failure.kind == "WorkerCrashed"


class TestHangsAndPoison:
    def test_hung_request_is_killed_at_the_deadline(self):
        requests = _three_spec_stream()
        oracle = _serial_oracle(requests)
        # one worker, sleeping on its last (5th) execution: the first four
        # requests complete, the fifth hangs and is killed at deadline +
        # hang grace
        plan = FaultPlan.of(
            Fault("worker.execute", "sleep", seconds=30.0, after=4, times=1)
        )
        with BatchDriver(processes=1, fault_plan=plan, deadline=1.5) as driver:
            results = driver.run(requests)
        failed = [index for index, result in enumerate(results) if not result.ok]
        assert len(failed) == 1
        hung = results[failed[0]]
        assert hung.failure.kind == "DeadlineExceeded"
        assert hung.degraded is not None and hung.degraded.reason == "deadline"
        for index, (result, truth) in enumerate(zip(results, oracle)):
            if index != failed[0]:
                _assert_exact(result, truth)

    def test_poisoned_result_is_a_structured_failure(self):
        requests = _three_spec_stream()
        oracle = _serial_oracle(requests)
        plan = FaultPlan.of(Fault("worker.result", "poison", after=0, times=1))
        with BatchDriver(processes=1, fault_plan=plan) as driver:
            results = driver.run(requests)
        # the first request runs first on the single worker; a poisoned
        # result is not retryable, so it fails alone
        assert not results[0].ok
        assert results[0].failure.exception == "TypeError"
        assert "unpicklable" in results[0].failure.message
        for result, truth in zip(results[1:], oracle[1:]):
            _assert_exact(result, truth)

    def test_transient_error_is_retried_and_answers_correctly(self):
        requests = _three_spec_stream()
        oracle = _serial_oracle(requests)
        plan = FaultPlan.of(
            Fault("worker.execute", "raise", after=0, times=1,
                  message="transient blip")
        )
        with BatchDriver(processes=1, fault_plan=plan) as driver:
            results = driver.run(requests)
        for result, truth in zip(results, oracle):
            _assert_exact(result, truth)
        assert results[0].attempts == 2

    def test_persistent_transient_error_is_structured_and_marked_retryable(self):
        plan = FaultPlan.of(
            Fault("worker.execute", "raise", every=1, message="transient blip")
        )
        with BatchDriver(processes=1, fault_plan=plan) as driver:
            results = driver.run(_three_spec_stream())
        for result in results:
            assert not result.ok
            assert result.failure.exception == "InjectedFault"
            assert result.failure.retryable
            assert result.failure.message == "transient blip"
            assert result.attempts == 2  # the one retry reads get


class TestPoolResilience:
    def test_driver_replaces_an_externally_closed_service(self):
        requests = _three_spec_stream()
        oracle = _serial_oracle(requests)
        with BatchDriver(processes=1) as driver:
            first = driver.run(requests)
            broken = driver._service
            broken.close()  # simulate the service dying out from under the driver
            assert not broken.alive
            second = driver.run(requests)
            assert driver._service is not broken
        for results in (first, second):
            for result, truth in zip(results, oracle):
                _assert_exact(result, truth)
