"""Tests for the batch driver: structural session sharing, serial vs parallel
answer equality (budget expiry included), per-request error isolation."""

from __future__ import annotations

import pytest

from repro.exceptions import SpecificationError
from repro.preservation.cpp import is_currency_preserving
from repro.reasoning.ccqa import certain_current_answers
from repro.reasoning.cps import is_consistent
from repro.serve import BatchDriver
from repro.session import ProblemRequest
from repro.solvers.budget import Budget
from repro.workloads.synthetic import (
    SyntheticConfig,
    preservation_workload,
    random_specification,
    random_sp_query,
)


def _request_stream():
    """A small mixed stream: two structurally-equal copies of one spec, one
    distinct spec, requests over all eight problems."""
    spec_a = random_specification(SyntheticConfig(seed=1, with_constraints=True))
    spec_a_again = random_specification(SyntheticConfig(seed=1, with_constraints=True))
    query_a = random_sp_query(spec_a, seed=1)
    spec_b, query_b = preservation_workload(
        candidates=2, conflict_groups=1, spoiler=True, seed=2
    )
    spec_c = random_specification(SyntheticConfig(seed=5, with_constraints=False))
    query_c = random_sp_query(spec_c, seed=5)
    name = spec_a.instance_names()[0]
    block = spec_a.instance(name).entity_tids("e0")
    order = {spec_a.instance(name).schema.attributes[0]: [(block[0], block[1])]}
    return [
        (spec_a, ProblemRequest("cps")),
        (spec_a_again, ProblemRequest("ccqa", query=query_a)),
        (spec_a, ProblemRequest("cop", args=(name, order))),
        (spec_a_again, ProblemRequest("dcip")),
        (spec_b, ProblemRequest("cpp", query=query_b)),
        (spec_b, ProblemRequest("ecp", query=query_b)),
        (spec_b, ProblemRequest("bcp", query=query_b, args=(1,))),
        (spec_c, ProblemRequest("sp", query=query_c)),
    ]


def _budget_expiry_request():
    """A CPP request whose one-conflict budget interrupts the search."""
    spec, query = preservation_workload(candidates=3, conflict_groups=2, seed=1)
    return spec, ProblemRequest(
        "cpp", query=query, kwargs={"deadline": Budget(max_conflicts=1)}
    )


class TestGroupingAndSerial:
    def test_structurally_equal_specs_share_one_session(self):
        driver = BatchDriver(serial=True)
        driver.run(_request_stream())
        # spec_a and spec_a_again are value-identical -> one session; spec_b
        # and spec_c get their own
        stats = driver._router.stats()
        assert (stats["sessions"], stats["hits"], stats["misses"]) == (3, 5, 3)
        assert len(driver._sessions) == 3

    def test_serial_results_match_direct_module_calls(self):
        requests = _request_stream()
        results = BatchDriver(serial=True).run(requests)
        assert [r.problem for r in results] == [q.problem for _, q in requests]
        assert all(r.ok for r in results), [r.error for r in results]
        spec_a, _ = requests[0]
        query_a = requests[1][1].query
        spec_b, cpp_request = requests[4]
        assert results[0].value == is_consistent(spec_a.copy())
        assert results[1].value == certain_current_answers(query_a, spec_a.copy())
        assert results[4].value == is_currency_preserving(
            cpp_request.query, spec_b.copy(), method="enumerate"
        )
        assert results[5].value is True  # ECP on a consistent spec

    def test_errors_are_isolated_per_request(self):
        spec = random_specification(SyntheticConfig(seed=3))
        requests = [
            (spec, ProblemRequest("cps")),
            (spec, ProblemRequest("cps", kwargs={"method": "bogus"})),
            (spec, ProblemRequest("cps")),
        ]
        results = BatchDriver(serial=True).run(requests)
        assert results[0].ok and results[2].ok
        assert not results[1].ok and "SpecificationError" in results[1].error

    def test_unknown_problem_rejected_at_request_construction(self):
        with pytest.raises(SpecificationError):
            ProblemRequest("nope")


class TestCrossBatchReuse:
    def test_serial_driver_keeps_sessions_across_runs(self):
        """The driver's router persists between run() calls, so a later batch
        naming an already-served spec reuses the warm session."""
        spec = random_specification(SyntheticConfig(seed=6, with_constraints=True))
        rebuilt = random_specification(SyntheticConfig(seed=6, with_constraints=True))
        driver = BatchDriver(serial=True)
        first = driver.run([(spec, ProblemRequest("cps"))])
        second = driver.run([(rebuilt, ProblemRequest("cps"))])
        assert first[0].value == second[0].value
        stats = driver._router.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_serial_driver_drops_the_sessions_its_router_evicts(self):
        specs = [
            random_specification(SyntheticConfig(seed=seed, with_constraints=False))
            for seed in range(65)  # one past the router's default capacity
        ]
        driver = BatchDriver(serial=True)
        first = driver.run([(spec, ProblemRequest("cps")) for spec in specs])
        assert driver._router.stats()["evictions"] == 1
        assert len(driver._sessions) == 64
        # the evicted first spec comes back on a fresh session, same answer
        (again,) = driver.run([(specs[0], ProblemRequest("cps"))])
        assert again.value == first[0].value == is_consistent(specs[0].copy())

    def test_ecp_wrapper_rejects_a_space_for_another_spec(self):
        from repro.preservation.ecp import currency_preserving_extension_exists
        from repro.preservation.sat_extensions import ExtensionSearchSpace

        spec_a, query = preservation_workload(candidates=2, conflict_groups=1, seed=7)
        spec_b, _ = preservation_workload(candidates=3, conflict_groups=1, seed=8)
        space = ExtensionSearchSpace(spec_b)
        with pytest.raises(SpecificationError):
            currency_preserving_extension_exists(query, spec_a, space=space)
        assert currency_preserving_extension_exists(query, spec_b, space=space)


class TestParallel:
    def test_parallel_matches_serial(self):
        # each mode gets its own stream: the budget request's Budget is a
        # mutable spend tracker, so the two runs must not share it
        serial = BatchDriver(serial=True).run(
            _request_stream() + [_budget_expiry_request()]
        )
        with BatchDriver(processes=2) as driver:
            parallel = driver.run(_request_stream() + [_budget_expiry_request()])
            router = driver._service.stats()["router"]

        def shape(answer):
            reason = answer.degraded.reason if answer.degraded is not None else None
            return answer.problem, answer.value, answer.error, reason

        assert [shape(r) for r in serial] == [shape(r) for r in parallel]
        assert serial[-1].degraded.reason == "conflicts"
        # the service interned the two structurally equal specs, as serial did
        assert (router["sessions"], router["hits"], router["misses"]) == (4, 5, 4)

    def test_worker_pool_persists_across_runs(self):
        """The service lives on the driver, so its workers (and their warm
        sessions) survive between batches, until close()."""
        spec_a = random_specification(SyntheticConfig(seed=9, with_constraints=True))
        spec_b = random_specification(SyntheticConfig(seed=10, with_constraints=True))
        with BatchDriver(processes=2) as driver:
            first = driver.run([(spec_a, ProblemRequest("cps"))])
            service = driver._service
            second = driver.run([(spec_a, ProblemRequest("dcip")),
                                 (spec_b, ProblemRequest("dcip"))])
            assert driver._service is service  # same worker processes
            stats = service.stats()
        assert driver._service is None  # released on exit
        assert not service.alive
        assert stats["supervisor"]["respawns"] == 0
        assert (stats["router"]["hits"], stats["router"]["misses"]) == (1, 2)
        assert all(r.ok for r in first + second)

    @pytest.mark.parametrize("mode", ["serial", "parallel"])
    def test_an_unpicklable_request_fails_alone(self, mode):
        """A request that cannot cross the process boundary fails by itself;
        its neighbours are answered in both modes."""
        spec = random_specification(SyntheticConfig(seed=3, with_constraints=True))
        stream = [
            (spec, ProblemRequest("cps")),
            (spec, ProblemRequest("ccqa", query=lambda: None)),
            (spec, ProblemRequest("cps")),
        ]
        options = {"serial": True} if mode == "serial" else {"processes": 1}
        with BatchDriver(**options) as driver:
            answers = driver.run(stream)
        expected = is_consistent(
            random_specification(SyntheticConfig(seed=3, with_constraints=True))
        )
        assert [answers[0].value, answers[2].value] == [expected, expected]
        assert answers[0].ok and answers[2].ok
        assert not answers[1].ok and answers[1].failure is not None
