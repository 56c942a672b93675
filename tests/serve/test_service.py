"""Fault-free behavior of :class:`repro.serve.ReasoningService`.

One module-scoped service (spawned worker processes are expensive) serves all
tests; assertions about router/supervisor counters are therefore *relative* —
they measure deltas, never absolute totals."""

import asyncio
import random
import time

import pytest

from repro.serve import Mutation, ReasoningService
from repro.session import ProblemRequest, ReasoningSession, answer_request
from repro.solvers.budget import Budget
from repro.workloads import company
from repro.workloads.synthetic import preservation_workload

ORDER = {"salary": [("s1", "s3")]}


@pytest.fixture(scope="module")
def service():
    svc = ReasoningService(processes=2, retries=1)
    yield svc
    svc.close()


def run(coro):
    return asyncio.run(coro)


class TestAnswers:
    def test_answers_match_a_direct_session(self, service):
        spec = company.company_specification()
        queries = company.paper_queries()
        oracle = ReasoningSession(company.company_specification())
        requests = [
            (spec, ProblemRequest("cps")),
            (spec, ProblemRequest("dcip", args=("Emp",))),
            (spec, ProblemRequest("cop", args=("Emp", ORDER))),
            (spec, ProblemRequest("ccqa", query=queries["Q1"])),
        ]
        answers = run(service.gather(requests))
        assert [a.ok for a in answers] == [True] * 4
        assert answers[0].value == oracle.consistent()
        assert answers[1].value == oracle.deterministic("Emp")
        assert answers[2].value == oracle.certain_ordering("Emp", ORDER)
        assert answers[3].value == oracle.certain_answers(queries["Q1"])

    def test_query_problems_on_a_preservation_workload(self, service):
        spec, query = preservation_workload(candidates=3, conflict_groups=2, seed=1)
        oracle = ReasoningSession(
            preservation_workload(candidates=3, conflict_groups=2, seed=1)[0]
        )
        answers = run(
            service.gather(
                [
                    (spec, ProblemRequest("cpp", query=query)),
                    (spec, ProblemRequest("ecp", query=query)),
                    (spec, ProblemRequest("bcp", query=query, args=(2,))),
                ]
            )
        )
        assert [a.ok for a in answers] == [True] * 3
        assert answers[0].value == oracle.cpp(query)
        assert answers[1].value == oracle.ecp(query)
        assert answers[2].value == oracle.bcp(query, 2)

    def test_gather_preserves_request_order(self, service):
        spec = company.company_specification()
        requests = [
            (spec, ProblemRequest("cps")),
            (spec, ProblemRequest("dcip", args=("Emp",))),
            (spec, ProblemRequest("cps")),
        ]
        answers = run(service.gather(requests))
        assert [a.problem for a in answers] == ["cps", "dcip", "cps"]

    def test_stream_yields_every_index_exactly_once(self, service):
        spec = company.company_specification()
        requests = [(spec, ProblemRequest("cps")) for _ in range(5)]

        async def collect():
            seen = []
            async for index, answer in service.stream(requests):
                seen.append((index, answer.ok))
            return seen

        seen = run(collect())
        assert sorted(index for index, _ in seen) == [0, 1, 2, 3, 4]
        assert all(ok for _, ok in seen)


class TestAffinity:
    def test_structural_twins_share_one_warm_session(self, service):
        spec = company.company_specification()
        twin = company.company_specification()
        before = service.stats()["router"]
        run(service.submit(spec, ProblemRequest("cps")))
        after_first = service.stats()["router"]
        run(service.submit(twin, ProblemRequest("cps")))
        after_twin = service.stats()["router"]
        # the twin joined the existing entry: a hit, no new session
        assert after_twin["hits"] == after_first["hits"] + 1
        assert after_twin["sessions"] == after_first["sessions"]
        assert after_first["misses"] <= before["misses"] + 1

    def test_mutated_session_stops_accepting_structural_twins(self, service):
        spec = company.company_specification()
        run(service.submit(spec, ProblemRequest("cps")))
        mutated = run(
            service.submit(spec, Mutation("add_order", args=("Emp", "salary", "s1", "s3")))
        )
        assert mutated.ok, mutated.error
        twin = company.company_specification()
        answer = run(service.submit(twin, ProblemRequest("cop", args=("Emp", ORDER))))
        # the twin never joins the mutated entry, only an unmutated session
        assert service._router.entry_for(spec).mutated
        assert not service._router.entry_for(twin).mutated
        oracle = ReasoningSession(company.company_specification())
        assert answer.value == oracle.certain_ordering("Emp", ORDER)

    def test_mutation_changes_subsequent_answers(self, service):
        spec = company.company_specification()
        baseline = run(service.submit(spec, ProblemRequest("cop", args=("Emp", ORDER))))
        mutated = run(
            service.submit(spec, Mutation("add_order", args=("Emp", "salary", "s1", "s3")))
        )
        assert mutated.ok, mutated.error
        after = run(service.submit(spec, ProblemRequest("cop", args=("Emp", ORDER))))
        oracle = ReasoningSession(company.company_specification())
        assert baseline.value == oracle.certain_ordering("Emp", ORDER)
        oracle.add_order("Emp", "salary", "s1", "s3")
        assert after.value == oracle.certain_ordering("Emp", ORDER) is True

    def test_a_twin_write_stays_in_its_own_session(self):
        """Two structurally equal specifications: a write through one handle
        must neither reach the other's answers nor be lost to its own."""
        a = company.company_specification()
        b = company.company_specification()
        pair = {"salary": [("s1", "s2")]}
        fresh = ReasoningService(processes=1)
        try:
            assert run(fresh.submit(a, ProblemRequest("cps"))).ok
            written = run(
                fresh.submit(b, Mutation("add_order", args=("Emp", "salary", "s1", "s2")))
            )
            assert written.ok, written.error
            answer_a = run(fresh.submit(a, ProblemRequest("cop", args=("Emp", pair))))
            answer_b = run(fresh.submit(b, ProblemRequest("cop", args=("Emp", pair))))
        finally:
            fresh.close()
        oracle = ReasoningSession(company.company_specification())
        assert answer_a.value == oracle.certain_ordering("Emp", pair) is False
        oracle.add_order("Emp", "salary", "s1", "s2")
        assert answer_b.value == oracle.certain_ordering("Emp", pair) is True

    @pytest.mark.parametrize("seed", range(20))
    def test_interleaved_twin_handles_match_one_oracle_each(self, service, seed):
        """Three handles on equal specifications interleave asks and writes
        through one service; each handle answers like its own session."""
        rng = random.Random(seed)
        handles = [company.company_specification() for _ in range(3)]
        oracles = [ReasoningSession(company.company_specification()) for _ in handles]
        salaries = company.company_specification().instance("Emp").entity_tids(company.MARY)
        for step in range(10):
            index = rng.randrange(len(handles))
            roll = rng.random()
            if roll < 0.25:
                lower, upper = rng.sample(salaries, 2)
                item = Mutation("add_order", args=("Emp", "salary", lower, upper))
            elif roll < 0.4:
                values = {
                    "EID": company.MARY, "FN": "Mary", "LN": rng.choice(["Smith", "Dupont"]),
                    "address": "2 Small St", "salary": rng.randrange(50, 100),
                    "status": rng.choice(["single", "married"]),
                }
                item = Mutation("add_tuple", args=("Emp", f"twin_{seed}_{step}", values))
            else:
                pair = tuple(rng.sample(salaries, 2))
                item = rng.choice(
                    [
                        ProblemRequest("cps"),
                        ProblemRequest("cop", args=("Emp", {"salary": [pair]})),
                        ProblemRequest("ccqa", query=company.paper_queries()["Q1"]),
                    ]
                )
            answer = run(service.submit(handles[index], item))
            try:
                if isinstance(item, Mutation):
                    item.apply(oracles[index])
                else:
                    expected = answer_request(oracles[index], item)
            except Exception:  # noqa: BLE001 - the service must fail alike
                assert not answer.ok, f"seed {seed} step {step}: {item}"
                continue
            assert answer.ok, f"seed {seed} step {step}: {answer.error}"
            if not isinstance(item, Mutation):
                assert answer.value == expected, f"seed {seed} step {step}: {item}"


class TestFailuresAreStructured:
    def test_bad_mutation_fails_without_committing(self, service):
        spec = company.company_specification()
        bad = run(
            service.submit(
                spec, Mutation("add_order", args=("Emp", "salary", "nope", "s3"))
            )
        )
        assert not bad.ok
        assert bad.failure is not None and "nope" in bad.failure.message
        # the failed mutation never entered the log: answers stay baseline
        answer = run(service.submit(spec, ProblemRequest("cps")))
        oracle = ReasoningSession(company.company_specification())
        assert answer.value == oracle.consistent()

    def test_unknown_mutation_op_is_rejected_client_side(self):
        with pytest.raises(Exception):
            Mutation("drop_table", args=("Emp",))

    def test_expired_deadline_degrades_with_a_label(self, service):
        spec, query = preservation_workload(candidates=3, conflict_groups=2, seed=3)
        answer = run(
            service.submit(
                spec,
                ProblemRequest("cpp", query=query),
                deadline=Budget(deadline=time.monotonic() - 1.0),
            )
        )
        assert not answer.ok
        assert answer.degraded is not None
        assert answer.degraded.reason in ("deadline", "conflicts")
        assert answer.degraded.attempted  # names what was tried

    def test_stats_shape(self, service):
        stats = service.stats()
        assert {"hits", "misses", "evictions", "sessions"} <= set(stats["router"])
        assert {"workers", "respawns", "lanes"} <= set(stats["supervisor"])
