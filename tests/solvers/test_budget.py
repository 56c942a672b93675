"""Resource budgets: resumable interruption of SAT search and the ambient
deadline scope the session layer propagates through.

The load-bearing property is *resumability*: a budget-interrupted solver keeps
its learnt clauses, activities and saved phases, so re-solving continues where
the budget ran out and reaches the identical verdict a fresh unbudgeted solver
would."""

import random
import time

import pytest

from repro.exceptions import ResourceBudgetExceeded, SpecificationError
from repro.session import ReasoningSession
from repro.solvers.budget import Budget, budget_scope, current_budget
from repro.solvers.sat import Solver
from repro.workloads.synthetic import preservation_workload


def _pigeonhole_clauses(pigeons, holes):
    """PHP(pigeons, holes): UNSAT when pigeons > holes, and hard enough for
    CDCL that a small conflict budget interrupts mid-refutation."""

    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def _random_3sat_clauses(seed, num_variables=30, num_clauses=126):
    """Near-threshold random 3-SAT; seed 4 is satisfiable and costs the CDCL
    engine ~23 conflicts, so a tight budget deterministically interrupts it."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_variables + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def _loaded_solver(clauses):
    solver = Solver()
    for clause in clauses:
        solver.add_clause(clause)
    return solver


class TestBudgetObject:
    def test_requires_at_least_one_limit(self):
        with pytest.raises(SpecificationError):
            Budget()

    def test_from_timeout_sets_absolute_deadline(self):
        budget = Budget.from_timeout(10.0)
        remaining = budget.remaining_time()
        assert remaining is not None and 9.0 < remaining <= 10.0

    def test_ensure_passes_budgets_through_and_coerces_numbers(self):
        budget = Budget(max_conflicts=5)
        assert Budget.ensure(budget) is budget
        coerced = Budget.ensure(2)
        assert coerced.deadline is not None

    def test_check_raises_on_expired_deadline(self):
        budget = Budget(deadline=time.monotonic() - 1.0)
        with pytest.raises(ResourceBudgetExceeded) as excinfo:
            budget.check()
        assert excinfo.value.reason == "deadline"

    def test_charge_raises_at_conflict_cap_with_counters(self):
        budget = Budget(max_conflicts=2)
        budget.charge(conflicts=1, propagations=10)
        with pytest.raises(ResourceBudgetExceeded) as excinfo:
            budget.charge(conflicts=1, propagations=7)
        error = excinfo.value
        assert error.reason == "conflicts"
        assert error.conflicts == 2
        assert error.propagations == 17

    def test_spent_reports_cumulative_work(self):
        budget = Budget(max_conflicts=100)
        budget.charge(conflicts=3, propagations=40)
        spent = budget.spent()
        assert spent["conflicts"] == 3.0
        assert spent["propagations"] == 40.0
        assert spent["elapsed_s"] >= 0.0


class TestSolverBudget:
    def test_conflict_budget_interrupts_with_learnt_clauses_retained(self):
        solver = _loaded_solver(_pigeonhole_clauses(5, 4))
        with pytest.raises(ResourceBudgetExceeded) as excinfo:
            solver.solve(budget=Budget(max_conflicts=3))
        assert excinfo.value.reason == "conflicts"
        assert excinfo.value.conflicts == 3
        # the interrupted search's learning survives
        assert solver.stats()["learnt"] >= 1

    def test_resume_reaches_identical_unsat_verdict(self):
        clauses = _pigeonhole_clauses(5, 4)
        interrupted = _loaded_solver(clauses)
        with pytest.raises(ResourceBudgetExceeded):
            interrupted.solve(budget=Budget(max_conflicts=3))
        learnt_at_interrupt = interrupted.stats()["learnt"]
        resumed = interrupted.solve()
        fresh = _loaded_solver(clauses).solve()
        assert resumed is None and fresh is None
        # the resumed search built on the interrupted one, not from scratch
        assert interrupted.stats()["learnt"] >= learnt_at_interrupt

    def test_resume_reaches_identical_sat_verdict(self):
        clauses = _random_3sat_clauses(seed=4)
        interrupted = _loaded_solver(clauses)
        with pytest.raises(ResourceBudgetExceeded):
            interrupted.solve(budget=Budget(max_conflicts=3))
        model = interrupted.solve()
        assert model is not None
        for clause in clauses:
            assert any(model[abs(l)] == (l > 0) for l in clause)

    def test_repeated_interrupts_accumulate_to_the_verdict(self):
        # drip-feed the refutation three conflicts at a time: each budget is
        # fresh, but the solver's learnt state carries the search forward
        solver = _loaded_solver(_pigeonhole_clauses(5, 4))
        verdict = "pending"
        for _ in range(100):
            try:
                verdict = solver.solve(budget=Budget(max_conflicts=3))
                break
            except ResourceBudgetExceeded:
                continue
        assert verdict is None

    def test_expired_deadline_never_starts_the_search(self):
        solver = _loaded_solver(_pigeonhole_clauses(5, 4))
        with pytest.raises(ResourceBudgetExceeded) as excinfo:
            solver.solve(budget=Budget(deadline=time.monotonic() - 1.0))
        assert excinfo.value.reason == "deadline"
        assert excinfo.value.conflicts == 0
        assert solver.stats()["conflicts"] == 0

    def test_propagation_budget_fires(self):
        solver = _loaded_solver(_pigeonhole_clauses(5, 4))
        with pytest.raises(ResourceBudgetExceeded) as excinfo:
            solver.solve(budget=Budget(max_propagations=1))
        assert excinfo.value.reason == "propagations"

    def test_ambient_scope_covers_solvers_built_inside_it(self):
        with budget_scope(Budget(max_conflicts=3)) as budget:
            assert current_budget() is budget
            solver = _loaded_solver(_pigeonhole_clauses(5, 4))
            with pytest.raises(ResourceBudgetExceeded):
                solver.solve()
        assert current_budget() is None

    def test_ambient_budget_is_cumulative_across_solve_calls(self):
        easy = [[1, 2], [-1, 2]]
        with budget_scope(Budget(max_conflicts=3)) as budget:
            _loaded_solver(easy).solve()
            spent_once = budget.conflicts
            hard = _loaded_solver(_pigeonhole_clauses(5, 4))
            with pytest.raises(ResourceBudgetExceeded):
                hard.solve()
            assert budget.conflicts == 3 >= spent_once

    def test_explicit_budget_overrides_ambient_scope(self):
        with budget_scope(Budget(max_conflicts=1)):
            solver = _loaded_solver(_pigeonhole_clauses(5, 4))
            assert solver.solve(budget=Budget(max_conflicts=10_000)) is None

    def test_nested_scopes_innermost_wins(self):
        outer = Budget(max_conflicts=1)
        inner = Budget(max_conflicts=10_000)
        with budget_scope(outer):
            with budget_scope(inner):
                assert current_budget() is inner
                solver = _loaded_solver(_pigeonhole_clauses(5, 4))
                assert solver.solve() is None
            assert current_budget() is outer
            assert outer.conflicts == 0

    def test_none_scope_is_a_no_op(self):
        outer = Budget(max_conflicts=5)
        with budget_scope(outer):
            with budget_scope(None):
                assert current_budget() is outer


class TestSessionDeadline:
    """The ``deadline=`` kwarg on session methods installs a budget around
    the whole evaluation — including solvers built lazily inside it."""

    def _workload_session(self):
        spec, query = preservation_workload(candidates=3, conflict_groups=2, seed=1)
        return ReasoningSession(spec), query

    def test_cpp_budget_interrupts_and_resumes_to_identical_verdict(self):
        session, query = self._workload_session()
        with pytest.raises(ResourceBudgetExceeded) as excinfo:
            session.cpp(query, deadline=Budget(max_conflicts=1))
        assert excinfo.value.reason == "conflicts"
        fresh, _ = self._workload_session()
        assert session.cpp(query) == fresh.cpp(query) is True

    def test_expired_deadline_raises_before_any_search(self):
        session, query = self._workload_session()
        with pytest.raises(ResourceBudgetExceeded) as excinfo:
            session.cpp(query, deadline=Budget(deadline=time.monotonic() - 1.0))
        assert excinfo.value.reason == "deadline"
        assert excinfo.value.conflicts == 0

    def test_numeric_deadline_is_seconds_from_now(self, company_spec):
        session = ReasoningSession(company_spec)
        assert session.consistent(deadline=30.0) == session.consistent()

    def test_ambient_scope_covers_session_methods_without_a_kwarg(self):
        session, query = self._workload_session()
        with budget_scope(Budget(deadline=time.monotonic() - 1.0)):
            with pytest.raises(ResourceBudgetExceeded):
                session.cpp(query)

    def test_deadline_kwarg_spans_the_whole_facade(self, company_spec):
        session = ReasoningSession(company_spec)
        assert session.certain_ordering(
            "Emp", {"salary": [("s1", "s3")]}, deadline=30.0
        ) == session.certain_ordering("Emp", {"salary": [("s1", "s3")]})
        assert session.deterministic("Emp", deadline=30.0) == session.deterministic(
            "Emp"
        )

    def test_interrupted_method_leaves_session_reusable(self):
        # a budget interrupt must not poison the session's warm caches
        session, query = self._workload_session()
        with pytest.raises(ResourceBudgetExceeded):
            session.cpp(query, deadline=Budget(max_conflicts=1))
        fresh, _ = self._workload_session()
        assert session.ecp(query) == fresh.ecp(query)
        assert session.cpp(query) is True
