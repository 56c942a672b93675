"""Unit tests for the QBF evaluator and the completion (order) encoding."""

import pytest

from repro.core.instance import TemporalInstance
from repro.core.schema import RelationSchema
from repro.core.specification import Specification
from repro.solvers.order_encoding import CompletionEncoder
from repro.solvers.qbf import evaluate_qbf, exists, forall
from repro.solvers.sat import iterate_models
from repro.workloads import company


class TestQBF:
    def test_simple_exists(self):
        assert evaluate_qbf([exists("x")], lambda a: a["x"])

    def test_simple_forall_false(self):
        assert not evaluate_qbf([forall("x")], lambda a: a["x"])

    def test_forall_tautology(self):
        assert evaluate_qbf([forall("x")], lambda a: a["x"] or not a["x"])

    def test_exists_forall(self):
        # ∃x ∀y (x ∨ y) is true with x = 1
        assert evaluate_qbf([exists("x"), forall("y")], lambda a: a["x"] or a["y"])

    def test_forall_exists(self):
        # ∀x ∃y (x xor y) is true
        assert evaluate_qbf([forall("x"), exists("y")], lambda a: a["x"] != a["y"])
        # ∀x ∃y (x and y) is false
        assert not evaluate_qbf([forall("x"), exists("y")], lambda a: a["x"] and a["y"])

    def test_prebound_assignment(self):
        assert evaluate_qbf([forall("y")], lambda a: a["x"] or a["y"], {"x": True})

    def test_unknown_quantifier_rejected(self):
        from repro.exceptions import SolverError

        with pytest.raises(SolverError):
            evaluate_qbf([("some", ("x",))], lambda a: True)


class TestCompletionEncoder:
    def test_company_specification_is_satisfiable(self, company_spec):
        assert CompletionEncoder(company_spec).satisfiable()

    def test_decoded_model_is_consistent_completion(self, company_spec):
        encoder = CompletionEncoder(company_spec)
        completion = encoder.solve()
        assert completion is not None
        assert company_spec.is_consistent_completion(completion)

    def test_require_pair_filters_models(self, company_spec):
        encoder = CompletionEncoder(company_spec)
        # contradicts ϕ1
        assert not encoder.satisfiable([("Emp", "salary", "s3", "s1")])

    def test_forbid_all_of(self, company_spec):
        encoder = CompletionEncoder(company_spec)
        # s1 ≺_salary s3 holds in every completion, so forbidding it alone is UNSAT
        activation = encoder.add_gated_clause([(("Emp", "salary", "s1", "s3"), False)])
        assert encoder.solver.solve([activation]) is None

    @staticmethod
    def _maximal(specification, eid, tid):
        block = specification.instance("Emp").entity_tids(eid)
        return [("Emp", "salary", other, tid) for other in block if other != tid]

    def test_require_maximal(self, company_spec):
        encoder = CompletionEncoder(company_spec)
        assert encoder.satisfiable(self._maximal(company_spec, company.MARY, "s3"))
        blocked = CompletionEncoder(company_spec)
        assert not blocked.satisfiable(self._maximal(company_spec, company.MARY, "s1"))

    def test_iterate_completions_all_consistent(self):
        schema = RelationSchema("R", ("A",))
        instance = TemporalInstance.from_rows(
            schema,
            {"t1": {"EID": "e", "A": 1}, "t2": {"EID": "e", "A": 2}},
        )
        spec = Specification({"R": instance})
        encoder = CompletionEncoder(spec)
        completions = [encoder.decode(model) for model in iterate_models(encoder.cnf)]
        assert len(completions) == 2
        assert all(spec.is_consistent_completion(c) for c in completions)

    def test_solve_then_satisfiable_reuses_the_cached_model(self, company_spec):
        encoder = CompletionEncoder(company_spec)
        assert encoder.solve() is not None
        decisions = encoder.solver.stats()["decisions"]
        assert encoder.satisfiable()
        assert encoder.solve() is not None
        # no clause was added, so no further search happened
        assert encoder.solver.stats()["decisions"] == decisions
        # adding a clause invalidates the cache and re-solves
        encoder.cnf.add_clause([encoder.cnf.literal(("Emp", "salary", "s3", "s1"))])  # contradicts ϕ1
        assert not encoder.satisfiable()
        assert encoder.solver.stats()["decisions"] >= decisions

    def test_satisfiable_under_assumptions(self):
        schema = RelationSchema("R", ("A",))
        instance = TemporalInstance.from_rows(
            schema,
            {"t1": {"EID": "e", "A": 1}, "t2": {"EID": "e", "A": 2}},
        )
        encoder = CompletionEncoder(Specification({"R": instance}))
        assert encoder.satisfiable([("R", "A", "t1", "t2")])
        assert encoder.satisfiable([("R", "A", "t2", "t1")])
        # antisymmetry: both directions at once are contradictory
        assert not encoder.satisfiable(
            [("R", "A", "t1", "t2"), ("R", "A", "t2", "t1")]
        )
        # assumptions never mutate the encoding
        assert encoder.satisfiable()
        assert len(encoder.cnf.clauses) == 2  # antisymmetry + totality only

    def test_unknown_assumption_pair_rejected(self):
        from repro.exceptions import SolverError

        schema = RelationSchema("R", ("A",))
        instance = TemporalInstance.from_rows(
            schema,
            {"t1": {"EID": "e1", "A": 1}, "t2": {"EID": "e2", "A": 2}},
        )
        encoder = CompletionEncoder(Specification({"R": instance}))
        # t1 and t2 belong to different entities, so their pair is not encoded
        with pytest.raises(SolverError):
            encoder.satisfiable([("R", "A", "t1", "t2")])

    def test_inconsistent_copy_orders_unsat(self):
        """Example 2.3's second scenario: copied budget orders conflicting with
        the orders that ϕ1/ϕ3/ϕ4 force make the specification inconsistent."""
        spec = company.company_specification()
        from repro.core.copy_function import CopyFunction, CopySignature

        source_schema = RelationSchema("Src", ("budget",), eid="dname")
        source = TemporalInstance.from_rows(
            source_schema,
            {
                "x1": {"dname": "R&D", "budget": 6500},
                "x3": {"dname": "R&D", "budget": 6000},
            },
            orders={"budget": [("x3", "x1")]},  # opposite of what ϕ4 forces
        )
        spec.instances["Src"] = source
        spec.constraints.setdefault("Src", [])
        spec.add_copy_function(
            CopyFunction(
                "rho1",
                CopySignature(company.dept_schema(), ("budget",), source_schema, ("budget",)),
                target="Dept",
                source="Src",
                mapping={"t1": "x1", "t3": "x3"},
            )
        )
        assert not CompletionEncoder(spec).satisfiable()
