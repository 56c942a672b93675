"""Unit tests for the QBF evaluator and the completion (order) encoding."""

from collections import Counter
from math import comb

import pytest

from repro.core.instance import TemporalInstance
from repro.core.schema import RelationSchema
from repro.core.specification import Specification
from repro.core.tuples import RelationTuple
from repro.exceptions import SolverError
from repro.preservation.sat_extensions import ExtensionSearchSpace
from repro.solvers.order_encoding import CompletionEncoder
from repro.solvers.qbf import evaluate_qbf, exists, forall
from repro.solvers.sat import iterate_models
from repro.workloads import company
from repro.workloads.synthetic import preservation_workload


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
        # contradicts ϕ1
        encoder.cnf.add_clause([encoder._pair_literal(("Emp", "salary", "s3", "s1"))])
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
        # one variable orders the two tuples: no clause at all is needed
        assert len(encoder.cnf.clauses) == 0

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


# --------------------------------------------------------------------------- #
# One variable per unordered pair
# --------------------------------------------------------------------------- #
_BLOCK_SCHEMA = RelationSchema("R", ("A", "B"))


def _block_row(index):
    return {"EID": "e", "A": index, "B": -index}


def _block_spec(size):
    """One entity block of *size* tuples, two attributes, no orders or
    denial constraints: every clause is order scaffolding."""
    rows = {f"t{i}": _block_row(i) for i in range(size)}
    return Specification({"R": TemporalInstance.from_rows(_BLOCK_SCHEMA, rows)})


def _scaffolding(encoder):
    """(pair variables, clause count by width) of the clauses over pair
    variables only."""
    pair_vars = {abs(literal) for literal in encoder._pairs.values()}
    widths = Counter(
        len(clause)
        for clause in encoder.cnf.clauses
        if all(abs(literal) in pair_vars for literal in clause)
    )
    return len(pair_vars), widths


def _assert_total_completion(specification, completion):
    """*completion* extends every given order and is total on every block."""
    assert set(completion) == set(specification.instances)
    for name, instance in specification.instances.items():
        completed = completion[name]
        assert completed.is_completion_of(instance)
        assert set(completed.tids()) == set(instance.tids())


class TestClauseCensus:
    def test_twelve_tuple_block(self):
        encoder = CompletionEncoder(_block_spec(12))
        pair_vars, widths = _scaffolding(encoder)
        assert pair_vars == comb(12, 2) * 2 == 132
        # two clauses per unordered triple forbid its cyclic orientations
        assert widths[3] == 2 * comb(12, 3) * 2 == 880
        assert widths[2] == 0  # no antisymmetry or totality clauses
        assert len(encoder.cnf.clauses) == 880

    def test_a_grown_block_matches_a_fresh_build(self):
        specification = _block_spec(8)
        encoder = CompletionEncoder(specification)
        instance = specification.instance("R")
        added = [f"t{i}" for i in range(8, 12)]
        for tid, index in zip(added, range(8, 12)):
            instance.add(RelationTuple(_BLOCK_SCHEMA, tid, _block_row(index)))
        assert encoder.add_tuples_incremental("R", added)
        assert _scaffolding(encoder) == _scaffolding(CompletionEncoder(_block_spec(12)))
        _assert_total_completion(specification, encoder.solve())


class TestPairOrientation:
    def test_the_reverse_pair_is_the_negated_literal(self):
        encoder = CompletionEncoder(_block_spec(3))
        forward = encoder._pair_literal(("R", "A", "t0", "t1"))
        assert encoder._pair_literal(("R", "A", "t1", "t0")) == -forward
        assert encoder._pair_literal(("R", "A", "t0", "t1"), False) == -forward
        assert encoder._pair_literal(("R", "A", "t1", "t0"), False) == forward
        # the two attributes order the same tuples independently
        assert abs(encoder._pair_literal(("R", "B", "t0", "t1"))) != abs(forward)

    def test_either_orientation_answers_probes(self):
        encoder = CompletionEncoder(_block_spec(3))
        assert encoder.satisfiable([("R", "A", "t2", "t0")])
        assert not encoder.satisfiable([("R", "A", "t0", "t2"), ("R", "A", "t2", "t0")])
        assert not encoder.satisfiable(
            [("R", "A", "t0", "t1"), ("R", "A", "t1", "t2"), ("R", "A", "t2", "t0")]
        )
        assert encoder.excludes_some_pair([("R", "A", "t1", "t0")])

    def test_an_order_added_against_the_allocated_orientation(self):
        specification = _block_spec(3)
        encoder = CompletionEncoder(specification)
        encoder.add_order_pair("R", "A", "t2", "t0")
        assert not encoder.satisfiable([("R", "A", "t0", "t2")])
        assert not encoder.excludes_some_pair([("R", "A", "t2", "t0")])
        completion = encoder.solve()
        _assert_total_completion(specification, completion)
        assert completion["R"].precedes("A", "t2", "t0")

    @pytest.mark.parametrize(
        "pair",
        [
            ("R", "A", "t1", "t2"),
            ("R", "A", "t1", "t9"),
            ("R", "C", "t1", "t3"),
            ("S", "A", "t1", "t3"),
        ],
        ids=["cross-entity", "unknown-tuple", "unknown-attribute", "unknown-instance"],
    )
    def test_unencoded_pairs_are_rejected(self, pair):
        rows = {"t1": {"EID": "e1", "A": 1, "B": 1}, "t2": {"EID": "e2", "A": 2, "B": 2},
                "t3": {"EID": "e1", "A": 3, "B": 3}}
        encoder = CompletionEncoder(
            Specification({"R": TemporalInstance.from_rows(_BLOCK_SCHEMA, rows)})
        )
        for probe in (
            lambda: encoder._pair_literal(pair),
            lambda: encoder.satisfiable([pair]),
            lambda: encoder.excludes_some_pair([pair]),
        ):
            with pytest.raises(SolverError):
                probe()

    def test_decoded_company_completions_are_total(self, company_spec):
        encoder = CompletionEncoder(company_spec)
        completions = [
            encoder.decode(model) for model in iterate_models(encoder.cnf, limit=20)
        ]
        assert len(completions) == 20
        for completion in completions:
            _assert_total_completion(company_spec, completion)
            assert company_spec.is_consistent_completion(completion)

    def test_decoded_space_completions_cover_the_base_tuples_only(self):
        specification, _query = preservation_workload(candidates=3, conflict_groups=2, seed=3)
        space = ExtensionSearchSpace(specification)
        assert space.candidates  # the maximal extension has imported tuples
        completion = space.solve()
        assert completion is not None
        _assert_total_completion(specification, completion)
        assert specification.is_consistent_completion(completion)
        # a model that imports candidates still decodes to a completion of S
        selection = max(space.maximal_consistent_selections(), key=len)
        assert selection
        model = space.solver.solve(space._selection_literals(selection, exact=True))
        assert model is not None
        _assert_total_completion(specification, space.decode(model))
