"""Unit tests for the QBF evaluator and the completion (order) encoding."""

from collections import Counter
from itertools import combinations, islice, permutations
from math import comb

import pytest

from repro.core.instance import TemporalInstance
from repro.core.schema import RelationSchema
from repro.core.specification import Specification
from repro.core.tuples import RelationTuple
from repro.exceptions import SolverError
from repro.preservation.sat_extensions import ExtensionSearchSpace
from repro.session import ReasoningSession
from repro.solvers.order_encoding import CompletionEncoder
from repro.solvers.qbf import evaluate_qbf, exists, forall
from repro.workloads import company
from repro.workloads.synthetic import (
    SyntheticConfig,
    preservation_workload,
    random_specification,
)


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
        completions = [encoder.decode(model) for model in _checked_models(encoder)]
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
# One variable per unordered pair, transitivity by refinement
# --------------------------------------------------------------------------- #
def _checked_models(encoder, limit=None):
    """The distinct completions of *encoder*, one checked model each: the
    raw CNF lacks the transitivity of unrefined blocks, so enumerating its
    models would also yield cyclic orders.  Blocking clauses over the pair
    variables are gated behind one activation literal."""
    pair_vars = sorted({abs(literal) for literal in encoder._pairs.values()})
    activation = encoder._new_activation()
    models = []
    try:
        while limit is None or len(models) < limit:
            model = encoder._solve(encoder._pass_assumptions(activation))
            if model is None:
                break
            models.append(model)
            encoder.cnf.add_clause(
                [-activation] + [-var if model.get(var, False) else var for var in pair_vars]
            )
    finally:
        encoder._retire_activation(activation)
    return models


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


def _chain(attribute, *tids):
    """Assumptions ordering *tids* on *attribute* of block e, in sequence."""
    return [("R", attribute, lower, upper) for lower, upper in zip(tids, tids[1:])]


def _refine(encoder, attribute="A"):
    """Force a refinement of block (R, attribute, e): its 3-cycle is UNSAT
    only once the triples are in."""
    assert not encoder.satisfiable(_chain(attribute, "t0", "t1", "t2", "t0"))
    assert ("R", attribute, "e") in encoder._refined


def _grow_to(specification, encoder, size):
    instance = specification.instance("R")
    added = [f"t{i}" for i in range(len(instance.tids()), size)]
    for tid in added:
        instance.add(RelationTuple(_BLOCK_SCHEMA, tid, _block_row(int(tid[1:]))))
    assert encoder.add_tuples_incremental("R", added)


class TestClauseCensus:
    def test_twelve_tuple_block(self):
        encoder = CompletionEncoder(_block_spec(12))
        pair_vars, widths = _scaffolding(encoder)
        assert pair_vars == comb(12, 2) * 2 == 132
        # the build emits no triple: transitivity waits for a 3-cycle
        assert len(encoder.cnf.clauses) == 0
        assert encoder.solve() is not None
        assert not encoder._refined  # the all-false phase is a total order
        _refine(encoder, "A")
        assert encoder._refined == {("R", "A", "e")}
        # two clauses per unordered triple of the refined attribute's block
        pair_vars, widths = _scaffolding(encoder)
        assert widths[3] == 2 * comb(12, 3) == 440
        assert widths[2] == 0  # no antisymmetry or totality clauses
        _refine(encoder, "B")
        assert len(encoder.cnf.clauses) == 2 * comb(12, 3) * 2 == 880

    def test_a_forced_refinement_adds_one_blocks_triples(self):
        encoder = CompletionEncoder(_block_spec(6))
        # without triples, the all-false phase orders t2 ≺ t0: a 3-cycle
        assert encoder.satisfiable(_chain("A", "t0", "t1", "t2"))
        assert encoder._refined == {("R", "A", "e")}
        assert len(encoder.cnf.clauses) == 2 * comb(6, 3)
        assert not encoder.satisfiable(_chain("A", "t0", "t1", "t2", "t0"))
        completion = encoder.solve()
        _assert_total_completion(encoder.specification, completion)
        assert encoder.specification.is_consistent_completion(completion)
        assert len(encoder.cnf.clauses) == 2 * comb(6, 3)  # each block refines once

    @pytest.mark.parametrize("refined", [False, True], ids=["lazy", "refined"])
    def test_a_grown_block_matches_a_fresh_build(self, refined):
        specification = _block_spec(8)
        encoder = CompletionEncoder(specification)
        fresh = CompletionEncoder(_block_spec(12))
        if refined:
            _refine(encoder)
            _refine(fresh)
        _grow_to(specification, encoder, 12)
        assert encoder._refined == fresh._refined
        assert _scaffolding(encoder) == _scaffolding(fresh)
        _assert_total_completion(specification, encoder.solve())

    @pytest.mark.slow
    def test_a_sixty_tuple_block_answers_cps_with_few_triples(self):
        specification = random_specification(
            SyntheticConfig(entities=1, tuples_per_entity=60, attributes=2,
                            order_density=0, value_domain=1000, seed=1)
        )
        session = ReasoningSession(specification)
        assert session.consistent(method="sat")
        eager_triples = 2 * comb(60, 3) * 2
        assert eager_triples == 136_880
        assert len(session.encoder.cnf.clauses) < eager_triples // 10


def _assert_transitive(encoder, model):
    """Every block of *encoder* is a total order under *model*, checked
    triple by triple."""
    for (name, attribute, _eid), (tids, _edges) in encoder._blocks.items():
        for a, b, c in combinations(tids, 3):
            literals = {
                (x, y): encoder._pairs[(name, attribute, x, y)]
                for x, y in ((a, b), (b, c), (c, a), (a, c), (c, b), (b, a))
            }
            holds = {
                pair: model.get(abs(literal), False) == (literal > 0)
                for pair, literal in literals.items()
            }
            assert not (holds[(a, b)] and holds[(b, c)] and holds[(c, a)])
            assert not (holds[(a, c)] and holds[(c, b)] and holds[(b, a)])


def _recording(encoder):
    """Record every model :meth:`CompletionEncoder._solve` returns."""
    models = []
    solve = encoder._solve

    def recorded(assumptions):
        model = solve(assumptions)
        if model is not None:
            models.append(model)
        return model

    encoder._solve = recorded
    return models


class TestCheckedModels:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_encoder_model_is_a_total_consistent_completion(self, seed):
        # copy functions, no denials: most pairs are free, so raw models of
        # the probes below are often cyclic
        specification = random_specification(
            SyntheticConfig(entities=2, tuples_per_entity=5, attributes=2, relations=2,
                            with_copy_functions=True, with_constraints=False,
                            order_density=0.2, value_domain=3, seed=seed)
        )
        encoder = CompletionEncoder(specification)
        models = _recording(encoder)
        consistent = encoder.satisfiable()
        list(islice(encoder.current_databases(), 12))
        instance = specification.instance("R0")
        for eid in instance.entities():
            for attribute in instance.schema.attributes:
                for a, b, c in permutations(instance.entity_tids(eid)[:3]):
                    encoder.satisfiable([("R0", attribute, a, b), ("R0", attribute, b, c)])
                    encoder.excludes_some_pair([("R0", attribute, c, a)])
        assert bool(models) == consistent
        for model in models:
            _assert_transitive(encoder, model)
            completion = encoder.decode(model)
            _assert_total_completion(specification, completion)
            assert specification.is_consistent_completion(completion)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_space_model_is_a_total_consistent_completion(self, seed):
        specification, _query = preservation_workload(
            candidates=3, conflict_groups=2, spoiler=bool(seed % 2), seed=seed
        )
        space = ExtensionSearchSpace(specification)
        models = _recording(space)
        selections = list(space.iterate_consistent_selections())
        space.maximal_consistent_selections()
        for selection in selections:
            list(islice(space.current_databases(selection), 6))
            space.selection_consistent(selection)
        space.bounded_selection_core((), 1)
        assert models
        for model in models:
            _assert_transitive(space, model)
            completion = space.decode(model)
            _assert_total_completion(specification, completion)
            assert specification.is_consistent_completion(completion)


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
        completions = [encoder.decode(model) for model in _checked_models(encoder, limit=20)]
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
        model = space._solve(space._selection_literals(selection, exact=True))
        assert model is not None
        _assert_total_completion(specification, space.decode(model))
