"""Unit tests for the ReasoningSession facade.

Facade equivalence against the module-level functions, the cache-dependency
map (which substrate survives which mutation), warm-state hygiene (COP's
gated complement clause must not poison later questions), and the wrapper
plumbing (session=/space=/engine= adoption, validation errors).
"""

from __future__ import annotations

import pytest

from repro.core.denial import AttrRef, Comparison, CurrencyAtom, DenialConstraint
from repro.core.tuples import RelationTuple
from repro.exceptions import InconsistentSpecificationError, SpecificationError
from repro.preservation.bcp import has_bounded_extension
from repro.preservation.cpp import is_currency_preserving
from repro.preservation.ecp import currency_preserving_extension_exists, maximal_extension
from repro.preservation.extensions import candidate_imports
from repro.preservation.sat_extensions import ExtensionSearchSpace
from repro.query.engine import QueryEngine
from repro.reasoning.ccqa import certain_current_answers
from repro.reasoning.cop import certain_ordering
from repro.reasoning.cps import is_consistent
from repro.reasoning.dcip import is_deterministic
from repro.session import ReasoningSession
from repro.workloads import company
from repro.workloads.synthetic import preservation_workload


class TestFacadeEquivalence:
    """Every session method answers exactly like its module-level wrapper."""

    def test_all_base_problems_on_the_company_spec(self, company_spec, paper_queries):
        session = ReasoningSession(company_spec)
        assert session.consistent() == is_consistent(company_spec)
        for query in paper_queries.values():
            assert session.certain_answers(query) == certain_current_answers(
                query, company_spec
            )
        assert session.certain_ordering(
            "Emp", {"salary": [("s1", "s3")]}
        ) == certain_ordering(company_spec, "Emp", {"salary": [("s1", "s3")]})
        assert session.deterministic("Emp") == is_deterministic(company_spec, "Emp")
        assert session.deterministic() == is_deterministic(company_spec)

    def test_preservation_problems_on_a_workload(self):
        spec, query = preservation_workload(candidates=3, conflict_groups=2, seed=1)
        session = ReasoningSession(spec)
        assert session.cpp(query) == is_currency_preserving(query, spec.copy())
        assert session.ecp(query) == currency_preserving_extension_exists(query, spec.copy())
        assert session.bcp(query, 2) == has_bounded_extension(query, spec.copy(), 2)
        # the maximal extension matches the naive greedy
        warm = session.maximal_extension()
        naive = maximal_extension(spec.copy(), search="naive")
        assert warm.imports == naive.imports

    def test_methods_validated(self, company_spec):
        session = ReasoningSession(company_spec)
        with pytest.raises(SpecificationError):
            session.consistent(method="nope")
        with pytest.raises(SpecificationError):
            session.certain_answers(company.query_q1_salary(), method="nope")
        with pytest.raises(SpecificationError):
            session.deterministic(method="nope")
        with pytest.raises(SpecificationError):
            session.certain_ordering("Emp", {"salary": [("s1", "s3")]}, method="nope")

    def test_inconsistent_specification_raises_on_ccqa(self, company_spec, paper_queries):
        session = ReasoningSession(company_spec)
        # poison the spec: a cyclic certain order via two opposing pairs
        session.add_order("Emp", "salary", "s1", "s2")
        with pytest.raises(Exception):
            session.add_order("Emp", "salary", "s2", "s1")


class TestWarmStateSharing:
    def test_one_warm_sequence_matches_cold_calls(self):
        """The acceptance scenario: CPS -> CCQA -> CPP -> BCP on one session
        agrees with the cold per-call path, and the base problems run on the
        space's solver once it exists."""
        spec, query = preservation_workload(
            candidates=4, conflict_groups=2, spoiler=True, seed=3
        )
        cold = (
            is_consistent(spec.copy()),
            certain_current_answers(query, spec.copy()),
            is_currency_preserving(query, spec.copy()),
            has_bounded_extension(query, spec.copy(), 1),
        )
        session = ReasoningSession(spec)
        warm = (
            session.consistent(),
            session.certain_answers(query),
            session.cpp(query),
            session.bcp(query, 1),
        )
        assert warm == cold
        stats = session.stats()
        assert stats["space_built"]
        # asking base problems again now routes through the warm space
        assert session.consistent(method="sat") == cold[0]
        assert session.certain_ordering("R1", {"a0": []}) is True

    def test_cop_gated_clause_does_not_poison_the_solver(self, company_spec):
        session = ReasoningSession(company_spec)
        first = session.consistent(method="sat")
        assert session.certain_ordering("Emp", {"salary": [("s1", "s3")]})
        assert not session.certain_ordering("Dept", {"mgrFN": [("t3", "t4")]})
        # the complement clauses were retired: consistency is unchanged
        session._verdict_memo.clear()
        assert session.consistent(method="sat") == first
        assert session.deterministic("Emp") == is_deterministic(company_spec, "Emp")

    def test_engine_and_value_column_reuse(self, company_spec, paper_queries):
        session = ReasoningSession(company_spec)
        query = paper_queries["Q1"]
        engine = session.engine(query)
        assert session.engine(query) is engine
        session.certain_answers(query, method="candidates")
        encoder = session.encoder
        slots = dict(encoder._value_slots)
        clauses = len(encoder.cnf.clauses)
        session.certain_answers(paper_queries["Q2"], method="candidates")
        # same relation -> the same value columns; the refutation's gated
        # clauses go to the solver, never into the CNF
        assert session.encoder is encoder
        assert encoder._value_slots == slots
        assert len(encoder.cnf.clauses) == clauses

    def test_ecp_greedy_reuses_the_bcp_harvest(self):
        """After a BCP sweep the maximal harvest is memoised and ECP's greedy
        needs zero further SAT decisions."""
        spec, query = preservation_workload(candidates=3, conflict_groups=2, seed=5)
        session = ReasoningSession(spec)
        assert session.bcp(query, 1) == has_bounded_extension(query, spec.copy(), 1)
        space = session.space
        assert space.stats()["maximal_harvest_cached"]
        decisions_before = space.solver.stats()["decisions"]
        warm = session.maximal_extension()
        assert space.solver.stats()["decisions"] == decisions_before
        assert warm.imports == maximal_extension(spec.copy(), search="naive").imports

    def test_wrappers_accept_a_session(self):
        spec, query = preservation_workload(candidates=3, conflict_groups=2, seed=2)
        consistent = ReasoningSession(spec.copy()).consistent()
        bounded = has_bounded_extension(query, spec.copy(), 1)
        session = ReasoningSession(spec)
        before = ExtensionSearchSpace.constructions
        is_currency_preserving(query, spec, session=session)
        assert ExtensionSearchSpace.constructions == before + 1  # built once
        assert has_bounded_extension(query, spec, 1, session=session) == bounded
        assert is_consistent(spec, session=session) == consistent
        assert ExtensionSearchSpace.constructions == before + 1  # and only once

    def test_session_validation_mirrors_space_for(self, company_spec, manager_spec):
        session = ReasoningSession(manager_spec)
        with pytest.raises(SpecificationError):
            ReasoningSession.for_specification(company_spec, session)
        with pytest.raises(SpecificationError):
            ReasoningSession.for_specification(
                manager_spec, session, match_entities_by_eid=False
            )
        assert ReasoningSession.for_specification(manager_spec, session) is session
        rebuilt = company.manager_specification()
        assert ReasoningSession.for_specification(rebuilt, session) is session

    def test_adopt_space_rejects_mismatch(self, company_spec, manager_spec):
        space = ExtensionSearchSpace(manager_spec)
        session = ReasoningSession(company_spec)
        with pytest.raises(SpecificationError):
            session.adopt_space(space)
        good = ReasoningSession(manager_spec)
        assert good.adopt_space(space) is space
        assert good.space is space

    def test_engine_source_validated(self, company_spec, paper_queries):
        session = ReasoningSession(company_spec)
        q1, q2 = paper_queries["Q1"], paper_queries["Q2"]
        engine = QueryEngine(q1)
        with pytest.raises(SpecificationError):
            session.certain_answers(q2, engine=engine)
        assert session.certain_answers(q1, engine=engine) == certain_current_answers(
            q1, company_spec
        )


class TestMutationDependencyMap:
    """The explicit invalidation map: which caches survive which mutations."""

    def test_add_denial_keeps_chase_engines_and_space(self):
        spec, query = preservation_workload(candidates=3, conflict_groups=2, seed=4)
        session = ReasoningSession(spec)
        session.cpp(query)
        chase = session.chase
        space = session.space
        engine = session.engine(query)
        constraint = DenialConstraint(
            spec.instance("R1").schema,
            ("s", "t"),
            body=[Comparison(AttrRef("s", "a2"), ">", AttrRef("t", "a2"))],
            head=CurrencyAtom("t", "a2", "s"),
            name="mutation_a2",
        )
        session.add_denial("R1", constraint)
        assert session._chase is chase  # chase ignores denial constraints
        assert session._space is space  # extended in place, not rebuilt
        assert session.engine(query) is engine
        assert session.mutations == 1
        # and the answers still match a from-scratch rebuild
        assert session.cpp(query) == is_currency_preserving(query, spec.copy())

    def test_add_order_extends_encoder_and_space_in_place(self):
        spec, query = preservation_workload(candidates=2, conflict_groups=2, seed=7)
        session = ReasoningSession(spec)
        session.consistent(method="sat")
        encoder = session.encoder
        block = spec.instance("R0").entity_tids("e0")
        session.add_order("R0", "a0", block[0], block[1])
        assert session._encoder is encoder
        session.cpp(query)
        space = session.space
        # the space answers the base problems too, so it releases the encoder
        assert session._encoder is None
        assert session.encoder is space
        session.add_order("R0", "a1", block[0], block[1])
        assert session._space is space
        assert session._chase is None
        assert session.consistent(method="sat") == is_consistent(spec.copy(), method="sat")
        assert session.cpp(query) == is_currency_preserving(query, spec.copy())

    def test_add_order_noop_when_pair_already_present(self, company_spec):
        session = ReasoningSession(company_spec)
        session.add_order("Emp", "salary", "s1", "s2")
        mutations = session.mutations
        chase = session.chase
        session.add_order("Emp", "salary", "s1", "s2")  # already recorded
        assert session._chase is chase
        assert session.mutations == mutations

    def test_add_tuple_extends_a_maximality_free_encoder(self, company_spec):
        session = ReasoningSession(company_spec)
        assert session.consistent(method="sat")
        encoder = session.encoder
        schema = company_spec.instance("Emp").schema
        session.add_tuple(
            "Emp",
            RelationTuple(
                schema,
                "mut1",
                {
                    "EID": company.MARY,
                    "FN": "Mary",
                    "LN": "Smith",
                    "address": "5 Wren St",
                    "salary": 95,
                    "status": "married",
                },
            ),
        )
        assert session._encoder is encoder  # extended incrementally
        assert session._chase is None
        rebuilt = company.company_specification()
        rebuilt.instance("Emp").add(
            RelationTuple(
                schema,
                "mut1",
                {
                    "EID": company.MARY,
                    "FN": "Mary",
                    "LN": "Smith",
                    "address": "5 Wren St",
                    "salary": 95,
                    "status": "married",
                },
            )
        )
        assert session.specification == rebuilt
        assert session.consistent(method="sat") == is_consistent(rebuilt, method="sat")
        assert session.deterministic("Emp") == is_deterministic(rebuilt, "Emp")

    def test_add_tuple_extends_an_encoder_with_value_columns(self, company_spec, paper_queries):
        session = ReasoningSession(company_spec)
        session.certain_answers(paper_queries["Q1"], method="candidates")
        encoder = session.encoder
        assert set(encoder._value_slots) == {"Emp"}  # CCQA read Emp's value columns
        columns = encoder._value_slots["Emp"]
        schema = company_spec.instance("Emp").schema
        session.add_tuple(
            "Emp",
            RelationTuple(
                schema,
                "mut2",
                {
                    "EID": company.MARY,
                    "FN": "Mary",
                    "LN": "Dupont",
                    "address": "6 Main Rd",
                    "salary": 60,
                    "status": "single",
                },
            ),
        )
        # the grown block's value columns were re-encoded in place: the
        # encoder and its value columns survive, Mary's under generation 1
        assert session._encoder is encoder
        assert encoder._value_slots["Emp"] is columns
        assert encoder._maximality_generation == {("Emp", company.MARY): 1}
        assert session.mutation_stats()["encoder_extended"] == 1
        rebuilt = company.company_specification()
        rebuilt.instance("Emp").add(
            RelationTuple(
                schema,
                "mut2",
                {
                    "EID": company.MARY,
                    "FN": "Mary",
                    "LN": "Dupont",
                    "address": "6 Main Rd",
                    "salary": 60,
                    "status": "single",
                },
            )
        )
        assert session.certain_answers(
            paper_queries["Q1"], method="candidates"
        ) == certain_current_answers(paper_queries["Q1"], rebuilt, method="candidates")
        assert encoder is session.encoder

    def test_add_copy_import_matches_apply_imports(self):
        from repro.preservation.extensions import apply_imports

        spec, query = preservation_workload(
            candidates=2, conflict_groups=1, spoiler=True, seed=9
        )
        session = ReasoningSession(spec)
        session.cpp(query)
        candidate = candidate_imports(spec.copy())[0]
        rebuilt = apply_imports(spec.copy(), [candidate]).specification
        session.add_copy_import(candidate)
        assert session._space is None  # closure changed: rebuild on demand
        assert session.specification == rebuilt
        assert session.cpp(query) == is_currency_preserving(query, rebuilt.copy())
        assert session.bcp(query, 1) == has_bounded_extension(query, rebuilt.copy(), 1)

    def test_mutation_reaches_extensions_of_an_adopted_twin_space(self):
        """Regression: adopting a space built from a structurally-equal twin
        specification left ``space.specification`` pointing at the stale twin,
        so materialised extensions (ECP/BCP results, CPP witnesses) silently
        dropped later session mutations."""
        spec, query = preservation_workload(
            candidates=2, conflict_groups=1, spoiler=True, seed=21
        )
        twin = spec.copy()
        session = ReasoningSession(spec)
        session.adopt_space(ExtensionSearchSpace(twin))
        block = spec.instance("R0").entity_tids("e0")
        session.add_order("R0", "a0", block[0], block[1])
        warm = session.maximal_extension()
        assert warm.specification.instance("R0").precedes("a0", block[0], block[1])
        rebuilt = spec.copy()
        assert warm.imports == maximal_extension(rebuilt, search="naive").imports
        assert session.cpp(query) == is_currency_preserving(query, spec.copy())

    def test_add_copy_import_validates(self, company_spec):
        from repro.preservation.extensions import CandidateImport

        session = ReasoningSession(company_spec)
        with pytest.raises(SpecificationError):
            session.add_copy_import(CandidateImport("nope", "s1", company.MARY))

    def test_mutation_clears_answer_memo(self, company_spec, paper_queries):
        session = ReasoningSession(company_spec)
        query = paper_queries["Q1"]
        before = session.certain_answers(query)
        assert session._answer_memo
        schema = company_spec.instance("Dept").schema
        session.add_tuple(
            "Dept",
            RelationTuple(
                schema,
                "mut3",
                {
                    "dname": "R&D",
                    "mgrFN": "Ed",
                    "mgrLN": "Lee",
                    "mgrAddr": "9 Oak St",
                    "budget": 1,
                },
            ),
        )
        assert not session._answer_memo
        assert session.certain_answers(query) == before  # Emp untouched


class TestBoundRefusalCertificates:
    def test_refusal_names_violating_imports_and_flips_with_k(self):
        from repro.preservation.bcp import bound_refusal_certificates
        from repro.reasoning.ccqa import certain_current_answers as cca

        spec, query = preservation_workload(
            candidates=3, conflict_groups=1, entities=1, spoiler=True, seed=11
        )
        session = ReasoningSession(spec)
        refusals = session.bcp_refusal(query, 0)
        assert refusals  # ρ itself is not preserving (the spoiler refutes it)
        for certificate in refusals:
            assert certificate.refutes_preservation()
            # the violating extension is genuinely consistent and genuinely
            # changes the certain answers of the guess (oracle cross-check)
            assert is_consistent(certificate.extension.specification)
            assert cca(
                query, certificate.extension.specification
            ) == certificate.extension_answers
        # a large enough bound admits a preserving guess: nothing to refuse
        assert session.bcp_refusal(query, len(session.space.candidates)) is None

    def test_refusal_empty_for_inconsistent_base(self):
        spec, query = preservation_workload(candidates=2, conflict_groups=1, seed=13)
        target = spec.instance("R1")
        base, *_ = target.entity_tids("e0")
        # an unsatisfiable constraint pair on the base tuple's block: force
        # inconsistency via contradictory certain orders
        constraint_up = DenialConstraint(
            target.schema,
            ("s", "t"),
            body=[Comparison(AttrRef("s", "a0"), ">", AttrRef("t", "a0"))],
            head=CurrencyAtom("t", "a0", "s"),
            name="up",
        )
        constraint_down = DenialConstraint(
            target.schema,
            ("s", "t"),
            body=[Comparison(AttrRef("s", "a0"), "<", AttrRef("t", "a0"))],
            head=CurrencyAtom("t", "a0", "s"),
            name="down",
        )
        session = ReasoningSession(spec)
        session.add_denial("R1", constraint_up)
        session.add_denial("R1", constraint_down)
        if not session.consistent():
            assert session.bcp_refusal(query, 1) == []

    def test_refusal_counts_match_the_search(self):
        from repro.preservation.bcp import bound_refusal_certificates

        spec, query = preservation_workload(
            candidates=2, conflict_groups=1, entities=1, spoiler=True, seed=17
        )
        refusals = bound_refusal_certificates(query, spec, 0)
        assert refusals is not None and len(refusals) == 1  # only ρ itself in bound
        assert refusals[0].guess == ()


class TestStreamingClosedSubsets:
    def test_wide_closure_does_not_hit_the_recursion_limit(self):
        """Regression: the lazy product recursed once per root, so a closure
        with thousands of independent candidates crashed on the first draw."""
        from itertools import islice

        from repro.preservation.extensions import CandidateClosure, CandidateImport

        n = 3000
        closure = CandidateClosure(
            candidates=tuple(CandidateImport("cf", f"s{i}", "e0") for i in range(n)),
            prerequisites={},
            depths=(0,) * n,
            extension=None,
        )
        drawn = list(islice(closure.closed_subsets(range(n)), 5))
        assert len(drawn) == 5
        assert all(closure.is_downward_closed(s) for s in drawn)

    def test_generator_is_lazy_and_complete(self):
        from itertools import islice

        from repro.preservation.extensions import candidate_closure
        from repro.workloads.synthetic import chained_preservation_workload

        spec, _query = chained_preservation_workload(
            depth=2, candidates=2, entities=1, seed=3
        )
        closure = candidate_closure(spec)
        full = tuple(range(len(closure.candidates)))
        generator = closure.closed_subsets(full)
        first = list(islice(generator, 2))  # draws without exhausting
        assert len(first) == 2
        rest = list(generator)
        total = len(first) + len(rest)
        assert total == closure.count_closed_subsets(full)
        subsets = set(first) | set(rest)
        assert len(subsets) == total  # no duplicates
        assert all(closure.is_downward_closed(s) for s in subsets)
