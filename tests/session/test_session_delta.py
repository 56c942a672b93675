"""Unit tests for the footprint-scoped ``"delta"`` invalidation fast path.

The property sweeps in ``tests/property/test_session_mutation.py`` prove the
fast path answers *identically* to a cold rebuild over long random streams;
the tests here pin down the *mechanism* on hand-built specifications:

* a mutation in copy-graph component A leaves component B's answer-memo
  entries untouched (object identity, not just value equality), whichever
  CCQA path computed them;
* the answer memo and engine table key queries *structurally*, so two
  independently-built but value-equal queries share one entry (the
  ``id(query)`` regression class reprolint R2 now flags);
* retained answers never survive a consistency flip — the first ask after a
  mutation that empties ``Mod(S)`` raises, it does not replay a stale memo;
* ``ExtensionSearchSpace.extend_with_tuples`` lands tuple deltas on the warm
  solver (and refuses stale calls), keeps the sequential counter usable, and
  round-trips through pickle;
* ``mutation_stats()`` exposes the counters perfbench's traced run reads.
"""

import copy
import pickle

import pytest

from repro.core.denial import AttrRef, Comparison, CurrencyAtom, DenialConstraint
from repro.core.instance import TemporalInstance
from repro.core.schema import RelationSchema
from repro.core.specification import Specification
from repro.core.tuples import RelationTuple
from repro.exceptions import InconsistentSpecificationError, SpecificationError
from repro.preservation.ecp import currency_preserving_extension_exists, maximal_extension
from repro.preservation.sat_extensions import ExtensionSearchSpace
from repro.query.ast import (
    And,
    Compare,
    Constant,
    Exists,
    Not,
    Query,
    RelationAtom,
    SPQuery,
    Var,
)
from repro.session.session import ReasoningSession
from repro.workloads import company


# --------------------------------------------------------------------------- #
# Hand-built specifications
# --------------------------------------------------------------------------- #
def _two_component_spec():
    """``R`` and ``S``, no copy functions: two copy-graph components, so a
    mutation in one can only reach the other through the (guarded) global
    consistency flip."""
    instances = {}
    for name in ("R", "S"):
        schema = RelationSchema(name, ("A", "B"))
        prefix = name.lower()
        instances[name] = TemporalInstance.from_rows(
            schema,
            {
                f"{prefix}1": {"EID": "e1", "A": 1, "B": 10},
                f"{prefix}2": {"EID": "e1", "A": 2, "B": 20},
            },
        )
    return Specification(instances)


def _query(specification, relation):
    return SPQuery(
        relation,
        specification.instance(relation).schema,
        ["A"],
        name=f"Q_{relation}",
    )


def _negated_query(specification, relation):
    """``Q(a) = ∃e, b (S(e, a, b) ∧ ¬ a = 1)``: not SP, so CCQA enumerates."""
    a, b, e = Var("a"), Var("b"), Var("e")
    return Query(
        (a,),
        Exists((e, b), And(RelationAtom(relation, (e, a, b)), Not(Compare(a, "=", Constant(1))))),
        name=f"Qneg_{relation}",
    )


def _up_down_constraints(schema):
    """The pair of constraints that orders two same-entity tuples both ways
    on ``A`` — any entity with two distinct ``A`` values becomes unsatisfiable."""
    return [
        DenialConstraint(
            schema,
            ("s", "t"),
            [Comparison(AttrRef("s", "A"), op, AttrRef("t", "A"))],
            CurrencyAtom("t", "A", "s"),
            name=name,
        )
        for op, name in ((">", "up"), ("<", "down"))
    ]


# --------------------------------------------------------------------------- #
# Footprint-scoped memo and enumerator eviction
# --------------------------------------------------------------------------- #
class TestScopedEviction:
    def test_disjoint_component_memo_survives(self):
        session = ReasoningSession(_two_component_spec())
        q_r = _query(session.specification, "R")
        q_s = _query(session.specification, "S")
        answers_s = session.certain_answers(q_s)
        session.certain_answers(q_r)
        retained_value = session._answer_memo[(q_s, "sp")]

        session.add_tuple("R", "r3", {"EID": "e2", "A": 3, "B": 30})

        assert (q_r, "sp") not in session._answer_memo
        assert session._answer_memo[(q_s, "sp")] is retained_value
        assert session.certain_answers(q_s) == answers_s
        stats = session.mutation_stats()
        assert stats["memo_retained"] >= 1
        assert stats["memo_evicted"] >= 1

    def test_disjoint_component_candidates_memo_survives(self):
        session = ReasoningSession(_two_component_spec())
        q_s = _query(session.specification, "S")
        # an SP query is refuted; a negated one still enumerates
        negated = _negated_query(session.specification, "S")
        refuted = session.certain_answers(q_s, method="candidates")
        enumerated = session.certain_answers(negated, method="candidates")
        encoder = session.encoder

        session.add_tuple("R", "r3", {"EID": "e2", "A": 3, "B": 30})

        assert session._answer_memo[(q_s, "candidates")] is refuted
        assert session._answer_memo[(negated, "candidates")] is enumerated
        assert session.encoder is encoder
        assert session.mutation_stats()["memo_retained"] == 2
        # the retained entries agree with a cold session
        cold = ReasoningSession(session.specification.copy())
        assert session.certain_answers(q_s, method="candidates") == cold.certain_answers(
            q_s, method="candidates"
        )
        assert session.certain_answers(negated, method="candidates") == cold.certain_answers(
            negated, method="candidates"
        )

    def test_same_component_memo_is_evicted(self):
        session = ReasoningSession(_two_component_spec())
        q_s = _query(session.specification, "S")
        session.certain_answers(q_s)

        session.add_tuple("S", "s3", {"EID": "e1", "A": 7, "B": 70})

        assert (q_s, "sp") not in session._answer_memo
        after = session.certain_answers(q_s)
        # recomputed, not replayed: equal to a cold session's answer
        assert after == ReasoningSession(session.specification.copy()).certain_answers(q_s)
        assert session.mutation_stats()["memo_evicted"] >= 1

    def test_add_order_in_one_component_keeps_the_other(self):
        session = ReasoningSession(_two_component_spec())
        q_s = _query(session.specification, "S")
        session.certain_answers(q_s)

        session.add_order("R", "A", "r1", "r2")

        assert (q_s, "sp") in session._answer_memo
        stats = session.mutation_stats()
        assert stats["memo_retained"] >= 1
        assert stats["footprint_relations"] >= 1

    def test_unknown_invalidation_mode_rejected(self):
        with pytest.raises(SpecificationError):
            ReasoningSession(_two_component_spec(), invalidation="lazy")


# --------------------------------------------------------------------------- #
# Structural query keys (the id(query) regression class)
# --------------------------------------------------------------------------- #
class TestStructuralQueryKeys:
    def test_value_equal_queries_share_memo_and_engine(self):
        session = ReasoningSession(_two_component_spec())
        spec = session.specification
        first = _query(spec, "S")
        second = SPQuery("S", spec.instance("S").schema, ["A"], name="rebuilt")
        assert first is not second and first == second

        answers = session.certain_answers(first)
        memo_size = len(session._answer_memo)
        engines = len(session._engines)

        assert session.certain_answers(second) == answers
        assert len(session._answer_memo) == memo_size
        assert len(session._engines) == engines

    def test_memo_survives_snapshot_restore_with_fresh_query_objects(self):
        session = ReasoningSession(_two_component_spec())
        answers = session.certain_answers(_query(session.specification, "S"))
        snapshot = session.snapshot()

        restored = ReasoningSession.restore(snapshot)
        memo_size = len(restored._answer_memo)
        fresh = _query(restored.specification, "S")

        assert restored.certain_answers(fresh) == answers
        assert len(restored._answer_memo) == memo_size  # hit, not a new entry


# --------------------------------------------------------------------------- #
# The consistency flip is never masked by retained state
# --------------------------------------------------------------------------- #
class TestConsistencyFlip:
    def _flip_spec(self):
        r_schema = RelationSchema("R", ("A", "B"))
        s_schema = RelationSchema("S", ("A", "B"))
        instances = {
            "R": TemporalInstance.from_rows(
                r_schema, {"r1": {"EID": "e1", "A": 1, "B": 10}}
            ),
            "S": TemporalInstance.from_rows(
                s_schema,
                {
                    "s1": {"EID": "e1", "A": 1, "B": 10},
                    "s2": {"EID": "e1", "A": 2, "B": 20},
                },
            ),
        }
        return Specification(instances, {"R": _up_down_constraints(r_schema)})

    def test_retained_memo_does_not_mask_inconsistency(self):
        session = ReasoningSession(self._flip_spec())
        q_s = _query(session.specification, "S")
        session.certain_answers(q_s, method="candidates")

        # the second R-tuple for e1 grounds both up/down constraints: Mod(S)
        # is now empty, even though the mutation's footprint is disjoint
        # from S's component
        session.add_tuple("R", "r2", {"EID": "e1", "A": 2, "B": 20})

        with pytest.raises(InconsistentSpecificationError):
            session.certain_answers(q_s, method="candidates")
        stats = session.mutation_stats()
        assert stats["consistency_rechecks"] >= 1

    def test_recheck_clears_all_retained_state(self):
        session = ReasoningSession(self._flip_spec())
        q_s = _query(session.specification, "S")
        session.certain_answers(q_s, method="candidates")
        session.add_tuple("R", "r2", {"EID": "e1", "A": 2, "B": 20})
        with pytest.raises(InconsistentSpecificationError):
            session.certain_answers(q_s, method="candidates")
        # the pre-flip answer set is gone; only the memoised inconsistency
        # verdict (None) may remain
        assert all(value is None for value in session._answer_memo.values())


# --------------------------------------------------------------------------- #
# Space tuple deltas on the warm solver
# --------------------------------------------------------------------------- #
class TestSpaceTupleDelta:
    def _duplicate_row(self, specification, instance_name, tid):
        instance = specification.instance(instance_name)
        donor = instance.tuples()[0]
        tup = RelationTuple(
            instance.schema,
            tid,
            {**donor.values(), instance.schema.eid: donor.eid},
        )
        instance.add(tup)
        return tup

    def test_target_tuple_delta_lands_and_answers_agree(self, manager_spec):
        q2 = company.paper_queries()["Q2"]
        warm = ExtensionSearchSpace(manager_spec)
        currency_preserving_extension_exists(q2, manager_spec, space=warm)

        self._duplicate_row(manager_spec, "Emp", "t_fresh")
        assert warm.extend_with_tuples("Emp", ("t_fresh",)) is True

        cold_spec = company.manager_specification()
        self._duplicate_row(cold_spec, "Emp", "t_fresh")
        cold = ExtensionSearchSpace(cold_spec)
        assert currency_preserving_extension_exists(
            q2, manager_spec, space=warm
        ) == currency_preserving_extension_exists(q2, cold_spec, space=cold)
        assert (
            maximal_extension(manager_spec, space=warm).size_increase
            == maximal_extension(cold_spec, space=cold).size_increase
        )

    def test_stale_tid_falls_back_to_rebuild(self, manager_spec):
        space = ExtensionSearchSpace(manager_spec)
        encoded = next(iter(manager_spec.instance("Emp").tids()))
        assert space.extend_with_tuples("Emp", (encoded,)) is False

    def test_counter_stays_usable_across_extension(self, manager_spec):
        space = ExtensionSearchSpace(manager_spec)
        before = space.bound_assumption(0)  # builds the sequential counter
        assert before is not None

        self._duplicate_row(manager_spec, "Emp", "t_fresh")
        assert space.extend_with_tuples("Emp", ("t_fresh",)) is True

        after = space.bound_assumption(0)  # topped up lazily, not rebuilt
        assert after is not None

    def test_pickle_roundtrip_after_extension(self, manager_spec):
        space = ExtensionSearchSpace(manager_spec)
        space.bound_assumption(0)
        self._duplicate_row(manager_spec, "Emp", "t_fresh")
        assert space.extend_with_tuples("Emp", ("t_fresh",)) is True

        restored = pickle.loads(pickle.dumps(space))
        assert restored.stats()["candidates"] == space.stats()["candidates"]
        assert restored.bound_assumption(0) is not None


# --------------------------------------------------------------------------- #
# mutation_stats() counters
# --------------------------------------------------------------------------- #
class TestMutationStats:
    EXPECTED = {
        "memo_evicted",
        "memo_retained",
        "chase_extended",
        "chase_rebuilt",
        "space_extended",
        "space_rebuilt",
        "encoder_extended",
        "consistency_rechecks",
        "footprint_relations",
        "footprint_blocks",
    }

    def test_counter_vocabulary(self):
        session = ReasoningSession(_two_component_spec())
        stats = session.mutation_stats()
        assert set(stats) == self.EXPECTED
        assert all(isinstance(value, int) for value in stats.values())

    def test_stats_are_a_copy(self):
        session = ReasoningSession(_two_component_spec())
        session.mutation_stats()["memo_evicted"] = 999
        assert session.mutation_stats()["memo_evicted"] != 999

    def test_delta_stream_takes_the_fast_path(self):
        session = ReasoningSession(_two_component_spec())
        q_s = _query(session.specification, "S")
        session.certain_answers(q_s)
        session.consistent()
        session.space  # built, so both tuple mutations must extend it in place
        session.add_tuple("R", "r3", {"EID": "e2", "A": 3, "B": 30})
        session.add_order("R", "A", "r1", "r2")
        session.add_tuples("S", [("s3", {"EID": "e2", "A": 5, "B": 50})])
        stats = session.mutation_stats()
        assert stats["space_rebuilt"] == 0
        assert stats["space_extended"] == 2
        assert stats["footprint_blocks"] >= 3
