"""Unit tests for warm-state snapshot/restore and the mutation batching.

Covers the snapshot value itself (capture, bytes round-trip, restore, the
zero-re-solving claim), the specification fingerprint (structural twins agree,
derived caches don't perturb it), the on-disk :class:`SnapshotStore`
(atomicity, corrupt-entry recovery), the ``add_tuple`` argument-validation
regressions, and ``add_tuples`` batch semantics.  Restore-in-a-subprocess
lives here too — the property sweep exercises the same path in bulk.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
from math import comb

import pytest

from repro.core.instance import TemporalInstance
from repro.core.schema import RelationSchema
from repro.core.specification import Specification
from repro.core.tuples import RelationTuple
from repro.exceptions import SpecificationError
from repro.serve import BatchDriver
from repro.session import (
    ProblemRequest,
    ReasoningSession,
    SessionSnapshot,
    SnapshotStore,
    restore_bytes,
    snapshot_bytes,
    specification_fingerprint,
)
from repro.session.snapshot import SNAPSHOT_FORMAT
from repro.workloads import company
from repro.workloads.synthetic import preservation_workload

ORDER = {"salary": [("s1", "s3")]}


def _mary_tuple(schema, tid="mut1", salary=95):
    return RelationTuple(
        schema,
        tid,
        {
            "EID": company.MARY,
            "FN": "Mary",
            "LN": "Smith",
            "address": "5 Wren St",
            "salary": salary,
            "status": "married",
        },
    )


def _warm_company_session(paper_queries):
    session = ReasoningSession(company.company_specification())
    session.consistent(method="sat")
    session.certain_answers(paper_queries["Q1"])
    session.certain_ordering("Emp", ORDER)
    session.deterministic("Emp")
    return session


# --------------------------------------------------------------------------- #
# add_tuple argument validation (regressions)
# --------------------------------------------------------------------------- #
class TestAddTupleValidation:
    def test_prebuilt_tuple_with_values_mapping_is_rejected(self, company_spec):
        # regression: the values used to be silently ignored
        session = ReasoningSession(company_spec)
        schema = company_spec.instance("Emp").schema
        before = session.mutations
        with pytest.raises(ValueError, match="both a pre-built RelationTuple"):
            session.add_tuple("Emp", _mary_tuple(schema), {"salary": 10})
        assert session.mutations == before
        assert not company_spec.instance("Emp").has_tid("mut1")

    def test_foreign_schema_tuple_is_rejected(self, company_spec, pair_schema):
        # regression: the instance layer compares schema *names* only, so a
        # structurally different schema used to slip straight into the chase
        session = ReasoningSession(company_spec)
        alien = RelationTuple(pair_schema, "mut1", {"EID": "e1", "A": 1, "B": 2})
        before = session.mutations
        with pytest.raises(SpecificationError, match="different schema"):
            session.add_tuple("Emp", alien)
        assert session.mutations == before
        assert not company_spec.instance("Emp").has_tid("mut1")

    def test_valid_prebuilt_tuple_still_lands(self, company_spec):
        session = ReasoningSession(company_spec)
        schema = company_spec.instance("Emp").schema
        session.add_tuple("Emp", _mary_tuple(schema))
        assert company_spec.instance("Emp").has_tid("mut1")


# --------------------------------------------------------------------------- #
# add_tuples: one delta pass, all-or-nothing validation
# --------------------------------------------------------------------------- #
class TestAddTuplesBatch:
    def test_batch_equals_sequential(self, paper_queries):
        batched = _warm_company_session(paper_queries)
        sequential = _warm_company_session(paper_queries)
        schema = batched.specification.instance("Emp").schema
        tuples = [
            _mary_tuple(schema, "mut1", salary=95),
            ("mut2", {
                "EID": company.BOB,
                "FN": "Bob",
                "LN": "Jones",
                "address": "9 Elm St",
                "salary": 61,
                "status": "single",
            }),
        ]
        batched.add_tuples("Emp", tuples)
        for item in tuples:
            if isinstance(item, RelationTuple):
                sequential.add_tuple("Emp", item)
            else:
                sequential.add_tuple("Emp", item[0], item[1])
        assert batched.specification == sequential.specification
        assert batched.consistent(method="sat") == sequential.consistent(method="sat")
        assert batched.deterministic("Emp") == sequential.deterministic("Emp")
        assert batched.certain_answers(
            paper_queries["Q1"]
        ) == sequential.certain_answers(paper_queries["Q1"])

    def test_batch_pays_one_invalidation_pass(self, company_spec):
        session = ReasoningSession(company_spec)
        session.consistent(method="sat")  # warm a maximality-free encoder
        schema = company_spec.instance("Emp").schema
        encoder = session.encoder
        before = session.mutations
        session.add_tuples(
            "Emp", [_mary_tuple(schema, "mut1"), _mary_tuple(schema, "mut2")]
        )
        assert session.mutations == before + 1  # one clear, not one per tuple
        assert session._encoder is encoder  # extended in place, not rebuilt

    def test_bad_element_mutates_nothing(self, company_spec):
        session = ReasoningSession(company_spec)
        schema = company_spec.instance("Emp").schema
        instance = company_spec.instance("Emp")
        before_tids = list(instance.tids())
        with pytest.raises(SpecificationError, match="duplicate tuple id"):
            session.add_tuples(
                "Emp", [_mary_tuple(schema, "mut1"), _mary_tuple(schema, "mut1")]
            )
        with pytest.raises(SpecificationError, match="duplicate tuple id"):
            # collides with an existing tid
            session.add_tuples("Emp", [_mary_tuple(schema, "s1")])
        assert list(instance.tids()) == before_tids

    def test_empty_batch_is_a_noop(self, company_spec):
        session = ReasoningSession(company_spec)
        before = session.mutations
        session.add_tuples("Emp", [])
        assert session.mutations == before


# --------------------------------------------------------------------------- #
# Snapshot capture / restore
# --------------------------------------------------------------------------- #
class TestSnapshotRestore:
    def test_restored_session_answers_like_the_donor(self, paper_queries):
        donor = _warm_company_session(paper_queries)
        payload = donor.snapshot().to_bytes()
        restored = ReasoningSession.restore(SessionSnapshot.from_bytes(payload))
        assert restored.consistent(method="sat") == donor.consistent(method="sat")
        assert restored.certain_answers(paper_queries["Q1"]) == donor.certain_answers(
            paper_queries["Q1"]
        )
        assert restored.certain_ordering("Emp", ORDER) == donor.certain_ordering(
            "Emp", ORDER
        )
        assert restored.deterministic("Emp") == donor.deterministic("Emp")
        assert restored.mutations == donor.mutations

    def test_restore_carries_the_warm_substrate(self, paper_queries):
        donor = _warm_company_session(paper_queries)
        restored = restore_bytes(snapshot_bytes(donor))
        # the earned caches crossed the boundary: nothing needs rebuilding.
        # DCIP read the encoder's value columns, so it built no chase
        assert restored._encoder is not None
        assert restored._chase is None
        assert set(restored._encoder._value_slots) == {"Emp"}
        assert restored._answer_memo
        assert restored._verdict_memo == donor._verdict_memo
        # and the restored space/encoder alias the restored specification —
        # the single-pickle-pass aliasing contract
        assert restored._encoder.specification is restored.specification

    def test_restored_session_stays_mutable_and_equivalent(self, paper_queries):
        donor = _warm_company_session(paper_queries)
        restored = restore_bytes(snapshot_bytes(donor))
        fresh = ReasoningSession(company.company_specification())
        for session in (restored, fresh):
            session.add_order("Emp", "salary", "s1", "s3")
        assert restored.certain_ordering("Emp", ORDER) == fresh.certain_ordering(
            "Emp", ORDER
        )
        assert restored.consistent() == fresh.consistent()
        # the donor was left untouched by snapshot() (detach=True default)
        assert not donor.specification.instance("Emp").order("salary").precedes(
            "s1", "s3"
        ) or donor.specification == restored.specification

    def test_snapshot_of_a_preservation_workload(self):
        spec, query = preservation_workload(candidates=3, conflict_groups=2, seed=5)
        donor = ReasoningSession(spec)
        expected = (donor.cpp(query), donor.ecp(query), donor.bcp(query, 2))
        restored = restore_bytes(snapshot_bytes(donor))
        assert (
            restored.cpp(query),
            restored.ecp(query),
            restored.bcp(query, 2),
        ) == expected

    def test_a_partly_refined_encoder_round_trips(self):
        schema = RelationSchema("R", ("A", "B"))
        rows = {f"{eid}{i}": {"EID": eid, "A": i, "B": -i} for eid in "xy" for i in range(4)}
        donor = ReasoningSession(Specification({"R": TemporalInstance.from_rows(schema, rows)}))
        encoder = donor.encoder
        # a 3-cycle probe refines block (R, A, x) and no other
        cycle = [("R", "A", "x0", "x1"), ("R", "A", "x1", "x2"), ("R", "A", "x2", "x0")]
        assert not encoder.satisfiable(cycle)
        assert encoder._refined == {("R", "A", "x")}
        restored = restore_bytes(snapshot_bytes(donor))
        assert restored.encoder._refined == encoder._refined
        assert restored.encoder._blocks == encoder._blocks
        assert len(restored.encoder.cnf.clauses) == len(encoder.cnf.clauses)
        # the refined block keeps growing eagerly on both sides, lazy ones lazily
        refined_clauses = len(encoder.cnf.clauses)
        for session in (donor, restored):
            for tid in ("x4", "y4"):
                session.add_tuple("R", tid, {"EID": tid[0], "A": 4, "B": -4})
            # the triples of (R, A, x) that involve x4
            grown = refined_clauses + 2 * (comb(5, 3) - comb(4, 3))
            assert len(session.encoder.cnf.clauses) == grown
        assert restored.encoder._refined == {("R", "A", "x")}
        assert not restored.encoder.satisfiable(cycle)
        order = {"A": [("x4", "x0")], "B": [("y0", "y4")]}
        assert restored.certain_ordering("R", order) == donor.certain_ordering("R", order)

    def test_from_bytes_rejects_foreign_payloads(self):
        with pytest.raises(SpecificationError, match="SessionSnapshot"):
            SessionSnapshot.from_bytes(pickle.dumps({"not": "a snapshot"}))


def _subprocess_restore(payload, queue):
    session = restore_bytes(payload)
    queue.put(
        (
            session.consistent(method="sat"),
            session.certain_ordering("Emp", ORDER),
            session.deterministic("Emp"),
        )
    )


class TestSubprocessRestore:
    def test_snapshot_restores_in_a_spawned_process(self, paper_queries):
        donor = _warm_company_session(paper_queries)
        expected = (
            donor.consistent(method="sat"),
            donor.certain_ordering("Emp", ORDER),
            donor.deterministic("Emp"),
        )
        context = multiprocessing.get_context("spawn")
        queue = context.Queue()
        process = context.Process(
            target=_subprocess_restore, args=(snapshot_bytes(donor), queue)
        )
        process.start()
        try:
            assert queue.get(timeout=60) == expected
        finally:
            process.join(timeout=10)


# --------------------------------------------------------------------------- #
# Specification fingerprints
# --------------------------------------------------------------------------- #
class TestFingerprint:
    def test_structural_twins_agree(self):
        a = specification_fingerprint(company.company_specification())
        b = specification_fingerprint(company.company_specification())
        assert a == b

    def test_copy_agrees_with_original(self, company_spec):
        assert specification_fingerprint(company_spec) == specification_fingerprint(
            company_spec.copy()
        )

    def test_mutation_changes_the_fingerprint(self, company_spec):
        before = specification_fingerprint(company_spec)
        company_spec.instance("Emp").add_order("salary", "s1", "s3")
        assert specification_fingerprint(company_spec) != before

    def test_lazy_caches_do_not_perturb_the_key(self, company_spec):
        twin = company.company_specification()
        # populate derived row caches on one side only
        for name in company_spec.instance_names():
            company_spec.instance(name).rows()
        assert specification_fingerprint(company_spec) == specification_fingerprint(
            twin
        )


# --------------------------------------------------------------------------- #
# On-disk store
# --------------------------------------------------------------------------- #
class TestSnapshotStore:
    def test_store_and_load_session(self, tmp_path, paper_queries):
        store = SnapshotStore(str(tmp_path))
        donor = _warm_company_session(paper_queries)
        store.store_session(donor)
        twin = company.company_specification()
        restored = store.load_session(twin)
        assert restored is not None
        assert restored.certain_answers(paper_queries["Q1"]) == donor.certain_answers(
            paper_queries["Q1"]
        )
        assert store.stats()["entries"] == 1
        assert store.stats()["hits"] == 1

    def test_missing_entry_is_a_miss(self, tmp_path, company_spec):
        store = SnapshotStore(str(tmp_path))
        assert store.load_session(company_spec) is None
        assert store.stats()["misses"] == 1

    def test_corrupt_entry_is_dropped_as_a_miss(self, tmp_path, company_spec):
        store = SnapshotStore(str(tmp_path))
        fingerprint = specification_fingerprint(company_spec)
        store.store(fingerprint, b"not a pickle")
        assert store.load_session(company_spec) is None
        assert store.entries() == []  # the torn file was unlinked

    def test_another_format_is_a_miss(self, tmp_path, paper_queries):
        store = SnapshotStore(str(tmp_path))
        snapshot = _warm_company_session(paper_queries).snapshot()
        stale = dataclasses.replace(snapshot, format_version=SNAPSHOT_FORMAT + 1)
        store.store(specification_fingerprint(snapshot.specification), stale.to_bytes())
        assert store.load_session(company.company_specification()) is None
        assert store.stats()["misses"] == 1

    def test_a_snapshot_without_a_format_is_refused(self, paper_queries):
        snapshot = _warm_company_session(paper_queries).snapshot()
        del snapshot.__dict__["format_version"]  # as pickled before the field
        with pytest.raises(SpecificationError, match="format"):
            SessionSnapshot.from_bytes(pickle.dumps(snapshot))

    def test_a_format_2_snapshot_is_refused(self, paper_queries):
        # format 2 pickled encoders with two variables per currency pair
        snapshot = _warm_company_session(paper_queries).snapshot()
        stale = dataclasses.replace(snapshot, format_version=2)
        with pytest.raises(SpecificationError, match="format 2 is not the supported format 5"):
            SessionSnapshot.from_bytes(stale.to_bytes())

    def test_a_format_3_snapshot_is_refused(self, paper_queries):
        # format 3 pickled encoders that emitted every transitivity triple
        # eagerly, without per-block refinement state
        snapshot = _warm_company_session(paper_queries).snapshot()
        stale = dataclasses.replace(snapshot, format_version=3)
        with pytest.raises(SpecificationError, match="format 3 is not the supported format 5"):
            SessionSnapshot.from_bytes(stale.to_bytes())

    def test_a_format_4_snapshot_is_refused(self, paper_queries):
        # format 4 pickled the session's current-database enumerators
        snapshot = _warm_company_session(paper_queries).snapshot()
        stale = dataclasses.replace(snapshot, format_version=4)
        with pytest.raises(SpecificationError, match="format 4 is not the supported format 5"):
            SessionSnapshot.from_bytes(stale.to_bytes())

    def test_writes_leave_no_temp_droppings(self, tmp_path, paper_queries):
        store = SnapshotStore(str(tmp_path))
        store.store_session(_warm_company_session(paper_queries))
        leftovers = [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")]
        assert leftovers == []


# --------------------------------------------------------------------------- #
# Batch driver: warm state lives in the service, not across close()
# --------------------------------------------------------------------------- #
class TestBatchSnapshotShipping:
    def test_parallel_runs_answer_like_serial_across_close(self):
        spec = company.company_specification()
        queries = company.paper_queries()
        requests = [
            (spec, ProblemRequest("cps")),
            (spec, ProblemRequest("ccqa", query=queries["Q1"])),
        ]
        serial = BatchDriver(serial=True)
        expected = [r.value for r in serial.run(requests)]
        pw, query = preservation_workload(candidates=2, conflict_groups=1, seed=2)
        requests.append((pw, ProblemRequest("cpp", query=query)))
        expected.append(serial.run([(pw, ProblemRequest("cpp", query=query))])[0].value)
        with BatchDriver(processes=2) as driver:
            first = driver.run(requests)
            assert [r.value for r in first] == expected
            router = driver._service.stats()["router"]
            assert (router["sessions"], router["hits"], router["misses"]) == (2, 1, 2)
            # close() releases the service and its warm sessions; the next
            # run starts a cold service and still answers exactly
            driver.close()
            second = driver.run(requests)
            assert [r.value for r in second] == expected
            router = driver._service.stats()["router"]
            assert (router["sessions"], router["misses"]) == (2, 2)
