"""Snapshot threading through the serving layer.

The watermark protocol (``log_base`` + retained suffix) at the router level,
service-driven compaction (the satellite bound: mutation logs no longer grow
without limit), crash re-warm from snapshot + suffix under an injected fault,
and durable-session resume from an on-disk snapshot store across service
restarts."""

import asyncio
import dataclasses
import pickle

import pytest

from repro.exceptions import SpecificationError
from repro.serve import Mutation, ReasoningService
from repro.serve.router import AffinityRouter, SessionEntry
from repro.session import ProblemRequest, ReasoningSession
from repro.testing.faults import Fault, FaultPlan
from repro.workloads import company

ORDER = {"salary": [("s1", "s3")]}

#: enough committed mutations to cross a threshold of 3 twice
MUTATIONS = [
    Mutation("add_order", args=("Emp", "salary", "s1", "s2")),
    Mutation("add_order", args=("Emp", "salary", "s2", "s3")),
    Mutation("add_order", args=("Emp", "salary", "s1", "s3")),
    Mutation("add_order", args=("Emp", "address", "s1", "s2")),
    Mutation("add_order", args=("Emp", "address", "s2", "s3")),
    Mutation("add_order", args=("Emp", "address", "s1", "s3")),
]


def run(coro):
    return asyncio.run(coro)


def oracle_after(mutations):
    oracle = ReasoningSession(company.company_specification())
    for mutation in mutations:
        mutation.apply(oracle)
    return oracle


async def commit_all(svc, spec, mutations):
    for mutation in mutations:
        answer = await svc.submit(spec, mutation)
        assert answer.ok, answer.error


# --------------------------------------------------------------------------- #
# Router watermark semantics (unit level)
# --------------------------------------------------------------------------- #
class TestSessionEntryWatermark:
    def test_compact_truncates_past_the_watermark(self):
        entry = SessionEntry(0, company.company_specification())
        entry.log.extend(MUTATIONS[:4])
        assert entry.compact(b"snap", 3)
        assert entry.log_base == 3
        assert entry.log == MUTATIONS[3:4]  # only the suffix is retained
        assert entry.total_log_length == 4  # committed count is invariant
        assert entry.snapshot == b"snap"

    def test_stale_probe_cannot_move_the_watermark_backwards(self):
        entry = SessionEntry(0, company.company_specification())
        entry.log.extend(MUTATIONS[:4])
        assert entry.compact(b"new", 3)
        assert not entry.compact(b"old", 2)
        assert not entry.compact(b"same", 3)  # nothing new to fold
        assert entry.log_base == 3 and entry.snapshot == b"new"

    def test_overclaiming_probe_is_an_error(self):
        entry = SessionEntry(0, company.company_specification())
        entry.log.extend(MUTATIONS[:2])
        with pytest.raises(SpecificationError, match="only 2"):
            entry.compact(b"snap", 5)

    def test_restored_entry_needs_its_snapshot(self):
        with pytest.raises(SpecificationError, match="needs the snapshot"):
            SessionEntry(0, company.company_specification(), None, log_base=2)

    def test_twins_join_a_disk_restored_entry_until_it_diverges(self):
        spec = company.company_specification()
        router = AffinityRouter(snapshot_loader=lambda _spec: (b"snap", 3))
        entry = router.entry_for(spec)
        assert entry.log_base == 3 and not entry.mutated
        assert router.snapshot_resumes == 1
        twin = company.company_specification()
        assert router.entry_for(twin) is entry  # blessed base state
        entry.log.append(MUTATIONS[3])  # first NEW mutation: diverged
        assert router.entry_for(company.company_specification()) is not entry


# --------------------------------------------------------------------------- #
# Service-driven compaction
# --------------------------------------------------------------------------- #
class TestCompaction:
    def test_log_growth_is_bounded_and_answers_survive(self):
        spec = company.company_specification()

        async def scenario():
            async with ReasoningService(
                processes=1, retries=0, compact_log_threshold=3
            ) as svc:
                warm = await svc.submit(spec, ProblemRequest("cps"))
                assert warm.ok, warm.error
                await commit_all(svc, spec, MUTATIONS)
                entry = svc._router.entry_for(spec)
                answer = await svc.submit(
                    spec, ProblemRequest("cop", args=("Emp", ORDER))
                )
                return svc.stats(), entry, answer

        stats, entry, answer = run(scenario())
        assert stats["compactions"] >= 2
        # the satellite bound: the retained suffix stays under the threshold
        assert len(entry.log) < 3
        assert entry.log_base + len(entry.log) == len(MUTATIONS)
        assert entry.snapshot is not None
        assert answer.ok and answer.value == oracle_after(MUTATIONS).certain_ordering(
            "Emp", ORDER
        )

    def test_compaction_disabled_keeps_the_full_log(self):
        spec = company.company_specification()

        async def scenario():
            async with ReasoningService(
                processes=1, retries=0, compact_log_threshold=None
            ) as svc:
                await commit_all(svc, spec, MUTATIONS)
                entry = svc._router.entry_for(spec)
                return svc.stats(), entry

        stats, entry = run(scenario())
        assert stats["compactions"] == 0
        assert entry.log_base == 0 and len(entry.log) == len(MUTATIONS)

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            ReasoningService(processes=1, compact_log_threshold=0)

    def test_checkpoint_snapshots_below_the_threshold(self):
        spec = company.company_specification()

        async def scenario():
            async with ReasoningService(
                processes=1, retries=0, compact_log_threshold=None
            ) as svc:
                await commit_all(svc, spec, MUTATIONS[:2])
                forced = await svc.checkpoint(spec)
                entry = svc._router.entry_for(spec)
                return forced, entry

        forced, entry = run(scenario())
        assert forced
        assert entry.log_base == 2 and entry.log == []


# --------------------------------------------------------------------------- #
# Crash re-warm from snapshot + suffix
# --------------------------------------------------------------------------- #
class TestCrashRewarm:
    def test_killed_worker_restores_snapshot_and_replays_the_suffix(self):
        # commit 6 mutations at threshold 3 (two compactions), then kill the
        # worker on a later read: the respawned worker must restore the
        # snapshot and replay exactly the suffix.  Executions before that
        # read: 1 warm read + 6 mutations + 2 snapshot probes = 9.
        plan = FaultPlan.of(
            Fault("worker.execute", "kill", after=len(MUTATIONS) + 3, times=1,
                  generation=0)
        )
        spec = company.company_specification()

        async def scenario():
            async with ReasoningService(
                processes=1, retries=1, compact_log_threshold=3, fault_plan=plan
            ) as svc:
                warm = await svc.submit(spec, ProblemRequest("cps"))
                assert warm.ok, warm.error
                await commit_all(svc, spec, MUTATIONS)
                entry = svc._router.entry_for(spec)
                assert entry.log_base >= 3  # a snapshot exists pre-crash
                # this read trips the kill; the retry lands on the respawn
                answer = await svc.submit(
                    spec, ProblemRequest("cop", args=("Emp", ORDER))
                )
                return answer, svc.stats()

        answer, stats = run(scenario())
        assert stats["supervisor"]["respawns"] == 1
        assert answer.ok, answer.error
        assert answer.attempts == 2
        assert answer.value == oracle_after(MUTATIONS).certain_ordering("Emp", ORDER)


# --------------------------------------------------------------------------- #
# Durable sessions across service restarts
# --------------------------------------------------------------------------- #
class TestDurableResume:
    def test_restart_resumes_folded_mutations_from_disk(self, tmp_path):
        directory = str(tmp_path)
        spec = company.company_specification()

        async def first_life():
            async with ReasoningService(
                processes=1, retries=0, compact_log_threshold=3,
                snapshot_dir=directory,
            ) as svc:
                await commit_all(svc, spec, MUTATIONS)
                entry = svc._router.entry_for(spec)
                return entry.log_base, svc.stats()

        watermark, stats = run(first_life())
        assert watermark >= 3
        assert stats["snapshot_store"]["stores"] >= 1

        async def second_life():
            async with ReasoningService(
                processes=1, retries=0, compact_log_threshold=3,
                snapshot_dir=directory,
            ) as svc:
                twin = company.company_specification()
                entry = svc._router.entry_for(twin)
                answer = await svc.submit(
                    twin, ProblemRequest("cop", args=("Emp", ORDER))
                )
                return entry, answer, svc._router.snapshot_resumes

        entry, answer, resumes = run(second_life())
        assert resumes == 1
        assert entry.log_base == watermark
        assert answer.ok, answer.error
        # exactly the folded-in mutations are durable
        expected = oracle_after(MUTATIONS[:watermark]).certain_ordering("Emp", ORDER)
        assert answer.value == expected

    def test_a_persisted_snapshot_of_another_format_is_not_resumed(self, tmp_path):
        from repro.session.snapshot import (
            SNAPSHOT_FORMAT,
            SnapshotStore,
            specification_fingerprint,
        )

        directory = str(tmp_path)
        spec = company.company_specification()
        pair = {"salary": [("s1", "s2")]}  # certain only after MUTATIONS[0]
        donor = oracle_after(MUTATIONS[:1])
        stale = dataclasses.replace(donor.snapshot(), format_version=SNAPSHOT_FORMAT - 1)
        SnapshotStore(directory).store(
            specification_fingerprint(spec), pickle.dumps((1, stale.to_bytes()))
        )

        async def scenario():
            async with ReasoningService(
                processes=1, retries=0, snapshot_dir=directory
            ) as svc:
                entry = svc._router.entry_for(spec)
                answer = await svc.submit(spec, ProblemRequest("cop", args=("Emp", pair)))
                return entry, answer, svc._router.snapshot_resumes

        entry, answer, resumes = run(scenario())
        assert resumes == 0
        assert entry.log_base == 0 and entry.snapshot is None
        assert answer.ok, answer.error
        assert answer.value == oracle_after([]).certain_ordering("Emp", pair) is False

    def test_corrupt_persisted_payload_falls_back_to_cold(self, tmp_path):
        from repro.session.snapshot import SnapshotStore, specification_fingerprint

        directory = str(tmp_path)
        spec = company.company_specification()
        store = SnapshotStore(directory)
        store.store(
            specification_fingerprint(spec), pickle.dumps(("not-an-int", None))
        )

        async def scenario():
            async with ReasoningService(
                processes=1, retries=0, snapshot_dir=directory
            ) as svc:
                entry = svc._router.entry_for(spec)
                answer = await svc.submit(spec, ProblemRequest("cps"))
                return entry, answer

        entry, answer = run(scenario())
        assert entry.log_base == 0 and entry.snapshot is None
        assert answer.ok, answer.error
        assert answer.value == ReasoningSession(
            company.company_specification()
        ).consistent()
