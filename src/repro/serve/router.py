"""Session affinity: one warm session (and one lane) per logical spec.

The router assigns every submitted specification a stable integer *session
key*.  The key doubles as the supervisor lane, so all traffic for one logical
session flows FIFO through one worker — the invariant that makes worker-side
warm state and mutation ordering correct.

Interning follows the ``space_for`` convention, with two serving-specific
twists.  A **structurally equal** specification's *questions* join an
existing entry *only while that entry is unmutated*: once a session has (or
is applying) a mutation, its logical state has diverged from what any
structural twin describes.  And a *mutation* joins only the entry whose
specification is the submitted object itself, so a twin's first write opens
a session of its own instead of leaking into the twin's.  Identity is always
tried first.  The caller's specification object is thus a *handle*: the
service never mutates it — mutations live in the entry's log, replayed by
workers onto their private pickled copies.

The log is the crash-recovery story: every request ships ``(base
specification, committed log)``, and a worker that lost its warm session (a
respawn, or an LRU eviction) rebuilds it by replaying the log onto the base.
Mutations are appended to the log only once a worker acknowledged them, so a
crashed mutation is never silently half-committed.

Snapshot compaction bounds that story: without it the log — and with it the
per-entry memory and every respawn's replay cost — grows linearly for the
life of the session.  The service periodically folds the applied prefix into
a pickled warm-session snapshot (see :mod:`repro.session.snapshot`):
:meth:`SessionEntry.compact` records the snapshot, **truncates the log to the
suffix past the watermark**, and advances ``log_base`` — the absolute number
of mutations the snapshot already reflects.  Requests then ship ``(snapshot,
log_base, suffix log)`` and a cold worker restores the snapshot and replays
only the suffix.  The entry invariant: ``log_base + len(log)`` is the total
number of committed mutations, and ``snapshot`` is present whenever
``log_base > 0``.

``base_log`` records how many of those mutations were already folded in when
the entry was *created* — zero normally, the persisted watermark for entries
resumed from an on-disk snapshot store.  Structural twins may join an entry
exactly while it has diverged by nothing beyond that blessed base state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core.specification import Specification
from repro.exceptions import SpecificationError
from repro.serve.protocol import Mutation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.footprint import MutationFootprint

__all__ = ["AffinityRouter", "SessionEntry"]

#: service-provided hook answering "is there a persisted snapshot for this
#: base specification?" with ``(snapshot bytes, folded mutation count)``
SnapshotLoader = Callable[[Specification], Optional[Tuple[bytes, int]]]


class SessionEntry:
    """One logical session: base spec, snapshot, committed mutation log, key."""

    __slots__ = (
        "key",
        "specification",
        "log",
        "footprints",
        "mutations_by_op",
        "global_invalidations",
        "pending_mutations",
        "snapshot",
        "log_base",
        "base_log",
        "compacting",
        "worker_mutation_stats",
    )

    def __init__(
        self,
        key: int,
        specification: Specification,
        snapshot: Optional[bytes] = None,
        log_base: int = 0,
    ) -> None:
        if log_base > 0 and snapshot is None:
            raise SpecificationError(
                "a session entry with folded mutations needs the snapshot "
                "that folded them"
            )
        self.key = key
        self.specification = specification
        #: committed mutations *past* the snapshot watermark (the suffix a
        #: worker replays after restoring the snapshot)
        self.log: List[Mutation] = []
        #: one footprint per retained log entry (truncated in lockstep by
        #: :meth:`compact`) — the scoping metadata riding the mutation log
        self.footprints: List["MutationFootprint"] = []
        #: lifetime counters (never truncated by compaction)
        self.mutations_by_op: Dict[str, int] = {}
        self.global_invalidations = 0
        #: the owning worker's ``mutation_stats()`` as of the last probe
        self.worker_mutation_stats: Optional[Dict[str, int]] = None
        self.pending_mutations = 0
        #: pickled :class:`~repro.session.snapshot.SessionSnapshot`, or None
        self.snapshot: Optional[bytes] = snapshot
        #: how many committed mutations the snapshot already reflects
        self.log_base = log_base
        #: the watermark at entry creation (the blessed resume point —
        #: non-zero only for entries restored from an on-disk store)
        self.base_log = log_base
        #: service-side guard: one snapshot probe in flight at a time
        self.compacting = False

    @property
    def total_log_length(self) -> int:
        """Committed mutations over the session's whole life (folded + suffix)."""
        return self.log_base + len(self.log)

    @property
    def mutated(self) -> bool:
        """Whether this session's state may differ from the state a fresh
        structural twin of its base specification describes — i.e. whether it
        diverged past the entry's blessed creation state."""
        return self.total_log_length > self.base_log or self.pending_mutations > 0

    def commit(self, mutation: Mutation) -> None:
        """Append an acknowledged mutation to the log, with its footprint.

        The footprint (see :meth:`Mutation.footprint`) is computed against
        the entry's base specification, so the retained log carries the
        scoping metadata a reader needs to reason about what each committed
        write can have dirtied; lifetime op counters survive compaction."""
        self.log.append(mutation)
        self.footprints.append(mutation.footprint(self.specification))
        self.mutations_by_op[mutation.op] = self.mutations_by_op.get(mutation.op, 0) + 1
        if self.footprints[-1].global_invalidation:
            self.global_invalidations += 1

    def compact(self, snapshot: bytes, applied: int) -> bool:
        """Fold the first *applied* committed mutations into *snapshot*.

        Truncates the retained log to the suffix past the watermark and
        advances ``log_base``; the entry's total committed count is invariant
        under compaction.  A stale probe — one that reflects no more than the
        current watermark — is rejected (False) rather than allowed to move
        the watermark backwards."""
        if applied > self.total_log_length:
            raise SpecificationError(
                f"snapshot claims {applied} applied mutations but only "
                f"{self.total_log_length} were ever committed"
            )
        if applied < self.log_base or (
            applied == self.log_base and self.snapshot is not None
        ):
            return False
        self.footprints = self.footprints[applied - self.log_base :]
        self.log = self.log[applied - self.log_base :]
        self.log_base = applied
        self.snapshot = snapshot
        return True


class AffinityRouter:
    """Intern specifications to :class:`SessionEntry` instances.

    *snapshot_loader*, when provided, is probed on every interning miss: a
    hit creates the fresh entry pre-warmed from the persisted snapshot (its
    ``base_log`` watermark marks the folded mutations as the entry's blessed
    base state, so structural twins still join it).  *on_evict*, when
    provided, is called with the key of every evicted entry, so the owner of
    per-key resources (the service's supervisor lanes) can release them."""

    def __init__(
        self,
        capacity: int = 64,
        snapshot_loader: Optional[SnapshotLoader] = None,
        on_evict: Optional[Callable[[int], None]] = None,
    ) -> None:
        if capacity < 1:
            raise SpecificationError("the router needs capacity >= 1")
        self.capacity = capacity
        self._entries: List[SessionEntry] = []
        self._next_key = 0
        self._snapshot_loader = snapshot_loader
        self._on_evict = on_evict
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.snapshot_resumes = 0

    def entry_for(self, specification: Specification) -> SessionEntry:
        """The entry answering questions on *specification*: the entry whose
        specification *is* this object, else an unmutated structural twin's
        (a mutated session's answers no longer describe the twin), else a
        fresh one."""
        entry = self._owned_by(specification)
        if entry is None:
            entry = next(
                (
                    twin
                    for twin in self._entries
                    if not twin.mutated and twin.specification == specification
                ),
                None,
            )
        if entry is None:
            return self._new_entry(specification)
        self.hits += 1
        return entry

    def entry_for_mutation(self, specification: Specification) -> SessionEntry:
        """The entry a mutation of *specification* joins: only the one whose
        specification *is* this object — joining a structural twin's entry
        would leak the write into the twin's answers — else a fresh one."""
        entry = self._owned_by(specification)
        if entry is None:
            return self._new_entry(specification)
        self.hits += 1
        return entry

    def _owned_by(self, specification: Specification) -> Optional[SessionEntry]:
        for entry in self._entries:
            # reprolint: allow(R2) — identity is the session-handle fast path
            if entry.specification is specification:
                return entry
        return None

    def _new_entry(self, specification: Specification) -> SessionEntry:
        self.misses += 1
        snapshot: Optional[bytes] = None
        log_base = 0
        if self._snapshot_loader is not None:
            loaded = self._snapshot_loader(specification)
            if loaded is not None:
                snapshot, log_base = loaded
                self.snapshot_resumes += 1
        entry = SessionEntry(self._next_key, specification, snapshot, log_base)
        self._next_key += 1
        if len(self._entries) >= self.capacity:
            evicted = self._evict_one()
            if evicted is not None and self._on_evict is not None:
                self._on_evict(evicted)
        self._entries.append(entry)
        return entry

    def _evict_one(self) -> Optional[int]:
        """Drop the oldest entry with no in-flight mutation (a re-appearing
        spec then simply gets a fresh key and a cold session); returns the
        evicted key, or None when nothing could be evicted."""
        for index, entry in enumerate(self._entries):
            if entry.pending_mutations == 0:
                del self._entries[index]
                self.evictions += 1
                return entry.key
        # every entry has a mutation in flight: grow past capacity rather
        # than orphan an uncommitted write
        return None

    def stats(self) -> Dict[str, Any]:
        return {
            "sessions": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "snapshot_resumes": self.snapshot_resumes,
            "mutated_sessions": sum(1 for e in self._entries if e.mutated),
            "compacted_sessions": sum(1 for e in self._entries if e.log_base > 0),
            "retained_log_entries": sum(len(e.log) for e in self._entries),
            "mutations": self._mutation_stats(),
        }

    def _mutation_stats(self) -> Dict[str, Any]:
        """Footprint-derived aggregates over every tracked session's log."""
        by_op: Dict[str, int] = {}
        relations: set = set()
        for entry in self._entries:
            for op, count in entry.mutations_by_op.items():
                by_op[op] = by_op.get(op, 0) + count
            for footprint in entry.footprints:
                relations.update(footprint.relations)
        return {
            "committed": sum(by_op.values()),
            "by_op": by_op,
            "global_invalidations": sum(
                e.global_invalidations for e in self._entries
            ),
            "footprint_relations": len(relations),
        }

    def entries(self) -> Tuple[SessionEntry, ...]:
        """Every tracked session entry (a read-only view for stats)."""
        return tuple(self._entries)

    def entry_by_key(self, key: int) -> Optional[SessionEntry]:
        for entry in self._entries:
            if entry.key == key:
                return entry
        return None
