"""The fault-tolerant reasoning service.

:class:`ReasoningService` is an asyncio facade over a
:class:`~repro.serve.supervisor.WorkerSupervisor`: clients submit
``(specification, ProblemRequest | Mutation)`` pairs and await structured
:class:`~repro.serve.protocol.Answer` objects, which arrive as each completes
— there is no batch barrier.

Request lifecycle
-----------------
1. The :class:`~repro.serve.router.AffinityRouter` interns the specification
   to a session entry; the entry's key is the supervisor *lane*, so all
   traffic for one warm session runs FIFO on one worker.
2. The request ships as ``(key, base spec, committed mutation log, item,
   absolute deadline)``.  The worker keeps an LRU of warm
   :class:`~repro.session.ReasoningSession` objects keyed by session key and
   replays any log suffix it has not yet applied — which is also exactly how
   a *respawned* worker re-warms the sessions it lost.
3. Deadlines propagate end-to-end: the service converts ``deadline=`` to an
   absolute monotonic timestamp (comparable across processes on Linux); the
   supervisor expires still-queued requests at it and kills workers that hang
   past it; the worker converts it to a solver
   :class:`~repro.solvers.budget.Budget` so the search itself stops in time.
4. Budget exhaustion comes back as a :class:`Degraded` answer naming the
   problem, the exhausted resource and the spend — never as a silently
   truncated value.  Worker crashes surface as structured
   :class:`~repro.exceptions.WorkerCrashed` failures after the configured
   retries (reads only; mutations are never retried), overload as an
   immediate :class:`~repro.exceptions.Overloaded` rejection.
"""

from __future__ import annotations

import asyncio
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    AsyncIterator,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.specification import Specification
from repro.exceptions import ErrorRecord, Overloaded
from repro.serve.protocol import Answer, Degraded, Mutation
from repro.serve.router import AffinityRouter, SessionEntry
from repro.serve.supervisor import WorkerSupervisor, WorkResult
from repro.session.requests import ProblemRequest, answer_request
from repro.session.session import ReasoningSession
from repro.session.snapshot import (
    SessionSnapshot,
    SnapshotStore,
    restore_bytes,
    snapshot_bytes,
    specification_fingerprint,
)
from repro.solvers.backend import resolve_backend
from repro.solvers.budget import Budget, DeadlineLike, budget_scope
from repro.testing.faults import FaultPlan

__all__ = ["ReasoningService", "ServeItem"]

#: what a client may submit alongside a specification
ServeItem = Union[ProblemRequest, Mutation]


@dataclass(frozen=True)
class _SnapshotProbe:
    """Service-internal request: snapshot the lane's warm session.

    Runs FIFO behind every committed mutation of its lane, so the snapshot it
    returns — ``(absolute applied count, snapshot bytes)`` — reflects exactly
    the log the service shipped with it."""

    problem: str = "snapshot"


@dataclass(frozen=True)
class _StatsProbe:
    """Service-internal request: the warm session's ``mutation_stats()``.

    Runs FIFO behind the lane's committed mutations, so the counters it
    returns reflect exactly the invalidation work those mutations cost."""

    problem: str = "mutation_stats"


@dataclass(frozen=True)
class _ServeWork:
    """The picklable unit shipped to a worker for one request.

    ``log`` holds only the committed mutations *past* ``log_base`` — the
    suffix a worker replays after restoring ``snapshot`` (the pickled warm
    session that already reflects the first ``log_base`` mutations)."""

    session_key: int
    specification: Specification
    log: Tuple[Mutation, ...]
    item: Union[ServeItem, _SnapshotProbe, _StatsProbe]
    deadline: Optional[float] = None  # absolute time.monotonic()
    session_capacity: int = 8
    snapshot: Optional[bytes] = None
    log_base: int = 0
    #: solver backend every worker-side session is built (or restored) on;
    #: the service validates persisted snapshots against it before shipping
    backend: str = "reference"


class _WorkerSession:
    """Worker-side warm session plus how much of the log it reflects.

    ``applied`` counts *absolute* committed mutations (snapshot-folded ones
    included), matching the service's ``log_base + offset`` arithmetic."""

    __slots__ = ("session", "applied")

    def __init__(self, session: ReasoningSession, applied: int) -> None:
        self.session = session
        self.applied = applied


def _serve_handler(work: _ServeWork, state: Dict[str, Any]) -> Any:
    """Worker-side execution of one :class:`_ServeWork` item.

    The session store is an LRU keyed by session key; a missing session (cold
    worker, respawn, eviction) is rebuilt by **restoring the shipped
    snapshot** when there is one — zero re-solving — or from the base
    specification otherwise (both copies are private to this process), then
    replaying the shipped log suffix.  ``applied`` counts the committed
    mutations reflected in the session; a mutation executed *as a request*
    bumps it too, anticipating the service's commit, so the next request's
    longer log replays nothing twice (lanes are FIFO, which makes the counter
    and the log advance in lockstep).
    """
    sessions: "OrderedDict[int, _WorkerSession]" = state.setdefault(
        "sessions", OrderedDict()
    )
    entry = sessions.get(work.session_key)
    if entry is not None and entry.applied < work.log_base:
        # warm state older than the shipped watermark (cannot happen under
        # lane stickiness, but a snapshot restore is strictly cheaper than
        # debugging a stale replay): rebuild below
        del sessions[work.session_key]
        entry = None
    if entry is None:
        if work.snapshot is not None:
            entry = _WorkerSession(
                restore_bytes(work.snapshot, backend=work.backend), work.log_base
            )
        else:
            entry = _WorkerSession(
                ReasoningSession(work.specification, backend=work.backend), 0
            )
        sessions[work.session_key] = entry
        while len(sessions) > max(1, work.session_capacity):
            sessions.popitem(last=False)
    else:
        sessions.move_to_end(work.session_key)
    for mutation in work.log[entry.applied - work.log_base :]:
        mutation.apply(entry.session)
        entry.applied += 1
    if isinstance(work.item, _SnapshotProbe):
        return (entry.applied, snapshot_bytes(entry.session))
    if isinstance(work.item, _StatsProbe):
        return dict(entry.session.mutation_stats())
    if isinstance(work.item, Mutation):
        budget = Budget(deadline=work.deadline) if work.deadline is not None else None
        with budget_scope(budget):
            work.item.apply(entry.session)
        entry.applied += 1
        return True
    return answer_request(entry.session, work.item, work.deadline)


class ReasoningService:
    """Async reasoning service with per-session affinity and fault tolerance.

    Parameters
    ----------
    processes:
        Worker process count.
    queue_limit:
        Admission-control bound on *queued* requests per session lane; the
        limit turns overload into immediate :class:`Overloaded` failures
        instead of unbounded queues.  None disables admission control (a
        finite batch, as :class:`~repro.serve.batch.BatchDriver` submits).
    retries:
        Retry budget for transient read failures (worker crashes, injected
        transient errors).  Mutations are never retried.
    default_deadline:
        Deadline (seconds, or a :class:`Budget`) applied to requests that do
        not carry their own.
    session_capacity:
        Router-side cap on concurrently tracked logical sessions.
    worker_session_capacity:
        Per-worker LRU cap on warm sessions.
    fault_plan:
        Chaos-testing plan installed in every worker (see
        :mod:`repro.testing.faults`).
    hang_grace_s:
        How far past its deadline a request may run before its worker is
        killed and respawned.
    compact_log_threshold:
        Once a session's retained mutation-log suffix reaches this length,
        the service folds it into a warm-session snapshot (a
        :class:`_SnapshotProbe` on the same lane) and truncates the log past
        the watermark — bounding both the per-entry memory and the replay
        cost of every later respawn.  ``None`` disables compaction.
    snapshot_dir:
        Opt-in on-disk snapshot cache.  Every compacted snapshot is also
        persisted under its base specification's content fingerprint, and a
        service restarted with the same directory resumes sessions for
        structurally-equal base specifications from the persisted warm state
        — **including the mutations folded into it** (durable-session
        semantics; suffix mutations committed after the last snapshot are
        not durable).
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        *,
        queue_limit: Optional[int] = 16,
        retries: int = 1,
        default_deadline: Optional[DeadlineLike] = None,
        session_capacity: int = 64,
        worker_session_capacity: int = 8,
        fault_plan: Optional[FaultPlan] = None,
        hang_grace_s: float = 2.0,
        backoff_s: float = 0.05,
        compact_log_threshold: Optional[int] = 32,
        snapshot_dir: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> None:
        if compact_log_threshold is not None and compact_log_threshold < 1:
            raise ValueError("compact_log_threshold must be >= 1 (or None)")
        #: resolved solver backend every worker-side session runs on
        self.backend = resolve_backend(backend)
        self._snapshot_store = (
            SnapshotStore(snapshot_dir) if snapshot_dir is not None else None
        )
        self._router = AffinityRouter(
            capacity=session_capacity,
            snapshot_loader=self._load_persisted if self._snapshot_store else None,
            on_evict=self._release_lane,
        )
        self._default_deadline = default_deadline
        self._worker_session_capacity = worker_session_capacity
        self._compact_log_threshold = compact_log_threshold
        # spawned last: a constructor that raised after it would strand the
        # workers with no handle left to close them
        self._supervisor = WorkerSupervisor(
            _serve_handler,
            processes,
            lane_capacity=queue_limit,
            retries=retries,
            backoff_s=backoff_s,
            hang_grace_s=hang_grace_s,
            fault_plan=fault_plan,
        )
        self.compactions = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._supervisor.close()

    @property
    def alive(self) -> bool:
        """Whether the service still accepts work (False once closed)."""
        return self._supervisor.alive

    def _release_lane(self, key: int) -> None:
        """Router eviction hook: an evicted session's key is never reused,
        so its supervisor lane goes too."""
        self._supervisor.drop_lane(key)

    async def __aenter__(self) -> "ReasoningService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    @staticmethod
    def _absolute_deadline(deadline: Optional[DeadlineLike]) -> Optional[float]:
        if deadline is None:
            return None
        if isinstance(deadline, Budget):
            return deadline.deadline  # may be None for pure work budgets
        return time.monotonic() + float(deadline)

    async def submit(
        self,
        specification: Specification,
        item: ServeItem,
        *,
        deadline: Optional[DeadlineLike] = None,
    ) -> Answer:
        """Answer one request or apply one mutation; never raises for
        per-request failures — they come back as structured :class:`Answer`
        failures (or :class:`Degraded` labels)."""
        problem = item.op if isinstance(item, Mutation) else item.problem
        effective = deadline if deadline is not None else self._default_deadline
        abs_deadline = self._absolute_deadline(effective)
        is_mutation = isinstance(item, Mutation)
        entry = (
            self._router.entry_for_mutation(specification)
            if is_mutation
            else self._router.entry_for(specification)
        )
        work = self._work_for(entry, item, abs_deadline)
        if is_mutation:
            entry.pending_mutations += 1
        try:
            try:
                future = self._supervisor.submit(
                    entry.key, work, deadline=abs_deadline, retry=not is_mutation
                )
            except Overloaded as error:
                return Answer(
                    problem=problem, failure=ErrorRecord.from_exception(error)
                )
            result: WorkResult = await asyncio.wrap_future(future)
            if is_mutation and result.ok and not isinstance(result.value, Degraded):
                entry.commit(item)
                if (
                    self._compact_log_threshold is not None
                    and len(entry.log) >= self._compact_log_threshold
                ):
                    await self._compact_entry(entry)
            return self._to_answer(problem, result)
        finally:
            if is_mutation:
                entry.pending_mutations -= 1

    def _work_for(
        self,
        entry: SessionEntry,
        item: Union[ServeItem, _SnapshotProbe, _StatsProbe],
        abs_deadline: Optional[float] = None,
    ) -> _ServeWork:
        return _ServeWork(
            session_key=entry.key,
            specification=entry.specification,
            log=tuple(entry.log),
            item=item,
            deadline=abs_deadline,
            session_capacity=self._worker_session_capacity,
            snapshot=entry.snapshot,
            log_base=entry.log_base,
            backend=self.backend,
        )

    # ------------------------------------------------------------------ #
    # Snapshot compaction and persistence
    # ------------------------------------------------------------------ #
    async def _compact_entry(self, entry: SessionEntry) -> bool:
        """Fold *entry*'s committed log into a warm snapshot.

        The probe runs FIFO on the entry's own lane, so it observes every
        mutation committed before it was enqueued; its ``(applied, bytes)``
        answer truncates the retained log past the watermark (the satellite
        bound: the log can never again grow without limit).  Failures —
        overload, a worker crash mid-probe — leave the entry's log intact;
        compaction is a throughput lever, never a correctness dependency."""
        if entry.compacting:
            return False
        entry.compacting = True
        try:
            try:
                future = self._supervisor.submit(
                    entry.key, self._work_for(entry, _SnapshotProbe()), retry=False
                )
            except Overloaded:
                return False
            result: WorkResult = await asyncio.wrap_future(future)
            if not result.ok or not isinstance(result.value, tuple):
                return False
            applied, payload = result.value
            if not entry.compact(payload, applied):
                return False
            self.compactions += 1
            if self._snapshot_store is not None:
                self._snapshot_store.store(
                    specification_fingerprint(entry.specification),
                    pickle.dumps((entry.log_base, entry.snapshot)),
                )
            return True
        finally:
            entry.compacting = False

    async def checkpoint(self, specification: Specification) -> bool:
        """Snapshot *specification*'s session now, regardless of log length
        (and persist it when a ``snapshot_dir`` is configured) — e.g. before
        a planned shutdown.  True when a fresh snapshot was recorded."""
        return await self._compact_entry(self._router.entry_for(specification))

    async def mutation_stats(self, specification: Specification) -> Dict[str, int]:
        """The warm session's invalidation counters
        (:meth:`~repro.session.ReasoningSession.mutation_stats`), probed on
        the session's own lane so they run FIFO behind its committed
        mutations.  The result is also cached on the session entry, where
        :meth:`stats` surfaces the last probe per session."""
        entry = self._router.entry_for(specification)
        future = self._supervisor.submit(
            entry.key, self._work_for(entry, _StatsProbe()), retry=True
        )
        result: WorkResult = await asyncio.wrap_future(future)
        if not result.ok or not isinstance(result.value, dict):
            record = result.failure
            raise RuntimeError(
                record.render()
                if record is not None
                else "mutation-stats probe returned no counters"
            )
        entry.worker_mutation_stats = result.value
        return result.value

    def _load_persisted(
        self, specification: Specification
    ) -> Optional[Tuple[bytes, int]]:
        """Router miss hook: resume from the on-disk store, if possible.

        The backend check must happen *here*, not in the worker: a shipped
        snapshot carries a ``log_base`` watermark the router's log arithmetic
        depends on, so a worker cannot silently fall back to a cold build —
        a persisted snapshot from a different solver backend is simply not
        resumed (the lane starts cold on this service's backend instead)."""
        assert self._snapshot_store is not None
        payload = self._snapshot_store.load(
            specification_fingerprint(specification)
        )
        if payload is None:
            return None
        try:
            log_base, snapshot = pickle.loads(payload)
        except Exception:
            return None
        if not isinstance(snapshot, bytes) or not isinstance(log_base, int):
            return None
        try:
            if SessionSnapshot.from_bytes(snapshot).backend != self.backend:
                return None
        except Exception:
            return None
        return snapshot, log_base

    @staticmethod
    def _to_answer(problem: str, result: WorkResult) -> Answer:
        if result.ok:
            if isinstance(result.value, Degraded):
                return Answer(
                    problem=problem, degraded=result.value, attempts=result.attempts
                )
            return Answer(problem=problem, value=result.value, attempts=result.attempts)
        record = result.failure
        assert record is not None
        if record.kind in ("DeadlineExceeded", "ResourceBudgetExceeded"):
            # supervisor-level expiry (queued past deadline, or hung worker
            # killed): degrade explicitly rather than fail opaquely
            degraded = Degraded(
                problem=problem,
                reason="deadline",
                attempted=record.message,
            )
            return Answer(
                problem=problem,
                failure=record,
                degraded=degraded,
                attempts=result.attempts,
            )
        return Answer(problem=problem, failure=record, attempts=result.attempts)

    async def stream(
        self,
        requests: Iterable[Tuple[Specification, ServeItem]],
        *,
        deadline: Optional[DeadlineLike] = None,
    ) -> AsyncIterator[Tuple[int, Answer]]:
        """Submit every ``(specification, item)`` pair and yield
        ``(index, answer)`` **in completion order** — one slow or degraded
        session never gates its neighbours' answers."""
        pairs = list(requests)
        tasks = [
            asyncio.ensure_future(self.submit(spec, item, deadline=deadline))
            for spec, item in pairs
        ]
        by_task = {task: index for index, task in enumerate(tasks)}
        pending = set(tasks)
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                yield by_task[task], task.result()

    async def gather(
        self,
        requests: Sequence[Tuple[Specification, ServeItem]],
        *,
        deadline: Optional[DeadlineLike] = None,
    ) -> Sequence[Answer]:
        """All answers, in request order (a convenience over :meth:`stream`)."""
        answers: Dict[int, Answer] = {}
        async for index, answer in self.stream(requests, deadline=deadline):
            answers[index] = answer
        return [answers[index] for index in range(len(answers))]

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Router interning, supervisor health, snapshot counters, and the
        mutation scoping aggregates (under ``router.mutations``) plus each
        session's last-probed worker invalidation counters."""
        stats: Dict[str, Any] = {
            "router": self._router.stats(),
            "supervisor": self._supervisor.stats(),
            "compactions": self.compactions,
        }
        worker_stats = {
            entry.key: entry.worker_mutation_stats
            for entry in self._router.entries()
            if entry.worker_mutation_stats is not None
        }
        if worker_stats:
            stats["worker_mutation_stats"] = worker_stats
        if self._snapshot_store is not None:
            stats["snapshot_store"] = self._snapshot_store.stats()
        return stats
