"""Crash-surviving worker supervision.

:class:`WorkerSupervisor` owns a fixed set of spawned worker processes and a
set of *lanes* — per-key FIFO queues (one per warm session) with a sticky
worker assignment, so every request for one lane is executed by the same
worker in submission order.  It exists because
``multiprocessing.Pool`` does not survive its workers: a worker that dies
mid-task (segfault, OOM kill, ``os._exit``) strands the task forever and the
whole batch with it.  The supervisor instead:

* detects death **as an event**: a worker's result channel reads EOF and its
  ``Process.sentinel`` turns readable the moment it exits, and it
  **respawns** the worker with fresh channels and a bumped *generation*,
  failing only the in-flight item;
* stale results from a previous incarnation are discarded by generation;
* kills and respawns a worker whose in-flight item overran its deadline by
  more than ``hang_grace_s`` (the watchdog path — a hung worker is not dead,
  so it must be killed to free the lane);
* expires *queued* items whose deadline passed before dispatch (an expired
  request must not occupy a worker);
* applies **admission control**: a lane whose queue is at ``lane_capacity``
  rejects new work with :class:`~repro.exceptions.Overloaded` instead of
  queueing unboundedly;
* retries transient failures (``ErrorRecord.retryable`` — worker crashes and
  injected transient errors) with exponential backoff, requeueing **at the
  lane front** so per-lane FIFO order is preserved across retries.

The pump is a reactor, not a poller.  One thread blocks in
:func:`multiprocessing.connection.wait` on every live incarnation's result
channel, every busy worker's sentinel and a wake pipe that :meth:`submit`
and :meth:`close` write to.  Its timeout is the earliest pending timer — a
queued item's deadline, a busy item's deadline plus ``hang_grace_s``, or a
retry's backoff gate — and with no timer pending it waits without one.  A
result therefore reaches its future as soon as its bytes arrive, and an idle
supervisor costs no CPU.  A dead, idle worker whose respawn is deferred is
left out of the wait set: its channel and sentinel stay readable forever and
would turn the reactor into a busy loop.

Every incarnation gets **fresh one-way pipes** (``Pipe(duplex=False)``): an
inbox the supervisor writes and an outbox it reads.  The parent keeps only
those two ends and closes the child's ends once the process has started, so
the pipes carry exactly one writer and one reader each.  That makes crash
isolation exact — a killed worker takes only its own channels down, and a
short read or a broken pipe on them is that incarnation's death, never the
pump's — and it makes **orphan exit** automatic: when the supervisor's
process dies, however abruptly, the worker's inbox reads EOF and the worker
returns.  Reaped incarnations have both channels closed and their
``Process`` released, so respawns leak no descriptors.

Payloads are pickled on the submitting thread (an unpicklable *request* fails
synchronously at submit), and results are pickled *by the worker* with the
failure captured as a :class:`~repro.exceptions.ErrorRecord` — an
unpicklable result value becomes a structured per-request failure instead of
a lost message.  Workers are started with the ``spawn`` context (forking
from a threaded parent can deadlock on inherited lock state).

A lane lives as long as its key is in use.  :meth:`drop_lane` retires it: an
empty, idle lane goes at once, a lane with work goes when its last item
finishes, so long-running services do not accumulate lanes for sessions
their router has evicted.

Every handed-back outcome is a :class:`WorkResult`; the supervisor never
raises through a future, so callers branch on ``result.ok`` uniformly.

The supervisor itself ships payloads opaquely, but the serving layer exploits
that opacity for warm-state hand-off: it embeds pickled
:class:`~repro.session.snapshot.SessionSnapshot` bytes in its work items, so
a **respawned** worker (this module's whole reason to exist) re-warms its
lost sessions by restoring a snapshot and replaying only the log suffix past
its watermark — instead of re-solving from the base specification.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Set, Tuple

from repro.exceptions import (
    DeadlineExceeded,
    ErrorRecord,
    Overloaded,
    ServiceError,
    SpecificationError,
    WorkerCrashed,
)
from repro.testing import faults
from repro.testing.faults import FaultPlan

__all__ = ["WorkerSupervisor", "WorkResult"]

#: a worker-side request handler: (work, per-process state dict) -> value.
#: Must be a module-level function (the spawn context pickles it by name).
Handler = Callable[[Any, Dict[str, Any]], Any]

#: one pump pass's handed-back outcomes, resolved outside the lock
Finished = List[Tuple["_WorkItem", "WorkResult"]]


@dataclass
class WorkResult:
    """Outcome of one supervised work item (never an exception)."""

    value: Any = None
    failure: Optional[ErrorRecord] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.failure is None


def _worker_main(
    worker_id: int,
    generation: int,
    inbox: Connection,
    outbox: Connection,
    handler: Handler,
    fault_plan: Optional[FaultPlan],
) -> None:
    """One worker incarnation: receive, execute, pre-pickle, send.

    The result body is pickled *here* so that an unpicklable value (a poisoned
    result) is caught and converted into a structured failure rather than
    losing the message.  The envelope itself — ``(worker_id, generation,
    request_id, bytes)`` — is always picklable.  EOF on the inbox, or a broken
    outbox, means the supervisor is gone (closed, or its process died): the
    worker returns instead of outliving it.
    """
    if fault_plan is not None:
        faults.install(fault_plan.for_generation(generation))
    state: Dict[str, Any] = {}
    while True:
        try:
            request_id, payload = inbox.recv()
        except (EOFError, OSError):
            return
        try:
            faults.trip("worker.request")
            work = pickle.loads(payload)
            faults.trip("worker.execute")
            value = handler(work, state)
            pill = faults.trip("worker.result")
            if pill is not None:
                value = pill
            body = pickle.dumps((True, value))
        except BaseException as error:  # noqa: BLE001 - converted to a record
            body = pickle.dumps((False, ErrorRecord.from_exception(error)))
        try:
            outbox.send((worker_id, generation, request_id, body))
        except OSError:
            return


class _WorkItem:
    __slots__ = ("id", "lane", "payload", "deadline", "retry", "attempts",
                 "not_before", "future")

    def __init__(
        self,
        item_id: int,
        lane: Hashable,
        payload: bytes,
        deadline: Optional[float],
        retry: bool,
    ) -> None:
        self.id = item_id
        self.lane = lane
        self.payload = payload
        self.deadline = deadline  # absolute time.monotonic(), or None
        self.retry = retry
        self.attempts = 0
        self.not_before = 0.0  # backoff gate for retried items
        self.future: "Future[WorkResult]" = Future()


class _Worker:
    """One worker incarnation: its process, the parent's ends of its two
    pipes (inbox write end, outbox read end) and its in-flight item."""

    __slots__ = ("index", "generation", "process", "inbox", "outbox", "busy", "dead")

    def __init__(
        self,
        index: int,
        generation: int,
        process: "multiprocessing.process.BaseProcess",
        inbox: Connection,
        outbox: Connection,
    ) -> None:
        self.index = index
        self.generation = generation
        self.process = process
        self.inbox = inbox
        self.outbox = outbox
        self.busy: Optional[_WorkItem] = None
        #: reaped: process joined and released, both channels closed
        self.dead = False


class WorkerSupervisor:
    """Supervised worker pool with lane affinity, respawn and retry.

    Parameters
    ----------
    handler:
        Module-level worker function ``(work, state) -> value``; *state* is a
        per-process dict surviving across requests (warm sessions live there).
    processes:
        Worker count (default: up to 4, bounded by the CPU count).
    lane_capacity:
        Maximum *queued* items per lane; further submits raise
        :class:`Overloaded`.  None disables admission control (batch mode).
    retries:
        How many times a retryable failure is re-attempted (with exponential
        backoff, requeued at the lane front to preserve FIFO order).
    backoff_s:
        Base backoff delay; attempt *n* waits ``backoff_s * 2**(n-1)``.
    hang_grace_s:
        How far past its deadline an in-flight item may run before the
        watchdog kills (and respawns) the worker executing it.
    fault_plan:
        Optional :class:`FaultPlan` installed in every worker incarnation
        (filtered by generation) — the chaos harness's entry point.
    """

    def __init__(
        self,
        handler: Handler,
        processes: Optional[int] = None,
        *,
        lane_capacity: Optional[int] = None,
        retries: int = 1,
        backoff_s: float = 0.05,
        hang_grace_s: float = 2.0,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if processes is not None and processes < 1:
            raise SpecificationError("the supervisor needs at least one worker")
        if lane_capacity is not None and lane_capacity < 1:
            raise SpecificationError("lane_capacity must be >= 1 (or None)")
        if retries < 0:
            raise SpecificationError("retries must be >= 0")
        self._handler = handler
        self._lane_capacity = lane_capacity
        self._retries = retries
        self._backoff_s = backoff_s
        self._hang_grace_s = hang_grace_s
        self._fault_plan = fault_plan
        count = processes if processes is not None else max(2, min(4, os.cpu_count() or 2))
        # spawn, not fork: the supervisor runs a pump thread, and forking a
        # threaded parent can inherit held lock state and deadlock the child
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._lanes: Dict[Hashable, Deque[_WorkItem]] = {}
        self._lane_owner: Dict[Hashable, int] = {}
        self._lane_order: Dict[int, Deque[Hashable]] = {
            index: deque() for index in range(count)
        }
        #: dropped lanes that still hold or run work (pruned once drained)
        self._retiring: Set[Hashable] = set()
        self._next_id = 0
        self._closed = False
        self.respawns = 0
        # the wake pipe: submit and close write a byte so the blocked pump
        # re-reads its wait set and timers
        self._wake_fd, self._wake_write_fd = os.pipe()
        os.set_blocking(self._wake_write_fd, False)
        self._workers: List[_Worker] = [self._spawn(index, 0) for index in range(count)]
        self._pump_thread = threading.Thread(
            target=self._pump, name="repro-supervisor", daemon=True
        )
        self._pump_thread.start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self, index: int, generation: int) -> _Worker:
        # fresh pipes per incarnation — a killed worker takes only its own
        # channels down, so nothing a crash corrupts is ever reused
        inbox_end, inbox = self._ctx.Pipe(duplex=False)
        outbox, outbox_end = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, generation, inbox_end, outbox_end,
                  self._handler, self._fault_plan),
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            inbox.close()
            outbox.close()
            raise
        finally:
            # the child holds its own copies now; the parent keeping these
            # would hide the worker's death (no EOF on the outbox) and its
            # own (no EOF on the worker's inbox)
            inbox_end.close()
            outbox_end.close()
        return _Worker(index, generation, process, inbox, outbox)

    @staticmethod
    def _retire(worker: _Worker) -> None:
        """Reap *worker*'s incarnation for good: kill it if it still runs,
        join and release its process, and close both of its channels.
        Idempotent."""
        if worker.dead:
            return
        worker.dead = True
        worker.inbox.close()
        worker.outbox.close()
        process = worker.process
        process.kill()
        process.join(timeout=5.0)
        if process.exitcode is not None:
            process.close()

    def _wake(self) -> None:
        """Interrupt the pump's wait (called with the lock held, so never
        after :meth:`close` has closed the pipe)."""
        try:
            os.write(self._wake_write_fd, b"\0")
        except BlockingIOError:
            pass  # the pipe is full of unread wakes: the pump is waking anyway

    @property
    def alive(self) -> bool:
        """Whether the supervisor still accepts work."""
        return not self._closed and self._pump_thread.is_alive()

    def close(self) -> None:
        """Stop accepting work, fail anything still pending and reap the
        workers.  Safe to call twice."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            orphans: List[_WorkItem] = []
            for lane_queue in self._lanes.values():
                orphans.extend(lane_queue)
                lane_queue.clear()
            for worker in self._workers:
                if worker.busy is not None:
                    orphans.append(worker.busy)
                    worker.busy = None
            self._wake()
        self._pump_thread.join(timeout=5.0)
        with self._lock:
            for worker in self._workers:
                self._retire(worker)
            os.close(self._wake_fd)
            os.close(self._wake_write_fd)
        record = ErrorRecord.from_exception(ServiceError("supervisor closed"))
        for item in orphans:
            self._finish(item, WorkResult(failure=record, attempts=item.attempts))

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        lane: Hashable,
        work: Any,
        *,
        deadline: Optional[float] = None,
        retry: bool = True,
    ) -> "Future[WorkResult]":
        """Enqueue *work* on *lane*; the future resolves to a
        :class:`WorkResult` (never raises through the future).

        *deadline* is an absolute :func:`time.monotonic` timestamp: an item
        still queued past it fails with :class:`DeadlineExceeded`, and an item
        executing ``hang_grace_s`` past it gets its worker killed.  *retry*
        gates the retransmission of retryable failures — non-idempotent work
        (mutations) should pass ``retry=False`` so an at-least-once re-run can
        never double-apply.  Work that cannot be pickled fails alone: its
        future resolves at once to a non-retryable failure.
        """
        try:
            payload = pickle.dumps(work)
        except Exception as error:  # noqa: BLE001 - reported per request
            failed: "Future[WorkResult]" = Future()
            failed.set_result(WorkResult(failure=ErrorRecord.from_exception(error)))
            return failed
        with self._lock:
            if self._closed:
                raise ServiceError("the supervisor is closed")
            lane_queue = self._lanes.get(lane)
            if lane_queue is None:
                lane_queue = deque()
                self._lanes[lane] = lane_queue
                owner = self._least_loaded_worker()
                self._lane_owner[lane] = owner
                self._lane_order[owner].append(lane)
            if (
                self._lane_capacity is not None
                and len(lane_queue) >= self._lane_capacity
            ):
                raise Overloaded(
                    f"lane {lane!r} already holds {len(lane_queue)} queued "
                    f"requests (capacity {self._lane_capacity})"
                )
            item = _WorkItem(self._next_id, lane, payload, deadline, retry)
            self._next_id += 1
            lane_queue.append(item)
            self._dispatch_locked()
            # the pump re-arms its timers (this item's deadline) and respawns
            # a dead owner that now has work
            self._wake()
        return item.future

    def drop_lane(self, lane: Hashable) -> None:
        """Forget *lane* once it is drained: at once when it is empty and
        idle, otherwise when its last item finishes.  A later submit on the
        same key opens a fresh lane."""
        with self._lock:
            if lane in self._lanes:
                self._retiring.add(lane)
                self._prune_locked(lane)

    def _prune_locked(self, lane: Hashable) -> None:
        if lane not in self._retiring or self._lanes[lane]:
            return
        owner = self._lane_owner[lane]
        busy = self._workers[owner].busy
        if busy is not None and busy.lane == lane:
            return
        self._retiring.discard(lane)
        del self._lanes[lane]
        del self._lane_owner[lane]
        self._lane_order[owner].remove(lane)

    def _least_loaded_worker(self) -> int:
        def load(index: int) -> Tuple[int, int]:
            queued = sum(len(self._lanes[lane]) for lane in self._lane_order[index])
            busy = 1 if self._workers and self._workers[index].busy is not None else 0
            return (queued + busy, index)

        if not self._workers:  # during __init__, before workers exist
            return self._next_id % len(self._lane_order)
        return min(range(len(self._workers)), key=load)

    # ------------------------------------------------------------------ #
    # The pump: a reactor over results, deaths, timers and wakes
    # ------------------------------------------------------------------ #
    def _pump(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                owners = self._wait_set_locked()
                timeout = self._next_timer_locked()
            try:
                ready = wait(list(owners), timeout)
            except (OSError, ValueError):
                if self._closed:  # close() outlived its join grace
                    return
                raise
            finished: Finished = []
            with self._lock:
                if self._closed:
                    return
                for channel in ready:
                    worker = owners[channel]
                    if worker is None:
                        os.read(self._wake_fd, 4096)
                        continue
                    if not worker.dead:
                        self._collect_locked(worker, finished)
                    if isinstance(channel, int):  # the sentinel: it exited
                        self._retire(worker)
                self._reap_locked(finished)
                for item, _result in finished:
                    self._prune_locked(item.lane)
            for item, result in finished:
                self._finish(item, result)

    def _wait_set_locked(self) -> Dict[Any, Optional[_Worker]]:
        """What the pump waits on, mapped to its worker (None: the wake
        pipe).  A reaped incarnation is left out: its closed channels cannot
        be waited on, and a dead process's sentinel is readable forever."""
        owners: Dict[Any, Optional[_Worker]] = {self._wake_fd: None}
        for worker in self._workers:
            if worker.dead:
                continue
            owners[worker.outbox] = worker
            if worker.busy is not None:
                owners[worker.process.sentinel] = worker
        return owners

    def _next_timer_locked(self) -> Optional[float]:
        """Seconds until the earliest pending timer, or None for none: a
        queued item's deadline or retry gate, a busy item's hang watchdog."""
        now = time.monotonic()
        timers: List[float] = []
        for lane_queue in self._lanes.values():
            for item in lane_queue:
                if item.deadline is not None:
                    timers.append(item.deadline)
                if item.not_before > now:
                    timers.append(item.not_before)
        for worker in self._workers:
            item = worker.busy
            if item is not None and item.deadline is not None:
                timers.append(item.deadline + self._hang_grace_s)
        if not timers:
            return None
        return max(0.0, min(timers) - now)

    def _collect_locked(self, worker: _Worker, finished: Finished) -> None:
        """Accept every result already readable on *worker*'s outbox.  EOF
        or a short read (a worker killed mid-send) is the incarnation's
        death: it is reaped here and its in-flight item handled by
        :meth:`_reap_locked`."""
        try:
            while worker.outbox.poll():
                self._accept_locked(worker.outbox.recv(), finished)
        except (EOFError, OSError):
            self._retire(worker)

    def _accept_locked(
        self, envelope: Tuple[int, int, int, bytes], finished: Finished
    ) -> None:
        worker_id, generation, request_id, body = envelope
        worker = self._workers[worker_id]
        item = worker.busy
        if worker.generation != generation or item is None or item.id != request_id:
            # a stale message from a superseded incarnation: drop it
            return
        worker.busy = None
        try:
            ok, value = pickle.loads(body)
        except Exception as error:  # a result this process cannot rebuild
            ok, value = False, ErrorRecord.from_exception(error)
        if ok:
            finished.append((item, WorkResult(value=value, attempts=item.attempts)))
        elif not self._retry_locked(item, value):
            finished.append((item, WorkResult(failure=value, attempts=item.attempts)))

    def _retry_locked(self, item: _WorkItem, record: ErrorRecord) -> bool:
        """Requeue a retryably-failed item at its lane's front (backoff-gated)
        unless its retry budget or deadline is spent.  Returns True when the
        item was requeued."""
        if not (item.retry and record.retryable and item.attempts <= self._retries):
            return False
        now = time.monotonic()
        if item.deadline is not None and now >= item.deadline:
            return False
        item.not_before = now + self._backoff_s * (2 ** (item.attempts - 1))
        self._lanes[item.lane].appendleft(item)
        return True

    def _reap_locked(self, finished: Finished) -> None:
        """Handle dead and hung workers and expired queued items, then
        dispatch."""
        now = time.monotonic()
        for slot, worker in enumerate(self._workers):
            item = worker.busy
            if worker.dead:
                if item is None and not self._backlog_locked(worker.index):
                    # dead but idle with nothing queued: defer the respawn
                    # until work arrives, so a worker dying on startup
                    # cannot drive a hot respawn loop
                    continue
                worker.busy = None
                self._respawn_locked(slot)
                if item is not None:
                    record = ErrorRecord.from_exception(
                        WorkerCrashed(
                            # reprolint: allow(R3) — human-readable crash message, not a lookup key
                            f"worker {slot} (generation {worker.generation}) "
                            f"died executing request {item.id}"
                        )
                    )
                    if not self._retry_locked(item, record):
                        finished.append(
                            (item, WorkResult(failure=record, attempts=item.attempts))
                        )
            elif (
                item is not None
                and item.deadline is not None
                and now > item.deadline + self._hang_grace_s
            ):
                # hung past the grace window: the worker must die so the
                # lane (and its sibling lanes) can make progress again
                worker.busy = None
                self._respawn_locked(slot)
                record = ErrorRecord.from_exception(
                    DeadlineExceeded(
                        # reprolint: allow(R3) — human-readable timeout message, not a lookup key
                        f"request {item.id} overran its deadline by more than "
                        f"{self._hang_grace_s:.1f}s; its worker was killed"
                    )
                )
                finished.append((item, WorkResult(failure=record, attempts=item.attempts)))
        for lane_queue in self._lanes.values():
            for item in list(lane_queue):
                if item.deadline is not None and now >= item.deadline:
                    lane_queue.remove(item)
                    record = ErrorRecord.from_exception(
                        DeadlineExceeded(
                            # reprolint: allow(R3) — human-readable expiry message, not a lookup key
                            f"request {item.id} expired after waiting "
                            f"{self._queue_wait(item, now):.3f}s in its lane"
                        )
                    )
                    finished.append(
                        (item, WorkResult(failure=record, attempts=item.attempts))
                    )
        self._dispatch_locked()

    @staticmethod
    def _queue_wait(item: _WorkItem, now: float) -> float:
        if item.deadline is None:
            return 0.0
        return max(0.0, now - item.deadline)

    def _respawn_locked(self, slot: int) -> None:
        old = self._workers[slot]
        self._retire(old)
        self._workers[slot] = self._spawn(old.index, old.generation + 1)
        self.respawns += 1

    def _backlog_locked(self, index: int) -> int:
        return sum(len(self._lanes[lane]) for lane in self._lane_order[index])

    def _dispatch_locked(self) -> None:
        now = time.monotonic()
        for worker in self._workers:
            if worker.busy is not None or worker.dead:
                # a dead idle worker is respawned by the pump once it has work
                continue
            order = self._lane_order[worker.index]
            for _ in range(len(order)):
                lane = order[0]
                order.rotate(-1)
                lane_queue = self._lanes[lane]
                if not lane_queue or lane_queue[0].not_before > now:
                    continue
                item = lane_queue.popleft()
                item.attempts += 1
                worker.busy = item
                try:
                    worker.inbox.send((item.id, item.payload))
                except OSError:
                    # the worker died since the pump last looked: reap it
                    # now, and let the pump fail or retry the item as a crash
                    self._retire(worker)
                    self._wake()
                break

    @staticmethod
    def _finish(item: _WorkItem, result: WorkResult) -> None:
        if not item.future.done():
            item.future.set_result(result)

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Supervision counters (respawns, load) for diagnostics."""
        with self._lock:
            queued = sum(len(lane_queue) for lane_queue in self._lanes.values())
            busy = sum(1 for worker in self._workers if worker.busy is not None)
            return {
                "workers": len(self._workers),
                "respawns": self.respawns,
                "lanes": len(self._lanes),
                "queued": queued,
                "in_flight": busy,
            }
