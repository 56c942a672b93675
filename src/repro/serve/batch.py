"""Synchronous batch evaluation of ``(specification, ProblemRequest)`` streams.

:class:`BatchDriver` returns one :class:`~repro.serve.protocol.Answer` per
request, in request order.  Both modes answer through
:func:`~repro.session.requests.answer_request`, so they return the same
values and label a budget expiry with the same ``Degraded`` reason:

* ``serial=True`` is the deterministic in-process reference the differential
  tests pin against.  An :class:`~repro.serve.router.AffinityRouter` interns
  the specifications, so structurally equal ones share one warm
  :class:`~repro.session.ReasoningSession`, kept across ``run()`` calls.
* the default parallel mode is ``asyncio.run(service.gather(requests,
  deadline=...))`` on one :class:`~repro.serve.service.ReasoningService`,
  kept across ``run()`` calls and released by :meth:`BatchDriver.close`.
  Session affinity, fault isolation and deadlines are the service's.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.specification import Specification
from repro.exceptions import ErrorRecord
from repro.serve.protocol import Answer
from repro.serve.router import AffinityRouter
from repro.serve.service import ReasoningService
from repro.serve.supervisor import WorkResult
from repro.session.requests import ProblemRequest, answer_request
from repro.session.session import ReasoningSession
from repro.solvers.backend import resolve_backend
from repro.testing.faults import FaultPlan

__all__ = ["BatchDriver"]


class BatchDriver:
    """Evaluate a stream of ``(specification, request)`` pairs.

    Parameters
    ----------
    processes:
        Worker-process count for the parallel mode (default: the
        supervisor's, up to 4 bounded by the CPU count).  Ignored when
        *serial* is set.
    serial:
        Run everything in-process, in deterministic order — bit-identical
        results across runs, no pickling round-trips.
    deadline:
        Optional bound (seconds from the ``run()`` call) on every request; a
        request that runs out of it comes back ``Degraded``.  In the
        parallel mode a worker that hangs past it is killed.
    fault_plan:
        Optional :class:`~repro.testing.faults.FaultPlan` installed in every
        worker — the chaos harness's entry point for batch tests.
    backend:
        Solver backend every session is built on.

    The parallel mode uses the service's retry policy: reads are retried
    once, so a request fails with a retryable ``WorkerCrashed`` record only
    when its retry dies too.  No other request's answer is affected.
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        serial: bool = False,
        deadline: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.processes = processes
        self.serial = serial
        self.deadline = deadline
        self.fault_plan = fault_plan
        self.backend = resolve_backend(backend)
        # serial mode: one warm session per router entry, dropped with it
        self._sessions: Dict[int, ReasoningSession] = {}
        self._router = AffinityRouter(on_evict=self._drop_session)
        self._service: Optional[ReasoningService] = None

    def _drop_session(self, key: int) -> None:
        self._sessions.pop(key, None)

    def _service_for(self) -> ReasoningService:
        if self._service is not None and not self._service.alive:
            self.close()  # closed from outside: replace it
        if self._service is None:
            self._service = ReasoningService(
                self.processes,
                queue_limit=None,
                fault_plan=self.fault_plan,
                backend=self.backend,
            )
        return self._service

    def close(self) -> None:
        """Release the worker processes (parallel mode); the driver stays
        usable — a later run() starts a fresh service."""
        if self._service is not None:
            self._service.close()
            self._service = None

    def __enter__(self) -> "BatchDriver":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def run(
        self, requests: Sequence[Tuple[Specification, ProblemRequest]]
    ) -> List[Answer]:
        """Answer every request; answers are returned in request order."""
        if not self.serial:
            service = self._service_for()
            return list(asyncio.run(service.gather(requests, deadline=self.deadline)))
        deadline = None if self.deadline is None else time.monotonic() + self.deadline
        return [self._answer(spec, request, deadline) for spec, request in requests]

    def _answer(
        self,
        specification: Specification,
        request: ProblemRequest,
        deadline: Optional[float],
    ) -> Answer:
        entry = self._router.entry_for(specification)
        session = self._sessions.get(entry.key)
        if session is None:
            session = ReasoningSession(entry.specification, backend=self.backend)
            self._sessions[entry.key] = session
        try:
            result = WorkResult(value=answer_request(session, request, deadline))
        except Exception as error:  # noqa: BLE001 - reported per request
            result = WorkResult(failure=ErrorRecord.from_exception(error))
        return ReasoningService._to_answer(request.problem, result)
