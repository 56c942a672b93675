"""Fault-tolerant serving of warm reasoning sessions.

Public surface:

* :class:`~repro.serve.service.ReasoningService` — the asyncio service:
  submit ``(specification, ProblemRequest | Mutation)`` pairs, await
  structured :class:`~repro.serve.protocol.Answer` objects.
* :class:`~repro.serve.batch.BatchDriver` — a synchronous client of the
  service for finite request streams, with an in-process serial mode that
  is the deterministic reference.
* :class:`~repro.serve.protocol.Mutation` / :class:`Degraded` /
  :class:`Answer` — the wire types.
* :class:`~repro.serve.supervisor.WorkerSupervisor` — the generic supervised
  worker pool behind the service.
* :class:`~repro.serve.router.AffinityRouter` — structural interning of
  specifications to session lanes.
"""

from repro.serve.protocol import Answer, Degraded, Mutation
from repro.serve.router import AffinityRouter, SessionEntry
from repro.serve.service import ReasoningService, ServeItem
from repro.serve.batch import BatchDriver
from repro.serve.supervisor import WorkerSupervisor, WorkResult

__all__ = [
    "BatchDriver",
    "Answer",
    "Degraded",
    "Mutation",
    "AffinityRouter",
    "SessionEntry",
    "ReasoningService",
    "ServeItem",
    "WorkerSupervisor",
    "WorkResult",
]
