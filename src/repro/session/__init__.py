"""The warm-state session layer: one facade over all eight decision problems
(CPS, COP, DCIP, CCQA/SP, CPP, ECP, BCP), mutation-aware cache invalidation,
snapshot/restore hand-off between processes, and the request type plus the
answer function every front end (:mod:`repro.serve`) shares."""

from repro.session.requests import PROBLEMS, ProblemRequest, answer_request
from repro.session.session import ReasoningSession
from repro.session.snapshot import (
    SessionSnapshot,
    SnapshotStore,
    restore_bytes,
    snapshot_bytes,
    specification_fingerprint,
)

__all__ = [
    "ReasoningSession",
    "ProblemRequest",
    "PROBLEMS",
    "answer_request",
    "SessionSnapshot",
    "SnapshotStore",
    "restore_bytes",
    "snapshot_bytes",
    "specification_fingerprint",
]
