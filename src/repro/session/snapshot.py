"""Warm-state snapshots of a :class:`~repro.session.ReasoningSession`.

A :class:`SessionSnapshot` captures everything a warm session has computed —
the chase fixpoint, the completion encoder and extension search space with
their incremental CDCL solvers (learnt clauses, VSIDS activities, saved
phases), the memoised consistent-selection harvests, compiled query engines
and answer caches — as one picklable value.
A snapshot can be written to disk, shipped to another process, and restored
into a session that answers with **zero re-solving**: every cache hit the
donor session had earned, the restored session keeps.

What is *captured* vs *rebuilt*: the solvers' watch lists and the evaluation
plans' id-keyed positivity memos are process-local accelerator structures;
``Solver.__setstate__`` / ``EvaluationPlan.__setstate__`` rebuild them from
the captured clause databases and formulas on unpickling.  Everything else —
clauses, learnt clauses, activities, phases, harvests, answers — crosses the
pickle boundary verbatim.

Object identity *within* one snapshot is preserved by pickling the snapshot
as a single value: the restored search space's ``specification`` is the
restored session's ``specification``, and so on.  That is why
:func:`snapshot_bytes` / :func:`restore_bytes` exist — they pickle the whole
snapshot exactly once, which both detaches it from the donor session and
keeps the internal aliasing intact.

:class:`SnapshotStore` is the opt-in on-disk cache: snapshots keyed by a
content fingerprint of their base specification (:func:`specification_
fingerprint` — stable across processes and interpreter restarts, unlike
``pickle.dumps`` which varies with hash randomisation), written atomically so
a crashed writer never leaves a torn snapshot behind.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.completion import CurrentDatabaseCache
from repro.core.specification import Specification
from repro.exceptions import SpecificationError
from repro.query.engine import QueryEngine
from repro.reasoning.chase import ChaseResult
from repro.solvers.order_encoding import CompletionEncoder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session imports us)
    from repro.preservation.sat_extensions import ExtensionSearchSpace
    from repro.query.ast import Query, SPQuery
    from repro.session.session import ReasoningSession

    AnyQuery = Union[Query, SPQuery]
else:
    AnyQuery = Any

__all__ = [
    "SNAPSHOT_FORMAT",
    "SessionSnapshot",
    "SnapshotStore",
    "restore_bytes",
    "snapshot_bytes",
    "specification_fingerprint",
]


#: The pickled layout of a snapshot and of everything it carries (encoder,
#: search space).  Bump it whenever that layout changes: a payload recorded
#: under another number is refused, and the serving layer treats the refusal
#: as a cache miss and rebuilds cold.
SNAPSHOT_FORMAT = 5


@dataclass(frozen=True)
class SessionSnapshot:
    """One warm session, frozen: the base state plus every earned cache.

    Produced by :meth:`ReasoningSession.snapshot`, consumed by
    :meth:`ReasoningSession.restore`.  ``answers`` carries the memoised
    answer sets keyed *structurally* by the query object (queries hash and
    compare by value, never by ``id()``), so the entries survive pickling
    and a restored session's freshly-built but value-equal queries hit the
    warm memo directly.
    """

    specification: Specification
    match_entities_by_eid: bool
    mutations: int
    chase: Optional[ChaseResult]
    encoder: Optional[CompletionEncoder]
    space: Optional["ExtensionSearchSpace"]
    database_cache: CurrentDatabaseCache
    engines: Tuple[QueryEngine, ...]
    answers: Tuple[Tuple[AnyQuery, str, Optional[FrozenSet[Tuple[Any, ...]]]], ...]
    verdicts: Dict[Tuple[str, ...], bool]
    #: solver backend the warm state was earned on.  Warm solver state is
    #: engine-specific, so restore refuses a different backend request.
    backend: str
    #: :data:`SNAPSHOT_FORMAT` of the writer
    format_version: int

    def to_bytes(self) -> bytes:
        """Serialise (the wire/disk format of the serving layer)."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "SessionSnapshot":
        """Deserialise; a payload of another format is refused."""
        snapshot = pickle.loads(payload)
        if not isinstance(snapshot, cls):
            raise SpecificationError(
                f"payload does not hold a SessionSnapshot (got {type(snapshot).__name__})"
            )
        # read the instance's own field: a pickle that predates the field
        # must not pass by way of a class-level default
        written = vars(snapshot).get("format_version")
        if written != SNAPSHOT_FORMAT:
            raise SpecificationError(
                f"snapshot format {written!r} is not the supported format {SNAPSHOT_FORMAT}"
            )
        return snapshot

    def detach(self) -> "SessionSnapshot":
        """A deep private copy sharing nothing with the donor session (one
        pickle round-trip, so intra-snapshot aliasing is preserved)."""
        return SessionSnapshot.from_bytes(self.to_bytes())


def snapshot_bytes(session: "ReasoningSession") -> bytes:
    """``session`` snapshotted and serialised in a single pickle pass.

    Equivalent to ``session.snapshot().to_bytes()`` but avoids the double
    pickle (``snapshot()`` detaches via a round-trip of its own).
    """
    return session.snapshot(detach=False).to_bytes()


def restore_bytes(payload: bytes, backend: Optional[str] = None) -> "ReasoningSession":
    """A warm session restored from :func:`snapshot_bytes` output.

    *backend*, when given, asserts which solver backend the caller expects;
    a mismatch with the snapshot's recorded backend is refused (see
    :meth:`ReasoningSession.restore`).
    """
    from repro.session.session import ReasoningSession

    return ReasoningSession.restore(
        SessionSnapshot.from_bytes(payload), copy=False, backend=backend
    )


# --------------------------------------------------------------------------- #
# Specification fingerprints (stable across processes)
# --------------------------------------------------------------------------- #
def _canonical(value: Any, active: FrozenSet[int]) -> Any:
    """A deterministic primitive rendering of *value*.

    Dicts are rendered in sorted key order and sets as sorted element lists
    (plain pickling would leak the process's hash-randomised iteration
    order), and arbitrary objects as their class name plus sorted fields —
    so structurally equal specifications built in different interpreter runs
    fingerprint identically.
    """
    if id(value) in active:
        raise SpecificationError("cannot fingerprint a cyclic specification graph")
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    active = active | {id(value)}
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canonical(item, active) for item in value))
    if isinstance(value, (set, frozenset)):
        rendered = [_canonical(item, active) for item in value]
        return ("set", tuple(sorted(rendered, key=repr)))
    if isinstance(value, Mapping):
        rendered_items = [
            (_canonical(key, active), _canonical(item, active))
            for key, item in value.items()
        ]
        return ("map", tuple(sorted(rendered_items, key=repr)))
    fields: Dict[str, Any] = {}
    if hasattr(value, "__dict__"):
        fields.update(vars(value))
    for klass in type(value).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(value, slot):
                fields[slot] = getattr(value, slot)
    if not fields:
        return ("atom", type(value).__name__, repr(value))
    return (
        "obj",
        type(value).__name__,
        tuple(
            (name, _canonical(item, active)) for name, item in sorted(fields.items())
        ),
    )


def _canon(value: Any) -> Any:
    return _canonical(value, frozenset())


def specification_fingerprint(specification: Specification) -> str:
    """A content hash of *specification*, equal exactly for structural twins.

    The key of the on-disk snapshot cache: it must agree between the process
    that stored a snapshot and a later restarted process probing for one,
    which rules out ``pickle``/``hash()``-derived keys (both vary under hash
    randomisation).  The walk deliberately mirrors the structural ``__eq__``
    contracts (``Specification.__eq__``, ``TemporalInstance.structurally_
    equal``, ``DenialConstraint.__eq__``, ``CopyFunction.__eq__``) field by
    field instead of rendering raw objects: derived caches (a tuple's stored
    hash, an instance's lazy row cache) and presentation-only fields (a
    constraint's auto-generated ``id``-embedding name) must not — and here
    cannot — perturb the key.
    """
    instances = []
    for name in sorted(specification.instances):
        instance = specification.instances[name]
        schema = instance.schema
        orders = []
        for attribute, order in sorted(instance.orders().items()):
            pairs = [(_canon(a), _canon(b)) for a, b in order.pairs()]
            orders.append((attribute, tuple(sorted(pairs, key=repr))))
        constraints = tuple(
            (
                "denial",
                _canon(constraint.schema),
                constraint.variables,
                _canon(constraint.body),
                _canon(constraint.head),
            )
            for constraint in specification.constraints.get(name, [])
        )
        instances.append(
            (
                "instance",
                name,
                _canon(schema),
                tuple(
                    (_canon(tup.tid), _canon(tup.value_tuple()))
                    for tup in instance.tuples()
                ),
                tuple(orders),
                constraints,
            )
        )
    copy_functions = tuple(
        (
            "copyfn",
            copy_function.name,
            _canon(copy_function.signature),
            copy_function.target,
            copy_function.source,
            tuple(
                sorted(
                    (
                        (_canon(target_tid), _canon(source_tid))
                        for target_tid, source_tid in copy_function.mapping.items()
                    ),
                    key=repr,
                )
            ),
        )
        for copy_function in specification.copy_functions
    )
    rendering = repr(("spec", tuple(instances), copy_functions))
    return hashlib.sha256(rendering.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# On-disk snapshot cache
# --------------------------------------------------------------------------- #
class SnapshotStore:
    """A directory of snapshots keyed by base-specification fingerprint.

    Writes are atomic (temp file + rename), so service crashes mid-store
    never leave a torn snapshot for the next boot to trip over.  A load that
    fails to unpickle is treated as a miss and the corrupt file removed —
    the store is a cache, never an authority.
    """

    _SUFFIX = ".snapshot.pkl"

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.stores = 0
        self.hits = 0
        self.misses = 0

    def path_for(self, fingerprint: str) -> str:
        return os.path.join(self.directory, fingerprint + self._SUFFIX)

    def store(self, fingerprint: str, payload: bytes) -> str:
        """Persist *payload* under *fingerprint*; the final path."""
        path = self.path_for(fingerprint)
        handle, temp_path = tempfile.mkstemp(
            dir=self.directory, suffix=self._SUFFIX + ".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(payload)
            os.replace(temp_path, path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        self.stores += 1
        return path

    def load(self, fingerprint: str) -> Optional[bytes]:
        """The stored payload for *fingerprint*, or None."""
        path = self.path_for(fingerprint)
        try:
            with open(path, "rb") as stream:
                payload = stream.read()
        except OSError:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def load_session(
        self, specification: Specification, backend: Optional[str] = None
    ) -> Optional["ReasoningSession"]:
        """Restore the cached warm session for *specification*, if one is
        stored and still unpickles; a corrupt entry is dropped as a miss.

        With *backend*, an entry recorded on a different solver backend is a
        plain miss — the file is left in place (it is a valid snapshot, just
        not for this engine), and the caller builds cold.
        """
        fingerprint = specification_fingerprint(specification)
        payload = self.load(fingerprint)
        if payload is None:
            return None
        if backend is not None:
            try:
                snapshot = SessionSnapshot.from_bytes(payload)
            except Exception:
                snapshot = None
            if snapshot is not None and snapshot.backend != backend:
                self.hits -= 1
                self.misses += 1
                return None
        try:
            return restore_bytes(payload, backend=backend)
        except Exception:
            self.hits -= 1
            self.misses += 1
            try:
                os.unlink(self.path_for(fingerprint))
            except OSError:
                pass
            return None

    def store_session(self, session: "ReasoningSession") -> str:
        """Snapshot *session* and persist it under its base fingerprint."""
        fingerprint = specification_fingerprint(session.specification)
        return self.store(fingerprint, snapshot_bytes(session))

    def entries(self) -> List[str]:
        """Fingerprints currently stored."""
        return sorted(
            name[: -len(self._SUFFIX)]
            for name in os.listdir(self.directory)
            if name.endswith(self._SUFFIX)
        )

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self.entries()),
            "stores": self.stores,
            "hits": self.hits,
            "misses": self.misses,
        }
