"""Wire types of the reasoning service.

Everything here crosses the worker process boundary, so every field is a
plain picklable value — specifications, queries, tuples of primitives,
:class:`~repro.exceptions.ErrorRecord` — never a live session, solver or
lock.

A client submits either a :class:`~repro.session.requests.ProblemRequest` (a
read: one of the eight decision problems) or a :class:`Mutation` (a write:
one incremental ``add_*`` step).  Both come back as an :class:`Answer`, whose
three mutually-exclusive-ish shapes are:

* ``ok`` — ``value`` holds the verdict/answer set;
* ``degraded`` — the deadline or budget ran out;
  :class:`~repro.session.requests.Degraded` (re-exported here) names the
  problem, the exhausted resource and the work spent, and ``value`` is
  **never** populated (a degraded answer is explicitly labeled, not silently
  wrong — the chaos property suite pins this);
* ``failure`` — a structured :class:`ErrorRecord` (crash, poison, rejection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional, Tuple

from repro.exceptions import ErrorRecord, SpecificationError
from repro.session.requests import Degraded

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.footprint import MutationFootprint

__all__ = ["Mutation", "Degraded", "Answer", "MUTATIONS"]

#: the incremental-mutation vocabulary — exactly the session's ``add_*`` API
MUTATIONS = (
    "add_order",
    "add_denial",
    "add_tuple",
    "add_tuples",
    "add_copy_function",
    "add_copy_import",
)


@dataclass(frozen=True)
class Mutation:
    """One incremental specification mutation, by session method name.

    Mutations are applied by the worker owning the spec's warm session and —
    once acknowledged — recorded in the service's per-session mutation log,
    which is what a respawned worker replays to re-warm the session after a
    crash.  They are therefore **not retried** on worker death (at-least-once
    re-execution could double-apply a non-idempotent write); the caller gets
    a structured :class:`~repro.exceptions.WorkerCrashed` failure and decides.
    """

    op: str
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.op not in MUTATIONS:
            raise SpecificationError(
                f"unknown mutation {self.op!r}; expected one of {MUTATIONS}"
            )

    def apply(self, session: Any) -> None:
        """Apply to a :class:`~repro.session.ReasoningSession`."""
        getattr(session, self.op)(*self.args, **dict(self.kwargs))

    def _argument(self, index: int, name: str) -> Any:
        if index < len(self.args):
            return self.args[index]
        return self.kwargs[name]

    def footprint(self, specification: Any) -> "MutationFootprint":
        """The mutation's invalidation scope against *specification*.

        Mirrors the per-mutator footprints a warm
        :class:`~repro.session.ReasoningSession` records (see
        :mod:`repro.session.footprint`), computed service-side so the
        committed mutation log carries scoping metadata without a round-trip
        to the worker owning the session.  *specification* is typically the
        service's **base** specification, so tuples referenced only by
        earlier log entries may be unresolvable; anything that cannot be
        scoped precisely degrades to ``global_invalidation`` — the log's
        metadata errs towards over-invalidation, never under.
        """
        from repro.session.footprint import MutationFootprint, component_of

        try:
            if self.op == "add_copy_function":
                return MutationFootprint(op=self.op, global_invalidation=True)
            if self.op == "add_copy_import":
                candidate = self._argument(0, "candidate")
                target = next(
                    cf.target
                    for cf in specification.copy_functions
                    if cf.name == candidate.copy_function
                )
                component = component_of(specification, target)
                return MutationFootprint(
                    op=self.op,
                    relations=component,
                    blocks=frozenset(
                        (relation, candidate.target_eid) for relation in component
                    ),
                    attributes=frozenset(
                        specification.instance(target).schema.attributes
                    ),
                )
            instance_name = self._argument(0, "instance_name")
            instance = specification.instance(instance_name)
            component = component_of(specification, instance_name)
            eids = set()
            attributes: set = set()
            if self.op == "add_order":
                attributes.add(self._argument(1, "attribute"))
                for position, name in ((2, "lower"), (3, "upper")):
                    tid = self._argument(position, name)
                    if instance.has_tid(tid):
                        eids.add(instance.tuple_by_tid(tid).eid)
            elif self.op == "add_tuple":
                eids.add(self._tuple_eid(instance, self._argument(1, "tid")))
                attributes.update(instance.schema.attributes)
            elif self.op == "add_tuples":
                for item in self._argument(1, "tuples"):
                    eids.add(self._tuple_eid(instance, item))
                attributes.update(instance.schema.attributes)
            # add_denial scopes to the component alone: the constraint reads
            # whole instances, not specific blocks
            return MutationFootprint(
                op=self.op,
                relations=component,
                blocks=frozenset(
                    (relation, eid) for relation in component for eid in eids
                ),
                attributes=frozenset(attributes),
            )
        except Exception:
            # unresolvable reference (e.g. a tid minted by an earlier log
            # entry): degrade to the global scope rather than guess
            return MutationFootprint(op=self.op, global_invalidation=True)

    def _tuple_eid(self, instance: Any, item: Any) -> Any:
        """The entity of one ``add_tuple``/``add_tuples`` element: a
        :class:`RelationTuple`, a ``(tid, values)`` pair, or a bare tid
        paired with a ``values=`` kwarg."""
        if hasattr(item, "eid"):
            return item.eid
        if isinstance(item, tuple) and len(item) == 2:
            tid, values = item
            return dict(values or {})[instance.schema.eid]
        values = self.kwargs.get("values")
        if values is not None:
            return dict(values)[instance.schema.eid]
        if len(self.args) > 2 and self.args[2] is not None:
            return dict(self.args[2])[instance.schema.eid]
        return instance.tuple_by_tid(item).eid


@dataclass(frozen=True)
class Answer:
    """The reply to one request or mutation (service and batch driver alike)."""

    problem: str
    value: Any = None
    failure: Optional[ErrorRecord] = None
    degraded: Optional[Degraded] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """True only for a full-fidelity answer — never for a degraded one."""
        return self.failure is None and self.degraded is None

    @property
    def error(self) -> Optional[str]:
        """Rendered failure string (None when there is no failure)."""
        return None if self.failure is None else self.failure.render()
