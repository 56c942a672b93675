"""Deterministic, monkeypatch-free fault injection.

The chaos suite must be able to kill a worker mid-request, stall a solver,
poison a result's pickling or exhaust a budget at the k-th conflict — in the
*real* code paths, across *real* process boundaries, without monkeypatching
(patches do not survive a worker respawn and silently miss spawn-started
processes).  The hot paths therefore carry compiled-in failure points: a
``faults.trip("<point>")`` call that is a no-op unless a :class:`FaultPlan`
is installed in the current process.

A plan is a plain picklable value, so the supervisor ships it to every worker
it spawns (including respawns — an injected fault persists across the crash
it caused, which is exactly what a chaos test needs to prove that the respawn
path is itself fault-tolerant).

Fault points compiled into the stack:

========================  ===================================================
point                     where it fires
========================  ===================================================
``solver.solve``          entry of every :meth:`Solver.solve` call
``solver.conflict``       after each recorded conflict in the CDCL search
``worker.request``        a supervised worker received a work item
``worker.execute``        a supervised worker is about to run the handler
``worker.result``         a supervised worker is about to send a result
========================  ===================================================

Actions: ``"kill"`` (``os._exit`` — a hard crash, as a segfault or OOM kill
would look), ``"sleep"`` (a stall/runaway sweep), ``"raise"`` (a generic
transient error), ``"budget"`` (raises :class:`ResourceBudgetExceeded`, the
deadline-at-k-conflicts shape) and ``"poison"`` (``trip`` returns an
unpicklable :class:`PoisonPill` the caller substitutes for its result).

Occurrence selection is by per-point hit counting: a fault fires when
``after < hits <= after + times`` (and, with ``every=n``, on every n-th hit)
— fully deterministic given a deterministic request order.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ResourceBudgetExceeded, ServiceError

__all__ = [
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "PoisonPill",
    "install",
    "clear",
    "active_plan",
    "trip",
    "hits",
]


class InjectedFault(ServiceError):
    """The error raised by a ``"raise"``-action fault (transient)."""

    retryable = True


class PoisonPill:
    """An object that cannot be pickled — the payload of a ``"poison"`` fault.

    Sending it across a process boundary fails at serialisation time, which is
    how a result whose *content* is unpicklable looks in production.
    """

    def __reduce__(self) -> Tuple[object, ...]:
        raise TypeError("PoisonPill is deliberately unpicklable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "PoisonPill()"


@dataclass(frozen=True)
class Fault:
    """One injected failure.

    Parameters
    ----------
    point:
        The fault point name (see the module table).
    action:
        ``"kill"``, ``"sleep"``, ``"raise"``, ``"budget"`` or ``"poison"``.
    after:
        Number of hits of *point* to let pass before firing.
    times:
        How many consecutive hits fire once armed (default 1).
    every:
        When > 0, fire on every *every*-th hit instead of the
        ``after``/``times`` window (sustained chaos).
    seconds:
        Sleep duration for ``"sleep"``.
    message:
        Message of the raised error for ``"raise"``.
    generation:
        When set, the fault is active only in worker *incarnation* n (the
        supervisor numbers them from 0 and filters the plan it installs).  A
        respawned worker starts with fresh hit counters, so an unscoped
        ``"kill"`` fault would fire again in every incarnation; scoping it to
        generation 0 yields exactly one crash per worker.
    """

    point: str
    action: str
    after: int = 0
    times: int = 1
    every: int = 0
    seconds: float = 0.0
    message: str = "injected fault"
    generation: Optional[int] = None

    _ACTIONS = ("kill", "sleep", "raise", "budget", "poison")

    def __post_init__(self) -> None:
        if self.action not in self._ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {self._ACTIONS}"
            )

    def armed(self, hit: int) -> bool:
        """Whether this fault fires on the *hit*-th occurrence (1-based)."""
        if self.every > 0:
            return hit % self.every == 0
        return self.after < hit <= self.after + self.times


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable set of faults (shippable to worker processes)."""

    faults: Tuple[Fault, ...] = ()

    @classmethod
    def of(cls, *faults: Fault) -> "FaultPlan":
        return cls(faults=tuple(faults))

    def for_generation(self, generation: int) -> Optional["FaultPlan"]:
        """The sub-plan active in worker incarnation *generation* (None when
        no fault applies — the worker then skips installation entirely)."""
        active = tuple(
            fault
            for fault in self.faults
            if fault.generation is None or fault.generation == generation
        )
        if not active:
            return None
        return FaultPlan(faults=active)


# one plan and one hit-counter table per process; workers get theirs installed
# by the supervisor at spawn time, test processes via install()/clear()
_PLAN: Optional[FaultPlan] = None
_HITS: Dict[str, int] = {}


def install(plan: Optional[FaultPlan]) -> None:
    """Install *plan* in this process (None clears); resets hit counters."""
    global _PLAN
    _PLAN = plan if plan is not None and plan.faults else None
    _HITS.clear()


def clear() -> None:
    """Remove any installed plan and reset hit counters."""
    install(None)


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, if any."""
    return _PLAN


def hits(point: str) -> int:
    """How many times *point* has been hit since the plan was installed."""
    return _HITS.get(point, 0)


def trip(point: str) -> Optional[PoisonPill]:
    """Fire any armed fault at *point*; returns a :class:`PoisonPill` for
    ``"poison"`` faults (the caller substitutes it for its result), None
    otherwise.  A no-op when no plan is installed."""
    plan = _PLAN
    if plan is None:
        return None
    hit = _HITS.get(point, 0) + 1
    _HITS[point] = hit
    for fault in plan.faults:
        if fault.point != point or not fault.armed(hit):
            continue
        if fault.action == "kill":
            os._exit(137)
        if fault.action == "sleep":
            time.sleep(fault.seconds)
        elif fault.action == "raise":
            raise InjectedFault(fault.message)
        elif fault.action == "budget":
            raise ResourceBudgetExceeded("injected", conflicts=hit)
        elif fault.action == "poison":
            return PoisonPill()
    return None


def _fault_points_documented() -> List[str]:
    """The fault points named in the module docstring (self-test support)."""
    documented = []
    doc = __doc__ or ""
    for line in doc.splitlines():
        stripped = line.strip()
        if stripped.startswith("``") and "``" in stripped[2:]:
            name = stripped[2 : stripped.index("``", 2)]
            if "." in name and " " not in name:
                documented.append(name)
    return documented
