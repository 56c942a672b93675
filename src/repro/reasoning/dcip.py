"""DCIP — the deterministic current instance problem (Section 3).

``DCIP(S, R)``: does every consistent completion of ``S`` yield the same
current instance for relation ``R``?  (Vacuously true when ``Mod(S)`` is
empty.)

Theorem 3.4: Πp2-complete (combined) / coNP-complete (data); PTIME without
denial constraints (Theorem 6.1: the specification is deterministic iff, per
entity and attribute, all sinks of ``PO∞`` agree on the attribute value).

The general solver decomposes the question per (entity, attribute) cell: the
current value of the cell is the value of the block's maximal tuple, so the
current instance is unique iff every *realizable* maximal tuple of every cell
carries the same value.  Realizability of "tuple t is maximal for (e, A)" is
one assumption-based SAT call on the session's warm solver —
:meth:`~repro.session.ReasoningSession.deterministic` holds the loop;
:func:`is_deterministic` and :func:`realizable_maxima` are the thin
back-compat wrappers.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from repro.core.specification import Specification
from repro.session.session import DCIP_METHODS, ReasoningSession

__all__ = ["is_deterministic", "realizable_maxima"]

_METHODS = DCIP_METHODS


def realizable_maxima(
    specification: Specification,
    instance_name: str,
    eid: Hashable,
    attribute: str,
) -> List[Hashable]:
    """Tuple ids of the entity block that are maximal for *attribute* in at
    least one consistent completion (one assumption probe per tuple on a
    session's warm solver; see
    :meth:`~repro.session.ReasoningSession.realizable_maxima`)."""
    return ReasoningSession(specification).realizable_maxima(instance_name, eid, attribute)


def is_deterministic(
    specification: Specification,
    instance_name: Optional[str] = None,
    method: str = "auto",
    session: Optional[ReasoningSession] = None,
) -> bool:
    """Decide DCIP for the named relation (or for every relation when None)."""
    return ReasoningSession.for_specification(specification, session).deterministic(
        instance_name, method=method
    )
