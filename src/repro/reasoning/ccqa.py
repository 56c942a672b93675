"""CCQA — certain current query answering (Sections 2, 3 and 6).

A tuple ``t`` is a *certain current answer* to a query ``Q`` w.r.t. a
specification ``S`` iff ``t ∈ Q(LST(D^c))`` for every consistent completion
``D^c ∈ Mod(S)``.

Theorem 3.5 places the decision problem at Πp2-complete (combined, CQ/UCQ/∃FO⁺)
and PSPACE-complete (FO), coNP-complete in data complexity — and the lower
bounds need neither denial constraints nor copy functions (Corollary 3.6).
Proposition 6.3 gives a PTIME algorithm for SP queries when no denial
constraints are present; Corollary 3.7 shows that with denial constraints even
identity queries stay intractable.

Strategies
----------
* ``"enumerate"``   — exhaustive enumeration of ``Mod(S)`` (ground truth).
* ``"candidates"``  — the SAT-backed general path on the session's live
  encoding (the base encoder, or the extension search space once built):
  refutation on the value columns for SP queries — the answers on one
  current database are the candidates, and gated solves for a database
  lacking one drop them until none can be refuted — and enumeration of the
  realizable *current databases* for other queries
  (:meth:`~repro.solvers.order_encoding.CompletionEncoder.certain_answers`).
* ``"sp"``          — the PTIME algorithm of Proposition 6.3 (SP queries, no
  denial constraints; :mod:`repro.reasoning.sp`, re-exported here).
* ``"auto"``        — picks ``"sp"`` when applicable, ``"candidates"`` otherwise.

All strategies live on :class:`~repro.session.ReasoningSession`; the functions
below are thin back-compat wrappers that construct (or accept, via *session*)
a session, so repeated calls against one warm session share the compiled
query engine, the completion encoder and the memoised answer sets.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Union

from repro.core.specification import Specification
from repro.query.ast import Query, SPQuery
from repro.query.engine import QueryEngine
from repro.reasoning.sp import UnknownValue, sp_certain_answers
from repro.session.session import CCQA_METHODS, ReasoningSession

__all__ = [
    "certain_current_answers",
    "is_certain_answer",
    "sp_certain_answers",
    "UnknownValue",
]

AnyQuery = Union[Query, SPQuery]
_METHODS = CCQA_METHODS


def certain_current_answers(
    query: AnyQuery,
    specification: Specification,
    method: str = "auto",
    engine: Optional[QueryEngine] = None,
    session: Optional[ReasoningSession] = None,
):
    """The set of certain current answers to *query* w.r.t. *specification*.

    Raises :class:`~repro.exceptions.InconsistentSpecificationError` when
    ``Mod(S)`` is empty (every tuple would be vacuously certain; there is no
    meaningful answer set to return).

    *engine* optionally supplies a pre-built :class:`QueryEngine` for *query*
    so callers that decide CCQA repeatedly reuse the compiled plan and the
    answer cache across specifications; *session* supplies a whole warm
    :class:`~repro.session.ReasoningSession`.
    """
    return ReasoningSession.for_specification(specification, session).certain_answers(
        query, method=method, engine=engine
    )


def is_certain_answer(
    query: AnyQuery,
    answer: Tuple[Any, ...],
    specification: Specification,
    method: str = "auto",
    engine: Optional[QueryEngine] = None,
    session: Optional[ReasoningSession] = None,
) -> bool:
    """Decide CCQA for a single candidate tuple.

    Follows the paper's convention that the problem is vacuously true when the
    specification is inconsistent.
    """
    return ReasoningSession.for_specification(specification, session).is_certain_answer(
        query, answer, method=method, engine=engine
    )
