"""Decision-problem requests and the one function that answers them.

A :class:`ProblemRequest` names one of the paper's eight decision problems
plus its arguments; :func:`answer_request` answers it on a warm
:class:`~repro.session.ReasoningSession`.  Every front end calls the same
function — the in-process serial reference, and the worker handler behind
:class:`~repro.serve.ReasoningService` — so a budget expiry comes back as the
same :class:`Degraded` label wherever the request ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple, Union

from repro.exceptions import ResourceBudgetExceeded, SpecificationError
from repro.query.ast import Query, SPQuery
from repro.session.session import ReasoningSession
from repro.solvers.budget import Budget, budget_scope

__all__ = ["PROBLEMS", "ProblemRequest", "Degraded", "answer_request"]

AnyQuery = Union[Query, SPQuery]

#: problem name -> session method; the request's ``args``/``kwargs`` are
#: forwarded after the query (when the problem takes one).
PROBLEMS = {
    "cps": "consistent",
    "ccqa": "certain_answers",
    "cop": "certain_ordering",
    "dcip": "deterministic",
    "sp": "sp_answers",
    "cpp": "cpp",
    "ecp": "ecp",
    "bcp": "bcp",
}

#: problems whose first positional argument is the request's query
_QUERY_PROBLEMS = {"ccqa", "sp", "cpp", "ecp", "bcp"}


@dataclass(frozen=True)
class ProblemRequest:
    """One decision-problem request against a specification.

    ``problem`` is a key of :data:`PROBLEMS`; *query* is passed first for the
    query-taking problems (CCQA, SP, CPP, ECP, BCP); *args*/*kwargs* carry the
    remaining positional/keyword arguments — e.g. ``args=("Emp", order)`` for
    COP, ``args=(2,)`` for BCP's bound ``k``.
    """

    problem: str
    query: Optional[AnyQuery] = None
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.problem not in PROBLEMS:
            raise SpecificationError(
                f"unknown problem {self.problem!r}; expected one of {sorted(PROBLEMS)}"
            )


@dataclass(frozen=True)
class Degraded:
    """What was tried before the deadline/budget ran out.

    ``reason`` is the exhausted resource (``"deadline"``, ``"conflicts"``,
    ``"propagations"`` or ``"injected"``); ``attempted`` is a human-readable
    account of the evaluation that was cut short; ``spent`` carries the
    conflicts/propagations/elapsed-seconds consumed.  The interrupted solver
    state survives in the warm session, so re-asking with a larger deadline
    resumes rather than restarts.
    """

    problem: str
    reason: str
    attempted: str
    spent: Mapping[str, float] = field(default_factory=dict)


def answer_request(
    session: ReasoningSession,
    request: ProblemRequest,
    deadline: Optional[float] = None,
) -> Any:
    """Answer *request* on *session*.

    *deadline* (absolute :func:`time.monotonic`) bounds the whole evaluation
    as an ambient solver :class:`~repro.solvers.budget.Budget`.  Budget
    exhaustion — this deadline, or a budget the request carries in its own
    ``kwargs`` — returns a :class:`Degraded` label instead of raising; every
    other error propagates to the caller."""
    method = getattr(session, PROBLEMS[request.problem])
    args = request.args
    if request.problem in _QUERY_PROBLEMS:
        args = (request.query, *args)
    budget = Budget(deadline=deadline) if deadline is not None else None
    try:
        with budget_scope(budget):
            return method(*args, **dict(request.kwargs))
    except ResourceBudgetExceeded as error:
        return Degraded(
            problem=request.problem,
            reason=error.reason,
            attempted=(
                f"warm {request.problem} evaluation; interrupted solver state "
                "is retained, so a wider deadline resumes the search"
            ),
            spent={
                "conflicts": float(error.conflicts),
                "propagations": float(error.propagations),
                "elapsed_s": error.elapsed_s,
            },
        )
