"""repro — a reproduction of "Determining the Currency of Data"
(Fan, Geerts, Wijsen; PODS 2011 / TODS 2012).

The package implements the paper's data-currency model (partial currency
orders, denial constraints, copy functions, consistent completions, current
instances and certain current answers), the seven decision problems it studies
(CPS, COP, DCIP, CCQA, CPP, ECP, BCP) with both general solvers and the PTIME
special-case algorithms, the hardness reductions as instance generators, and
synthetic workloads plus a benchmark harness regenerating the paper's tables.

Quickstart
----------
>>> from repro import workloads, reasoning
>>> spec = workloads.company.company_specification()
>>> q1 = workloads.company.query_q1_salary()
>>> reasoning.certain_current_answers(q1, spec)
{('80k',)}
"""

from repro import analysis, core, preservation, query, reasoning, reductions, session, solvers, workloads
from repro.serve import BatchDriver
from repro.session import ProblemRequest, ReasoningSession
from repro.core import (
    CopyFunction,
    CopySignature,
    CurrencyAtom,
    DenialConstraint,
    NormalInstance,
    PartialOrder,
    RelationSchema,
    RelationTuple,
    Specification,
    TemporalInstance,
    consistent_completions,
    current_database,
    current_instance,
)

__version__ = "1.0.0"

__all__ = [
    "core",
    "query",
    "solvers",
    "reasoning",
    "preservation",
    "reductions",
    "session",
    "workloads",
    "analysis",
    "RelationSchema",
    "RelationTuple",
    "PartialOrder",
    "NormalInstance",
    "TemporalInstance",
    "DenialConstraint",
    "CurrencyAtom",
    "CopySignature",
    "CopyFunction",
    "Specification",
    "consistent_completions",
    "current_instance",
    "current_database",
    "ReasoningSession",
    "BatchDriver",
    "ProblemRequest",
    "__version__",
]
