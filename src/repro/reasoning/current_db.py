"""Enumeration of realizable current databases.

The current instance ``LST(D^c)`` of a consistent completion is determined by
the choice, per (instance, entity, attribute), of the *maximal* tuple of the
entity block.  To enumerate the distinct current databases of ``Mod(S)``
without enumerating all completions, the completion encoding carries *value
columns* — one maximality variable per tuple and one value variable per
distinct value of each (entity, attribute) — and SAT models are enumerated
*projected* onto the value variables, so each projected model is one
realizable current database
(:meth:`~repro.solvers.order_encoding.CompletionEncoder.current_databases`).

:class:`CurrentDatabaseEnumerator` is the projection of that enumeration onto
a fixed set of relations, for standalone use and for the naive CPP path.
The session facade does not enumerate for SP queries or DCIP: it asks the
same value columns by refutation, a few gated solves for a database that
differs
(:meth:`~repro.solvers.order_encoding.CompletionEncoder.certain_answers`,
:meth:`~repro.solvers.order_encoding.CompletionEncoder.deterministic`), and
enumerates on its encoder directly for other queries.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.instance import NormalInstance
from repro.core.specification import Specification
from repro.exceptions import SolverError
from repro.solvers.backend import resolve_backend
from repro.solvers.order_encoding import CompletionEncoder

__all__ = ["CurrentDatabaseEnumerator"]


class CurrentDatabaseEnumerator:
    """Enumerate the realizable current databases of a specification.

    Parameters
    ----------
    specification:
        The specification ``S``.
    relations:
        Instance names whose current instances are needed (e.g. the relations
        a query refers to).  Defaults to all instances.
    encoder:
        A warm encoder of ``S`` to enumerate on (the session facade shares
        one); a fresh one is built when omitted.
    """

    def __init__(
        self,
        specification: Specification,
        relations: Optional[Iterable[str]] = None,
        encoder: Optional[CompletionEncoder] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.specification = specification
        self.relations: List[str] = (
            list(relations) if relations is not None else specification.instance_names()
        )
        for name in self.relations:
            specification.instance(name)  # validates the name
        if (
            encoder is not None
            # reprolint: allow(R2) — identity fast path in front of the structural check below
            and encoder.specification is not specification
            and encoder.specification != specification
        ):
            raise SolverError(
                "the supplied encoder was built for a different specification"
            )
        if encoder is not None and backend is not None:
            if encoder.backend != resolve_backend(backend):
                raise SolverError(
                    f"the supplied encoder uses solver backend {encoder.backend!r}, "
                    f"not {resolve_backend(backend)!r}"
                )
        if encoder is None:
            # reprolint: allow(R4) — cold-start fallback for standalone (non-session) use
            encoder = CompletionEncoder(specification, backend=backend)
        self.encoder = encoder
        encoder.encode_value_columns(self.relations)

    def databases(self, limit: Optional[int] = None) -> Iterator[Dict[str, NormalInstance]]:
        """Enumerate realizable current databases (deduplicated by value) on
        the encoder's shared incremental solver; yielded databases share
        interned instances, so callers must not mutate them."""
        return self.encoder.current_databases(relations=self.relations, limit=limit)

    def is_empty(self) -> bool:
        """Whether ``Mod(S)`` is empty (no realizable current database)."""
        for _ in self.databases(limit=1):
            return False
        return True
