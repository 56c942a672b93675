"""A reusable query-evaluation engine with answer caching.

The candidate-enumeration loops of the reasoning layer (CCQA over consistent
completions, CPP/BCP over copy-function extensions) evaluate the *same* query
against a long stream of databases, many of which are value-identical: distinct
completions frequently induce the same current database.  A
:class:`QueryEngine` compiles the query once
(:class:`~repro.query.evaluator.EvaluationPlan`: standardise-apart, head
deduplication, positive-skeleton split) and memoises answer sets keyed by the
value fingerprint of the relations the query reads, so repeated databases cost
one dictionary lookup instead of a re-evaluation.

Index reuse composes with this cache: the per-column hash indexes live on the
:class:`~repro.core.instance.NormalInstance` objects themselves (see the index
lifecycle notes there), so callers that share instance objects across
databases — e.g. the decode cache of
:meth:`~repro.solvers.order_encoding.CompletionEncoder.current_databases` — reuse both
the indexes and, via this class, whole answer sets.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional, Tuple, Union

from repro.query.ast import Query, SPQuery
from repro.query.evaluator import Database, EvaluationPlan

__all__ = ["QueryEngine"]

AnyQuery = Union[Query, SPQuery]

_CacheKey = Tuple[Tuple[str, FrozenSet[Tuple[Any, ...]]], ...]


class QueryEngine:
    """Compiled evaluation of one query over many databases.

    Parameters
    ----------
    query:
        The query (``Query`` or ``SPQuery``) to compile.
    max_cache_entries:
        Bound on the number of memoised answer sets; the cache is cleared
        wholesale when the bound is hit (the loops this serves are themselves
        bounded, so eviction is a safety valve, not a tuning knob).
    """

    def __init__(self, query: AnyQuery, max_cache_entries: int = 4096) -> None:
        self.source = query
        self.plan = EvaluationPlan(query)
        self.relations: Tuple[str, ...] = tuple(sorted(self.plan.query.relations()))
        self._max_cache_entries = max_cache_entries
        self._cache: Dict[_CacheKey, FrozenSet[Tuple[Any, ...]]] = {}
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------ #
    def _fingerprint(self, database: Database) -> Optional[_CacheKey]:
        """Value-level cache key, or None when the database is missing a read
        relation (evaluation will raise the proper error; do not cache).

        Positive queries depend only on the relations they read.  Full-FO
        queries additionally depend on the *active domain*, which is drawn
        from every relation in the database — their key therefore covers the
        whole database, so two databases differing only in a relation the
        query never mentions are (correctly) not conflated.
        """
        if self.plan.positive:
            names = self.relations
        else:
            names = tuple(sorted(set(database) | set(self.relations)))
        key = []
        for name in names:
            instance = database.get(name)
            if instance is None:
                return None
            key.append((name, instance.value_set()))
        return tuple(key)

    def answers(self, database: Database) -> FrozenSet[Tuple[Any, ...]]:
        """The answer set of the compiled query on *database* (memoised)."""
        key = self._fingerprint(database)
        if key is None:
            return self.plan.answers(database)
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        answers = self.plan.answers(database)
        if len(self._cache) >= self._max_cache_entries:
            self._cache.clear()
        self._cache[key] = answers
        return answers

    def boolean(self, database: Database) -> bool:
        """Boolean-query convenience: True iff the answer set is non-empty."""
        return bool(self.answers(database))

    # ------------------------------------------------------------------ #
    def cache_info(self) -> Dict[str, int]:
        """Cache statistics (for benchmarks and diagnostics)."""
        return {"hits": self._hits, "misses": self._misses, "entries": len(self._cache)}

    def clear_cache(self) -> None:
        """Drop all memoised answer sets (indexes on instances are untouched)."""
        self._cache.clear()
