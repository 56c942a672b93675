"""Enumeration of (consistent) completions of temporal instances.

These exhaustive enumerators realise ``Mod(S)`` literally and serve two
purposes: they are the *ground truth* against which the SAT-backed and PTIME
solvers are validated, and they are the execution path for small instances
(e.g. the paper's running examples).  Their cost is exponential in the entity
block sizes, exactly as the paper's complexity results predict.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.current import current_tuple
from repro.core.instance import NormalInstance, TemporalInstance
from repro.core.schema import RelationSchema
from repro.core.specification import Specification
from repro.core.tuples import RelationTuple

__all__ = [
    "CurrentDatabaseCache",
    "attribute_block_extensions",
    "completions_of_instance",
    "consistent_completions",
    "count_consistent_completions",
    "first_consistent_completion",
]

Completion = Dict[str, TemporalInstance]


class CurrentDatabaseCache:
    """Share current instances *by value* across enumerated completions.

    Distinct completions frequently induce the same current instance, and the
    enumeration loops of the CCQA layer evaluate one query against each of
    them.  Interning the decoded instances here (exactly as
    :meth:`~repro.solvers.order_encoding.CompletionEncoder.current_databases`
    does for projected SAT models) means each distinct current instance is
    constructed once, its lazily built per-column query indexes are reused,
    and the :class:`~repro.query.engine.QueryEngine` answer cache — keyed by
    instance identity-independent value fingerprints — is probed with cheap,
    already-fingerprinted objects.  Shared instances must not be mutated by
    callers.  The cache is cleared wholesale at a size cap so unboundedly
    many distinct current databases cannot pin memory.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self._cache: Dict[Tuple[str, Tuple[Tuple[Any, ...], ...]], NormalInstance] = {}
        self._max_entries = max_entries

    def intern_rows(
        self, schema: RelationSchema, rows: List[Tuple[Any, Mapping[str, Any]]]
    ) -> NormalInstance:
        """The shared instance for *rows* (``(tid, {attribute: value})`` pairs
        over *schema*), constructing it only on the first occurrence of the
        value combination."""
        key = (
            schema.name,
            tuple(tuple(values[a] for a in schema.all_attributes) for _tid, values in rows),
        )
        instance = self._cache.get(key)
        if instance is None:
            instance = NormalInstance(schema)
            for tid, values in rows:
                instance.add(RelationTuple(schema, tid, values))
            if len(self._cache) >= self._max_entries:
                self._cache.clear()
            self._cache[key] = instance
        return instance

    def current_instance(self, completion: TemporalInstance) -> NormalInstance:
        """``LST(D^c_t)`` of one completed instance, interned by value."""
        rows = [
            (tup.tid, tup.values())
            for tup in (current_tuple(completion, eid) for eid in completion.entities())
        ]
        return self.intern_rows(completion.schema, rows)

    def current_database(
        self,
        completion: Mapping[str, TemporalInstance],
        relations: Optional[Iterable[str]] = None,
    ) -> Dict[str, NormalInstance]:
        """``LST(D^c)`` with every current instance interned by value."""
        names = completion.keys() if relations is None else relations
        return {name: self.current_instance(completion[name]) for name in names}


def attribute_block_extensions(
    instance: TemporalInstance,
) -> List[Tuple[str, object, List[Tuple[object, ...]]]]:
    """For every (attribute, entity) pair, the linear extensions of the partial
    order restricted to that entity block.

    Returns a list of ``(attribute, eid, [chain, ...])`` entries.  A completion
    of the instance chooses one chain per entry.
    """
    slots: List[Tuple[str, object, List[Tuple[object, ...]]]] = []
    entity_blocks = {eid: instance.entity_tids(eid) for eid in instance.entities()}
    for attribute in instance.schema.attributes:
        order = instance.order(attribute)
        for eid, block in entity_blocks.items():
            chains = list(order.linear_extensions(block))
            slots.append((attribute, eid, chains))
    return slots


def _build_completion(
    instance: TemporalInstance,
    slots: List[Tuple[str, object, List[Tuple[object, ...]]]],
    choice: Tuple[int, ...],
) -> TemporalInstance:
    completed = TemporalInstance(instance.schema, instance.tuples())
    for base_attribute, base_order in instance.orders().items():
        for lower, upper in base_order.pairs():
            completed.add_order(base_attribute, lower, upper)
    for (attribute, _eid, chains), index in zip(slots, choice):
        chain = chains[index]
        for position in range(len(chain) - 1):
            completed.add_order(attribute, chain[position], chain[position + 1])
    return completed


def completions_of_instance(instance: TemporalInstance) -> Iterator[TemporalInstance]:
    """Enumerate *all* completions of a single temporal instance.

    No denial constraints or copy functions are taken into account here.
    """
    slots = attribute_block_extensions(instance)
    if any(not chains for _, _, chains in slots):
        return
    index_ranges = [range(len(chains)) for _, _, chains in slots]
    for choice in product(*index_ranges):
        yield _build_completion(instance, slots, tuple(choice))


def _constraint_satisfying_completions(
    specification: Specification, name: str
) -> List[TemporalInstance]:
    """Completions of a single instance that satisfy its own denial constraints."""
    keep: List[TemporalInstance] = []
    constraints = specification.constraints_for(name)
    for completed in completions_of_instance(specification.instance(name)):
        if all(constraint.satisfied_by(completed) for constraint in constraints):
            keep.append(completed)
    return keep


def consistent_completions(
    specification: Specification, limit: Optional[int] = None
) -> Iterator[Completion]:
    """Enumerate ``Mod(S)``: all consistent completions of the specification.

    *limit*, when given, bounds the number of completions yielded (useful when
    only existence or a small sample is needed).
    """
    names = specification.instance_names()
    per_instance: List[List[TemporalInstance]] = []
    for name in names:
        candidates = _constraint_satisfying_completions(specification, name)
        if not candidates:
            return
        per_instance.append(candidates)
    yielded = 0
    for combo in product(*per_instance):
        completion: Completion = dict(zip(names, combo))
        if _copy_functions_compatible(specification, completion):
            yield completion
            yielded += 1
            if limit is not None and yielded >= limit:
                return


def _copy_functions_compatible(
    specification: Specification, completion: Mapping[str, TemporalInstance]
) -> bool:
    return all(
        copy_function.is_compatible(
            completion[copy_function.target], completion[copy_function.source]
        )
        for copy_function in specification.copy_functions
    )


def first_consistent_completion(specification: Specification) -> Optional[Completion]:
    """A single consistent completion, or ``None`` when ``Mod(S)`` is empty."""
    for completion in consistent_completions(specification, limit=1):
        return completion
    return None


def count_consistent_completions(specification: Specification) -> int:
    """``|Mod(S)|`` — exponential; only sensible for small instances."""
    return sum(1 for _ in consistent_completions(specification))
