"""One warm-state facade over all eight decision problems.

The paper's decision problems — CPS, COP, DCIP, CCQA (plus its SP special
case) and the preservation trio CPP/ECP/BCP — all reason over the *same*
specification, yet the module-level entry points historically rebuilt their
own substrate (chase fixpoint, completion encoder, query engine, extension
search space) on every call.  :class:`ReasoningSession` owns that substrate
once, lazily:

* ``chase`` — the PTIME certain-order fixpoint (Theorem 6.1);
* ``encoder`` — the live completion encoding with its incremental CDCL
  solver: the base :class:`~repro.solvers.order_encoding.CompletionEncoder`
  until a preservation question needs ``space``, the
  :class:`~repro.preservation.sat_extensions.ExtensionSearchSpace` over
  ``Ext(ρ)`` (a :class:`~repro.solvers.order_encoding.CompletionEncoder`
  itself) from then on — building the space releases the base encoder, and
  the base problems run on the space's warm solver;
* per-query :class:`~repro.query.engine.QueryEngine` instances.

CCQA and DCIP ask the encoder's value columns by refutation (a few gated
solves, see :meth:`~repro.solvers.order_encoding.CompletionEncoder.certain_answers`),
so a CPS probe warms the solver — and memoises the model — that the
subsequent CCQA and DCIP solves start from, and a CPP sweep leaves behind the
memoised certain answers and the ⊆-maximal harvest that make the following
BCP and ECP decisions near-free.  The module-level functions in
:mod:`repro.reasoning` and :mod:`repro.preservation` are thin wrappers that
construct (or accept) a session.

Incremental mutation
--------------------
``add_order`` / ``add_denial`` / ``add_tuple`` / ``add_copy_function`` /
``add_copy_import`` mutate the specification **in place** and invalidate only
the dependent caches, following :data:`ReasoningSession.CACHE_DEPENDENCIES`:

========================  =========  ==========  ================  ============
cache                     add_order  add_denial  add_tuple(s)      add_copy_*
========================  =========  ==========  ================  ============
chase                     extend     **keep**    extend            extend
query engines             keep       keep        keep              keep
column indexes            keep       keep        self [1]_         self [1]_
encoder                   extend     extend      extend [2]_       extend [2]_
extension search space    extend     extend      extend-or-rebuild rebuild [3]_
memoised answers          delta      delta       delta             delta [4]_
========================  =========  ==========  ================  ============

.. [1] :class:`~repro.core.instance.NormalInstance` invalidates only the
   mutated instance's own row/index caches.
.. [2] The completion encoding grows *additively* when a tuple is added
   (new pair variables, block clauses, groundings — every existing clause
   stays valid), so the warm solver is extended via ``add_clause`` between
   solves.  A grown block's value columns are re-encoded under a new
   generation, so the refutation passes, which only read the encoder's
   current columns, stay valid and the encoder is never rebuilt; the
   property harness asserts the extended and cold-built encoders answer
   identically.
.. [3] ``add_copy_function`` rewires the copy graph (new candidate imports
   everywhere along the new edge), so the space is dropped and the memo is
   cleared globally; ``add_copy_import`` drops it too, because the applied
   candidate leaves the candidate set, so the selector prefix the tuple
   delta needs can never match.  Until a preservation question rebuilds the
   space, the base problems run on a fresh base encoder.
.. [4] ``delta`` evicts only entries whose relations intersect the
   mutation's :class:`~repro.session.footprint.MutationFootprint` (the copy
   component of the mutated instance); see that module for the soundness
   argument and :meth:`ReasoningSession.mutation_stats` for the counters
   that prove the fast path was taken.  Retained state is guarded by one
   warm consistency probe (a mutation can flip the whole specification to
   inconsistent, which no per-component scope can see).
"""

from __future__ import annotations

from typing import (
    Any,
    ContextManager,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.completion import CurrentDatabaseCache, consistent_completions, first_consistent_completion
from repro.core.copy_function import CopyFunction
from repro.core.denial import DenialConstraint
from repro.core.instance import TemporalInstance
from repro.core.specification import Specification
from repro.core.tuples import RelationTuple
from repro.exceptions import (
    InconsistentSpecificationError,
    SolverError,
    SpecificationError,
)
from repro.preservation.certificates import (
    BoundRefusalCertificate,
    certificate_from_databases,
    changed_answer,
)
from repro.preservation.extensions import (
    CandidateImport,
    SpecificationExtension,
    apply_imports,
    has_chained_imports,
)
from repro.preservation.sat_extensions import (
    SEARCHES,
    ExtensionSearchSpace,
    Selection,
    space_for,
)
from repro.preservation.sp_fast import sp_is_currency_preserving
from repro.query.ast import Query, SPQuery
from repro.query.engine import QueryEngine
from repro.reasoning.chase import (
    ChaseResult,
    chase_certain_orders,
    extend_chase_with_copies,
    extend_chase_with_order,
    extend_chase_with_tuples,
)
from repro.reasoning.sp import sp_certain_answers
from repro.session.footprint import MutationFootprint, component_of, query_relations
from repro.session.snapshot import SNAPSHOT_FORMAT, SessionSnapshot
from repro.solvers.backend import resolve_backend
from repro.solvers.budget import Budget, DeadlineLike, budget_scope
from repro.solvers.order_encoding import CompletionEncoder

__all__ = ["ReasoningSession"]

AnyQuery = Union[Query, SPQuery]

#: Method vocabularies, shared with the back-compat wrapper modules.
CPS_METHODS = ("auto", "chase", "sat", "enumerate")
COP_METHODS = ("auto", "chase", "sat")
DCIP_METHODS = ("auto", "chase", "sat")
CCQA_METHODS = ("auto", "enumerate", "candidates", "sp")
CPP_METHODS = ("auto", "enumerate", "sp", "sat")

#: Above this many consistent selections the bounded search stops
#: materialising the family in memory and streams restricted solver sweeps
#: instead (time-bounded degradation, never memory-bounded).  The family is
#: generated lazily from the maximal harvest, so an oversized one costs at
#: most this many subsets before the fallback kicks in — there is no up-front
#: pre-count.
_FAMILY_CAP = 200_000

#: Bound on the maximal-selection harvest itself — the number of ⊆-maximal
#: consistent selections can be exponential (mutually exclusive candidate
#: pairs), so the harvest is abandoned past this many and the search streams.
_MAXIMAL_CAP = 4096

#: Bound on the per-query state a long-lived session holds (compiled engines
#: and memoised answer sets).  Both are keyed *structurally*, so a caller
#: minting a value-equal query per request — the batch-driver shape — hits
#: the same entry; only genuinely distinct queries grow the tables, and past
#: the cap they are cleared wholesale, like the current-database caches (a
#: safety valve, not a tuning knob).
_MAX_TRACKED_QUERIES = 1024

# a currency order may be given as a TemporalInstance (paper style) or as a
# mapping attribute -> iterable of (lower_tid, upper_tid) pairs
CurrencyOrderSpec = Union[TemporalInstance, Mapping[str, Iterable[Tuple[Hashable, Hashable]]]]


def _order_pairs(order: CurrencyOrderSpec) -> Dict[str, Tuple[Tuple[Hashable, Hashable], ...]]:
    if isinstance(order, TemporalInstance):
        return {
            attribute: tuple(po.pairs()) for attribute, po in order.orders().items() if len(po)
        }
    return {attribute: tuple(pairs) for attribute, pairs in order.items()}


# --------------------------------------------------------------------------- #
# The in-space bounded search (BCP's engine, shared with the refusal
# certificates); operates purely on a space and an engine.
# --------------------------------------------------------------------------- #
Refutation = Tuple[Selection, Selection]  # (refused guess, refuting superset)


def _bounded_by_lazy_sweeps(
    space: ExtensionSearchSpace,
    engine: QueryEngine,
    k: int,
    refutations: Optional[List[Refutation]] = None,
) -> Optional[Selection]:
    """Memory-safe fallback for huge consistent families: per-guess restricted
    solver sweeps (``supersets_of``) with early exit on the first refuting
    superset — nothing is materialised beyond the current guess."""

    def preserving(selection: Selection) -> bool:
        guess_answers = space.certain_answers(engine, selection)
        chosen = set(selection)
        for superset in space.iterate_consistent_selections(supersets_of=selection):
            if set(superset) == chosen:
                continue
            if space.certain_answers(engine, superset) != guess_answers:
                if refutations is not None:
                    refutations.append((selection, superset))
                return False
        return True

    if preserving(()):
        return ()
    if k == 0:
        return None
    for selection in space.iterate_consistent_selections(max_imports=k):
        if not selection:
            continue  # ρ itself was already checked
        if preserving(selection):
            return selection
    return None


def _bounded_in_space(
    space: ExtensionSearchSpace,
    engine: QueryEngine,
    k: int,
    refutations: Optional[List[Refutation]] = None,
) -> Optional[Selection]:
    """The whole bounded search on one space: the selection (possibly empty)
    of a currency-preserving extension of at most *k* imports, or None.

    The space's selector universe is the candidate-import *closure* and every
    consistent selection is downward closed, so the strict supersets of a
    selection within the space are precisely the extensions of ρ^selection —
    including the chained imports only importable once some superset import
    created their source tuple.  The search therefore never re-encodes:

    1. the ⊆-maximal consistent selections are harvested with a handful of
       SAT calls (consistency is downward monotone), and the whole consistent
       space is regenerated from them lazily in plain Python
       (:meth:`~repro.preservation.extensions.CandidateClosure.closed_subsets`
       is a generator; materialisation stops at :data:`_FAMILY_CAP` and
       degrades to :func:`_bounded_by_lazy_sweeps` — still in-space, just
       streamed — with no up-front family pre-count);
    2. the CPP oracle of each guess is a subset test over that family with
       lazily memoised certain answers — the maximal selections are probed
       first, since a non-preserving guess is almost always refuted by the
       answers of a maximum above it, making refutation O(#maximal) cached
       lookups instead of a sweep.

    *refutations*, when supplied, collects ``(guess, refuting superset)``
    pairs for every refused in-bound guess — the raw material of BCP's
    :class:`~repro.preservation.certificates.BoundRefusalCertificate`.
    """
    closure = space.closure
    maximal = space.maximal_consistent_selections(limit=_MAXIMAL_CAP)
    if maximal is None:
        return _bounded_by_lazy_sweeps(space, engine, k, refutations)
    selections: Dict[FrozenSet[int], Selection] = {}
    for top in maximal:
        for subset in closure.closed_subsets(top):
            if subset not in selections:
                selections[subset] = tuple(sorted(subset))
                if len(selections) > _FAMILY_CAP:
                    return _bounded_by_lazy_sweeps(space, engine, k, refutations)
    ordered = sorted(selections.items(), key=lambda item: (len(item[0]), item[1]))
    maximal_sets = [frozenset(top) for top in maximal]

    def answers(selection: Selection) -> Optional[FrozenSet]:
        return space.certain_answers(engine, selection)

    def preserving(guess_set: FrozenSet[int], guess: Selection) -> bool:
        guess_answers = answers(guess)
        for top_set, top in zip(maximal_sets, maximal):
            if guess_set < top_set and answers(top) != guess_answers:
                if refutations is not None:
                    refutations.append((guess, top))
                return False
        for superset_set, superset in ordered:
            if guess_set < superset_set and answers(superset) != guess_answers:
                if refutations is not None:
                    refutations.append((guess, superset))
                return False
        return True

    # ρ itself first, mirroring the seed order (and the k = 0 case)
    if preserving(frozenset(), ()):
        return ()
    if k == 0:
        return None
    for guess_set, guess in ordered:
        if not 0 < len(guess_set) <= k:
            continue
        if preserving(guess_set, guess):
            return guess
    return None


class ReasoningSession:
    """Warm, mutation-aware reasoning over one specification.

    Parameters
    ----------
    specification:
        The specification ``S``.  The session holds (and, through the
        mutation API, mutates) this object — callers that need the original
        untouched should pass ``specification.copy()``.
    match_entities_by_eid:
        Entity-matching mode of the candidate-import enumeration, forwarded
        to the extension search space (preservation problems only).
    invalidation:
        Must be ``"delta"``, the footprint-scoped eviction policy described
        under :attr:`CACHE_DEPENDENCIES` and the only one there is; the
        argument is still accepted because existing callers pass it.

    All substrate is built lazily, so constructing a session costs nothing;
    the wrapper functions in :mod:`repro.reasoning` / :mod:`repro.preservation`
    build one per call, which reproduces the historical cold behaviour.
    Keeping a session alive across calls is what unlocks the warm paths.
    """

    #: cache name -> {mutation -> policy}.  The full policy vocabulary
    #: (machine-checked by reprolint rule R1):
    #:
    #: ``"keep"``
    #:     The cache survives untouched — the mutation cannot dirty it.
    #: ``"extend"``
    #:     The cache object survives and is grown incrementally in place
    #:     (additive clauses on a warm solver; a warm fixpoint re-run for the
    #:     chase).
    #: ``"extend-or-rebuild"``
    #:     Extension is attempted and falls back to a drop-and-lazy-rebuild
    #:     when it would be unsound (a space whose candidate closure changed
    #:     shape).  :meth:`mutation_stats` counts which arm was taken.
    #: ``"rebuild"``
    #:     The cache is dropped and lazily reconstructed on next use.
    #: ``"clear"``
    #:     The cache is emptied wholesale (dictionary caches).
    #: ``"delta"``
    #:     Footprint-scoped eviction: only entries whose relations intersect
    #:     the mutation's :class:`~repro.session.footprint.MutationFootprint`
    #:     are dropped; disjoint entries survive, guarded by one warm
    #:     consistency probe before retained state is served.  A
    #:     globally-invalidating footprint (``add_copy_function``) clears
    #:     the answer memo wholesale.
    CACHE_DEPENDENCIES: Mapping[str, Mapping[str, str]] = {
        "chase": {
            "add_order": "extend",
            "add_denial": "keep",
            "add_tuple": "extend",
            "add_tuples": "extend",
            "add_copy_function": "extend",
            "add_copy_import": "extend",
            "set_backend": "keep",
        },
        "encoder": {
            "add_order": "extend",
            "add_denial": "extend",
            "add_tuple": "extend",
            "add_tuples": "extend",
            "add_copy_function": "extend",
            "add_copy_import": "extend",
            "set_backend": "rebuild",
        },
        "space": {
            "add_order": "extend",
            "add_denial": "extend",
            "add_tuple": "extend-or-rebuild",
            "add_tuples": "extend-or-rebuild",
            "add_copy_function": "rebuild",
            "add_copy_import": "extend-or-rebuild",
            "set_backend": "rebuild",
        },
        "engines": {
            "add_order": "keep",
            "add_denial": "keep",
            "add_tuple": "keep",
            "add_tuples": "keep",
            "add_copy_function": "keep",
            "add_copy_import": "keep",
            "set_backend": "keep",
        },
        "answers": {
            "add_order": "delta",
            "add_denial": "delta",
            "add_tuple": "delta",
            "add_tuples": "delta",
            "add_copy_function": "clear",
            "add_copy_import": "delta",
            "set_backend": "keep",
        },
    }

    def __init__(
        self,
        specification: Specification,
        match_entities_by_eid: bool = True,
        backend: Optional[str] = None,
        invalidation: str = "delta",
    ) -> None:
        self.specification = specification
        self.match_entities_by_eid = match_entities_by_eid
        #: resolved solver backend name every lazily-built solver layer uses
        #: (see :mod:`repro.solvers.backend`)
        self.backend = resolve_backend(backend)
        if invalidation != "delta":
            raise SpecificationError(
                f"unknown invalidation mode {invalidation!r}; the footprint-scoped "
                f"'delta' policy is the only one"
            )
        self._chase: Optional[ChaseResult] = None
        self._encoder: Optional[CompletionEncoder] = None
        self._space: Optional[ExtensionSearchSpace] = None
        self._engines: Dict[AnyQuery, QueryEngine] = {}
        self._database_cache = CurrentDatabaseCache()
        self._answer_memo: Dict[Tuple[AnyQuery, str], Optional[FrozenSet]] = {}
        self._verdict_memo: Dict[Any, Any] = {}
        #: query -> relations it reads, filled lazily at eviction time (the
        #: per-entry footprint index of the ``"delta"`` answer policy)
        self._memo_relations: Dict[AnyQuery, FrozenSet[str]] = {}
        #: set when retained state outlived a mutation that could have made
        #: the whole specification inconsistent; discharged by one warm
        #: consistency probe before the memo is served again
        self._needs_consistency_recheck = False
        self._mutation_stats: Dict[str, int] = {
            "memo_evicted": 0,
            "memo_retained": 0,
            "chase_extended": 0,
            "chase_rebuilt": 0,
            "space_extended": 0,
            "space_rebuilt": 0,
            "encoder_extended": 0,
            "consistency_rechecks": 0,
            "footprint_relations": 0,
            "footprint_blocks": 0,
        }
        self.mutations = 0

    # ------------------------------------------------------------------ #
    # Construction helpers for the wrapper layer
    # ------------------------------------------------------------------ #
    @classmethod
    def for_specification(
        cls,
        specification: Specification,
        session: Optional["ReasoningSession"] = None,
        match_entities_by_eid: Optional[bool] = None,
        backend: Optional[str] = None,
    ) -> "ReasoningSession":
        """*session* validated against the specification, or a fresh session.

        Mirrors :func:`~repro.preservation.sat_extensions.space_for`: a
        supplied session built for a different specification (structural
        comparison), entity-matching mode or solver backend would silently
        answer the wrong question (or on the wrong engine), so mismatches
        are rejected."""
        if session is None:
            return cls(
                specification,
                True if match_entities_by_eid is None else match_entities_by_eid,
                backend=backend,
            )
        if (
            # reprolint: allow(R2) — identity fast path in front of the structural check below
            session.specification is not specification
            and session.specification != specification
        ):
            raise SpecificationError(
                "the supplied session was built for a different specification"
            )
        if (
            match_entities_by_eid is not None
            and session.match_entities_by_eid != match_entities_by_eid
        ):
            raise SpecificationError(
                "the supplied session uses a different entity-matching mode"
            )
        if backend is not None and session.backend != resolve_backend(backend):
            raise SpecificationError(
                f"the supplied session uses solver backend {session.backend!r}, "
                f"not {resolve_backend(backend)!r}"
            )
        return session

    def adopt_space(self, space: ExtensionSearchSpace) -> ExtensionSearchSpace:
        """Adopt a pre-built extension search space (validated) as this
        session's preservation backend.

        A space built from a *structurally equal but distinct* specification
        object is re-pointed at this session's live specification: the two
        induce identical encodings (that is what the structural check
        certifies), but materialised extensions — and therefore ECP/BCP
        results, CPP witnesses and refusal certificates — are built from
        ``space.specification``, which must track the session's in-place
        mutations rather than a stale twin."""
        space = space_for(
            self.specification, self.match_entities_by_eid, space, backend=self.backend
        )
        # reprolint: allow(R2) — re-pointing a structurally-equal twin requires the identity probe
        if space.specification is not self.specification:
            space.specification = self.specification
        self._install_space(space)
        return space

    # ------------------------------------------------------------------ #
    # Deadline propagation
    # ------------------------------------------------------------------ #
    def deadline_scope(self, deadline: Optional[DeadlineLike]) -> "ContextManager[Optional[Budget]]":
        """An ambient solver-budget scope for *deadline*.

        A number is seconds-from-now; a pre-built
        :class:`~repro.solvers.budget.Budget` is installed as-is (letting
        callers bound conflicts/propagations instead of wall clock).  Every
        solver probe the session performs inside the scope — including probes
        of substrate built lazily during the call — charges the same budget;
        exhaustion raises :class:`~repro.exceptions.ResourceBudgetExceeded`,
        resumably (a repeat call without a deadline picks the search back up
        on the warm solver).  The problem methods' ``deadline=`` keyword is a
        shorthand for wrapping the call in this scope.
        """
        if deadline is None:
            return budget_scope(None)
        return budget_scope(Budget.ensure(deadline))

    # ------------------------------------------------------------------ #
    # The shared substrate (lazy)
    # ------------------------------------------------------------------ #
    @property
    def chase(self) -> ChaseResult:
        """The certain-order fixpoint ``PO∞`` (cached; survives add_denial)."""
        if self._chase is None:
            self._chase = chase_certain_orders(self.specification)
        return self._chase

    @property
    def encoder(self) -> CompletionEncoder:
        """The live completion encoding and its warm incremental solver: the
        space once a preservation question built it, else the base encoder
        (built on first use)."""
        if self._space is not None:
            return self._space
        if self._encoder is None:
            # reprolint: allow(R4) — the session's own lazy factory for the warm encoder
            self._encoder = CompletionEncoder(self.specification, backend=self.backend)
        return self._encoder

    @property
    def space(self) -> ExtensionSearchSpace:
        """The extension search space over ``Ext(ρ)`` (built on first use)."""
        if self._space is None:
            # reprolint: allow(R4) — the session's own lazy factory for the warm search space
            space = ExtensionSearchSpace(
                self.specification,
                match_entities_by_eid=self.match_entities_by_eid,
                backend=self.backend,
            )
            self._install_space(space)
        return self._space

    def _install_space(self, space: ExtensionSearchSpace) -> None:
        """Make *space* the live encoding.  It answers every base problem
        too, so the base encoder is released — kept, it would be extended on
        every mutation for nothing."""
        self._space = space
        self._encoder = None

    def engine(
        self, query: AnyQuery, supplied: Optional[QueryEngine] = None
    ) -> QueryEngine:
        """The session's compiled :class:`QueryEngine` for *query* (one per
        *structurally distinct* query — :class:`Query`/:class:`SPQuery`
        compare and hash by structure, so value-equal queries minted per
        request share one engine; *supplied* lets wrapper callers donate a
        pre-built one, which the session then owns)."""
        if supplied is not None:
            if supplied.source != query:
                raise SpecificationError(
                    "the supplied engine was compiled for a different query"
                )
            self._evict_query_state_if_full()
            self._engines[query] = supplied
            return supplied
        engine = self._engines.get(query)
        if engine is None:
            self._evict_query_state_if_full()
            engine = QueryEngine(query)
            self._engines[query] = engine
        return engine

    def _evict_query_state_if_full(self) -> None:
        if (
            len(self._engines) >= _MAX_TRACKED_QUERIES
            or len(self._answer_memo) >= _MAX_TRACKED_QUERIES
        ):
            self._engines.clear()
            self._answer_memo.clear()
            self._memo_relations.clear()

    # ------------------------------------------------------------------ #
    # CPS — consistency (Section 3)
    # ------------------------------------------------------------------ #
    def consistent(
        self, method: str = "auto", deadline: Optional[DeadlineLike] = None
    ) -> bool:
        """Decide CPS: whether the specification has a consistent completion."""
        if deadline is not None:
            with self.deadline_scope(deadline):
                return self.consistent(method=method)
        if method not in CPS_METHODS:
            raise SpecificationError(
                f"unknown CPS method {method!r}; expected one of {CPS_METHODS}"
            )
        if method == "auto":
            method = "chase" if not self.specification.has_denial_constraints() else "sat"
        if method == "chase":
            if self.specification.has_denial_constraints():
                raise SpecificationError(
                    "the chase decides CPS only for specifications without denial "
                    "constraints; use method='sat' or 'auto'"
                )
            return self.chase.consistent
        if method == "sat":
            key = ("cps", "sat")
            if key not in self._verdict_memo:
                self._verdict_memo[key] = self.encoder.satisfiable()
            return self._verdict_memo[key]
        return first_consistent_completion(self.specification) is not None

    # ------------------------------------------------------------------ #
    # COP — certain ordering (Section 3)
    # ------------------------------------------------------------------ #
    def certain_ordering(
        self,
        instance_name: str,
        currency_order: CurrencyOrderSpec,
        method: str = "auto",
        deadline: Optional[DeadlineLike] = None,
    ) -> bool:
        """Decide COP: is *currency_order* contained in every consistent
        completion of the named instance?"""
        if deadline is not None:
            with self.deadline_scope(deadline):
                return self.certain_ordering(instance_name, currency_order, method=method)
        if method not in COP_METHODS:
            raise SpecificationError(
                f"unknown COP method {method!r}; expected one of {COP_METHODS}"
            )
        instance = self.specification.instance(instance_name)
        pairs_by_attribute = _order_pairs(currency_order)
        for attribute in pairs_by_attribute:
            instance.schema.check_attributes([attribute])
        all_pairs = [
            (instance_name, attribute, lower, upper)
            for attribute, pairs in pairs_by_attribute.items()
            for lower, upper in pairs
        ]
        if not all_pairs:
            return True
        if method == "auto":
            method = "chase" if not self.specification.has_denial_constraints() else "sat"
        if method == "chase":
            if self.specification.has_denial_constraints():
                raise SpecificationError(
                    "the chase decides COP only without denial constraints; use method='sat'"
                )
            result = self.chase
            if not result.consistent:
                return True  # Mod(S) empty: vacuously certain
            return all(
                result.certain(name, attribute, lower, upper)
                for name, attribute, lower, upper in all_pairs
            )
        # A pair relating tuples of different entities can never hold in any
        # completion, so such an order is certain only vacuously (Mod(S) empty).
        for _name, _attribute, lower, upper in all_pairs:
            if instance.tuple_by_tid(lower).eid != instance.tuple_by_tid(upper).eid:
                return not self.encoder.satisfiable()
        # Complement question as one SAT call on the warm solver: does a
        # consistent completion exist missing at least one pair of O_t?
        return not self.encoder.excludes_some_pair(all_pairs)

    # ------------------------------------------------------------------ #
    # DCIP — deterministic current instances (Section 3)
    # ------------------------------------------------------------------ #
    def realizable_maxima(
        self, instance_name: str, eid: Hashable, attribute: str
    ) -> List[Hashable]:
        """Tuple ids of the entity block that are maximal for *attribute* in
        at least one consistent completion — assumption probes on the warm
        solver, pruned by the cached chase orders."""
        instance = self.specification.instance(instance_name)
        block = instance.entity_tids(eid)
        certain = self.chase
        maxima: List[Hashable] = []
        for tid in block:
            # sound pruning: a tuple below another one in every completion can
            # never be maximal
            if certain.consistent and any(
                certain.certain(instance_name, attribute, tid, other)
                for other in block
                if other != tid
            ):
                continue
            assumptions = [
                (instance_name, attribute, other, tid) for other in block if other != tid
            ]
            if self.encoder.satisfiable(assumptions):
                maxima.append(tid)
        return maxima

    def deterministic(
        self,
        instance_name: Optional[str] = None,
        method: str = "auto",
        deadline: Optional[DeadlineLike] = None,
    ) -> bool:
        """Decide DCIP for the named relation (or every relation when None)."""
        if deadline is not None:
            with self.deadline_scope(deadline):
                return self.deterministic(instance_name, method=method)
        if method not in DCIP_METHODS:
            raise SpecificationError(
                f"unknown DCIP method {method!r}; expected one of {DCIP_METHODS}"
            )
        names = (
            [instance_name]
            if instance_name is not None
            else self.specification.instance_names()
        )
        for name in names:
            self.specification.instance(name)
        if method == "auto":
            method = "chase" if not self.specification.has_denial_constraints() else "sat"
        if method == "chase":
            if self.specification.has_denial_constraints():
                raise SpecificationError(
                    "the chase decides DCIP only without denial constraints; use method='sat'"
                )
            result = self.chase
            if not result.consistent:
                return True  # vacuously deterministic
            for name in names:
                instance = self.specification.instance(name)
                for attribute in instance.schema.attributes:
                    order = result.orders[(name, attribute)]
                    for eid in instance.entities():
                        block = instance.entity_tids(eid)
                        sinks = order.maxima(block)
                        values = {instance.tuple_by_tid(tid)[attribute] for tid in sinks}
                        if len(values) > 1:
                            return False
            return True
        # two solves on the warm solver's value columns: one model, then
        # "some current value differs from it"
        return self.encoder.deterministic(names)

    # ------------------------------------------------------------------ #
    # CCQA — certain current query answering (Sections 3 and 6)
    # ------------------------------------------------------------------ #
    def sp_answers(self, query: SPQuery) -> Optional[FrozenSet]:
        """The PTIME SP algorithm of Proposition 6.3 on the cached chase;
        None when ``Mod(S)`` is empty."""
        if self.specification.has_denial_constraints():
            return sp_certain_answers(query, self.specification)  # raises
        return sp_certain_answers(query, self.specification, chase=self.chase)

    def _answers_by_enumeration(self, engine: QueryEngine) -> Optional[FrozenSet]:
        """Intersection of Q over all consistent completions (the oracle
        path); None when ``Mod(S)`` is empty.  Decoded current instances are
        interned in the session-wide cache, so repeated oracle calls share
        column indexes and engine answer-cache entries."""
        needed = set(engine.relations)
        restrict = engine.plan.positive
        cache = self._database_cache
        intersection: Optional[Set[Tuple[Any, ...]]] = None
        for completion in consistent_completions(self.specification):
            if restrict:
                database = cache.current_database(
                    completion,
                    relations=[name for name in completion if name in needed],
                )
            else:
                database = cache.current_database(completion)
            answers = set(engine.answers(database))
            intersection = answers if intersection is None else (intersection & answers)
            if intersection is not None and not intersection:
                return frozenset()
        if intersection is None:
            return None
        return frozenset(intersection)

    def certain_answers(
        self,
        query: AnyQuery,
        method: str = "auto",
        engine: Optional[QueryEngine] = None,
        deadline: Optional[DeadlineLike] = None,
    ) -> FrozenSet[Tuple[Any, ...]]:
        """The set of certain current answers to *query* (memoised until the
        next mutation).

        Raises :class:`InconsistentSpecificationError` when ``Mod(S)`` is
        empty (every tuple would be vacuously certain; there is no meaningful
        answer set to return).
        """
        if deadline is not None:
            with self.deadline_scope(deadline):
                return self.certain_answers(query, method=method, engine=engine)
        if method not in CCQA_METHODS:
            raise SpecificationError(
                f"unknown CCQA method {method!r}; expected one of {CCQA_METHODS}"
            )
        if engine is not None and engine.source != query:
            raise SpecificationError("the supplied engine was compiled for a different query")
        if method == "auto":
            if isinstance(query, SPQuery) and not self.specification.has_denial_constraints():
                method = "sp"
            else:
                method = "candidates"
        self._discharge_consistency_recheck()
        key = (query, method)
        if key in self._answer_memo:
            answers = self._answer_memo[key]
        else:
            if method == "sp":
                answers = self.sp_answers(query)  # type: ignore[arg-type]
            elif method == "enumerate":
                answers = self._answers_by_enumeration(self.engine(query, engine))
            else:
                # refutation on the live encoding (enumeration for non-SP)
                answers = self.encoder.certain_answers(self.engine(query, engine))
            self._evict_query_state_if_full()
            self._answer_memo[key] = answers
            self._memo_relations.setdefault(query, query_relations(query))
        if answers is None:
            raise InconsistentSpecificationError(
                "the specification has no consistent completion; certain answers are vacuous"
            )
        return answers

    def is_certain_answer(
        self,
        query: AnyQuery,
        answer: Tuple[Any, ...],
        method: str = "auto",
        engine: Optional[QueryEngine] = None,
        deadline: Optional[DeadlineLike] = None,
    ) -> bool:
        """Decide CCQA for a single candidate tuple (vacuously true when the
        specification is inconsistent, following the paper's convention)."""
        if deadline is not None:
            with self.deadline_scope(deadline):
                return self.is_certain_answer(query, answer, method=method, engine=engine)
        try:
            answers = self.certain_answers(query, method=method, engine=engine)
        except InconsistentSpecificationError:
            return True
        return tuple(answer) in answers

    # ------------------------------------------------------------------ #
    # CPP — currency preservation (Sections 4, 5 and 6)
    # ------------------------------------------------------------------ #
    def _has_chained_imports(self) -> bool:
        if self._space is not None:
            return self._space.has_chained_candidates
        return has_chained_imports(
            self.specification, match_entities_by_eid=self.match_entities_by_eid
        )

    def _revalidate(
        self,
        query: AnyQuery,
        specification: Specification,
        ccqa_method: str,
        engine: Optional[QueryEngine],
    ) -> Optional[FrozenSet]:
        """Certain answers of a *materialised* extension through the
        pre-existing CCQA path (a throwaway cold session), or None when
        inconsistent — the cross-check that keeps encoding bugs from shipping
        a bogus witness."""
        try:
            return ReasoningSession(
                specification, self.match_entities_by_eid
            ).certain_answers(query, method=ccqa_method, engine=engine)
        except InconsistentSpecificationError:
            return None

    def find_violating_extension(
        self,
        query: AnyQuery,
        max_imports: Optional[int] = None,
        ccqa_method: str = "auto",
        engine: Optional[QueryEngine] = None,
        search: str = "auto",
        deadline: Optional[DeadlineLike] = None,
    ) -> Optional[SpecificationExtension]:
        """A witness extension whose certain answers differ from the base
        ones (with an answer-difference certificate attached), or None when
        every consistent extension preserves them.  See
        :func:`repro.preservation.cpp.find_violating_extension` for the full
        contract; the SAT search runs on this session's warm space."""
        if deadline is not None:
            with self.deadline_scope(deadline):
                return self.find_violating_extension(
                    query,
                    max_imports=max_imports,
                    ccqa_method=ccqa_method,
                    engine=engine,
                    search=search,
                )
        if search not in SEARCHES:
            raise SpecificationError(
                f"unknown CPP search {search!r}; expected one of {SEARCHES}"
            )
        engine = self.engine(query, engine)
        if search == "naive":
            from repro.preservation.cpp import _find_violating_naive

            # reprolint: allow(R4) — explicit search="naive" dispatch to the reference oracle
            return _find_violating_naive(
                query,
                self.specification,
                max_imports,
                self.match_entities_by_eid,
                ccqa_method,
                engine,
            )
        space = self.space
        base_answers = space.certain_answers(engine, ())
        if base_answers is None:
            raise InconsistentSpecificationError(
                "the base specification has no consistent completion"
            )
        for selection in space.iterate_consistent_selections(max_imports=max_imports):
            if not selection:
                continue  # the empty selection is ρ itself, not an extension
            extended_answers = space.certain_answers(engine, selection)
            if extended_answers == base_answers:
                continue
            witness = space.extension(selection)
            answer, gained = changed_answer(base_answers, extended_answers)
            refuted_selection: Selection = () if gained else selection
            certificate = certificate_from_databases(
                engine,
                answer,
                gained,
                space.databases_without(engine, answer, refuted_selection),
            )
            # cross-check the in-space answers against the pre-existing CCQA
            # path on the materialised extension: an encoding bug must not
            # ship a bogus witness
            revalidated = self._revalidate(
                query, witness.specification, ccqa_method, engine
            )
            if revalidated is None or (certificate.answer in revalidated) != certificate.gained:
                raise SolverError(
                    "the SAT search found a violating extension that "
                    "certain_current_answers on the materialised extension refutes"
                )
            witness.certificate = certificate
            return witness
        return None

    def cpp(
        self,
        query: AnyQuery,
        method: str = "auto",
        max_imports: Optional[int] = None,
        ccqa_method: str = "auto",
        engine: Optional[QueryEngine] = None,
        deadline: Optional[DeadlineLike] = None,
    ) -> bool:
        """Decide CPP: are the specification's copy functions currency
        preserving for *query*?  (``"auto"`` picks the PTIME SP algorithm
        when applicable — SP query, no denial constraints, unchained — and
        the warm SAT search otherwise.)"""
        if deadline is not None:
            with self.deadline_scope(deadline):
                return self.cpp(
                    query,
                    method=method,
                    max_imports=max_imports,
                    ccqa_method=ccqa_method,
                    engine=engine,
                )
        if method not in CPP_METHODS:
            raise SpecificationError(
                f"unknown CPP method {method!r}; expected one of {CPP_METHODS}"
            )
        applicability_checked = False
        if method == "auto":
            if (
                isinstance(query, SPQuery)
                and not self.specification.has_denial_constraints()
                and not self._has_chained_imports()
            ):
                method = "sp"
                applicability_checked = True  # exactly sp_fast's applicability test
            else:
                method = "sat"
        if method == "sp":
            return sp_is_currency_preserving(
                query,
                self.specification,
                match_entities_by_eid=self.match_entities_by_eid,
                _applicability_checked=applicability_checked,
            )
        try:
            witness = self.find_violating_extension(
                query,
                max_imports=max_imports,
                ccqa_method=ccqa_method,
                engine=engine,
                search="naive" if method == "enumerate" else "sat",
            )
        except InconsistentSpecificationError:
            return False
        return witness is None

    # ------------------------------------------------------------------ #
    # ECP — existence of currency-preserving extensions (Section 5)
    # ------------------------------------------------------------------ #
    def ecp(
        self,
        query: Optional[AnyQuery] = None,
        deadline: Optional[DeadlineLike] = None,
    ) -> bool:
        """Decide ECP: O(1) "yes" for consistent specifications
        (Proposition 5.2), "no" for inconsistent ones.  The query is
        irrelevant to the decision."""
        del query
        if deadline is not None:
            with self.deadline_scope(deadline):
                return self.ecp()
        return self.consistent()

    def maximal_extension(
        self, search: str = "auto", deadline: Optional[DeadlineLike] = None
    ) -> SpecificationExtension:
        """The greedy maximal (hence currency-preserving) extension of
        Proposition 5.2 — from the memoised ⊆-maximal harvest with zero SAT
        calls when a BCP sweep ran first, by warm consistency probes
        otherwise; both produce the extension the seed greedy builds."""
        if deadline is not None:
            with self.deadline_scope(deadline):
                return self.maximal_extension(search=search)
        if search not in SEARCHES:
            raise SpecificationError(
                f"unknown ECP search {search!r}; expected one of {SEARCHES}"
            )
        if search == "naive":
            from repro.preservation.ecp import _maximal_extension_naive

            # reprolint: allow(R4) — explicit search="naive" dispatch to the reference oracle
            return _maximal_extension_naive(
                self.specification, self.match_entities_by_eid
            )
        space = self.space
        return space.extension(space.greedy_maximal_selection())

    # ------------------------------------------------------------------ #
    # BCP — bounded copying (Section 5)
    # ------------------------------------------------------------------ #
    def bounded_extension(
        self,
        query: AnyQuery,
        k: int,
        method: str = "auto",
        search: str = "auto",
        engine: Optional[QueryEngine] = None,
        deadline: Optional[DeadlineLike] = None,
    ) -> Optional[SpecificationExtension]:
        """A currency-preserving extension importing at most *k* tuples (the
        empty extension — ρ itself — included), or None.  The SAT search runs
        entirely on this session's warm space; see
        :func:`repro.preservation.bcp.bounded_currency_preserving_extension`."""
        if deadline is not None:
            with self.deadline_scope(deadline):
                return self.bounded_extension(
                    query, k, method=method, search=search, engine=engine
                )
        if k < 0:
            raise SpecificationError("the bound k must be non-negative")
        if search not in SEARCHES:
            raise SpecificationError(
                f"unknown BCP search {search!r}; expected one of {SEARCHES}"
            )
        if method not in CPP_METHODS:
            raise SpecificationError(
                f"unknown CPP method {method!r}; expected one of {CPP_METHODS}"
            )
        if search == "naive":
            from repro.preservation.bcp import _bounded_naive

            # reprolint: allow(R4) — explicit search="naive" dispatch to the reference oracle
            return _bounded_naive(
                query, self.specification, k, method, self.match_entities_by_eid
            )
        space = self.space
        if not space.selection_consistent(()):
            return None
        engine = self.engine(query, engine)
        selection = _bounded_in_space(space, engine, k)
        if selection is None:
            return None
        if not selection:
            return apply_imports(self.specification, [])
        return space.extension(selection)

    def bcp(
        self,
        query: AnyQuery,
        k: int,
        method: str = "auto",
        search: str = "auto",
        engine: Optional[QueryEngine] = None,
        deadline: Optional[DeadlineLike] = None,
    ) -> bool:
        """Decide BCP."""
        return (
            self.bounded_extension(
                query, k, method=method, search=search, engine=engine, deadline=deadline
            )
            is not None
        )

    def bcp_refusal(
        self,
        query: AnyQuery,
        k: int,
        engine: Optional[QueryEngine] = None,
        deadline: Optional[DeadlineLike] = None,
    ) -> Optional[List[BoundRefusalCertificate]]:
        """*Why* BCP answers "no": one
        :class:`~repro.preservation.certificates.BoundRefusalCertificate` per
        refused in-bound guess (the empty guess — ρ itself — included), each
        carrying the violating import set and the materialised consistent
        extension realising it.

        Returns None when BCP answers "yes" (some guess is preserving — there
        is nothing to refuse), and the empty list when the refusal is the
        base specification's inconsistency rather than any guess's failure.
        """
        if deadline is not None:
            with self.deadline_scope(deadline):
                return self.bcp_refusal(query, k, engine=engine)
        if k < 0:
            raise SpecificationError("the bound k must be non-negative")
        space = self.space
        if not space.selection_consistent(()):
            return []
        engine = self.engine(query, engine)
        refutations: List[Refutation] = []
        selection = _bounded_in_space(space, engine, k, refutations)
        if selection is not None:
            return None
        certificates: List[BoundRefusalCertificate] = []
        for guess, refuter in refutations:
            guess_answers = space.certain_answers(engine, guess)
            extension_answers = space.certain_answers(engine, refuter)
            certificates.append(
                BoundRefusalCertificate(
                    guess=tuple(space.candidates[i] for i in sorted(set(guess))),
                    violating_imports=tuple(
                        space.candidates[i] for i in sorted(set(refuter))
                    ),
                    extension=space.extension(refuter),
                    guess_answers=guess_answers,
                    extension_answers=extension_answers,
                )
            )
        return certificates

    def bound_violation_core(
        self, required_imports: Sequence[CandidateImport], k: int
    ) -> Optional[Tuple[List[CandidateImport], bool]]:
        """Why no consistent extension realises *required_imports* within *k*
        (see :func:`repro.preservation.bcp.bound_violation_core`)."""
        if k < 0:
            raise SpecificationError("the bound k must be non-negative")
        space = self.space
        indices = []
        for imp in required_imports:
            try:
                indices.append(space.candidates.index(imp))
            except ValueError:
                raise SpecificationError(
                    f"{imp!r} is not a candidate import of the specification"
                ) from None
        return space.bounded_selection_core(indices, k)

    # ------------------------------------------------------------------ #
    # Incremental mutation
    # ------------------------------------------------------------------ #
    def _discharge_consistency_recheck(self) -> None:
        """One warm consistency probe guarding footprint-retained state.

        Scoped retention is sound per copy-component **except** for the one
        global effect a mutation can have: flipping the whole specification
        to inconsistent (``Mod(S) = ∅`` empties every component's completion
        set at once).  The first answer served after such a mutation pays one
        warm SAT probe; if the specification died, every retained memo entry
        is dropped and the normal path recomputes (raising
        :class:`InconsistentSpecificationError` as a fresh session would)."""
        if not self._needs_consistency_recheck:
            return
        self._needs_consistency_recheck = False
        if not self._answer_memo:
            return
        self._mutation_stats["consistency_rechecks"] += 1
        if not self.encoder.satisfiable():
            self._answer_memo.clear()
            self._memo_relations.clear()

    def _clear_answer_state(self) -> None:
        self._answer_memo.clear()
        self._memo_relations.clear()
        self._verdict_memo.clear()
        self.mutations += 1

    def _finish_mutation(self, footprint: MutationFootprint) -> None:
        """Evict memoised answers per *footprint* and count the mutation.

        ``"delta"`` answer policy: an entry survives iff its query's
        relations are disjoint from the footprint's (component-expanded)
        relations — see :mod:`repro.session.footprint` for why that is sound
        — and any retained state arms the consistency recheck.
        Globally-invalidating mutations clear wholesale.
        Verdict memos (CPS & friends) are specification-global and always
        cleared; they cost one warm probe to recompute."""
        stats = self._mutation_stats
        stats["footprint_relations"] += len(footprint.relations)
        stats["footprint_blocks"] += len(footprint.blocks)
        if footprint.global_invalidation:
            stats["memo_evicted"] += len(self._answer_memo)
            self._answer_memo.clear()
            self._memo_relations.clear()
        else:
            for key in list(self._answer_memo):
                query = key[0]
                relations = self._memo_relations.get(query)
                if relations is None:
                    relations = query_relations(query)
                    self._memo_relations[query] = relations
                if footprint.intersects_relations(relations):
                    del self._answer_memo[key]
                    stats["memo_evicted"] += 1
                else:
                    stats["memo_retained"] += 1
            if self._answer_memo:
                self._needs_consistency_recheck = True
        self._verdict_memo.clear()
        self.mutations += 1

    def _footprint_for_instance(
        self,
        op: str,
        instance_name: str,
        eids: Iterable[Hashable] = (),
        attributes: Iterable[str] = (),
    ) -> MutationFootprint:
        """The (component-expanded) footprint of a mutation on one instance,
        computed against the already-mutated specification."""
        component = component_of(self.specification, instance_name)
        return MutationFootprint(
            op=op,
            relations=component,
            blocks=frozenset(
                (relation, eid) for relation in component for eid in eids
            ),
            attributes=frozenset(attributes),
        )

    def _invalidate_chase(self, extended: Optional[ChaseResult]) -> None:
        """Install the incrementally-extended chase, or drop the cached one
        when no extension is available."""
        if self._chase is None:
            return
        if extended is not None:
            self._chase = extended
            self._mutation_stats["chase_extended"] += 1
        else:
            self._chase = None
            self._mutation_stats["chase_rebuilt"] += 1

    def _extend_for_tuples(self, instance_name: str, tids: Sequence[Hashable]) -> None:
        """Grow the live encoding by the added tuples: the base encoder
        always extends; the space extends while its candidate closure keeps
        its shape and is dropped for a lazy rebuild otherwise."""
        if self._space is not None:
            if self._space.extend_with_tuples(instance_name, tids):
                self._mutation_stats["space_extended"] += 1
            else:
                self._space = None
                self._mutation_stats["space_rebuilt"] += 1
        elif self._encoder is not None:
            self._encoder.add_tuples_incremental(instance_name, tids)
            self._mutation_stats["encoder_extended"] += 1

    def _drop_space(self) -> None:
        """Drop the space after a mutation that reshapes its candidate closure;
        the base encoder is then built afresh when a base problem needs one."""
        if self._space is not None:
            self._space = None
            self._mutation_stats["space_rebuilt"] += 1

    def add_order(
        self, instance_name: str, attribute: str, lower: Hashable, upper: Hashable
    ) -> None:
        """Record ``lower ≺_attribute upper`` in the live specification.

        The chase is extended by a warm fixpoint re-run from the new pair;
        the live encoding gains one unit clause on its warm solver; engines
        and column indexes survive, and the answer memo follows
        the footprint-scoped ``delta`` policy.  A pair already present is a
        no-op."""
        instance = self.specification.instance(instance_name)
        if not instance.add_order(attribute, lower, upper):
            return  # already recorded: nothing changed
        extended = (
            extend_chase_with_order(
                self._chase, self.specification, instance_name, attribute, lower, upper
            )
            if self._chase is not None
            else None
        )
        self._invalidate_chase(extended)
        live = self._space if self._space is not None else self._encoder
        if live is not None:
            live.add_order_pair(instance_name, attribute, lower, upper)
        eids = {instance.tuple_by_tid(lower).eid, instance.tuple_by_tid(upper).eid}
        self._finish_mutation(
            self._footprint_for_instance(
                "add_order", instance_name, eids=eids, attributes=(attribute,)
            )
        )

    def add_denial(self, instance_name: str, constraint: DenialConstraint) -> None:
        """Attach a denial constraint to the named instance.

        The chase survives untouched (it never reads denial constraints), as
        do column indexes and engines; the live encoding is
        extended in place with the constraint's grounded implications, and
        the answer memo follows the footprint-scoped ``delta`` policy."""
        self.specification.add_constraint(instance_name, constraint)
        live = self._space if self._space is not None else self._encoder
        if live is not None:
            live.add_denial_constraint(instance_name, constraint)
        self._finish_mutation(self._footprint_for_instance("add_denial", instance_name))

    def add_tuple(
        self,
        instance_name: str,
        tid: Union[Hashable, RelationTuple],
        values: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Add a tuple (a :class:`RelationTuple`, or ``tid`` + *values*) to
        the named instance.

        The chase is extended in place (a fresh tuple is unmapped by every
        copy function, so registering it as an order element *is* the new
        fixpoint); the space attempts its tuple delta and falls back to a
        rebuild when the candidate closure changed shape; the base encoder is
        extended with the purely additive block/grounding delta and
        re-encoded value columns (the property harness asserts extended and
        cold-built encoders answer identically).  The answer memo follows the footprint-scoped
        ``delta`` policy."""
        instance = self.specification.instance(instance_name)
        tup = self._coerce_tuple(instance, tid, values)
        instance.add(tup)
        extended = (
            extend_chase_with_tuples(
                self._chase, self.specification, instance_name, (tup.tid,)
            )
            if self._chase is not None
            else None
        )
        self._invalidate_chase(extended)
        self._extend_for_tuples(instance_name, (tup.tid,))
        self._finish_mutation(
            self._footprint_for_instance(
                "add_tuple",
                instance_name,
                eids=(tup.eid,),
                attributes=instance.schema.attributes,
            )
        )

    @staticmethod
    def _coerce_tuple(
        instance: TemporalInstance,
        tid: Union[Hashable, RelationTuple],
        values: Optional[Mapping[str, Any]],
    ) -> RelationTuple:
        """*tid* + *values* as a validated :class:`RelationTuple` of
        *instance*.

        A pre-built tuple passed together with *values* is a contradictory
        call (the values would be silently dropped), and one built against a
        different schema — the instance layer only compares schema *names* —
        would be chased as-is; both are rejected here."""
        if isinstance(tid, RelationTuple):
            if values is not None:
                raise ValueError(
                    "add_tuple() received both a pre-built RelationTuple and "
                    "a values mapping; the tuple already carries its values — "
                    "pass one or the other"
                )
            if tid.schema != instance.schema:
                raise SpecificationError(
                    f"tuple {tid.tid!r} was built against a different schema "
                    f"than instance {instance.schema.name!r} declares"
                )
            return tid
        return RelationTuple(instance.schema, tid, dict(values or {}))

    def add_tuples(
        self,
        instance_name: str,
        tuples: Iterable[Union[RelationTuple, Tuple[Hashable, Mapping[str, Any]]]],
    ) -> None:
        """Add a batch of tuples (each a :class:`RelationTuple` or a
        ``(tid, values)`` pair) to the named instance.

        Equivalent to one :meth:`add_tuple` per element but pays the
        invalidation once: a single encoder delta pass (the denial groundings
        and copy implications the batch admits are enumerated once, not once
        per tuple — see
        :meth:`~repro.solvers.order_encoding.CompletionEncoder.add_tuples_incremental`)
        and a single answer-state clear.  The whole batch is validated before
        the first tuple lands, so a bad element mutates nothing."""
        instance = self.specification.instance(instance_name)
        batch: List[RelationTuple] = []
        for item in tuples:
            if isinstance(item, RelationTuple):
                batch.append(self._coerce_tuple(instance, item, None))
            else:
                tid, values = item
                batch.append(self._coerce_tuple(instance, tid, dict(values or {})))
        seen_tids = set(instance.tids())
        for tup in batch:
            if tup.tid in seen_tids:
                raise SpecificationError(
                    f"duplicate tuple id {tup.tid!r} in add_tuples() batch for "
                    f"instance {instance_name!r}"
                )
            seen_tids.add(tup.tid)
        if not batch:
            return
        for tup in batch:
            instance.add(tup)
        tids = [tup.tid for tup in batch]
        extended = (
            extend_chase_with_tuples(self._chase, self.specification, instance_name, tids)
            if self._chase is not None
            else None
        )
        self._invalidate_chase(extended)
        self._extend_for_tuples(instance_name, tids)
        self._finish_mutation(
            self._footprint_for_instance(
                "add_tuples",
                instance_name,
                eids={tup.eid for tup in batch},
                attributes=instance.schema.attributes,
            )
        )

    def add_copy_function(self, copy_function: CopyFunction) -> None:
        """Attach a new copy function (validated against the instances).

        The chase is extended by a warm fixpoint re-run over the new
        function's implications; the space is invalidated (the candidate
        closure changes shape); the base encoder gains the function's
        ≺-compatibility implications in place (no block changed).  The mutation rewires the copy graph itself, so its
        footprint is global and the answer memo is cleared wholesale."""
        self.specification.add_copy_function(copy_function)
        extended = (
            extend_chase_with_copies(self._chase, self.specification)
            if self._chase is not None
            else None
        )
        self._invalidate_chase(extended)
        self._drop_space()
        if self._encoder is not None:
            self._encoder.add_copy_function(copy_function)
            self._mutation_stats["encoder_extended"] += 1
        self._finish_mutation(
            MutationFootprint(op="add_copy_function", global_invalidation=True)
        )

    def add_copy_import(self, candidate: CandidateImport) -> None:
        """Apply one candidate import to the live specification: materialise
        the imported tuple in the copy function's target instance and extend
        the function's mapping to cover it.

        Combines a tuple addition with a copy-function extension: the chase
        registers the imported tuple and re-runs its fixpoint warm; the base
        encoder is extended incrementally (new block delta plus the new
        mapping pair's compatibility implications) as in :meth:`add_tuple`;
        the space is dropped — the applied candidate leaves the candidate
        set, which always changes the closure's shape, so the tuple delta's
        prefix check could never pass.  The answer memo follows the
        footprint-scoped ``delta`` policy over the copy function's
        component."""
        specification = self.specification
        position = None
        for index, existing in enumerate(specification.copy_functions):
            if existing.name == candidate.copy_function:
                position = index
                break
        if position is None:
            raise SpecificationError(
                f"unknown copy function {candidate.copy_function!r} in import"
            )
        copy_function = specification.copy_functions[position]
        if not copy_function.signature.covers_all_target_attributes():
            raise SpecificationError(
                f"copy function {copy_function.name!r} does not cover all target "
                "attributes and therefore cannot be extended"
            )
        source = specification.instance(copy_function.source)
        if not source.has_tid(candidate.source_tid):
            raise SpecificationError(
                f"import references source tuple {candidate.source_tid!r} which "
                f"does not exist in {copy_function.source!r}"
            )
        target = specification.instance(copy_function.target)
        if candidate.target_eid not in target.entities():
            raise SpecificationError(
                f"import targets unknown entity {candidate.target_eid!r} in "
                f"{copy_function.target!r} (extensions introduce no new entities)"
            )
        source_tuple = source.tuple_by_tid(candidate.source_tid)
        new_tid = candidate.new_tid()
        values: Dict[str, Any] = {target.schema.eid: candidate.target_eid}
        for target_attr, source_attr in copy_function.signature.pairs():
            values[target_attr] = source_tuple[source_attr]
        added = not target.has_tid(new_tid)
        if added:
            target.add(RelationTuple(target.schema, new_tid, values))
        specification.copy_functions[position] = copy_function.extended_with(
            {new_tid: candidate.source_tid}
        )
        extended = (
            extend_chase_with_copies(
                self._chase,
                self.specification,
                new_tuples=[(copy_function.target, new_tid)] if added else (),
            )
            if self._chase is not None
            else None
        )
        self._invalidate_chase(extended)
        self._drop_space()
        self._extend_for_tuples(copy_function.target, (new_tid,))
        self._finish_mutation(
            self._footprint_for_instance(
                "add_copy_import",
                copy_function.target,
                eids=(candidate.target_eid,),
                attributes=target.schema.attributes,
            )
        )

    def set_backend(self, backend: str) -> None:
        """Switch the session to a different registered solver backend.

        Warm solver state never migrates between engines: the encoder and the
        space are dropped and lazily rebuilt on the new
        backend.  The chase (solver-free), compiled query engines and the
        answer/verdict memos survive — memoised answers are semantic facts
        about the specification, identical across backends (the
        backend-differential harness is what certifies that)."""
        resolved = resolve_backend(backend)
        if resolved == self.backend:
            return
        self.backend = resolved
        self._encoder = None
        self._space = None
        self.mutations += 1

    # ------------------------------------------------------------------ #
    # Snapshot / restore (warm-state hand-off)
    # ------------------------------------------------------------------ #
    def snapshot(self, detach: bool = True) -> SessionSnapshot:
        """Freeze this session's warm state as a picklable
        :class:`~repro.session.snapshot.SessionSnapshot`.

        Captures the live specification, the chase fixpoint, the encoder and
        search space with their warm CDCL solvers, the memoised harvests,
        compiled query engines,
        and the answer/verdict memos — everything another process needs to
        answer with zero re-solving.  With *detach* (the default) the
        snapshot shares nothing with this session, so later mutations here
        cannot corrupt it; ``detach=False`` skips the defensive copy for
        callers that serialise the snapshot immediately
        (:func:`~repro.session.snapshot.snapshot_bytes`)."""
        # a pending consistency recheck is an obligation, not state: discharge
        # it now so the snapshot's memo is served untested by the restorer
        self._discharge_consistency_recheck()
        answers = tuple(
            (query, method, answer)
            for (query, method), answer in self._answer_memo.items()
        )
        snapshot = SessionSnapshot(
            specification=self.specification,
            match_entities_by_eid=self.match_entities_by_eid,
            backend=self.backend,
            mutations=self.mutations,
            chase=self._chase,
            encoder=self._encoder,
            space=self._space,
            database_cache=self._database_cache,
            engines=tuple(self._engines.values()),
            answers=answers,
            verdicts=dict(self._verdict_memo),
            format_version=SNAPSHOT_FORMAT,
        )
        return snapshot.detach() if detach else snapshot

    @classmethod
    def restore(
        cls,
        snapshot: SessionSnapshot,
        copy: bool = True,
        backend: Optional[str] = None,
    ) -> "ReasoningSession":
        """A warm session resumed from *snapshot* — no chase, no re-encode,
        no re-solving; every memoised answer the donor had earned is hot.

        With *copy* (the default) the snapshot survives intact and can be
        restored again; ``copy=False`` moves its state into the session (the
        fast path for snapshots that just crossed a process boundary and have
        no other owner).  The engine table and answer memo key queries
        structurally, so value-equal queries built after the restore hit the
        donor's warm entries directly.

        Warm solver state is backend-specific, so a *backend* request that
        differs from the snapshot's recorded backend is refused (switch with
        :meth:`set_backend` after restoring, which rebuilds cold) — and a
        snapshot from a backend not registered in this process fails fast
        with the list of available engines."""
        if backend is not None and resolve_backend(backend) != snapshot.backend:
            raise SpecificationError(
                f"snapshot was taken on solver backend {snapshot.backend!r}; "
                f"refusing to restore it as {resolve_backend(backend)!r} "
                "(restore first, then set_backend() to switch cold)"
            )
        if copy:
            snapshot = snapshot.detach()
        session = cls(
            snapshot.specification,
            snapshot.match_entities_by_eid,
            backend=snapshot.backend,
        )
        session._chase = snapshot.chase
        session._encoder = snapshot.encoder
        if snapshot.space is not None:
            session.adopt_space(snapshot.space)
        session._database_cache = snapshot.database_cache
        session._engines = {engine.source: engine for engine in snapshot.engines}
        session._answer_memo = {
            (query, method): answer for query, method, answer in snapshot.answers
        }
        session._verdict_memo = dict(snapshot.verdicts)
        session.mutations = snapshot.mutations
        return session

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Substrate and cache statistics (benchmarks and diagnostics)."""
        info: Dict[str, Any] = {
            "mutations": self.mutations,
            "chase_cached": self._chase is not None,
            "encoder_built": self._encoder is not None,
            "space_built": self._space is not None,
            "engines": len(self._engines),
            "answer_memo_entries": len(self._answer_memo),
        }
        if self._space is not None:
            info["space"] = self._space.stats()
        return info

    def mutation_stats(self) -> Dict[str, int]:
        """Counters proving which invalidation arm each mutation took.

        ``memo_evicted`` / ``memo_retained`` count answer-memo entries across
        all mutations; ``chase/space/encoder_extended`` vs ``*_rebuilt``
        count the extend-vs-rebuild decisions; ``consistency_rechecks`` the warm probes that guarded retained state;
        ``footprint_relations`` / ``footprint_blocks`` the cumulative
        footprint sizes.  Benchmarks and chaos tests assert on these to prove
        the fast path was actually taken."""
        return dict(self._mutation_stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReasoningSession({self.specification!r}, "
            f"mutations={self.mutations})"
        )
