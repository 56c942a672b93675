"""SAT-encoded search over ``Ext(ρ)`` (Sections 4 and 5 of the paper).

The preservation problems all quantify over the extensions of a collection of
copy functions: CPP asks whether *every* consistent extension preserves the
certain current answers, ECP whether *some* currency-preserving extension
exists, and BCP whether one exists importing at most ``k`` tuples.  The seed
realisation (`repro.preservation.extensions.enumerate_extensions_naive`)
materialises every downward-closed subset of the candidate-import closure as
a fresh :class:`~repro.core.specification.Specification` and re-encodes each
one from scratch — exponential work even on the (frequent) subsets whose
``Mod(S^e)`` is empty.

:class:`ExtensionSearchSpace` instead encodes the *whole* search space once.
It is a :class:`~repro.solvers.order_encoding.CompletionEncoder` over the
*maximal* extension (every candidate of the
:func:`~repro.preservation.extensions.candidate_closure` applied — base
candidates *and* the derived candidates that only become importable once
their prerequisite import is present), plus one **selector variable** per
candidate import.  The encoder's presence-guard hook returns the selectors,
so every clause the encoder emits about an imported tuple only binds when
that import is selected; with an empty closure the space encodes exactly
what the base encoder does.  What the space adds:

=====================  =====================================================
Paper notion           Clauses
=====================  =====================================================
``ρ^e`` extends ρ      selector variable ``("sel", i)`` per closure candidate
                       ``i``; a model's selector assignment *is* an element
                       of ``Ext(ρ)`` (the empty selection is ρ itself)
chained imports        one implication ``selector(derived) ⟹
                       selector(prerequisite)`` per derived candidate, so
                       every model is downward closed and chained
                       specifications run CPP/ECP/BCP entirely in-space
completion of S^e      the encoder's pair, denial and copy clauses over the
                       maximal extension.  The pair variables order the
                       whole block, absent imports included: a total order
                       of the present tuples together with the acyclic
                       given order always extends to the whole block, so
                       this loses no completion.  Groundings and copy
                       implications are gated on the selectors of the
                       imported tuples involved, so absent tuples constrain
                       nothing else
``LST(D^c)``           the encoder's value columns for every instance, with
                       ``max ⟹ present`` for imported tuples; certain
                       answers per selection are refuted on them (SP
                       queries) or intersected over the current databases
                       enumerated as models projected onto the value
                       variables
``|ρ^e| ≤ |ρ| + k``    a sequential-counter order encoding of the selector
                       count (``("cnt", i, j)`` ⟺ "≥ j of the first i
                       selectors hold") over *all* closure selectors; the
                       bound ``k`` is one assumption literal
                       ``¬("cnt", n, k+1)``, so BCP bound sweeps reuse the
                       warm solver
=====================  =====================================================

All questions run on the encoder's **one incremental solver**:

* consistency probes (``Mod(S^e) ≠ ∅``) are `solve(assumptions=selectors)`
  calls — by upward monotonicity of inconsistency a positive-only probe is
  exact, and :meth:`~repro.solvers.sat.Solver.analyze_final` then names the
  imports that jointly force the inconsistency or bound violation;
* the base problems (CPS, COP, DCIP) are the inherited encoder questions
  under the exact empty selection;
* enumeration (of consistent extensions, and of current databases per
  extension) and refutation (of certain answers per extension) add blocking
  or refuting clauses gated behind a fresh activation literal per pass, so
  everything the solver learns stays warm across the whole CPP/ECP/BCP
  decision.

The seed enumerator is retained as the reference oracle; the property-based
harness in ``tests/property/test_extension_search.py`` checks both engines
agree on randomized specifications.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.specification import Specification
from repro.exceptions import SolverError, SpecificationError
from repro.preservation.extensions import (
    CandidateClosure,
    CandidateImport,
    SpecificationExtension,
    apply_imports,
    candidate_closure,
)
from repro.query.engine import QueryEngine
from repro.solvers.backend import resolve_backend
from repro.solvers.order_encoding import CompletionEncoder

__all__ = ["ExtensionSearchSpace", "space_for", "SEARCHES"]

Selection = Tuple[int, ...]

#: Search-engine selector shared by the CPP/ECP/BCP entry points.
SEARCHES = ("auto", "sat", "naive")

#: Bound on the memoised consistent-selection enumeration; a larger family is
#: streamed on every pass instead of pinned in memory (the huge-family BCP
#: fallback must stay time-bounded, never memory-bounded).
_SELECTION_MEMO_CAP = 100_000

def space_for(
    specification: Specification,
    match_entities_by_eid: bool,
    space: Optional["ExtensionSearchSpace"],
    backend: Optional[str] = None,
) -> "ExtensionSearchSpace":
    """*space* validated against (specification, flag), or a fresh space.

    The decision procedures accept a pre-built space so one warm solver
    serves a whole CPP/ECP/BCP conversation; a space built for a different
    specification or entity-matching mode would silently answer the wrong
    question, so mismatches are rejected here.  The comparison is
    *structural* (:meth:`Specification.__eq__`): a caller that rebuilds a
    value-identical specification keeps the warm solver instead of being
    rejected over object identity.  *backend*, when given, must match the
    supplied space's solver backend — warm state never silently migrates
    between engines.
    """
    if space is None:
        # reprolint: allow(R4) — space_for IS the blessed factory warm callers go through
        return ExtensionSearchSpace(
            specification, match_entities_by_eid=match_entities_by_eid, backend=backend
        )
    # reprolint: allow(R2) — identity fast path in front of the structural comparison
    if space.specification is not specification and space.specification != specification:
        raise SpecificationError(
            "the supplied extension search space was built for a different specification"
        )
    if space.match_entities_by_eid != match_entities_by_eid:
        raise SpecificationError(
            "the supplied extension search space uses a different entity-matching mode"
        )
    if backend is not None and space.backend != resolve_backend(backend):
        raise SpecificationError(
            f"the supplied extension search space uses solver backend "
            f"{space.backend!r}, not {resolve_backend(backend)!r}"
        )
    return space


class ExtensionSearchSpace(CompletionEncoder):
    """One warm SAT encoding of the extension search space of a specification.

    Parameters
    ----------
    specification:
        The base specification ``S`` (never mutated).
    match_entities_by_eid:
        Forwarded to :func:`~repro.preservation.extensions.candidate_closure`;
        must match the flag used by the naive path being replaced.

    A *selection* is a tuple of candidate indices (into :attr:`candidates`,
    which spans the whole candidate-import closure — derived candidates
    included); the empty selection denotes ρ itself (``S^∅ = S``).  Every
    model of the encoding is downward closed (implication clauses force each
    derived candidate's prerequisite), so solver-produced selections are
    always valid elements of ``Ext(ρ)``; a hand-built selection missing a
    prerequisite simply has no models under *exact* assumptions, and its
    positive-only consistency probes decide its downward closure.
    """

    #: Total spaces ever built (class-wide).  The decision procedures are
    #: expected to run whole CPP/ECP/BCP conversations on *one* space; the
    #: counter lets tests and benchmarks assert that no code path silently
    #: re-encodes from scratch (the pre-closure BCP fallback did).
    constructions = 0


    def __init__(
        self,
        specification: Specification,
        match_entities_by_eid: bool = True,
        backend: Optional[str] = None,
    ) -> None:
        type(self).constructions += 1
        self.match_entities_by_eid = match_entities_by_eid
        self.closure: CandidateClosure = candidate_closure(
            specification, match_entities_by_eid=match_entities_by_eid
        )
        self.candidates: List[CandidateImport] = list(self.closure.candidates)
        #: derived candidate index -> index of the import creating its source
        self.prerequisites: Dict[int, int] = dict(self.closure.prerequisites)
        self.full_extension: SpecificationExtension = self.closure.extension
        self._selector_vars: List[int] = []
        # (instance name, imported tid) -> candidate index
        self._selector_by_tid: Dict[Tuple[str, Hashable], int] = {}
        #: how many selectors the sequential counter currently covers; the
        #: counter is chained, so :meth:`_ensure_counter` can *top it up* when
        #: :meth:`extend_with_tuples` grows the selector universe
        self._counter_size = 0
        self._answer_cache: Dict[Tuple[Any, FrozenSet[int]], Optional[FrozenSet]] = {}
        # the complete ⊆-maximal harvest, memoised by
        # maximal_consistent_selections() so ECP's greedy and repeated BCP
        # sweeps reuse it without further SAT calls
        self._maximal_cache: Optional[List[Selection]] = None
        # the complete consistent-selection enumeration, memoised after the
        # first exhaustive pass; restricted calls (max_imports / supersets_of)
        # filter it exactly — every cached selection is downward closed, so
        # "contains the given indices" and "size ≤ bound" are the precise
        # solver-side semantics
        self._selection_cache: Optional[List[Selection]] = None
        #: whether any *derived* candidate actually exists — computed from the
        #: closure itself, not from the copy-function graph, so a spec whose
        #: graph could chain but whose chained sources have nothing importable
        #: is (correctly) reported unchained
        self.has_chained_candidates = bool(self.prerequisites)
        super().__init__(specification, backend=backend)

    @property
    def full(self) -> Specification:
        """The maximal extension S^full — every closure candidate applied."""
        return self.full_extension.specification

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def selector(self, index: int) -> int:
        """The selector variable of candidate import *index*."""
        return self._selector_vars[index]

    def _guards(self, instance: str, tids: Iterable[Hashable]) -> List[int]:
        """Presence guards: ``¬sel`` literals for the imported tuples among
        *tids* (base tuples are always present and contribute nothing)."""
        literals: List[int] = []
        for tid in tids:
            index = self._selector_by_tid.get((instance, tid))
            if index is not None:
                literals.append(-self._selector_vars[index])
        return literals

    def _add_selectors(self, first: int) -> None:
        """Selector variables and prerequisite implications for the
        candidates from index *first* on."""
        targets = {cf.name: cf.target for cf in self.specification.copy_functions}
        for index in range(first, len(self.candidates)):
            candidate = self.candidates[index]
            self._selector_vars.append(self.cnf.variable(("sel", index)))
            self._selector_by_tid[
                (targets[candidate.copy_function], candidate.new_tid())
            ] = index
        # chained imports: a derived candidate is only importable once the
        # import creating its source tuple is present
        for derived, prerequisite in self.prerequisites.items():
            if derived >= first:
                self.cnf.add_clause(
                    [-self._selector_vars[derived], self._selector_vars[prerequisite]]
                )

    def _build(self) -> None:
        self._add_selectors(0)
        super()._build()
        self.encode_value_columns(self.full.instances)

    # ------------------------------------------------------------------ #
    # Cardinality (sequential counter over the selectors)
    # ------------------------------------------------------------------ #
    def _count_var(self, i: int, j: int) -> int:
        """``("cnt", i, j)`` ⟺ at least *j* of the first *i* selectors hold."""
        return self.cnf.variable(("cnt", i, j))

    def _ensure_counter(self) -> None:
        if self._counter_size >= len(self._selector_vars):
            return
        cnf = self.cnf
        for i in range(self._counter_size + 1, len(self._selector_vars) + 1):
            x = self._selector_vars[i - 1]
            for j in range(1, i + 1):
                s_ij = self._count_var(i, j)
                if j == 1:
                    cnf.add_clause([-x, s_ij])
                    reverse = [-s_ij, x]
                else:
                    cnf.add_clause([-x, -self._count_var(i - 1, j - 1), s_ij])
                    cnf.add_clause(
                        [-s_ij, self._count_var(i - 1, j - 1)]
                        + ([self._count_var(i - 1, j)] if j <= i - 1 else [])
                    )
                    reverse = [-s_ij, x]
                if j <= i - 1:
                    cnf.add_clause([-self._count_var(i - 1, j), s_ij])
                    reverse.append(self._count_var(i - 1, j))
                cnf.add_clause(reverse)
        self._counter_size = len(self._selector_vars)

    def bound_assumption(self, max_imports: int) -> Optional[int]:
        """The assumption literal enforcing ``|selection| ≤ max_imports``, or
        None when the bound is not binding (``max_imports ≥ |candidates|``)."""
        if max_imports < 0:
            raise SpecificationError("the import bound must be non-negative")
        if max_imports >= len(self._selector_vars):
            return None
        self._ensure_counter()
        return -self._count_var(len(self._selector_vars), max_imports + 1)

    # ------------------------------------------------------------------ #
    # Probes
    # ------------------------------------------------------------------ #
    def _selection_literals(self, selection: Sequence[int], exact: bool) -> List[int]:
        chosen = set(selection)
        for index in chosen:
            if not 0 <= index < len(self._selector_vars):
                raise SolverError(f"unknown candidate-import index {index}")
        if exact:
            return [
                var if index in chosen else -var
                for index, var in enumerate(self._selector_vars)
            ]
        return [self._selector_vars[index] for index in sorted(chosen)]

    def selection_consistent(self, selection: Sequence[int] = ()) -> bool:
        """Whether ``Mod(S^selection)`` is non-empty.

        The probe assumes only the *positive* selectors: adding imports only
        adds constraints, so inconsistency is upward monotone over selections
        and the positive-only probe is exact — and its
        :meth:`~repro.solvers.sat.Solver.analyze_final` core names imports.
        Derived candidates force their prerequisites through the implication
        clauses, so for a selection that is not downward closed the probe
        decides its downward closure (the smallest extension realising it).
        """
        assumptions = self._deactivations() + self._selection_literals(selection, exact=False)
        return self._solve(assumptions) is not None

    def inconsistency_core(self, selection: Sequence[int]) -> Optional[List[CandidateImport]]:
        """The imports of *selection* that jointly force ``Mod(S^e) = ∅``, or
        None when the selection is consistent."""
        if self.selection_consistent(selection):
            return None
        core = self.solver.analyze_final() or []
        positions = {var: index for index, var in enumerate(self._selector_vars)}
        return [self.candidates[positions[lit]] for lit in core if lit in positions]

    def bounded_selection_core(
        self, required: Sequence[int], max_imports: int
    ) -> Optional[Tuple[List[CandidateImport], bool]]:
        """Why importing *required* within *max_imports* total imports fails.

        Returns None when a consistent extension containing *required* with at
        most *max_imports* imports exists; otherwise ``(imports, bound_hit)``
        where *imports* are the required imports in the solver's assumption
        core and *bound_hit* tells whether the size bound itself participates
        (extracted with :meth:`~repro.solvers.sat.Solver.analyze_final`).
        """
        assumptions = self._deactivations() + self._selection_literals(required, exact=False)
        bound = self.bound_assumption(max_imports)
        if bound is not None:
            assumptions.append(bound)
        if self._solve(assumptions) is not None:
            return None
        core = self.solver.analyze_final() or []
        positions = {var: index for index, var in enumerate(self._selector_vars)}
        imports = [self.candidates[positions[lit]] for lit in core if lit in positions]
        return imports, bound is not None and bound in core

    # ------------------------------------------------------------------ #
    # Incremental mutation (the session facade's dependency map)
    # ------------------------------------------------------------------ #
    def _invalidate_derived_caches(self) -> None:
        self._answer_cache.clear()
        self._maximal_cache = None
        self._selection_cache = None

    # the candidate closure is order- and denial-independent, so both
    # mutations are the encoder's additive deltas over the maximal extension
    add_order = CompletionEncoder.add_order_pair
    add_denial = CompletionEncoder.add_denial_constraint

    def add_tuples_incremental(
        self, instance_name: str, tids: Sequence[Hashable]
    ) -> bool:
        """The space's tuple delta, :meth:`extend_with_tuples`."""
        return self.extend_with_tuples(instance_name, tids)

    def extend_with_tuples(self, instance_name: str, tids: Iterable[Hashable]) -> bool:
        """Try to extend the warm encoding after tuples were added to
        *instance_name* of the (shared, already-mutated) base specification.

        Returns True when the delta landed on the warm solver, False when the
        caller must rebuild the space from scratch.  The delta is sound only
        when the recomputed candidate closure *extends* the encoded one — same
        candidates at the same indices, same prerequisites, possibly new
        candidates appended (a new source tuple can admit new imports).  Any
        other shape change (reordered candidates, rewired prerequisites)
        falls back to rebuild.

        On success the encoding grows strictly additively: one selector
        variable and prerequisite implication per appended candidate (the
        sequential counter, if built, is topped up lazily by
        :meth:`_ensure_counter`), then the encoder's delta for every fresh
        tuple of the maximal extension — the explicit adds plus every newly
        admitted candidate import
        (:meth:`~repro.solvers.order_encoding.CompletionEncoder._encode_fresh_tuples`).
        """
        new_tids = set(tids)
        new_closure = candidate_closure(
            self.specification, match_entities_by_eid=self.match_entities_by_eid
        )
        new_candidates = list(new_closure.candidates)
        n_old = len(self.candidates)
        if len(new_candidates) < n_old or new_candidates[:n_old] != self.candidates:
            return False
        new_prerequisites = dict(new_closure.prerequisites)
        for index in range(n_old):
            if new_prerequisites.get(index) != self.prerequisites.get(index):
                return False
        old_tids = {name: set(inst.tids()) for name, inst in self.full.instances.items()}
        if set(self.specification.instance_names()) != set(old_tids):
            return False  # an instance appeared or vanished: not a tuple delta
        self.closure = new_closure
        self.candidates = new_candidates
        self.prerequisites = new_prerequisites
        self.full_extension = new_closure.extension
        self.has_chained_candidates = bool(self.prerequisites)
        self._add_selectors(n_old)
        fresh: Dict[str, Set[Hashable]] = {}
        for name, instance in self.full.instances.items():
            added = set(instance.tids()) - old_tids[name]
            if added:
                fresh[name] = added
        if new_tids - fresh.get(instance_name, set()):
            return False  # the "new" tids were already encoded: stale caller
        self._encode_fresh_tuples(fresh)
        self._invalidate_derived_caches()
        return True

    # ------------------------------------------------------------------ #
    # Enumeration
    # ------------------------------------------------------------------ #
    def iterate_consistent_selections(
        self,
        max_imports: Optional[int] = None,
        supersets_of: Sequence[int] = (),
        limit: Optional[int] = None,
    ) -> Iterator[Selection]:
        """Enumerate the selections with ``Mod(S^e) ≠ ∅`` (the empty selection
        included when the base specification is consistent).

        Runs on the shared solver, projected onto the selector variables with
        activation-literal-gated blocking clauses — learnt state survives both
        between models and between enumeration passes.  Every enumerated
        selection is downward closed (the implication clauses admit no other
        models), so for chained specifications this walks exactly the
        consistent elements of ``Ext(ρ)`` including derived imports.
        *supersets_of* restricts to selections containing the given candidate
        indices (plus, implicitly, their prerequisites); *max_imports* bounds
        the selection size via the counter encoding.  BCP normally regenerates
        the consistent family from :meth:`maximal_consistent_selections` in
        plain Python and only streams restricted sweeps through here when
        that family is too large to materialise.

        The first pass that runs to exhaustion with no restrictions memoises
        the complete enumeration; later passes — restricted ones included,
        since every selection is downward closed and the restrictions are
        plain subset/size predicates on it — replay the cached list with zero
        SAT work.
        """
        if self._selection_cache is not None:
            required = self.closure.downward_closure(supersets_of)
            produced = 0
            for selection in self._selection_cache:
                if max_imports is not None and len(selection) > max_imports:
                    continue
                if not required <= set(selection):
                    continue
                yield selection
                produced += 1
                if limit is not None and produced >= limit:
                    return
            return
        unrestricted = max_imports is None and not supersets_of and limit is None
        collected: Optional[List[Selection]] = [] if unrestricted else None
        fixed = self._selection_literals(supersets_of, exact=False)
        if max_imports is not None:
            bound = self.bound_assumption(max_imports)
            if bound is not None:
                fixed.append(bound)
        activation = self._new_activation()
        solver = self.solver
        produced = 0
        try:
            while True:
                model = self._solve(self._pass_assumptions(activation) + fixed)
                if model is None:
                    if collected is not None:
                        self._selection_cache = collected
                    return
                selection = tuple(
                    index
                    for index, var in enumerate(self._selector_vars)
                    if model.get(var, False)
                )
                blocking = [-activation] + [
                    -var if model.get(var, False) else var
                    for var in self._selector_vars
                ]
                if not solver.add_clause(blocking):
                    return  # root-level conflict: keep the seed semantics, no cache
                if collected is not None:
                    collected.append(selection)
                    if len(collected) > _SELECTION_MEMO_CAP:
                        collected = None  # too many to pin; stream every pass
                yield selection
                produced += 1
                if limit is not None and produced >= limit:
                    return
        finally:
            self._retire_activation(activation)

    def maximal_consistent_selections(
        self, limit: Optional[int] = None
    ) -> Optional[List[Selection]]:
        """The ⊆-maximal consistent selections, or None when *limit* is hit.

        Consistency is downward monotone over selections, so the consistent
        part of ``Ext(ρ)`` is exactly the union of the downward-closed subsets
        of these maxima
        (:meth:`~repro.preservation.extensions.CandidateClosure.closed_subsets`)
        — BCP exploits this to walk the whole consistent space with a handful
        of SAT calls instead of one projected model per selection.

        Each round takes one model from the shared solver, greedily extends
        its selection to a maximal one (:meth:`extend_to_maximal`), and blocks
        it with an activation-gated clause requiring some selector outside it;
        each maximal selection is produced exactly once.  The number of maxima
        can itself be exponential (mutually exclusive candidate pairs);
        *limit* lets callers abandon the harvest — None is returned the moment
        more than *limit* maxima exist, so a pathological space costs at most
        ``limit + 1`` rounds.

        A *complete* harvest is memoised on the space, so later callers — a
        second BCP sweep, ECP's :meth:`greedy_maximal_selection` — get it back
        without any further SAT work.
        """
        if self._maximal_cache is not None:
            if limit is not None and len(self._maximal_cache) > limit:
                return None
            return list(self._maximal_cache)
        activation = self._new_activation()
        solver = self.solver
        maximal: List[Selection] = []
        universe = range(len(self._selector_vars))

        def complete(harvest: List[Selection]) -> List[Selection]:
            self._maximal_cache = list(harvest)
            return harvest

        try:
            while True:
                model = self._solve(self._pass_assumptions(activation))
                if model is None:
                    return complete(maximal)
                chosen = set(
                    self.extend_to_maximal(
                        index
                        for index, var in enumerate(self._selector_vars)
                        if model.get(var, False)
                    )
                )
                maximal.append(tuple(sorted(chosen)))
                if limit is not None and len(maximal) > limit:
                    return None
                outside = [self._selector_vars[i] for i in universe if i not in chosen]
                if not outside:  # every candidate imported: nothing above it
                    return complete(maximal)
                if not solver.add_clause([-activation] + outside):
                    return complete(maximal)
        finally:
            self._retire_activation(activation)

    def extend_to_maximal(self, selection: Iterable[int]) -> Selection:
        """Greedily extend a consistent *selection* to a ⊆-maximal consistent
        one, probing candidates in index order (exact: consistency is
        downward monotone, so a positive-assumption probe per candidate
        decides whether it still fits above the current selection)."""
        chosen = set(selection)
        for index in range(len(self._selector_vars)):
            if index not in chosen and self.selection_consistent(sorted(chosen | {index})):
                chosen.add(index)
        return tuple(sorted(chosen))

    def greedy_maximal_selection(self) -> List[int]:
        """The selection the index-order greedy construction produces — the
        ECP witness of Proposition 5.2.

        When the complete ⊆-maximal harvest is memoised (a BCP sweep ran
        first), the greedy run needs **zero** SAT calls: ``chosen ∪ {i}`` is
        consistent iff it is contained in some maximal consistent selection
        (downward monotonicity), so each step is a subset test against the
        harvest.  Otherwise it falls back to one consistency probe per
        candidate on the warm solver — identical output either way.
        """
        if self._maximal_cache is not None:
            maxima = [set(selection) for selection in self._maximal_cache]
            chosen: List[int] = []
            chosen_set: Set[int] = set()
            for index in range(len(self._selector_vars)):
                trial = chosen_set | {index}
                if any(trial <= top for top in maxima):
                    chosen.append(index)
                    chosen_set.add(index)
            return chosen
        chosen = []
        for index in range(len(self._selector_vars)):
            if self.selection_consistent(chosen + [index]):
                chosen.append(index)
        return chosen

    def extension(self, selection: Sequence[int]) -> SpecificationExtension:
        """The :class:`SpecificationExtension` realising *selection*."""
        return apply_imports(
            self.specification, [self.candidates[index] for index in sorted(set(selection))]
        )

    # ------------------------------------------------------------------ #
    # Certain answers per extension
    # ------------------------------------------------------------------ #
    def certain_answers(
        self, engine: QueryEngine, selection: Sequence[int] = ()
    ) -> Optional[FrozenSet]:
        """Certain current answers of the engine's query w.r.t.
        ``S^selection``, or None when ``Mod(S^selection)`` is empty — the
        encoder's refutation (SP queries) or enumeration, memoised per
        (engine, selection) until the next mutation, so the BCP sweep after
        a CPP re-reads the answers CPP computed."""
        key = (engine, frozenset(selection))
        if key not in self._answer_cache:
            self._answer_cache[key] = super().certain_answers(engine, selection)
        return self._answer_cache[key]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Encoding and solver statistics (benchmarks and diagnostics)."""
        info: Dict[str, Any] = {
            "candidates": len(self.candidates),
            "derived_candidates": len(self.prerequisites),
            "closure_depth": max(self.closure.depths, default=0),
            "variables": self.cnf.num_variables,
            "clauses": len(self.cnf.clauses),
            "active_passes": len(self._activation_literals),
            "answer_cache_entries": len(self._answer_cache),
            "maximal_harvest_cached": self._maximal_cache is not None,
            "selection_enumeration_cached": self._selection_cache is not None,
            "regenerated_blocks": len(self._maximality_generation),
            "constructions": type(self).constructions,
        }
        if self._solver is not None:
            info["solver"] = self._solver.stats()
        return info

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExtensionSearchSpace({len(self.candidates)} candidates, "
            f"{self.cnf.num_variables} variables, {len(self.cnf.clauses)} clauses)"
        )
