"""Boolean encoding of consistent completions (the SAT back-end).

The encoding follows the guess-and-check algorithm in the proof of
Theorem 3.1: a completion is a choice, per instance and attribute, of a total
order on every entity block that extends the given partial currency order,
satisfies the (grounded) denial constraints, and is ≺-compatible with the copy
functions.  Each *unordered* pair of same-entity tuples becomes one Boolean
variable, named after the orientation allocated first

    ``(instance_name, attribute, lower_tid, upper_tid)``

whose positive literal reads ``lower ≺ upper`` and whose negative literal
reads ``upper ≺ lower`` — antisymmetry and totality hold by construction.
The remaining well-formedness conditions become clauses:

* transitivity, lazily: two clauses per unordered triple of a block forbid
  its two cyclic orientations (a tournament without 3-cycles is a total
  order), but a block gets them only once a model orders it with a 3-cycle
  (counterexample-guided refinement, see :meth:`CompletionEncoder._solve`),
* unit clauses for the given partial orders,
* grounded denial-constraint implications,
* copy-function ≺-compatibility implications.

A model decodes back into a full consistent completion.  On top, the
*value columns* read a completion's current database: per entity and
attribute, one maximality variable per tuple and one value variable per
distinct value (see :meth:`CompletionEncoder.encode_value_columns`), so
current databases are enumerated as models projected onto the value
variables, and certain answers to SP queries and DCIP are decided by
refutation on them: a model, then gated solves for a current database that
differs (:meth:`CompletionEncoder.certain_answers`).

This is the one encoding of completions.  The extension search space of the
preservation problems (:class:`~repro.preservation.sat_extensions.ExtensionSearchSpace`)
subclasses :class:`CompletionEncoder`: it encodes the *maximal* extension and
gates every clause that involves an imported tuple on that import's selector
through the :meth:`CompletionEncoder._guards` hook.  The base encoder's
guards are empty, so a space with an empty candidate closure encodes exactly
what the base encoder does.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Any, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.completion import CurrentDatabaseCache
from repro.core.copy_function import CopyFunction
from repro.core.denial import DenialConstraint
from repro.core.instance import NormalInstance, TemporalInstance
from repro.core.specification import Specification
from repro.exceptions import SolverError
from repro.query.ast import SPQuery
from repro.query.engine import QueryEngine
from repro.solvers.backend import SolverBackend, create_solver, resolve_backend
from repro.solvers.cnf import CNF
from repro.solvers.sat import Model

__all__ = ["PairVariable", "CompletionEncoder"]

PairVariable = Tuple[str, str, Hashable, Hashable]
#: one entity block of one attribute: ``(instance, attribute, eid)``
BlockKey = Tuple[str, str, Hashable]

#: one entity's value columns: ``(eid, [(attribute, [(value, value variable)])])``
ValueSlot = Tuple[Any, List[Tuple[str, List[Tuple[Any, int]]]]]


class CompletionEncoder:
    """Encode ``Mod(S) ≠ ∅`` (and refinements of it) as CNF satisfiability.

    The encoder owns one incremental solver that is kept in sync with
    ``self.cnf``: clauses added after construction (mutation deltas, value
    columns, gated clauses) are fed to it lazily, and clauses the solver
    *learns* while answering one question keep pruning the search for every
    later question on the same encoder.  :meth:`satisfiable` accepts
    *assumptions* — named currency pairs temporarily forced true — so
    per-candidate probes (e.g. "can tuple t be maximal?") reuse one warm
    solver instead of re-encoding the specification per candidate.

    The encoding only ever grows: every mutation the session facade supports
    (orders, denial constraints, copy functions, tuples) is an additive
    delta, and a grown block's value columns are re-encoded under a new
    generation, so the encoder never has to be rebuilt.
    """

    def __init__(self, specification: Specification, backend: Optional[str] = None) -> None:
        self.specification = specification
        #: resolved solver backend name (see :mod:`repro.solvers.backend`)
        self.backend = resolve_backend(backend)
        self.cnf = CNF()
        self._solver: Optional[SolverBackend] = None
        self._fed_clauses = 0
        self._cached_model: Optional[Tuple[int, Optional[Model]]] = None
        #: activation literals of the gated passes still open (enumerations
        #: and gated probes); every other solve assumes their negation
        self._activation_literals: List[int] = []
        #: the per-candidate literals of refutation passes, reused by every
        #: pass (each pass gates their clauses behind its own activation)
        self._absence_pool: List[int] = []
        #: instance -> per-entity value columns, for the instances whose
        #: current databases are enumerated
        self._value_slots: Dict[str, List[ValueSlot]] = {}
        #: (instance, eid) -> value-column generation.  A block that gains
        #: tuples is re-encoded with fresh generation-suffixed max/value
        #: variables (CNF clauses cannot be retracted); absent means the
        #: first generation 0 is still current.
        self._maximality_generation: Dict[Tuple[str, Hashable], int] = {}
        #: decoded current instances, interned by value so that databases
        #: sharing an instance share its column indexes too
        self._instance_cache = CurrentDatabaseCache()
        #: both orientations of every encoded pair -> its literal (+v for
        #: the orientation allocated first, -v for the other)
        self._pairs: Dict[PairVariable, int] = {}
        #: every block's tids and pair edges ``(i, j, v)``: variable v reads
        #: ``tids[i] ≺ tids[j]``
        self._blocks: Dict[BlockKey, Tuple[List[Hashable], List[Tuple[int, int, int]]]] = {}
        #: the blocks whose transitivity triples are in ``self.cnf``
        self._refined: Set[BlockKey] = set()
        self._build()

    @property
    def full(self) -> Specification:
        """The specification whose tuples the clauses range over."""
        return self.specification

    # ------------------------------------------------------------------ #
    # Hooks (overridden by the extension search space)
    # ------------------------------------------------------------------ #
    def _guards(self, instance: str, tids: Iterable[Hashable]) -> List[int]:
        """Presence guards: literals that release a clause when one of the
        tuples *tids* is absent.  Every tuple of the base specification is
        present, so there are none."""
        return []

    def _selection_literals(self, selection: Sequence[int], exact: bool) -> List[int]:
        """Assumptions fixing the candidate imports of *selection*; the base
        encoding has no candidates, so only the empty selection exists."""
        for index in selection:
            raise SolverError(f"unknown candidate-import index {index}")
        return []

    def _invalidate_derived_caches(self) -> None:
        """Drop answers memoised over the encoding (the base keeps none)."""

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def _pair(self, instance: str, attribute: str, lower: Hashable, upper: Hashable) -> int:
        """The literal of ``lower ≺_attribute upper`` in *instance*.

        The first orientation asked for names the pair's one variable; the
        other orientation is its negation.  Which comes first follows the
        encoding's (deterministic) iteration order, never a comparison of
        tids, which may have mixed types."""
        key = (instance, attribute, lower, upper)
        literal = self._pairs.get(key)
        if literal is None:
            literal = self.cnf.variable(key)
            self._pairs[key] = literal
            self._pairs[(instance, attribute, upper, lower)] = -literal
        return literal

    def _pair_literal(self, pair: PairVariable, positive: bool = True) -> int:
        literal = self._pairs.get(pair)
        if literal is None:
            # allocating a fresh unconstrained variable here would make the
            # probe vacuously satisfiable — reject caller mistakes
            # (cross-entity or unknown pairs are never encoded)
            raise SolverError(f"currency pair {pair!r} is not part of the encoding")
        return literal if positive else -literal

    def _encode_block(
        self, name: str, attribute: str, eid: Hashable, new: Iterable[Hashable]
    ) -> None:
        """Pair variables for the tuples *new* joining the block of *eid*:
        every pair involving a new tuple, exactly once.  A block that is
        already refined gets the triples involving a new tuple at once."""
        key = (name, attribute, eid)
        tids, edges = self._blocks.setdefault(key, ([], []))
        first = len(tids)
        for tid in new:
            j = len(tids)
            for i, other in enumerate(tids):
                literal = self._pair(name, attribute, other, tid)
                edges.append((i, j, literal) if literal > 0 else (j, i, -literal))
            tids.append(tid)
        if key in self._refined:
            self._encode_triples(key, first)

    def _encode_triples(self, key: BlockKey, first: int = 0) -> None:
        """Transitivity for the triples of block *key* whose last tuple sits
        at position *first* or later: a tournament is a total order iff it
        has no 3-cycle, so forbid ``a ≺ b ≺ c ≺ a`` and ``a ≺ c ≺ b ≺ a``."""
        tids, edges = self._blocks[key]
        precedes = [[0] * len(tids) for _ in tids]
        for i, j, var in edges:
            precedes[i][j], precedes[j][i] = var, -var
        add_clause = self.cnf.add_clause
        for c in range(first, len(tids)):
            for a, b in combinations(range(c), 2):
                ab, bc, ac = precedes[a][b], precedes[b][c], precedes[a][c]
                add_clause([-ab, -bc, ac])
                add_clause([ab, bc, -ac])

    def _cyclic_blocks(self, model: Model) -> List[BlockKey]:
        """The unrefined blocks that *model* orders with a 3-cycle.  A
        tournament on n tuples is transitive iff its win counts are exactly
        ``0..n-1``."""
        cyclic: List[BlockKey] = []
        for key, (tids, edges) in self._blocks.items():
            if len(tids) < 3 or key in self._refined:
                continue
            wins = [0] * len(tids)
            for i, j, var in edges:
                wins[j if model.get(var, False) else i] += 1
            if len(set(wins)) < len(tids):
                cyclic.append(key)
        return cyclic

    def _build(self) -> None:
        full = self.full
        for name, instance in full.instances.items():
            self._encode_instance(name, instance)
        for name in full.instances:
            for constraint in full.constraints_for(name):
                self._encode_denial_constraint(name, constraint)
        for copy_function in full.copy_functions:
            self._encode_copy_function(copy_function)

    def _encode_instance(self, name: str, instance: TemporalInstance) -> None:
        for attribute in instance.schema.attributes:
            # totality and transitivity hold for the whole block, absent
            # candidate imports included: a total order of the present tuples
            # and the (acyclic, transitively closed) given order always extend
            # to one of the whole block
            for eid in instance.entities():
                self._encode_block(name, attribute, eid, instance.entity_tids(eid))
            # the given partial currency order must be extended
            for lower, upper in instance.order(attribute).pairs():
                self.cnf.add_clause([self._pair(name, attribute, lower, upper)])

    def _same_entity(
        self, instance: TemporalInstance, lower: Hashable, upper: Hashable
    ) -> bool:
        return (
            lower != upper
            and instance.tuple_by_tid(lower).eid == instance.tuple_by_tid(upper).eid
        )

    def _encode_denial_constraint(
        self,
        name: str,
        constraint: DenialConstraint,
        only_tids: Optional[Set[Hashable]] = None,
    ) -> None:
        """Ground one denial constraint into implications, each gated on the
        presence of its grounding's *support* tuples.

        *only_tids*, when given, restricts to groundings whose support
        involves those tuple ids — the additive delta after tuples were
        added, which must not duplicate the groundings already encoded.
        """
        instance = self.full.instance(name)
        grounded = instance
        if only_tids is not None:
            # a grounding assigns tuples of one entity, so only the blocks of
            # the new tuples can ground over them (kept in instance order)
            eids = {instance.tuple_by_tid(tid).eid for tid in only_tids}
            grounded = TemporalInstance(
                instance.schema,
                [tup for eid in instance.entities() if eid in eids
                 for tup in instance.entity_block(eid)],
            )
        for implication, support in constraint.grounded_implications_with_support(
            grounded
        ):
            if only_tids is not None and only_tids.isdisjoint(support):
                continue
            guards = self._guards(name, support)
            premises: List[int] = []
            vacuous = False
            for attribute, lower, upper in implication.premises:
                if not self._same_entity(instance, lower, upper):
                    vacuous = True  # the premise can never hold
                    break
                premises.append(-self._pair(name, attribute, lower, upper))
            if vacuous:
                continue
            head = implication.head
            if head is None:
                self.cnf.add_clause(guards + premises)
                continue
            attribute, lower, upper = head
            if not self._same_entity(instance, lower, upper):
                # the head can never be satisfied: the premises must fail
                self.cnf.add_clause(guards + premises)
            else:
                self.cnf.add_clause(
                    guards + premises + [self._pair(name, attribute, lower, upper)]
                )

    def _encode_copy_function(
        self,
        copy_function: CopyFunction,
        only_new: Optional[Dict[str, Set[Hashable]]] = None,
    ) -> None:
        """≺-compatibility implications of one copy function, gated on the
        presence of the mapped tuples involved.

        With *only_new* (instance -> freshly added tuple ids), only
        implications touching a fresh tuple are emitted — fresh unmapped
        tuples contribute nothing, but fresh *mapped* tuples (imports)
        extend the mapping and their implications must land on the warm
        solver.
        """
        target = self.full.instance(copy_function.target)
        source = self.full.instance(copy_function.source)
        src_new: Set[Hashable] = set()
        tgt_new: Set[Hashable] = set()
        if only_new is not None:
            src_new = only_new.get(copy_function.source, set())
            tgt_new = only_new.get(copy_function.target, set())
            if not src_new and not tgt_new:
                return
        # compatibility_implications yields only distinct same-entity source
        # pairs and distinct same-entity target pairs
        for (src_attr, s1, s2), (tgt_attr, t1, t2) in copy_function.compatibility_implications(
            target, source
        ):
            if only_new is not None and not (
                s1 in src_new or s2 in src_new or t1 in tgt_new or t2 in tgt_new
            ):
                continue
            guards = self._guards(copy_function.source, (s1, s2)) + self._guards(
                copy_function.target, (t1, t2)
            )
            self.cnf.add_clause(
                guards
                + [
                    -self._pair(copy_function.source, src_attr, s1, s2),
                    self._pair(copy_function.target, tgt_attr, t1, t2),
                ]
            )

    # ------------------------------------------------------------------ #
    # Value columns (current databases)
    # ------------------------------------------------------------------ #
    def encode_value_columns(self, names: Iterable[str]) -> None:
        """Encode the maximality/value columns of the named instances (each
        once; later tuple deltas keep them current)."""
        for name in names:
            if name in self._value_slots:
                continue
            instance = self.full.instance(name)
            self._value_slots[name] = [
                self._encode_block_maximality(
                    name, instance, eid, self._maximality_generation.get((name, eid), 0)
                )
                for eid in instance.entities()
            ]

    def _encode_block_maximality(
        self, name: str, instance: TemporalInstance, eid: Hashable, generation: int
    ) -> ValueSlot:
        """``max(t)`` ⟺ t is the ≺-greatest *present* tuple of its block.

        Encoded as ``max(t) ⟹ present(t)``, ``max(t) ∧ present(u) ⟹ u ≺ t``
        and one at-least-one clause per (entity, attribute); the pair
        variables order every two tuples of the block, so this pins exactly
        the true maximum: the maximality variables are fully determined by
        the order (and the selection) and exactly one holds per (entity,
        attribute).

        On top, one *value* variable per (entity, attribute, value) is defined
        as the disjunction of the column's maximality variables carrying that
        value: ``max(t) ⟹ val(t[A])`` and ``val(v) ⟹ ⋁_{t[A]=v} max(t)``.
        Projecting model enumeration onto the value variables yields each
        distinct current *value* signature once, no matter how many
        value-equal maximal tuples realise it.

        *generation* versions the variable names: when a block grows it is
        re-encoded under the next generation, and the old columns are
        abandoned in place — they stay satisfiable (the block's ≺-greatest
        present *old* tuple can carry the old maximality variable) and
        nothing projects onto them any more.
        """
        cnf = self.cnf
        suffix: Tuple[Any, ...] = (generation,) if generation else ()
        value_per_attribute: List[Tuple[str, List[Tuple[Any, int]]]] = []
        block = instance.entity_tids(eid)
        for attribute in instance.schema.attributes:
            column: List[int] = []
            by_value: Dict[Any, List[int]] = {}
            for tid in block:
                max_var = cnf.variable(("max", name, eid, tid, attribute) + suffix)
                column.append(max_var)
                by_value.setdefault(
                    instance.tuple_by_tid(tid)[attribute], []
                ).append(max_var)
                presence = self._guards(name, (tid,))
                if presence:  # an absent tuple is never maximal
                    cnf.add_clause([-max_var] + [-literal for literal in presence])
                for other in block:
                    if other == tid:
                        continue
                    cnf.add_clause(
                        [-max_var]
                        + self._guards(name, (other,))
                        + [self._pair(name, attribute, other, tid)]
                    )
            cnf.add_clause(column)
            value_column: List[Tuple[Any, int]] = []
            for value, max_vars in by_value.items():
                value_var = cnf.variable(("val", name, eid, attribute, value) + suffix)
                value_column.append((value, value_var))
                for max_var in max_vars:
                    cnf.add_clause([-max_var, value_var])
                cnf.add_clause([-value_var] + max_vars)
            value_per_attribute.append((attribute, value_column))
        return (eid, value_per_attribute)

    # ------------------------------------------------------------------ #
    # Incremental mutation (the session facade's dependency map)
    # ------------------------------------------------------------------ #
    def add_order_pair(
        self, instance_name: str, attribute: str, lower: Hashable, upper: Hashable
    ) -> None:
        """Extend the encoding after ``lower ≺_attribute upper`` was added to
        the specification's partial order (one additive unit clause)."""
        instance = self.full.instance(instance_name)
        if not instance.precedes(attribute, lower, upper):
            instance.add_order(attribute, lower, upper)
        self.cnf.add_clause([self._pair_literal((instance_name, attribute, lower, upper))])
        self._invalidate_derived_caches()

    def add_denial_constraint(
        self, instance_name: str, constraint: DenialConstraint
    ) -> None:
        """Extend the encoding after *constraint* was attached to the named
        instance.  Sound incrementally: a new denial constraint only *adds*
        grounded implications; every existing clause remains valid."""
        if constraint not in self.full.constraints_for(instance_name):
            self.full.add_constraint(instance_name, constraint)
        self._encode_denial_constraint(instance_name, constraint)
        self._invalidate_derived_caches()

    def add_copy_function(self, copy_function: CopyFunction) -> None:
        """Extend the encoding after *copy_function* was added to the
        specification (additive ≺-compatibility implications)."""
        self._encode_copy_function(copy_function)

    def add_tuples_incremental(
        self, instance_name: str, tids: Sequence[Hashable]
    ) -> bool:
        """Extend the encoding after the tuples *tids* were added to the
        named instance — one delta pass for the whole batch.  Always True:
        the base encoding can always be extended.

        Growing an entity block only *adds* well-formedness obligations, so
        the delta is purely additive ``add_clause`` work between solves and
        the warm solver state stays valid (see :meth:`_encode_fresh_tuples`).
        """
        self._encode_fresh_tuples({instance_name: set(tids)})
        return True

    def _encode_fresh_tuples(self, fresh: Dict[str, Set[Hashable]]) -> None:
        """The additive delta for the tuples *fresh* (instance -> tuple ids)
        that joined the encoded specification:

        * per grown entity block, pair variables for exactly the pairs
          involving a fresh tuple (and, once the block is refined, the
          triples), plus unit clauses for any order pairs that touch one;
        * denial groundings and copy implications restricted to supports
          touching a fresh tuple, enumerated once for the whole batch;
        * a fresh-generation re-encode of each grown block's value columns.
        """
        cnf = self.cnf
        for name, added in fresh.items():
            instance = self.full.instance(name)
            added_by_eid: Dict[Any, List[Hashable]] = {}
            for tid in added:
                added_by_eid.setdefault(instance.tuple_by_tid(tid).eid, []).append(tid)
            # order scaffolding for the grown blocks: the block minus its
            # fresh tuples is encoded already
            for attribute in instance.schema.attributes:
                for eid in added_by_eid:
                    new = [tid for tid in instance.entity_tids(eid) if tid in added]
                    self._encode_block(name, attribute, eid, new)
                for lower, upper in instance.order(attribute).pairs():
                    if lower in added or upper in added:
                        cnf.add_clause([self._pair(name, attribute, lower, upper)])
            for constraint in self.full.constraints_for(name):
                self._encode_denial_constraint(name, constraint, only_tids=added)
            slots = self._value_slots.get(name)
            if slots is None:
                continue  # no value columns to keep current
            for eid in added_by_eid:
                generation = self._maximality_generation.get((name, eid), 0) + 1
                self._maximality_generation[(name, eid)] = generation
                entry = self._encode_block_maximality(name, instance, eid, generation)
                for position, (slot_eid, _per_attribute) in enumerate(slots):
                    if slot_eid == eid:
                        slots[position] = entry
                        break
                else:
                    slots.append(entry)
        for copy_function in self.full.copy_functions:
            self._encode_copy_function(copy_function, only_new=fresh)

    # ------------------------------------------------------------------ #
    # The shared solver and its gated passes
    # ------------------------------------------------------------------ #
    @property
    def solver(self) -> SolverBackend:
        """The incremental solver, synced with every clause of ``self.cnf``."""
        if self._solver is None:
            self._solver = create_solver(self.backend, self.cnf.num_variables)
        solver = self._solver
        solver.ensure_vars(self.cnf.num_variables)
        clauses = self.cnf.clauses
        while self._fed_clauses < len(clauses):
            solver.add_clause(clauses[self._fed_clauses])
            self._fed_clauses += 1
        return solver

    def _deactivations(self) -> List[int]:
        return [-literal for literal in self._activation_literals]

    def _new_activation(self) -> int:
        """A fresh activation literal, registered as open.  Clauses gated
        behind it (``¬act ∨ …``) constrain only the solves that assume it;
        every other solve assumes its negation until it is retired."""
        literal = self.cnf.anonymous_variable()
        self._activation_literals.append(literal)
        return literal

    def _pass_assumptions(self, activation: int) -> List[int]:
        """*activation* on, every other open pass off."""
        return [activation] + [-o for o in self._activation_literals if o != activation]

    def _retire_activation(self, literal: int) -> None:
        """Permanently disable the clauses gated behind *literal* (a root
        unit fed to the solver), so later solves need not assume its
        negation.  A solver rebuilt from ``self.cnf`` lacks the unit, which
        is sound: nothing assumes a retired literal, so its gated clauses
        are satisfied by setting it false."""
        if literal in self._activation_literals:
            self._activation_literals.remove(literal)
            self.solver.add_clause([-literal])

    def _open_pass(self, clauses: Iterable[List[int]]) -> int:
        """A fresh activation literal gating *clauses*; retire it with
        :meth:`_retire_activation` when done.  The clauses go straight to the
        solver, like blocking clauses: kept out of ``self.cnf``, they leave
        :meth:`_solve_model`'s memo (keyed on its length) valid."""
        activation = self._new_activation()
        solver = self.solver
        for clause in clauses:
            solver.add_clause([-activation] + clause)
        return activation

    def _refute(self, clauses: Iterable[List[int]], fixed: List[int]) -> Optional[Model]:
        """One solve under the assumptions *fixed* and the gated *clauses*,
        which are retired afterwards."""
        activation = self._open_pass(clauses)
        try:
            return self._solve(self._pass_assumptions(activation) + fixed)
        finally:
            self._retire_activation(activation)

    def add_gated_clause(self, named_literals: Iterable[Tuple[PairVariable, bool]]) -> int:
        """Add a clause active only under a fresh activation literal, which is
        returned; retire it with :meth:`_retire_activation` when done.  Every
        variable must already be part of the encoding (a fresh unconstrained
        variable would make the clause vacuous)."""
        return self._open_pass(
            [[self._pair_literal(name, positive) for name, positive in named_literals]]
        )

    # ------------------------------------------------------------------ #
    # Questions about the base specification
    # ------------------------------------------------------------------ #
    def _solve(self, assumptions: List[int]) -> Optional[Model]:
        """The one call into the backend: a model under *assumptions* whose
        every block is totally ordered, or None.

        Transitivity is lazy.  A model that orders some unrefined block with
        a 3-cycle refines every such block with all of its triples and the
        solve runs again.  The triples are implied clauses, so UNSAT answers
        and :meth:`~repro.solvers.sat.Solver.analyze_final` cores stay sound,
        and each block refines at most once, so a solve ends after at most
        ``#blocks + 1`` rounds."""
        while True:
            model = self.solver.solve(assumptions)
            cyclic = [] if model is None else self._cyclic_blocks(model)
            if not cyclic:
                return model
            for key in cyclic:
                self._encode_triples(key)
                self._refined.add(key)

    def _solve_model(self) -> Optional[Model]:
        """One model of the current encoding, memoised until a clause is added
        (so ``solve()`` followed by ``satisfiable()`` costs a single solve)."""
        if self._cached_model is not None and self._cached_model[0] == len(self.cnf.clauses):
            return self._cached_model[1]
        model = self._solve(self._selection_literals((), exact=True))
        # keyed after the solve: a refinement inside it added clauses
        self._cached_model = (len(self.cnf.clauses), model)
        return model

    def solve(self) -> Optional[Dict[str, TemporalInstance]]:
        """A consistent completion satisfying all added constraints, or None."""
        model = self._solve_model()
        if model is None:
            return None
        return self.decode(model)

    def satisfiable(self, assumptions: Optional[Iterable[PairVariable]] = None) -> bool:
        """Whether a consistent completion of the base specification exists.

        *assumptions*, when given, is an iterable of currency pairs
        ``(instance, attribute, lower, upper)`` forced true for this call only
        — the encoding is not mutated, and the solver state (learnt clauses,
        activities, phases) carries over to the next call.
        """
        if assumptions is None:
            return self._solve_model() is not None
        literals = (
            self._deactivations()
            + self._selection_literals((), exact=True)
            + [self._pair_literal(pair) for pair in assumptions]
        )
        return self._solve(literals) is not None

    def excludes_some_pair(self, pairs: Sequence[PairVariable]) -> bool:
        """Whether some consistent completion of the base specification misses
        at least one of *pairs* — COP's complement question, as one gated
        clause on the warm solver (retired afterwards)."""
        clause = [self._pair_literal(pair, positive=False) for pair in pairs]
        return self._refute([clause], self._selection_literals((), exact=True)) is not None

    def decode(self, model: Dict[int, bool]) -> Dict[str, TemporalInstance]:
        """Turn a SAT model into a completion (name -> completed instance)."""
        completion: Dict[str, TemporalInstance] = {}
        for name, instance in self.specification.instances.items():
            completed = TemporalInstance(instance.schema, instance.tuples())
            for attribute, order in instance.orders().items():
                for lower, upper in order.pairs():
                    completed.add_order(attribute, lower, upper)
            completion[name] = completed
        for (name, attribute, lower, upper), literal in self._pairs.items():
            if literal < 0:
                continue  # each variable once, under its first orientation
            completed = completion.get(name)
            # pairs over candidate imports are not part of the base instance
            if completed is None or not (completed.has_tid(lower) and completed.has_tid(upper)):
                continue
            if not model.get(literal, False):
                lower, upper = upper, lower
            if not completed.precedes(attribute, lower, upper):
                completed.add_order(attribute, lower, upper)
        return completion

    # ------------------------------------------------------------------ #
    # Current databases
    # ------------------------------------------------------------------ #
    def current_databases(
        self,
        selection: Sequence[int] = (),
        relations: Optional[Iterable[str]] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Dict[str, NormalInstance]]:
        """The realizable current databases of *relations* (all instances by
        default), deduplicated by value, for the candidate imports of
        *selection* (the base specification when empty).

        Runs on the shared solver: the selection is fixed through *exact*
        assumptions and blocking clauses cover the **value** variables of
        *relations* only, gated behind this pass's activation literal — the
        learnt-clause database stays warm between models and between passes,
        concurrently consumed passes never see each other's blocking clauses,
        and distinct maximal tuples carrying equal values are yielded once.
        Yielded databases share interned instances; callers must not mutate
        them."""
        names = list(relations) if relations is not None else list(self.full.instances)
        for name in names:
            self.full.instance(name)  # validates the name
        self.encode_value_columns(names)
        fixed = self._selection_literals(selection, exact=True)
        projection = [
            value_var
            for name in names
            for _eid, per_attribute in self._value_slots[name]
            for _attribute, value_column in per_attribute
            for _value, value_var in value_column
        ]
        activation = self._new_activation()
        solver = self.solver
        produced = 0
        try:
            while True:
                model = self._solve(self._pass_assumptions(activation) + fixed)
                if model is None:
                    return
                blocking = [-activation] + [
                    -var if model.get(var, False) else var for var in projection
                ]
                database = self._decode_current(model, names)
                if not solver.add_clause(blocking):
                    return
                yield database
                produced += 1
                if limit is not None and produced >= limit:
                    return
        finally:
            self._retire_activation(activation)

    def _decode_current(self, model: Model, names: Sequence[str]) -> Dict[str, NormalInstance]:
        database: Dict[str, NormalInstance] = {}
        for name in names:
            instance = self.full.instance(name)
            schema = instance.schema
            rows: List[Tuple[Any, Dict[str, Any]]] = []
            for eid, per_attribute in self._value_slots[name]:
                values: Dict[str, Any] = {schema.eid: eid}
                for attribute, value_column in per_attribute:
                    chosen_value: Any = None
                    found = False
                    for value, value_var in value_column:
                        if model.get(value_var, False):
                            chosen_value = value
                            found = True
                            break
                    if not found:  # pragma: no cover - defensive
                        chosen_value = instance.entity_block(eid)[0][attribute]
                    values[attribute] = chosen_value
                rows.append((("lst", eid), values))
            database[name] = self._instance_cache.intern_rows(schema, rows)
        return database

    # ------------------------------------------------------------------ #
    # Certain answers and determinism by refutation
    # ------------------------------------------------------------------ #
    def certain_answers(
        self, engine: QueryEngine, selection: Sequence[int] = ()
    ) -> Optional[FrozenSet[Tuple[Any, ...]]]:
        """The certain current answers of the engine's query for the candidate
        imports of *selection* (the base specification when empty), or None
        when that has no completion.

        An SP query is answered by refutation on the value columns.  The
        answers on one model's current database are the candidates.  Each
        further solve asks for a database lacking some remaining candidate
        (gated clauses over the candidates' supports, see :meth:`_supports`)
        and drops every candidate its database lacks; UNSAT ends the loop, so
        a query costs at most one solve per candidate beyond the first.  Other
        queries intersect their answers over :meth:`current_databases`."""
        query = engine.source
        if not isinstance(query, SPQuery):
            intersection: Optional[Set[Tuple[Any, ...]]] = None
            for database in self.current_databases(selection, relations=engine.relations):
                answers = engine.answers(database)
                intersection = set(answers) if intersection is None else intersection & answers
                if not intersection:
                    break
            return None if intersection is None else frozenset(intersection)
        names = [query.relation]
        self.encode_value_columns(names)
        fixed = self._selection_literals(selection, exact=True)
        model = self._solve_model() if not selection else self._solve(self._deactivations() + fixed)
        if model is None:
            return None
        candidates = list(engine.answers(self._decode_current(model, names)))
        if not candidates:
            return frozenset()
        supports = self._supports(query, candidates)
        pool = self._absence_pool
        while len(pool) < len(candidates):
            pool.append(self.cnf.anonymous_variable())
        # pool[i] ⟹ candidate i is absent, and some candidate is absent
        clauses = [
            [-pool[i]] + [-var for var in support]
            for i, candidate_supports in enumerate(supports)
            for support in candidate_supports
        ]
        clauses.append(pool[: len(candidates)])
        held = set(range(len(candidates)))
        activation = self._open_pass(clauses)
        try:
            while held:
                dropped = [-pool[i] for i in range(len(candidates)) if i not in held]
                model = self._solve(self._pass_assumptions(activation) + fixed + dropped)
                if model is None:
                    break
                held = {
                    i for i in held
                    if any(all(model.get(v, False) for v in support) for support in supports[i])
                }
        finally:
            self._retire_activation(activation)
        return frozenset(candidates[i] for i in held)

    def databases_without(
        self, engine: QueryEngine, answer: Tuple[Any, ...], selection: Sequence[int] = ()
    ) -> Iterator[Dict[str, NormalInstance]]:
        """Current databases of the engine's relations, for the candidate
        imports of *selection*, on which the query lacks *answer*.  For an SP
        query that is at most one, from one solve under the gated clauses
        "*answer* is absent"; other queries scan :meth:`current_databases`."""
        query = engine.source
        if not isinstance(query, SPQuery):
            for database in self.current_databases(selection, relations=engine.relations):
                if answer not in engine.answers(database):
                    yield database
            return
        names = [query.relation]
        self.encode_value_columns(names)
        absent = [[-var for var in support] for support in self._supports(query, [answer])[0]]
        model = self._refute(absent, self._selection_literals(selection, exact=True))
        if model is not None:
            yield self._decode_current(model, names)

    def _supports(
        self, query: SPQuery, candidates: Sequence[Tuple[Any, ...]]
    ) -> List[List[List[int]]]:
        """Per candidate answer, its supports: the value variables of one
        entity's realizable cells over ``query.relevant_attributes()`` that
        satisfy σ and project to the candidate.  A current database yields
        the candidate iff one of its supports holds.  The candidates are
        answers on some current database, so their projected cells already
        meet σ's constants and agree on repeated attributes."""
        selected = [a for a in sorted(query.selection_attributes()) if a not in query.projection]
        supports: List[List[List[int]]] = [[] for _ in candidates]
        for _eid, per_attribute in self._value_slots[query.relation]:
            columns = {attribute: dict(column) for attribute, column in per_attribute}
            for candidate, candidate_supports in zip(candidates, supports):
                cells: Dict[str, Any] = dict(zip(query.projection, candidate))
                free = [
                    [query.eq_const[a]] if a in query.eq_const else list(columns[a])
                    for a in selected
                ]
                for values in product(*free):
                    cells.update(zip(selected, values))
                    if any(cells[left] != cells[right] for left, right in query.eq_attr):
                        continue
                    support = [columns[a].get(v) for a, v in cells.items()]
                    if None not in support:
                        candidate_supports.append(support)
        return supports

    def deterministic(self, names: Sequence[str]) -> bool:
        """Whether the named instances have the same current instance in every
        completion (vacuously so when there is none): a model M, then one
        solve under the gated clause "some cell's current value is not M's"."""
        self.encode_value_columns(names)
        model = self._solve_model()
        if model is None:
            return True
        differs = [
            -var
            for name in names
            for _eid, per_attribute in self._value_slots[name]
            for _attribute, column in per_attribute
            for _value, var in column
            if model.get(var, False)
        ]
        return self._refute([differs], self._selection_literals((), exact=True)) is None

    # ------------------------------------------------------------------ #
    # Pickling (warm-state snapshots)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, object]:
        """Degrade gracefully for engines whose warm state cannot pickle.

        When the active backend supports snapshots the solver travels with
        the encoder.  Otherwise the solver is dropped and the feed cursor
        reset, so the first question after a restore lazily rebuilds a cold
        engine from ``self.cnf``.  Dropping the engine also drops the
        blocking clauses and retirement units fed straight to it, which is
        sound: they are all gated by activation literals that later solves
        either assume negative or never assume.
        """
        state = dict(self.__dict__)
        solver = state.get("_solver")
        if solver is not None and not solver.supports_snapshot():
            state["_solver"] = None
            state["_fed_clauses"] = 0
            state["_cached_model"] = None
        return state
