"""Boolean encoding of consistent completions (the SAT back-end).

The encoding follows the guess-and-check algorithm in the proof of
Theorem 3.1: a completion is a choice, per instance and attribute, of a total
order on every entity block that extends the given partial currency order,
satisfies the (grounded) denial constraints, and is ≺-compatible with the copy
functions.  Each potential currency pair becomes one Boolean variable

    ``(instance_name, attribute, lower_tid, upper_tid)``

and the well-formedness conditions become clauses:

* antisymmetry and totality within an entity block,
* transitivity,
* unit clauses for the given partial orders,
* grounded denial-constraint implications,
* copy-function ≺-compatibility implications.

A model decodes back into a full consistent completion.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import AbstractSet, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.copy_function import CopyFunction
from repro.core.denial import DenialConstraint
from repro.core.instance import TemporalInstance
from repro.core.specification import Specification
from repro.exceptions import SolverError
from repro.solvers.backend import SolverBackend, create_solver, resolve_backend
from repro.solvers.cnf import CNF
from repro.solvers.sat import Model, iterate_models

__all__ = ["PairVariable", "CompletionEncoder"]

PairVariable = Tuple[str, str, Hashable, Hashable]


class CompletionEncoder:
    """Encode ``Mod(S) ≠ ∅`` (and refinements of it) as CNF satisfiability.

    The encoder owns one incremental :class:`~repro.solvers.sat.Solver` that
    is kept in sync with ``self.cnf``: clauses added after construction (e.g.
    by :meth:`require_pair` or the maximality encoding of the current-database
    enumerator) are fed to it lazily, and clauses the solver *learns* while
    answering one question keep pruning the search for every later question on
    the same encoder.  :meth:`satisfiable` accepts *assumptions* — named
    currency pairs temporarily forced true — so per-candidate probes (e.g.
    "can tuple t be maximal?") reuse one warm solver instead of re-encoding
    the specification per candidate.
    """

    def __init__(self, specification: Specification, backend: Optional[str] = None) -> None:
        self.specification = specification
        #: resolved solver backend name (see :mod:`repro.solvers.backend`)
        self.backend = resolve_backend(backend)
        self.cnf = CNF()
        self._pair_domain: Dict[Tuple[str, str], List[Tuple[Hashable, Hashable]]] = {}
        self._solver: Optional[SolverBackend] = None
        self._fed_clauses = 0
        self._cached_model: Optional[Tuple[int, Optional[Model]]] = None
        self._activation_count = 0
        #: instance names whose maximality clauses a
        #: :class:`~repro.reasoning.current_db.CurrentDatabaseEnumerator` has
        #: already added to ``self.cnf``.  Enumerators sharing one encoder
        #: consult this registry so overlapping relation sets are encoded
        #: once; it also marks the encoder as *non-extendable* by
        #: :meth:`add_tuples_incremental` (the reverse maximality clauses
        #: "all present others below ⟹ max" become too strong when a block
        #: grows, so a session must rebuild instead).
        self.maximality_encoded: Set[str] = set()
        self._build()

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def pair_name(
        self, instance: str, attribute: str, lower: Hashable, upper: Hashable
    ) -> PairVariable:
        """The variable name for ``lower ≺_attribute upper`` in *instance*."""
        return (instance, attribute, lower, upper)

    def _build(self) -> None:
        for name, instance in self.specification.instances.items():
            self._encode_instance(name, instance)
        for name in self.specification.instances:
            self._encode_denial_constraints(name)
        self._encode_copy_functions()

    def _encode_instance(self, name: str, instance: TemporalInstance) -> None:
        for attribute in instance.schema.attributes:
            order = instance.order(attribute)
            for eid in instance.entities():
                block = instance.entity_tids(eid)
                for lower, upper in permutations(block, 2):
                    self.cnf.variable(self.pair_name(name, attribute, lower, upper))
                    self._pair_domain.setdefault((name, attribute), []).append((lower, upper))
                for lower, upper in combinations(block, 2):
                    forward = self.pair_name(name, attribute, lower, upper)
                    backward = self.pair_name(name, attribute, upper, lower)
                    # antisymmetry and totality on the entity block
                    self.cnf.add_named_clause([(forward, False), (backward, False)])
                    self.cnf.add_named_clause([(forward, True), (backward, True)])
                # transitivity
                for a in block:
                    for b in block:
                        for c in block:
                            if len({a, b, c}) != 3:
                                continue
                            self.cnf.add_implication(
                                [
                                    (self.pair_name(name, attribute, a, b), True),
                                    (self.pair_name(name, attribute, b, c), True),
                                ],
                                (self.pair_name(name, attribute, a, c), True),
                            )
                # the given partial currency order must be extended
            for lower, upper in order.pairs():
                self.cnf.add_unit(self.pair_name(name, attribute, lower, upper), True)

    def _same_entity(self, instance: TemporalInstance, lower: Hashable, upper: Hashable) -> bool:
        return (
            lower != upper
            and instance.tuple_by_tid(lower).eid == instance.tuple_by_tid(upper).eid
        )

    def _encode_denial_constraints(self, name: str) -> None:
        for constraint in self.specification.constraints_for(name):
            self._encode_denial_constraint(name, constraint)

    def _encode_denial_constraint(
        self,
        name: str,
        constraint: DenialConstraint,
        only_tids: Optional[AbstractSet[Hashable]] = None,
    ) -> None:
        """Ground one denial constraint into implications.

        *only_tids*, when given, restricts to groundings whose support
        involves those tuple ids — the additive delta after tuples were
        added.  Each qualifying implication is grounded once, where
        tuple-at-a-time deltas would re-emit a grounding touching several new
        tuples once per tuple.
        """
        instance = self.specification.instance(name)
        for implication, support in constraint.grounded_implications_with_support(instance):
            if only_tids is not None and only_tids.isdisjoint(support):
                continue
            premises: List[Tuple[PairVariable, bool]] = []
            vacuous = False
            for attribute, lower, upper in implication.premises:
                if not self._same_entity(instance, lower, upper):
                    vacuous = True  # the premise can never hold
                    break
                premises.append((self.pair_name(name, attribute, lower, upper), True))
            if vacuous:
                continue
            head = implication.head
            if head is None:
                self.cnf.add_implication(premises, None)
                continue
            attribute, lower, upper = head
            if not self._same_entity(instance, lower, upper):
                # the head can never be satisfied: the premises must fail
                self.cnf.add_implication(premises, None)
            else:
                self.cnf.add_implication(
                    premises, (self.pair_name(name, attribute, lower, upper), True)
                )

    def _encode_copy_functions(self) -> None:
        for copy_function in self.specification.copy_functions:
            self._encode_copy_function(copy_function)

    def _encode_copy_function(
        self,
        copy_function: CopyFunction,
        only_tids: Optional[AbstractSet[Hashable]] = None,
    ) -> None:
        """≺-compatibility implications of one copy function.

        *only_tids*, when given, restricts to implications involving those
        tuple ids (in the source or target role) — the additive delta after
        mapped tuples were added or mapping pairs extended.
        """
        target = self.specification.instance(copy_function.target)
        source = self.specification.instance(copy_function.source)
        for (src_attr, s1, s2), (tgt_attr, t1, t2) in copy_function.compatibility_implications(
            target, source
        ):
            if only_tids is not None and only_tids.isdisjoint((s1, s2, t1, t2)):
                continue
            if not self._same_entity(source, s1, s2):
                continue
            source_pair = (self.pair_name(copy_function.source, src_attr, s1, s2), True)
            if not self._same_entity(target, t1, t2):
                self.cnf.add_implication([source_pair], None)
            else:
                self.cnf.add_implication(
                    [source_pair],
                    (self.pair_name(copy_function.target, tgt_attr, t1, t2), True),
                )

    # ------------------------------------------------------------------ #
    # Extra constraints used by the decision procedures
    # ------------------------------------------------------------------ #
    def require_pair(self, instance: str, attribute: str, lower: Hashable, upper: Hashable) -> None:
        """Force ``lower ≺_attribute upper`` in every model."""
        self.cnf.add_unit(self.pair_name(instance, attribute, lower, upper), True)

    def forbid_all_of(self, pairs: Iterable[Tuple[str, str, Hashable, Hashable]]) -> None:
        """Require that at least one of *pairs* does **not** hold (one clause)."""
        clause = [(self.pair_name(*pair), False) for pair in pairs]
        self.cnf.add_named_clause(clause)

    def require_maximal(
        self, instance_name: str, attribute: str, eid: Hashable, tid: Hashable
    ) -> None:
        """Force *tid* to be the greatest tuple of its entity block for *attribute*."""
        instance = self.specification.instance(instance_name)
        for other in instance.entity_tids(eid):
            if other != tid:
                self.require_pair(instance_name, attribute, other, tid)

    # ------------------------------------------------------------------ #
    # Activation-gated clauses (scoped constraints on a shared encoder)
    # ------------------------------------------------------------------ #
    def new_activation(self) -> int:
        """A fresh activation literal.  Clauses gated behind it (``¬act ∨ …``)
        constrain only the solve calls that *assume* the literal; callers that
        share one encoder (the session facade, concurrent current-database
        enumeration passes) draw their activation literals here so they never
        collide."""
        self._activation_count += 1
        return self.cnf.variable(("__enc_act__", self._activation_count))

    def add_gated_clause(self, named_literals: Iterable[Tuple[PairVariable, bool]]) -> int:
        """Add a clause active only under a fresh activation literal, which is
        returned.  Every variable must already be part of the encoding (a
        fresh unconstrained variable would make the clause vacuous)."""
        literals = []
        for name, positive in named_literals:
            if not self.cnf.has_variable(name):
                raise SolverError(f"currency pair {name!r} is not part of the encoding")
            literals.append(self.cnf.literal(name, positive))
        activation = self.new_activation()
        self.cnf.add_clause([-activation] + literals)
        return activation

    def retire_activation(self, activation: int) -> None:
        """Permanently disable the clauses gated behind *activation* (a root
        unit in the CNF, so rebuilt solvers honour it too)."""
        self.cnf.add_clause([-activation])

    # ------------------------------------------------------------------ #
    # Incremental mutation (the session facade's dependency map)
    # ------------------------------------------------------------------ #
    def add_order_pair(
        self, instance_name: str, attribute: str, lower: Hashable, upper: Hashable
    ) -> None:
        """Extend the encoding after ``lower ≺_attribute upper`` was added to
        the specification's partial order (one additive unit clause)."""
        self.cnf.add_unit(self.pair_name(instance_name, attribute, lower, upper), True)

    def add_denial_constraint(
        self, instance_name: str, constraint: DenialConstraint
    ) -> None:
        """Extend the encoding after *constraint* was attached to the named
        instance.  Sound incrementally: a new denial constraint only *adds*
        grounded implications; every existing clause remains valid."""
        self._encode_denial_constraint(instance_name, constraint)

    def add_copy_function(self, copy_function: CopyFunction) -> None:
        """Extend the encoding after *copy_function* was added to the
        specification (additive ≺-compatibility implications)."""
        self._encode_copy_function(copy_function)

    def add_tuples_incremental(
        self, instance_name: str, tids: Sequence[Hashable]
    ) -> None:
        """Extend the encoding after the tuples *tids* were added to the
        named instance — one delta pass for the whole batch.

        Growing an entity block only *adds* well-formedness obligations — pair
        variables, antisymmetry/totality/transitivity for pairs involving the
        new tuples, the denial groundings and copy implications their presence
        admits — so the delta is purely additive ``add_clause`` work between
        solves and the warm solver state stays valid.  The one exception is an
        encoder that already carries maximality clauses (``maximality_encoded``
        non-empty): their "all others below ⟹ max" direction does not survive
        a grown block, so such encoders must be rebuilt instead — asserted
        here rather than silently producing a wrong encoding.

        Per-tuple well-formedness deltas replay the tuple-at-a-time order (a
        later tuple's pair variables against an earlier one are minted exactly
        once), but the denial groundings and copy implications the batch
        admits are enumerated in a **single** pass over the specification,
        restricted to groundings touching any new tuple — the dominant cost
        of the tuple mutation path, previously paid once per tuple.
        """
        if self.maximality_encoded:
            raise SolverError(
                "add_tuples_incremental() on an encoder with maximality "
                "clauses; the enumerator's reverse clauses would be too "
                "strong for the grown block — rebuild the encoder instead"
            )
        instance = self.specification.instance(instance_name)
        new_set = set(tids)
        processed: Set[Hashable] = set()
        for tid in tids:
            if tid in processed:
                continue
            new = instance.tuple_by_tid(tid)
            block = instance.entity_tids(new.eid)
            # replay the sequential order: pairs against a batch-mate are
            # minted by whichever of the two comes later in the batch
            others = [
                other
                for other in block
                if other != tid and (other not in new_set or other in processed)
            ]
            self._add_tuple_block_delta(instance_name, instance, tid, others)
            processed.add(tid)
        for constraint in self.specification.constraints_for(instance_name):
            self._encode_denial_constraint(instance_name, constraint, only_tids=new_set)
        for copy_function in self.specification.copy_functions:
            if instance_name in (copy_function.source, copy_function.target):
                self._encode_copy_function(copy_function, only_tids=new_set)

    def _add_tuple_block_delta(
        self,
        instance_name: str,
        instance: TemporalInstance,
        tid: Hashable,
        others: Sequence[Hashable],
    ) -> None:
        """Pair variables, antisymmetry/totality and transitivity triples for
        one new tuple against the *others* already in its entity block."""
        for attribute in instance.schema.attributes:
            domain = self._pair_domain.setdefault((instance_name, attribute), [])
            for other in others:
                forward = self.pair_name(instance_name, attribute, other, tid)
                backward = self.pair_name(instance_name, attribute, tid, other)
                self.cnf.variable(forward)
                self.cnf.variable(backward)
                domain.append((other, tid))
                domain.append((tid, other))
                self.cnf.add_named_clause([(forward, False), (backward, False)])
                self.cnf.add_named_clause([(forward, True), (backward, True)])
            for a in others:
                for b in others:
                    if a == b:
                        continue
                    for triple in ((a, b, tid), (a, tid, b), (tid, a, b)):
                        self.cnf.add_implication(
                            [
                                (self.pair_name(instance_name, attribute, triple[0], triple[1]), True),
                                (self.pair_name(instance_name, attribute, triple[1], triple[2]), True),
                            ],
                            (self.pair_name(instance_name, attribute, triple[0], triple[2]), True),
                        )

    # ------------------------------------------------------------------ #
    # Solving and decoding
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

    def _solve_model(self) -> Optional[Model]:
        """One model of the current encoding, memoised until a clause is added
        (so ``solve()`` followed by ``satisfiable()`` costs a single solve)."""
        key = len(self.cnf.clauses)
        if self._cached_model is not None and self._cached_model[0] == key:
            return self._cached_model[1]
        model = self.solver.solve()
        self._cached_model = (key, model)
        return model

    def solve(self) -> Optional[Dict[str, TemporalInstance]]:
        """A consistent completion satisfying all added constraints, or None."""
        model = self._solve_model()
        if model is None:
            return None
        return self.decode(model)

    def satisfiable(
        self, assumptions: Optional[Iterable[Tuple[str, str, Hashable, Hashable]]] = None
    ) -> bool:
        """Whether a consistent completion (with the added constraints) exists.

        *assumptions*, when given, is an iterable of currency pairs
        ``(instance, attribute, lower, upper)`` forced true for this call only
        — the encoding is not mutated, and the solver state (learnt clauses,
        activities, phases) carries over to the next call.
        """
        if assumptions is None:
            return self._solve_model() is not None
        literals = []
        for pair in assumptions:
            name = self.pair_name(*pair)
            if not self.cnf.has_variable(name):
                # allocating a fresh unconstrained variable here would make
                # the probe vacuously satisfiable — reject caller mistakes
                # (cross-entity or unknown pairs are never encoded)
                raise SolverError(f"currency pair {pair!r} is not part of the encoding")
            literals.append(self.cnf.literal(name))
        return self.solver.solve(literals) is not None

    def decode(self, model: Dict[int, bool]) -> Dict[str, TemporalInstance]:
        """Turn a SAT model into a completion (name -> completed instance)."""
        named = self.cnf.decode_model(model)
        completion: Dict[str, TemporalInstance] = {}
        for name, instance in self.specification.instances.items():
            completed = TemporalInstance(instance.schema, instance.tuples())
            for attribute, order in instance.orders().items():
                for lower, upper in order.pairs():
                    completed.add_order(attribute, lower, upper)
            for variable, value in named.items():
                if not value or not isinstance(variable, tuple) or len(variable) != 4:
                    continue
                var_instance, attribute, lower, upper = variable
                if var_instance != name:
                    continue
                if not completed.precedes(attribute, lower, upper):
                    completed.add_order(attribute, lower, upper)
            completion[name] = completed
        return completion

    def iterate_completions(
        self, limit: Optional[int] = None
    ) -> Iterable[Dict[str, TemporalInstance]]:
        """Enumerate consistent completions (distinct SAT models)."""
        for model in iterate_models(self.cnf, limit=limit, backend=self.backend):
            yield self.decode(model)

    # ------------------------------------------------------------------ #
    # Pickling (warm-state snapshots)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, object]:
        """Degrade gracefully for engines whose warm state cannot pickle.

        When the active backend supports snapshots the solver travels with
        the encoder (PR 8's warm-state pipeline).  Otherwise the solver is
        dropped and the feed cursor reset, so the first question after a
        restore lazily rebuilds a cold engine from ``self.cnf``.
        """
        state = dict(self.__dict__)
        solver = state.get("_solver")
        if solver is not None and not solver.supports_snapshot():
            state["_solver"] = None
            state["_fed_clauses"] = 0
            state["_cached_model"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        # encoders pickled before the backend seam existed default to the
        # reference engine
        if "backend" not in self.__dict__:
            self.backend = "reference"
