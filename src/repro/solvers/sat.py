"""A conflict-driven clause-learning (CDCL) SAT solver with an incremental API.

No external SAT/SMT bindings are available offline, so the library ships its
own complete solver.  The engine is a modern CDCL core:

* two-watched-literal unit propagation (clauses are never copied or shrunk),
  with binary clauses special-cased into flat implication adjacency lists
  that skip the watch machinery entirely;
* first-UIP conflict analysis with clause learning and self-subsumption
  minimisation of the learnt clause;
* non-chronological backjumping;
* VSIDS-style decision scoring with phase saving;
* Luby-sequence restarts;
* periodic, glue-aware (LBD) reduction of the learnt-clause database.

The incremental :class:`Solver` keeps all of this state — learnt clauses,
variable activities, saved phases — alive across calls, so the enumeration
loops of the reasoning layer (model iteration with blocking clauses,
per-cell maximality probes under assumptions) pay the cold-start cost once
instead of once per query.  ``solve(assumptions=...)`` decides satisfiability
under a temporary conjunction of literals without mutating the clause
database, exactly like MiniSat's ``solve(assumps)``.

The seed simplify-and-copy DPLL engine is retained as :func:`solve_naive`
(mirroring ``evaluate_naive`` in the query layer) and serves as the reference
oracle for the property-based equivalence tests.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import SolverError
from repro.solvers.budget import Budget, current_budget
from repro.solvers.cnf import CNF, Literal
from repro.testing import faults

__all__ = [
    "Solver",
    "solve",
    "solve_naive",
    "solve_cnf",
    "is_satisfiable",
    "iterate_models",
]

Clause = Tuple[Literal, ...]
Model = Dict[int, bool]


def _luby(base: int, index: int) -> int:
    """``base ** k`` where ``k`` is the *index*-th term of the Luby sequence
    (0-based): 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ..."""
    size, sequence = 1, 0
    while size < index + 1:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        sequence -= 1
        index %= size
    return base ** sequence


class _Clause:
    """A clause under two-watched-literal invariants.

    ``lits[0]`` and ``lits[1]`` are the watched literals.  Binary clauses are
    not watched at all — they live in the solver's flat binary-implication
    adjacency lists instead (``_bins``), where propagation needs no watch
    juggling.  Learnt clauses carry an activity score and an LBD ("glue":
    the number of distinct decision levels in the clause when it was learnt)
    for the database-reduction heuristic and can be marked deleted (the
    reduction pass purges them from the watch lists eagerly, so propagation
    never has to check).  ``blocker`` is a cached literal of the clause —
    when it is currently satisfied the propagation loop skips the clause
    without touching its literal list (MiniSat's blocker optimisation).
    """

    __slots__ = ("lits", "learnt", "activity", "deleted", "lbd", "blocker")

    def __init__(self, lits: List[int], learnt: bool, lbd: int = 0) -> None:
        self.lits = lits
        self.learnt = learnt
        self.blocker = lits[0]
        self.activity = 0.0
        self.deleted = False
        self.lbd = lbd


class Solver:
    """An incremental CDCL solver over positive-integer variables.

    Usage::

        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        model = solver.solve()              # {1: ..., 2: ..., 3: ...} or None
        model = solver.solve(assumptions=[-3])   # decide under -3, keep state

    State persists between calls: clauses learnt while answering one query
    prune the search of the next, variable activities keep steering decisions
    toward recently conflicting variables, and saved phases keep the model
    stable across blocking-clause enumeration.  ``add_clause`` may be called
    at any point between ``solve`` calls; an empty clause (or a root-level
    conflict) makes the solver permanently unsatisfiable.
    """

    _RESTART_BASE = 128
    _ACTIVITY_RESCALE = 1e100
    _CLAUSE_RESCALE = 1e20

    def __init__(self, num_variables: int = 0) -> None:
        self._var_count = 0
        # Literal-indexed storage trick used by the three hot maps below:
        # a list of length ``2 * _cap + 1`` holds variable ``v``'s positive
        # literal at index ``v`` and its negative literal at index ``-v``
        # (python's negative indexing resolves it from the tail; the +1 keeps
        # the two ranges disjoint).  A literal — of either sign — is then one
        # plain subscript, with no branch, ``abs`` or offset arithmetic in
        # the propagation inner loop.  Capacity grows by doubling with an
        # amortised-O(1) rebuild because appending would shift every
        # negative index.
        self._cap = 16
        # ``_assign[lit]``: +1 when *lit* is true, -1 when false, 0 unassigned
        self._assign: List[int] = [0] * (2 * self._cap + 1)
        # per-variable state, 1-indexed (slot 0 unused)
        self._levels: List[int] = [0]
        self._reasons: List[Optional[_Clause]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        # watch lists hold the clauses watching each literal; each clause
        # additionally carries a ``blocker`` literal hint (see ``_Clause``)
        # whose being satisfied lets propagation skip the clause entirely
        self._watches: List[List[_Clause]] = [
            [] for _ in range(2 * self._cap + 1)
        ]
        # binary-implication adjacency as parallel lists: for a binary
        # clause (x ∨ y), ``_bins[-x]`` holds ``[ [y, ...], [clause, ...] ]``
        # — falsifying one literal implies the other without touching the
        # watch machinery, and the satisfied-implication fast path never
        # touches the clause object at all
        self._bins: List[List[List[Any]]] = [
            [[], []] for _ in range(2 * self._cap + 1)
        ]
        self._clauses: List[_Clause] = []
        self._learnts: List[_Clause] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._seen = bytearray(1)
        self._heap: List[Tuple[float, int]] = []
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._max_learnts = 1000.0
        self._ok = True
        self._final_core: Optional[List[int]] = None
        self._stats = {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
            "learnt": 0,
            "deleted": 0,
            "max_backjump": 0,
        }
        self.ensure_vars(num_variables)

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #
    def supports_snapshot(self) -> bool:
        """Whether this engine's warm state survives pickling (it does: the
        reference backend is the one engine snapshots were designed around).
        Part of the :class:`~repro.solvers.backend.SolverBackend` surface —
        layers holding an engine consult it before capturing warm state, and
        degrade to re-encode-on-restore when it answers False."""
        return True

    def __getstate__(self) -> Dict[str, Any]:
        """Everything but the watch lists (rebuilt on restore).

        A solver at rest — between ``solve`` calls — has backtracked to the
        root level, so the trail holds only root-level facts and
        ``_qhead == len(_trail)``: no propagation is in flight, which is what
        makes dropping the watchers safe.  Clause *identity* still matters
        (``_reasons`` may reference the clause that propagated a root-level
        fact, and learnt-DB reduction keeps such locked clauses alive), so
        clauses are pickled as shared objects, not flattened to literal
        lists.  Deleted learnts are dropped here instead of waiting for the
        next ``_reduce_learnts`` pass.
        """
        if self._trail_lim:
            self._cancel_until(0)
        state = dict(self.__dict__)
        del state["_watches"]
        del state["_bins"]
        state["_learnts"] = [c for c in self._learnts if not c.deleted]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        size = 2 * self._cap + 1
        watches: List[List[_Clause]] = [[] for _ in range(size)]
        bins: List[List[List[Any]]] = [[[], []] for _ in range(size)]
        for clause in self._clauses:
            self._attach(clause, watches, bins)
        for clause in self._learnts:
            self._attach(clause, watches, bins)
        self._watches = watches
        self._bins = bins

    @staticmethod
    def _attach(
        clause: _Clause,
        watches: List[List[_Clause]],
        bins: List[List[List[Any]]],
    ) -> None:
        """Index *clause* for propagation: binaries into the implication
        adjacency lists, everything longer into the (blocker, clause) watch
        lists — each watch carries the opposite watch as its blocker."""
        lits = clause.lits
        if len(lits) == 2:
            pair = bins[-lits[0]]
            pair[0].append(lits[1])
            pair[1].append(clause)
            pair = bins[-lits[1]]
            pair[0].append(lits[0])
            pair[1].append(clause)
        else:
            watches[lits[0]].append(clause)
            watches[lits[1]].append(clause)

    # ------------------------------------------------------------------ #
    # Variables and clauses
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        """Number of variables allocated so far."""
        return self._var_count

    def ensure_vars(self, count: int) -> None:
        """Grow the variable space to at least *count* variables."""
        if count <= self._var_count:
            return
        if count > self._cap:
            cap = self._cap
            while cap < count:
                cap *= 2
            size = 2 * cap + 1
            assign = [0] * size
            watches: List[List[_Clause]] = [[] for _ in range(size)]
            bins: List[List[List[Any]]] = [[[], []] for _ in range(size)]
            for v in range(1, self._var_count + 1):
                assign[v] = self._assign[v]
                assign[-v] = self._assign[-v]
                watches[v] = self._watches[v]
                watches[-v] = self._watches[-v]
                bins[v] = self._bins[v]
                bins[-v] = self._bins[-v]
            self._assign, self._watches, self._bins = assign, watches, bins
            self._cap = cap
        while self._var_count < count:
            variable = self._var_count + 1
            self._var_count = variable
            self._levels.append(0)
            self._reasons.append(None)
            self._activity.append(0.0)
            self._phase.append(False)
            self._seen.append(0)
            heappush(self._heap, (0.0, variable))

    def _lit_value(self, lit: int) -> int:
        return self._assign[lit]

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a clause; returns False iff the solver became unsatisfiable.

        The clause is simplified against root-level facts: satisfied clauses
        are dropped, falsified literals are removed.  May be called between
        ``solve`` calls at any time; learnt state is preserved.
        """
        if not self._ok:
            return False
        if self._trail_lim:  # defensive: callers only add between solves
            self._cancel_until(0)
        if 0 in literals:
            raise SolverError("0 is not a valid literal")
        if literals:
            self.ensure_vars(max(map(abs, literals)))
        assign = self._assign
        lits: List[int] = []
        seen = set()
        for lit in literals:
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            value = assign[lit]
            if value == 1:
                return True  # already satisfied at the root level
            if value == -1:
                continue  # falsified at the root level: drop the literal
            seen.add(lit)
            lits.append(lit)
        if not lits:
            self._ok = False
            return False
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            return True
        clause = _Clause(lits, learnt=False)
        self._clauses.append(clause)
        self._attach(clause, self._watches, self._bins)
        return True

    # ------------------------------------------------------------------ #
    # Trail management
    # ------------------------------------------------------------------ #
    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> None:
        variable = lit if lit > 0 else -lit
        self._assign[lit] = 1
        self._assign[-lit] = -1
        self._levels[variable] = len(self._trail_lim)
        self._reasons[variable] = reason
        self._trail.append(lit)

    def _decide(self, lit: int) -> None:
        self._trail_lim.append(len(self._trail))
        self._enqueue(lit, None)

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        assign = self._assign
        phase = self._phase
        reasons = self._reasons
        activity = self._activity
        heap = self._heap
        for index in range(len(self._trail) - 1, bound - 1, -1):
            lit = self._trail[index]
            variable = lit if lit > 0 else -lit
            phase[variable] = lit > 0  # phase saving
            assign[lit] = 0
            assign[-lit] = 0
            reasons[variable] = None
            heappush(heap, (-activity[variable], variable))
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------ #
    # Propagation
    # ------------------------------------------------------------------ #
    def _propagate(self) -> Optional[_Clause]:
        """Exhaust the propagation queue; the conflicting clause or None.

        The inner loop is the profile leader of the whole stack, so it is
        written against hoisted locals (attribute loads dominate otherwise),
        enqueues inline, counts propagations once as a delta on exit, and
        scans the flat binary-implication adjacency of each dequeued literal
        before touching the watch machinery at all.
        """
        assign = self._assign
        levels = self._levels
        reasons = self._reasons
        watches = self._watches
        bins = self._bins
        trail = self._trail
        level = len(self._trail_lim)
        qhead = self._qhead
        conflict: Optional[_Clause] = None
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            # binary implications: no watches to repair, just assign or fail
            # (``bins[lit]`` holds the implications of clauses whose other
            # literal ``lit`` just falsified — see ``_attach``)
            pair = bins[lit]
            blits = pair[0]
            if blits:
                for index, other in enumerate(blits):
                    value = assign[other]
                    if value == 0:
                        assign[other] = 1
                        assign[-other] = -1
                        clause = pair[1][index]
                        variable = other if other > 0 else -other
                        levels[variable] = level
                        reasons[variable] = clause
                        trail.append(other)
                    elif value < 0:  # falsified: conflict
                        conflict = pair[1][index]
                        break
                if conflict is not None:
                    break
            watchers = watches[-lit]
            if not watchers:
                continue
            kept: List[_Clause] = []
            watches[-lit] = kept
            for position, clause in enumerate(watchers):
                if assign[clause.blocker] == 1:
                    kept.append(clause)
                    continue
                lits = clause.lits
                # put the falsified watch at slot 1
                if lits[0] == -lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                value = assign[first]
                if value == 1:
                    clause.blocker = first
                    kept.append(clause)
                    continue
                for index in range(2, len(lits)):
                    if assign[lits[index]] >= 0:
                        lits[1], lits[index] = lits[index], lits[1]
                        watches[lits[1]].append(clause)
                        break
                else:
                    kept.append(clause)
                    if value < 0:  # conflict
                        kept.extend(watchers[position + 1:])
                        conflict = clause
                        break
                    assign[first] = 1
                    assign[-first] = -1
                    variable = first if first > 0 else -first
                    levels[variable] = level
                    reasons[variable] = clause
                    trail.append(first)
            if conflict is not None:
                break
        self._stats["propagations"] += qhead - self._qhead
        self._qhead = len(trail) if conflict is not None else qhead
        return conflict

    # ------------------------------------------------------------------ #
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------ #
    def _bump_var(self, variable: int) -> None:
        activity = self._activity[variable] + self._var_inc
        self._activity[variable] = activity
        if activity > self._ACTIVITY_RESCALE:
            scale = 1.0 / self._ACTIVITY_RESCALE
            for v in range(1, self.num_variables + 1):
                self._activity[v] *= scale
            self._var_inc *= scale
            self._heap = [
                (-self._activity[v], v)
                for v in range(1, self.num_variables + 1)
                if self._assign[v] == 0
            ]
            heapify(self._heap)
        elif self._assign[variable] == 0:
            heappush(self._heap, (-activity, variable))

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > self._CLAUSE_RESCALE:
            scale = 1.0 / self._CLAUSE_RESCALE
            for learnt in self._learnts:
                learnt.activity *= scale
            self._cla_inc *= scale

    def _analyze(self, conflict: _Clause) -> Tuple[int, List[int], int]:
        """First-UIP learnt clause, the backjump level, and the clause's LBD
        (its "glue": the number of distinct decision levels it spans).

        Hot path: locals are hoisted and the VSIDS bump is inlined — every
        bumped variable is currently assigned (it sits on the trail), so the
        push-back-into-the-heap branch of ``_bump_var`` can never fire here
        and only the rare activity rescale needs handling, after the loop."""
        seen = self._seen
        levels = self._levels
        trail = self._trail
        reasons = self._reasons
        activity = self._activity
        var_inc = self._var_inc
        current_level = len(self._trail_lim)
        learnt: List[int] = []
        to_clear: List[int] = []
        path_count = 0
        asserting: Optional[int] = None
        index = len(trail) - 1
        clause: Optional[_Clause] = conflict
        rescale = False
        while True:
            assert clause is not None
            if clause.learnt:
                self._bump_clause(clause)
            for lit in clause.lits:
                variable = lit if lit > 0 else -lit
                if not seen[variable] and levels[variable] > 0:
                    seen[variable] = 1
                    to_clear.append(variable)
                    bumped = activity[variable] + var_inc
                    activity[variable] = bumped
                    if bumped > self._ACTIVITY_RESCALE:
                        rescale = True
                    if levels[variable] >= current_level:
                        path_count += 1
                    else:
                        learnt.append(lit)
            while True:
                asserting = trail[index]
                index -= 1
                if seen[asserting if asserting > 0 else -asserting]:
                    break
            path_count -= 1
            if path_count == 0:
                break
            clause = reasons[asserting if asserting > 0 else -asserting]
        if rescale:
            scale = 1.0 / self._ACTIVITY_RESCALE
            for v in range(1, self.num_variables + 1):
                activity[v] *= scale
            self._var_inc *= scale
            assign = self._assign
            self._heap = [
                (-activity[v], v)
                for v in range(1, self.num_variables + 1)
                if assign[v] == 0
            ]
            heapify(self._heap)
        # self-subsumption minimisation: a context literal is redundant when
        # its reason is made entirely of literals already in the clause
        minimized: List[int] = []
        for lit in learnt:
            reason = reasons[lit if lit > 0 else -lit]
            if reason is None:
                minimized.append(lit)
                continue
            for other in reason.lits:
                variable = other if other > 0 else -other
                if not seen[variable] and levels[variable] > 0:
                    minimized.append(lit)
                    break
        learnt_clause = [-asserting] + minimized
        seen[asserting if asserting > 0 else -asserting] = 0
        for variable in to_clear:
            seen[variable] = 0
        lbd = len({levels[lit if lit > 0 else -lit] for lit in learnt_clause})
        if len(learnt_clause) == 1:
            return 0, learnt_clause, lbd
        # watch a literal of the backjump level at slot 1
        max_index = 1
        max_level = levels[learnt_clause[1] if learnt_clause[1] > 0 else -learnt_clause[1]]
        for index in range(2, len(learnt_clause)):
            lit = learnt_clause[index]
            lit_level = levels[lit if lit > 0 else -lit]
            if lit_level > max_level:
                max_index, max_level = index, lit_level
        learnt_clause[1], learnt_clause[max_index] = learnt_clause[max_index], learnt_clause[1]
        return max_level, learnt_clause, lbd

    def _assumption_core(self, failed: int) -> List[int]:
        """The subset of the current assumptions responsible for falsifying
        the assumption literal *failed* (MiniSat's ``analyzeFinal``).

        Walks the trail above the root level, expanding propagation reasons;
        the decisions it reaches are assumption literals (regular decisions
        are only ever made after every assumption has been placed, and a
        falsified assumption is detected before that point).
        """
        core = {failed}
        if self._trail_lim:
            seen = self._seen
            levels = self._levels
            start = abs(failed)
            seen[start] = 1
            for index in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
                lit = self._trail[index]
                variable = abs(lit)
                if not seen[variable]:
                    continue
                reason = self._reasons[variable]
                if reason is None:
                    core.add(lit)  # a decision above the root: an assumption
                else:
                    for other in reason.lits:
                        if levels[abs(other)] > 0:
                            seen[abs(other)] = 1
                seen[variable] = 0
            seen[start] = 0
        return sorted(core, key=abs)

    def _record_learnt(self, lits: List[int], lbd: int = 0) -> None:
        self._stats["learnt"] += 1
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            return
        clause = _Clause(lits, learnt=True, lbd=lbd)
        self._bump_clause(clause)
        self._learnts.append(clause)
        self._attach(clause, self._watches, self._bins)
        self._enqueue(lits[0], clause)

    def _reduce_learnts(self) -> None:
        """Drop the worse half of the learnt clauses, judged by glue first
        (high LBD goes first) and activity second.  "Glue" clauses
        (``lbd <= 2``), binary clauses and clauses that are currently
        propagation reasons always survive — glue-2 clauses connect exactly
        two decision levels and re-deriving them is what restarts spend most
        of their time on."""
        self._learnts.sort(key=lambda c: (-c.lbd, c.activity))
        keep_from = len(self._learnts) // 2
        kept: List[_Clause] = []
        for index, clause in enumerate(self._learnts):
            locked = self._reasons[abs(clause.lits[0])] is clause
            if (
                index >= keep_from
                or len(clause.lits) <= 2
                or clause.lbd <= 2
                or locked
            ):
                kept.append(clause)
            else:
                clause.deleted = True
                self._stats["deleted"] += 1
        self._learnts = kept
        self._max_learnts *= 1.3
        # purge deleted clauses from the watch lists eagerly so the
        # propagation inner loop needs no per-entry deleted check (binaries
        # are never deleted, so the implication lists need no purge)
        watches = self._watches
        for index in range(len(watches)):
            watchers = watches[index]
            if watchers:
                watches[index] = [c for c in watchers if not c.deleted]

    def _decay_activities(self) -> None:
        self._var_inc *= self._var_decay
        self._cla_inc *= self._cla_decay

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def _pick_branch_variable(self) -> Optional[int]:
        heap = self._heap
        activity = self._activity
        values = self._assign
        while heap:
            negated, variable = heappop(heap)
            if values[variable] == 0 and -negated == activity[variable]:
                return variable
        for variable in range(1, self.num_variables + 1):  # stale-heap fallback
            if values[variable] == 0:
                return variable
        return None

    def _charge_budget(self, budget: Optional[Budget], charged_from: int) -> int:
        """Charge one conflict (plus the propagation delta since
        *charged_from*) against *budget*; the new charged-up-to mark.

        The learnt clause of the conflict is already recorded when this runs,
        so an interrupting :class:`ResourceBudgetExceeded` leaves the solver
        one learnt clause richer — resuming continues, never repeats.  The
        trail is cancelled to the root before the exception propagates so the
        solver is immediately reusable.
        """
        propagated = self._stats["propagations"]
        try:
            faults.trip("solver.conflict")
            if budget is not None:
                budget.charge(conflicts=1, propagations=propagated - charged_from)
        except Exception:
            self._cancel_until(0)
            raise
        return propagated

    def _search(
        self,
        assumptions: Sequence[int],
        restart_limit: int,
        budget: Optional[Budget] = None,
    ) -> Optional[bool]:
        """Run CDCL until SAT (True), UNSAT (False) or *restart_limit*
        conflicts trigger a restart (None); every conflict is charged against
        *budget*, which raises when exhausted."""
        conflicts = 0
        charged_from = self._stats["propagations"]
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self._stats["conflicts"] += 1
                conflicts += 1
                if not self._trail_lim:
                    self._ok = False  # conflict at the root: UNSAT forever
                    self._final_core = []
                    return False
                backjump, learnt, lbd = self._analyze(conflict)
                jump = len(self._trail_lim) - backjump
                if jump > self._stats["max_backjump"]:
                    self._stats["max_backjump"] = jump
                self._cancel_until(backjump)
                self._record_learnt(learnt, lbd)
                self._decay_activities()
                charged_from = self._charge_budget(budget, charged_from)
                continue
            if conflicts >= restart_limit:
                self._stats["restarts"] += 1
                self._cancel_until(0)
                return None
            if len(self._learnts) > self._max_learnts + len(self._trail):
                self._reduce_learnts()
            # next decision: pending assumptions first
            decided = False
            while len(self._trail_lim) < len(assumptions):
                assumption = assumptions[len(self._trail_lim)]
                value = self._lit_value(assumption)
                if value == 1:
                    self._trail_lim.append(len(self._trail))  # dummy level
                elif value == -1:
                    # UNSAT under the assumptions: extract the failing core
                    # while the trail still holds the falsifying derivation
                    self._final_core = self._assumption_core(assumption)
                    return False
                else:
                    self._decide(assumption)
                    decided = True
                    break
            if decided:
                continue
            variable = self._pick_branch_variable()
            if variable is None:
                return True  # every variable assigned: model found
            self._stats["decisions"] += 1
            self._decide(variable if self._phase[variable] else -variable)

    def solve(
        self, assumptions: Sequence[int] = (), budget: Optional[Budget] = None
    ) -> Optional[Model]:
        """A total model over all allocated variables, or None (UNSAT).

        *assumptions* is a conjunction of literals assumed true for this call
        only; the clause database is not modified.  Learnt clauses, variable
        activities and saved phases persist to the next call.

        Assumption semantics (normative for every registered backend, see
        :class:`~repro.solvers.backend.SolverBackend`): duplicate assumptions
        are idempotent — ``solve([x, x])`` behaves exactly like
        ``solve([x])``, including the reported core.  A syntactically
        contradictory assumption list (both ``x`` and ``-x`` present)
        short-circuits to UNSAT without searching; ``analyze_final()`` then
        reports exactly the offending pair, earlier-assumed literal first.
        Cores never contain duplicates, are sorted by variable, and are
        always a subset of the assumptions passed.

        *budget* (or, when None, the ambient budget installed by
        :func:`~repro.solvers.budget.budget_scope`) bounds the search:
        exceeding it raises :class:`~repro.exceptions.ResourceBudgetExceeded`
        with the learnt state intact, so a later ``solve`` resumes the search
        and reaches the identical verdict.  An already-exhausted budget raises
        before the search starts.
        """
        faults.trip("solver.solve")
        effective = budget if budget is not None else current_budget()
        if not self._ok:
            self._final_core = []
            return None
        if effective is not None:
            effective.check()
        self._final_core = None
        # normalise the assumption list: duplicates are idempotent, and a
        # syntactically contradictory pair is UNSAT by inspection — the core
        # is exactly that pair, earlier-assumed literal first (searching
        # instead would surface whichever derivation the solver tripped over
        # first, in trail order that varies with learnt state)
        assumed: List[int] = []
        seen_assumptions = set()
        for lit in assumptions:
            if lit == 0:
                raise SolverError("0 is not a valid literal")
            if lit in seen_assumptions:
                continue
            if -lit in seen_assumptions:
                self._final_core = [-lit, lit]
                return None
            seen_assumptions.add(lit)
            assumed.append(lit)
            self.ensure_vars(abs(lit))
        self._cancel_until(0)
        outcome: Optional[bool] = None
        attempt = 0
        while outcome is None:
            outcome = self._search(
                assumed, _luby(2, attempt) * self._RESTART_BASE, effective
            )
            attempt += 1
        if not outcome:
            self._cancel_until(0)
            return None
        positives = self._assign[1 : self._var_count + 1]
        model = dict(zip(range(1, self._var_count + 1), [x == 1 for x in positives]))
        self._cancel_until(0)
        return model

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def analyze_final(self) -> Optional[List[int]]:
        """The assumption core of the last UNSAT ``solve(assumptions=...)``.

        Returns a subset of the literals passed as assumptions to the last
        ``solve`` call that is already unsatisfiable together with the clause
        database (so re-solving under just the core returns UNSAT again).  An
        empty list means the clause database itself is unsatisfiable,
        independent of any assumption.  Returns ``None`` when the last solve
        was satisfiable or no solve has run yet.
        """
        return None if self._final_core is None else list(self._final_core)

    def stats(self) -> Dict[str, int]:
        """Search statistics (conflicts, decisions, restarts, learnt, ...)."""
        return dict(self._stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Solver({self.num_variables} variables, {len(self._clauses)} clauses, "
            f"{len(self._learnts)} learnt)"
        )


# --------------------------------------------------------------------------- #
# Module-level API (CDCL-backed)
# --------------------------------------------------------------------------- #
def solve(
    clauses: Sequence[Clause],
    num_variables: Optional[int] = None,
    backend: Optional[str] = None,
) -> Optional[Model]:
    """Solve a raw clause list; returns a total model or None if unsatisfiable.

    *backend* selects a registered solver backend (default: the reference
    CDCL engine) — imported lazily because the backend registry itself
    imports this module.
    """
    if backend is None:
        solver: Any = Solver(num_variables or 0)
    else:
        from repro.solvers.backend import create_solver

        solver = create_solver(backend, num_variables or 0)
    for clause in clauses:
        if not solver.add_clause(clause):
            return None
    return solver.solve()


def solve_cnf(cnf: CNF, backend: Optional[str] = None) -> Optional[Model]:
    """Solve a :class:`CNF`; returns a total model over its variables or None."""
    return solve(cnf.clauses, cnf.num_variables, backend=backend)


def is_satisfiable(cnf: CNF) -> bool:
    """Whether the CNF has at least one model."""
    return solve_cnf(cnf) is not None


def iterate_models(
    cnf: CNF,
    project_onto: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
    backend: Optional[str] = None,
) -> Iterator[Model]:
    """Enumerate models, optionally projected onto a subset of variables.

    Projection enumerates distinct assignments of *project_onto* (blocking
    clauses are added on those variables only).  Without projection every
    total model is blocked individually.  One incremental :class:`Solver`
    carries the whole enumeration, so clauses learnt while finding one model
    (and the variable activities and saved phases) keep pruning the search
    for all later models instead of restarting from scratch.

    *backend* selects a registered solver backend for the enumeration
    (default: the reference CDCL engine) — imported lazily because the
    backend registry itself imports this module.
    """
    if backend is None:
        solver: Any = Solver(cnf.num_variables)
    else:
        from repro.solvers.backend import create_solver

        solver = create_solver(backend, cnf.num_variables)
    for clause in cnf.clauses:
        if not solver.add_clause(clause):
            return
    variables = list(project_onto) if project_onto is not None else list(
        range(1, cnf.num_variables + 1)
    )
    produced = 0
    while True:
        model = solver.solve()
        if model is None:
            return
        yield model
        produced += 1
        if limit is not None and produced >= limit:
            return
        blocking = [
            -variable if model.get(variable, False) else variable for variable in variables
        ]
        if not blocking:
            return
        if not solver.add_clause(blocking):
            return


# --------------------------------------------------------------------------- #
# The retained seed engine (reference oracle)
# --------------------------------------------------------------------------- #
def _simplify(clauses: List[Clause], literal: Literal) -> Optional[List[Clause]]:
    """Assign *literal* true: drop satisfied clauses, shrink the others.

    Returns None if an empty clause (conflict) arises.
    """
    out: List[Clause] = []
    for clause in clauses:
        if literal in clause:
            continue
        if -literal in clause:
            reduced = tuple(l for l in clause if l != -literal)
            if not reduced:
                return None
            out.append(reduced)
        else:
            out.append(clause)
    return out


def _unit_propagate(
    clauses: List[Clause], assignment: Model
) -> Optional[Tuple[List[Clause], Model]]:
    """Exhaustively propagate unit clauses; None on conflict."""
    current = clauses
    model = dict(assignment)
    while True:
        units = [clause[0] for clause in current if len(clause) == 1]
        if not units:
            return current, model
        for literal in units:
            variable = abs(literal)
            value = literal > 0
            if variable in model:
                if model[variable] != value:
                    return None
                continue
            model[variable] = value
            simplified = _simplify(current, literal)
            if simplified is None:
                return None
            current = simplified


def _choose_literal(clauses: List[Clause]) -> Literal:
    counts: Counter = Counter()
    for clause in clauses:
        counts.update(clause)
    literal, _ = counts.most_common(1)[0]
    return literal


def _dpll(clauses: List[Clause], assignment: Model) -> Optional[Model]:
    """DPLL search with an explicit work stack (the seed engine).

    The recursion depth of the textbook formulation equals the number of
    branching decisions, which for the CNFs produced by
    ``CurrentDatabaseEnumerator`` on large specifications can exceed Python's
    recursion limit; the explicit stack makes the search depth-unbounded.
    Frames are explored in the same order as the recursive version (the
    most-occurrences literal first, then its negation).
    """
    # each frame: (clauses, assignment, pending); pending is None for a frame
    # not yet propagated, or the decision literals still to try on it —
    # branches are simplified lazily, so the negation branch costs nothing
    # unless the first branch actually fails
    stack: List[Tuple[List[Clause], Model, Optional[List[Literal]]]] = [
        (clauses, assignment, None)
    ]
    while stack:
        clauses, assignment, pending = stack.pop()
        if pending is None:
            propagated = _unit_propagate(clauses, assignment)
            if propagated is None:
                continue
            clauses, assignment = propagated
            if not clauses:
                return assignment
            literal = _choose_literal(clauses)
            pending = [literal, -literal]
        chosen = pending.pop(0)
        if pending:
            stack.append((clauses, assignment, pending))
        simplified = _simplify(clauses, chosen)
        if simplified is None:
            continue
        extended = dict(assignment)
        extended[abs(chosen)] = chosen > 0
        stack.append((simplified, extended, None))
    return None


def solve_naive(
    clauses: Sequence[Clause], num_variables: Optional[int] = None
) -> Optional[Model]:
    """The seed DPLL engine (simplify-and-copy, most-occurrences branching).

    Kept as the reference oracle for equivalence tests and ablation
    benchmarks, mirroring ``evaluate_naive`` in the query layer.  Returns a
    total model (missing variables default to False) or None.
    """
    for clause in clauses:
        if not clause:
            return None
    model = _dpll([tuple(c) for c in clauses], {})
    if model is None:
        return None
    if num_variables is not None:
        for variable in range(1, num_variables + 1):
            model.setdefault(variable, False)
    return model
