"""CNF formulas with named variables.

The SAT-backed solvers encode "does a consistent completion with property X
exist?" questions as CNF satisfiability.  Variables are identified by
arbitrary hashable names (e.g. ``("Emp", "salary", "s1", "s2")`` for the
currency pair ``s1 ≺_salary s2``); the formula maps them to positive integers
for the CDCL solver (:mod:`repro.solvers.sat`).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import SolverError

__all__ = ["CNF", "Literal"]

Literal = int  # positive = variable, negative = negated variable


class CNF:
    """A CNF formula over named Boolean variables."""

    def __init__(self) -> None:
        self._name_to_index: Dict[Hashable, int] = {}
        self._index_to_name: List[Hashable] = []
        self.clauses: List[Tuple[Literal, ...]] = []

    # ------------------------------------------------------------------ #
    # Variables
    # ------------------------------------------------------------------ #
    def variable(self, name: Hashable) -> int:
        """The (positive) index of the variable called *name*, creating it if needed."""
        index = self._name_to_index.get(name)
        if index is None:
            index = len(self._index_to_name) + 1
            self._name_to_index[name] = index
            self._index_to_name.append(name)
        return index

    def anonymous_variable(self) -> int:
        """A fresh variable left out of the name table (its name reads None):
        per-pass scratch such as activation literals, which would otherwise
        pile up in every pickled copy of the table."""
        self._index_to_name.append(None)
        return len(self._index_to_name)

    def literal(self, name: Hashable, positive: bool = True) -> Literal:
        """A literal for the named variable."""
        index = self.variable(name)
        return index if positive else -index

    def name_of(self, index: int) -> Hashable:
        """The name of variable *index*."""
        if index < 1 or index > len(self._index_to_name):
            raise SolverError(f"unknown variable index {index}")
        return self._index_to_name[index - 1]

    @property
    def num_variables(self) -> int:
        """Number of variables allocated so far."""
        return len(self._index_to_name)

    # ------------------------------------------------------------------ #
    # Clauses
    # ------------------------------------------------------------------ #
    def add_clause(self, literals: Iterable[Literal]) -> None:
        """Add a clause (a disjunction of literals, by index)."""
        clause = tuple(literals)
        if not clause:
            # empty clause: formula is unsatisfiable; keep it explicit
            self.clauses.append(clause)
            return
        if 0 in clause:
            raise SolverError("0 is not a valid literal")
        self.clauses.append(clause)

    def add_named_clause(self, named_literals: Iterable[Tuple[Hashable, bool]]) -> None:
        """Add a clause given as (variable name, polarity) pairs."""
        self.add_clause(self.literal(name, positive) for name, positive in named_literals)

    def add_unit(self, name: Hashable, positive: bool = True) -> None:
        """Add a unit clause forcing the named variable."""
        self.add_clause([self.literal(name, positive)])

    def add_implication(
        self, premises: Sequence[Tuple[Hashable, bool]], conclusion: Optional[Tuple[Hashable, bool]]
    ) -> None:
        """Add ``premises → conclusion`` (conclusion None means ``→ False``)."""
        clause = [self.literal(name, not positive) for name, positive in premises]
        if conclusion is not None:
            name, positive = conclusion
            clause.append(self.literal(name, positive))
        self.add_clause(clause)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def decode_model(self, model: Dict[int, bool]) -> Dict[Hashable, bool]:
        """Map a model over variable indices back to variable names."""
        return {self.name_of(index): value for index, value in model.items()}

    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CNF({self.num_variables} variables, {len(self.clauses)} clauses)"
