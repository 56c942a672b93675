"""The project-specific rules (R1–R9).

Each rule encodes one hard-won invariant of the warm-state reasoning stack —
see the class docstrings for the historical bug each one would have caught.
Rules are deliberately heuristic where full type inference would be needed
(R2's domain-object detection, R3's id-ish parts): the heuristics are tuned
so that every *real* occurrence in this codebase is detected, and the inline
pragma (with its mandatory reason) absorbs the intentional ones.
"""

from __future__ import annotations

import ast
import re
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.static.framework import (
    Finding,
    ModuleContext,
    ProjectIndex,
    Rule,
)

__all__ = ["ALL_RULES", "rule_by_identifier"]


def _callee_identifier(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _is_self_attribute(node: ast.AST, attributes: Set[str]) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in attributes
    )


def _calls_self_method(body: Sequence[ast.stmt], prefix: str) -> bool:
    for statement in body:
        for node in ast.walk(statement):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.func.attr.startswith(prefix)
            ):
                return True
    return False


# --------------------------------------------------------------------------- #
# R1 — cache dependencies
# --------------------------------------------------------------------------- #
class CacheDependenciesRule(Rule):
    """R1: every mutating method of a class carrying a ``CACHE_DEPENDENCIES``
    map is registered in it, the map names no phantom methods, and every
    policy is a literal from the known vocabulary (:attr:`POLICIES`).

    Historical bug: the PR-5 mutation API grew method by method, and nothing
    forced a new mutator to state which caches it invalidates — a forgotten
    entry meant a stale chase or encoder silently answering for a mutated
    specification.  The 200-seed mutation harness catches this at runtime;
    this rule catches it before a solver ever runs.  The vocabulary check
    exists because the policies are dispatched by string comparison: a typo
    (``"exttend"``) would silently behave as an unknown policy instead of
    failing loudly.
    """

    code = "R1"
    name = "cache-deps"
    summary = "mutating methods must be registered in CACHE_DEPENDENCIES"
    rationale = (
        "a mutator missing from the dependency map leaves stale substrate "
        "answering for a mutated specification (PR-5 bug class)"
    )

    MUTATOR_PREFIXES = ("add_", "remove_", "delete_", "set_", "drop_", "insert_")

    #: the complete invalidation-policy vocabulary; every per-cache entry of
    #: CACHE_DEPENDENCIES must be one of these literals (``"delta"`` is the
    #: footprint-scoped fast path added with the streaming-mutation tier)
    POLICIES: FrozenSet[str] = frozenset(
        {"keep", "extend", "extend-or-rebuild", "rebuild", "clear", "delta"}
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(context, node)

    # ------------------------------------------------------------------ #
    def _dependency_map(
        self, class_node: ast.ClassDef
    ) -> Optional[Tuple[ast.AST, Optional[ast.Dict]]]:
        for statement in class_node.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target, value = statement.targets[0], statement.value
            elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
                target, value = statement.target, statement.value
            if (
                target is not None
                and isinstance(target, ast.Name)
                and target.id == "CACHE_DEPENDENCIES"
            ):
                return statement, value if isinstance(value, ast.Dict) else None
        return None

    def _is_mutating(self, method: ast.FunctionDef) -> bool:
        if method.name.startswith("_"):
            return False
        if method.name.startswith(self.MUTATOR_PREFIXES):
            return True
        if _calls_self_method(method.body, "_clear_answer_state"):
            return True
        for statement in method.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.AugAssign) and _is_self_attribute(
                    node.target, {"mutations"}
                ):
                    return True
        return False

    def _check_class(
        self, context: ModuleContext, class_node: ast.ClassDef
    ) -> Iterator[Finding]:
        located = self._dependency_map(class_node)
        if located is None:
            return
        statement, mapping = located
        if mapping is None:
            yield self.finding(
                context,
                statement,
                "CACHE_DEPENDENCIES must be a literal dict of dicts so the "
                "mutation registry can be cross-checked statically",
            )
            return

        registered: Set[str] = set()
        per_cache: Dict[str, Tuple[ast.AST, Set[str]]] = {}
        for cache_key, cache_value in zip(mapping.keys, mapping.values):
            cache_label = (
                cache_key.value
                if isinstance(cache_key, ast.Constant) and isinstance(cache_key.value, str)
                else ast.unparse(cache_key) if cache_key is not None else "?"
            )
            if not isinstance(cache_value, ast.Dict):
                yield self.finding(
                    context,
                    cache_value,
                    f"cache entry {cache_label!r} of CACHE_DEPENDENCIES must be "
                    "a literal dict of mutation -> policy",
                )
                continue
            names = {
                inner.value
                for inner in cache_value.keys
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str)
            }
            registered |= names
            per_cache[cache_label] = (cache_value, names)
            for inner_key, inner_value in zip(cache_value.keys, cache_value.values):
                mutation_label = (
                    inner_key.value
                    if isinstance(inner_key, ast.Constant)
                    and isinstance(inner_key.value, str)
                    else ast.unparse(inner_key) if inner_key is not None else "?"
                )
                if not (
                    isinstance(inner_value, ast.Constant)
                    and isinstance(inner_value.value, str)
                ):
                    yield self.finding(
                        context,
                        inner_value,
                        f"cache {cache_label!r} gives mutation "
                        f"{mutation_label!r} a non-literal policy; policies "
                        "must be literal strings so the vocabulary can be "
                        "checked statically",
                    )
                elif inner_value.value not in self.POLICIES:
                    allowed = ", ".join(sorted(self.POLICIES))
                    yield self.finding(
                        context,
                        inner_value,
                        f"cache {cache_label!r} gives mutation "
                        f"{mutation_label!r} unknown policy "
                        f"{inner_value.value!r}; the vocabulary is: {allowed}",
                    )

        for cache_label, (cache_node, names) in per_cache.items():
            for missing in sorted(registered - names):
                yield self.finding(
                    context,
                    cache_node,
                    f"cache {cache_label!r} has no entry for mutation "
                    f"{missing!r}; every cache must state its policy for "
                    "every registered mutation",
                )

        methods = {
            item.name: item
            for item in class_node.body
            if isinstance(item, ast.FunctionDef)
        }
        for method_name, method in sorted(methods.items()):
            if self._is_mutating(method) and method_name not in registered:
                yield self.finding(
                    context,
                    method,
                    f"mutating method {method_name!r} has no entry in "
                    "CACHE_DEPENDENCIES; register its invalidation policy for "
                    "every cache",
                )
        for registered_name in sorted(registered):
            if registered_name not in methods:
                yield self.finding(
                    context,
                    statement,
                    f"CACHE_DEPENDENCIES registers {registered_name!r} but the "
                    "class defines no such method (stale entry)",
                )


# --------------------------------------------------------------------------- #
# R2 — identity comparison on structurally-equal domain objects
# --------------------------------------------------------------------------- #
class IdentityComparisonRule(Rule):
    """R2: no ``is``/``is not`` comparisons or ``id()``-keying on domain
    objects that define structural equality.

    Historical bug: ``space_for`` compared specifications with ``is``, so a
    caller that rebuilt a value-identical specification was handed a warm
    solver for "a different specification" — PR 4 replaced the check with
    ``Specification.__eq__``.  The same bug class resurfaced in the session's
    answer memo, which keyed entries by ``id(query)``: a caller re-building a
    value-identical query missed the memo every time (and kept dead entries
    alive), so ``Query``/``SPQuery`` grew structural equality and joined this
    rule's types.  Identity is only meaningful for these types as a *fast
    path in front of* the structural comparison, which is exactly what the
    pragma reasons on the surviving call sites say.
    """

    code = "R2"
    name = "identity-compare"
    summary = "no is/id() on domain objects with structural equality"
    rationale = (
        "identity checks on Specification and friends reject value-identical "
        "rebuilds and split caches that must agree (PR-4 space_for bug)"
    )

    STRUCTURAL_TYPES: FrozenSet[str] = frozenset(
        {
            "Specification",
            "TemporalInstance",
            "NormalInstance",
            "CopyFunction",
            "DenialConstraint",
            "CandidateImport",
            "RelationTuple",
            "PartialOrder",
            "Query",
            "SPQuery",
        }
    )
    NAME_HINTS: FrozenSet[str] = frozenset(
        {
            "specification",
            "spec",
            "instance",
            "temporal_instance",
            "normal_instance",
            "copy_function",
            "denial_constraint",
            "constraint",
            "candidate",
            "candidate_import",
            "relation_tuple",
            "source_tuple",
            "target_tuple",
            "partial_order",
            "query",
            "sp_query",
        }
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Compare):
                yield from self._check_compare(context, node)
            elif isinstance(node, ast.Call):
                yield from self._check_id_call(context, node)

    # ------------------------------------------------------------------ #
    def _is_identity_singleton(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return node.value is None or node.value is True or node.value is False or node.value is Ellipsis
        if isinstance(node, ast.Name):
            return node.id == "NotImplemented" or node.id.isupper()
        if isinstance(node, ast.Attribute):
            return node.attr.isupper()
        return False

    def _normalised(self, identifier: str) -> str:
        return identifier.lstrip("_").rstrip("0123456789").lower()

    def _hint_matches(self, identifier: str) -> bool:
        norm = self._normalised(identifier)
        if norm in self.NAME_HINTS:
            return True
        return any(norm.endswith("_" + hint) for hint in self.NAME_HINTS)

    def _annotation_matches(self, context: ModuleContext, node: ast.expr) -> bool:
        if not isinstance(node, ast.Name):
            return False
        function = context.enclosing_function(node)
        if function is None or not isinstance(
            function, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return False
        arguments = function.args
        every = (
            list(arguments.posonlyargs)
            + list(arguments.args)
            + list(arguments.kwonlyargs)
        )
        for argument in every:
            if argument.arg == node.id and argument.annotation is not None:
                rendered = ast.unparse(argument.annotation)
                if any(name in rendered for name in self.STRUCTURAL_TYPES):
                    return True
        return False

    def _is_domain_object(self, context: ModuleContext, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            if node.id == "self":
                enclosing = context.enclosing_class(node)
                return enclosing is not None and enclosing.name in self.STRUCTURAL_TYPES
            return self._hint_matches(node.id) or self._annotation_matches(context, node)
        if isinstance(node, ast.Attribute):
            return self._hint_matches(node.attr)
        return False

    def _check_compare(
        self, context: ModuleContext, node: ast.Compare
    ) -> Iterator[Finding]:
        left: ast.expr = node.left
        for operator, right in zip(node.ops, node.comparators):
            if isinstance(operator, (ast.Is, ast.IsNot)):
                if not (
                    self._is_identity_singleton(left)
                    or self._is_identity_singleton(right)
                ):
                    if self._is_domain_object(context, left) or self._is_domain_object(
                        context, right
                    ):
                        verb = "is" if isinstance(operator, ast.Is) else "is not"
                        yield self.finding(
                            context,
                            node,
                            f"identity comparison ({verb!r}) on a domain object "
                            "that defines structural equality; compare with "
                            "==/!= (or keep identity only as a fast path with "
                            "a pragma)",
                        )
            left = right

    def _check_id_call(
        self, context: ModuleContext, node: ast.Call
    ) -> Iterator[Finding]:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
            and not node.keywords
        ):
            if self._is_domain_object(context, node.args[0]):
                yield self.finding(
                    context,
                    node,
                    "id() on a domain object that defines structural equality "
                    "— identity-keyed state splits entries that compare "
                    "equal; use the object (or a structural fingerprint) as "
                    "the key",
                )


# --------------------------------------------------------------------------- #
# R3 — composite string keys built from ids
# --------------------------------------------------------------------------- #
class StringKeyRule(Rule):
    """R3: no string-concatenated/f-string composite keys built from
    entity/tuple ids — require structured tuples.

    Historical bug: ``CandidateImport.new_tid`` was the f-string
    ``"import::{cf}::{tid}::{eid}"``; two distinct imports whose ids
    themselves contained ``"::"`` collapsed into one tuple id, silently
    merging extensions (fixed in PR 4 by a structured tuple).  Display-intent
    strings (``!r`` conversions, ``raise``/logging arguments, ``__repr__``/
    ``describe`` bodies) are exempt.
    """

    code = "R3"
    name = "string-key"
    summary = "no f-string/concat composite keys built from ids"
    rationale = (
        "string-joined ids collide when an id contains the separator "
        "(PR-4 'import::' tid bug); structured tuples cannot"
    )

    ID_SEGMENTS: FrozenSet[str] = frozenset(
        {"tid", "tids", "eid", "eids", "uid", "uids", "id", "ids", "ident"}
    )
    DISPLAY_CALLS: FrozenSet[str] = frozenset(
        {
            "print",
            "format",
            "log",
            "debug",
            "info",
            "warning",
            "warn",
            "error",
            "critical",
            "exception",
            "write",
        }
    )
    DISPLAY_FUNCTIONS = ("__repr__", "__str__", "__format__", "describe")
    DISPLAY_PREFIXES = ("render", "format", "display", "print", "log", "show", "describe")

    _WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        consumed: Set[ast.AST] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                yield from self._check_concat(context, node, consumed)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                yield from self._check_percent(context, node)
        for node in ast.walk(context.tree):
            if isinstance(node, ast.JoinedStr) and node not in consumed:
                yield from self._check_fstring(context, node)

    # ------------------------------------------------------------------ #
    def _expression_is_idish(self, expression: ast.expr) -> bool:
        rendered = ast.unparse(expression)
        for word in self._WORD_RE.findall(rendered):
            if any(segment in self.ID_SEGMENTS for segment in word.lower().split("_")):
                return True
        return False

    def _context_exempt(self, context: ModuleContext, node: ast.AST) -> bool:
        for ancestor in context.ancestors(node):
            if isinstance(ancestor, ast.Raise):
                return True
            if isinstance(ancestor, ast.Call):
                callee = _callee_identifier(ancestor)
                if callee is not None and callee.lower() in self.DISPLAY_CALLS:
                    return True
        function = context.enclosing_function(node)
        if function is not None and isinstance(
            function, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            if function.name in self.DISPLAY_FUNCTIONS or function.name.startswith(
                self.DISPLAY_PREFIXES
            ):
                return True
        return False

    def _report(self, context: ModuleContext, node: ast.AST, how: str) -> Finding:
        return self.finding(
            context,
            node,
            f"composite {how} built from entity/tuple ids is used as a "
            "string; ids containing the separator collide — use a structured "
            "tuple instead",
        )

    def _check_fstring(
        self, context: ModuleContext, node: ast.JoinedStr
    ) -> Iterator[Finding]:
        dynamic = [part for part in node.values if isinstance(part, ast.FormattedValue)]
        literal_text = any(
            isinstance(part, ast.Constant)
            and isinstance(part.value, str)
            and part.value.strip()
            for part in node.values
        )
        idish = [
            part
            for part in dynamic
            if part.conversion != ord("r") and self._expression_is_idish(part.value)
        ]
        if not idish:
            return
        if len(dynamic) < 2 and not literal_text:
            return
        if self._context_exempt(context, node):
            return
        yield self._report(context, node, "f-string")

    def _flatten_concat(self, node: ast.expr) -> List[ast.expr]:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return self._flatten_concat(node.left) + self._flatten_concat(node.right)
        return [node]

    def _check_concat(
        self, context: ModuleContext, node: ast.BinOp, consumed: Set[ast.AST]
    ) -> Iterator[Finding]:
        parents = context.parent_map()
        parent = parents.get(node)
        if isinstance(parent, ast.BinOp) and isinstance(parent.op, ast.Add):
            return  # only report the outermost chain
        leaves = self._flatten_concat(node)
        stringish = [
            leaf
            for leaf in leaves
            if (isinstance(leaf, ast.Constant) and isinstance(leaf.value, str))
            or isinstance(leaf, ast.JoinedStr)
        ]
        if not stringish:
            return
        for leaf in leaves:
            if isinstance(leaf, ast.JoinedStr):
                consumed.add(leaf)
        dynamic = [
            leaf
            for leaf in leaves
            if not (isinstance(leaf, ast.Constant) and isinstance(leaf.value, str))
        ]
        idish = [leaf for leaf in dynamic if self._expression_is_idish(leaf)]
        if not idish:
            return
        if self._context_exempt(context, node):
            return
        yield self._report(context, node, "string concatenation")

    def _check_percent(
        self, context: ModuleContext, node: ast.BinOp
    ) -> Iterator[Finding]:
        if not (
            isinstance(node.left, ast.Constant) and isinstance(node.left.value, str)
        ):
            return
        template = node.left.value
        placeholders = re.findall(r"%[sdifxo]", template)
        if not placeholders:
            return
        parts = (
            list(node.right.elts) if isinstance(node.right, ast.Tuple) else [node.right]
        )
        idish = [part for part in parts if self._expression_is_idish(part)]
        if not idish:
            return
        if len(parts) < 2 and not template.replace("%s", "").strip() == "":
            pass  # composite: literal text plus an id placeholder
        elif len(parts) < 2:
            return
        if self._context_exempt(context, node):
            return
        yield self._report(context, node, "%-format string")


# --------------------------------------------------------------------------- #
# R4 — warm-state discipline
# --------------------------------------------------------------------------- #
class WarmStateRule(Rule):
    """R4: no naive-oracle calls and no fresh substrate construction inside
    the hot ``repro.session`` / ``repro.reasoning`` / ``repro.preservation``
    layers.

    Historical bug: the pre-PR-5 wrapper modules silently rebuilt encoders
    and search spaces per call (and some code paths fell back to naive
    enumeration), throwing away warm solver state the whole architecture
    exists to keep.  Every surviving construction site is one of the blessed
    lazy factories, marked with a pragma that says so; functions whose name
    contains ``naive`` are auto-exempt (they *are* the oracle paths).
    """

    code = "R4"
    name = "warm-state"
    summary = "no naive oracles / fresh substrate in hot layers"
    rationale = (
        "a naive call or fresh Solver()/CompletionEncoder()/"
        "ExtensionSearchSpace() in a hot path silently discards the warm "
        "state PRs 2-5 built the architecture around"
    )

    HOT_PREFIXES = ("repro.session", "repro.reasoning", "repro.preservation")
    #: ``create_solver`` is the backend factory (PR 9): constructing through
    #: it is *correct* everywhere (R8 insists on it), but in a hot layer a
    #: fresh engine still discards warm state, so it needs the same blessing
    #: pragma as a direct construction did.
    FRESH_TYPES: FrozenSet[str] = frozenset(
        {"Solver", "CompletionEncoder", "ExtensionSearchSpace", "create_solver"}
    )

    def _applies(self, context: ModuleContext) -> bool:
        if context.module is None:
            return True  # fixtures and scripts: always check
        return context.module.startswith(self.HOT_PREFIXES)

    def _oracle_scope(self, context: ModuleContext, node: ast.AST) -> bool:
        function = context.enclosing_function(node)
        while function is not None:
            if (
                isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                and "naive" in function.name
            ):
                return True
            function = context.enclosing_function(function)
        return False

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if not self._applies(context):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_identifier(node)
            if callee is None:
                continue
            if "naive" in callee:
                if not self._oracle_scope(context, node):
                    yield self.finding(
                        context,
                        node,
                        f"call to naive oracle {callee!r} from a hot path; "
                        "route through the warm session substrate (or mark "
                        "the oracle call site with a pragma)",
                    )
            elif callee in self.FRESH_TYPES:
                if not self._oracle_scope(context, node):
                    yield self.finding(
                        context,
                        node,
                        f"fresh {callee}() constructed in a hot path; reuse "
                        "the session's warm substrate (blessed lazy factories "
                        "carry a pragma)",
                    )


# --------------------------------------------------------------------------- #
# R5 — index/cache invalidation hygiene
# --------------------------------------------------------------------------- #
class IndexInvalidateRule(Rule):
    """R5: any method writing an indexed carrier attribute of a
    ``NormalInstance``-like class must call the invalidation hook in the same
    body.

    Historical bug class: the PR-1 lazy per-column indexes are only correct
    because every tuple-adding path resets them; a new mutation path that
    touches ``_tuples``/``_by_tid`` without invalidating would serve stale
    rows to every join.  A method that delegates the write to
    ``super().<same method>()`` inherits the parent's invalidation and is
    exempt.
    """

    code = "R5"
    name = "index-invalidate"
    summary = "carrier writes must invalidate the row/index caches"
    rationale = (
        "a write to _tuples/_by_tid without cache invalidation serves stale "
        "rows and indexes to the query evaluator (PR-1 index lifecycle)"
    )

    CARRIERS: FrozenSet[str] = frozenset({"_tuples", "_by_tid"})
    MUTATOR_CALLS: FrozenSet[str] = frozenset(
        {
            "append",
            "extend",
            "insert",
            "remove",
            "pop",
            "popitem",
            "clear",
            "update",
            "setdefault",
            "add",
            "discard",
        }
    )
    HOOK_PREFIX = "_invalidate"

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef) and self._is_indexed_class(node):
                yield from self._check_class(context, node)

    # ------------------------------------------------------------------ #
    def _is_indexed_class(self, class_node: ast.ClassDef) -> bool:
        for item in class_node.body:
            if isinstance(item, ast.FunctionDef):
                if item.name.startswith(self.HOOK_PREFIX):
                    return True
                if item.name == "__init__":
                    for statement in item.body:
                        for node in ast.walk(statement):
                            if isinstance(
                                node, (ast.Assign, ast.AnnAssign)
                            ) and self._targets_attribute(node, {"_indexes"}):
                                return True
        return False

    def _targets_attribute(self, node: ast.AST, attributes: Set[str]) -> bool:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            probe = target
            if isinstance(probe, ast.Subscript):
                probe = probe.value
            if _is_self_attribute(probe, attributes):
                return True
        return False

    def _writes_carrier(self, statement: ast.stmt) -> Optional[ast.AST]:
        for node in ast.walk(statement):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete)):
                if self._targets_attribute(node, set(self.CARRIERS)):
                    return node
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.MUTATOR_CALLS
                and _is_self_attribute(node.func.value, set(self.CARRIERS))
            ):
                return node
        return None

    def _delegates_to_super(self, method: ast.FunctionDef) -> bool:
        for statement in method.body:
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == method.name
                    and isinstance(node.func.value, ast.Call)
                    and isinstance(node.func.value.func, ast.Name)
                    and node.func.value.func.id == "super"
                ):
                    return True
        return False

    def _invalidates(self, method: ast.FunctionDef) -> bool:
        if _calls_self_method(method.body, self.HOOK_PREFIX):
            return True
        # legacy inline form: clearing the index dict in place
        for statement in method.body:
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "clear"
                    and _is_self_attribute(node.func.value, {"_indexes"})
                ):
                    return True
        return False

    def _check_class(
        self, context: ModuleContext, class_node: ast.ClassDef
    ) -> Iterator[Finding]:
        for item in class_node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name == "__init__" or item.name.startswith(self.HOOK_PREFIX):
                continue
            write = None
            for statement in item.body:
                write = self._writes_carrier(statement)
                if write is not None:
                    break
            if write is None:
                continue
            if self._delegates_to_super(item) or self._invalidates(item):
                continue
            yield self.finding(
                context,
                write,
                f"method {item.name!r} writes an indexed carrier attribute "
                "without calling the invalidation hook in the same body; call "
                "self._invalidate_row_caches() (or delegate via super())",
            )


# --------------------------------------------------------------------------- #
# R6 — fork/pickle safety across the serve boundary
# --------------------------------------------------------------------------- #
class PickleSafetyRule(Rule):
    """R6: types reachable from the objects that cross the serve process
    boundary must not declare unpicklable members.

    :class:`~repro.serve.ReasoningService` pickles every request into a
    worker process — the ``_ServeWork`` envelope carrying a
    ``ProblemRequest`` or ``Mutation`` and its ``Specification`` — and
    pickles the ``Answer`` back.  A solver handle, generator or lock annotated
    into any reachable type would fail at submit time, on the largest
    workload, in production; this rule fails it at CI time instead.  The pass
    is a reachability walk over *declared annotations* (dataclass fields,
    annotated ``self.x`` assignments and ``self.x = Constructor()`` inits)
    across every linted module.
    """

    code = "R6"
    name = "pickle-safety"
    summary = "no unpicklable members reachable from the process boundary"
    rationale = (
        "the serving layer pickles requests, mutations and specifications "
        "into workers and answers back; a reachable solver handle, generator "
        "or lock fails only when the first such request is submitted"
    )
    project_wide = True

    ROOTS = ("_ServeWork", "ProblemRequest", "Mutation", "Answer", "Specification")
    UNPICKLABLE: FrozenSet[str] = frozenset(
        {
            "Iterator",
            "Generator",
            "AsyncIterator",
            "AsyncGenerator",
            "Lock",
            "RLock",
            "Condition",
            "Event",
            "Semaphore",
            "BoundedSemaphore",
            "Barrier",
            "Thread",
            "Process",
            "Pool",
            "socket",
            "IO",
            "TextIO",
            "BinaryIO",
            "TextIOWrapper",
            "BufferedReader",
            "BufferedWriter",
            "Solver",
            "SolverBackend",
            "PySATBackend",
        }
    )

    # ------------------------------------------------------------------ #
    def _names_in_annotation(self, annotation: ast.expr) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= self._names_in_annotation(parsed.body)
        return names

    def _members_of(
        self, class_node: ast.ClassDef
    ) -> List[Tuple[str, ast.AST, Set[str]]]:
        members: List[Tuple[str, ast.AST, Set[str]]] = []
        for item in class_node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                members.append(
                    (item.target.id, item, self._names_in_annotation(item.annotation))
                )
            elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for statement in item.body:
                    for node in ast.walk(statement):
                        if (
                            isinstance(node, ast.AnnAssign)
                            and isinstance(node.target, ast.Attribute)
                            and isinstance(node.target.value, ast.Name)
                            and node.target.value.id == "self"
                        ):
                            members.append(
                                (
                                    node.target.attr,
                                    node,
                                    self._names_in_annotation(node.annotation),
                                )
                            )
                        elif (
                            isinstance(node, ast.Assign)
                            and len(node.targets) == 1
                            and isinstance(node.targets[0], ast.Attribute)
                            and isinstance(node.targets[0].value, ast.Name)
                            and node.targets[0].value.id == "self"
                            and isinstance(node.value, ast.Call)
                            and isinstance(node.value.func, ast.Name)
                        ):
                            members.append(
                                (node.targets[0].attr, node, {node.value.func.id})
                            )
        return members

    def _expand_aliases(
        self, context: ModuleContext, index: ProjectIndex, names: Set[str]
    ) -> Set[str]:
        expanded = set(names)
        frontier = list(names)
        while frontier:
            current = frontier.pop()
            for extra in index.aliases.get((context.path, current), ()):
                if extra not in expanded:
                    expanded.add(extra)
                    frontier.append(extra)
        return expanded

    def check_project(
        self, contexts: Sequence[ModuleContext], index: ProjectIndex
    ) -> Iterator[Finding]:
        provenance: Dict[str, str] = {}
        frontier: List[str] = []
        for root in self.ROOTS:
            if root in index.classes:
                provenance[root] = root
                frontier.append(root)
        seen: Set[str] = set(frontier)
        while frontier:
            current = frontier.pop()
            root = provenance[current]
            for class_context, class_node in index.classes.get(current, ()):
                for member_name, member_node, raw_names in self._members_of(class_node):
                    type_names = self._expand_aliases(class_context, index, raw_names)
                    bad = sorted(type_names & self.UNPICKLABLE)
                    if bad:
                        yield self.finding(
                            class_context,
                            member_node,
                            f"member {member_name!r} of {current!r} declares "
                            f"unpicklable type(s) {', '.join(bad)} but is "
                            f"reachable from the process boundary (root "
                            f"{root!r}); keep solver handles, generators and "
                            "locks out of pickled state",
                        )
                    for type_name in type_names:
                        if type_name in index.classes and type_name not in seen:
                            seen.add(type_name)
                            provenance[type_name] = root
                            frontier.append(type_name)


# --------------------------------------------------------------------------- #
# R7 — snapshot safety: everything reachable from SessionSnapshot pickles
# --------------------------------------------------------------------------- #
class SnapshotSafetyRule(PickleSafetyRule):
    """R7: types reachable from :class:`SessionSnapshot` must not declare
    unpicklable members.

    The snapshot is the warm-state hand-off format (disk cache, worker
    re-warm, log compaction): unlike R6's request boundary it *deliberately*
    carries ``Solver`` — the solver grew ``__getstate__``/``__setstate__``
    exactly so learnt clauses, activities and phases survive the hop — so
    ``Solver`` is excused here while every other unpicklable (locks,
    generators, IO handles, threads) stays fatal.  R6 keeps ``Solver`` banned
    at *its* roots: a request or result carrying a whole solver is still a
    design smell, even a picklable one.

    The protocol-typed ``SolverBackend`` is excused too: holders degrade in
    ``__getstate__`` when the engine reports ``supports_snapshot() is
    False``.  A member annotated as the *concrete* ``PySATBackend`` stays
    fatal — a C-extension handle with no degradation seam cannot cross the
    pickle boundary.
    """

    code = "R7"
    name = "snapshot-safety"
    summary = "every member reachable from SessionSnapshot must pickle"
    rationale = (
        "SessionSnapshot is pickled to disk and shipped to respawned "
        "workers; one reachable lock or generator breaks "
        "restore-instead-of-re-solve everywhere at once"
    )

    ROOTS = ("SessionSnapshot",)
    UNPICKLABLE: FrozenSet[str] = PickleSafetyRule.UNPICKLABLE - {
        "Solver",
        "SolverBackend",
    }


# --------------------------------------------------------------------------- #
# R8 — backend purity: solvers come from the factory, not direct construction
# --------------------------------------------------------------------------- #
class BackendPurityRule(Rule):
    """R8: no direct concrete-backend construction outside ``repro.solvers``.

    The ``SolverBackend`` seam (PR 9) makes the SAT engine a configuration
    choice threaded through encoder, space, session, snapshot and serve.  A
    direct ``Solver()`` (or ``PySATBackend()``) call anywhere else re-welds
    a layer to one engine: it silently ignores the session's ``backend=``
    selection, splits warm state across engines, and breaks the
    cross-backend restore refusal that keeps snapshots honest.  Constructing
    through :func:`repro.solvers.backend.create_solver` (or a layer's
    ``backend=`` parameter) is the only blessed route.
    """

    code = "R8"
    name = "backend-purity"
    summary = "no direct Solver()/PySATBackend() construction outside repro.solvers"
    rationale = (
        "a direct concrete-engine construction bypasses the backend registry, "
        "ignoring the configured backend= selection and welding the call site "
        "to one engine (the seam PR 9 exists to cut)"
    )

    HOME_PREFIX = "repro.solvers"
    CONCRETE_BACKENDS: FrozenSet[str] = frozenset({"Solver", "PySATBackend"})

    def _applies(self, context: ModuleContext) -> bool:
        if context.module is None:
            return True  # fixtures and scripts: always check
        return not (
            context.module == self.HOME_PREFIX
            or context.module.startswith(self.HOME_PREFIX + ".")
        )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if not self._applies(context):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_identifier(node)
            if callee in self.CONCRETE_BACKENDS:
                yield self.finding(
                    context,
                    node,
                    f"direct {callee}() construction outside repro.solvers; "
                    "go through repro.solvers.backend.create_solver() (or the "
                    "layer's backend= parameter) so the configured engine is "
                    "honoured",
                )


# --------------------------------------------------------------------------- #
# R9 — checked solve: every consumed model passes the transitivity check
# --------------------------------------------------------------------------- #
class CheckedSolveRule(Rule):
    """R9: no ``….solver.solve(`` or ``…._solver.solve(`` call outside
    ``CompletionEncoder._solve``.

    Transitivity is lazy: the warm solver's raw model may order an entity
    block with a 3-cycle, which is no completion.  ``_solve`` checks every
    model, refines the blocks it violates and solves again, so it is the
    one place a model may come from.
    """

    code = "R9"
    name = "checked-solve"
    summary = "solve the warm encoding only through CompletionEncoder._solve"
    rationale = (
        "a raw solver.solve() skips lazy transitivity's 3-cycle check and can "
        "hand a cyclic order to decoding, enumeration or a probe"
    )

    SOLVER_ATTRIBUTES: FrozenSet[str] = frozenset({"solver", "_solver"})

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call) or _callee_identifier(node) != "solve":
                continue
            receiver = getattr(node.func, "value", None)
            if not isinstance(receiver, ast.Attribute):
                continue
            if receiver.attr not in self.SOLVER_ATTRIBUTES:
                continue
            function = context.enclosing_function(node)
            owner = context.enclosing_class(node)
            if (
                isinstance(function, ast.FunctionDef)
                and function.name == "_solve"
                and owner is not None
                and owner.name == "CompletionEncoder"
            ):
                continue
            yield self.finding(
                context,
                node,
                f"raw .{receiver.attr}.solve() outside "
                "CompletionEncoder._solve; its model skips the transitivity "
                "check, so call _solve instead",
            )


ALL_RULES: Tuple[Rule, ...] = (
    CacheDependenciesRule(),
    IdentityComparisonRule(),
    StringKeyRule(),
    WarmStateRule(),
    IndexInvalidateRule(),
    PickleSafetyRule(),
    SnapshotSafetyRule(),
    BackendPurityRule(),
    CheckedSolveRule(),
)


def rule_by_identifier(identifier: str) -> Rule:
    """Look a rule up by code (``R2``) or name (``identity-compare``)."""
    for rule in ALL_RULES:
        if identifier in (rule.code, rule.name):
            return rule
    known = ", ".join(f"{rule.code}/{rule.name}" for rule in ALL_RULES)
    raise KeyError(f"unknown rule {identifier!r}; known rules: {known}")
