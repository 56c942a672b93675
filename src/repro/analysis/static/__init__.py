"""``reprolint`` — AST-based invariant linting for the reasoning stack.

Every hard bug of the last few PRs violated an *unwritten* invariant of the
codebase: specifications compared by identity where structural equality was
meant (the ``space_for`` bug), f-string composite keys colliding on ids that
contained the separator (the ``"import::"`` tid bug), mutation methods
drifting out of :data:`ReasoningSession.CACHE_DEPENDENCIES`, and naive oracle
paths silently reachable from hot code.  This package encodes those
invariants as checkable AST properties and enforces them at CI time, before a
solver ever runs:

========  ==================  ==================================================
code      name                invariant
========  ==================  ==================================================
``R1``    cache-deps          every mutating method of a class carrying a
                              ``CACHE_DEPENDENCIES`` map is registered in it
                              (and the map names no phantom methods)
``R2``    identity-compare    no ``is``/``id()`` on domain objects that define
                              structural equality
``R3``    string-key          no string-concatenated/f-string composite keys
                              built from entity/tuple ids
``R4``    warm-state          no naive-oracle calls or fresh substrate
                              construction inside the hot session, reasoning
                              and preservation layers
``R5``    index-invalidate    methods writing an indexed carrier attribute call
                              the cache-invalidation hook in the same body
``R6``    pickle-safety       no unpicklable members reachable from the types
                              that cross the serve process boundary
========  ==================  ==================================================

Findings are suppressed *per call site* with an inline pragma that **requires
a reason**::

    encoder = CompletionEncoder(spec)  # reprolint: allow(R4) — cold fallback for standalone use

See :mod:`repro.analysis.static.pragmas` for the grammar and
:mod:`repro.analysis.static.cli` for the ``reprolint`` command-line driver.
"""

from repro.analysis.static.framework import (
    Finding,
    LintReport,
    Linter,
    ModuleContext,
    ProjectIndex,
    Rule,
    iter_python_files,
)
from repro.analysis.static.pragmas import PRAGMA_MARKER, Pragma, parse_pragmas
from repro.analysis.static.rules import ALL_RULES, rule_by_identifier

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintReport",
    "Linter",
    "ModuleContext",
    "PRAGMA_MARKER",
    "Pragma",
    "ProjectIndex",
    "Rule",
    "iter_python_files",
    "parse_pragmas",
    "rule_by_identifier",
]
