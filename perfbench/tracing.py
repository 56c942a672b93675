"""Layer spans for the traced run, recorded from outside the library.

:func:`install` wraps the public entry points of each layer the ROADMAP
names — session bookkeeping, chase, encoding, denial grounding, clause
feeding, CDCL search, decoding and query evaluation — in place, for the
life of the process; the wrappers cost one global lookup while no
:class:`Recorder` is active.  A span's *self time* is its duration minus the
spans nested inside it, so the layers' self times add up to the time spent
inside the outermost spans.

Clause feeding is hot per clause, so it is measured at the encoders' lazy
``solver`` properties, which feed every pending clause in one go, and its
clause count is read from their feed cursors.  Solver conflicts and
decisions come from ``stats()``, query-cache hits from ``cache_info()``, and
the invalidation arms from ``mutation_stats()``.
"""

from __future__ import annotations

import functools
import inspect
import pickle
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.denial import DenialConstraint
from repro.preservation.sat_extensions import ExtensionSearchSpace
from repro.query.engine import QueryEngine
from repro.reasoning import chase
from repro.reasoning.current_db import CurrentDatabaseEnumerator
from repro.serve.supervisor import WorkerSupervisor
from repro.session import ReasoningSession
from repro.solvers.order_encoding import CompletionEncoder
from repro.solvers.sat import Solver

#: the layers, in the order a request crosses them
LAYERS = ("session", "chase", "encode", "ground", "feed", "search", "decode", "query")

#: counters that must repeat exactly between two runs on the same inputs
DETERMINISTIC = (
    "encode.clauses",
    "ground.implications",
    "feed.clauses",
    "search.solves",
    "search.conflicts",
    "search.decisions",
)

#: serve-only metrics, reported as 0 by the in-process workloads
SERVE_METRICS = (
    "serve.hop_ms",
    "serve.request_bytes",
    "serve.compactions",
    "snapshot.bytes",
    "snapshot.ms",
)

SESSION_METHODS = (
    "consistent", "certain_answers", "certain_ordering", "deterministic",
    "sp_answers", "find_violating_extension", "cpp", "ecp", "bcp",
    "bounded_extension", "maximal_extension", "add_order", "add_denial",
    "add_tuple", "add_tuples", "add_copy_function", "add_copy_import",
)

_active: Optional["Recorder"] = None


class Recorder:
    """Self time and call counts per layer, plus named counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.sessions: List[ReasoningSession] = []
        #: serve only: per-request hop seconds, pickled request sizes, and
        #: (bytes, seconds) of each compaction's snapshot round trip
        self.serve_hops: List[float] = []
        self.request_bytes: List[int] = []
        self.snapshots: List[Tuple[int, float]] = []
        self._children: List[float] = []
        self._open: Dict[str, int] = defaultdict(int)

    def __enter__(self) -> "Recorder":
        global _active
        _active = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _active
        _active = None

    def _begin(self, layer: str) -> float:
        self._children.append(0.0)
        self._open[layer] += 1
        return time.perf_counter()

    def _end(self, layer: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        self._open[layer] -= 1
        child = self._children.pop()
        self.self_s[layer] += elapsed - child
        self.calls[layer] += 1
        if self._children:
            self._children[-1] += elapsed

    def outermost(self, layer: str) -> bool:
        """Whether no span of *layer* is open (so a count is not doubled)."""
        return self._open[layer] == 0

    def steps(self, layer: str, generator, on_item=None):
        """Re-yield *generator*, timing each step as a span of *layer*."""
        try:
            while True:
                start = self._begin(layer)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    self._end(layer, start)
                if on_item is not None:
                    on_item()
                yield item
        finally:
            generator.close()


def _span(layer: str, function: Callable, before=None, after=None) -> Callable:
    """*function* wrapped in a span of *layer*.

    ``before(args, kwargs)`` is read when the span opens and handed to
    ``after(recorder, token, args, kwargs, result)`` when it closes; both
    only run for the outermost span of the layer.  A generator result is
    timed step by step."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        recorder = _active
        if recorder is None:
            return function(*args, **kwargs)
        counting = before is not None and recorder.outermost(layer)
        token = before(args, kwargs) if counting else None
        start = recorder._begin(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder._end(layer, start)
        if counting:
            after(recorder, token, args, kwargs, result)
        if inspect.isgenerator(result):
            return recorder.steps(layer, result)
        return result

    wrapper.__wrapped_layer__ = layer
    return wrapper


def _patch_method(owner: type, name: str, layer: str, before=None, after=None) -> None:
    setattr(owner, name, _span(layer, getattr(owner, name), before, after))


def _patch_function(module, name: str, layer: str) -> None:
    """Wrap a module function everywhere it was imported by name."""
    original = getattr(module, name)
    wrapped = _span(layer, original)
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if namespace is not None and namespace.get(name) is original:
            setattr(loaded, name, wrapped)


def _clauses(holder: Any) -> int:
    cnf = getattr(holder, "cnf", None)
    return len(cnf.clauses) if cnf is not None else 0


def _count_clauses(owner_of: Callable[[tuple, dict], Any]):
    def before(args, kwargs):
        return _clauses(owner_of(args, kwargs))

    def after(recorder, token, args, kwargs, result):
        recorder.counts["encode.clauses"] += _clauses(owner_of(args, kwargs)) - token

    return before, after


def _patch_feed(owner: type) -> None:
    """Time the lazy ``solver`` property, which feeds pending clauses."""
    prop = owner.solver

    def before(args, kwargs):
        return args[0]._fed_clauses

    def after(recorder, token, args, kwargs, result):
        recorder.counts["feed.clauses"] += args[0]._fed_clauses - token

    owner.solver = property(_span("feed", prop.fget, before, after), doc=prop.__doc__)


def _search_before(args, kwargs):
    return args[0].stats()


def _search_after(recorder, token, args, kwargs, result):
    stats = args[0].stats()
    recorder.counts["search.solves"] += 1
    recorder.counts["search.conflicts"] += stats.get("conflicts", 0) - token.get("conflicts", 0)
    recorder.counts["search.decisions"] += stats.get("decisions", 0) - token.get("decisions", 0)


def _query_before(args, kwargs):
    return args[0].cache_info()


def _query_after(recorder, token, args, kwargs, result):
    info = args[0].cache_info()
    recorder.counts["query.hits"] += info["hits"] - token["hits"]
    recorder.counts["query.misses"] += info["misses"] - token["misses"]


def _ground_counting(function: Callable) -> Callable:
    """Count the implications a grounding generator yields."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        result = function(*args, **kwargs)
        recorder = _active
        if recorder is None:
            return result

        def count() -> None:
            recorder.counts["ground.implications"] += 1

        return recorder.steps("ground", result, on_item=count)

    return wrapper


def _register_session(function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(self, *args, **kwargs):
        function(self, *args, **kwargs)
        if _active is not None:
            _active.sessions.append(self)

    return wrapper


def _measure_requests(function: Callable) -> Callable:
    """Record the pickled size of every unit of work the service submits."""

    @functools.wraps(function)
    def wrapper(self, lane, work, *args, **kwargs):
        if _active is not None:
            _active.request_bytes.append(len(pickle.dumps(work)))
        return function(self, lane, work, *args, **kwargs)

    return wrapper


def unit_of(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("ms", "_ms")):
        return "ms"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


_installed = False


def install() -> None:
    """Wrap every layer entry point (idempotent)."""
    global _installed
    if _installed:
        return
    _installed = True
    for name in SESSION_METHODS:
        _patch_method(ReasoningSession, name, "session")
    ReasoningSession.__init__ = _register_session(ReasoningSession.__init__)
    for name in (
        "chase_certain_orders",
        "extend_chase_with_tuples",
        "extend_chase_with_order",
        "extend_chase_with_copies",
    ):
        _patch_function(chase, name, "chase")

    own = lambda args, kwargs: args[0]  # noqa: E731 - the instance itself
    for owner, names in (
        (CompletionEncoder, ("__init__", "add_tuples_incremental", "add_order_pair",
                             "add_denial_constraint", "add_copy_function")),
        (ExtensionSearchSpace, ("__init__", "extend_with_tuples", "add_order", "add_denial")),
    ):
        for name in names:
            _patch_method(owner, name, "encode", *_count_clauses(own))
    # the enumerator's maximality clauses land in its encoder's CNF
    encoder_of = lambda args, kwargs: kwargs.get("encoder") or getattr(args[0], "encoder", None)  # noqa: E731
    _patch_method(CurrentDatabaseEnumerator, "__init__", "encode", *_count_clauses(encoder_of))

    DenialConstraint.grounded_implications_with_support = _ground_counting(
        DenialConstraint.grounded_implications_with_support
    )
    _patch_feed(CompletionEncoder)
    _patch_feed(ExtensionSearchSpace)
    _patch_method(Solver, "solve", "search", _search_before, _search_after)
    _patch_method(CompletionEncoder, "decode", "decode")
    _patch_method(ExtensionSearchSpace, "current_databases", "decode")
    _patch_method(CurrentDatabaseEnumerator, "databases", "decode")
    _patch_method(QueryEngine, "answers", "query", _query_before, _query_after)
    WorkerSupervisor.submit = _measure_requests(WorkerSupervisor.submit)


def layer_report(recorder: Recorder, operations: int) -> Dict[str, float]:
    """The per-layer metrics of one traced pass over *operations* operations."""
    per_op = 1000.0 / max(1, operations)
    report: Dict[str, float] = {}
    report["session.self_ms"] = recorder.self_s["session"] * per_op
    for layer in LAYERS[1:]:
        report[f"{layer}.ms"] = recorder.self_s[layer] * per_op
    for name in DETERMINISTIC:
        report[name] = recorder.counts[name]
    lookups = recorder.counts["query.hits"] + recorder.counts["query.misses"]
    report["query.cache_hit_ratio"] = recorder.counts["query.hits"] / lookups if lookups else 0.0
    totals: Dict[str, int] = defaultdict(int)
    for session in recorder.sessions:
        for key, value in session.mutation_stats().items():
            totals[key] += value
    memo = totals["memo_retained"] + totals["memo_evicted"]
    report["session.memo_retained_ratio"] = totals["memo_retained"] / memo if memo else 0.0
    report["session.space_extended"] = totals["space_extended"]
    report["session.space_rebuilt"] = totals["space_rebuilt"]
    return report


def layer_seconds(recorder: Recorder) -> Dict[str, float]:
    return {layer: recorder.self_s[layer] for layer in LAYERS}
