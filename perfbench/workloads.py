"""The four benchmark workloads: ``stream``, ``cold``, ``preserve``, ``serve``.

Each workload is a closed loop driven from one process.  Its timed phase is
a sequence of *rounds* of one fixed shape; every round starts from fresh
copies of one input drawn from a small pool, so the cost of an operation
does not drift as the run goes on (a long additive stream would make every
mutation pay for all earlier ones).  The pool is generated from the run's
seed: input ``i`` of seed ``n`` is generated from ``n * 1000 + i``.

Every operation's outcome is compared with an oracle computed before the
timed phase; a mismatch, an exception, a ``Degraded`` answer or a failed
service ``Answer`` counts as a failed operation.

A workload exposes:

* ``make_input(seed)`` — one round's input;
* ``expected(item)`` — the oracle's outcome of every operation of a round;
* ``setup(seed)`` — generate an input, build the session or boot the
  service, and answer the first question (timed by ``run.py`` as
  ``setup_s``); ``end_setup()`` releases what it acquired, untimed;
* ``open()`` / ``close()`` — acquire and release what the rounds share;
* ``run_round(item, expected, log, mirror)`` — one timed round; ``mirror``
  collects what the traced run needs to split a request into layers.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.specification import Specification
from repro.core.tuples import RelationTuple
from repro.exceptions import CurrencyError, InconsistentSpecificationError
from repro.query.ast import SPQuery
from repro.reasoning.ccqa import certain_current_answers
from repro.reasoning.cps import is_consistent
from repro.serve import Mutation, ReasoningService
from repro.session import ProblemRequest, ReasoningSession
from repro.workloads import (
    MutationEvent,
    SyntheticConfig,
    random_sp_query,
    random_specification,
    streaming_mutation_workload,
)
from repro.workloads.synthetic import preservation_workload

from measure import SampleLog

#: the outcome of an ask on a specification without consistent completions
INCONSISTENT = "inconsistent"


def attempt(function: Callable[[], Any]) -> Any:
    """The value of *function*, or a comparable record of how it failed."""
    try:
        return function()
    except InconsistentSpecificationError:
        return INCONSISTENT
    except Exception as error:  # a failed operation, compared and counted
        return ("error", type(error).__name__, str(error))


def timed(log: SampleLog, kind: str, function: Callable[[], Any]) -> Any:
    """Run one operation, record its latency under *kind*, return its outcome."""
    start = time.perf_counter()
    outcome = attempt(function)
    log.record(kind, time.perf_counter() - start)
    return outcome


def is_inconsistent_answer(label: str, outcome: Any) -> bool:
    """Whether an ask was answered by the inconsistency short-circuit."""
    return outcome == INCONSISTENT or (label == "cps" and outcome is False)


def consistent_events(
    specification: Specification, events: Sequence[MutationEvent], count: int
) -> List[MutationEvent]:
    """The first *count* events of a generated stream that keep the
    specification consistent.

    A denial constraint or an order pair can make the specification
    inconsistent, after which every ask short-circuits and times nothing of
    interest; such events (and any that no longer apply) are dropped.
    """
    kept: List[MutationEvent] = []
    shadow = ReasoningSession(specification.copy())
    for event in events:
        if len(kept) == count:
            break
        try:
            event.apply(shadow)
            ok = shadow.consistent()
        except CurrencyError:  # e.g. an order on a tuple whose event was dropped
            ok = False
        if ok:
            kept.append(event)
            continue
        shadow = ReasoningSession(specification.copy())
        for earlier in kept:
            earlier.apply(shadow)
    return kept


@dataclass(frozen=True)
class StreamInput:
    seed: int
    specification: Specification
    events: Tuple[MutationEvent, ...]
    queries: Tuple[SPQuery, ...]


def generated_stream(seed: int, mutations: int, entities: int, tuples_per_entity: int):
    """``streaming_mutation_workload`` over two copy-disjoint relations, with
    twice *mutations* events.

    Copy-disjoint relations let the delta session keep the other relation's
    memoised answers across a mutation; copy-chained ones never do."""
    config = SyntheticConfig(
        entities=entities,
        tuples_per_entity=tuples_per_entity,
        attributes=2,
        order_density=0.0,
        relations=2,
        seed=seed,
    )
    return streaming_mutation_workload(config=config, mutations=2 * mutations, seed=seed)


def stream_input(seed: int, mutations: int, entities: int, tuples_per_entity: int) -> StreamInput:
    """A consistent stream of exactly *mutations* events.

    Twice as many events are generated as are kept, so every input has the
    same number of operations even though some events are dropped.  The
    filter is the benchmark's own curation of the stream, like the oracle,
    so a set-up times only the generation."""
    specification, events, queries = generated_stream(seed, mutations, entities, tuples_per_entity)
    kept = consistent_events(specification, events, mutations)
    if len(kept) < mutations:
        raise ValueError(f"seed {seed}: only {len(kept)} of {mutations} events stay consistent")
    return StreamInput(seed, specification, tuple(kept), tuple(queries))


def windows(events: Sequence[Any], size: int) -> List[Sequence[Any]]:
    return [events[start : start + size] for start in range(0, len(events), size)]


class Workload:
    """Shared defaults; see the module docstring for the interface."""

    name = ""
    #: distinct inputs per run; rounds cycle through them
    pool_size = 8
    #: the seed of each pool input, set by ``run.py``
    seeds: List[int] = []
    #: reduces an operation's repetitions (one per cycle) to the value its
    #: latency is reported by: the fastest, since an in-process operation
    #: repeats the same deterministic work and the slower repetitions only
    #: measure load from elsewhere on the machine
    repeat_statistic = staticmethod(min)
    #: how many pool inputs the timed set-ups walk (all when ``None``)
    setup_inputs: Optional[int] = None
    #: the layers predicted to do most and least of the work (among those
    #: the workload uses at all); the traced run reports the measured ones
    predicted = {"most": "", "least": ""}

    def open(self) -> None:
        """Acquire what the rounds share."""

    def close(self) -> None:
        """Release everything ``setup``/``open`` acquired; wait for it."""

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def end_setup(self) -> None:
        """Release what ``setup`` acquired."""

    def make_input(self, seed: int) -> Any:
        raise NotImplementedError

    def expected(self, item: Any) -> List[Any]:
        raise NotImplementedError

    def run_round(
        self,
        item: Any,
        expected: List[Any],
        log: SampleLog,
        mirror: Optional[List[Any]] = None,
    ) -> None:
        raise NotImplementedError


class StreamShaped(Workload):
    """A workload whose inputs are generated mutation streams."""

    entities = 2
    tuples_per_entity = 2
    mutations = 24
    window = 8

    def generate(self, seed: int):
        """The generator's output alone: what a set-up has to produce."""
        return generated_stream(seed, self.mutations, self.entities, self.tuples_per_entity)

    def make_input(self, seed: int) -> StreamInput:
        return stream_input(seed, self.mutations, self.entities, self.tuples_per_entity)


class StreamWorkload(StreamShaped):
    """An in-process delta session replays a bounded mutation stream.

    A round answers CPS, CCQA (one query per relation), CPP and DCIP, then
    replays the stream in windows of ``window`` mutations with the same five
    re-asks after each window.  DCIP's maximality probes read the chase, so
    the mutations also extend the chase incrementally.  The oracle answers
    each window's questions on a cold rebuild of the specification at that
    point."""

    name = "stream"
    pool_size = 32
    predicted = {"most": "session", "least": "search"}

    @staticmethod
    def _asks(session: ReasoningSession, queries: Sequence[SPQuery]):
        yield "cps", session.consistent
        for query in queries:
            yield "ccqa", lambda query=query: session.certain_answers(query)
        yield "cpp", lambda: session.cpp(queries[0])
        yield "dcip", session.deterministic

    def expected(self, item: StreamInput) -> List[Any]:
        outcomes: List[Any] = []
        specification = item.specification.copy()
        for chunk in [()] + windows(item.events, self.window):
            for event in chunk:
                event.apply_to_specification(specification)
                outcomes.append(None)
            cold = ReasoningSession(specification.copy())
            outcomes.extend(attempt(ask) for _label, ask in self._asks(cold, item.queries))
        return outcomes

    def setup(self, seed: int) -> Any:
        specification, _events, _queries = self.generate(seed)
        return ReasoningSession(specification, invalidation="delta").consistent()

    def run_round(self, item, expected, log, mirror=None):
        session = ReasoningSession(item.specification.copy(), invalidation="delta")
        position = 0
        for chunk in [()] + windows(item.events, self.window):
            for event in chunk:
                got = timed(log, "mutate", lambda: event.apply(session))
                log.check(got, expected[position], f"stream mutation {position}")
                position += 1
            for label, ask in self._asks(session, item.queries):
                got = timed(log, "ask", ask)
                log.inconsistent += is_inconsistent_answer(label, got)
                log.check(got, expected[position], f"stream {label} {position}")
                position += 1
        if mirror is not None:
            mirror.append(session)


@dataclass(frozen=True)
class ColdInput:
    specification: Specification
    query: SPQuery
    extra: RelationTuple


class ColdWorkload(Workload):
    """One fresh session per question on large entity blocks.

    A round asks CPS on a fresh session, then adds one tuple to a second
    fresh session and asks CCQA there, so both questions build the whole
    encoding.  Block sizes cycle through 12..16 tuples with the input index.
    The oracle is the module-level ``is_consistent`` /
    ``certain_current_answers``."""

    name = "cold"
    pool_size = 40
    predicted = {"most": "encode", "least": "query"}

    def make_input(self, seed: int) -> ColdInput:
        config = SyntheticConfig(
            entities=1,
            tuples_per_entity=12 + seed % 5,
            attributes=2,
            order_density=0.0,
            with_constraints=True,
            seed=seed,
        )
        specification = random_specification(config)
        query = random_sp_query(specification, seed=seed)
        schema = specification.instance("R0").schema
        rng = random.Random(seed)
        values: Dict[str, Any] = {schema.eid: "e0"}
        for attribute in schema.attributes:
            values[attribute] = rng.randrange(config.value_domain)
        return ColdInput(specification, query, RelationTuple(schema, "R0_e0_extra", values))

    def expected(self, item: ColdInput) -> List[Any]:
        grown = item.specification.copy()
        grown.instance("R0").add(item.extra)
        return [
            attempt(lambda: is_consistent(item.specification.copy())),
            None,
            attempt(lambda: certain_current_answers(item.query, grown)),
        ]

    def setup(self, seed: int) -> Any:
        item = self.make_input(seed)
        return ReasoningSession(item.specification.copy()).consistent()

    def run_round(self, item, expected, log, mirror=None):
        first = ReasoningSession(item.specification.copy())
        got = timed(log, "ask", first.consistent)
        log.inconsistent += is_inconsistent_answer("cps", got)
        log.check(got, expected[0], "cold cps")
        second = ReasoningSession(item.specification.copy())
        got = timed(log, "mutate", lambda: second.add_tuple("R0", item.extra))
        log.check(got, expected[1], "cold add_tuple")
        got = timed(log, "ask", lambda: second.certain_answers(item.query))
        log.inconsistent += is_inconsistent_answer("ccqa", got)
        log.check(got, expected[2], "cold ccqa")
        if mirror is not None:
            mirror.extend((first, second))


@dataclass(frozen=True)
class PreserveInput:
    specification: Specification
    query: SPQuery
    additions: Tuple[RelationTuple, ...]


class PreserveWorkload(Workload):
    """Warm sessions answer CPP, BCP and ECP while candidates arrive.

    A round asks CPP, BCP (bound ``k``) and ECP, then adds ``additions`` new
    candidate source tuples one at a time, re-asking all three after each, so
    every CPP/BCP re-sweeps on the warm solver instead of hitting a memo.
    Odd inputs carry a spoiler candidate, which makes CPP answer "no".  The
    oracle answers each step's questions on a fresh session."""

    name = "preserve"
    pool_size = 40
    candidates = 3
    groups = 2
    additions = 1
    bound = 1
    predicted = {"most": "search", "least": "query"}

    def make_input(self, seed: int) -> PreserveInput:
        specification, query = preservation_workload(
            candidates=self.candidates,
            conflict_groups=self.groups,
            spoiler=bool(seed % 2),
            seed=seed,
        )
        schema = specification.instance("R0").schema
        rng = random.Random(seed ^ 0xADD)
        additions = tuple(
            RelationTuple(
                schema,
                f"s_e0_x{index}",
                {schema.eid: "e0", "a0": rng.randrange(100),
                 "a1": 1 + rng.randrange(self.groups), "a2": 1},
            )
            for index in range(self.additions)
        )
        return PreserveInput(specification, query, additions)

    def _asks(self, session: ReasoningSession, query: SPQuery):
        yield "cpp", lambda: session.cpp(query)
        yield "bcp", lambda: session.bcp(query, self.bound)
        yield "ecp", lambda: session.ecp(query)

    def expected(self, item: PreserveInput) -> List[Any]:
        specification = item.specification.copy()
        outcomes = [attempt(ask) for _l, ask in self._asks(ReasoningSession(specification.copy()), item.query)]
        for addition in item.additions:
            specification.instance("R0").add(addition)
            outcomes.append(None)
            fresh = ReasoningSession(specification.copy())
            outcomes.extend(attempt(ask) for _l, ask in self._asks(fresh, item.query))
        return outcomes

    def setup(self, seed: int) -> Any:
        item = self.make_input(seed)
        return ReasoningSession(item.specification.copy()).cpp(item.query)

    def run_round(self, item, expected, log, mirror=None):
        session = ReasoningSession(item.specification.copy())
        position = 0
        for step, addition in enumerate((None,) + item.additions):
            if addition is not None:
                got = timed(log, "mutate", lambda: session.add_tuple("R0", addition))
                log.check(got, expected[position], f"preserve add_tuple {step}")
                position += 1
            for label, ask in self._asks(session, item.query):
                got = timed(log, "ask", ask)
                log.inconsistent += is_inconsistent_answer(label, got)
                log.check(got, expected[position], f"preserve {label} {step}")
                position += 1
        if mirror is not None:
            mirror.append(session)


#: the requests of one logical serve session, in order
ServeScript = List[Tuple[str, Any]]


class ServeWorkload(StreamShaped):
    """``ReasoningService(processes=1)`` serves two logical sessions at once.

    A round opens ``sessions`` fresh logical sessions (fresh specification
    copies) and drives each from its own client: CPS and CCQA asks, then
    ``mutations`` ``Mutation`` requests in windows of ``window``, re-asking
    after each window.  At most one request per client is outstanding, so at
    most ``sessions`` in total.  Each client pauses a seeded random think
    time of up to ``think_s`` (the service's 5 ms poll period) before each
    request; without it every request would be submitted right after a poll
    tick and the latencies would fall on a 5 ms grid.  A session's 32nd and
    last mutation reaches the service's compaction threshold, so every
    session compacts once.  The oracle is one warm in-process session per
    logical session."""

    name = "serve"
    pool_size = 12
    sessions = 2
    entities = 8
    tuples_per_entity = 1
    mutations = 32
    compact_log_threshold = 32
    think_s = 0.005
    #: a served latency includes a random wait for the worker's next poll
    #: tick; the fastest repetition would report the luckiest wait
    repeat_statistic = staticmethod(statistics.median)
    #: a set-up's cost is the worker spawn, whatever the input, and is too
    #: dear to repeat on every input: its repetitions all use one input
    setup_inputs = 1
    predicted = {"most": "serve", "least": "query"}

    def __init__(self) -> None:
        #: the timed phase's service, and the one a set-up boots
        self.service: Optional[ReasoningService] = None
        self._booted: Optional[ReasoningService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def _run(self, awaitable: Any) -> Any:
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        return self._loop.run_until_complete(awaitable)

    @staticmethod
    def script(item: StreamInput, window: int) -> ServeScript:
        """The requests of one logical session over *item*."""
        asks: ServeScript = [("ask", ProblemRequest("cps"))]
        asks += [("ask", ProblemRequest("ccqa", query=query)) for query in item.queries]
        requests: ServeScript = list(asks)
        for chunk in windows(item.events, window):
            requests += [("mutate", Mutation(event.op, event.args)) for event in chunk]
            requests += asks
        return requests

    @staticmethod
    def apply_in_process(session: ReasoningSession, request: Any) -> Any:
        """What the worker computes for *request*, on an in-process session."""
        if isinstance(request, Mutation):
            request.apply(session)
            return True
        if request.problem == "cps":
            return session.consistent()
        return session.certain_answers(request.query)

    def expected(self, item: StreamInput) -> List[Any]:
        session = ReasoningSession(item.specification.copy())
        return [
            attempt(lambda: self.apply_in_process(session, request))
            for _kind, request in self.script(item, self.window)
        ]

    def _boot(self) -> ReasoningService:
        return ReasoningService(
            processes=1, compact_log_threshold=self.compact_log_threshold
        )

    def setup(self, seed: int) -> Any:
        """Boot a service of its own (the worker spawn included) and answer
        one CPS.

        Never the timed phase's service: a round's copy of a set-up
        specification would join the set-up's unmutated session, and the
        service loses such a joined session's writes after its first
        mutation."""
        specification, _events, _queries = self.generate(seed)
        self._booted = self._boot()
        answer = self._run(self._booted.submit(specification, ProblemRequest("cps")))
        return answer.value if answer.ok else ("failed", answer.error)

    def end_setup(self) -> None:
        if self._booted is not None:
            self._booted.close()
            self._booted = None

    def open(self) -> None:
        """Boot the rounds' service and wait for its worker with an ask on
        an input no round uses."""
        self.service = self._boot()
        specification, _events, _queries = self.generate(self.seeds[0] + 500)
        self._run(self.service.submit(specification, ProblemRequest("cps")))

    def close(self) -> None:
        self.end_setup()
        if self.service is not None:
            self.service.close()
            self.service = None
        if self._loop is not None:
            self._loop.close()
            self._loop = None

    async def _client(self, specification, script, latencies, seed):
        think = random.Random(seed)
        answers = []
        for _kind, request in script:
            await asyncio.sleep(think.uniform(0.0, self.think_s))
            start = time.perf_counter()
            answer = await self.service.submit(specification, request)
            latencies.append(time.perf_counter() - start)
            answers.append(answer)
        return answers

    def run_round(self, item, expected, log, mirror=None):
        """``item`` and ``expected`` are lists, one entry per logical session."""
        scripts = [self.script(one, self.window) for one in item]
        latencies: List[List[float]] = [[] for _ in item]
        specifications = [one.specification.copy() for one in item]

        async def clients():
            return await asyncio.gather(
                *(
                    self._client(
                        specifications[index], scripts[index], latencies[index], item[index].seed
                    )
                    for index in range(len(item))
                )
            )

        replies = self._run(clients())
        for index, answers in enumerate(replies):
            for position, (answer, (kind, request)) in enumerate(
                zip(answers, scripts[index])
            ):
                log.record(kind, latencies[index][position])
                got = answer.value if answer.ok else ("failed", answer.problem, answer.error, answer.degraded)
                if kind == "ask":
                    log.inconsistent += is_inconsistent_answer(request.problem, got)
                log.check(got, expected[index][position], f"serve {request} {position}")
        if mirror is not None:
            mirror.append((item, scripts, latencies))


WORKLOADS = {
    workload.name: workload
    for workload in (StreamWorkload, ColdWorkload, PreserveWorkload, ServeWorkload)
}
