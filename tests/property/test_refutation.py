"""Differential sweep: certain answers and DCIP by refutation vs enumeration.

CCQA on SP queries and DCIP are answered by refutation on the value columns
of the warm encoding (a model, then gated solves asking for a database that
differs, :meth:`CompletionEncoder.certain_answers` and
:meth:`CompletionEncoder.deterministic`).  For 200 seeded specifications
per registered backend, every refutation answer is compared with the
enumeration of realizable current databases on an independently built cold
encoder — and, where the chase decides DCIP (no denial constraints), with
the chase too.  The seeds cycle through four shapes:

* random specifications with denial constraints,
* random specifications chained by copy functions,
* preservation workloads with a built search space, checked on every
  consistent selection of candidate imports, certificates included,
* any of the above after tuple deltas between asks, so the refutation runs
  on value columns the deltas re-encoded in place.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.tuples import RelationTuple
from repro.preservation.extensions import apply_imports
from repro.query.ast import SPQuery
from repro.query.engine import QueryEngine
from repro.session import ReasoningSession
from repro.solvers.order_encoding import CompletionEncoder
from repro.workloads.synthetic import (
    SyntheticConfig,
    preservation_workload,
    random_sp_query,
    random_specification,
)

SEEDS = 200


def _queries(specification, rng):
    """SP queries over every relation: one from the workload generator plus
    one mixing multi-attribute projection, constant and attribute selections."""
    queries = []
    for name in specification.instance_names():
        instance = specification.instance(name)
        attributes = list(instance.schema.attributes)
        queries.append(random_sp_query(specification, name, seed=rng.randrange(1000)))
        projection = rng.sample(attributes, rng.randint(1, min(2, len(attributes))))
        eq_const = {}
        if rng.random() < 0.5 and len(instance):
            attribute = rng.choice(attributes)
            eq_const[attribute] = rng.choice(instance.tuples())[attribute]
        eq_attr = [tuple(rng.sample(attributes, 2))] if rng.random() < 0.4 else []
        queries.append(
            SPQuery(name, instance.schema, projection, eq_const=eq_const, eq_attr=eq_attr)
        )
    return queries


def _enumerated_answers(specification, engine, backend):
    """Intersection of the query over every realizable current database of
    a cold encoder (None when there is none)."""
    encoder = CompletionEncoder(specification.copy(), backend=backend)
    intersection = None
    for database in encoder.current_databases(relations=engine.relations):
        answers = set(engine.answers(database))
        intersection = answers if intersection is None else intersection & answers
    return None if intersection is None else frozenset(intersection)


def _enumerated_deterministic(specification, backend):
    encoder = CompletionEncoder(specification.copy(), backend=backend)
    return len(list(encoder.current_databases(limit=2))) < 2


def _specification(seed):
    rng = random.Random(seed)
    shape = seed % 4
    if shape == 2:
        return preservation_workload(
            candidates=rng.randint(1, 3),
            conflict_groups=rng.randint(1, 2),
            spoiler=bool(rng.getrandbits(1)),
            seed=seed,
        )[0]
    # the enumeration oracle walks up to (block size)^(entities·attributes)
    # current databases, so large blocks come with few cells
    entities, attributes = rng.randint(1, 3), rng.randint(2, 3)
    config = SyntheticConfig(
        entities=entities,
        tuples_per_entity=rng.randint(1, 4 if entities * attributes <= 4 else 3),
        attributes=attributes,
        order_density=rng.choice((0.0, 0.3)),
        value_domain=rng.randint(2, 4),
        with_constraints=shape != 3 or rng.random() < 0.5,
        relations=2 if shape == 1 else 1,
        with_copy_functions=shape == 1,
        seed=seed,
    )
    return random_specification(config)


def _check(session, backend, queries, label):
    specification = session.specification
    encoder = session.encoder
    for query in queries:
        engine = QueryEngine(query)
        expected = _enumerated_answers(specification, engine, backend)
        assert encoder.certain_answers(engine) == expected, (label, query)
    expected = _enumerated_deterministic(specification, backend)
    assert encoder.deterministic(specification.instance_names()) == expected, label
    assert session.deterministic(method="sat") == expected, label
    if not specification.has_denial_constraints():
        assert session.deterministic(method="chase") == expected, label


def _check_selections(session, backend, queries, label):
    space = session.space
    for selection in space.iterate_consistent_selections():
        extension = apply_imports(
            session.specification, [space.candidates[i] for i in selection]
        ).specification
        for query in queries:
            engine = QueryEngine(query)
            expected = _enumerated_answers(extension, engine, backend)
            assert expected is not None
            got = space.certain_answers(engine, selection)
            assert got == expected, (label, selection, query)
            # a refuting database exists exactly for the uncertain candidates
            possible = set()
            for database in space.current_databases(selection, relations=engine.relations):
                possible |= engine.answers(database)
            for answer in possible:
                refuting = list(space.databases_without(engine, answer, selection))
                assert bool(refuting) == (answer not in expected), (label, selection, answer)
                for database in refuting:
                    assert answer not in engine.answers(database)


@pytest.mark.parametrize("seed", range(SEEDS))
def test_refutation_matches_enumeration(seed, backend):
    rng = random.Random(seed ^ 0x5EED)
    specification = _specification(seed)
    session = ReasoningSession(specification, backend=backend)
    queries = _queries(specification, rng)
    _check(session, backend, queries, f"seed {seed}")
    if seed % 4 == 2 and session.encoder.satisfiable():
        _check_selections(session, backend, queries, f"seed {seed}")
        _check(session, backend, queries, f"seed {seed} on the space")
    # tuple deltas between asks: the warm encoding's value columns are
    # re-encoded in place and the refutation must follow them
    for step in range(2):
        name = rng.choice(specification.instance_names())
        instance = specification.instance(name)
        schema = instance.schema
        values = {schema.eid: rng.choice(list(instance.entities()))}
        for attribute in schema.attributes:
            values[attribute] = rng.choice([t[attribute] for t in instance.tuples()] + [99])
        session.add_tuple(name, RelationTuple(schema, f"delta{step}", values))
        _check(session, backend, queries, f"seed {seed} after delta {step}")


@pytest.mark.slow
def test_sixty_four_entity_ccqa_is_refuted_quickly(backend):
    """The refutation makes a handful of solves where the enumeration walks
    every realizable current database: on 32 four-tuple entities the SP
    query must be answered at least 20x faster than by enumeration, and on
    64 entities within a fixed ceiling."""
    config = SyntheticConfig(
        entities=32,
        tuples_per_entity=4,
        attributes=2,
        order_density=0,
        with_constraints=True,
        seed=3,
    )
    specification = random_specification(config)
    engine = QueryEngine(random_sp_query(specification, seed=3))
    start = time.perf_counter()
    enumerated = _enumerated_answers(specification, engine, backend)
    enumeration_s = time.perf_counter() - start
    start = time.perf_counter()
    refuted = CompletionEncoder(specification, backend=backend).certain_answers(engine)
    refutation_s = time.perf_counter() - start
    assert refuted == enumerated
    assert refutation_s * 20 <= enumeration_s, (refutation_s, enumeration_s)

    specification = random_specification(
        SyntheticConfig(
            entities=64,
            tuples_per_entity=4,
            attributes=2,
            order_density=0,
            with_constraints=True,
            seed=3,
        )
    )
    engine = QueryEngine(random_sp_query(specification, seed=3))
    start = time.perf_counter()
    session = ReasoningSession(specification, backend=backend)
    answers = session.certain_answers(engine.source, method="candidates")
    assert time.perf_counter() - start < 1.0
    assert answers == session.encoder.certain_answers(engine)
