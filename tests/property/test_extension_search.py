"""Differential property harness: SAT-encoded extension search vs the oracle.

Every case builds a small randomized specification (seeded, deterministic)
and checks that the SAT engine (:mod:`repro.preservation.sat_extensions`)
agrees with the seed explicit path
(:func:`repro.preservation.extensions.enumerate_extensions_naive` plus
per-subset consistency / CCQA) on

* the *set* of consistent extensions — downward-closed subsets of the
  candidate-import closure, derived (chained) candidates included,
* the certain current answers of every consistent extension,
* CPP verdicts, witness existence and the validity of the witness's
  answer-difference certificate (the certificate completion re-evaluated),
* ECP verdicts and the greedily constructed maximal extension,
* BCP verdicts for small bounds (SAT witnesses re-validated by the oracle,
  with **zero** fresh search-space constructions inside the SAT BCP run).

Tier-1 runs the full ≥200-case mixed harness (seeds 0–199) plus a dedicated
≥200-case *chained* sweep over workloads whose interesting extensions need
derived imports; an extended sweep over seeds 200–599 is marked ``slow`` and
deselected by the default ``-m "not slow"`` configuration (run it with
``pytest -m "slow or not slow"``).
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.core.copy_function import CopyFunction, CopySignature
from repro.core.denial import AttrRef, Comparison, CurrencyAtom, DenialConstraint
from repro.core.instance import TemporalInstance
from repro.core.schema import RelationSchema
from repro.core.specification import Specification
from repro.core.tuples import RelationTuple
from repro.exceptions import InconsistentSpecificationError
from repro.preservation.bcp import (
    bounded_currency_preserving_extension,
    has_bounded_extension,
)
from repro.preservation.cpp import find_violating_extension, is_currency_preserving
from repro.preservation.ecp import currency_preserving_extension_exists, maximal_extension
from repro.preservation.extensions import apply_imports, candidate_closure
from repro.preservation.sat_extensions import ExtensionSearchSpace
from repro.query.ast import SPQuery
from repro.query.engine import QueryEngine
from repro.reasoning.ccqa import certain_current_answers
from repro.reasoning.cps import is_consistent
from repro.workloads.synthetic import chained_preservation_workload

CASES = 200
EXTENDED_CASES = 600  # the slow tier sweeps seeds CASES..EXTENDED_CASES-1 on top
CHAINED_CASES = 200


# --------------------------------------------------------------------------- #
# Randomized specification generators
# --------------------------------------------------------------------------- #
def _random_orders(instance: TemporalInstance, rng: random.Random, density: float) -> None:
    """Sprinkle acyclic initial currency orders (respecting a random base
    permutation per entity block, as the synthetic workloads do)."""
    for attribute in instance.schema.attributes:
        for eid in instance.entities():
            base = list(instance.entity_tids(eid))
            rng.shuffle(base)
            for i in range(len(base)):
                for j in range(i + 1, len(base)):
                    if rng.random() < density:
                        instance.add_order(attribute, base[i], base[j])


def _monotone(schema: RelationSchema, attribute: str) -> DenialConstraint:
    return DenialConstraint(
        schema,
        ("s", "t"),
        body=[Comparison(AttrRef("s", attribute), ">", AttrRef("t", attribute))],
        head=CurrencyAtom("t", attribute, "s"),
        name=f"monotone_{attribute}_{schema.name}",
    )


def _conflict_pair(schema: RelationSchema, attribute: str) -> list:
    """An up/down constraint pair: two tuples with distinct *attribute* values
    must precede each other — presence of both is inconsistent."""
    return [
        DenialConstraint(
            schema,
            ("s", "t"),
            body=[Comparison(AttrRef("s", attribute), op, AttrRef("t", attribute))],
            head=CurrencyAtom("t", attribute, "s"),
            name=f"{name}_{attribute}_{schema.name}",
        )
        for op, name in ((">", "up"), ("<", "down"))
    ]


def _pair_case(rng: random.Random):
    """Source/target pair linked by a full-coverage copy function."""
    schema_s = RelationSchema("S", ("A", "B"))
    schema_t = RelationSchema("T", ("A", "B"))
    source = TemporalInstance(schema_s)
    target = TemporalInstance(schema_t)
    mapping = {}
    entities = 1 if rng.random() < 0.7 else 2
    for e in range(entities):
        eid = f"e{e}"
        src_rows = []
        for i in range(rng.randint(1, 3)):
            values = {"EID": eid, "A": rng.randint(0, 2), "B": rng.randint(0, 2)}
            tid = f"s{e}_{i}"
            source.add(RelationTuple(schema_s, tid, values))
            src_rows.append((tid, values))
        for i in range(rng.randint(1, 2)):
            tid = f"t{e}_{i}"
            if rng.random() < 0.6:
                src_tid, src_values = rng.choice(src_rows)
                values = {"EID": eid, "A": src_values["A"], "B": src_values["B"]}
                mapping[tid] = src_tid
            else:
                values = {"EID": eid, "A": rng.randint(0, 2), "B": rng.randint(0, 2)}
            target.add(RelationTuple(schema_t, tid, values))
    _random_orders(source, rng, 0.3)
    _random_orders(target, rng, 0.3)
    constraints = {"S": [], "T": []}
    if rng.random() < 0.5:
        constraints["T"].append(_monotone(schema_t, "A"))
    if rng.random() < 0.3:
        constraints["T"].extend(_conflict_pair(schema_t, "B"))
    if rng.random() < 0.2:
        constraints["S"].append(_monotone(schema_s, rng.choice(["A", "B"])))
    copy_function = CopyFunction(
        "rho",
        CopySignature(schema_t, ("A", "B"), schema_s, ("A", "B")),
        target="T",
        source="S",
        mapping=mapping,
    )
    specification = Specification(
        {"S": source, "T": target}, constraints, [copy_function]
    )
    projected = rng.choice(["A", "B"])
    eq_const = {}
    if rng.random() < 0.4:
        other = "B" if projected == "A" else "A"
        eq_const[other] = rng.randint(0, 2)
    query = SPQuery("T", schema_t, [projected], eq_const=eq_const, name="QT")
    return specification, query


def _chain_case(rng: random.Random):
    """Three relations chained by full-coverage copy functions, so imports
    into the middle relation create *derived* candidate imports that do not
    exist in the base specification (selector implications in the space)."""
    schemas = [RelationSchema(f"C{i}", ("A",)) for i in range(3)]
    instances = {}
    rows_by_relation = []
    for index, schema in enumerate(schemas):
        instance = TemporalInstance(schema)
        count = rng.randint(2, 3) if index == 0 else rng.randint(1, 2)
        rows = []
        for i in range(count):
            values = {"EID": "e", "A": rng.randint(0, 2)}
            tid = f"c{index}_{i}"
            instance.add(RelationTuple(schema, tid, values))
            rows.append((tid, values))
        _random_orders(instance, rng, 0.3)
        instances[schema.name] = instance
        rows_by_relation.append(rows)
    copy_functions = []
    for index in range(2):
        mapping = {}
        for tid, values in rows_by_relation[index + 1]:
            matches = [s for s, sv in rows_by_relation[index] if sv["A"] == values["A"]]
            if matches and rng.random() < 0.8:
                mapping[tid] = rng.choice(matches)
        copy_functions.append(
            CopyFunction(
                f"rho{index}",
                CopySignature(schemas[index + 1], ("A",), schemas[index], ("A",)),
                target=schemas[index + 1].name,
                source=schemas[index].name,
                mapping=mapping,
            )
        )
    constraints = {schema.name: [] for schema in schemas}
    if rng.random() < 0.5:
        constraints["C2"].append(_monotone(schemas[2], "A"))
    specification = Specification(instances, constraints, copy_functions)
    query = SPQuery("C2", schemas[2], ["A"], name="QC")
    return specification, query


def _generate(seed: int):
    rng = random.Random(seed)
    if seed % 10 == 9:
        return _chain_case(rng)
    return _pair_case(rng)


def _generate_chained(seed: int):
    """Chained-workload generator for the dedicated sweep: alternate between
    the structured chained preservation workload (derived candidates by
    construction, tunable chain depth) and fully randomized chain specs."""
    rng = random.Random(10_000 + seed)
    if seed % 2 == 0:
        return chained_preservation_workload(
            depth=rng.choice((2, 2, 3)),
            candidates=rng.randint(1, 2),
            entities=1,
            spoiler=rng.random() < 0.5,
            seed=seed,
        )
    return _chain_case(rng)


# --------------------------------------------------------------------------- #
# Oracles
# --------------------------------------------------------------------------- #
def _oracle_answers(query, specification):
    """Certain answers via the pre-existing CCQA path, None when Mod(S)=∅."""
    try:
        return certain_current_answers(query, specification, method="candidates")
    except InconsistentSpecificationError:
        return None


def _oracle_consistent_selections(specification, closure):
    """Explicitly materialise every downward-closed subset of the closure and
    keep the consistent ones (subsets missing a derived import's prerequisite
    are not extensions at all)."""
    consistent = set()
    candidates = closure.candidates
    for size in range(len(candidates) + 1):
        for subset in combinations(range(len(candidates)), size):
            if not closure.is_downward_closed(subset):
                continue
            chosen = [candidates[i] for i in subset]
            if is_consistent(apply_imports(specification, chosen).specification):
                consistent.add(frozenset(subset))
    return consistent


def _violating(query, specification, search, space=None):
    try:
        witness = find_violating_extension(
            query, specification, search=search, ccqa_method="candidates", space=space
        )
    except InconsistentSpecificationError:
        return "inconsistent", None
    return "ok", witness


def _assert_valid_certificate(seed, query, specification, witness):
    """The certificate names a genuinely changed answer and its completion,
    re-evaluated, refutes the answer's certainty on the claimed side."""
    certificate = witness.certificate
    assert certificate is not None, f"seed {seed}: witness carries no certificate"
    base = _oracle_answers(query, specification)
    extended = _oracle_answers(query, witness.specification)
    assert base is not None and extended is not None
    if certificate.gained:
        assert certificate.answer in extended and certificate.answer not in base, (
            f"seed {seed}: certificate answer not gained"
        )
        assert certificate.completion_of == "base"
    else:
        assert certificate.answer in base and certificate.answer not in extended, (
            f"seed {seed}: certificate answer not lost"
        )
        assert certificate.completion_of == "extension"
    engine = QueryEngine(query)
    assert certificate.refutes_certainty(engine), (
        f"seed {seed}: re-evaluating the query on the certificate completion "
        f"still produces the changed answer"
    )


# --------------------------------------------------------------------------- #
# The differential check
# --------------------------------------------------------------------------- #
def _check_case(seed: int, specification, query, bcp_bounds=(0, 1, 2), backend=None) -> None:
    space = ExtensionSearchSpace(specification, backend=backend)

    # 1. the sets of consistent extensions coincide (closure-wide)
    oracle_consistent = _oracle_consistent_selections(specification, space.closure)
    sat_consistent = {frozenset(s) for s in space.iterate_consistent_selections()}
    assert sat_consistent == oracle_consistent, f"seed {seed}: consistent sets diverge"
    assert space.has_chained_candidates == bool(space.prerequisites)

    # 2. certain answers agree on every consistent extension (incl. ρ itself)
    engine = QueryEngine(query)
    for selection in sorted(sat_consistent, key=sorted):
        expected = _oracle_answers(query, space.extension(tuple(selection)).specification)
        got = space.certain_answers(engine, tuple(selection))
        assert got == expected, f"seed {seed}: answers diverge on {sorted(selection)}"

    # 3. CPP: verdicts agree; witnesses carry valid certificates
    sat_status, sat_witness = _violating(query, specification, "sat", space=space)
    naive_status, naive_witness = _violating(query, specification, "naive")
    assert sat_status == naive_status, f"seed {seed}: CPP consistency status diverges"
    assert (sat_witness is None) == (naive_witness is None), f"seed {seed}: CPP verdicts diverge"
    for witness in (sat_witness, naive_witness):
        if witness is not None:
            _assert_valid_certificate(seed, query, specification, witness)
    assert is_currency_preserving(query, specification, method="sat", space=space) == \
        is_currency_preserving(query, specification, method="enumerate")

    # 4. ECP and the maximal extension
    assert currency_preserving_extension_exists(query, specification, space=space) == \
        is_consistent(specification)
    sat_maximal = maximal_extension(specification, search="sat", space=space)
    naive_maximal = maximal_extension(specification, search="naive")
    assert sat_maximal.imports == naive_maximal.imports, f"seed {seed}: maximal diverges"

    # 5. BCP for small bounds; SAT witnesses re-validated by the oracle, and
    #    the whole SAT run must reuse the one space (no fresh constructions)
    for k in bcp_bounds:
        constructions_before = ExtensionSearchSpace.constructions
        sat_witness = bounded_currency_preserving_extension(
            query, specification, k, search="sat", space=space, engine=engine
        )
        assert ExtensionSearchSpace.constructions == constructions_before, (
            f"seed {seed}: BCP k={k} built a fresh search space"
        )
        naive_verdict = has_bounded_extension(
            query, specification, k, method="enumerate", search="naive"
        )
        assert (sat_witness is not None) == naive_verdict, f"seed {seed}: BCP k={k} diverges"
        if sat_witness is not None:
            assert sat_witness.size_increase <= k
            assert is_currency_preserving(
                query, sat_witness.specification, method="enumerate"
            ), f"seed {seed}: BCP k={k} SAT witness not preserving"


@pytest.mark.parametrize("seed", range(CASES))
def test_sat_and_naive_engines_agree(seed, backend):
    """The ≥200-case differential sweep (tier-1), per registered backend."""
    specification, query = _generate(seed)
    _check_case(seed, specification, query, backend=backend)


@pytest.mark.parametrize("seed", range(CHAINED_CASES))
def test_chained_workloads_agree(seed, backend):
    """≥200 seeded chained specifications: CPP/ECP/BCP verdicts match the
    explicit closure oracle, witnesses need derived imports, certificates
    hold (tier-1, per registered backend)."""
    specification, query = _generate_chained(seed)
    _check_case(seed, specification, query, bcp_bounds=(0, 1, 2, 3), backend=backend)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(CASES, EXTENDED_CASES))
def test_sat_and_naive_engines_agree_extended(seed, backend):
    """400 further seeds for the full property sweep (slow tier)."""
    specification, query = _generate(seed)
    _check_case(seed, specification, query, backend=backend)


def _between_case():
    """A candidate import *a* whose ≺-compatibility places it between the
    two mapped target tuples, ``p1 ≺_B a ≺_B p2``, plus a monotone denial
    constraint that makes *a* the most current ``A`` once imported.

    The search space orders every block totally, the absent *a* included;
    the base specification must not feel it."""
    schema_s = RelationSchema("S", ("A", "B"))
    schema_t = RelationSchema("T", ("A", "B"))
    source = TemporalInstance.from_rows(
        schema_s,
        {
            "s1": {"EID": "e", "A": 1, "B": 0},
            "sa": {"EID": "e", "A": 4, "B": 3},
            "s2": {"EID": "e", "A": 3, "B": 1},
        },
        orders={"B": [("s1", "sa"), ("sa", "s2")]},
    )
    target = TemporalInstance.from_rows(
        schema_t,
        {"p1": {"EID": "e", "A": 1, "B": 0}, "p2": {"EID": "e", "A": 3, "B": 1}},
    )
    copy_function = CopyFunction(
        "rho",
        CopySignature(schema_t, ("A", "B"), schema_s, ("A", "B")),
        target="T",
        source="S",
        mapping={"p1": "s1", "p2": "s2"},
    )
    specification = Specification(
        {"S": source, "T": target},
        {"S": [], "T": [_monotone(schema_t, "A")]},
        [copy_function],
    )
    return specification, SPQuery("T", schema_t, ["A"], name="QA")


def test_totality_over_an_absent_import_is_sound():
    specification, query = _between_case()
    closure = candidate_closure(specification)
    assert [c.source_tid for c in closure.candidates] == ["sa"]
    imported = apply_imports(specification, closure.candidates).specification
    a = closure.candidates[0].new_tid()
    assert not imported.instance("T").precedes("B", "p1", a)  # only forced by copying
    given = imported.copy()
    given.instance("T").add_order("B", "p1", a)
    given.instance("T").add_order("B", a, "p2")
    for seed, case in enumerate((specification, imported, given)):
        _check_case(seed, case, query)
    # the import makes its A value current, so ρ is not currency preserving
    # and importing it is; the sweeps above agree with the oracle on all three
    assert _oracle_answers(query, specification) == frozenset({(3,)})
    assert _oracle_answers(query, imported) == frozenset({(4,)})
    assert not is_currency_preserving(query, specification, method="sat")
    assert is_currency_preserving(query, imported, method="sat")
    assert not has_bounded_extension(query, specification, 0)
    assert has_bounded_extension(query, specification, 1)
