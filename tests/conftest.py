"""Shared fixtures for the test suite.

The ``src`` layout is added to ``sys.path`` so the tests run even when the
package has not been installed (offline environments without the ``wheel``
package cannot perform PEP 660 editable installs).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from repro.core import (
    CurrencyAtom,
    DenialConstraint,
    PartialOrder,
    RelationSchema,
    RelationTuple,
    TemporalInstance,
)
from repro.workloads import company


@pytest.fixture(scope="session", autouse=True)
def no_child_process_outlives_the_run():
    """Fail the run when a test leaves a worker process behind — a service,
    supervisor or batch driver that was never closed.  Children get a 5 s
    grace to finish exiting first."""
    yield
    grace_ends = time.monotonic() + 5.0
    for child in multiprocessing.active_children():
        child.join(max(0.0, grace_ends - time.monotonic()))
    leaked = multiprocessing.active_children()
    if leaked:
        pytest.fail(f"child processes outlived the test run: {leaked}")


@pytest.fixture()
def emp_schema():
    return company.emp_schema()


@pytest.fixture()
def emp_instance():
    return company.emp_instance()


@pytest.fixture()
def company_spec():
    return company.company_specification()


@pytest.fixture()
def company_spec_literal():
    return company.company_specification(include_status_semantics=False)


@pytest.fixture()
def manager_spec():
    return company.manager_specification()


@pytest.fixture()
def paper_queries():
    return company.paper_queries()


@pytest.fixture()
def pair_schema():
    """A tiny two-attribute schema used by many unit tests."""
    return RelationSchema("R", ("A", "B"))


@pytest.fixture()
def two_entity_instance(pair_schema):
    """Two entities with two tuples each and no initial currency orders."""
    rows = {
        "t1": {"EID": "e1", "A": 1, "B": 10},
        "t2": {"EID": "e1", "A": 2, "B": 20},
        "u1": {"EID": "e2", "A": 3, "B": 30},
        "u2": {"EID": "e2", "A": 4, "B": 40},
    }
    return TemporalInstance.from_rows(pair_schema, rows)


#: every solver backend the differential sweeps should try; optional engines
#: skip cleanly (per backend, not per test run) when their library is absent
KNOWN_BACKENDS = ("reference", "pysat")


@pytest.fixture(scope="session", params=KNOWN_BACKENDS)
def backend(request):
    """Each registered solver backend in turn (session-scoped so the
    hypothesis harnesses can share it without the function-scoped-fixture
    health check firing); unregistered optional backends are skipped."""
    from repro.solvers.backend import available_backends

    if request.param not in available_backends():
        pytest.skip(f"solver backend {request.param!r} is not installed")
    return request.param
