"""The benchmark's answers, checked by the test suite.

One pass of the ``recover-mix`` (seed 1), ``campaign-gf3`` and ``lemma31``
workloads of ``perfbench/workloads.py`` runs here, and every op's answer
must match its reference.  The recovery references are column spans of the
conjugators, computed by ``perfbench/oracle.py`` apart from ``weaktri``, and
the pencil references are fixed counts, so a change that breaks a chain or
a pencil count fails the suite, not only the benchmark.  The
benchmark's files are imported as they are and never changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name, ops", [("recover-mix", 400), ("campaign-gf3", 1), ("lemma31", 6)])
def test_every_answer_matches_its_reference(workloads, name, ops):
    workload = workloads.WORKLOADS[name](1)
    assert len(workload) == ops
    mismatches = [(op.name, op.check(op.run())) for op in workload]
    assert [(op, why) for op, why in mismatches if why is not None] == []
