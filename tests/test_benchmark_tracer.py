"""The benchmark's tracer, installed on the package as it is.

``perfbench/tracer.py`` wraps each traced function by name at every module
binding that holds it, so a traced name the package no longer has would
otherwise break only a traced benchmark run.  Here the tracer is installed
and removed once: every traced name must resolve, and every binding it
wrapped must hold its original object again on exit.  The benchmark's files
are imported as they are and never changed.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import weaktri  # loads the modules the tracer patches

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def bindings():
    """{(owner name, attribute): object} over every loaded ``weaktri``
    module and every class it defines, the places the tracer patches."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "weaktri" and not name.startswith("weaktri."):
            continue
        for attr, value in vars(module).items():
            found[name, attr] = value
            if inspect.isclass(value) and value.__module__ == name:
                for member, inner in vars(value).items():
                    found[f"{name}.{attr}", member] = inner
    return found


def test_tracer_wraps_every_traced_name_and_restores_it(tracer):
    before = bindings()
    with tracer.Tracer().installed():
        during = bindings()
    after = bindings()
    wrapped = {key for key, value in before.items() if during[key] is not value}
    for layer, qualname in tracer.TRACED:
        owner, _, attr = f"weaktri.{layer}.{qualname}".rpartition(".")
        assert (owner, attr) in wrapped, f"{layer}.{qualname} was not wrapped"
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
