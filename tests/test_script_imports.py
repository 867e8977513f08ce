"""Every experiment job and perfbench module imports, and perfbench's hooks resolve.

The suite collects only ``tests/``, so a name removed from ``src/`` that
only these scripts use would otherwise go unnoticed until they run.
Each file is imported by path, with its sibling directories on
``sys.path`` as when it runs; nothing is executed beyond module level.
``perfbench/workloads.py`` also wraps methods of ``src/`` for its traced
spans and reads circuit state through attributes; the last two tests
check those names without starting a Spark session.
"""
import contextlib
import glob
import importlib.util
import os
import sys

import pytest

from repro.core.backend import SparkZSetOps
from repro.core.circuit import IncrementalDistinct, IncrementalJoin
from repro.core.nested import IncrementalRecursive
from repro.core.operators import IncrementalGroupAggregate
from repro.core.window import TimeRangeWindow
from repro.sql.compile import IncrementalView

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("jobs", "perfbench")
SCRIPTS = sorted(
    os.path.relpath(p, ROOT)
    for pattern in ("jobs/t*.py", "perfbench/*.py")
    for p in glob.glob(os.path.join(ROOT, pattern))
)


@contextlib.contextmanager
def imported(script, monkeypatch):
    for d in DIRS:
        monkeypatch.syspath_prepend(os.path.join(ROOT, d))
    before = set(sys.modules)
    name = "script_" + script.replace(os.sep, "_")[:-3]
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, script))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        # forget the scripts' sibling modules (``common``, ``inputs``, ...)
        for mod in set(sys.modules) - before:
            path = getattr(sys.modules[mod], "__file__", None) or ""
            if any(path.startswith(os.path.join(ROOT, d)) for d in DIRS):
                del sys.modules[mod]


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_imports(script, monkeypatch):
    with imported(script, monkeypatch):
        pass


class StubTracer:
    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name):
        self.wrapped.append((owner, attr))


def test_perfbench_traced_methods_exist(monkeypatch):
    """Every method perfbench wraps is defined on the owner it names."""
    tracer = StubTracer()
    with imported("perfbench/workloads.py", monkeypatch) as workloads:
        workloads._install_spans(tracer)
    assert tracer.wrapped
    for owner, attr in tracer.wrapped:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_perfbench_state_attributes_exist(monkeypatch):
    """The circuits perfbench builds carry the state attributes it reads."""
    with imported("perfbench/workloads.py", monkeypatch) as workloads:
        iv = IncrementalView(workloads.view_ast())
        rec = IncrementalRecursive(SparkZSetOps(), workloads.tc.tc_base_fn, workloads.tc.tc_join_fn)
        agg = IncrementalGroupAggregate(["k"], workloads.AGGS)
        win = TimeRangeWindow("ts", width=workloads.WINDOW - 1)
    assert iv._joins and iv._distincts
    for j in iv._joins.values():
        assert isinstance(j, IncrementalJoin)
        assert hasattr(j, "_ia") and hasattr(j, "_ib")
    for d in iv._distincts.values():
        assert isinstance(d, IncrementalDistinct)
        assert hasattr(d, "_i")
    assert isinstance(rec.ops, SparkZSetOps)
    for tail_list in (rec.join.b1, rec.join.a1, rec.join.a12, rec.dist.u, rec.dist.v_prev):
        assert tail_list.vals == []
    assert hasattr(agg, "_i")
    assert win.contents() is None
