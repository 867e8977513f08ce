"""Every experiment job and perfbench module imports.

The suite collects only ``tests/``, so a name removed from ``src/`` that
only these scripts use would otherwise go unnoticed until they run.
Each file is imported by path, with its sibling directories on
``sys.path`` as when it runs; nothing is executed beyond module level.
"""
import glob
import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("jobs", "perfbench")
SCRIPTS = sorted(
    os.path.relpath(p, ROOT)
    for pattern in ("jobs/t*.py", "perfbench/*.py")
    for p in glob.glob(os.path.join(ROOT, pattern))
)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_imports(script, monkeypatch):
    for d in DIRS:
        monkeypatch.syspath_prepend(os.path.join(ROOT, d))
    before = set(sys.modules)
    name = "script_" + script.replace(os.sep, "_")[:-3]
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, script))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        # forget the scripts' sibling modules (``common``, ``inputs``, ...)
        for mod in set(sys.modules) - before:
            path = getattr(sys.modules[mod], "__file__", None) or ""
            if any(path.startswith(os.path.join(ROOT, d)) for d in DIRS):
                del sys.modules[mod]
