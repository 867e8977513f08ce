"""Only ``zset/frame.py`` decides where a Z-set lives.

Every choice between the driver and Spark, and every read that can
overflow, is made in one module. This test parses every module under
``src/repro`` and fails if another one names ``LOCAL_ROWS``.
"""
import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent


def names_local_rows(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "LOCAL_ROWS":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "LOCAL_ROWS":
            return True
        if isinstance(node, ast.alias) and node.name == "LOCAL_ROWS":
            return True
    return False


def test_only_frame_names_local_rows():
    modules = sorted(ROOT.rglob("*.py"))
    assert ROOT / "zset" / "frame.py" in modules
    offenders = [str(p.relative_to(ROOT)) for p in modules
                 if p != ROOT / "zset" / "frame.py" and names_local_rows(ast.parse(p.read_text(), str(p)))]
    assert offenders == []


def test_rule_catches_each_way_of_naming_it():
    for src in ("x = LOCAL_ROWS", "x = frame.LOCAL_ROWS", "from repro.zset.frame import LOCAL_ROWS"):
        assert names_local_rows(ast.parse(src))
    assert not names_local_rows(ast.parse('"""at fewer than LOCAL_ROWS rows"""'))
