"""Physical plans of the incremental joins: the change side is broadcast.

Bilinear payloads are plain ``(a, b)`` functions; the incremental nodes
mark the change side of every term with ``GroupOps.small``, which the
Spark backend turns into a broadcast hint. With automatic broadcast off
(the test session's setting), a lost hint shows up as a ``SortMergeJoin``
(or a ``CartesianProduct``), and a hint leaked into the stored integrals
would let Spark broadcast the O(R) state.
"""
import re

from repro.core.backend import SparkZSetOps
from repro.core.circuit import IncrementalJoin
from repro.core.nested import NestedIncrementalJoin
from repro.core.tc import E_SCHEMA, R_SCHEMA, tc_join_fn
from repro.core.window import RelationToStreamJoin
from repro.sql import translate as t
from repro.sql.compile import IncrementalView
from repro.zset import ops as zops
from repro.zset.frame import ZSet

from test_incremental_view_spark import T1_SCHEMA, T2_SCHEMA, delta_zset, drive

S2 = "a int, b int"


def plan_ops(z: ZSet, name: str) -> int:
    """Number of ``name`` operators in the physical plan Spark picks for ``z``."""
    plan = z.df._jdf.queryExecution().sparkPlan().toString()
    return len(re.findall(rf"\b{name}\b", plan))


def analyzed(z: ZSet) -> str:
    return z.df._jdf.queryExecution().analyzed().toString()


def rows(spark, vals, schema=S2) -> ZSet:
    return ZSet.from_rows(spark, [v + (1,) for v in vals], schema)


def join_node() -> IncrementalJoin:
    return IncrementalJoin(
        SparkZSetOps(), lambda a, b: zops.join_z(a, b, on=[("b", "a")])
    )


def test_incremental_join_broadcasts_every_term(spark):
    node = join_node()
    node.step(rows(spark, [(1, 2), (2, 3)]), rows(spark, [(2, 5), (3, 6)]))
    for k in range(2):
        out = node.step(rows(spark, [(k, 3)]), rows(spark, [(2, k)]))
        assert plan_ops(out, "BroadcastHashJoin") == 3
        assert plan_ops(out, "SortMergeJoin") == 0


def test_incremental_join_state_carries_no_hint(spark):
    node = join_node()
    for k in range(3):
        node.step(rows(spark, [(k, k + 1)]), rows(spark, [(k + 1, k)]))
    for state in (node._ia, node._ib):
        assert "ResolvedHint" not in analyzed(state)


def test_relation_to_stream_join_broadcasts_points(spark):
    """The stream-table join probes the integrated relation with the
    step's points instead of shuffling the O(R) state."""
    node = RelationToStreamJoin(
        SparkZSetOps(), lambda rel, pts: zops.join_z(rel, pts, on=[("b", "a")])
    )
    for k in range(3):
        out = node.step(rows(spark, [(k, k + 1)]), rows(spark, [(k + 1, k)]))
    assert plan_ops(out, "BroadcastHashJoin") == 1
    assert plan_ops(out, "SortMergeJoin") == 0


def test_nested_join_broadcasts_all_four_terms(spark):
    """Second outer step, second inner step: every term of the 4-term
    expansion has non-empty inputs, and each one broadcasts its change side."""
    node = NestedIncrementalJoin(SparkZSetOps(), tc_join_fn)
    for outer in range(2):
        node.begin_outer()
        for i in range(2):
            e = rows(spark, [(outer, i + 10), (i + 10, outer)], E_SCHEMA)
            r = rows(spark, [(i + 10, outer + 20)], R_SCHEMA)
            out = node.inner_step(e, r)
        node.end_outer()
    assert plan_ops(out, "BroadcastHashJoin") == 4
    assert plan_ops(out, "SortMergeJoin") == 0
    for tail in (node.b1, node.a1, node.a12):
        for state in tail.vals:
            assert "ResolvedHint" not in analyzed(state)


def test_incremental_cartesian_view(spark):
    """× through Algorithm 4.8 integrates to ``evaluate`` over the
    snapshots, and its Δ terms plan as broadcast nested-loop joins."""
    ast = t.t_cartesian(
        t.t_project(t.Rel("t1"), {"x": "x"}), t.t_project(t.Rel("t2"), {"y": "y"})
    )
    drive(spark, ast, n_steps=4, seed=7)  # asserts integral == evaluate per step

    iv = IncrementalView(ast)
    for k in range(2):
        out = iv.step({
            "t1": delta_zset(spark, [(k, 1, k)], [], T1_SCHEMA),
            "t2": delta_zset(spark, [(k, 1, k + 1)], [], T2_SCHEMA),
        })
    assert plan_ops(out, "BroadcastNestedLoopJoin") == 3
    assert plan_ops(out, "CartesianProduct") == 0
