"""T7 core — the Figure-2 circuit on Spark: incremental TC maintenance."""
import pandas as pd
import pytest

from repro import synth_data
from repro.core.backend import SparkZSetOps
from repro.core.nested import IncrementalRecursive
from repro.core.recursion import naive_fixpoint
from repro.oracle import assert_equivalent
from repro.zset.frame import ZSet

from repro.core.tc import TC_SQL, tc_base_fn, tc_body, tc_join_fn

SOPS = SparkZSetOps()
E_SCHEMA = "h int, t int"


def delta_zset(spark, rows):
    if not rows:
        return ZSet.empty(spark, E_SCHEMA)
    return ZSet.from_rows(spark, rows, E_SCHEMA)


@pytest.mark.parametrize("deletes", [0, 1])
def test_incremental_recursive_tc_spark(spark, deletes):
    """ΔR from the nested circuit == D(lifted TC) at every outer step.

    Covers insert-only and mixed insert/delete streams; the final
    integrated closure is also checked against DuckDB's recursive CTE.
    """
    edges = synth_data.random_digraph_edges(n_nodes=12, n_edges=16, seed=11)
    initial, deltas = synth_data.edge_change_stream(
        edges, n_steps=3, inserts_per_step=2, deletes_per_step=deletes, seed=12
    )
    node = IncrementalRecursive(SOPS, base_fn=tc_base_fn, join_fn=tc_join_fn)
    zero_r = ZSet.empty(spark, "s int, t int")

    e_acc = delta_zset(spark, [(h, t, 1) for h, t in initial]).materialize()
    r_prev = naive_fixpoint(SOPS, tc_body(e_acc), zero_r)[0]
    # outer step 0: the initial snapshot enters as the first change
    got0 = node.step(delta_zset(spark, [(h, t, 1) for h, t in initial]))
    assert got0.equals(r_prev)

    acc_out = got0.materialize()
    for d in deltas:
        zd = delta_zset(spark, d)
        got = node.step(zd)
        e_acc = e_acc.add(zd).materialize()
        r_new = naive_fixpoint(SOPS, tc_body(e_acc), zero_r)[0]
        assert got.equals(r_new.sub(r_prev))
        acc_out = acc_out.add(got).materialize()
        r_prev = r_new

    live = {
        (r["h"], r["t"]): 1 for r in e_acc.consolidate().df.collect()
    }
    assert_equivalent(
        acc_out.consolidate().to_set_df(),
        TC_SQL,
        e=pd.DataFrame(sorted(live), columns=["h", "t"]),
    )
    assert len(node.inner_iterations) == 4


def test_inner_iterations_recorded(spark):
    node = IncrementalRecursive(SOPS, base_fn=tc_base_fn, join_fn=tc_join_fn)
    node.step(delta_zset(spark, [(0, 1, 1), (1, 2, 1)]))
    node.step(delta_zset(spark, [(2, 3, 1)]))
    assert len(node.inner_iterations) == 2
    assert all(i >= 1 for i in node.inner_iterations)


def test_incremental_recursive_tc_on_spark_path(spark, spark_path):
    """The Figure-2 circuit with no Z-set on the driver."""
    test_incremental_recursive_tc_spark(spark, 1)
