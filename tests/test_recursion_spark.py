"""T6 — Recursion on Spark: naïve vs semi-naïve vs DuckDB recursive CTE."""
import pandas as pd
import pytest

from repro import synth_data
from repro.core.backend import SparkZSetOps
from repro.core.recursion import IncBody, naive_fixpoint, semi_naive_fixpoint
from repro.oracle import assert_equivalent
from repro.zset import frame
from repro.zset import ops as zops
from repro.zset.frame import ZSet

from repro.core.tc import TC_SQL, edges_zset, tc_base_fn, tc_body, tc_join_fn

SOPS = SparkZSetOps()


@pytest.fixture(scope="module")
def graph(spark):
    edges = synth_data.random_digraph_edges(n_nodes=25, n_edges=45, seed=3)
    return edges, edges_zset(spark, edges)


def test_naive_tc_vs_duckdb(spark, graph):
    """Theorem 5.4 on Spark: the loop circuit == Datalog semantics (DuckDB)."""
    edges, ze = graph
    zero = ZSet.empty(spark, "s int, t int")
    fix, _ = naive_fixpoint(SOPS, tc_body(ze), zero)
    assert fix.isset()
    assert_equivalent(
        fix.to_set_df(), TC_SQL, e=pd.DataFrame(edges, columns=["h", "t"])
    )


def test_semi_naive_equals_naive_spark(spark, graph):
    """Circuit 5.1 on Spark — the cycle-rule rewrite preserves the fixpoint."""
    edges, ze = graph
    zero = ZSet.empty(spark, "s int, t int")
    naive, _ = naive_fixpoint(SOPS, tc_body(ze), zero)
    body = IncBody(SOPS, base_fn=tc_base_fn, join_fn=tc_join_fn)
    semi, _ = semi_naive_fixpoint(SOPS, body, ze)
    assert semi.equals(naive)


def test_semi_naive_work_profile_layered_dag(spark):
    """T6's shape: naïve re-derives everything, semi-naïve only new facts."""
    edges = synth_data.layered_dag_edges(layers=6, width=4, fanout=2, seed=4)
    ze = edges_zset(spark, edges)
    zero = ZSet.empty(spark, "s int, t int")
    _, n_stats = naive_fixpoint(SOPS, tc_body(ze), zero, collect_stats=True)
    body = IncBody(SOPS, base_fn=tc_base_fn, join_fn=tc_join_fn)
    _, s_stats = semi_naive_fixpoint(
        SOPS, body, ze, collect_stats=True
    )
    # naïve total work strictly dominates semi-naïve
    assert s_stats.total_facts < n_stats.total_facts
    # naïve per-iteration counts are non-decreasing (monotone accumulation)
    assert n_stats.facts_per_iteration == sorted(n_stats.facts_per_iteration)
    # both reach the same depth (§6.2), modulo the final emptiness probe
    assert abs(n_stats.iterations - s_stats.iterations) <= 1


def test_while_loop_spark(spark, graph):
    """§7.7 while-relational: closure by squaring reaches the same fixpoint."""
    from repro.core.recursion import while_loop

    edges, ze = graph
    base = tc_base_fn(ze).materialize()

    def q(x: ZSet) -> ZSet:
        step = zops.map_z(zops.join_z(x, x, on=[("t", "s")]), {"s": "s", "t": "t_r"})
        return x.add(step).distinct()

    fix = while_loop(SOPS, q, base)
    assert_equivalent(
        fix.to_set_df(), TC_SQL, e=pd.DataFrame(edges, columns=["h", "t"])
    )


def test_semi_naive_equals_naive_on_spark_path(spark, monkeypatch):
    """Circuit 5.1 with no Z-set on the driver, then with a 100-row
    threshold, at which the 45-edge input is local and running sums cross
    from the driver to Spark mid-fixpoint (the module's ``graph`` is built
    before the patch, so this builds its own)."""
    for local_rows in (0, 100):
        monkeypatch.setattr(frame, "LOCAL_ROWS", local_rows)
        edges = synth_data.random_digraph_edges(n_nodes=25, n_edges=45, seed=3)
        ze = edges_zset(spark, edges)
        assert (ze.rows is None) == (local_rows == 0)
        test_semi_naive_equals_naive_spark(spark, (edges, ze))
