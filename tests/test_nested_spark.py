"""T7 core — the Figure-2 circuit on Spark: incremental TC maintenance."""
import pandas as pd
import pytest

from repro import synth_data
from repro.core.backend import SparkZSetOps
from repro.core.nested import IncrementalRecursive
from repro.core.recursion import naive_fixpoint
from repro.oracle import assert_equivalent
from repro.zset import frame
from repro.zset.frame import ZSet

from repro.core.tc import TC_SQL, tc_base_fn, tc_body, tc_join_fn

from helpers import count_jobs

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


def test_incremental_recursive_tc_on_spark_path(spark, monkeypatch):
    """The Figure-2 circuit with no Z-set on the driver, then with a
    20-row threshold, at which running sums cross from the driver to Spark
    mid-fixpoint."""
    for local_rows in (0, 20):
        monkeypatch.setattr(frame, "LOCAL_ROWS", local_rows)
        test_incremental_recursive_tc_spark(spark, 1)


def closure(edges) -> set:
    """Transitive closure of an edge set, by plain Python."""
    reach = set(edges)
    while True:
        more = {(h, t2) for h, t in reach for s, t2 in edges if t == s} - reach
        if not more:
            return reach
        reach |= more


@pytest.fixture(scope="module")
def churned(spark):
    """The Figure-2 circuit after a bulk load of a 3x20 layered DAG and two
    4-edge steps (3 inserts, 1 delete): the circuit, each step's output
    and Spark jobs, and the live edges before and after every step."""
    edges = synth_data.layered_dag_edges(layers=3, width=20, fanout=2, seed=5)
    initial, deltas = synth_data.edge_change_stream(
        edges, n_steps=2, inserts_per_step=3, deletes_per_step=1, seed=6
    )
    node = IncrementalRecursive(SOPS, base_fn=tc_base_fn, join_fn=tc_join_fn)
    node.step(delta_zset(spark, [(h, t, 1) for h, t in initial]))
    live = [set(initial)]
    steps = []
    for d in deltas:
        steps.append(count_jobs(spark, lambda d=d: node.step(delta_zset(spark, d))))
        live.append((live[-1] | {(h, t) for h, t, w in d if w > 0}) - {(h, t) for h, t, w in d if w < 0})
    return node, steps, live


def test_local_step_launches_at_most_3_jobs_per_inner_iteration(churned):
    """After the load, a small change and every value derived from it stay
    on the driver: each inner iteration costs one probe per integral it
    reads (the distinct's probe and the nested join's integral terms)."""
    node, steps, live = churned
    for k, (out, jobs) in enumerate(steps):
        iters = node.inner_iterations[k + 1]
        assert jobs <= 3 * iters, (jobs, iters)
        want = {r: 1 for r in closure(live[k + 1]) - closure(live[k])}
        want |= {r: -1 for r in closure(live[k]) - closure(live[k + 1])}
        assert out.rows is not None and out.rows == want


def test_nested_integrals_stay_in_spark(churned):
    """Every non-empty nested integral is a Spark plan over a checkpointed
    base (a ``LogicalRDD`` leaf), and the constant tail of ``I₂a``'s
    integral is one shared Z-set, not a copy per inner index."""
    node = churned[0]
    lists = [node.join.b1, node.join.a1, node.join.a12, node.dist.u, node.dist.v_prev]
    for tail in lists:
        for z in tail.vals:
            if z.known_empty:
                continue
            assert z.rows is None
            leaves = z.df._jdf.queryExecution().analyzed().collectLeaves()
            kinds = {leaves.apply(i).getClass().getSimpleName() for i in range(leaves.size())}
            assert "LogicalRDD" in kinds
    assert len(node.join.a12) > 1
    assert len({id(z) for z in node.join.a12.vals}) == 1
