"""Changes on the driver, integrals in Spark: the per-step cost of a view.

After a bulk load, a view step over a small change keeps the change on
the driver (``ZSet.local``) and launches one Spark job per integral it
probes: the two join integrals and the distinct integral. The integrals
themselves stay Spark DataFrames over a checkpointed base.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.backend import SparkZSetOps
from repro.core.circuit import IncrementalDistinct
from repro.sql import translate as t
from repro.sql.compile import IncrementalView, evaluate
from repro.zset import frame
from repro.zset import ops as zops
from repro.zset.frame import W, ZSet

from helpers import count_jobs

N_ORDERS, N_LINES = 3_000, 12_000  # the lineitem load is above LOCAL_ROWS


def view_ast() -> t.Node:
    """SELECT DISTINCT o_custkey, l_partkey over orders JOIN lineitem, both filtered."""
    return t.t_project(
        t.t_join(
            t.t_select(t.Rel("orders"), "o_totalprice > 100000"),
            t.t_select(t.Rel("lineitem"), "l_quantity > 25"),
            on=[("o_orderkey", "l_orderkey")],
        ),
        {"c": "o_custkey", "p": "l_partkey"},
    )


def tables(g, n_orders, n_lines, first_order=1, first_line=0, max_order=None):
    """Fresh orders and lineitem rows; lines reference orders 1..max_order."""
    orders = pd.DataFrame({
        "o_orderkey": np.arange(first_order, first_order + n_orders, dtype=np.int64),
        "o_custkey": g.integers(1, 300, n_orders),
        "o_totalprice": g.random(n_orders) * 500_000,
    })
    lineitem = pd.DataFrame({
        "l_id": np.arange(first_line, first_line + n_lines, dtype=np.int64),
        "l_orderkey": g.integers(1, (max_order or n_orders) + 1, n_lines),
        "l_partkey": g.integers(1, 400, n_lines),
        "l_quantity": g.integers(1, 51, n_lines).astype(np.float64),
    })
    return orders, lineitem


def zset(spark, pdf: pd.DataFrame) -> ZSet:
    """A table as a Z-set: every row at weight 1, as a ``LocalRelation``."""
    return ZSet(spark.createDataFrame(pdf.assign(**{W: 1})))


@pytest.fixture(scope="module")
def stepped(spark):
    """A view after its bulk load and one step over a 1,000-row change (200
    order and 800 lineitem rows, a tenth of them deletes of loaded rows):
    the view, the step's output and the Spark jobs the step launched."""
    g = np.random.default_rng(5)
    before = dict(zip(("orders", "lineitem"), tables(g, N_ORDERS, N_LINES)))
    new = dict(zip(("orders", "lineitem"), tables(g, 180, 720, N_ORDERS + 1, N_LINES, N_ORDERS + 180)))
    dead = {"orders": 20, "lineitem": 80}
    after = {k: pd.concat([before[k].iloc[dead[k]:], new[k]], ignore_index=True) for k in before}
    change = {
        k: pd.concat([new[k].assign(**{W: 1}), before[k].iloc[:dead[k]].assign(**{W: -1})], ignore_index=True)
        for k in before
    }
    assert sum(map(len, change.values())) == 1_000

    iv = IncrementalView(view_ast())
    iv.step({k: zset(spark, v) for k, v in before.items()})
    out, jobs = count_jobs(spark, lambda: iv.step({k: ZSet(spark.createDataFrame(v)) for k, v in change.items()}))
    return iv, out, jobs, before, after


def test_local_view_step_launches_at_most_6_jobs(spark, stepped):
    """One probe per integral: a 1,000-row change costs at most 6 jobs,
    against 13 when every change is consolidated and checkpointed in Spark."""
    iv, out, jobs, before, after = stepped
    assert jobs <= 6
    assert out.rows is not None  # the view's change is on the driver

    def full(tables):
        return evaluate(iv.ast, {k: zset(spark, v) for k, v in tables.items()})

    assert out.collect_dict() == full(after).sub(full(before)).collect_dict()


def test_integrals_stay_in_spark(stepped):
    """After the load and a local step, every view integral is a Spark plan
    over a checkpointed base (a ``LogicalRDD`` leaf): the O(R) state is not
    on the driver, and perfbench's ``state_mb`` reads those leaves."""
    iv = stepped[0]
    integrals = [z for j in iv._joins.values() for z in (j._ia, j._ib)]
    integrals += [d._i for d in iv._distincts.values()]
    assert len(integrals) == 3
    for z in integrals:
        assert z.rows is None
        leaves = z.df._jdf.queryExecution().analyzed().collectLeaves()
        kinds = {leaves.apply(i).getClass().getSimpleName() for i in range(leaves.size())}
        assert "LogicalRDD" in kinds


def test_restrict_reads_matching_rows_of_every_key_type(spark):
    """The probe's ``IN`` filter is one SQL string: quotes, backslashes,
    doubles, decimals, dates, booleans and nulls must all match exactly as
    Z-set rows do (a null key matches a null); a join still matches no
    null key."""
    import datetime
    from decimal import Decimal

    schema = "s string, x double, dec decimal(10,2), dt date, b boolean, n int"
    data = [
        ("it's", 0.1, Decimal("1.50"), datetime.date(2020, 1, 2), True, 1),
        ("back\\\\slash", -2.5e-7, Decimal("-3.00"), datetime.date(1999, 12, 31), False, None),
        ("plain", 3.0, Decimal("0.00"), datetime.date(2020, 1, 2), True, 3),
    ]
    state = ZSet.from_rows(spark, [r + (2,) for r in data] + [data[0] + (1,)], schema)
    state = ZSet(state.df.localCheckpoint(eager=True))  # a Spark value, not a LocalRelation
    cols = ["s", "x", "dec", "dt", "b", "n"]
    assert state.restrict(cols, [data[0], data[2]]) == {data[0]: 3, data[2]: 2}
    assert state.restrict(["s"], [(data[1][0],)]) == {data[1]: 2}
    assert state.restrict(["n"], [(None,)]) == {data[1]: 2}
    assert state.restrict(["s", "n"], [(data[1][0], None), ("plain", None)]) == {data[1]: 2}

    change = ZSet.from_rows(spark, [("it's", 7, 1), ("plain", 8, -1)], "s string, k int").materialize()
    assert change.rows is not None
    joined = zops.join_z(change, state, on=["s"])
    assert joined.rows is not None
    want = zops.join_z(ZSet(change.df), state, on=["s"])
    assert joined.collect_dict() == want.collect_dict() != {}

    nulls = ZSet.from_rows(spark, [(None, 1), (1, 1)], "n int").materialize()
    assert nulls.rows is not None
    assert zops.join_z(nulls, state, on=["n"]).collect_dict() == {(1,) + data[0]: 2 + 1}
    assert zops.join_z(state, nulls, on=["n"]).collect_dict() == {data[0] + (1,): 2 + 1}


@pytest.mark.parametrize("local_rows", [frame.LOCAL_ROWS, 0], ids=["driver", "spark"])
def test_distinct_matches_null_rows(spark, monkeypatch, local_rows):
    """``H`` reads a row with a null column at its old weight: inserted and
    then deleted, the row leaves the distinct's output, whether ``H`` runs
    on the driver or as a Spark join."""
    monkeypatch.setattr(frame, "LOCAL_ROWS", local_rows)
    node = IncrementalDistinct(SparkZSetOps())
    assert node.step(ZSet.from_rows(spark, [(None, 1, 1)], "a int, b int")).collect_dict() == {(None, 1): 1}
    assert node.step(ZSet.from_rows(spark, [(None, 1, -1)], "a int, b int")).collect_dict() == {(None, 1): -1}
