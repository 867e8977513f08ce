"""Changes on the driver, integrals in Spark: the per-step cost of a view.

After a bulk load, a view step over a small change keeps the change on
the driver (``ZSet.local``) and launches one Spark job per integral it
probes: the two join integrals and the distinct integral. The integrals
themselves stay Spark DataFrames over a checkpointed base.
"""
import numpy as np
import pandas as pd
import pytest

from pyspark.sql import functions as F

from repro import synth_data
from repro.core.backend import RefZSetOps, SparkZSetOps
from repro.core.circuit import IncrementalDistinct
from repro.core.operators import IncrementalGroupAggregate
from repro.core.recursion import IncBody, semi_naive_fixpoint
from repro.core.tc import edges_zset, tc_base_fn, tc_join_fn
from repro.core.window import TimeRangeWindow
from repro.sql import translate as t
from repro.sql.compile import IncrementalView, evaluate
from repro.zset import aggregates, frame, ref
from repro.zset import ops as zops
from repro.zset.frame import W, ZSet

from helpers import count_jobs, count_jobs_and_stages

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
    """``ZSet.at``'s ``IN`` filter is one SQL string: quotes, backslashes,
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

    def at(cols, keys, schema, on=None):
        change = ZSet.from_rows(spark, [k + (1,) for k in keys], schema).materialize()
        assert change.rows is not None
        got = state.at(cols, change, on=on)
        assert got.rows is not None
        return got.rows

    assert at(cols, [data[0], data[2]], schema) == {data[0]: 3, data[2]: 2}
    assert at(["s"], [(data[1][0],)], "s string") == {data[1]: 2}
    assert at(["n"], [(None,)], "n int") == {data[1]: 2}
    assert at(["s", "n"], [(data[1][0], None), ("plain", None)], "s string, n int") == {data[1]: 2}
    assert at(["s", "n"], [(data[1][0], None)], "t string, m int", on=["t", "m"]) == {data[1]: 2}

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


def test_window_and_aggregate_step_launches_at_most_2_jobs(spark, tmp_path):
    """A 2,000-row file batch into a 40,000-row ``[RANGE]`` window and a
    grouped SUM/COUNT: the window reads its change with one job over the
    batch and its state, the aggregate reads the old and new rows of the
    touched groups with one more, and the output is on the driver."""
    g = np.random.default_rng(15)

    def events(ts_values):
        # integer-valued v, as in perfbench's window_agg: a SUM of
        # arbitrary doubles depends on the order its rows are added, so a
        # group's old row, recomputed, may not cancel the row emitted for it
        n = len(ts_values)
        return pd.DataFrame({"k": g.integers(0, 5_000, n).astype(np.int32),
                             "ts": np.asarray(ts_values, dtype=np.int32),
                             "v": g.integers(0, 1_000, n).astype(np.float64)})

    width, per_ts = 19, 2_000
    load = events(np.repeat(np.arange(width + 1), per_ts))
    batch = events(np.full(per_ts, width + 1))
    path = str(tmp_path / "batch.parquet")
    batch.to_parquet(path)
    win = TimeRangeWindow("ts", width=width)
    agg = IncrementalGroupAggregate(["k"], [("s", "sum", "v"), ("n", "count", None)])
    groups = agg.step(win.step(ZSet.from_df(spark.createDataFrame(load)), float(width))).collect_dict()

    def step():
        delta = ZSet.from_df(spark.read.schema("k int, ts int, v double").parquet(path))
        return agg.step(win.step(delta, float(width + 1))).collect_dict()

    out, jobs = count_jobs(spark, step)
    assert jobs <= 2
    live = pd.concat([load[load.ts >= 1], batch], ignore_index=True)
    want = aggregates.group_agg(ZSet.from_df(spark.createDataFrame(live)), ["k"], agg.aggs)
    assert ref.radd(groups, out) == want.collect_dict()


def test_restrict_probe_runs_one_stage(spark):
    """``ZSet.at`` of a partitioned Spark state at a 2-row local change
    reads its rows with one job of one stage: the collect's ``limit`` gets
    a single partition and shuffles nothing."""
    state = ZSet(spark.range(40_000, numPartitions=8).select(
        (F.col("id") % 5_000).cast("int").alias("k"), F.col("id").alias("id"), F.lit(1).cast("long").alias(W),
    ).localCheckpoint(eager=True))
    change = ZSet.from_rows(spark, [(7, 1), (11, -1)], "k int").materialize()
    assert change.rows is not None
    got, jobs, stages = count_jobs_and_stages(spark, lambda: state.at(["k"], change))
    assert (jobs, stages) == (1, 1)
    assert got.rows == {(k, i): 1 for i in range(40_000) for k in [i % 5_000] if k in (7, 11)}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", ["read", "overflow", "spark_change"])
def test_at_each_matches_reference(spark, monkeypatch, seed, mode):
    """``ZSet.at_each`` of local, checkpointed and known-empty values at
    random local changes with null keys equals the reference backend's
    ``restrict``, read with one job; when the read overflows or a change is
    in Spark, every value comes back as it is."""
    rnd = np.random.default_rng(seed)
    schema = "a int, b int"

    def rows(n):
        out: dict = {}
        for _ in range(n):
            r = tuple(None if x == 3 else int(x) for x in rnd.integers(0, 4, 2))
            out[r] = out.get(r, 0) + int(rnd.choice([-1, 1, 2]))
        return {r: w for r, w in out.items() if w}

    def checkpointed():
        # unconsolidated: the (NULL, NULL) row is ten rows of weight 1, so
        # a read of three such values at that row reads 30 rows
        raw = [r + (w,) for r, w in rows(8).items()] + [(None, None, 1)] * 10
        return ZSet(ZSet.from_rows(spark, raw, schema).df.localCheckpoint(eager=True))

    local = [ZSet.from_rows(spark, [r + (w,) for r, w in rows(6).items()], schema).materialize() for _ in range(2)]
    values = [local[0], checkpointed(), ZSet.empty(spark, schema), checkpointed(), local[1], checkpointed()]
    changes = [ZSet.local(spark, local[0].schema, {**rows(2), (None, None): 1}) for _ in range(2)]
    assert all(z.rows is not None for z in local + changes)
    if mode == "spark_change":
        changes[1] = ZSet(changes[1].df.localCheckpoint(eager=True))
    if mode == "overflow":
        monkeypatch.setattr(frame, "LOCAL_ROWS", 8)  # above the changes' at most 6 keys
    got, jobs = count_jobs(spark, lambda: ZSet.at_each(values, ["a", "b"], changes))
    if mode == "read":
        assert jobs == 1  # one read for the three checkpointed values
        assert all(z.rows is not None for z in got)
        want = RefZSetOps().restrict([v.collect_dict() for v in values], [c.collect_dict() for c in changes])
        assert [z.rows for z in got] == want
    else:
        assert all(g is v for g, v in zip(got, values))


@pytest.mark.parametrize("local_rows", [frame.LOCAL_ROWS, 3, 0], ids=["driver", "overflow", "spark"])
@pytest.mark.parametrize("right_side", ["local", "spark"])
def test_intersect_matches_null_rows(spark, monkeypatch, local_rows, right_side):
    """``INTERSECT`` matches a null to a null on every column, as DuckDB
    does: ``{(NULL), (1)} ∩ {(NULL), (2)} = {(NULL)}``, on the driver, with
    one side probed in Spark, with a probe that reads ``LOCAL_ROWS`` rows
    (``b``'s null row is three unconsolidated rows) and falls back to a
    Spark join, and with both sides in Spark."""
    monkeypatch.setattr(frame, "LOCAL_ROWS", local_rows)
    a = ZSet.from_rows(spark, [(None, 1), (1, 1)], "x int").materialize()
    b = ZSet.from_rows(spark, [(None, 1), (None, 1), (None, -1), (2, 1)], "x int")
    b = b.materialize() if right_side == "local" else ZSet(b.df.localCheckpoint(eager=True))
    if local_rows == 3 and right_side == "spark":
        assert a.rows is not None and b.at(["x"], a).rows is None
    assert zops.intersect_z(a, b).collect_dict() == {(None,): 1}
    assert zops.intersect_z(b, a).collect_dict() == {(None,): 1}


def test_driver_join_output_stays_below_local_rows(spark, monkeypatch):
    """No Z-set on the driver holds ``LOCAL_ROWS`` rows or more: at a 50-row
    threshold, the semi-naïve closure of a 45-edge graph, whose join
    outputs grow past 50 rows, keeps every local value below it and still
    equals a breadth-first search."""
    monkeypatch.setattr(frame, "LOCAL_ROWS", 50)
    sizes = []
    local = ZSet.local.__func__

    def recording(cls, spark, schema, rows):
        z = local(cls, spark, schema, rows)
        if z.rows is not None:
            sizes.append(len(z.rows))
        return z

    monkeypatch.setattr(ZSet, "local", classmethod(recording))
    edges = synth_data.random_digraph_edges(n_nodes=25, n_edges=45, seed=3)
    body = IncBody(SparkZSetOps(), base_fn=tc_base_fn, join_fn=tc_join_fn)
    closure, _ = semi_naive_fixpoint(SparkZSetOps(), body, edges_zset(spark, edges))
    assert sizes and max(sizes) < 50
    succ: dict = {}
    for h, t in edges:
        succ.setdefault(h, set()).add(t)
    want = set()
    for s in {h for h, _ in edges}:
        seen, todo = set(), [s]
        while todo:
            for t in succ.get(todo.pop(), ()):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        want |= {(s, t) for t in seen}
    assert closure.collect_dict() == {r: 1 for r in want}
