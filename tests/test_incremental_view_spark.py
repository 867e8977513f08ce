"""T5 core — Algorithm 4.8 end-to-end on Spark: incremental view == view.

For several queries (including the paper's §4.4 example) and change
streams with insertions *and deletions*, at every step the integrated
output of the compiled incremental circuit must equal (a) the full
recomputation of the lifted circuit and (b) DuckDB on the accumulated
inputs.
"""
import pytest

from repro.oracle import assert_equivalent
from repro.sql import translate as t
from repro.sql.compile import IncrementalView, evaluate
from repro.zset.frame import ZSet

from helpers import make_rng
from test_sql_translate import paper_44_query

T1_SCHEMA = "id int, a int, x int"
T2_SCHEMA = "id int, s int, y int"


def gen_change_stream(rnd, n_steps, schema_gen):
    """Per-step (inserts, deletes) keeping the relation a true *set*.

    Inserts never duplicate a live row (re-inserting a previously deleted
    row is allowed); deletes are sampled from the live rows. Small id
    domain so the join in the view under test finds matches.
    """
    live: list = []
    steps = []
    for _ in range(n_steps):
        ins = []
        for _ in range(rnd.randint(1, 4)):
            for _attempt in range(20):
                row = schema_gen(rnd.randint(0, 6), rnd)
                if row not in live and row not in ins:
                    ins.append(row)
                    break
        dels = []
        if live and rnd.random() < 0.8:
            k = rnd.randint(1, min(2, len(live)))
            for _ in range(k):
                dels.append(live.pop(rnd.randrange(len(live))))
        live.extend(ins)
        steps.append((ins, dels))
    return steps


def t1_row(i, rnd):
    return (i, rnd.randint(0, 5), rnd.randint(0, 4))


def t2_row(i, rnd):
    return (i, rnd.randint(0, 9), rnd.randint(0, 4))


def delta_zset(spark, ins, dels, schema):
    rows = [r + (1,) for r in ins] + [r + (-1,) for r in dels]
    if not rows:
        return ZSet.empty(spark, schema)
    return ZSet.from_rows(spark, rows, schema)


def drive(spark, ast, n_steps, seed):
    """Run the incremental view and check it against full recompute."""
    rnd = make_rng(seed)
    s1 = gen_change_stream(rnd, n_steps, t1_row)
    s2 = gen_change_stream(rnd, n_steps, t2_row)
    iv = IncrementalView(ast)
    acc_out = acc_t1 = acc_t2 = None
    for (i1, d1), (i2, d2) in zip(s1, s2):
        z1 = delta_zset(spark, i1, d1, T1_SCHEMA)
        z2 = delta_zset(spark, i2, d2, T2_SCHEMA)
        out = iv.step({"t1": z1, "t2": z2})
        acc_out = out if acc_out is None else acc_out.add(out).materialize()
        acc_t1 = z1 if acc_t1 is None else acc_t1.add(z1).materialize()
        acc_t2 = z2 if acc_t2 is None else acc_t2.add(z2).materialize()
        full = evaluate(iv.ast, {"t1": acc_t1, "t2": acc_t2})
        assert acc_out.equals(full)
    return acc_out, acc_t1, acc_t2


@pytest.mark.parametrize("seed", range(3))
def test_paper_44_example_incremental(spark, seed):
    """§4.4's query, maintained under inserts+deletes, checked vs DuckDB."""
    acc_out, acc_t1, acc_t2 = drive(spark, paper_44_query(), n_steps=4, seed=seed)
    assert_equivalent(
        acc_out.to_set_df(),
        "SELECT DISTINCT t1.x AS x, t2.y AS y FROM t1 JOIN t2 ON t1.id = t2.id "
        "WHERE t1.a > 2 AND t2.s > 5",
        t1=acc_t1.to_set_df(), t2=acc_t2.to_set_df(),
    )


@pytest.mark.parametrize("seed", range(2))
def test_union_view_incremental(spark, seed):
    ast = t.t_union(
        t.t_project(t.Rel("t1"), {"v": "x"}),
        t.t_project(t.Rel("t2"), {"v": "y"}),
    )
    acc_out, acc_t1, acc_t2 = drive(spark, ast, n_steps=4, seed=seed + 50)
    assert_equivalent(
        acc_out.to_set_df(),
        "SELECT x AS v FROM t1 UNION SELECT y AS v FROM t2",
        t1=acc_t1.to_set_df(), t2=acc_t2.to_set_df(),
    )


@pytest.mark.parametrize("seed", range(2))
def test_difference_view_incremental(spark, seed):
    """EXCEPT maintained incrementally — exercises IncrementalDistinct with
    negative weights flowing through the circuit."""
    ast = t.t_difference(
        t.t_project(t.Rel("t1"), {"v": "x"}),
        t.t_project(t.Rel("t2"), {"v": "y"}),
    )
    acc_out, acc_t1, acc_t2 = drive(spark, ast, n_steps=4, seed=seed + 100)
    assert_equivalent(
        acc_out.to_set_df(),
        "SELECT DISTINCT x AS v FROM t1 EXCEPT SELECT DISTINCT y AS v FROM t2",
        t1=acc_t1.to_set_df(), t2=acc_t2.to_set_df(),
    )


def test_view_change_is_set_delta(spark):
    """Every per-step output is a legal set delta (weights in {-1, +1})."""
    iv = IncrementalView(paper_44_query())
    rnd = make_rng(9)
    acc = None
    for step in range(3):
        z1 = delta_zset(spark, [(step, 5, step), (step + 1, 5, step)], [], T1_SCHEMA)
        z2 = delta_zset(spark, [(step, 9, step)], [], T2_SCHEMA)
        out = iv.step({"t1": z1, "t2": z2})
        acc = out if acc is None else acc.add(out)
        assert acc.consolidate().isset()


def test_state_sizes_reported(spark):
    iv = IncrementalView(paper_44_query())
    iv.step({
        "t1": delta_zset(spark, [(1, 5, 1)], [], T1_SCHEMA),
        "t2": delta_zset(spark, [(1, 9, 2)], [], T2_SCHEMA),
    })
    sizes = iv.state_sizes()
    assert any(k.startswith("join:") for k in sizes)
    assert any(k.startswith("distinct:") for k in sizes)
    assert sum(sizes.values()) > 0


def test_missing_input_raises(spark):
    iv = IncrementalView(paper_44_query())
    with pytest.raises(KeyError):
        iv.step({"t1": delta_zset(spark, [(1, 5, 1)], [], T1_SCHEMA)})


@pytest.mark.parametrize(
    "test",
    [test_paper_44_example_incremental, test_union_view_incremental, test_difference_view_incremental],
    ids=["paper_44", "union", "difference"],
)
def test_views_on_spark_path(spark, spark_path, test):
    """The same streams with no Z-set on the driver: the Spark path alone
    keeps the view stream-equal to ``evaluate`` and to DuckDB."""
    test(spark, 0)
