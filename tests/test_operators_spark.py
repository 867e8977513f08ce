"""Spark-backed circuit nodes vs by-definition semantics + §7.2/§7.4 aggregates."""
import pytest

from repro.core import stream as st
from repro.core.backend import SparkZSetOps
from repro.core.circuit import (
    BruteIncremental,
    IncrementalDistinct,
    IncrementalJoin,
)
from repro.core.operators import IncrementalGroupAggregate, incremental_join_node
from repro.zset import aggregates, ref
from repro.zset.frame import ZSet

from helpers import make_rng, rand_zset1, rand_zset2, ref_join_ac, ref_to_spark

SOPS = SparkZSetOps()
S1 = "k int"
S2 = "a int, b int"


def to_ref_stream(zs):
    return [z.collect_dict() for z in zs]


@pytest.mark.parametrize("seed", range(3))
def test_incremental_join_spark_vs_definition(spark, seed):
    """Theorem 3.4 executed by Catalyst == by-definition D∘↑⋈∘(I,I)."""
    from repro.core.backend import RefZSetOps

    rnd = make_rng(seed)
    n = 4
    a = [rand_zset2(rnd) for _ in range(n)]
    b = [rand_zset2(rnd) for _ in range(n)]
    node = incremental_join_node(on=[("b", "a")], project={"x": "a", "y": "b_r"})
    za = [ref_to_spark(spark, x, S2) for x in a]
    zb = [ref_to_spark(spark, x, S2) for x in b]
    got = to_ref_stream([node.step(x, y) for x, y in zip(za, zb)])
    jfn = lambda x, y: ref.rjoin(  # noqa: E731
        x, y, key_a=lambda r: r[1], key_b=lambda r: r[0],
        out=lambda ra, rb: (ra[0], rb[1]),
    )
    spec = st.incremental(RefZSetOps(), st.lift(jfn))(a, b)
    assert got == spec


@pytest.mark.parametrize("seed", range(3))
def test_incremental_distinct_spark_vs_definition(spark, seed):
    from repro.core.backend import RefZSetOps

    rnd = make_rng(seed)
    s = [rand_zset1(rnd) for _ in range(5)]
    node = IncrementalDistinct(SOPS)
    got = to_ref_stream([node.step(ref_to_spark(spark, x, S1)) for x in s])
    spec = st.incremental(RefZSetOps(), st.lift(ref.rdistinct))(s)
    assert got == spec


@pytest.mark.parametrize("seed", range(2))
def test_brute_incremental_min_spark(spark, seed):
    """§7.2: (↑a_MIN)^Δ by brute force — correct under deletions."""
    rnd = make_rng(seed)

    def min_singleton(z: ZSet) -> ZSet:
        m = aggregates.agg_min(z, "k")
        if m is None:
            return ZSet.empty(spark, "m int")
        return ZSet.from_rows(spark, [(m, 1)], "m int")

    node = BruteIncremental(SOPS, min_singleton)
    # deltas that delete the running minimum
    deltas = [
        {(2,): 1, (5,): 1},
        {(1,): 1},
        {(1,): -1},  # deletes the min: correct answer needs the full set
        {(7,): 1, (2,): -1},
    ]
    acc = None
    cur: dict = {}
    for d in deltas:
        out = node.step(ref_to_spark(spark, d, S1))
        acc = out if acc is None else acc.add(out).materialize()
        cur = ref.radd(cur, d)
        want = ref.rmin(cur)
        got = acc.consolidate().collect_dict()
        assert got == ({(want,): 1} if want is not None else {})


@pytest.mark.parametrize("seed", range(3))
def test_incremental_group_aggregate_vs_brute(spark, seed):
    """§7.4: touched-groups-only aggregation == brute-force D∘agg∘I."""
    rnd = make_rng(seed)
    keys = ["a"]
    aggs = [("cnt", "count", None), ("s", "sum", "b")]
    inc = IncrementalGroupAggregate(keys, aggs)
    brute = BruteIncremental(SOPS, lambda z: aggregates.group_agg(z, keys, aggs))
    acc_inc = acc_brute = None
    for _ in range(4):
        d = rand_zset2(rnd)
        zd = ref_to_spark(spark, d, S2)
        oi, ob = inc.step(zd), brute.step(zd)
        acc_inc = oi if acc_inc is None else acc_inc.add(oi).materialize()
        acc_brute = ob if acc_brute is None else acc_brute.add(ob).materialize()
        assert acc_inc.equals(acc_brute)


def test_incremental_group_aggregate_untouched_groups_silent(spark):
    """A change to group 1 must emit nothing for group 2."""
    inc = IncrementalGroupAggregate(["a"], [("cnt", "count", None)])
    inc.step(ZSet.from_rows(spark, [(1, 10, 1), (2, 20, 1)], S2))
    out = inc.step(ZSet.from_rows(spark, [(1, 11, 1)], S2))
    touched = {r["a"] for r in out.consolidate().df.collect()}
    assert touched == {1}


def test_group_aggregate_retract_and_assert(spark):
    """Changing a group emits a retraction of the old row + the new row."""
    inc = IncrementalGroupAggregate(["a"], [("cnt", "count", None)])
    inc.step(ZSet.from_rows(spark, [(1, 10, 1)], S2))
    out = inc.step(ZSet.from_rows(spark, [(1, 11, 1)], S2)).collect_dict()
    assert out == {(1, 1): -1, (1, 2): 1}


def test_group_aggregate_group_vanishes(spark):
    """Deleting a group's last row retracts its output row entirely."""
    inc = IncrementalGroupAggregate(["a"], [("cnt", "count", None)])
    inc.step(ZSet.from_rows(spark, [(1, 10, 1)], S2))
    out = inc.step(ZSet.from_rows(spark, [(1, 10, -1)], S2)).collect_dict()
    assert out == {(1, 1): -1}


def test_group_aggregate_null_key(spark):
    """A null group key is one group, as in SQL: its old output row is
    retracted when the group changes. The integrated output equals the
    aggregate recomputed over the integrated input at every step."""
    keys, aggs, schema = ["k"], [("s", "sum", "v"), ("n", "count", None)], "k int, v double"
    inc = IncrementalGroupAggregate(keys, aggs)
    acc, live = {}, {}
    for d in ([(None, 1.0, 1), (1, 2.0, 1)], [(None, 3.0, 1)], [(None, 1.0, -1)]):
        acc = ref.radd(acc, inc.step(ZSet.from_rows(spark, d, schema)).collect_dict())
        live = ref.radd(live, {r[:-1]: r[-1] for r in d})
        whole = ZSet.from_rows(spark, [r + (w,) for r, w in live.items()], schema)
        assert acc == aggregates.group_agg(whole, keys, aggs).collect_dict()
    assert acc == {(None, 3.0, 1): 1, (1, 2.0, 1): 1}


#: ``(k, v, weight)`` changes: a null key, a group that vanishes, an empty
#: change, and group 4, whose count is 0 while it is still present
AGG_STEPS = [
    [(None, 1.0, 1), (1, 2.0, 1), (2, 5.0, 1), (3, 4.0, 1)],
    [(1, 3.0, 1), (2, 5.0, -1)],
    [],
    [(None, 7.0, 1), (3, 4.0, -1), (3, 6.0, 1), (1, 2.0, -1)],
    [(4, 1.0, 1), (4, 2.0, -1)],
    [(4, 2.0, 1), (None, 1.0, -1), (5, 0.5, 1)],
]


@pytest.mark.parametrize("path", ["default", "spark_path"])
@pytest.mark.parametrize(
    "aggs, steps",
    [
        ([("n", "count", None), ("s", "sum", "v"), ("lo", "min", "v"), ("hi", "max", "v")], AGG_STEPS),
        # AVG of a group whose count is 0 divides by zero, so it stops
        # before group 4 appears
        ([("n", "count", None), ("m", "avg", "v")], AGG_STEPS[:4]),
    ],
    ids=["count_sum_min_max", "avg"],
)
def test_group_aggregate_equals_recomputation(spark, request, path, aggs, steps):
    """After every step the integrated output equals ``group_agg`` over the
    integrated input, whether the step's plan is read to the driver or
    stays in Spark."""
    if path == "spark_path":
        request.getfixturevalue("spark_path")
    keys, schema = ["k"], "k int, v double"
    inc = IncrementalGroupAggregate(keys, aggs)
    acc, live = {}, {}
    for d in steps:
        acc = ref.radd(acc, inc.step(ZSet.from_rows(spark, d, schema)).collect_dict())
        live = ref.radd(live, {r[:-1]: r[-1] for r in d})
        whole = ZSet.from_rows(spark, [r + (w,) for r, w in live.items()], schema)
        assert acc == aggregates.group_agg(whole, keys, aggs).collect_dict()
    assert {r[0] for r in acc} == {r[0] for r in live}


def test_count_sum_linear_means_free_incremental(spark):
    """§7.2: for linear aggregates the change of the output needs only the
    change of the input — computed directly on deltas."""
    d1 = ZSet.from_rows(spark, [(1, 1), (2, 1)], S1)
    d2 = ZSet.from_rows(spark, [(3, 1), (1, -1)], S1)
    # count over the integral == sum of counts over deltas
    assert aggregates.agg_count(d1) + aggregates.agg_count(d2) == 2
    assert aggregates.agg_sum(d1, "k") + aggregates.agg_sum(d2, "k") == 5.0


@pytest.mark.parametrize(
    "test",
    [test_incremental_join_spark_vs_definition, test_incremental_distinct_spark_vs_definition],
    ids=["join", "distinct"],
)
def test_join_and_distinct_on_spark_path(spark, spark_path, test):
    """Theorem 3.4 and Proposition 4.7 with no Z-set on the driver."""
    test(spark, 0)
