"""Spark ZSet operators vs the reference implementation and DuckDB."""
import pytest

from repro.oracle import assert_equivalent
from repro.zset import aggregates, frame, ops, ref
from repro.zset.frame import ZSet

from helpers import make_rng, rand_set2, rand_zset1, rand_zset2, ref_to_spark

SEEDS = list(range(6))
S1 = "k int"
S2 = "a int, b int"


@pytest.mark.parametrize("seed", SEEDS)
def test_add_neg_consolidate(spark, seed):
    rnd = make_rng(seed)
    a, b = rand_zset1(rnd), rand_zset1(rnd)
    za, zb = ref_to_spark(spark, a, S1), ref_to_spark(spark, b, S1)
    assert za.add(zb).collect_dict() == ref.radd(a, b)
    assert za.neg().collect_dict() == ref.rneg(a)
    assert za.sub(zb).collect_dict() == ref.rsub(a, b)
    assert za.scale(3).collect_dict() == ref.rscale(a, 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_distinct_isset_ispositive(spark, seed):
    rnd = make_rng(seed)
    a = rand_zset1(rnd)
    za = ref_to_spark(spark, a, S1)
    assert za.distinct().collect_dict() == ref.rdistinct(a)
    assert za.isset() == ref.risset(a)
    assert za.ispositive() == ref.rispositive(a)


def test_zero_equals_empty(spark):
    z = ZSet.empty(spark, S1)
    assert z.is_empty()
    a = ZSet.from_rows(spark, [(1, 2), (1, -2)], S1)
    assert a.is_empty()  # weights cancel
    assert a.equals(z)
    # a checkpointed value is read as it is: materialize consolidated it
    assert a.materialize().is_empty()
    dup = ZSet.from_rows(spark, [(1, 1), (1, 1)], S1).materialize()
    assert not dup.is_empty()
    assert dup.support_count() == 1


def test_weight_of(spark):
    a = ZSet.from_rows(spark, [(1, 2), (2, -3), (None, 4)], S1)
    assert a.weight_of(k=1) == 2
    assert a.weight_of(k=2) == -3
    assert a.weight_of(k=99) == 0
    assert a.weight_of(k=None) == 4  # a null matches a null, as rows of a Z-set do


def test_to_bag_expands_multiplicities(spark):
    a = ZSet.from_rows(spark, [(1, 2), (2, 1)], S1)
    rows = sorted(r["k"] for r in a.to_bag_df().collect())
    assert rows == [1, 1, 2]


def test_to_set_df_drops_weights(spark):
    a = ZSet.from_rows(spark, [(1, 3), (2, -1)], S1)
    rows = sorted(r["k"] for r in a.to_set_df().collect())
    assert rows == [1]


@pytest.mark.parametrize("seed", SEEDS)
def test_join_matches_ref(spark, seed):
    rnd = make_rng(seed)
    a, b = rand_zset2(rnd), rand_zset2(rnd)
    za = ref_to_spark(spark, a, S2)
    zb = ref_to_spark(spark, {(r[0], r[1]): w for r, w in b.items()}, "b int, c int")
    j = ops.join_z(za, zb, on=[("b", "b")])
    # output columns: a, b, b_r (suffixed right key), c — the *pure* join
    want = ref.rjoin(
        a, b, key_a=lambda r: r[1], key_b=lambda r: r[0],
        out=lambda ra, rb: (ra[0], ra[1], rb[0], rb[1]),
    )
    assert j.collect_dict() == want


@pytest.mark.parametrize("seed", SEEDS)
def test_map_filter_match_ref(spark, seed):
    rnd = make_rng(seed)
    a = rand_zset2(rnd)
    za = ref_to_spark(spark, a, S2)
    got = ops.map_z(za, {"m": "a % 2", "b": "b"}).collect_dict()
    assert got == ref.rmap(a, lambda r: (r[0] % 2, r[1]))
    got = ops.filter_z(za, "a > 1").collect_dict()
    assert got == ref.rfilter(a, lambda r: r[0] > 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_set_ops_vs_duckdb(spark, seed):
    """UNION / EXCEPT / INTERSECT on sets against SQL semantics."""
    rnd = make_rng(seed)
    a, b = rand_set2(rnd, entries=8), rand_set2(rnd, entries=8)
    za, zb = ref_to_spark(spark, a, S2), ref_to_spark(spark, b, S2)
    pa, pb = za.to_set_df().toPandas(), zb.to_set_df().toPandas()
    if len(pa) == 0 or len(pb) == 0:
        pytest.skip("degenerate empty input")
    assert_equivalent(
        ops.union_z(za, zb).to_set_df(),
        "SELECT a, b FROM ta UNION SELECT a, b FROM tb", ta=pa, tb=pb,
    )
    assert_equivalent(
        ops.difference_z(za, zb).to_set_df(),
        "SELECT a, b FROM ta EXCEPT SELECT a, b FROM tb", ta=pa, tb=pb,
    )
    assert_equivalent(
        ops.intersect_z(za, zb).to_set_df(),
        "SELECT a, b FROM ta INTERSECT SELECT a, b FROM tb", ta=pa, tb=pb,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_antijoin_vs_duckdb(spark, seed):
    """§7.5 antijoin circuit == NOT EXISTS."""
    rnd = make_rng(seed)
    a = rand_set2(rnd, entries=8)
    b = {(r[0],): 1 for r in rand_set2(rnd, entries=5)}
    if not a or not b:
        pytest.skip("degenerate empty input")
    za = ref_to_spark(spark, a, S2)
    zb = ref_to_spark(spark, b, "v int")
    got = ops.antijoin_z(za, zb, on=[("a", "v")])
    assert_equivalent(
        got.to_set_df(),
        "SELECT a, b FROM ta WHERE NOT EXISTS (SELECT 1 FROM tb WHERE tb.v = ta.a)",
        ta=za.to_set_df().toPandas(), tb=zb.to_set_df().toPandas(),
    )


def test_union_all_is_addition(spark):
    """§7.1: UNION ALL is plain Z-set addition (bags preserved)."""
    a = ZSet.from_rows(spark, [(1, 1), (2, 1)], S1)
    b = ZSet.from_rows(spark, [(1, 1)], S1)
    assert ops.union_all_z(a, b).collect_dict() == {(1,): 2, (2,): 1}


def test_flatmap(spark):
    """§7.4 flatmap: explode an array, weights replicate."""
    df = spark.createDataFrame([(1, [10, 20]), (2, [30])], "k int, xs array<int>")
    z = ZSet.from_df(df).scale(2)
    out = ops.flatmap_z(z, "xs", "x").collect_dict()
    assert out == {(1, 10): 2, (1, 20): 2, (2, 30): 2}


@pytest.mark.parametrize("seed", SEEDS)
def test_h_function_spark_vs_ref(spark, monkeypatch, seed):
    """SparkZSetOps.h == reference H (Prop 4.7), both on the driver and in
    Spark (``LOCAL_ROWS`` 0), with a null row in both arguments."""
    from repro.core.backend import SparkZSetOps

    rnd = make_rng(seed)
    i, d = rand_zset1(rnd), rand_zset1(rnd)
    i[(None,)], d[(None,)] = rnd.choice([-2, -1, 1, 2]), rnd.choice([-2, -1, 1, 2])
    for local_rows in (frame.LOCAL_ROWS, 0):
        monkeypatch.setattr(frame, "LOCAL_ROWS", local_rows)
        zi, zd = (ZSet.from_rows(spark, [r + (w,) for r, w in z.items()], S1) for z in (i, d))
        assert SparkZSetOps().h(zi, zd).collect_dict() == ref.rh(i, d)


@pytest.mark.parametrize("seed", SEEDS)
def test_aggregates_vs_ref_and_duckdb(spark, seed):
    rnd = make_rng(seed)
    a = {r: abs(w) for r, w in rand_zset1(rnd).items()}
    if not a:
        pytest.skip("degenerate empty input")
    za = ref_to_spark(spark, a, S1)
    assert aggregates.agg_count(za) == ref.rcount(a)
    assert aggregates.agg_sum(za, "k") == ref.rsum(a)
    assert aggregates.agg_min(za, "k") == ref.rmin(a)
    bag = za.to_bag_df().toPandas()
    assert_equivalent(
        aggregates.count_singleton(za, "cnt").df.drop("__w"),
        "SELECT count(*) AS cnt FROM t", t=bag,
    )
    assert_equivalent(
        aggregates.sum_singleton(za, "k", "total").df.drop("__w").selectExpr("cast(total as double) as total"),
        "SELECT cast(sum(k) AS double) AS total FROM t", t=bag,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_group_agg_vs_duckdb(spark, seed):
    rnd = make_rng(seed)
    rows = [(rnd.randint(0, 3), rnd.randint(0, 9)) for _ in range(12)]
    z = ZSet.from_rows(spark, [r + (1,) for r in rows], S2)
    out = aggregates.group_agg(
        z, ["a"], [("cnt", "count", None), ("s", "sum", "b"), ("mn", "min", "b")]
    )
    import pandas as pd

    bag = pd.DataFrame(rows, columns=["a", "b"])
    assert_equivalent(
        out.df.drop("__w").selectExpr("a", "cnt", "cast(s as double) as s", "mn"),
        "SELECT a, count(*) AS cnt, cast(sum(b) AS double) AS s, min(b) AS mn "
        "FROM t GROUP BY a", t=bag,
    )
