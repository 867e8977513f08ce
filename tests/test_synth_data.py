"""Synthetic data generators: determinism and structural invariants."""
from repro import synth_data


def test_lineitem_deterministic(spark):
    a = synth_data.lineitem(spark, sf=0.0005, seed=0).toPandas()
    b = synth_data.lineitem(spark, sf=0.0005, seed=0).toPandas()
    assert a.equals(b)
    assert len(a) == 3000


def test_orders_schema(spark):
    df = synth_data.orders(spark, sf=0.0005)
    assert {"o_orderkey", "o_custkey", "o_totalprice"} <= set(df.columns)
    assert df.count() == 750


def test_random_digraph_properties():
    e = synth_data.random_digraph_edges(n_nodes=20, n_edges=40, seed=1)
    assert len(e) == 40 == len(set(e))
    assert all(h != t for h, t in e)
    assert e == synth_data.random_digraph_edges(n_nodes=20, n_edges=40, seed=1)


def test_layered_dag_properties():
    e = synth_data.layered_dag_edges(layers=5, width=3, fanout=2, seed=2)
    assert all(t // 3 == h // 3 + 1 for h, t in e)  # edges go one layer down
    assert len(set(e)) == len(e)


def test_edge_change_stream_set_invariant():
    edges = synth_data.random_digraph_edges(n_nodes=30, n_edges=60, seed=3)
    initial, deltas = synth_data.edge_change_stream(
        edges, n_steps=5, inserts_per_step=4, deletes_per_step=2, seed=4
    )
    live = {e: 1 for e in initial}
    for d in deltas:
        for h, t, w in d:
            live[(h, t)] = live.get((h, t), 0) + w
            assert live[(h, t)] in (0, 1)  # never multiset, never negative
        live = {k: v for k, v in live.items() if v}
    assert len(live) == len(initial) + 5 * 4 - 5 * 2


def test_edge_change_stream_insert_only():
    edges = synth_data.random_digraph_edges(n_nodes=30, n_edges=50, seed=5)
    initial, deltas = synth_data.edge_change_stream(
        edges, n_steps=5, inserts_per_step=3, seed=6
    )
    assert len(initial) == 50 - 15
    assert all(w == 1 for d in deltas for (_, _, w) in d)
    covered = set(initial) | {(h, t) for d in deltas for (h, t, _) in d}
    assert covered == set(edges)
