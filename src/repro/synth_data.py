"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01.
Generators are deterministic in ``seed`` so the DuckDB oracle sees
identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


# --------------------------------------------------------------------- #
# DBSP-reproduction extensions: graphs and change streams
# --------------------------------------------------------------------- #
def random_digraph_edges(
    *, n_nodes: int, n_edges: int, seed: int = 7
) -> list[tuple[int, int]]:
    """A random simple digraph as distinct (head, tail) edge pairs.

    Used by the recursion experiments (T6/T7); returned as plain tuples so
    both the Spark and the reference backends consume the same data.
    """
    g = _rng(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < n_edges:
        need = n_edges - len(edges)
        h = g.integers(0, n_nodes, need * 2)
        t = g.integers(0, n_nodes, need * 2)
        for a, b in zip(h, t):
            if a != b:
                edges.add((int(a), int(b)))
            if len(edges) >= n_edges:
                break
    return sorted(edges)


def layered_dag_edges(
    *, layers: int, width: int, fanout: int = 2, seed: int = 8
) -> list[tuple[int, int]]:
    """A layered DAG with controlled transitive-closure depth.

    Node ``l*width + i`` sits in layer ``l``; each node gets ``fanout``
    edges into the next layer, so the TC fixpoint takes ~``layers``
    semi-naïve iterations — handy for per-iteration work tables (T6).
    """
    g = _rng(seed)
    edges: set[tuple[int, int]] = set()
    for layer in range(layers - 1):
        for i in range(width):
            src = layer * width + i
            for dst_i in g.integers(0, width, fanout):
                edges.add((src, (layer + 1) * width + int(dst_i)))
    return sorted(edges)


def edge_change_stream(
    edges: list[tuple[int, int]],
    *,
    n_steps: int,
    inserts_per_step: int,
    deletes_per_step: int = 0,
    seed: int = 9,
) -> tuple[list[tuple[int, int]], list[list[tuple[int, int, int]]]]:
    """Split an edge set into an initial snapshot plus insert/delete deltas.

    Returns ``(initial_edges, deltas)`` where each delta is a list of
    ``(head, tail, weight)`` with weight +1 (insert) or -1 (delete of a
    previously live edge). The live edge set stays a *set* throughout —
    the invariant relational DBSP circuits assume (§4).
    """
    g = _rng(seed)
    total_inserts = n_steps * inserts_per_step
    if total_inserts > len(edges):
        raise ValueError("not enough edges for the requested insert stream")
    initial = edges[: len(edges) - total_inserts]
    pending = list(edges[len(edges) - total_inserts:])
    perm = g.permutation(len(pending))
    pending = [pending[i] for i in perm]
    live = list(initial)
    deltas: list[list[tuple[int, int, int]]] = []
    pos = 0
    for _ in range(n_steps):
        delta: list[tuple[int, int, int]] = []
        ins = pending[pos: pos + inserts_per_step]
        pos += inserts_per_step
        delta.extend((h, t, 1) for h, t in ins)
        if deletes_per_step and live:
            idx = g.choice(len(live), size=min(deletes_per_step, len(live)), replace=False)
            doomed = [live[i] for i in sorted(idx, reverse=True)]
            for i in sorted(idx, reverse=True):
                live.pop(i)
            delta.extend((h, t, -1) for h, t in doomed)
        live.extend(ins)
        deltas.append(delta)
    return initial, deltas
