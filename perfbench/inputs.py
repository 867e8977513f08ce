"""Seeded input streams owned by the benchmark.

The program under test only ever sees the rows produced here. Every
change is a set of +1 inserts of fresh rows and -1 deletes of rows that
are live at that step, so each relation stays a set (no row is inserted
twice and no dead row is deleted).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

W = "__w"  # the Z-set weight column, as in repro.zset.frame


@dataclass
class ViewChurn:
    """Base tables plus one (orders, lineitem) change pair per step."""

    orders: pd.DataFrame
    lineitem: pd.DataFrame
    changes: list[tuple[pd.DataFrame, pd.DataFrame]]
    final_orders: pd.DataFrame
    final_lineitem: pd.DataFrame


class _LiveTable:
    """An append-only pool of rows with a live mask; picks live rows to delete."""

    def __init__(self, rows: pd.DataFrame, n_base: int):
        self.rows = rows
        self.live = np.zeros(len(rows), dtype=bool)
        self.live[:n_base] = True
        self.next = n_base

    def change(self, g: np.random.Generator, n_ins: int, n_del: int) -> pd.DataFrame:
        doomed = g.choice(np.flatnonzero(self.live), size=n_del, replace=False)
        self.live[doomed] = False
        fresh = np.arange(self.next, self.next + n_ins)
        self.live[fresh] = True
        self.next += n_ins
        ins = self.rows.iloc[fresh].assign(**{W: 1})
        dels = self.rows.iloc[np.sort(doomed)].assign(**{W: -1})
        return pd.concat([ins, dels], ignore_index=True)

    def snapshot(self) -> pd.DataFrame:
        return self.rows[self.live].reset_index(drop=True)


def view_churn(
    seed: int,
    sf: float,
    n_steps: int,
    lineitem_per_step: int = 1000,
    orders_per_step: int = 250,
    delete_share: float = 0.1,
) -> ViewChurn:
    """TPC-H-like orders/lineitem at scale factor ``sf`` and a churn stream.

    Inserted lineitems reference any order key issued so far, so new
    orders gain matching lines over later steps.
    """
    g = np.random.default_rng(seed)
    n_o, n_l = int(1_500_000 * sf), int(6_000_000 * sf)
    n_cust, n_part = int(150_000 * sf), int(200_000 * sf)
    o_del = round(orders_per_step * delete_share)
    l_del = round(lineitem_per_step * delete_share)
    o_ins, l_ins = orders_per_step - o_del, lineitem_per_step - l_del
    total_o, total_l = n_o + n_steps * o_ins, n_l + n_steps * l_ins

    orders = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, total_o + 1, dtype=np.int64),
            "o_custkey": g.integers(1, n_cust + 1, total_o),
            "o_totalprice": (g.random(total_o) * 500_000 + 1000).round(2),
        }
    )
    # line i of step s may reference any order issued up to step s
    issued = np.concatenate(
        [np.full(n_l, n_o), n_o + o_ins * np.repeat(np.arange(1, n_steps + 1), l_ins)]
    )
    lineitem = pd.DataFrame(
        {
            "l_id": np.arange(total_l, dtype=np.int64),
            "l_orderkey": (g.random(total_l) * issued).astype(np.int64) + 1,
            "l_partkey": g.integers(1, n_part + 1, total_l),
            "l_quantity": g.integers(1, 51, total_l).astype(np.float64),
        }
    )
    live_o, live_l = _LiveTable(orders, n_o), _LiveTable(lineitem, n_l)
    changes = [
        (live_o.change(g, o_ins, o_del), live_l.change(g, l_ins, l_del))
        for _ in range(n_steps)
    ]
    return ViewChurn(
        orders=orders.iloc[:n_o].assign(**{W: 1}),
        lineitem=lineitem.iloc[:n_l].assign(**{W: 1}),
        changes=changes,
        final_orders=live_o.snapshot(),
        final_lineitem=live_l.snapshot(),
    )


@dataclass
class TcChurn:
    """A base edge set plus one change per step, as ``(h, t, weight)`` rows."""

    edges: list[tuple[int, int]]
    changes: list[list[tuple[int, int, int]]]
    final: list[tuple[int, int]]


def tc_churn(
    seed: int,
    layers: int,
    width: int,
    fanout: int,
    n_steps: int,
    inserts: int = 3,
    deletes: int = 1,
) -> TcChurn:
    """A layered DAG and a stream of edge inserts and deletes.

    Layer ``l`` holds nodes ``l*width .. l*width+width-1``; every node above
    the last layer starts with ``fanout`` edges into the next layer.
    Inserted edges also join adjacent layers and were never live before, so
    the graph stays a DAG of depth ``layers-1``; deleted edges are live.
    """
    g = np.random.default_rng(seed)
    live = {
        (l * width + a, (l + 1) * width + int(b))
        for l in range(layers - 1)
        for a in range(width)
        for b in g.choice(width, size=fanout, replace=False)
    }
    base = sorted(live)
    unused = [
        (l * width + a, (l + 1) * width + b)
        for l in range(layers - 1)
        for a in range(width)
        for b in range(width)
        if (l * width + a, (l + 1) * width + b) not in live
    ]
    pool = [unused[i] for i in g.permutation(len(unused))]
    changes = []
    for _ in range(n_steps):
        ins = [pool.pop() for _ in range(inserts)]
        order = sorted(live)
        dels = [order[i] for i in g.choice(len(order), size=deletes, replace=False)]
        live.difference_update(dels)
        live.update(ins)
        changes.append([(h, t, 1) for h, t in ins] + [(h, t, -1) for h, t in dels])
    return TcChurn(edges=base, changes=changes, final=sorted(live))


def window_events(
    seed: int, n_batches: int, window: int, events: int, keys: int
) -> list[pd.DataFrame]:
    """Event batches for a ``[RANGE window]`` stream; batch ``b`` has watermark ``window-1+b``.

    Batch 0 is a backlog of one full window (timestamps ``0..window-1``);
    every later batch carries ``events`` rows stamped with its watermark,
    so each step both inserts and evicts one batch worth of events.
    """
    g = np.random.default_rng(seed)
    batches, next_id = [], 0
    for b in range(n_batches):
        ts = np.repeat(np.arange(window), events) if b == 0 else np.full(events, window - 1 + b)
        n = len(ts)
        batches.append(
            pd.DataFrame(
                {
                    "k": g.integers(0, keys, n).astype(np.int32),
                    "ts": ts.astype(np.int32),
                    "v": g.integers(0, 1000, n).astype(np.float64),
                    "id": np.arange(next_id, next_id + n, dtype=np.int64),
                }
            )
        )
        next_id += n
    return batches
