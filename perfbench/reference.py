"""Independent references the benchmark checks every step against.

``view_churn`` is checked with DuckDB over the live tables, ``tc_churn``
with a breadth-first closure in Python and ``window_agg`` with a pandas
``groupby`` over the live window; none shares code with the circuits
under test.
"""
from __future__ import annotations

import math
from collections import defaultdict

import duckdb
import pandas as pd

from inputs import W

VIEW_SQL = """
SELECT DISTINCT o_custkey AS c, l_partkey AS p
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
WHERE o_totalprice > 100000 AND l_quantity > 25
"""


class ViewReference:
    """Live orders/lineitem in DuckDB; yields the expected view change per step."""

    def __init__(self, orders: pd.DataFrame, lineitem: pd.DataFrame):
        self.db = duckdb.connect()
        for name, df in (("orders", orders), ("lineitem", lineitem)):
            self.db.register("src", df.drop(columns=W))
            self.db.execute(f"CREATE TABLE {name} AS SELECT * FROM src")
            self.db.unregister("src")
        self.view: set[tuple] = set()

    def _apply(self, name: str, key: str, change: pd.DataFrame) -> None:
        self.db.register("chg", change)
        self.db.execute(
            f"DELETE FROM {name} WHERE {key} IN (SELECT {key} FROM chg WHERE {W} < 0)"
        )
        cols = ", ".join(c for c in change.columns if c != W)
        self.db.execute(f"INSERT INTO {name} SELECT {cols} FROM chg WHERE {W} > 0")
        self.db.unregister("chg")

    def step(self, orders_change=None, lineitem_change=None) -> dict[tuple, int]:
        """Apply one change pair (or none, for the initial load) and diff the view."""
        if orders_change is not None:
            self._apply("orders", "o_orderkey", orders_change)
            self._apply("lineitem", "l_id", lineitem_change)
        new = set(self.db.execute(VIEW_SQL).fetchall())
        delta = set_delta(self.view, new)
        self.view = new
        return delta

    def close(self) -> None:
        self.db.close()


def set_delta(old: set, new: set) -> dict[tuple, int]:
    """The Z-set change that turns set ``old`` into set ``new``."""
    delta = {r: 1 for r in new - old}
    delta.update({r: -1 for r in old - new})
    return delta


def closure(edges) -> set[tuple[int, int]]:
    """Transitive closure of an edge set: every (s, t) with a path s -> t."""
    succ = defaultdict(list)
    for h, t in edges:
        succ[h].append(t)
    out = set()
    for s in list(succ):
        seen, todo = set(), list(succ[s])
        while todo:
            n = todo.pop()
            if n not in seen:
                seen.add(n)
                todo.extend(succ.get(n, ()))
        out.update((s, t) for t in seen)
    return out


class TcReference:
    """The live edge set; yields the expected closure change per step."""

    def __init__(self, edges):
        self.edges = set(edges)
        self.closure: set[tuple[int, int]] = set()

    def step(self, change=()) -> dict[tuple, int]:
        """Apply one change of ``(h, t, weight)`` rows (none for the load) and diff the closure."""
        for h, t, w in change:
            (self.edges.add if w > 0 else self.edges.discard)((h, t))
        new = closure(self.edges)
        delta = set_delta(self.closure, new)
        self.closure = new
        return delta


def window_groups(live: pd.DataFrame) -> dict[int, tuple[float, int]]:
    """``SELECT k, SUM(v), COUNT(*) GROUP BY k`` over the live window."""
    g = live.groupby("k")["v"].agg(["sum", "count"])
    return {int(k): (float(s), int(n)) for k, s, n in g.itertuples()}


def groups_equal(got: dict, want: dict) -> bool:
    """Per-key (sum, count) equality with a relative float tolerance for SUM."""
    if got.keys() != want.keys():
        return False
    return all(
        got[k][1] == want[k][1] and math.isclose(got[k][0], want[k][0], rel_tol=1e-9, abs_tol=1e-6)
        for k in want
    )
