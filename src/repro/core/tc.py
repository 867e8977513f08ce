"""Transitive closure as a DBSP circuit (the paper's §5.1/§6.1 example).

The Datalog program::

    R(x, y) :- E(x, y).
    R(x, y) :- E(x, z), R(z, y).

over the edge relation ``E(h, t)``, producing ``R(s, t)``. These are the
Spark Z-set payload functions consumed by the recursion drivers
(:func:`repro.core.recursion.semi_naive_fixpoint`,
:class:`repro.core.nested.IncrementalRecursive`) and the experiment jobs.
"""
from __future__ import annotations

from repro.zset import ops as zops
from repro.zset.frame import ZSet

E_SCHEMA = "h int, t int"
R_SCHEMA = "s int, t int"

TC_SQL = """
WITH RECURSIVE r(s, t) AS (
  SELECT h AS s, t FROM e
  UNION
  SELECT e.h AS s, r.t FROM e JOIN r ON e.t = r.s
)
SELECT s, t FROM r
"""


def tc_base_fn(e: ZSet) -> ZSet:
    """R(x,y) :- E(x,y): rename E(h,t) to R(s,t). Linear."""
    return zops.map_z(e, {"s": "h", "t": "t"})


def tc_join_fn(e: ZSet, r: ZSet) -> ZSet:
    """R(x,y) :- E(x,z), R(z,y): join on E.t = R.s, project (E.h, R.t)."""
    j = zops.join_z(e, r, on=[("t", "s")])
    return zops.map_z(j, {"s": "h", "t": "t_r"})


def tc_body(e: ZSet):
    """The naïve-evaluation loop body: x ↦ distinct(base(E) + π(E ⋈ x))."""
    return lambda x: tc_base_fn(e).add(tc_join_fn(e, x)).distinct()


def edges_zset(spark, edges) -> ZSet:
    """Edge pairs -> a materialized set Z-set with the E schema."""
    return ZSet.from_rows(
        spark, [(h, t, 1) for h, t in edges], E_SCHEMA
    ).materialize()
