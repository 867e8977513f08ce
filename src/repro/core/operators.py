"""Spark-specific incremental operators built on the circuit nodes.

:mod:`repro.core.circuit` holds the backend-generic operators; this module
adds the ones whose efficient form needs relational structure:

* :class:`IncrementalGroupAggregate` — §7.4: on a change, re-aggregate only
  the groups whose grouping Z-set changed (the integral read at the
  change's keys), emitting retraction + assertion rows from one plan.
* :func:`incremental_join_node` — an :class:`IncrementalJoin` wired to
  :func:`repro.zset.ops.join_z` plus an optional output projection.
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import functions as F

from repro.zset import aggregates, ops
from repro.zset.frame import W, ZSet

from .backend import SparkZSetOps
from .circuit import IncrementalJoin, Node


def incremental_join_node(
    on: Sequence[tuple[str, str]] | Sequence[str],
    project: dict[str, str] | None = None,
) -> IncrementalJoin:
    """A Theorem-3.4 join node over Spark Z-sets.

    ``project`` (output col -> SQL expr over the joined columns) is fused
    into the bilinear payload — projection is linear, so fusing it keeps
    the node a single bilinear operator.
    """

    def payload(a: ZSet, b: ZSet) -> ZSet:
        j = ops.join_z(a, b, on=on)
        return ops.map_z(j, project) if project else j

    return IncrementalJoin(SparkZSetOps(), payload)


#: Tags a row of :class:`IncrementalGroupAggregate`'s plan with the
#: aggregate it feeds: the one before the change, or the one after it.
TAG, OLD, NEW = "__tag", 0, 1


class IncrementalGroupAggregate(Node):
    """``(↑(GROUP BY + aggregate))^Δ`` touching only changed groups (§7.4).

    State: the integral of the input relation (O(R) space, like any
    aggregation that must handle deletions). Per step, one plan computes
    the old and new aggregates of the groups the change touches: the
    integral's rows at the change's keys
    (:meth:`~repro.zset.frame.ZSet.near`) are tagged old and new, the
    change's rows new; ``group_agg`` runs over ``keys + [tag]``, and old
    rows get weight −1, new ones +1, so the plan sums to ``new − old``.
    For a local change the plan runs in one partition, with no exchange,
    and is read once to the driver; a Spark change keeps it in Spark.
    Groups untouched by ``d`` contribute nothing (a ``near`` row of one
    cancels), so per-step work is proportional to the size of the
    *changed groups*, not the relation.
    """

    def __init__(
        self,
        keys: Sequence[str],
        aggs: Sequence[tuple[str, str, str | None]],
    ):
        self.keys = list(keys)
        self.aggs = list(aggs)
        self.ops = SparkZSetOps()
        self._i: ZSet | None = None  # integral of the input, pre-change

    def step(self, d: ZSet) -> ZSet:
        d = d.materialize()  # a Spark change is read by the plan and by the state
        if self._i is None:
            out = aggregates.group_agg(d, self.keys, self.aggs)
        else:
            out = self._changed_groups(d)
        self._i = self.ops.accumulate(self._i, d)
        return out

    def _changed_groups(self, d: ZSet) -> ZSet:
        """``new − old`` over the groups ``d`` touches, from one plan."""
        local = d.rows is not None
        old_and_new = F.explode(F.array(F.lit(OLD), F.lit(NEW)))
        tagged = self._i.near(self.keys, d).df.withColumn(TAG, old_and_new)
        tagged = tagged.unionByName(d.df.withColumn(TAG, F.lit(NEW)))
        if local:
            tagged = tagged.coalesce(1)
        agg = aggregates.group_agg(ZSet(tagged), self.keys + [TAG], self.aggs).df
        sign = F.when(F.col(TAG) == NEW, 1).otherwise(-1).cast("long")
        plan = agg.withColumn(W, sign).drop(TAG)
        if local and d.known_empty:
            return d.local_like({}, plan.schema)
        out = ZSet.read(plan) if local else None
        return ZSet(plan).consolidate() if out is None else out
