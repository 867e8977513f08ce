"""Spark-specific incremental operators built on the circuit nodes.

:mod:`repro.core.circuit` holds the backend-generic operators; this module
adds the ones whose efficient form needs relational structure:

* :class:`IncrementalGroupAggregate` — §7.4: on a change, re-aggregate only
  the groups whose grouping Z-set changed (the integral read at the
  change's keys), emitting retraction + assertion rows.
* :func:`incremental_join_node` — an :class:`IncrementalJoin` wired to
  :func:`repro.zset.ops.join_z` plus an optional output projection.
"""
from __future__ import annotations

from typing import Sequence

from repro.zset import aggregates, ops
from repro.zset.frame import ZSet

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


class IncrementalGroupAggregate(Node):
    """``(↑(GROUP BY + aggregate))^Δ`` touching only changed groups (§7.4).

    State: the integral of the input relation (O(R) space, like any
    aggregation that must handle deletions). Per step:

    1. the changed keys are ``π_keys(d)`` — O(|d|);
    2. old output rows = aggregate over the integral at the changed keys
       (:meth:`~repro.zset.frame.ZSet.at`);
    3. new output rows = same over integral + d;
    4. output change = new − old.

    Groups untouched by ``d`` contribute nothing, so per-step work is
    proportional to the size of the *changed groups*, not the relation.
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
        d = d.materialize()
        if self._i is None:
            old_out = None
            new_out = aggregates.group_agg(d, self.keys, self.aggs)
        else:
            # the integral at the change's keys (a null key matching a
            # null): both the old and the new aggregates work on that slice
            touched = self._i.at(self.keys, d).materialize()
            old_out = aggregates.group_agg(touched, self.keys, self.aggs)
            new_out = aggregates.group_agg(touched.add(d), self.keys, self.aggs)
        out = new_out if old_out is None else new_out.sub(old_out)
        # ``out`` reads only the checkpointed ``d`` and ``touched``, so it
        # may stay lazy while the state advances
        self._i = self.ops.accumulate(self._i, d)
        return out.consolidate()
