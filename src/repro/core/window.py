"""Streaming window queries (§7.6 / §7.6.1).

Two operators from the paper:

* :class:`SlidingSumWindow` — the DSP convolution-style fixed-size window:
  the output at time ``t`` is the sum of the last ``k`` input values,
  built from ``k-1`` delays (backend-generic).
* :class:`TimeRangeWindow` — the CQL ``[RANGE w]`` window: given a change
  stream and a monotone watermark stream θ, keep only rows with
  ``ts(x) ≥ θ[t] − w``. The paper's key observation is that when θ is
  monotone the window predicate can be moved *inside* the integration, so
  the operator state holds only the live window — bounded memory for an
  unbounded stream. ``state_size()`` exposes that bound (experiment T8).
* :class:`RelationToStreamJoin` — §7.6's ``T(s,t) = I(s) ↑⋈ t``: join a
  stream of transient points against the accumulated contents of a
  relation (ksqlDB's stream-table join).
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import functions as F

from repro.zset.frame import W, ZSet

from .backend import GroupOps, SparkZSetOps
from .circuit import Delay, Integrate, Node


class SlidingSumWindow(Node):
    """Sum of the last ``k`` input values (a length-``k`` convolution).

    ``o[t] = Σ_{j<k} s[t-j]`` — a chain of ``k-1`` delays feeding an
    adder, exactly the circuit drawn in §7.6.1. Linear, so it is its own
    incremental version (Theorem 3.3).
    """

    def __init__(self, ops: GroupOps, k: int):
        assert k >= 1
        self.ops = ops
        self.delays = [Delay(ops) for _ in range(k - 1)]

    def step(self, x):
        out = x
        cur = x
        for d in self.delays:
            cur = d.step(cur)
            out = self.ops.add(out, cur)
        return self.ops.consolidate(out)


class TimeRangeWindow(Node):
    """CQL ``SELECT * FROM s [RANGE width]`` over a Z-set change stream.

    ``step(delta, theta)`` returns the *change* to the window contents at
    watermark ``theta`` (so downstream circuits stay incremental); the
    state is the current window only — rows older than ``theta - width``
    are evicted, never to return (requires θ monotone, asserted).

    The state is the integral of the output, kept by
    :meth:`SparkZSetOps.accumulate`. With ``lo = θ − width`` and the
    previous step's ``prev_lo``, the output is
    ``σ_{ts≥lo}(Δ) − σ_{prev_lo≤ts<lo}(W)``: a monotone θ evicted every
    row with ``ts < prev_lo`` already, so its rows in ``W`` net to zero.
    That output is read to the driver with one bounded read over the
    change and the state together; the first step, and an output too
    large for that read (:meth:`~repro.zset.frame.ZSet.read`), are
    materialized in Spark.
    """

    def __init__(self, ts_col: str, width: float):
        self.ts_col = ts_col
        self.width = width
        self.ops = SparkZSetOps()
        self._window: ZSet | None = None  # current window contents, unconsolidated
        self._theta: float | None = None

    def state_size(self) -> int:
        """Rows retained — the paper's bounded-memory claim (T8)."""
        return 0 if self._window is None else self._window.support_count()

    def contents(self) -> ZSet | None:
        return self._window

    def step(self, delta: ZSet, theta: float) -> ZSet:
        if self._theta is not None and theta < self._theta:
            raise ValueError("watermark must be monotone")
        ts = F.col(self.ts_col)
        lo = theta - self.width
        live = delta.df.where(ts >= F.lit(lo))
        if self._window is None:
            out = ZSet(live).materialize()
        else:
            prev_lo = self._theta - self.width
            evicted = self._window.df.where((ts >= F.lit(prev_lo)) & (ts < F.lit(lo)))
            plan = live.unionByName(evicted.withColumn(W, -F.col(W)))
            out = ZSet.read(plan)
            if out is None:
                out = ZSet(plan).materialize()
        self._theta = theta
        self._window = self.ops.accumulate(self._window, out)
        return out


class RelationToStreamJoin(Node):
    """§7.6: ``T(s, t) = I(s) ↑⋈ t`` — stream-table join.

    ``s`` carries changes to a relation (integrated into state); ``t``
    carries transient data points, matched against the *accumulated*
    relation and then discarded. ``join_fn(rel, points)`` is the bilinear
    payload; the points pass through ``ops.small``, so the O(R) relation
    state is probed, not shuffled.
    """

    def __init__(self, ops: GroupOps, join_fn: Callable):
        self.ops = ops
        self.join_fn = join_fn
        self._integrate = Integrate(ops)

    def step(self, rel_delta, points):
        rel = self._integrate.step(rel_delta)
        return self.ops.consolidate(self.join_fn(rel, self.ops.small(points)))
