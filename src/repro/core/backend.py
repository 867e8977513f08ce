"""Group-operation backends for the stream calculus.

DBSP's stream operators (§2–§3) are defined over *any* abelian group. The
circuit nodes in :mod:`repro.core.circuit` are therefore written against
this small interface and instantiated twice:

* :class:`SparkZSetOps` — the production backend over Spark DataFrames
  (:class:`repro.zset.frame.ZSet`), where ``materialize`` consolidates and
  ``localCheckpoint``s loop-carried state, or keeps a small change on the
  driver; integrals always stay in Spark;
* :class:`RefZSetOps` — the pure-Python reference backend over
  ``dict[tuple, int]`` from :mod:`repro.zset.ref`, used to test the exact
  same operator code against by-definition semantics, fast.

``zero_like(x)`` derives the group zero from a sample value, so operators
can start with ``None`` state and never need a schema up front.
"""
from __future__ import annotations

from pyspark.sql import functions as F

from repro.zset import ref
from repro.zset.frame import ZSet


class GroupOps:
    """Abstract abelian-group operations + the distinct-H function."""

    def add(self, a, b):  # pragma: no cover - interface
        raise NotImplementedError

    def neg(self, a):  # pragma: no cover - interface
        raise NotImplementedError

    def zero_like(self, x):  # pragma: no cover - interface
        raise NotImplementedError

    def is_zero(self, a) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def consolidate(self, a):
        """Canonical form (no-op where values are always canonical)."""
        return a

    def materialize(self, a):
        """Canonical form + lineage cut; required for loop-carried state."""
        return self.consolidate(a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def equals(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def accumulate(self, state, delta):
        """Add a small change to large loop-carried state (``I`` update).

        Semantically ``state + delta``; backends may keep the state
        *unconsolidated* so the per-step cost is O(|delta|) amortized —
        the paper's §4.5 observation that ``I`` stores O(R) but can be
        *updated* in O(C). ``state`` may be None (zero).
        """
        if state is None:
            return self.materialize(delta)
        return self.materialize(self.add(state, delta))

    def small(self, x):
        """Mark ``x`` as the change side of a bilinear term (Theorem 3.4).

        Incremental join nodes call this on the small argument of each
        term; a backend may use it to choose the physical join.
        """
        return x

    def h(self, i, d):
        """Proposition 4.7's ``H(i, d)`` — used by incremental distinct."""
        raise NotImplementedError  # pragma: no cover - interface

    def restrict(self, values: list, changes: list) -> list:
        """Each of ``values`` restricted to the rows in the support of one
        of ``changes`` (the only rows a row-wise operator such as ``H`` can
        change there), or each value as it is; the same choice for every
        value. The Spark form is :meth:`ZSet.at_each`: one read of all
        values when every change is on the driver."""
        raise NotImplementedError  # pragma: no cover - interface

    def support_count(self, a) -> int:
        """Distinct rows with non-zero weight (the work/size metric)."""
        raise NotImplementedError  # pragma: no cover - interface


class RefZSetOps(GroupOps):
    """Reference backend: Z-sets as plain dicts."""

    def add(self, a, b):
        return ref.radd(a, b)

    def neg(self, a):
        return ref.rneg(a)

    def zero_like(self, x):
        return {}

    def is_zero(self, a) -> bool:
        return not a

    def h(self, i, d):
        return ref.rh(i, d)

    def restrict(self, values, changes):
        rows = set().union(*changes)
        return [{r: w for r, w in v.items() if r in rows} for v in values]

    def support_count(self, a) -> int:
        return len(a)


#: Checkpointed fragments an append-only state may hold before
#: :meth:`SparkZSetOps.accumulate` re-consolidates it; the O(R)
#: consolidation is thus amortized over that many O(C) steps.
COMPACT_AFTER = 24


class SparkZSetOps(GroupOps):
    """Production backend: Z-sets as Spark DataFrames with a weight column."""

    def accumulate(self, state: ZSet | None, delta: ZSet) -> ZSet:
        """O(|delta|) state update: materialize the delta, append lazily.

        The state stays in Spark: a state that is still empty takes the
        delta, checkpointed, as its base; a later local delta is appended
        as a ``LocalRelation`` fragment, which launches no job.
        """
        d = delta if delta.known_empty else delta.materialize()
        if d.known_empty:
            return d.zero_like() if state is None else state
        if state is None or state.known_empty:
            if d.rows is not None:
                d = ZSet(d.df.localCheckpoint(eager=True), checkpointed=True)
            return d
        merged = ZSet(state.df.unionByName(d.df), segments=state.segments + 1)
        if merged.segments >= COMPACT_AFTER:
            return self.materialize(merged)
        return merged

    def add(self, a: ZSet, b: ZSet) -> ZSet:
        return a.add(b)

    def neg(self, a: ZSet) -> ZSet:
        return a.neg()

    def zero_like(self, x: ZSet) -> ZSet:
        return x.zero_like()

    def is_zero(self, a: ZSet) -> bool:
        return a.is_empty()

    def consolidate(self, a: ZSet) -> ZSet:
        return a.consolidate()

    def materialize(self, a: ZSet) -> ZSet:
        return a.materialize()

    def small(self, x: ZSet) -> ZSet:
        """Broadcast the change side: ``Δ ⋈ integral`` then probes the
        O(R) state with one scan instead of shuffling it — the physical
        form of the paper's O(C[t]) per-step claim. A local change is
        returned as it is: the join reads the state's matching rows, or
        broadcasts the change itself (:mod:`repro.zset.ops`)."""
        return x if x.rows is not None else ZSet(F.broadcast(x.df))

    def h(self, i: ZSet, d: ZSet) -> ZSet:
        """``H(i, d) = distinct(i + d) − distinct(i)`` by definition, over
        the integral read at the change's rows only (:meth:`ZSet.at`):
        only rows in ``supp(d)`` can flip sign (Proposition 4.7). For a
        local ``d`` that restriction is read to the driver and ``H`` is
        dict code; otherwise it is a lazy Spark plan (:meth:`ZSet.near`)
        and the result is left unconsolidated."""
        d = d.materialize()
        old = i.at(d.data_cols, d)
        return old.add(d).distinct().sub(old.distinct())

    def restrict(self, values: list[ZSet], changes: list[ZSet]) -> list[ZSet]:
        """One read for all ``values`` at the changes' rows
        (:meth:`ZSet.at_each`), or the values as they are."""
        return ZSet.at_each(values, changes[0].data_cols, changes)

    def support_count(self, a: ZSet) -> int:
        return a.support_count()

