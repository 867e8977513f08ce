"""Relational operators on Z-sets — the right column of the paper's Table 1.

Every SQL (set) operator is implemented as a Z-set operator executed by
Catalyst. Linearity notes (they drive incrementalization in §3):

* ``filter_z`` (σ), ``map_z`` (π / selection), ``union-all``
  (group ``+``), ``flatmap_z`` — **linear**: weights pass through rows.
* ``join_z``, ``cartesian_z``, ``intersect_z`` — **bilinear**: the output
  weight is the product of the input weights.
* ``ZSet.distinct`` — neither; it gets its own incremental operator
  (Proposition 4.7, see :mod:`repro.core.operators`).

Set operators per Table 1 (inputs are sets, outputs are sets):
``union_z(a,b) = distinct(a+b)``, ``difference_z(a,b) = distinct(a-b)``,
``intersect_z`` = null-safe equijoin on all columns, ``antijoin_z`` per §7.5.

On a local (driver-side) Z-set, σ and π return local Z-sets, and ``⋈`` and
``×`` of two local Z-sets run as :mod:`repro.zset.ref` code. An equijoin or
``INTERSECT`` of a local Z-set with a Spark one reads the Spark side at the
local side's rows (:meth:`ZSet.at`) and, when that read comes back local,
runs on the driver; otherwise, and for ``×``, the local side is broadcast
into a Spark join.
"""
from __future__ import annotations

from typing import Mapping, Sequence

from pyspark.sql import functions as F
from pyspark.sql.types import StructField, StructType

from . import ref
from .frame import W, ZSet

#: Appended to a right-side data column whose name a left-side column
#: already has, in the output of ``join_z`` and ``cartesian_z``.
SUFFIX = "_r"


def filter_z(z: ZSet, condition: str) -> ZSet:
    """σ — keep rows matching a SQL predicate; weights unchanged (linear)."""
    df = z.df.where(condition)
    return ZSet.placed(df) if z.rows is not None else ZSet(df)


def map_z(z: ZSet, exprs: Mapping[str, str]) -> ZSet:
    """π / map — project each row through SQL expressions (linear).

    ``exprs`` maps output column name -> SQL expression over the input
    columns. Rows that collapse to the same output tuple get their weights
    added (on consolidation), which is exactly the Z-set π of Table 1.
    """
    if z.rows is not None and all(e in z.data_cols for e in exprs.values()):
        # plain column picks: project the driver-side rows directly
        idx = [z.data_cols.index(e) for e in exprs.values()]
        fields = [StructField(n, z.schema[e].dataType, z.schema[e].nullable) for n, e in exprs.items()]
        schema = StructType(fields + [z.schema[W]])
        return z.local_like(ref.rmap(z.rows, lambda r: tuple(r[i] for i in idx)), schema)
    sel = [F.expr(e).alias(name) for name, e in exprs.items()] + [F.col(W)]
    df = z.df.select(*sel)
    return ZSet.placed(df) if z.rows is not None else ZSet(df)


def _joined_schema(a: ZSet, b: ZSet) -> StructType:
    """Output schema of ``a ⋈ b`` / ``a × b``: right names that collide get :data:`SUFFIX`."""
    left = [f for f in a.schema.fields if f.name != W]
    names = {f.name for f in left}
    right = [
        StructField(f.name + SUFFIX if f.name in names else f.name, f.dataType, f.nullable)
        for f in b.schema.fields
        if f.name != W
    ]
    return StructType(left + right + [a.schema[W]])


def _non_null(z: ZSet, cols: Sequence[str]) -> ZSet:
    """A local ``z`` without its rows that have a null in ``cols``: SQL
    equality never matches them."""
    idx = [z.data_cols.index(c) for c in cols]
    return z.local_like({r: w for r, w in z.rows.items() if all(r[i] is not None for i in idx)})


def _spark_side(z: ZSet):
    """``z.df``, broadcast if ``z`` is local: a driver-side value is small."""
    return F.broadcast(z.df) if z.rows is not None else z.df


def join_z(
    z_left: ZSet,
    z_right: ZSet,
    on: Sequence[tuple[str, str]] | Sequence[str],
) -> ZSet:
    """⋈ — equijoin; output weight = product of input weights (bilinear).

    ``on`` is either a list of common column names or a list of
    ``(left_col, right_col)`` pairs. Right-side data columns whose names
    collide with left-side ones are suffixed with :data:`SUFFIX` in the output
    (including right join keys when both sides use the same name).
    """
    pairs = [(c, c) if isinstance(c, str) else tuple(c) for c in on]
    lcols, rcols = [lc for lc, _ in pairs], [rc for _, rc in pairs]
    # a local side drops its null keys, so no row of the other side can match one
    if z_left.rows is not None:
        z_left = _non_null(z_left, lcols)
        if z_right.rows is None:
            z_right = z_right.at(rcols, z_left, on=lcols)
    elif z_right.rows is not None:
        z_right = _non_null(z_right, rcols)
        z_left = z_left.at(lcols, z_right, on=rcols)
    if z_left.rows is not None and z_right.rows is not None:
        ia = [z_left.data_cols.index(c) for c in lcols]
        ib = [z_right.data_cols.index(c) for c in rcols]
        rows = ref.rjoin(z_left.rows, z_right.rows, lambda r: tuple(r[i] for i in ia),
                         lambda r: tuple(r[i] for i in ib), lambda x, y: x + y)
        return z_left.local_like(rows, _joined_schema(z_left, z_right))

    ldf = _spark_side(z_left).withColumnRenamed(W, "__wl")
    rdf = _spark_side(z_right).withColumnRenamed(W, "__wr")
    left_cols = set(z_left.data_cols)
    renames: dict[str, str] = {}
    for c in z_right.data_cols:
        if c in left_cols:
            renames[c] = c + SUFFIX
    for old, new in renames.items():
        rdf = rdf.withColumnRenamed(old, new)

    cond = None
    for lc, rc in pairs:
        rc = renames.get(rc, rc)
        clause = ldf[lc] == rdf[rc]
        cond = clause if cond is None else (cond & clause)
    joined = ldf.join(rdf, on=cond, how="inner")
    joined = joined.withColumn(W, (F.col("__wl") * F.col("__wr")).cast("long"))
    return ZSet(joined.drop("__wl", "__wr"))


def cartesian_z(z_left: ZSet, z_right: ZSet) -> ZSet:
    """× — Cartesian product; weights multiply (bilinear)."""
    if z_left.rows is not None and z_right.rows is not None:
        rows = ref.rcartesian(z_left.rows, z_right.rows)
        return z_left.local_like(rows, _joined_schema(z_left, z_right))
    ldf = _spark_side(z_left).withColumnRenamed(W, "__wl")
    rdf = _spark_side(z_right).withColumnRenamed(W, "__wr")
    left_cols = set(z_left.data_cols)
    for c in z_right.data_cols:
        if c in left_cols:
            rdf = rdf.withColumnRenamed(c, c + SUFFIX)
    joined = ldf.crossJoin(rdf)
    joined = joined.withColumn(W, (F.col("__wl") * F.col("__wr")).cast("long"))
    return ZSet(joined.drop("__wl", "__wr"))


def union_z(a: ZSet, b: ZSet) -> ZSet:
    """Set UNION (Table 1): ``distinct(a + b)``."""
    return a.add(b).distinct()


def union_all_z(a: ZSet, b: ZSet) -> ZSet:
    """Bag UNION ALL (§7.1): plain Z-set addition — linear."""
    return a.add(b)


def difference_z(a: ZSet, b: ZSet) -> ZSet:
    """Set EXCEPT (Table 1): ``distinct(a - b)``."""
    return a.sub(b).distinct()


def intersect_z(a: ZSet, b: ZSet) -> ZSet:
    """Set INTERSECT: the rows of ``a`` that are rows of ``b``, left
    columns kept, a null matching a null on every column as in SQL's
    ``INTERSECT``.

    For set inputs the product weights are 1 and the result is a set; for
    general Z-sets this is the bilinear intersection of [Green et al.].
    A local side reads the other side at its rows (:meth:`ZSet.at`,
    null-safe) and, when that read comes back local, intersects on the
    driver.
    """
    cols = a.data_cols
    if set(cols) != set(b.data_cols):
        raise ValueError("intersect requires identical schemas")
    b = map_z(b, {c: c for c in cols})  # b's columns in a's order
    if a.rows is not None and b.rows is None:
        b = b.at(cols, a)
    elif b.rows is not None and a.rows is None:
        a = a.at(cols, b)
    if a.rows is not None and b.rows is not None:
        return a.local_like(ref.rintersect(a.rows, b.rows))
    rdf = _spark_side(b).select(*(F.col(c).alias(f"__r{j}") for j, c in enumerate(cols)), F.col(W).alias("__wr"))
    same = [F.col(c).eqNullSafe(F.col(f"__r{j}")) for j, c in enumerate(cols)]
    joined = _spark_side(a).withColumnRenamed(W, "__wl").join(rdf, on=same, how="inner")
    return ZSet(joined.select(*cols, (F.col("__wl") * F.col("__wr")).cast("long").alias(W)))


def antijoin_z(a: ZSet, b: ZSet, on: Sequence[tuple[str, str]] | Sequence[str]) -> ZSet:
    """Antijoin (§7.5): rows of set ``a`` with no match in set ``b``.

    Implemented exactly as the paper's circuit: ``C = π_{cols(a)}(a ⋈ b)``
    then ``a \\ distinct(C)`` — a join composed with a set difference, so
    the whole construction incrementalizes with the standard machinery.
    """
    c = map_z(join_z(a, b, on=on), {col: col for col in a.data_cols})
    return difference_z(a, c.distinct())


def flatmap_z(z: ZSet, explode_col: str, out_col: str) -> ZSet:
    """flatmap (§7.4): explode an array column; weights replicate (linear)."""
    df = z.df.withColumn(out_col, F.explode(F.col(explode_col))).drop(explode_col)
    return ZSet(df)
