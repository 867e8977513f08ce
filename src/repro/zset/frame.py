"""Spark-backed Z-sets (§4.1 of the DBSP paper).

A Z-set over a relation schema ``A`` is a function ``A -> Z`` with finite
support: a weighted relation where weights may be negative. We represent a
Z-set as a Spark DataFrame carrying one extra ``__w: long`` column; a row
``(x, w)`` means element ``x`` has multiplicity ``w``. The abelian-group
structure (``+``, unary ``-``, ``0``) required by DBSP's stream calculus is
implemented with Catalyst operators only:

* ``add``      — unionByName (weights of equal rows add after consolidation)
* ``neg``      — negate the weight column
* ``consolidate`` — groupBy(data columns).sum(weight), drop weight-0 rows

A ZSet may be *unconsolidated* (the same data row appearing several times);
all semantics are defined on the consolidated view, and every comparison /
predicate here consolidates first. ``materialize`` consolidates and
``localCheckpoint``s — mandatory for loop-carried state, otherwise Catalyst
plans grow without bound across circuit steps.

A small Z-set may instead live on the driver (``ZSet.local``): a
consolidated ``{row: weight}`` dict plus its schema, on which ``+``, ``−``,
``distinct``, ``is_empty`` and ``support_count`` run as
:mod:`repro.zset.ref` dict code. ``materialize`` puts a value there when
its plan optimizes to a ``LocalRelation`` of fewer than :data:`LOCAL_ROWS`
rows (reading such a plan launches no Spark job); linear operators keep a
local value local. Where a local value meets Spark, its ``df`` is a
``LocalRelation`` built through Arrow, which launches no job either; a
value of :data:`LOCAL_ROWS` rows or more is always such a Spark value.
Spark rows reach the driver through one bounded read of one stage,
:meth:`ZSet.read`; state is read at a change's rows through
:meth:`ZSet.at` (to the driver) or :meth:`ZSet.near` (a lazy plan). Every
choice between the driver and Spark is made in this module.
"""
from __future__ import annotations

import datetime
import decimal
import math
import operator
from functools import reduce
from typing import Iterable, Sequence

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.conversion import ArrowTableToRowsConversion, LocalDataToArrowConversion
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import StructType, _parse_datatype_string

from . import ref

#: Name of the multiplicity column. Double-underscore so it never collides
#: with a user data column.
W = "__w"

#: A Z-set with fewer rows than this may live on the driver: above every
#: per-step change of the benchmark workloads, below their bulk loads. At 0
#: every value stays in Spark.
LOCAL_ROWS = 10_000


def _arrow_df(spark: SparkSession, schema: StructType, rows: list[tuple]) -> DataFrame:
    """A DataFrame over ``rows`` built through Arrow: a ``LocalRelation``
    (up to Spark's Arrow local-relation threshold), so no job runs."""
    if rows:
        table = LocalDataToArrowConversion.convert(rows, schema, False)
    else:
        table = to_arrow_schema(schema).empty_table()
    return spark.createDataFrame(table, schema=schema)


def _weight_last(schema: StructType) -> StructType:
    """``schema`` with the weight column moved to the end."""
    return StructType([f for f in schema.fields if f.name != W] + [schema[W]])


def _summed(schema: StructType, rows: Iterable[tuple]) -> dict[tuple, int]:
    """Consolidate raw rows of ``schema`` into ``{data-tuple: weight}``."""
    wi = schema.fieldNames().index(W)
    return ref.rz(*((r[:wi] + r[wi + 1:], r[wi]) for r in rows))


def _sql_literal(v) -> str | None:
    """``v`` as a Spark SQL literal, or None for a type not rendered here."""
    if isinstance(v, bool):
        return None
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v!r}D" if math.isfinite(v) else None
    if isinstance(v, str):
        return "'" + v.replace("\\", "\\\\").replace("'", "\\'") + "'"
    if isinstance(v, decimal.Decimal):
        return f"{v:f}BD" if v.is_finite() else None
    if isinstance(v, datetime.date) and not isinstance(v, datetime.datetime):
        return f"DATE'{v.isoformat()}'"
    return None


def _in(col: str, values: set) -> Column:
    """``col IN values``, a null value matching null; one SQL string, so
    its size costs no per-value JVM call."""
    if None in values:
        rest = values - {None}
        return F.col(col).isNull() | _in(col, rest) if rest else F.col(col).isNull()
    lits = [_sql_literal(v) for v in values]
    if None in lits:
        return F.col(col).isin(list(values))
    return F.expr(f"`{col}` IN ({', '.join(lits)})")


def _matching(cols: Sequence[str], keys: set) -> Column:
    """Rows whose value in each of ``cols`` occurs at that position of one
    of the (non-empty) ``keys``: exactly the keys' rows for one column, a
    superset of them for several."""
    return reduce(operator.and_, (_in(c, {k[j] for k in keys}) for j, c in enumerate(cols)))


def _keys(change: "ZSet", cols: Sequence[str]) -> set[tuple]:
    """The ``cols`` values of a local ``change``'s rows."""
    idx = [change.data_cols.index(c) for c in cols]
    return {tuple(r[i] for i in idx) for r in change.rows}


class ZSet:
    """A weighted relation (Z-set) backed by a Spark DataFrame, or by a
    ``{row: weight}`` dict on the driver (:meth:`local`).

    The wrapped DataFrame always contains the weight column :data:`W`;
    every other column is a data column. Instances are immutable — all
    operations return new ZSets.
    """

    def __init__(
        self,
        df: DataFrame,
        segments: int = 1,
        known_empty: bool = False,
        checkpointed: bool = False,
        consolidated: bool = False,
    ):
        if W not in df.columns:
            raise ValueError(f"ZSet DataFrame must contain a '{W}' column")
        self._df = df
        #: the consolidated ``{data-tuple: weight}`` contents of a Z-set that
        #: lives on the driver (see :meth:`local`), else None
        self.rows: dict[tuple, int] | None = None
        #: number of appended (checkpointed) fragments in this plan — used
        #: by the append-only state accumulator to amortize compaction.
        self.segments = segments
        #: statically known to be the group zero (zero_like/empty) — lets
        #: state accumulators skip no-op update jobs.
        self.known_empty = known_empty
        #: already consolidated with its lineage cut (localCheckpointed, or
        #: on the driver) — operators reuse it instead of re-evaluating the
        #: producing plan (set by materialize).
        self.checkpointed = checkpointed
        #: one row per data tuple, no zero weights: ``consolidate`` is free
        self.consolidated = consolidated or checkpointed or known_empty

    @classmethod
    def local(cls, spark: SparkSession, schema: StructType, rows: dict[tuple, int]) -> "ZSet":
        """A Z-set on the driver: consolidated ``rows`` over ``schema``
        (data fields, then the weight field). A driver-side Z-set holds
        fewer than :data:`LOCAL_ROWS` rows: more rows become a Spark
        ``LocalRelation`` (built through Arrow, no job)."""
        if len(rows) >= LOCAL_ROWS:
            data = [r + (w,) for r, w in rows.items()]
            return cls(_arrow_df(spark, schema, data), known_empty=not rows, consolidated=True)
        z = cls.__new__(cls)
        z._df, z._spark, z._schema, z.rows = None, spark, schema, rows
        z.segments, z.known_empty, z.checkpointed, z.consolidated = 1, not rows, True, True
        return z

    @property
    def df(self) -> DataFrame:
        """The Spark form; a local Z-set gets a ``LocalRelation`` on first use."""
        if self._df is None:
            rows = [r + (w,) for r, w in self.rows.items()]
            self._df = _arrow_df(self._spark, self._schema, rows)
        return self._df

    @property
    def schema(self) -> StructType:
        return self._schema if self.rows is not None else self.df.schema

    def local_like(self, rows: dict[tuple, int], schema: StructType | None = None) -> "ZSet":
        """A local Z-set with this one's session (and schema, by default)."""
        if self.rows is None:
            return ZSet.local(self.df.sparkSession, schema or _weight_last(self.df.schema), rows)
        return ZSet.local(self._spark, schema or self._schema, rows)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_df(cls, df: DataFrame) -> "ZSet":
        """Wrap a plain DataFrame as a Z-set, giving every row weight 1.

        This is the paper's ``tozset`` for bags; a true *set* input must not
        contain duplicate rows (use ``distinct`` on the result if unsure).
        """
        return cls(df.withColumn(W, F.lit(1).cast("long")))

    @classmethod
    def from_rows(
        cls, spark: SparkSession, rows: Iterable[tuple], schema: str
    ) -> "ZSet":
        """Build a Z-set from ``(.., weight)`` tuples.

        ``schema`` is a DDL string for the *data* columns; each row tuple
        carries the data values followed by an integer weight.
        """
        return cls(_arrow_df(spark, _ddl_schema(schema), list(rows)))

    @classmethod
    def empty(cls, spark: SparkSession, schema: str) -> "ZSet":
        """The group zero for the given data-column DDL schema."""
        return cls(_arrow_df(spark, _ddl_schema(schema), []), known_empty=True)

    def zero_like(self) -> "ZSet":
        """The group zero with this Z-set's schema."""
        if self.rows is not None:
            return self.local_like({})
        return ZSet(self.df.limit(0), known_empty=True)

    # ------------------------------------------------------------------ #
    # group structure
    # ------------------------------------------------------------------ #
    @property
    def data_cols(self) -> list[str]:
        """Data columns (everything except the weight column)."""
        return [c for c in self.schema.fieldNames() if c != W]

    def add(self, other: "ZSet") -> "ZSet":
        """Group addition: weights of equal rows add (lazily). Adding a
        known zero of the same schema returns the other operand itself.
        The sum of two local Z-sets stays on the driver while they hold
        fewer than :data:`LOCAL_ROWS` rows together; above that it is a
        lazy Spark union."""
        if (self.known_empty or other.known_empty) and self.schema == other.schema:
            return other if self.known_empty else self
        if self.rows is not None and other.rows is not None and len(self.rows) + len(other.rows) < LOCAL_ROWS:
            return self.local_like(ref.radd(self.rows, other.rows))
        return ZSet(self.df.unionByName(other.df))

    def neg(self) -> "ZSet":
        """Group negation: flip every weight."""
        if self.rows is not None:
            return self.local_like(ref.rneg(self.rows))
        return ZSet(self.df.withColumn(W, -F.col(W)))

    def sub(self, other: "ZSet") -> "ZSet":
        """Group subtraction ``self - other``."""
        return self.add(other.neg())

    def scale(self, k: int) -> "ZSet":
        """Multiply every weight by the integer ``k``."""
        if self.rows is not None:
            return self.local_like(ref.rscale(self.rows, k))
        return ZSet(self.df.withColumn(W, F.col(W) * F.lit(k)))

    def consolidate(self) -> "ZSet":
        """Canonical form: one row per distinct data tuple, weight != 0."""
        if self.consolidated:
            return self
        return ZSet(
            self.df.groupBy(*self.data_cols)
            .agg(F.sum(W).alias(W))
            .where(F.col(W) != 0),
            consolidated=True,
        )

    def materialize(self) -> "ZSet":
        """Consolidate and cut lineage (for loop-carried state).

        A plan that optimizes to a ``LocalRelation`` of fewer than
        :data:`LOCAL_ROWS` rows is read to the driver, which launches no
        job; anything else is ``localCheckpoint``ed.
        """
        if self.checkpointed:
            return self
        local = ZSet.placed(self.df)
        if local.rows is not None:
            return local
        return ZSet(
            self.consolidate().df.localCheckpoint(eager=True), checkpointed=True
        )

    @staticmethod
    def placed(df: DataFrame) -> "ZSet":
        """``df`` as a local Z-set if its plan is a small ``LocalRelation``
        (read with no Spark job), else as a Spark one.

        Only a plan over ``LocalRelation`` leaves of fewer than
        :data:`LOCAL_ROWS` rows in all is optimized to find out, so a bulk
        input costs no extra optimizer pass.
        """
        plan = df._jdf.queryExecution()
        leaves = plan.analyzed().collectLeaves()
        n = 0
        for i in range(leaves.size()):
            leaf = leaves.apply(i)
            if leaf.getClass().getSimpleName() != "LocalRelation":
                return ZSet(df)
            n += leaf.data().size()
        if n < LOCAL_ROWS:
            opt = plan.optimizedPlan()
            if opt.getClass().getSimpleName() == "LocalRelation":
                schema = df.schema
                rows = _summed(schema, (tuple(r) for r in df.collect()))
                return ZSet.local(df.sparkSession, _weight_last(schema), rows)
        return ZSet(df)

    def restrict(self, cols: Sequence[str], keys: Iterable[tuple]) -> dict[tuple, int] | None:
        """The consolidated rows whose ``cols`` values match one of ``keys``,
        as ``{data-tuple: weight}``. A null matches a null, as rows of a
        Z-set do (a join drops null keys itself).

        On a Spark Z-set this is one probe: the rows whose value in each
        of ``cols`` occurs at that position of some key, read with
        :meth:`read`. Returns None if there are :data:`LOCAL_ROWS` keys or
        more, or the probe reaches that many rows.
        """
        wanted = set(keys)
        if len(wanted) >= LOCAL_ROWS:
            return None
        rows = self.rows
        if rows is None:
            if self.known_empty or not wanted:
                return {}
            got = ZSet.read(self.df.where(_matching(cols, wanted)))
            if got is None:
                return None
            rows = got.rows
        idx = [self.data_cols.index(c) for c in cols]
        return {r: w for r, w in rows.items() if tuple(r[i] for i in idx) in wanted}

    @staticmethod
    def read(df: DataFrame) -> "ZSet | None":
        """``df`` consolidated on the driver, or None if it has
        :data:`LOCAL_ROWS` rows or more: the one bounded read of Spark
        rows to the driver. It is one job of one stage: ``coalesce(1)``
        hands ``limit`` a single partition, so the collect needs no
        shuffle to gather its rows."""
        table = df.coalesce(1).limit(LOCAL_ROWS).toArrow()
        if table.num_rows >= LOCAL_ROWS:
            return None
        schema = df.schema
        rows = _summed(schema, ArrowTableToRowsConversion.convert(table, schema, return_as_tuples=True))
        return ZSet.local(df.sparkSession, _weight_last(schema), rows)

    def at(self, cols: Sequence[str], change: "ZSet") -> "ZSet":
        """This Z-set at the rows whose ``cols`` match a row of ``change``
        (a null matching a null): the only rows a row-wise operator such
        as ``H`` reads.

        For a local ``change`` this is the :meth:`restrict` probe, read to
        the driver; when that probe would read :data:`LOCAL_ROWS` rows or
        more, and for a Spark ``change``, it is the lazy :meth:`near`,
        whose extra rows a row-wise operator leaves unchanged.
        """
        if change.rows is not None:
            rows = self.restrict(cols, _keys(change, cols))
            if rows is not None:
                return self.local_like(rows)
        return self.near(cols, change)

    def near(self, cols: Sequence[str], change: "ZSet") -> "ZSet":
        """This Z-set at the rows whose ``cols`` match a row of ``change``,
        or at a superset of them, as a lazy Spark plan (a null matching a
        null): the input of an operator such as a group's aggregate that
        reads state there and leaves every other row's output as it is.

        A local ``change`` with fewer than :data:`LOCAL_ROWS` keys is one
        ``IN`` filter per column, a superset of the rows when ``cols`` has
        several columns; otherwise this is a broadcast null-safe semijoin.
        """
        if change.rows is not None:
            wanted = _keys(change, cols)
            if not wanted:
                return self.zero_like()
            if len(wanted) < LOCAL_ROWS:
                return ZSet(self.df.where(_matching(cols, wanted)))
        keys = [f"__k{j}" for j in range(len(cols))]
        probe = F.broadcast(change.df.select(*(F.col(c).alias(k) for c, k in zip(cols, keys))))
        same = reduce(operator.and_, (F.col(c).eqNullSafe(F.col(k)) for c, k in zip(cols, keys)))
        return ZSet(self.df.join(probe, on=same, how="leftsemi"))

    # ------------------------------------------------------------------ #
    # predicates / inspection
    # ------------------------------------------------------------------ #
    def is_empty(self) -> bool:
        """True iff this is the group zero (all weights cancel)."""
        if self.rows is not None:
            return not self.rows
        return len(self.consolidate().df.take(1)) == 0

    def equals(self, other: "ZSet") -> bool:
        """Group equality: ``self - other == 0``."""
        return self.sub(other).is_empty()

    def support_count(self) -> int:
        """Number of distinct data tuples with non-zero weight."""
        if self.rows is not None:
            return len(self.rows)
        return self.consolidate().df.count()

    def weight_of(self, **values) -> int:
        """Multiplicity of the row matching the given column values (a
        null matching a null)."""
        df = self.consolidate().df
        for k, v in values.items():
            df = df.where(F.col(k).eqNullSafe(F.lit(v)))
        rows = df.agg(F.coalesce(F.sum(W), F.lit(0)).alias(W)).collect()
        return rows[0][W]

    def isset(self) -> bool:
        """Definition 4.1: every multiplicity is exactly one."""
        bad = self.consolidate().df.where(F.col(W) != 1)
        return len(bad.take(1)) == 0

    def ispositive(self) -> bool:
        """Definition 4.2: every multiplicity is non-negative."""
        bad = self.consolidate().df.where(F.col(W) < 0)
        return len(bad.take(1)) == 0

    # ------------------------------------------------------------------ #
    # set/bag conversion
    # ------------------------------------------------------------------ #
    def distinct(self) -> "ZSet":
        """Definition 4.3: keep rows with positive weight, at weight 1."""
        if self.rows is not None:
            return self.local_like(ref.rdistinct(self.rows))
        return ZSet(
            self.consolidate()
            .df.where(F.col(W) > 0)
            .withColumn(W, F.lit(1).cast("long")),
            consolidated=True,
        )

    def to_set_df(self) -> DataFrame:
        """``toset``: the underlying set as a plain DataFrame (weight dropped)."""
        return self.distinct().df.drop(W)

    def to_bag_df(self) -> DataFrame:
        """Expand positive multiplicities into duplicate rows (bag view).

        Raises at action time if any weight is negative (a bag view of a
        non-positive Z-set is meaningless).
        """
        c = self.consolidate().df
        exploded = c.withColumn(
            "__i",
            F.explode(
                F.sequence(
                    F.lit(1),
                    F.when(F.col(W) > 0, F.col(W)).otherwise(
                        F.raise_error(F.lit("to_bag_df: negative multiplicity"))
                    ),
                )
            ),
        )
        return exploded.drop(W, "__i")

    def collect_dict(self) -> dict[tuple, int]:
        """Consolidated contents as ``{data-tuple: weight}`` (tests)."""
        if self.rows is not None:
            return dict(self.rows)
        cols = self.data_cols
        out: dict[tuple, int] = {}
        for r in self.consolidate().df.collect():
            out[tuple(r[c] for c in cols)] = r[W]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ZSet(cols={self.data_cols})"


def _ddl_schema(schema: str) -> StructType:
    """A data-column DDL string plus the weight column, as a ``StructType``."""
    return _parse_datatype_string(f"{schema}, {W} long" if schema else f"{W} long")
