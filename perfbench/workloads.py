"""The benchmark's workloads: closed loops with one client, this process.

Each workload sets up a Spark session and a circuit several times (the
median is ``setup_s``), loads a bulk first step (``load_s``), runs
a few untimed warm-up steps and then the timed steps. The next change is
submitted only after the previous step's output delta has been collected.
Every step is checked against an independent reference outside the timer,
and the integrated output is checked against a from-scratch recompute at
the end. In a traced run, timed steps alternate between traced and
untraced so the tracing overhead is measured in the same process.
"""
from __future__ import annotations

import os
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import pandas as pd
from repro.core import recursion, tc
from repro.core.backend import SparkZSetOps
from repro.core.circuit import IncrementalDistinct, IncrementalJoin
from repro.core.nested import IncrementalRecursive, NestedIncrementalDistinct, NestedIncrementalJoin
from repro.core.operators import IncrementalGroupAggregate
from repro.core.window import TimeRangeWindow
from repro.sql import compile as sql_compile
from repro.sql import translate as t
from repro.streaming.structured import run_stream
from repro.zset import aggregates
from repro.zset.frame import ZSet

import inputs
from probes import Counters, EngineProbe
from reference import TcReference, ViewReference, closure, groups_equal, window_groups
from tracing import Tracer

WARMUP = 1  # untimed steps after the load, whose JIT and codegen work is heaviest
SETUP_CYCLES = 3

VIEW_SF = 0.01  # 60k lineitem + 15k orders rows, 1,250 changed rows per step
VIEW_STEP_S = 2.5  # nominal seconds per step: turns --seconds into a step count

TC_LAYERS, TC_WIDTH, TC_FANOUT = 3, 20, 2  # 80 base edges, closure depth 2
TC_STEP_S = 5.0
# A Figure-2 step costs about as much as two steps of the other workloads;
# the load replays the same inner loop, so it stands in for the warm-up.
TC_WARMUP = 0

WINDOW = 20  # [RANGE 20 batches]
WINDOW_EVENTS = 2000
WINDOW_KEYS = 5000
WINDOW_STEP_S = 2.5
AGGS = [("s", "sum", "v"), ("n", "count", None)]


def timed_steps(seconds: int, nominal_step_s: float) -> int:
    """Steps in the timed window: a fixed count per ``--seconds``, never fewer than 3.

    The count does not depend on how fast the program runs, so every run
    ends with the same state and the same recompute work.
    """
    return max(3, round(seconds / nominal_step_s))


@dataclass
class Result:
    setup_s: float = 0.0
    load_s: float = 0.0
    step_ms: list[float] = field(default_factory=list)  # timed steps, untraced
    traced_ms: list[float] = field(default_factory=list)  # timed steps, traced
    step_cpu_ms: list[float] = field(default_factory=list)
    in_rows: list[int] = field(default_factory=list)  # per timed step
    out_rows: list[int] = field(default_factory=list)
    gaps_ms: list[float] = field(default_factory=list)  # Structured Streaming time between handler calls
    recompute_s: float = 0.0
    state_mb: float = 0.0
    steps: int = 0
    failed_steps: int = 0
    final_ok: bool = False
    timed_totals: Counters | None = None  # engine counters over the timed window
    traced_counters: list[Counters] = field(default_factory=list)
    batches: int = 0
    semi_naive_iterations: int = 0
    state: dict[str, float] = field(default_factory=dict)  # traced run: end-of-run state counts
    spans: list = field(default_factory=list)

    def check(self, ok: bool) -> None:
        self.steps += 1
        self.failed_steps += not ok


def _start(get_spark, build):
    """Start the session (launching the JVM) and time warm re-creations of session + circuit."""
    spark = get_spark("perfbench")
    times = []
    for _ in range(SETUP_CYCLES):
        spark.stop()
        t0 = time.perf_counter()
        spark = get_spark("perfbench")
        circuit = build(spark)
        times.append(time.perf_counter() - t0)
    return spark, circuit, statistics.median(times)


def _zset(spark, pdf: pd.DataFrame) -> ZSet:
    return ZSet(spark.createDataFrame(pdf))


def _collect(z) -> dict[tuple, int]:
    """The Z-set as ``{row: weight}``, weights of repeated rows summed, zeros dropped."""
    acc: Counter = Counter()
    for r in z.df.collect():
        acc[tuple(r[:-1])] += r[-1]
    return {row: w for row, w in acc.items() if w}


def _apply(acc: Counter, delta: dict[tuple, int]) -> None:
    for row, w in delta.items():
        acc[row] += w
        if acc[row] == 0:
            del acc[row]


def _install_spans(tracer: Tracer) -> None:
    tracer.wrap(ZSet, "materialize", "frame.materialize")
    tracer.wrap(ZSet, "is_empty", "frame.is_empty")
    tracer.wrap(SparkZSetOps, "accumulate", "backend.accumulate")
    tracer.wrap(SparkZSetOps, "h", "backend.h")
    tracer.wrap(IncrementalJoin, "step", "circuit.join")
    tracer.wrap(IncrementalDistinct, "step", "circuit.distinct")
    tracer.wrap(sql_compile.IncrementalView, "step", "compile.step")
    tracer.wrap(sql_compile, "evaluate", "compile.evaluate")
    tracer.wrap(TimeRangeWindow, "step", "window.step")
    tracer.wrap(IncrementalGroupAggregate, "step", "agg.step")
    tracer.wrap(IncrementalRecursive, "step", "nested.step")
    tracer.wrap(NestedIncrementalJoin, "inner_step", "nested.join")
    tracer.wrap(NestedIncrementalDistinct, "inner_step", "nested.distinct")
    tracer.wrap(recursion, "semi_naive_fixpoint", "recursion.semi_naive")


class _Loop:
    """Per-step bookkeeping shared by the workloads: timing, CPU, tracing, checks."""

    def __init__(self, spark, trace: bool, res: Result, warmup: int = WARMUP):
        self.warmup = warmup
        self.probe = EngineProbe(spark.sparkContext)
        self.tracer = Tracer(spark.sparkContext, self.probe) if trace else None
        self.res = res
        if self.tracer:
            _install_spans(self.tracer)

    def run(self, index: int, body):
        """Run step ``index`` as ``body(tracer or None)``; returns (output, wall ms, cpu ms, traced)."""
        traced = self.tracer is not None and index >= self.warmup and (index - self.warmup) % 2 == 0
        tracer = self.tracer if traced else None
        before = self.probe.counters() if traced else None
        cpu0 = self.probe.cpu_ms()
        t0 = time.perf_counter()
        with _optional_span(tracer, "step"):
            out = body(tracer)
        ms = (time.perf_counter() - t0) * 1000.0
        cpu = self.probe.cpu_ms() - cpu0
        if traced:
            self.tracer.harvest()
            self.res.traced_counters.append(self.probe.counters() - before)
        return out, ms, cpu, traced

    def record(self, index: int, ms: float, cpu: float, traced: bool, n_in: int, n_out: int):
        if index < self.warmup:
            return
        (self.res.traced_ms if traced else self.res.step_ms).append(ms)
        self.res.step_cpu_ms.append(cpu)
        self.res.in_rows.append(n_in)
        self.res.out_rows.append(n_out)

    def recompute(self, fn) -> dict:
        """Time one from-scratch evaluation ``fn()`` as ``recompute_s``; returns its result."""
        t0 = time.perf_counter()
        with _optional_span(self.tracer, "recompute"):
            got = fn()
        self.res.recompute_s = time.perf_counter() - t0
        return got

    def drive(self, load, changes, submit, expect, n_rows) -> Counter:
        """Load, then submit every change as one step; returns the integrated output.

        ``submit(tracer, change)`` hands one change to the circuit and
        returns its output delta; ``expect(change)`` is the reference delta (``None``
        for the load) and ``n_rows(change)`` the change's input rows.
        """
        res, integrated = self.res, Counter()
        t0 = time.perf_counter()
        out = _collect(load())
        res.load_s = time.perf_counter() - t0
        res.check(out == expect(None))
        _apply(integrated, out)
        for i, change in enumerate(changes):
            def body(tracer, change=change):
                z = submit(tracer, change)
                with _optional_span(tracer, "output.collect"):
                    return _collect(z)

            if i == self.warmup:
                start = self.probe.counters()
            out, ms, cpu, traced = self.run(i, body)
            self.record(i, ms, cpu, traced, n_rows(change), len(out))
            res.check(out == expect(change))
            _apply(integrated, out)
        res.timed_totals = self.probe.counters() - start
        return integrated

    def finish(self, state_zsets) -> None:
        self.res.state_mb = self.probe.state_bytes(state_zsets) / 1e6
        if self.tracer:
            self.tracer.unwrap_all()
            self.res.spans = self.tracer.spans
            self.res.state["fragments"] = sum(z.segments for z in state_zsets)


def _optional_span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def view_ast() -> t.Node:
    """SELECT DISTINCT o_custkey, l_partkey over orders JOIN lineitem, both filtered (T5)."""
    return t.t_project(
        t.t_join(
            t.t_select(t.Rel("orders"), "o_totalprice > 100000"),
            t.t_select(t.Rel("lineitem"), "l_quantity > 25"),
            on=[("o_orderkey", "l_orderkey")],
        ),
        {"c": "o_custkey", "p": "l_partkey"},
    )


def view_churn(get_spark, seed: int, seconds: int, trace: bool) -> Result:
    """T5's view, compiled by Algorithm 4.8, under orders/lineitem churn.

    State is O(R) and much larger than each change; every step runs two
    join terms, ``H`` and three ``accumulate`` calls over it.
    """
    data = inputs.view_churn(seed, VIEW_SF, WARMUP + timed_steps(seconds, VIEW_STEP_S))
    ref = ViewReference(data.orders, data.lineitem)
    res = Result()
    spark, iv, res.setup_s = _start(get_spark, lambda _s: sql_compile.IncrementalView(view_ast()))
    loop = _Loop(spark, trace, res)

    def submit(tracer, change):
        with _optional_span(tracer, "input"):
            ch = {"orders": _zset(spark, change[0]), "lineitem": _zset(spark, change[1])}
        return iv.step(ch)

    view = loop.drive(
        lambda: iv.step({"orders": _zset(spark, data.orders), "lineitem": _zset(spark, data.lineitem)}),
        data.changes,
        submit,
        lambda change: ref.step() if change is None else ref.step(*change),
        lambda change: len(change[0]) + len(change[1]),
    )

    final = {"orders": data.final_orders.assign(**{inputs.W: 1}),
             "lineitem": data.final_lineitem.assign(**{inputs.W: 1})}
    got = loop.recompute(lambda: _collect(sql_compile.evaluate(
        iv.ast, {k: _zset(spark, v) for k, v in final.items()}).consolidate()))
    res.final_ok = got == dict(view) == {r: 1 for r in ref.view}
    ref.close()

    state = [z for j in iv._joins.values() for z in (j._ia, j._ib)]
    state += [d._i for d in iv._distincts.values()]
    if trace:
        res.state["circuit_rows"] = sum(z.df.count() for z in state)
    loop.finish(state)
    return res


def tc_churn(get_spark, seed: int, seconds: int, trace: bool) -> Result:
    """Transitive closure maintained by the Figure-2 nested circuit under edge churn.

    State is tiny; each step replays the inner fixpoint iterations, so the
    number of Spark jobs per step, not the data, sets its cost.
    """
    data = inputs.tc_churn(seed, TC_LAYERS, TC_WIDTH, TC_FANOUT, TC_WARMUP + timed_steps(seconds, TC_STEP_S))
    ref = TcReference(data.edges)
    res = Result()
    spark, rec, res.setup_s = _start(
        get_spark, lambda _s: IncrementalRecursive(SparkZSetOps(), tc.tc_base_fn, tc.tc_join_fn))
    loop = _Loop(spark, trace, res, TC_WARMUP)

    def edges(rows) -> ZSet:
        return ZSet.from_rows(spark, rows, tc.E_SCHEMA)

    def submit(tracer, change):
        with _optional_span(tracer, "input"):
            z = edges(change)
        return rec.step(z)

    reach = loop.drive(
        lambda: rec.step(edges([(h, t_, 1) for h, t_ in data.edges])),
        data.changes,
        submit,
        lambda change: ref.step() if change is None else ref.step(change),
        len,
    )

    def semi_naive():
        ops = rec.ops
        body = recursion.IncBody(ops, tc.tc_base_fn, tc.tc_join_fn)
        out, stats = recursion.semi_naive_fixpoint(ops, body, tc.edges_zset(spark, data.final))
        res.semi_naive_iterations = stats.iterations
        return _collect(out)

    got = loop.recompute(semi_naive)
    res.final_ok = got == dict(reach) == {r: 1 for r in closure(data.final)}

    lists = [rec.join.b1, rec.join.a1, rec.join.a12, rec.dist.u, rec.dist.v_prev]
    state = list({id(z): z for tl in lists for z in tl.vals}.values())  # a "last" tail repeats one Z-set
    if trace:
        res.state["nested_rows"] = sum(z.df.count() for z in state)
    loop.finish(state)
    return res


def window_agg(get_spark, seed: int, seconds: int, trace: bool, work: str) -> Result:
    """Events read by ``run_stream`` through ``[RANGE 20]`` and a grouped SUM/COUNT.

    One parquet file per micro-batch; the first batch is a backlog of one
    full window, so every timed batch both inserts and evicts.
    """
    n_timed = timed_steps(seconds, WINDOW_STEP_S)
    batches = inputs.window_events(seed, 1 + WARMUP + n_timed, WINDOW, WINDOW_EVENTS, WINDOW_KEYS)
    in_dir = os.path.join(work, "events")
    os.makedirs(in_dir)
    for b, pdf in enumerate(batches):  # the file source picks files oldest first
        path = os.path.join(in_dir, f"b{b:05d}.parquet")
        pdf.to_parquet(path)
        os.utime(path, (1_000_000_000 + b, 1_000_000_000 + b))

    def build(spark):
        stream = (spark.readStream.schema("k int, ts int, v double, id long")
                  .option("maxFilesPerTrigger", 1).parquet(in_dir))
        return TimeRangeWindow("ts", width=WINDOW - 1), IncrementalGroupAggregate(["k"], AGGS), stream

    res = Result()
    spark, (win, agg, stream), res.setup_s = _start(get_spark, build)
    loop = _Loop(spark, trace, res)
    groups: Counter = Counter()  # integrated output rows (k, s, n)
    live = batches[0].iloc[:0]
    totals_start = None
    last_end = last_cpu = 0.0  # when the previous handler call returned

    def on_change(delta, batch_id: int) -> None:
        nonlocal live, totals_start, last_end, last_cpu
        gap_ms = (time.perf_counter() - last_end) * 1000.0
        cpu_gap = loop.probe.cpu_ms() - last_cpu
        if batch_id == WARMUP + 1:
            totals_start = loop.probe.counters()
        theta = WINDOW - 1 + batch_id

        def body(tracer):
            z = agg.step(win.step(delta, theta))
            with _optional_span(tracer, "output.collect"):
                return _collect(z)

        # batch b is step b-1: batch 0 is the load, batches 1..WARMUP warm up
        out, ms, cpu, traced = loop.run(batch_id - 1, body)
        if batch_id == 0:
            res.load_s = time.perf_counter() - started
        else:
            loop.record(batch_id - 1, gap_ms + ms, cpu_gap + cpu, traced, len(batches[batch_id]), len(out))
            if batch_id > WARMUP:
                res.gaps_ms.append(gap_ms)
        _apply(groups, out)
        live = pd.concat([live, batches[batch_id]], ignore_index=True)
        live = live[live["ts"] >= theta - (WINDOW - 1)]
        got = {k: (s, n) for (k, s, n), w in groups.items() if w == 1}
        res.check(len(got) == len(groups) and groups_equal(got, window_groups(live)))
        res.batches += 1
        last_end, last_cpu = time.perf_counter(), loop.probe.cpu_ms()

    started = last_end = time.perf_counter()
    last_cpu = loop.probe.cpu_ms()
    run_stream(stream, on_change, os.path.join(work, "checkpoint"))
    res.timed_totals = loop.probe.counters() - totals_start

    got = loop.recompute(lambda: _collect(aggregates.group_agg(_zset(spark, live.assign(**{inputs.W: 1})), ["k"], AGGS)))
    res.final_ok = (res.batches == len(batches) and got == dict(groups)
                    and groups_equal({k: (s, n) for k, s, n in got}, window_groups(live)))

    state = [win.contents(), agg._i]
    if trace:
        res.state["window_rows"] = state[0].df.count()
        res.state["agg_rows"] = state[1].df.count()
    loop.finish(state)
    return res
