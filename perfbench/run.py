"""DBSP circuit-step benchmark: one workload per run, a JSON result as the last line.

Run from the repository root:

    python3 perfbench/run.py --workload view_churn --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a run whose timed steps alternate traced and untraced. The
Spark session comes from ``jobs/common.get_spark`` unchanged; everything
the run writes goes under ``.perfbench/`` in the working directory and is
removed at exit. Exits non-zero if any output check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

from tracing import summarize  # perfbench/ is on sys.path as the script's directory

WORKLOADS = ("view_churn", "tc_churn", "window_agg")


def end_to_end(res) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (res.setup_s, "s"),
        "load_s": (res.load_s, "s"),
        "step_p50_ms": (statistics.median(res.step_ms), "ms"),
        "change_rows_per_s": (sum(res.in_rows) / (sum(res.step_ms) / 1000.0), "1/s"),
        "step_cpu_ms": (statistics.median(res.step_cpu_ms), "ms"),
        "recompute_s": (res.recompute_s, "s"),
        "state_mb": (res.state_mb, "MB"),
    }


def per_layer(res) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced timed steps of a ``--trace 1`` run.

    ``.calls``, ``.ms`` and ``.jobs`` are means per traced step; ``ms`` and
    ``jobs`` include child spans and ``self_ms`` excludes them. A job counts
    in the span whose job group launched it. ``compile.evaluate.ms`` is per
    recompute, ``recursion.semi_naive.*`` per fixpoint. State counts are
    read at the end of the run. Layers a workload does not run read 0.
    """
    steps = summarize(res.spans, "step")
    recompute = summarize(res.spans, "recompute")
    n = len(res.traced_ms)
    root = steps["step"]

    def per_step(name: str, key: str) -> float:
        return steps[name][key] / n if name in steps else 0.0

    def mean_counter(attr: str) -> float:
        return statistics.fmean(getattr(c, attr) for c in res.traced_counters)

    return {
        "spark.jobs_per_step": (root["jobs"] / n, "count"),
        "spark.stages_per_step": (root["stages"] / n, "count"),
        "spark.tasks_per_step": (root["tasks"] / n, "count"),
        "spark.ms_per_job": (root["ms"] / max(root["jobs"], 1), "ms"),
        "spark.codegen_compiles_per_step": (mean_counter("codegen_compiles"), "count"),
        "spark.codegen_ms_per_step": (mean_counter("codegen_ms"), "ms"),
        "jvm.jit_ms_per_step": (mean_counter("jit_ms"), "ms"),
        "jvm.gc_ms_per_step": (mean_counter("gc_ms"), "ms"),
        "frame.materialize.calls": (per_step("frame.materialize", "calls"), "count"),
        "frame.materialize.ms": (per_step("frame.materialize", "ms"), "ms"),
        "frame.materialize.jobs": (per_step("frame.materialize", "jobs"), "count"),
        "frame.is_empty.calls": (per_step("frame.is_empty", "calls"), "count"),
        "frame.is_empty.ms": (per_step("frame.is_empty", "ms"), "ms"),
        "backend.accumulate.calls": (per_step("backend.accumulate", "calls"), "count"),
        "backend.accumulate.ms": (per_step("backend.accumulate", "ms"), "ms"),
        "backend.accumulate.jobs": (per_step("backend.accumulate", "jobs"), "count"),
        "backend.h.ms": (per_step("backend.h", "ms"), "ms"),
        "backend.h.jobs": (per_step("backend.h", "jobs"), "count"),
        "backend.state_fragments": (res.state["fragments"], "count"),
        "backend.state_mb": (res.state_mb, "MB"),
        "circuit.join.ms": (per_step("circuit.join", "ms"), "ms"),
        "circuit.join.jobs": (per_step("circuit.join", "jobs"), "count"),
        "circuit.distinct.ms": (per_step("circuit.distinct", "ms"), "ms"),
        "circuit.distinct.jobs": (per_step("circuit.distinct", "jobs"), "count"),
        "circuit.state_rows": (res.state.get("circuit_rows", 0), "count"),
        "compile.step.self_ms": (per_step("compile.step", "self_ms"), "ms"),
        "compile.evaluate.ms": (
            recompute["compile.evaluate"]["ms"] / recompute["recompute"]["calls"]
            if "compile.evaluate" in recompute else 0.0,
            "ms",
        ),
        "nested.inner_iterations": (per_step("nested.join", "calls"), "count"),
        "nested.jobs_per_inner_iteration": (
            steps["nested.step"]["jobs"] / steps["nested.join"]["calls"] if "nested.step" in steps else 0.0,
            "count",
        ),
        "nested.join.ms": (per_step("nested.join", "ms"), "ms"),
        "nested.distinct.ms": (per_step("nested.distinct", "ms"), "ms"),
        "nested.state_rows": (res.state.get("nested_rows", 0), "count"),
        "recursion.semi_naive.ms": (
            recompute["recursion.semi_naive"]["ms"] / recompute["recompute"]["calls"]
            if "recursion.semi_naive" in recompute else 0.0,
            "ms",
        ),
        "recursion.semi_naive.iterations": (res.semi_naive_iterations, "count"),
        "agg.step.ms": (per_step("agg.step", "ms"), "ms"),
        "agg.step.jobs": (per_step("agg.step", "jobs"), "count"),
        "agg.state_rows": (res.state.get("agg_rows", 0), "count"),
        "window.step.ms": (per_step("window.step", "ms"), "ms"),
        "window.step.jobs": (per_step("window.step", "jobs"), "count"),
        "window.state_rows": (res.state.get("window_rows", 0), "count"),
        "stream.batch_overhead_ms": (statistics.fmean(res.gaps_ms) if res.gaps_ms else 0.0, "ms"),
        "stream.batches": (res.batches, "count"),
        "output.collect_ms": (per_step("output.collect", "ms"), "ms"),
        "output.rows_per_step": (statistics.fmean(res.out_rows), "count"),
        "input.rows_per_step": (statistics.fmean(res.in_rows), "count"),
        "trace.overhead_ms": (statistics.median(res.traced_ms) - statistics.median(res.step_ms), "ms"),
    }


def _stop_jvm() -> None:
    """Stop Spark and wait for the JVM it launched; the JVM exits when its stdin closes."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    if gateway is None:
        return
    if SparkContext._active_spark_context is not None:
        SparkContext._active_spark_context.stop()
    gateway.proc.stdin.close()
    gateway.proc.wait(timeout=60)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src, jobs = os.path.join(root, "src"), os.path.join(root, "jobs")
    if not (os.path.isdir(os.path.join(src, "repro")) and os.path.isfile(os.path.join(jobs, "common.py"))):
        print("perfbench: run from the repository root (src/repro and jobs/common.py not found)", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    # keep Spark's block manager, shuffle files and temp files inside the checkout
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(work, "spark-local")
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.environ["JAVA_TOOL_OPTIONS"] = " ".join(
        filter(None, [os.environ.get("JAVA_TOOL_OPTIONS"), f"-Djava.io.tmpdir={work}/tmp"])
    )
    sys.path[:0] = [src, jobs]

    from common import get_spark  # jobs/common.py: the repo's own session settings

    import workloads

    try:
        if args.workload == "view_churn":
            res = workloads.view_churn(get_spark, args.seed, args.seconds, bool(args.trace))
        elif args.workload == "tc_churn":
            res = workloads.tc_churn(get_spark, args.seed, args.seconds, bool(args.trace))
        else:
            res = workloads.window_agg(get_spark, args.seed, args.seconds, bool(args.trace), work)
    finally:
        _stop_jvm()
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(res) if args.trace else end_to_end(res)
    failed = res.failed_steps + (not res.final_ok)
    print(f"workload={args.workload} seed={args.seed} timed_steps={len(res.step_ms) + len(res.traced_ms)} "
          f"step_error_rate={res.failed_steps / res.steps} final_check={'ok' if res.final_ok else 'FAILED'}")
    if not args.trace:
        w = res.timed_totals
        print(f"timed-window totals: "
              f"cpu_ms={sum(res.step_cpu_ms):.0f} steal_ms={w.steal_ms:.0f} jit_ms={w.jit_ms:.0f} gc_ms={w.gc_ms:.0f} "
              f"codegen_compiles={w.codegen_compiles} codegen_ms={w.codegen_ms:.0f}")
    print("timed step ms:", " ".join(f"{ms:.0f}" for ms in res.step_ms))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res.steps + 1,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
