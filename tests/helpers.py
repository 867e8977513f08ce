"""Shared test utilities: seeded random Z-sets and backend conversions."""
from __future__ import annotations

import itertools
import random

from repro.zset import ref
from repro.zset.frame import ZSet


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def rand_zset1(rnd: random.Random, keys: int = 6, entries: int = 4, max_w: int = 2):
    """Random reference Z-set over 1-column integer rows, signed weights."""
    out: dict = {}
    for _ in range(rnd.randint(0, entries)):
        k = (rnd.randint(0, keys),)
        w = rnd.choice([-max_w, -1, 1, max_w])
        out[k] = out.get(k, 0) + w
        if out[k] == 0:
            del out[k]
    return out


def rand_zset2(rnd: random.Random, keys: int = 4, entries: int = 4, max_w: int = 1):
    """Random reference Z-set over 2-column integer rows."""
    out: dict = {}
    for _ in range(rnd.randint(0, entries)):
        k = (rnd.randint(0, keys), rnd.randint(0, keys))
        w = rnd.choice([-max_w, max_w]) if max_w > 1 else rnd.choice([-1, 1])
        out[k] = out.get(k, 0) + w
        if out[k] == 0:
            del out[k]
    return out


def rand_set2(rnd: random.Random, keys: int = 4, entries: int = 5):
    """Random reference *set* (all weights 1) over 2-column rows."""
    rows = {
        (rnd.randint(0, keys), rnd.randint(0, keys)) for _ in range(rnd.randint(0, entries))
    }
    return {r: 1 for r in rows}


def ref_to_spark(spark, rz: dict, schema: str) -> ZSet:
    """Materialize a reference Z-set as a Spark ZSet."""
    rows = [row + (w,) for row, w in sorted(rz.items())]
    return ZSet.from_rows(spark, rows, schema)


_groups = itertools.count()


def count_jobs(spark, fn):
    """``(fn(), number of Spark jobs it launched)``, via a job group of
    its own (a fresh name per call: ``id(fn)`` of a freed lambda recurs)."""
    out, jobs, _ = count_jobs_and_stages(spark, fn)
    return out, jobs


def count_jobs_and_stages(spark, fn):
    """``(fn(), jobs it launched, stages that ran tasks in them)``; a
    stage skipped because its shuffle output existed ran none."""
    sc = spark.sparkContext
    group = f"count-jobs-{next(_groups)}"
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = [tracker.getStageInfo(s) for j in jobs for s in tracker.getJobInfo(j).stageIds]
    return out, len(jobs), sum(1 for st in stages if st is not None and st.numCompletedTasks > 0)


def spark_to_ref(z: ZSet) -> dict:
    """Collect a Spark ZSet into a reference dict."""
    return z.collect_dict()


# The canonical 2-column join used across tests: rows (a, b) ⋈ (b, c) on
# left.col1 == right.col0, producing (a, c) — the transitive-closure step.
def ref_join_ac(a: dict, b: dict) -> dict:
    return ref.rjoin(
        a, b, key_a=lambda r: r[1], key_b=lambda r: r[0], out=lambda ra, rb: (ra[0], rb[1])
    )
