"""Engine counters read from outside the program.

CPU comes from ``/proc`` for this Python process and the JVM it launched, and
the machine's steal time (CPU taken by other guests of the host) from
``/proc/stat``;
JIT and GC time from the JVM's management beans; Janino compiles from
Spark's ``CodegenMetrics``; jobs, stages and tasks from the
``StatusTracker``; state bytes from the block manager's RDD storage info.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

_TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")


def _cpu_ms(pid: int | str) -> float:
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_MS  # utime + stime


def _steal_ms() -> float:
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) * _TICK_MS


@dataclass
class Counters:
    cpu_ms: float
    steal_ms: float
    jit_ms: float
    gc_ms: float
    codegen_compiles: int
    codegen_ms: float

    def __sub__(self, o: "Counters") -> "Counters":
        return Counters(*(a - b for a, b in zip(vars(self).values(), vars(o).values())))


class EngineProbe:
    """Handles on one SparkContext and the JVM behind it."""

    def __init__(self, sc):
        self.sc = sc
        jvm = sc._jvm
        self.jvm_pid = jvm.java.lang.ProcessHandle.current().pid()
        mf = jvm.java.lang.management.ManagementFactory
        self._jit = mf.getCompilationMXBean()
        self._gcs = list(mf.getGarbageCollectorMXBeans())
        self._codegen = jvm.org.apache.spark.metrics.source.CodegenMetrics
        self._codegen_time = jvm.org.apache.spark.sql.catalyst.expressions.codegen.CodeGenerator
        self.tracker = sc.statusTracker()

    def cpu_ms(self) -> float:
        """CPU time used so far by this Python process plus its JVM."""
        return _cpu_ms("self") + _cpu_ms(self.jvm_pid)

    def counters(self) -> Counters:
        return Counters(
            cpu_ms=self.cpu_ms(),
            steal_ms=_steal_ms(),
            jit_ms=float(self._jit.getTotalCompilationTime()),
            gc_ms=float(sum(g.getCollectionTime() for g in self._gcs)),
            codegen_compiles=int(self._codegen.METRIC_COMPILATION_TIME().getCount()),
            codegen_ms=self._codegen_time.compileTime() / 1e6,
        )

    def drain_events(self) -> None:
        """Wait until the listener bus has delivered every job event so far."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()

    def jobs_of_group(self, group: str) -> tuple[int, int, int]:
        """(jobs, stages run, tasks) launched under a job group."""
        jobs = stages = tasks = 0
        for jid in self.tracker.getJobIdsForGroup(group):
            jobs += 1
            info = self.tracker.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                st = self.tracker.getStageInfo(sid)
                if st is not None and st.numCompletedTasks > 0:  # skipped stages ran none
                    stages += 1
                    tasks += st.numCompletedTasks
        return jobs, stages, tasks

    def state_bytes(self, zsets) -> int:
        """Block-manager bytes of the checkpointed RDDs behind the given Z-sets."""
        ids = set()
        for z in zsets:
            leaves = z.df._jdf.queryExecution().analyzed().collectLeaves()
            for i in range(leaves.size()):
                leaf = leaves.apply(i)
                if leaf.getClass().getSimpleName() == "LogicalRDD":
                    ids.add(leaf.rdd().id())
        return sum(
            r.memSize() + r.diskSize()
            for r in self.sc._jsc.sc().getRDDStorageInfo()
            if r.id() in ids
        )
