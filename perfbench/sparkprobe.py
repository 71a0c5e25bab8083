"""Counters read from a live Spark session and from ``/proc``.

Everything here is read-only bookkeeping for the benchmark: exact job,
stage and task counts through job groups and ``statusTracker``, JVM GC
time from the GC MXBeans, CPU seconds and peak resident memory of the
driver JVM and this Python process, split per JVM thread, CPU time stolen by the hypervisor,
bytes held by cached RDDs, and the join/exchange operators of a plan.
"""
from __future__ import annotations

import os
import time

from pyspark.sql import DataFrame, SparkSession

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _status_kib(pid: int | str, field: str) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


class SparkProbe:
    """Counters for one SparkSession and the JVM behind it."""

    def __init__(self, spark: SparkSession):
        self.spark = spark
        self.sc = spark.sparkContext
        self._jsc = self.sc._jsc.sc()
        self._jvm = self.sc._jvm
        self.jvm_pid = int(self._jvm.java.lang.ProcessHandle.current().pid())
        self._tracker = self.sc.statusTracker()

    # -------------------------------------------------------------- jobs
    def set_group(self, group: str) -> None:
        self.sc.setJobGroup(group, group)

    def total_jobs(self) -> int:
        """Jobs submitted to this context so far (job ids are sequential)."""
        return int(self._jsc.dagScheduler().numTotalJobs())

    def group_counts(self, group: str, expected_jobs: int | None = None) -> dict:
        """Jobs, stages and tasks launched under ``group``.

        ``statusTracker`` keeps only the last ``spark.ui.retainedJobs``
        jobs. ``expected_jobs`` is the scheduler's own count of the jobs
        submitted while ``group`` was set; when the tracker holds fewer,
        the window was exceeded (or jobs ran under another group) and the
        count would be low, so this raises.
        """
        job_ids = list(self._tracker.getJobIdsForGroup(group))
        if expected_jobs is not None and len(job_ids) != expected_jobs:
            raise RuntimeError(
                f"statusTracker holds {len(job_ids)} jobs of group {group!r} but the "
                f"scheduler submitted {expected_jobs} meanwhile"
            )
        stages = tasks = 0
        for j in job_ids:
            info = self._tracker.getJobInfo(j)
            for s in info.stageIds if info else ():
                st = self._tracker.getStageInfo(s)
                if st is not None:
                    stages += 1
                    tasks += st.numTasks
        return {"jobs": len(job_ids), "stages": stages, "tasks": tasks}

    # ------------------------------------------------------ JVM / process
    def gc_s(self) -> float:
        beans = self._jvm.java.lang.management.ManagementFactory.getGarbageCollectorMXBeans()
        return sum(max(0, b.getCollectionTime()) for b in beans) / 1000.0

    def cpu_s(self) -> float:
        """CPU seconds used so far by the driver JVM plus this process."""
        with open(f"/proc/{self.jvm_pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        jvm = (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime, stime
        return jvm + time.process_time()

    def thread_cpu_s(self) -> dict[str, float]:
        """CPU seconds used so far by the JVM's live threads, summed per
        thread name with digits dropped ("C2 CompilerThread", "GC Thread#")."""
        out: dict[str, float] = {}
        base = f"/proc/{self.jvm_pid}/task"
        for tid in os.listdir(base):
            try:
                with open(f"{base}/{tid}/stat") as f:
                    head, tail = f.read().rsplit(")", 1)
            except FileNotFoundError:  # the thread ended meanwhile
                continue
            name = head.split("(", 1)[1].rstrip("0123456789")
            fields = tail.split()
            out[name] = out.get(name, 0.0) + (int(fields[11]) + int(fields[12])) / _CLK_TCK
        return out

    @staticmethod
    def jit_cpu_s(threads: dict[str, float]) -> float:
        """The JIT compiler threads' share of a ``thread_cpu_s`` reading.

        Exact only while those threads live as long as the JVM, which
        ``-XX:-UseDynamicNumberOfCompilerThreads`` (set in run.py) ensures.
        """
        return sum(v for k, v in threads.items() if k.startswith(("C1 Compiler", "C2 Compiler")))

    @staticmethod
    def steal_s() -> float:
        """CPU time the hypervisor has withheld from this machine so far,
        summed over its CPUs (``steal`` in ``/proc/stat``)."""
        with open("/proc/stat") as f:
            return int(f.readline().split()[8]) / _CLK_TCK

    def peak_rss_mb(self) -> dict:
        """Peak resident memory (VmHWM) of the JVM and of this process, MiB."""
        return {
            "jvm": _status_kib(self.jvm_pid, "VmHWM") / 1024.0,
            "python": _status_kib("self", "VmHWM") / 1024.0,
        }

    def storage_mb(self) -> float:
        """Memory held by cached and checkpointed RDDs, MiB."""
        infos = self._jsc.getRDDStorageInfo()
        return sum(int(i.memSize()) for i in infos) / 2**20

    # -------------------------------------------------------------- plans
    @staticmethod
    def plan_ops(df: DataFrame) -> dict:
        """Join and exchange operators in the physical plan of ``df``.

        Adaptive plans are read as first planned (``initialPlan``), before
        runtime re-optimisation that depends on the data, and the walk
        descends into the plans of cached relations. Each operator node is
        counted once, so a cached table read twice is counted once.
        """
        seen: set[int] = set()
        joins = exchanges = 0
        stack = [df._jdf.queryExecution().executedPlan()]
        while stack:
            p = stack.pop()
            pid = int(p.id())
            if pid in seen:
                continue
            seen.add(pid)
            cls = p.getClass().getSimpleName()
            if "Join" in cls or cls == "CartesianProductExec":
                joins += 1
            elif "Exchange" in cls and not cls.startswith("Reused"):
                exchanges += 1
            kids = p.children()
            stack += [kids.apply(i) for i in range(kids.size())]
            if cls == "AdaptiveSparkPlanExec":
                stack.append(p.initialPlan())
            elif cls == "InMemoryTableScanExec":
                stack.append(p.relation().cachedPlan())
        return {"joins": joins, "exchanges": exchanges}
