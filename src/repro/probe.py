"""Plan and job counters for one query: the joins and exchanges of a
DataFrame's executed plan, and the Spark jobs an action launches. Both are
read from the session (``queryExecution``, the DAG scheduler and the status
tracker), so they need no Spark UI."""
from __future__ import annotations

import time
import uuid

from pyspark.sql import DataFrame, SparkSession


def plan_ops(df: DataFrame) -> tuple[int, int]:
    """Join and exchange operators of ``df``'s executed plan, read before
    adaptive re-optimisation and through cached relations, each operator
    counted once."""
    seen: set[int] = set()
    joins = exchanges = 0
    stack = [df._jdf.queryExecution().executedPlan()]
    while stack:
        p = stack.pop()
        if int(p.id()) in seen:
            continue
        seen.add(int(p.id()))
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
    return joins, exchanges


def counted_jobs(spark: SparkSession, label: str, action) -> tuple[object, int]:
    """Run ``action()`` under a fresh job group: (its result, the Spark jobs
    it launched), counted by the status tracker and checked against the
    scheduler's count."""
    sc = spark.sparkContext
    scheduler = sc._jsc.sc().dagScheduler()
    group = f"{label}-{uuid.uuid4().hex}"
    jobs0 = scheduler.numTotalJobs()
    sc.setJobGroup(group, group)
    try:
        result = action()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    submitted = scheduler.numTotalJobs() - jobs0
    # the status listener runs asynchronously; wait until it saw every job
    tracker = sc.statusTracker()
    deadline = time.monotonic() + 30
    while len(tracker.getJobIdsForGroup(group)) < submitted and time.monotonic() < deadline:
        time.sleep(0.05)
    jobs = len(tracker.getJobIdsForGroup(group))
    if jobs != submitted:
        raise RuntimeError(f"status tracker saw {jobs} of {submitted} jobs in group {group}")
    return result, jobs
