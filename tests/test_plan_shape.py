"""Plan-shape gate: Spark jobs and executed-plan joins/exchanges of every
Table II query on the interval backend, and Spark jobs of Q2, Q6 and Q7 on
the point backend, each bounded by the figure the current evaluator
reaches, next to the exact output size of each query. A plan change that adds a job, a join or an exchange fails here;
one that removes some should lower the bound.

Every query runs from a cleared cache and a fresh load, as a benchmark
pass does: Spark's cache manager would otherwise serve test tables cached
by an earlier evaluator and make the counts depend on query order. The
graph gives every query a non-empty answer, because adaptive execution
skips work on empty relations and launches fewer jobs for them.
"""
import time
import uuid

import pytest

from repro.tpg.generator import contact_tracing
from repro.tpg.model import SparkITPG
from repro.trpq import queries as Q
from repro.trpq.interval_eval import IntervalEvaluator
from repro.trpq.match import eval_match_interval, eval_match_point
from repro.trpq.spark_eval import PointEvaluator

# (output size, Spark jobs, executed-plan joins, executed-plan exchanges) per
# query, as measured with the test session's configuration (8 shuffle
# partitions, broadcast joins off); run with -s to print the measured
# figures. The output is exact: coalesced rows for Q1–Q5, bag counts (one
# row per witness pair) for Q6–Q12.
BOUNDS = {
    "Q1": (56, 8, 1, 2),
    "Q2": (42, 9, 2, 3),
    "Q3": (2, 9, 2, 3),
    "Q4": (10, 9, 2, 3),
    "Q5": (1, 24, 9, 16),
    "Q6": (38, 13, 5, 8),
    "Q7": (17, 26, 11, 20),
    "Q8": (66, 24, 9, 16),
    "Q9": (11, 28, 13, 22),
    "Q10": (7, 28, 13, 22),
    "Q11": (15, 39, 22, 36),
    "Q12": (26, 48, 29, 48),
}

# (output size, Spark jobs) per query on the point backend (Theorem C.1
# evaluator), same configuration; the point evaluator's relations are lazy
# except where the repetition recursions checkpoint them.
POINT_BOUNDS = {"Q2": (174, 6), "Q6": (38, 12), "Q7": (17, 48)}


@pytest.fixture(scope="module")
def gate_data():
    return contact_tracing(persons=20, positivity=0.3, seed=10)


def plan_ops(df) -> tuple[int, int]:
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


def counted_jobs(spark, label: str, action) -> tuple[object, int]:
    """Run ``action()`` under a fresh job group: (its result, the Spark jobs
    it launched), counted by the status tracker and checked against the
    scheduler's count."""
    sc = spark.sparkContext
    scheduler = sc._jsc.sc().dagScheduler()
    group = f"plan-shape-{label}-{uuid.uuid4().hex}"
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
    assert jobs == submitted
    return result, jobs


def run_query(spark, data, name: str) -> tuple[int, int, int, int]:
    """One Table II query from a cleared cache: (output size, jobs,
    joins, exchanges)."""
    spark.catalog.clearCache()
    ev = IntervalEvaluator(SparkITPG.from_data(spark, data))

    def action():
        ib = eval_match_interval(ev, Q.query(name))
        ib.materialize()
        if name in Q.STRUCTURAL_ONLY:
            return ib, ib.coalesced().count()
        return ib, ib.points(distinct=False).count()

    (ib, out), jobs = counted_jobs(spark, name, action)
    return (out, jobs, *plan_ops(ib.df))


def run_point_query(spark, data, name: str) -> tuple[int, int]:
    """One query on the point backend from a cleared cache and a fresh
    evaluator: (output size, jobs)."""
    spark.catalog.clearCache()
    ev = PointEvaluator(SparkITPG.from_data(spark, data).to_tpg())
    return counted_jobs(spark, f"point-{name}", lambda: eval_match_point(ev, Q.query(name)).count())


@pytest.mark.parametrize("name", Q.TABLE2)
def test_plan_shape_bounded(spark, gate_data, name):
    out, jobs, joins, exchanges = run_query(spark, gate_data, name)
    print(f"[plan-shape] {name}: output={out} jobs={jobs} joins={joins} exchanges={exchanges}")
    assert out > 0, "the gate needs a non-empty answer (see module docstring)"
    output, max_jobs, max_joins, max_exchanges = BOUNDS[name]
    assert out == output
    assert jobs <= max_jobs
    assert joins <= max_joins
    assert exchanges <= max_exchanges


@pytest.mark.parametrize("name", sorted(POINT_BOUNDS))
def test_point_plan_shape_bounded(spark, gate_data, name):
    out, jobs = run_point_query(spark, gate_data, name)
    print(f"[plan-shape] point {name}: output={out} jobs={jobs}")
    assert out > 0, "the gate needs a non-empty answer (see module docstring)"
    output, max_jobs = POINT_BOUNDS[name]
    assert out == output
    assert jobs <= max_jobs
