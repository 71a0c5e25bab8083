"""Plan-shape gate for the interval backend: Spark jobs and executed-plan
joins/exchanges of every Table II query, each bounded by the figure the
current evaluator reaches. A plan change that adds a job, a join or an
exchange fails here; one that removes some should lower the bound.

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
from repro.trpq.match import eval_match_interval

# (Spark jobs, executed-plan joins, executed-plan exchanges) per query, as
# measured with the test session's configuration (8 shuffle partitions,
# broadcast joins off); run with -s to print the measured figures.
BOUNDS = {
    "Q1": (8, 1, 2),
    "Q2": (9, 2, 3),
    "Q3": (9, 2, 3),
    "Q4": (9, 2, 3),
    "Q5": (24, 9, 16),
    "Q6": (13, 5, 8),
    "Q7": (26, 11, 20),
    "Q8": (24, 9, 16),
    "Q9": (28, 13, 22),
    "Q10": (28, 13, 22),
    "Q11": (39, 22, 36),
    "Q12": (48, 29, 48),
}


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


def run_query(spark, data, name: str) -> tuple[int, int, int, int]:
    """One Table II query from a cleared cache: (output size, jobs,
    joins, exchanges)."""
    sc = spark.sparkContext
    spark.catalog.clearCache()
    ev = IntervalEvaluator(SparkITPG.from_data(spark, data))
    scheduler = sc._jsc.sc().dagScheduler()
    group = f"plan-shape-{name}-{uuid.uuid4().hex}"
    jobs0 = scheduler.numTotalJobs()
    sc.setJobGroup(group, group)
    try:
        ib = eval_match_interval(ev, Q.query(name))
        ib.materialize()
        if name in Q.STRUCTURAL_ONLY:
            out = ib.coalesced().count()
        else:
            out = ib.points(distinct=False).count()
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
    return (out, jobs, *plan_ops(ib.df))


@pytest.mark.parametrize("name", Q.TABLE2)
def test_plan_shape_bounded(spark, gate_data, name):
    out, jobs, joins, exchanges = run_query(spark, gate_data, name)
    print(f"[plan-shape] {name}: output={out} jobs={jobs} joins={joins} exchanges={exchanges}")
    assert out > 0, "the gate needs a non-empty answer (see module docstring)"
    max_jobs, max_joins, max_exchanges = BOUNDS[name]
    assert jobs <= max_jobs
    assert joins <= max_joins
    assert exchanges <= max_exchanges
