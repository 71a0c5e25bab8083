"""Plan-shape gate: Spark jobs and executed-plan joins/exchanges of every
Table II query on the interval backend, and Spark jobs of Q2, Q5, Q6, Q7
and Q9 on the point backend, each bounded by the figure the current evaluator
reaches, next to the exact output size of each query. A plan change that
adds a job, a join or an exchange fails here; one that removes some should
lower the bound. A pattern test alone is one selection over a loaded
relation, with no join and no exchange, on either backend.

Every query runs on a fresh load, as a benchmark pass does. The loaded
graph relations are local checkpoints, hash-partitioned by object id, so
their plans hold no rows and a join keyed on the object reads them without
an exchange. Nothing is cached; the cleared cache only guards against a
test that caches. Materialising Steps 1–2 checkpoints the interval relation and
counts it in the same Spark job; Step 3 reads that checkpoint. The session
plans without adaptive execution, so each action is one Spark job however
many exchanges its plan has, and an empty answer costs as many jobs as a
non-empty one. The graph still gives every query a non-empty answer, so
that each output bound checks rows.
"""
import pytest
from pyspark.sql import functions as F

from repro.probe import counted_jobs, plan_ops
from repro.session import get_spark
from repro.tpg.model import SparkITPG
from repro.trpq import queries as Q
from repro.trpq.interval_eval import IntervalEvaluator
from repro.trpq.match import eval_match_interval, eval_match_point, segment_asts
from repro.trpq.parser import parse_match
from repro.trpq.spark_eval import PointEvaluator

# (output size, Spark jobs, executed-plan joins, executed-plan exchanges) per
# query, as measured with the program's session (shuffle partitions equal to
# the default parallelism, adaptive execution and broadcast joins off), where
# a query is one job for Steps 1–2 and one for Step 3; run with -s to print
# the measured figures. The output is exact: coalesced rows for Q1–Q5, bag counts (one
# row per witness pair) for Q6–Q12.
BOUNDS = {
    "Q1": (56, 2, 0, 0),
    "Q2": (42, 2, 0, 0),
    "Q3": (2, 2, 0, 0),
    "Q4": (10, 2, 0, 0),
    "Q5": (1, 2, 2, 2),
    "Q6": (38, 2, 1, 0),
    "Q7": (17, 2, 3, 2),
    "Q8": (66, 2, 3, 3),
    "Q9": (11, 2, 4, 4),
    "Q10": (7, 2, 4, 4),
    "Q11": (15, 2, 8, 8),
    "Q12": (26, 2, 10, 10),
}

# (output size, Spark jobs) per query on the point backend (Theorem C.1
# evaluator), same configuration; the point evaluator's relations are lazy
# except where the repetition recursions checkpoint them, so a query
# without repetition is one job. Q9's ``PREV*`` is a doubling fixpoint
# (``_star``), one checkpoint job per round; Q7's ``PREV`` and hops are
# not; Q5's and Q7's chains are one walk each, with no relation per link.
POINT_BOUNDS = {"Q2": (174, 1), "Q5": (2, 1), "Q6": (38, 1), "Q7": (17, 1), "Q9": (2, 11)}


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

    (ib, out), jobs = counted_jobs(spark, f"plan-shape-{name}", action)
    return (out, jobs, *plan_ops(ib.df))


def run_point_query(spark, data, name: str) -> tuple[int, int]:
    """One query on the point backend from a cleared cache and a fresh
    evaluator: (output size, jobs)."""
    spark.catalog.clearCache()
    ev = PointEvaluator(SparkITPG.from_data(spark, data).to_tpg())
    return counted_jobs(spark, f"plan-shape-point-{name}", lambda: eval_match_point(ev, Q.query(name)).count())


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


def test_pattern_test_is_one_selection(spark, gate_data):
    """Q2's pattern ``Node ∧ Person ∧ risk↦low ∧ ∃`` reads one relation:
    no join, no exchange."""
    spark.catalog.clearCache()
    ev = IntervalEvaluator(SparkITPG.from_data(spark, gate_data))
    (seg,) = segment_asts(Q.query("Q2"))
    tt = ev.test_table(seg.test)
    assert tt.count() > 0
    assert plan_ops(tt) == (0, 0)


def test_point_pattern_test_is_one_selection(spark, gate_data):
    """The point twin: Q2's pattern reads one point relation, whose rows
    carry kind and label, with no join and no exchange."""
    spark.catalog.clearCache()
    ev = PointEvaluator(SparkITPG.from_data(spark, gate_data).to_tpg())
    (seg,) = segment_asts(Q.query("Q2"))
    pairs = ev.test_pairs(seg.test)
    assert pairs.count() > 0
    assert plan_ops(pairs) == (0, 0)


def test_edge_hop_is_one_join(spark, gate_data):
    """An anonymous edge between two node patterns is traversed as one join
    with the edge pattern's scan: the walk starts from ``x``'s scan, the
    hop ``F / meets / F`` adds one join and ``y``'s test one more, and
    every scan is join-free."""
    spark.catalog.clearCache()
    ev = IntervalEvaluator(SparkITPG.from_data(spark, gate_data))
    ib = eval_match_interval(ev, parse_match("MATCH (x:Person)-[:meets]->(y:Person) ON g"))
    assert ib.df.count() > 0
    assert plan_ops(ib.df)[0] == 2


def test_materialize_counts_and_pins_steps12(spark, gate_data):
    """``materialize()`` returns the relation's size, leaves ``df`` the lazy
    plan of Steps 1–2 (its joins and exchanges are still readable), and
    Step 3 then reads the checkpoint: no join, no exchange."""
    ev = IntervalEvaluator(SparkITPG.from_data(spark, gate_data))
    ib = eval_match_interval(ev, Q.query("Q11"))
    before = plan_ops(ib.df)
    assert before[0] > 0 and before[1] > 0
    assert ib.materialize() == ib.df.count() > 0
    assert plan_ops(ib.df) == before
    assert plan_ops(ib.points(distinct=False)) == (0, 0)


@pytest.mark.parametrize("name", ["Q4", "Q7", "Q11"])
def test_step3_same_with_and_without_materialize(spark, gate_data, name):
    ev = IntervalEvaluator(SparkITPG.from_data(spark, gate_data))

    def step3(ib):
        out = ib.coalesced() if name in Q.STRUCTURAL_ONLY else ib.points(distinct=False)
        return sorted(tuple(r) for r in out.collect())

    lazy = eval_match_interval(ev, Q.query(name))
    pinned = eval_match_interval(ev, Q.query(name))
    pinned.materialize()
    assert pinned.pinned is not None and lazy.pinned is None
    assert step3(pinned) == step3(lazy)
    assert len(step3(lazy)) == BOUNDS[name][0]


def test_materialize_counts_an_empty_relation(spark, gate_data):
    """The observed count is 0, and returned, when the chain is empty only
    at run time (no object is labelled ``Nobody``, which the plan cannot
    know)."""
    ev = IntervalEvaluator(SparkITPG.from_data(spark, gate_data))
    ib = eval_match_interval(ev, parse_match("MATCH (x:Nobody)-[:meets]->(y:Person) ON g"))
    assert ib.materialize() == 0
    assert ib.points(distinct=False).count() == 0


@pytest.mark.parametrize("arrow", ["true", "false"])
def test_loaded_tables_carry_no_rows_in_plans(spark, gate_data, arrow):
    """The loaded interval and point tables are local checkpoints: their
    optimized plans read an RDD and embed no ``LocalRelation`` rows,
    whether or not the frames were built with Arrow."""
    key = "spark.sql.execution.arrow.pyspark.enabled"
    old = spark.conf.get(key)
    spark.conf.set(key, arrow)
    try:
        itpg = SparkITPG.from_data(spark, gate_data)
    finally:
        spark.conf.set(key, old)
    tpg = itpg.to_tpg()
    for df in (itpg.objects, itpg.exist, itpg.props, tpg.exist, tpg.props):
        plan = df._jdf.queryExecution().optimizedPlan().toString()
        assert "LocalRelation" not in plan, plan
        assert "LogicalRDD" in plan, plan


def test_loaded_tables_are_partitioned_by_id(spark, gate_data):
    """The loaded interval tables, and the point tables exploded from them,
    are hash-partitioned by ``id`` into the session's shuffle-partition
    count (its default parallelism), so a join on ``o2 = id`` (or a point
    join on ``(id, t)``) against them needs no exchange on their side."""
    itpg = SparkITPG.from_data(spark, gate_data)
    tpg = itpg.to_tpg()
    n = int(spark.conf.get("spark.sql.shuffle.partitions"))
    for df in (itpg.objects, itpg.exist, itpg.props, tpg.exist, tpg.props):
        part = df._jdf.queryExecution().executedPlan().outputPartitioning().toString()
        assert part.startswith("hashpartitioning(id#") and part.endswith(f", {n})"), part


def test_session_plans_one_job_per_action(spark):
    """The program's session plans without adaptive execution, into as
    many shuffle partitions as the loaded tables have (the default
    parallelism), and without PySpark's call-site capture."""
    assert get_spark("repro") is spark
    n = spark.sparkContext.defaultParallelism
    assert spark.conf.get("spark.sql.adaptive.enabled") == "false"
    assert int(spark.conf.get("spark.sql.shuffle.partitions")) == n
    assert spark.conf.get("spark.python.sql.dataFrameDebugging.enabled") == "false"


def test_shuffle_action_is_one_job(spark):
    """An action whose plan has several exchanges (a shuffle join and an
    aggregation over it) launches one Spark job."""
    left = spark.range(100).withColumn("k", F.col("id") % 7)
    right = spark.range(50).withColumn("k", F.col("id") % 5)
    df = left.join(right, "k").groupBy((F.col("k") % 3).alias("g")).count()
    joins, exchanges = plan_ops(df)
    assert joins == 1 and exchanges >= 3
    rows, jobs = counted_jobs(spark, "one-job", df.collect)
    assert sum(r["count"] for r in rows) == left.join(right, "k").count()
    assert jobs == 1


def test_plan_ops_reads_through_cached_relations(spark):
    """A join inside a cached relation is counted by a plan that scans the
    cache, as it is by the plan that built it."""
    left = spark.range(20).withColumn("k", F.col("id") % 4)
    right = spark.range(10).withColumn("k", F.col("id") % 3)
    joined = left.join(right, "k")
    ops = plan_ops(joined)
    assert ops == (1, 2)
    cached = joined.cache()
    try:
        cached.count()
        scan = cached.select("k")
        assert "InMemoryTableScan" in scan._jdf.queryExecution().executedPlan().toString()
        assert plan_ops(scan) == ops
    finally:
        cached.unpersist()


@pytest.mark.parametrize("backend", ["interval", "point"])
def test_empty_answer_costs_the_same_jobs(spark, gate_data, backend):
    """An answer that is empty only at run time launches as many Spark
    jobs as a non-empty chain of the same shape: on the interval backend
    through ``materialize`` and Step 3, on the point backend to the
    count."""
    hop = "MATCH ({x})-[:meets]->(y:Person) ON g"

    def interval(x):
        ev = IntervalEvaluator(SparkITPG.from_data(spark, gate_data))

        def action():
            ib = eval_match_interval(ev, parse_match(hop.format(x=x)))
            return ib.materialize(), ib.points(distinct=False).count()

        return counted_jobs(spark, "empty-interval", action)

    def point(x):
        ev = PointEvaluator(SparkITPG.from_data(spark, gate_data).to_tpg())
        return counted_jobs(spark, "empty-point", lambda: eval_match_point(ev, parse_match(hop.format(x=x))).count())

    if backend == "interval":
        (rel, out), jobs = interval("x:Person")
        assert rel > 0 and out > 0
        assert interval("x:Nobody") == ((0, 0), jobs)
    else:
        out, jobs = point("x:Person")
        assert out > 0
        assert point("x:Nobody") == (0, jobs)
