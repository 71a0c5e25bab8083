"""Plan-shape gate: Spark jobs and executed-plan joins/exchanges of every
Table II query on the interval backend, and Spark jobs of Q2, Q6, Q7 and
Q9 on the point backend, each bounded by the figure the current evaluator
reaches, next to the exact output size of each query. A plan change that
adds a job, a join or an exchange fails here; one that removes some should
lower the bound. A pattern test alone is one selection over a loaded
relation, with no join and no exchange, on either backend.

Every query runs on a fresh load, as a benchmark pass does. The loaded
graph relations are local checkpoints, so their plans hold no rows, and
nothing is cached; the cleared cache only guards against a test that
caches. Materialising Steps 1–2 checkpoints the interval relation and
counts it in the same Spark job; Step 3 reads that checkpoint. The graph
gives every query a non-empty answer, because adaptive execution skips
work on empty relations and launches fewer jobs for them.
"""
import pytest

from repro.probe import counted_jobs, plan_ops
from repro.tpg.generator import contact_tracing
from repro.tpg.model import SparkITPG
from repro.trpq import queries as Q
from repro.trpq.interval_eval import IntervalEvaluator
from repro.trpq.match import eval_match_interval, eval_match_point, segment_asts
from repro.trpq.parser import parse_match
from repro.trpq.spark_eval import PointEvaluator

# (output size, Spark jobs, executed-plan joins, executed-plan exchanges) per
# query, as measured with the test session's configuration (8 shuffle
# partitions, broadcast joins off); run with -s to print the measured
# figures. The output is exact: coalesced rows for Q1–Q5, bag counts (one
# row per witness pair) for Q6–Q12.
BOUNDS = {
    "Q1": (56, 4, 0, 0),
    "Q2": (42, 4, 0, 0),
    "Q3": (2, 4, 0, 0),
    "Q4": (10, 4, 0, 0),
    "Q5": (1, 8, 2, 4),
    "Q6": (38, 6, 2, 3),
    "Q7": (17, 9, 4, 6),
    "Q8": (66, 9, 3, 6),
    "Q9": (11, 9, 4, 8),
    "Q10": (7, 9, 4, 8),
    "Q11": (15, 12, 8, 14),
    "Q12": (26, 13, 10, 18),
}

# (output size, Spark jobs) per query on the point backend (Theorem C.1
# evaluator), same configuration; the point evaluator's relations are lazy
# except where the repetition recursions checkpoint them. Q9's ``PREV*``
# is a doubling fixpoint (``_star``), Q7's ``PREV`` and hops are not.
POINT_BOUNDS = {"Q2": (174, 3), "Q6": (38, 4), "Q7": (17, 19), "Q9": (2, 58)}


@pytest.fixture(scope="module")
def gate_data():
    return contact_tracing(persons=20, positivity=0.3, seed=10)


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
    at run time (adaptive execution prunes the hop's join)."""
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
