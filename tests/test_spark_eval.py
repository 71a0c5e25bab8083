"""Point-based Spark evaluator (Theorem C.1) vs the reference semantics."""
import random

import pytest

from repro.probe import plan_ops
from repro.tpg.model import SparkITPG
from repro.trpq import ast
from repro.trpq import queries as Q
from repro.trpq.match import eval_match_point
from repro.trpq.semantics import LocalTPG, holds
from repro.trpq.semantics import eval_path as ref_eval
from repro.trpq.spark_eval import PointEvaluator
from tests.conftest import ALL_QUERIES, FIXED_CONJUNCTIONS, random_conjunction, time_eq
from tests.test_edge_graphs import GRAPHS


def spark_rel(ev, path):
    return {tuple(r) for r in ev.rel(path).collect()}


@pytest.mark.parametrize("name", ALL_QUERIES)
def test_queries_match_reference(name, fig1_point_results, fig1_expected):
    assert fig1_point_results[name] == fig1_expected[name]


AXES = [ast.F, ast.B, ast.N, ast.P]
EXPRESSIONS = [
    ast.TestExpr(ast.NODE),
    ast.TestExpr(ast.EDGE),
    ast.TestExpr(ast.EXISTS),
    ast.TestExpr(ast.LabelTest("Person")),
    ast.TestExpr(ast.LabelTest("meets")),
    ast.TestExpr(ast.PropTest("risk", "high")),
    ast.TestExpr(ast.LtTest(4)),
    ast.TestExpr(ast.NotTest(ast.EXISTS)),
    ast.TestExpr(ast.AndTest(ast.NODE, ast.NotTest(ast.LtTest(5)))),
    ast.TestExpr(ast.OrTest(ast.LabelTest("Room"), ast.LabelTest("visits"))),
    ast.seq(ast.F, ast.F),
    ast.seq(ast.B, ast.B),
    ast.seq(ast.N, ast.P),
    ast.union(ast.N, ast.P),
    ast.Repeat(ast.N, 2, 2),
    ast.Repeat(ast.N, 0, 3),
    ast.Repeat(ast.N, 2, None),
    ast.Repeat(ast.seq(ast.N, ast.EXISTS), 0, None),
    ast.Repeat(ast.seq(ast.P, ast.EXISTS), 1, 3),
    ast.seq(ast.F, ast.AndTest(ast.LabelTest("visits"), ast.EXISTS), ast.F),
    ast.TestExpr(ast.PathTest(ast.seq(ast.F, ast.AndTest(ast.LabelTest("meets"), ast.EXISTS)))),
    ast.Repeat(ast.union(ast.F, ast.B), 0, 2),
    ast.Repeat(ast.Repeat(ast.P, 2, 2), 0, None),
    # tests inside a concatenation: leading, between moves, trailing, only
    ast.seq(ast.LabelTest("Person"), ast.EXISTS, ast.F, ast.LabelTest("meets"), ast.F, ast.EXISTS),
    ast.seq(ast.NODE, ast.Repeat(ast.seq(ast.N, ast.EXISTS), 0, 2), ast.PropTest("risk", "high")),
    ast.seq(ast.EXISTS, ast.LtTest(5), ast.LabelTest("Person")),
    ast.seq(ast.PathTest(ast.F), ast.N, ast.NotTest(ast.EXISTS)),
]


@pytest.mark.parametrize("idx", range(len(AXES)))
def test_axes_match_reference(idx, fig1_point_ev, fig1_local):
    p = AXES[idx]
    assert spark_rel(fig1_point_ev, p) == ref_eval(fig1_local, p)


@pytest.mark.parametrize("idx", range(len(EXPRESSIONS)))
def test_expressions_match_reference(idx, fig1_point_ev, fig1_local):
    p = EXPRESSIONS[idx]
    assert spark_rel(fig1_point_ev, p) == ref_eval(fig1_local, p)


class TestRepetitionAlgebra:
    """The squaring/doubling recursions (Algorithms 1–2) against the
    reference on exact bounds — the trickiest part of the evaluator."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_exact_power(self, n, fig1_point_ev, fig1_local):
        p = ast.Repeat(ast.N, n, n)
        assert spark_rel(fig1_point_ev, p) == ref_eval(fig1_local, p)

    @pytest.mark.parametrize("lo,hi", [(0, 1), (0, 4), (1, 3), (2, 5), (3, 3)])
    def test_bounded(self, lo, hi, fig1_point_ev, fig1_local):
        p = ast.Repeat(ast.P, lo, hi)
        assert spark_rel(fig1_point_ev, p) == ref_eval(fig1_local, p)

    @pytest.mark.parametrize("lo", [0, 1, 4])
    def test_unbounded(self, lo, fig1_point_ev, fig1_local):
        p = ast.Repeat(ast.N, lo, None)
        assert spark_rel(fig1_point_ev, p) == ref_eval(fig1_local, p)

    def test_no_overshoot(self, fig1_point_ev):
        """[0,2] must not include 3-step tuples (doubling overshoot bug)."""
        rel = spark_rel(fig1_point_ev, ast.Repeat(ast.N, 0, 2))
        assert all(t2 - t1 <= 2 for _, t1, _, t2 in rel)


class TestSubsetSumOnSpark:
    @pytest.mark.parametrize("A,S,expected", [
        ((2, 5, 7), 9, True),   # 2+7
        ((2, 5, 7), 6, False),
        ((3, 3, 4), 10, True),
        ((3, 3, 4), 5, False),
    ])
    def test_reduction(self, spark, A, S, expected):
        from repro.tpg.model import ITPGData, SparkITPG
        from repro.trpq.spark_eval import PointEvaluator

        smax = sum(A)
        data = ITPGData.build((0, smax), [("v", "l", [(0, smax)], {})], [])
        ev = PointEvaluator(SparkITPG.from_data(spark, data).to_tpg())
        path = ast.seq(
            *[ast.union(ast.Repeat(ast.N, a, a), ast.Repeat(ast.N, 0, 0)) for a in A]
        )
        rel = spark_rel(ev, path)
        assert (("v", 0, "v", S) in rel) is expected


def test_gen_graph_queries_match_reference(gen_point_ev, gen_local):
    """Cross-check on a generated contact-tracing graph (not just Figure 1)."""
    from repro.trpq import queries as Q
    from repro.trpq.match import eval_match_local, eval_match_point

    for name in ("Q1", "Q5", "Q6", "Q9", "Q11"):
        q = Q.query(name)
        got = {tuple(r) for r in eval_match_point(gen_point_ev, q).collect()}
        assert got == eval_match_local(gen_local, q), name


# ------------------------------------------------- compiled conjunctions


class PairwisePointEvaluator(PointEvaluator):
    """Builds every conjunction and negation from its parts' relations, the
    general path, as the reference for compiled conjunctions."""

    def test_pairs(self, test):
        if isinstance(test, (ast.AndTest, ast.NotTest)) and test not in self._test_memo:
            self._test_memo[test] = self._general(test)
        return super().test_pairs(test)


def pairs(df):
    return {tuple(r) for r in df.select("id", "t").collect()}


def ref_pairs(local, test):
    return {(o, t) for o, t in local.pto() if holds(local, test, o, t)}


@pytest.mark.parametrize("data_fx, itpg_fx", [("fig1_data", "fig1_itpg"), ("rung", "rung_itpg")])
def test_compiled_conjunctions_match_reference(data_fx, itpg_fx, request):
    data, itpg = request.getfixturevalue(data_fx), request.getfixturevalue(itpg_fx)
    local, tpg = LocalTPG.from_data(data), itpg.to_tpg()
    compiled, general = PointEvaluator(tpg), PairwisePointEvaluator(tpg)
    rng = random.Random(5)
    tests = FIXED_CONJUNCTIONS + [random_conjunction(rng, data) for _ in range(12)]
    for test in tests:
        got = pairs(compiled.test_pairs(test))
        assert got == pairs(general.test_pairs(test)), test
        assert got == ref_pairs(local, test), test


class TestGeneralPathConjunctions:
    """Conjunctions with an ``∨``, a ``¬`` other than ``¬<k``, or ``?path``
    are built from their parts; simple ones are one relation."""

    @pytest.mark.parametrize(
        "test",
        [
            ast.conj(ast.NODE, ast.OrTest(ast.LabelTest("Room"), ast.PropTest("risk", "high")), ast.EXISTS),
            ast.conj(ast.LabelTest("Person"), ast.NotTest(ast.PropTest("test", "neg"))),
            ast.conj(ast.NODE, ast.PathTest(ast.F), ast.EXISTS),
        ],
    )
    def test_or_not_path_take_general_path(self, test, fig1_tpg, fig1_local):
        ev = PointEvaluator(fig1_tpg)
        got = pairs(ev.test_pairs(test))
        assert test.left in ev._test_memo and test.right in ev._test_memo
        assert got == ref_pairs(fig1_local, test)

    def test_simple_conjunction_is_one_relation(self, fig1_tpg):
        ev = PointEvaluator(fig1_tpg)
        test = ast.conj(ast.NODE, ast.LabelTest("Person"), time_eq(3), ast.EXISTS)
        ev.test_pairs(test)
        assert list(ev._test_memo) == [test]


# ------------------------------------------------- seeded NEXT/PREV steps

SEEDED = [
    ast.seq(ast.PropTest("test", "pos"), ast.P),
    ast.seq(ast.LabelTest("Person"), ast.N),
    ast.seq(ast.LtTest(5), ast.P),
    ast.seq(ast.EXISTS, ast.N, ast.EXISTS),
    # a leading run of tests is one conjunction
    ast.seq(ast.NODE, ast.EXISTS, ast.P, ast.EXISTS, ast.NODE),
]


@pytest.fixture(params=["fig1", "rung", "one_point"])
def seeded_graph(request, spark):
    if request.param == "one_point":
        data = GRAPHS["one_point"]()
        return data, SparkITPG.from_data(spark, data)
    data_fx, itpg_fx = {"fig1": ("fig1_data", "fig1_itpg"), "rung": ("rung", "rung_itpg")}[request.param]
    return request.getfixturevalue(data_fx), request.getfixturevalue(itpg_fx)


def test_seeded_steps_match_reference(seeded_graph):
    """A first ``NEXT``/``PREV`` step after leading tests is built from the
    tests' temporal objects shifted by one, clamped to Ω: it agrees with
    the reference, also where the lead test holds only at Ω's first or
    last point (and on a one-point Ω), and adds no join or exchange to the
    lead test's scan."""
    data, itpg = seeded_graph
    local, ev = LocalTPG.from_data(data), PointEvaluator(itpg.to_tpg())
    lo, hi = data.omega
    ends = {(t, step.op): ast.seq(time_eq(t), step) for t in (lo, hi) for step in (ast.N, ast.P)}
    at_ends = list(ends.values())
    for path in SEEDED + at_ends:
        assert spark_rel(ev, path) == ref_eval(local, path), path
    # the shift leaves Ω from its first point backwards and its last forwards
    assert not spark_rel(ev, ends[lo, "P"]) and not spark_rel(ev, ends[hi, "N"])
    assert bool(spark_rel(ev, ends[lo, "N"])) == (lo < hi)
    for path in SEEDED[:3] + at_ends:
        lead = path.parts[0].test
        assert plan_ops(ev.rel(path)) == plan_ops(ev.test_pairs(lead)), path


@pytest.mark.parametrize("name", ["Q6", "Q9"])
def test_fresh_evaluators_repeat_rows_and_jobs(name, spark, gen_point_ev):
    """Nothing an evaluator materialises serves the next one: two fresh
    evaluators on one graph return the same rows with the same Spark jobs
    (a benchmark pass starts from a fresh evaluator)."""
    scheduler = spark.sparkContext._jsc.sc().dagScheduler()
    runs = []
    for _ in range(2):
        jobs0 = scheduler.numTotalJobs()
        rows = {tuple(r) for r in eval_match_point(PointEvaluator(gen_point_ev.g), Q.query(name)).collect()}
        runs.append((rows, scheduler.numTotalJobs() - jobs0))
    assert runs[0] == runs[1]
