"""Interval evaluator (Section VI) vs the reference semantics, plus its
fragment boundaries and the coalesced-output conventions of Table II."""
import random

import pytest

from repro.probe import plan_ops
from repro.tpg import interval as iv
from repro.trpq import ast
from repro.trpq import queries as Q
from repro.trpq.interval_eval import IntervalEvaluator, UnsupportedFragment
from repro.trpq.match import (
    eval_match_interval,
    eval_match_local,
    out_columns,
)
from repro.trpq.parser import parse_match
from repro.trpq.semantics import LocalTPG, holds
from repro.trpq.semantics import eval_path as ref_eval
from tests.conftest import (
    ALL_QUERIES,
    FIXED_CONJUNCTIONS,
    random_conjunction,
    time_eq,
    witness_pairs,
)


@pytest.mark.parametrize("name", ALL_QUERIES)
def test_queries_match_reference(name, fig1_interval_results, fig1_expected):
    assert fig1_interval_results[name] == fig1_expected[name]


@pytest.mark.parametrize("name", ("Q1", "Q2", "Q5", "Q6", "Q8", "Q9", "Q10", "Q11", "Q12"))
def test_gen_graph_matches_reference(name, gen_interval_ev, gen_local):
    """Same check on a generated contact-tracing graph."""
    q = Q.query(name)
    got = {
        tuple(r)
        for r in eval_match_interval(gen_interval_ev, q)
        .points()
        .select(*out_columns(q))
        .collect()
    }
    assert got == eval_match_local(gen_local, q)


# chains whose temporal link follows a structural one
STRUCTURAL_THEN_TEMPORAL = [
    "MATCH (x:Person)-[:meets]->(y:Person)-/NEXT[1,3]/-(z) ON g",
    "MATCH (x:Person)-[:meets]->(y)-/NEXT*/-(z {test = 'pos'}) ON g",
    "MATCH (x:Person)-/FWD/:meets/FWD/-(y)-/PREV[0,2]/-(z)-[:visits]->(r:Room) ON g",
]


@pytest.fixture(scope="module")
def rung_interval_ev(rung_itpg):
    return IntervalEvaluator(rung_itpg)


@pytest.fixture(scope="module")
def rung_local(rung):
    return LocalTPG.from_data(rung)


@pytest.mark.parametrize("clause", STRUCTURAL_THEN_TEMPORAL)
@pytest.mark.parametrize(
    "ev_fx, local_fx", [("fig1_interval_ev", "fig1_local"), ("rung_interval_ev", "rung_local")]
)
def test_structural_link_before_temporal_link(clause, ev_fx, local_fx, request):
    ev, local = request.getfixturevalue(ev_fx), request.getfixturevalue(local_fx)
    q = parse_match(clause)
    ib = eval_match_interval(ev, q)
    assert ib.temporal
    got = {tuple(r) for r in ib.points().select(*out_columns(q)).collect()}
    assert got == eval_match_local(local, q)


# edge hops: F / T / F and B / T / B from nodes are one composition with the
# edges where T holds; every other hop takes the general F/B step
EDGE_HOPS = [
    # from an edge-kind state (after a lone FWD) the hop must not fuse
    "MATCH (x:Person)-/FWD/FWD/:Person/FWD/FWD/-(y) ON g",
    # B / T / B
    "MATCH (x:Room)-/BWD/:visits/BWD/-(y:Person) ON g",
    # mixed F / T / B: no fusion
    "MATCH (x:Person)-/FWD/:visits/BWD/-(y:Person) ON g",
    # named edge variables
    Q.QUERIES["Q5"],
    "MATCH (x:Person)-[z:meets]->(y:Person)-[w:visits]->(r:Room) ON g",
    "MATCH (x:Person)-[z:meets]->(y:Person)-[w:meets]->(r:Person) ON g",
    # a hop inside a union branch
    Q.QUERIES["Q12"],
    # hops after an unbounded temporal step, whose dmax is NULL
    "MATCH (x:Person {test = 'pos'})-/PREV*/FWD/:visits/FWD/-(z:Room) ON g",
    "MATCH (x:Person)-/NEXT[2,_]/FWD/:visits/FWD/-(z:Room) ON g",
    "MATCH (x:Person)-/PREV[2,_]/-(y)-[z:meets]->(w) ON g",
]


@pytest.mark.parametrize("clause", EDGE_HOPS)
@pytest.mark.parametrize(
    "ev_fx, local_fx", [("fig1_interval_ev", "fig1_local"), ("rung_interval_ev", "rung_local")]
)
def test_edge_hops_match_reference(clause, ev_fx, local_fx, request):
    ev, local = request.getfixturevalue(ev_fx), request.getfixturevalue(local_fx)
    q = parse_match(clause)
    got = {tuple(r) for r in eval_match_interval(ev, q).points().select(*out_columns(q)).collect()}
    assert got == eval_match_local(local, q)


class TestWalkKinds:
    """The kind of a walk's ``o2`` end, which decides whether a hop fuses."""

    @pytest.mark.parametrize(
        "link, kind",
        [
            (ast.seq(ast.TestExpr(ast.NODE), ast.F), "edge"),
            (ast.seq(ast.TestExpr(ast.conj(ast.EDGE, ast.EXISTS)), ast.B), "node"),
            (ast.seq(ast.TestExpr(ast.NODE), ast.F, ast.LabelTest("meets"), ast.F), "node"),
            (ast.seq(ast.TestExpr(ast.NODE), ast.Repeat(ast.seq(ast.N, ast.EXISTS), 0, None)), "node"),
            (ast.seq(ast.TestExpr(ast.EXISTS), ast.F), None),
            (ast.seq(ast.F, ast.LabelTest("meets"), ast.F), None),
            (ast.seq(ast.TestExpr(ast.NODE), ast.union(ast.F, ast.seq(ast.F, ast.F, ast.F))), "edge"),
            (ast.seq(ast.TestExpr(ast.NODE), ast.union(ast.F, ast.seq(ast.F, ast.F))), None),
        ],
    )
    def test_kind(self, link, kind, fig1_interval_ev):
        assert fig1_interval_ev.eval_link(link).kind == kind

    def test_fused_hop_is_one_join(self, fig1_interval_ev):
        """From nodes, F / meets / F is one join; from an unknown kind it
        is three (F, the test, F)."""
        hop = (ast.F, ast.TestExpr(ast.AndTest(ast.LabelTest("meets"), ast.EXISTS)), ast.F)
        fused = fig1_interval_ev.eval_link(ast.seq(ast.TestExpr(ast.NODE), *hop))
        general = fig1_interval_ev.eval_link(ast.seq(*hop))
        assert plan_ops(fused.df)[0] == 1
        assert plan_ops(general.df)[0] == 3


class TestLinkRelations:
    """eval_link against the reference ⟦·⟧ (expanded to points)."""

    LINKS = [
        ast.seq(ast.TestExpr(ast.LabelTest("Person")), ast.F),
        ast.seq(ast.TestExpr(ast.NODE), ast.F, ast.AndTest(ast.LabelTest("meets"), ast.EXISTS), ast.F),
        ast.seq(ast.TestExpr(ast.EXISTS), ast.Repeat(ast.seq(ast.N, ast.EXISTS), 0, None)),
        ast.seq(ast.TestExpr(ast.EXISTS), ast.Repeat(ast.seq(ast.P, ast.EXISTS), 1, 3)),
        ast.seq(ast.TestExpr(ast.EXISTS), ast.Repeat(ast.seq(ast.N, ast.EXISTS), 2, 2), ast.TestExpr(ast.EXISTS)),
        ast.seq(ast.TestExpr(ast.PropTest("test", "pos")), ast.P, ast.TestExpr(ast.EXISTS)),
        ast.seq(
            ast.TestExpr(ast.NODE),
            ast.union(
                ast.seq(ast.F, ast.AndTest(ast.LabelTest("meets"), ast.EXISTS), ast.F),
                ast.seq(ast.F, ast.AndTest(ast.LabelTest("visits"), ast.EXISTS), ast.F),
            ),
        ),
        ast.seq(ast.TestExpr(ast.NotTest(ast.EXISTS)), ast.N),
        ast.seq(ast.TestExpr(ast.AndTest(ast.NODE, ast.LtTest(5))), ast.Repeat(ast.N, 0, 3)),
        ast.seq(ast.TestExpr(ast.EXISTS), ast.Repeat(ast.P, 2, None)),
        # hops that must not fuse: from edges, and from a test-free start
        ast.seq(ast.TestExpr(ast.conj(ast.EDGE, ast.EXISTS)), ast.F, ast.EXISTS, ast.F),
        ast.seq(ast.F, ast.AndTest(ast.LabelTest("meets"), ast.EXISTS), ast.F),
        # fused hops: B / T / B, a non-simple T, and after NEXT[2,_]
        ast.seq(ast.TestExpr(ast.NODE), ast.B, ast.AndTest(ast.LabelTest("visits"), ast.EXISTS), ast.B),
        ast.seq(
            ast.TestExpr(ast.NODE),
            ast.F,
            ast.OrTest(ast.LabelTest("meets"), ast.NotTest(ast.EXISTS)),
            ast.F,
        ),
        ast.seq(
            ast.TestExpr(ast.conj(ast.NODE, ast.EXISTS)),
            ast.Repeat(ast.seq(ast.N, ast.EXISTS), 2, None),
            ast.F, ast.AndTest(ast.LabelTest("visits"), ast.EXISTS), ast.F,
        ),
    ]

    @pytest.mark.parametrize("idx", range(len(LINKS)))
    def test_link_matches_reference(self, idx, fig1_interval_ev, fig1_local):
        link = self.LINKS[idx]
        lr = fig1_interval_ev.eval_link(link)
        assert witness_pairs(lr.df) == ref_eval(fig1_local, link)


class TestFragmentBoundaries:
    def test_path_condition_unsupported(self, fig1_interval_ev):
        link = ast.seq(
            ast.TestExpr(ast.PathTest(ast.F)), ast.F
        )
        with pytest.raises(UnsupportedFragment):
            fig1_interval_ev.eval_link(link).df.count()

    def test_structural_repeat_unsupported(self, fig1_interval_ev):
        link = ast.seq(ast.TestExpr(ast.NODE), ast.Repeat(ast.seq(ast.F, ast.F), 0, None))
        with pytest.raises(UnsupportedFragment):
            fig1_interval_ev.eval_link(link)

    def test_two_temporal_segments_unsupported(self, fig1_interval_ev):
        link = ast.seq(
            ast.TestExpr(ast.NODE),
            ast.Repeat(ast.seq(ast.N, ast.EXISTS), 0, None),
            ast.F,
            ast.F,
            ast.Repeat(ast.seq(ast.P, ast.EXISTS), 0, None),
        )
        with pytest.raises(UnsupportedFragment):
            fig1_interval_ev.eval_link(link)

    def test_two_temporal_links_unsupported(self, fig1_interval_ev):
        q = parse_match("MATCH (x)-/NEXT/-(y)-/PREV/-(z) ON g")
        with pytest.raises(UnsupportedFragment):
            eval_match_interval(fig1_interval_ev, q)


class TestCoalescedOutput:
    def test_q5_coalesced_matches_paper(self, fig1_interval_ev):
        """Section VI's coalesced Q5 table: two interval rows."""
        ib = eval_match_interval(fig1_interval_ev, Q.query("Q5"))
        rows = {
            (r["x"], r["z"], r["y"], r["s"], r["e"])
            for r in ib.coalesced().collect()
        }
        assert rows == {
            ("n1", "e1", "n2", 5, 6),
            ("n2", "e2", "n3", 1, 2),
        }

    def test_q1_coalesced_is_existence_intervals(self, fig1_interval_ev):
        ib = eval_match_interval(fig1_interval_ev, Q.query("Q1"))
        rows = {(r["x"], r["s"], r["e"]) for r in ib.coalesced().collect()}
        assert rows == {
            ("n1", 1, 9), ("n2", 1, 9), ("n3", 1, 7), ("n6", 2, 9), ("n7", 4, 9)
        }

    def test_coalesced_requires_aligned(self, fig1_interval_ev):
        ib = eval_match_interval(fig1_interval_ev, Q.query("Q6"))
        with pytest.raises(UnsupportedFragment):
            ib.coalesced()

    @pytest.mark.parametrize("name", Q.STRUCTURAL_ONLY)
    def test_structural_queries_are_aligned(self, name, fig1_interval_ev):
        ib = eval_match_interval(fig1_interval_ev, Q.query(name))
        assert not ib.temporal

    @pytest.mark.parametrize("name", [n for n in Q.TABLE2 if n not in Q.STRUCTURAL_ONLY])
    def test_temporal_queries_are_offset(self, name, fig1_interval_ev):
        ib = eval_match_interval(fig1_interval_ev, Q.query(name))
        assert ib.temporal


class TestVariableSides:
    def test_q7_pre_post_split(self, fig1_interval_ev):
        ib = eval_match_interval(fig1_interval_ev, Q.query("Q7"))
        assert ib.vars_pre == ["x"]
        assert ib.vars_post == ["y", "z"]

    def test_q9_only_pre(self, fig1_interval_ev):
        ib = eval_match_interval(fig1_interval_ev, Q.query("Q9"))
        assert ib.vars_pre == ["x"] and ib.vars_post == []

    def test_intro_pre_and_post(self, fig1_interval_ev):
        ib = eval_match_interval(fig1_interval_ev, Q.query("INTRO"))
        assert ib.vars_pre == ["x"] and ib.vars_post == ["y"]


# ------------------------------------------------- compiled conjunctions


class PairwiseEvaluator(IntervalEvaluator):
    """Builds every conjunction and negation from its parts' test tables,
    the general path, as the reference for compiled conjunctions."""

    def test_table(self, test):
        if isinstance(test, (ast.AndTest, ast.NotTest)) and test not in self._tmemo:
            self._tmemo[test] = self._general(test).cache()
        return super().test_table(test)


def fams(df):
    """Coalesced interval family per id."""
    out = {}
    for r in df.collect():
        out.setdefault(r["id"], []).append((r["s"], r["e"]))
    return {k: iv.coalesce(v) for k, v in out.items()}


def ref_fams(local, test):
    """Coalesced interval family per id from the reference semantics."""
    out = {}
    for o, t in local.pto():
        if holds(local, test, o, t):
            out.setdefault(o, []).append((t, t))
    return {k: iv.coalesce(v) for k, v in out.items()}


@pytest.mark.parametrize("data_fx, itpg_fx", [("fig1_data", "fig1_itpg"), ("rung", "rung_itpg")])
def test_compiled_conjunctions_match_general_path(data_fx, itpg_fx, request):
    data, itpg = request.getfixturevalue(data_fx), request.getfixturevalue(itpg_fx)
    local = LocalTPG.from_data(data)
    compiled, general = IntervalEvaluator(itpg), PairwiseEvaluator(itpg)
    rng = random.Random(5)
    tests = FIXED_CONJUNCTIONS + [random_conjunction(rng, data) for _ in range(12)]
    for test in tests:
        got = fams(compiled.test_table(test))
        assert got == fams(general.test_table(test)), test
        assert got == ref_fams(local, test), test


class TestGeneralPathConjunctions:
    """Conjunctions with an ``∨``, a ``¬`` other than ``¬<k``, or ``?path``
    are built from their parts; simple ones are one table."""

    @pytest.mark.parametrize(
        "test",
        [
            ast.conj(ast.NODE, ast.OrTest(ast.LabelTest("Room"), ast.PropTest("risk", "high")), ast.EXISTS),
            ast.conj(ast.LabelTest("Person"), ast.NotTest(ast.PropTest("test", "neg"))),
        ],
    )
    def test_or_not_take_general_path(self, test, fig1_itpg, fig1_local):
        ev = IntervalEvaluator(fig1_itpg)
        got = fams(ev.test_table(test))
        assert test.left in ev._tmemo and test.right in ev._tmemo
        assert got == ref_fams(fig1_local, test)

    def test_simple_conjunction_is_one_table(self, fig1_itpg):
        ev = IntervalEvaluator(fig1_itpg)
        test = ast.conj(ast.NODE, ast.LabelTest("Person"), time_eq(3), ast.EXISTS)
        ev.test_table(test)
        assert list(ev._tmemo) == [test]

    def test_path_condition_in_conjunction_unsupported(self, fig1_itpg):
        ev = IntervalEvaluator(fig1_itpg)
        with pytest.raises(UnsupportedFragment):
            ev.test_table(ast.conj(ast.NODE, ast.PathTest(ast.F), ast.EXISTS))
