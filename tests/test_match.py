"""Match-layer mechanics: segmentation, output columns, variable rules."""
import pytest

from repro.trpq import ast
from repro.trpq import queries as Q
from repro.trpq.ast import Capture
from repro.trpq.match import chain_steps, out_columns, segment_asts
from repro.trpq.parser import parse_match


class TestSegmentation:
    def test_single_pattern(self):
        q = parse_match("MATCH (x:Person) ON g")
        segs = segment_asts(q)
        assert len(segs) == 1
        assert isinstance(segs[0], ast.TestExpr)

    def test_one_link(self):
        q = parse_match("MATCH (x)-/PREV/-(y) ON g")
        segs = segment_asts(q)
        assert len(segs) == 1
        # test / P / ∃ / test after flattening
        assert isinstance(segs[0], ast.Seq)
        assert isinstance(segs[0].parts[0], ast.TestExpr)
        assert isinstance(segs[0].parts[-1], ast.TestExpr)

    def test_edge_link_three_segments(self):
        q = parse_match("MATCH (x)-[z:meets]->(y) ON g")
        assert len(segment_asts(q)) == 2  # x-F-z, z-F-y

    def test_q7_segments(self):
        assert len(segment_asts(Q.query("Q7"))) == 3

    def test_chain_steps_test_each_pattern_once(self):
        """The walk inlines every link between its patterns' tests and
        captures each named pattern right after its test."""
        q = Q.query("Q7")
        x, y, visits, z = (ast.TestExpr(p.test()) for p in q.patterns)
        assert chain_steps(q) == [
            x, Capture("x"), ast.P, ast.TestExpr(ast.EXISTS),
            y, Capture("y"), ast.F, visits, ast.F, z, Capture("z"),
        ]

    def test_chain_steps_single_pattern(self):
        q = parse_match("MATCH (x:Person) ON g")
        assert chain_steps(q) == [ast.TestExpr(q.patterns[0].test()), Capture("x")]

    def test_reserved_var_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            segment_asts(parse_match("MATCH (s:Person) ON g"))
        for var in ("_new", "_island", "_new_island"):  # columns interval_eval and coalesced() add
            with pytest.raises(ValueError, match="reserved"):
                chain_steps(parse_match(f"MATCH ({var}:Person) ON g"))

    @pytest.mark.parametrize("var", ["_jo", "_jt", "x_time"])
    def test_point_chain_columns_reserved(self, var):
        """The point walk's join columns, and a variable named after
        another variable's time column (``x`` binds ``x, x_time``)."""
        q = parse_match(f"MATCH (x:Person)-[:meets]->({var}:Person)-[:visits]->(r:Room) ON g")
        with pytest.raises(ValueError, match="reserved"):
            segment_asts(q)
        with pytest.raises(ValueError, match="reserved"):
            chain_steps(q)

    def test_duplicate_var_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            segment_asts(parse_match("MATCH (x)-/PREV/-(x) ON g"))


class TestOutColumns:
    @pytest.mark.parametrize(
        "name,cols",
        [
            ("Q1", ["x", "x_time"]),
            ("Q5", ["x", "x_time", "z", "z_time", "y", "y_time"]),
            ("Q7", ["x", "x_time", "y", "y_time", "z", "z_time"]),
            ("Q8", ["x", "x_time", "z", "z_time"]),
            ("Q9", ["x", "x_time"]),
            ("INTRO", ["x", "x_time", "y", "y_time"]),
        ],
    )
    def test_columns(self, name, cols):
        assert out_columns(Q.query(name)) == cols

    def test_anonymous_patterns_not_in_output(self):
        q = parse_match("MATCH (x)-[:visits]->({test = 'pos'}) ON g")
        assert out_columns(q) == ["x", "x_time"]


class TestBackendAgreement:
    """All three backends produce identical binding tables (Figure 1)."""

    @pytest.mark.parametrize("name", Q.TABLE2)
    def test_point_vs_interval(self, name, fig1_point_results, fig1_interval_results):
        assert fig1_point_results[name] == fig1_interval_results[name]

    def test_bag_points_superset_of_set(self, fig1_interval_ev):
        from repro.trpq.match import eval_match_interval

        q = Q.query("Q11")
        ib = eval_match_interval(fig1_interval_ev, q)
        bag = [tuple(r) for r in ib.points(distinct=False).collect()]
        dedup = {tuple(r) for r in ib.points().collect()}
        assert set(bag) == dedup
        assert len(bag) >= len(dedup)
