"""Query catalogue metadata and the Fig. 4 window rewriting."""
import pytest

from repro.trpq import ast
from repro.trpq import queries as Q


def contains_temporal(path):
    """Whether ``path`` holds a ``NEXT`` or ``PREV`` step."""
    if isinstance(path, ast.Axis):
        return path.op in ("N", "P")
    if isinstance(path, (ast.Seq, ast.Union)):
        return any(contains_temporal(p) for p in path.parts)
    if isinstance(path, ast.Repeat):
        return contains_temporal(path.inner)
    return False


def find_repeats(p, out):
    if isinstance(p, ast.Repeat):
        out.append(p)
        find_repeats(p.inner, out)
    elif isinstance(p, (ast.Seq, ast.Union)):
        for x in p.parts:
            find_repeats(x, out)


class TestCatalogue:
    def test_table2_set(self):
        assert Q.TABLE2 == tuple(f"Q{i}" for i in range(1, 13))
        assert set(Q.STRUCTURAL_ONLY) < set(Q.TABLE2)

    @pytest.mark.parametrize("name", sorted(Q.QUERIES))
    def test_named_queries_parse(self, name):
        assert Q.query(name).graph == "contact_tracing"

    @pytest.mark.parametrize("name", Q.STRUCTURAL_ONLY)
    def test_structural_queries_have_no_temporal_ops(self, name):
        q = Q.query(name)
        assert not any(contains_temporal(link) for link in q.links)

    @pytest.mark.parametrize("name", ("Q6", "Q7", "Q8", "Q9", "Q10", "Q11", "Q12"))
    def test_temporal_queries_have_temporal_ops(self, name):
        q = Q.query(name)
        assert any(contains_temporal(link) for link in q.links)


class TestWindowRewrite:
    @pytest.mark.parametrize("name", ("Q10", "Q11", "Q12"))
    @pytest.mark.parametrize("m", (4, 48))
    def test_with_window_changes_bound(self, name, m):
        q = Q.with_window(name, m)
        reps = []
        for link in q.links:
            find_repeats(link, reps)
        bounds = {(r.lo, r.hi) for r in reps}
        assert (0, m) in bounds

    def test_with_window_same_chain(self):
        a, b = Q.query("Q11"), Q.with_window("Q11", 48)
        assert [p.var for p in a.patterns] == [p.var for p in b.patterns]


class TestQ10Semantics:
    def test_q10_window_growth_monotone(self, fig1_local):
        """Fig. 4's premise: widening [0, m] only adds bindings."""
        from repro.trpq.match import eval_match_local

        prev = set()
        for m in (0, 4, 8, 48):
            cur = eval_match_local(fig1_local, Q.with_window("Q11", m))
            assert prev <= cur
            prev = cur

    def test_q11_window_48_on_fig1(self, fig1_local):
        from repro.trpq.match import eval_match_local

        # widening to the whole domain cannot shrink the Q11 table
        assert len(eval_match_local(fig1_local, Q.with_window("Q11", 48))) >= 3
