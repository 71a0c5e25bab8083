"""Randomised cross-checks: random small TPGs and random NavL expressions,
reference semantics vs the Spark point evaluator (and, on the supported
fragment, the interval evaluator).

Deterministic seeds rather than hypothesis for the Spark half — each case
costs real Spark work, so we want a fixed, bounded corpus. Hypothesis is
used where evaluation is cheap (LocalTPG algebraic laws).
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tpg.model import ITPGData, SparkITPG
from repro.trpq import ast
from repro.trpq.interval_eval import IntervalEvaluator, UnsupportedFragment
from repro.trpq.semantics import LocalTPG, eval_path
from repro.trpq.spark_eval import PointEvaluator
from tests.conftest import witness_pairs


def random_graph(rng: random.Random, n_nodes=5, n_edges=6, horizon=8) -> ITPGData:
    labels = ["A", "B"]
    nodes = []
    for i in range(n_nodes):
        k = rng.randint(1, 2)
        fams = []
        for _ in range(k):
            s = rng.randint(1, horizon)
            fams.append((s, min(horizon, s + rng.randint(0, 3))))
        from repro.tpg import interval as iv

        fam = iv.coalesce(fams)
        props = {}
        if rng.random() < 0.5:
            props["p"] = [(rng.choice(["u", "v"]), s, e) for s, e in fam]
        nodes.append((f"n{i}", rng.choice(labels), fam, props))
    node_fams = {nid: fam for nid, _, fam, _ in nodes}
    edges = []
    from repro.tpg import interval as iv

    for j in range(n_edges):
        a, b = rng.choice(list(node_fams)), rng.choice(list(node_fams))
        common = iv.intersect(node_fams[a], node_fams[b])
        if not common:
            continue
        s, e = rng.choice(common)
        edges.append((f"e{j}", a, b, rng.choice(["r", "q"]), [(s, e)], {}))
    return ITPGData.build((1, horizon), nodes, edges)


def random_path(rng: random.Random, depth=3) -> ast.Path:
    if depth == 0:
        return rng.choice(
            [
                ast.F,
                ast.B,
                ast.N,
                ast.P,
                ast.TestExpr(ast.EXISTS),
                ast.TestExpr(ast.NODE),
                ast.TestExpr(ast.LabelTest(rng.choice(["A", "r"]))),
                ast.TestExpr(ast.PropTest("p", "v")),
                ast.TestExpr(ast.LtTest(rng.randint(1, 8))),
            ]
        )
    kind = rng.choice(["seq", "union", "repeat", "leaf", "not"])
    if kind == "seq":
        return ast.seq(random_path(rng, depth - 1), random_path(rng, depth - 1))
    if kind == "union":
        return ast.union(random_path(rng, depth - 1), random_path(rng, depth - 1))
    if kind == "repeat":
        lo = rng.randint(0, 2)
        hi = rng.choice([None, lo, lo + rng.randint(1, 3)])
        return ast.Repeat(random_path(rng, depth - 1), lo, hi)
    if kind == "not":
        return ast.TestExpr(ast.NotTest(ast.ExistsTest()))
    return random_path(rng, 0)


@pytest.mark.parametrize("seed", range(6))
def test_random_point_eval_matches_reference(spark, seed):
    rng = random.Random(seed)
    data = random_graph(rng)
    local = LocalTPG.from_data(data)
    ev = PointEvaluator(SparkITPG.from_data(spark, data).to_tpg())
    for _ in range(4):
        p = random_path(rng)
        got = {tuple(r) for r in ev.rel(p).collect()}
        assert got == eval_path(local, p), f"seed={seed} path={p}"


FRAGMENT_LINKS = [
    # struct* temporal struct* shapes, built from random structural parts
    lambda rng: ast.seq(
        ast.TestExpr(ast.EXISTS),
        ast.Repeat(ast.seq(ast.N, ast.EXISTS), rng.randint(0, 1), rng.choice([None, 3])),
        ast.TestExpr(ast.EXISTS),
    ),
    lambda rng: ast.seq(
        ast.TestExpr(ast.NODE),
        ast.F,
        ast.AndTest(ast.LabelTest("r"), ast.EXISTS),
        ast.F,
        ast.Repeat(ast.seq(ast.P, ast.EXISTS), 0, rng.randint(1, 4)),
    ),
    lambda rng: ast.seq(
        ast.TestExpr(ast.AndTest(ast.NODE, ast.EXISTS)),
        ast.union(
            ast.seq(ast.F, ast.AndTest(ast.LabelTest("r"), ast.EXISTS), ast.F),
            ast.seq(ast.F, ast.AndTest(ast.LabelTest("q"), ast.EXISTS), ast.F),
        ),
        ast.Repeat(ast.seq(ast.N, ast.EXISTS), 0, None),
        ast.TestExpr(ast.PropTest("p", "v")),
    ),
]


@pytest.mark.parametrize("seed", range(4))
def test_random_interval_eval_matches_reference(spark, seed):
    rng = random.Random(100 + seed)
    data = random_graph(rng)
    local = LocalTPG.from_data(data)
    ev = IntervalEvaluator(SparkITPG.from_data(spark, data))
    for mk in FRAGMENT_LINKS:
        link = mk(rng)
        try:
            lr = ev.eval_link(link)
        except UnsupportedFragment:
            continue
        assert witness_pairs(lr.df) == eval_path(local, link), f"seed={seed} link={link}"


# ---------------------------------------------------------- algebraic laws
paths = st.deferred(
    lambda: st.one_of(
        st.sampled_from([ast.F, ast.B, ast.N, ast.P, ast.TestExpr(ast.EXISTS)]),
        st.tuples(paths, paths).map(lambda t: ast.seq(*t)),
        st.tuples(paths, paths).map(lambda t: ast.union(*t)),
    )
)


@pytest.fixture(scope="module")
def law_graph():
    rng = random.Random(42)
    return LocalTPG.from_data(random_graph(rng, n_nodes=3, n_edges=3, horizon=5))


@settings(max_examples=25, deadline=None)
@given(p=paths)
def test_union_commutes(law_graph, p):
    q = ast.N
    assert eval_path(law_graph, ast.union(p, q)) == eval_path(law_graph, ast.union(q, p))


@settings(max_examples=25, deadline=None)
@given(p=paths)
def test_repeat_0_1_equals_identity_union_p(law_graph, p):
    lhs = eval_path(law_graph, ast.Repeat(p, 0, 1))
    rhs = eval_path(law_graph, ast.Repeat(p, 0, 0)) | eval_path(law_graph, p)
    assert lhs == rhs


@settings(max_examples=15, deadline=None)
@given(p=paths)
def test_concat_assoc(law_graph, p):
    a, b, c = p, ast.N, ast.TestExpr(ast.EXISTS)
    lhs = eval_path(law_graph, ast.seq(ast.seq(a, b), c))
    rhs = eval_path(law_graph, ast.seq(a, ast.seq(b, c)))
    assert lhs == rhs


@pytest.mark.parametrize(
    "structural",
    [
        ast.seq(ast.F, ast.B),
        ast.Repeat(ast.union(ast.F, ast.B), 0, 3),
        ast.seq(ast.F, ast.TestExpr(ast.EXISTS), ast.F),
    ],
)
def test_snapshot_alignment_of_structural(law_graph, structural):
    """Purely structural expressions never change the time coordinate —
    the snapshot-reducibility design principle."""
    rel = eval_path(law_graph, structural)
    assert all(t1 == t2 for _, t1, _, t2 in rel)
