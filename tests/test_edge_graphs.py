"""Degenerate graphs on every backend: an empty graph, a one-point
temporal domain and objects without properties, each loaded through
``SparkITPG.from_data`` and checked against the reference semantics."""
import pytest

from repro.tpg.model import ITPGData, SparkITPG
from repro.trpq import queries as Q
from repro.trpq.interval_eval import IntervalEvaluator
from repro.trpq.match import eval_match_interval, eval_match_local, eval_match_point, out_columns
from repro.trpq.semantics import LocalTPG
from repro.trpq.spark_eval import PointEvaluator

GRAPHS = {
    "empty": lambda: ITPGData.build((1, 3), [], []),
    # |Ω| = 1: PREV from the only time point leaves Ω
    "one_point": lambda: ITPGData.build(
        (1, 1), [("p0", "Person", [(1, 1)], {"test": [("pos", 1, 1)]})], []
    ),
    "no_props": lambda: ITPGData.build(
        (1, 6),
        [
            ("p0", "Person", [(1, 6)], {}),
            ("p1", "Person", [(2, 5)], {}),
            ("r0", "Room", [(1, 6)], {}),
        ],
        [
            ("m0", "p0", "p1", "meets", [(2, 3)], {}),
            ("v0", "p1", "r0", "visits", [(4, 5)], {}),
        ],
    ),
}

# reference sizes, as a guard that the graphs stay what the names say
EXPECTED = {
    "empty": {"Q1": 0, "Q2": 0, "Q6": 0, "Q7": 0},
    "one_point": {"Q1": 1, "Q2": 0, "Q6": 0, "Q7": 0},
    "no_props": {"Q1": 10, "Q2": 0, "Q6": 0, "Q7": 0},
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request, spark):
    data = GRAPHS[request.param]()
    itpg = SparkITPG.from_data(spark, data)
    return request.param, LocalTPG.from_data(data), itpg


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q6", "Q7"])
def test_backends_match_reference(graph, name):
    gname, local, itpg = graph
    q = Q.query(name)
    want = eval_match_local(local, q)
    assert len(want) == EXPECTED[gname][name]
    ib = eval_match_interval(IntervalEvaluator(itpg), q)
    assert {tuple(r) for r in ib.points().select(*out_columns(q)).collect()} == want
    point = eval_match_point(PointEvaluator(itpg.to_tpg()), q)
    assert {tuple(r) for r in point.collect()} == want
