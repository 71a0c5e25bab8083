"""Shared fixtures for the test suite.

The SparkSession itself comes from the root conftest's ``spark`` fixture.
At import time (before the session is created) we tune two env-controlled
settings the root conftest honours: fewer shuffle partitions for the tiny
test inputs, and no console progress bars (keeps test_output.txt legible).
"""
import os

os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")
if "spark.ui.showConsoleProgress" not in os.environ.get("PYSPARK_SUBMIT_ARGS", ""):
    os.environ["PYSPARK_SUBMIT_ARGS"] = os.environ.get(
        "PYSPARK_SUBMIT_ARGS", "pyspark-shell"
    ).replace(
        "pyspark-shell",
        "--conf spark.ui.showConsoleProgress=false pyspark-shell",
    )

import pytest  # noqa: E402

from repro.tpg.figure1 import figure1  # noqa: E402
from repro.tpg.generator import contact_tracing, g_lite  # noqa: E402
from repro.tpg.model import SparkITPG  # noqa: E402
from repro.trpq import ast  # noqa: E402
from repro.trpq import queries as Q  # noqa: E402
from repro.trpq.interval_eval import IntervalEvaluator  # noqa: E402
from repro.trpq.match import (  # noqa: E402
    eval_match_interval,
    eval_match_local,
    eval_match_point,
    out_columns,
)
from repro.trpq.parser import _cond_test  # noqa: E402
from repro.trpq.semantics import LocalTPG  # noqa: E402
from repro.trpq.spark_eval import PointEvaluator  # noqa: E402

ALL_QUERIES = tuple(Q.TABLE2) + ("INTRO", "Q7R")


@pytest.fixture(scope="session")
def fig1_data():
    return figure1()


@pytest.fixture(scope="session")
def fig1_local(fig1_data):
    return LocalTPG.from_data(fig1_data)


@pytest.fixture(scope="session")
def fig1_itpg(spark, fig1_data):
    return SparkITPG.from_data(spark, fig1_data)


@pytest.fixture(scope="session")
def fig1_tpg(fig1_itpg):
    return fig1_itpg.to_tpg()


@pytest.fixture(scope="session")
def fig1_point_ev(fig1_tpg):
    return PointEvaluator(fig1_tpg)


@pytest.fixture(scope="session")
def fig1_interval_ev(fig1_itpg):
    return IntervalEvaluator(fig1_itpg)


@pytest.fixture(scope="session")
def fig1_expected(fig1_local):
    """Reference binding tables for every named query on Figure 1."""
    return {n: eval_match_local(fig1_local, Q.query(n)) for n in ALL_QUERIES}


@pytest.fixture(scope="session")
def fig1_point_results(fig1_point_ev):
    """Point-evaluator binding tables for every named query (one pass)."""
    out = {}
    for n in ALL_QUERIES:
        q = Q.query(n)
        df = eval_match_point(fig1_point_ev, q)
        out[n] = {tuple(r) for r in df.collect()}
    return out


@pytest.fixture(scope="session")
def fig1_interval_results(fig1_interval_ev):
    """Interval-evaluator binding tables for every named query (one pass)."""
    out = {}
    for n in ALL_QUERIES:
        q = Q.query(n)
        ib = eval_match_interval(fig1_interval_ev, q)
        df = ib.points().select(*out_columns(q))
        out[n] = {tuple(r) for r in df.collect()}
    return out


# --- a small generated graph used for cross-backend and oracle checks ----
@pytest.fixture(scope="session")
def gen_data():
    return contact_tracing(persons=30, positivity=0.15, seed=7)


@pytest.fixture(scope="session")
def gen_local(gen_data):
    return LocalTPG.from_data(gen_data)


@pytest.fixture(scope="session")
def gen_itpg(spark, gen_data):
    return SparkITPG.from_data(spark, gen_data)


@pytest.fixture(scope="session")
def gen_interval_ev(gen_itpg):
    return IntervalEvaluator(gen_itpg)


@pytest.fixture(scope="session")
def gen_point_ev(gen_itpg):
    return PointEvaluator(gen_itpg.to_tpg())


# --- simple conjunctions, which both Spark evaluators compile into one scan
def time_eq(k):
    """``{time = 'k'}`` as the parser lowers it: ``<k+1 ∧ ¬<k``."""
    return _cond_test("time", "=", str(k))


def random_conjunction(rng, data):
    """A random simple conjunction, drawn mostly from one object's own kind,
    label, property values and lifespan so that it is rarely empty."""
    lo, hi = data.omega
    o = rng.choice(list(data.objects.itertuples()))
    own_props = [(r.p, r.v) for r in data.props.itertuples() if r.id == o.id]
    lifespan = [(r.s, r.e) for r in data.exist.itertuples() if r.id == o.id]
    parts = []
    if rng.random() < 0.5:
        parts.append(ast.NODE if o.kind == "node" else ast.EDGE)
    if rng.random() < 0.6:
        parts.append(ast.LabelTest(o.label))
    for pv in rng.sample(own_props, min(len(own_props), rng.randint(0, 2))):
        parts.append(ast.PropTest(*pv))
    if rng.random() < 0.5:
        parts.append(ast.EXISTS)
    r = rng.random()
    if r < 0.4:
        parts.append(ast.LtTest(rng.randint(lo - 1, hi + 2)))
    elif r < 0.7:
        s, e = rng.choice(lifespan)
        parts.append(time_eq(rng.randint(s, e)))
    parts = parts or [ast.EXISTS, ast.NODE]
    rng.shuffle(parts)
    return ast.conj(*parts)


FIXED_CONJUNCTIONS = [
    ast.conj(ast.NODE, ast.LtTest(1), ast.EXISTS),  # time < k with k - 1 < lo
    ast.conj(ast.LtTest(0), ast.LabelTest("Person")),
    ast.conj(ast.NODE, ast.LabelTest("Room"), ast.EXISTS),  # no properties
    ast.conj(ast.LabelTest("Room"), ast.PropTest("risk", "low")),
    ast.conj(ast.NODE, ast.EDGE, ast.EXISTS),
    ast.conj(ast.PropTest("risk", "low"), ast.PropTest("test", "neg"), time_eq(3)),
    ast.conj(ast.EXISTS, ast.LtTest(12), ast.NotTest(ast.LtTest(0))),
    # repeated conjuncts
    ast.conj(ast.LabelTest("Person"), ast.EXISTS, ast.LabelTest("Person"), ast.EXISTS),
    ast.conj(ast.PropTest("risk", "low"), ast.NODE, ast.PropTest("risk", "low"), time_eq(3)),
]


@pytest.fixture(scope="session")
def rung():
    return g_lite("G1", seed=0)


@pytest.fixture(scope="session")
def rung_itpg(spark, rung):
    return SparkITPG.from_data(spark, rung)
