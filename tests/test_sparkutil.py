"""Catalyst interval helpers vs the pure-Python interval algebra."""
import pandas as pd
import pytest

from repro.tpg import interval as iv
from repro.tpg.sparkutil import (
    coalesce_intervals,
    complement_intervals,
    explode_points,
    intersect_intervals,
)


def iv_df(spark, rows):
    return spark.createDataFrame(
        pd.DataFrame(rows, columns=["id", "s", "e"]), schema="id string, s long, e long"
    )


def collect_fams(df):
    out = {}
    for r in df.collect():
        out.setdefault(r["id"], []).append((r["s"], r["e"]))
    return {k: sorted(v) for k, v in out.items()}


CASES = [
    {"a": [(1, 2), (3, 4)]},                      # adjacent
    {"a": [(1, 5), (4, 8)]},                      # overlap
    {"a": [(1, 2), (4, 5)], "b": [(1, 10)]},      # gap + second key
    {"a": [(5, 6), (1, 1), (2, 3)]},              # unsorted
    {"a": [(1, 10), (2, 3), (4, 6)]},             # contained
]


@pytest.mark.parametrize("case", CASES)
def test_coalesce_matches_pure(spark, case):
    rows = [(k, s, e) for k, fam in case.items() for s, e in fam]
    got = collect_fams(coalesce_intervals(iv_df(spark, rows), ["id"]))
    assert got == {k: iv.coalesce(fam) for k, fam in case.items()}


def test_intersect_matches_pure(spark):
    a = iv_df(spark, [("x", 1, 5), ("x", 8, 9), ("y", 1, 3)])
    b = iv_df(spark, [("x", 3, 8), ("y", 5, 6)])
    got = collect_fams(intersect_intervals(a, b, ["id"]))
    assert got == {"x": [(3, 5), (8, 8)]}


def test_complement_matches_pure(spark):
    ids = spark.createDataFrame(pd.DataFrame({"id": ["x", "y", "z"]}))
    df = iv_df(spark, [("x", 3, 4), ("y", 1, 10)])
    got = collect_fams(complement_intervals(df, ids, 1, 10))
    assert got == {
        "x": iv.complement([(3, 4)], 1, 10),
        "z": [(1, 10)],
    }


def test_complement_uncoalesced_input(spark):
    ids = spark.createDataFrame(pd.DataFrame({"id": ["x"]}))
    df = iv_df(spark, [("x", 1, 2), ("x", 3, 4), ("x", 8, 8)])
    got = collect_fams(complement_intervals(df, ids, 1, 10))
    assert got == {"x": [(5, 7), (9, 10)]}


def test_explode_points(spark):
    df = iv_df(spark, [("x", 2, 4), ("y", 7, 7), ("z", 5, 3)])
    got = {(r["id"], r["t"]) for r in explode_points(df).collect()}
    assert got == {("x", 2), ("x", 3), ("x", 4), ("y", 7)}
