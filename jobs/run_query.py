"""Run any named query (Q1–Q12, INTRO, Q7R) or an ad-hoc MATCH clause on a
G-lite graph or the Figure 1 example, printing the number of result rows,
the Spark jobs that evaluating and counting the query launched (loading
the graph not included), the joins and exchanges of the binding table's
executed plan, and the binding table.

Usage::

    python jobs/run_query.py Q9 --graph fig1
    python jobs/run_query.py Q11 --graph G3 --backend point
    python jobs/run_query.py --match "MATCH (x:Person) ON g" --graph fig1
"""
from __future__ import annotations

import argparse

from _session import get_spark
from repro.probe import counted_jobs, plan_ops
from repro.tpg.figure1 import figure1
from repro.tpg.generator import g_lite
from repro.tpg.model import SparkITPG
from repro.trpq import queries as Q
from repro.trpq.interval_eval import IntervalEvaluator
from repro.trpq.match import eval_match_interval, eval_match_point, out_columns
from repro.trpq.parser import parse_match
from repro.trpq.spark_eval import PointEvaluator


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("query", nargs="?", help="named query, e.g. Q9")
    ap.add_argument("--match", help="ad-hoc MATCH clause text")
    ap.add_argument("--graph", default="fig1", help="fig1 or G1..G10")
    ap.add_argument("--backend", choices=["interval", "point"], default="interval")
    ap.add_argument("--limit", type=int, default=50)
    args = ap.parse_args()
    q = parse_match(args.match) if args.match else Q.query(args.query)
    data = figure1() if args.graph == "fig1" else g_lite(args.graph)
    spark = get_spark("run_query")
    itpg = SparkITPG.from_data(spark, data)
    tpg = itpg.to_tpg() if args.backend == "point" else None

    def evaluate():
        if args.backend == "interval":
            out = eval_match_interval(IntervalEvaluator(itpg), q).points()
        else:
            out = eval_match_point(PointEvaluator(tpg), q)
        out = out.select(*out_columns(q))
        return out, out.count()

    (out, rows), jobs = counted_jobs(spark, "run_query", evaluate)
    joins, exchanges = plan_ops(out)
    print(f"rows: {rows}")
    print(f"jobs: {jobs}")
    print(f"joins: {joins}")
    print(f"exchanges: {exchanges}")
    out.orderBy(*out_columns(q)).show(args.limit, truncate=False)
    spark.stop()


if __name__ == "__main__":
    main()
