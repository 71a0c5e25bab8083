"""Reproduce Table II: Q1–Q12 on the largest graph via the interval
evaluator, reporting interval-based time, total time and output size.

Usage: ``python jobs/table2.py [--graph G10] [--repeats 3] [--seed N] [--json PATH]``

``--json PATH`` also writes the run as JSON: per query (its fastest
repeat) ``interval_s``, ``total_s``, ``output``, the Spark ``jobs`` it
launched and the ``joins`` and ``exchanges`` of its Steps 1–2 plan; the
load time, the graph, seed and repeats, the git SHA of the checkout and the
Spark configuration as the session reports it.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import time
from pathlib import Path

from _session import get_spark
from repro.bench.tables import format_table2, table2_rows
from repro.tpg.generator import g_lite
from repro.tpg.model import SparkITPG

ROOT = Path(__file__).resolve().parent.parent
QUERY_KEYS = ("interval_s", "total_s", "output", "jobs", "joins", "exchanges")


def git_sha() -> str | None:
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() or None


def spark_config(spark) -> dict:
    sc = spark.sparkContext
    conf = spark.conf
    return {
        "spark": spark.version,
        "master": sc.master,
        "cores": sc.defaultParallelism,
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "arrow": conf.get("spark.sql.execution.arrow.pyspark.enabled"),
        "broadcast_threshold": conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "adaptive": conf.get("spark.sql.adaptive.enabled"),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--graph", default="G10")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", metavar="PATH", help="also write the run as JSON to PATH")
    args = ap.parse_args()
    spark = get_spark("table2")
    data = g_lite(args.graph, seed=args.seed)
    stats = data.stats()
    print(f"graph {args.graph}: {stats}")
    t = time.perf_counter()
    itpg = SparkITPG.from_data(spark, data)
    load_s = time.perf_counter() - t
    rows = table2_rows(spark, itpg, repeats=args.repeats)
    print(format_table2(rows))
    if args.json:
        record = {
            "git_sha": git_sha(),
            "spark_config": spark_config(spark),
            "graph": args.graph,
            "seed": args.seed,
            "repeats": args.repeats,
            "stats": stats,
            "load_s": load_s,
            "queries": {
                r["query"]: {k: r[k] for k in QUERY_KEYS} for r in rows
            },
        }
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    spark.stop()


if __name__ == "__main__":
    main()
