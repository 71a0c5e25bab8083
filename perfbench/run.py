#!/usr/bin/env python3
"""Benchmark of the TRPQ reproduction on one local Spark session.

    python3 perfbench/run.py --workload table2 --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark builds nothing: it puts the
checkout's ``src/`` and ``jobs/`` first on ``sys.path`` and gets its session
from ``jobs/_session.get_spark``, the builder the jobs use. Only deployment
settings are fixed here, before the JVM starts: the driver heap and the
local and temporary directories, which stay inside ``perfbench/out/``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of an additional traced pass. Each run also writes its full record (config,
versions, per-pass and per-query times, checks, spans) to
``perfbench/out/runs/``. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
HEAP = "1g"  # Spark's default driver heap, made explicit and committed up front


def parse_args(workloads) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def prepare_env() -> None:
    """Point imports at the checkout and fix deployment settings before
    pyspark starts the JVM."""
    missing = [p for p in ("src/repro/__init__.py", "jobs/_session.py") if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"perfbench: {ROOT} is not a checkout of the repository (missing {', '.join(missing)})")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # settings that would change the measured program's configuration or
    # attach to another JVM; the session builder's own defaults apply
    for var in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS", "PYSPARK_GATEWAY_PORT", "PYSPARK_GATEWAY_SECRET"):
        os.environ.pop(var, None)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # -XX:-UsePerfData: no hsperfdata file under the system's /tmp.
    # -XX:-UseDynamicNumberOfCompilerThreads: JIT compiler threads live as
    # long as the JVM, so their CPU time can be read per thread and kept
    # apart from the program's (see SparkProbe.jit_cpu_s)
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--driver-memory {HEAP} "
        f"--driver-java-options '-Xms{HEAP} -XX:-UsePerfData -XX:-UseDynamicNumberOfCompilerThreads "
        f"-Djava.io.tmpdir={tmp}' pyspark-shell"
    )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "jobs")]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    return r.stdout.strip() or None


def session_config(spark) -> dict:
    sc = spark.sparkContext
    conf = spark.conf
    return {
        "spark": spark.version,
        "java": sc._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        "master": sc.master,
        "cores": sc.defaultParallelism,
        "heap_mb": sc._jvm.java.lang.Runtime.getRuntime().maxMemory() / 2**20,
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "arrow": conf.get("spark.sql.execution.arrow.pyspark.enabled"),
        "broadcast_threshold": conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "adaptive": conf.get("spark.sql.adaptive.enabled"),
    }


def stop_spark(spark) -> None:
    """Stop the session and wait until the JVM has exited."""
    from pyspark import SparkContext

    spark.stop()
    gw = SparkContext._gateway
    proc = getattr(gw, "proc", None)
    if gw is not None:
        gw.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        proc.wait(timeout=60)


def main() -> int:
    prepare_env()
    import bench
    from _session import get_spark

    args = parse_args(bench.WORKLOADS)
    wl = bench.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    spark = get_spark("perfbench")
    session_s = time.perf_counter() - t0
    try:
        config = session_config(spark)
        record = bench.run(spark, wl, args.seed, args.seconds, bool(args.trace), t0, session_s)
    finally:
        stop_spark(spark)

    record.update(git_sha=git_sha(), config=config, trace=args.trace)
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    (runs / name).write_text(json.dumps(record, indent=1, default=str))

    if args.trace:
        values, units = record["per_layer"], bench.PER_LAYER
    else:
        values, units = record["metrics"], bench.END_TO_END
    print(
        f"{args.workload} seed={args.seed}: {len(record['passes'])} timed passes, "
        f"{record['attempted']} operations, {record['failed']} failed, record in {runs / name}",
        file=sys.stderr,
    )
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
