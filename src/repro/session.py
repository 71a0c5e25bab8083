"""The one SparkSession builder of the jobs, the benchmark and the tests.
Driver memory is read at JVM launch, so ``spark-submit`` or
``PYSPARK_SUBMIT_ARGS`` carries it, not this builder."""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """A local session without UI, with Arrow on and broadcast joins off,
    so that joins take the shuffle path even on small inputs.

    Adaptive execution is off, so every action is one Spark job however
    many exchanges its plan has (adaptively, each shuffle map stage is a
    job of its own, and an empty relation prunes some of them), and the
    shuffle partitions equal the default parallelism, the count
    ``SparkITPG.from_data`` hash-partitions the loaded graph into. A join
    on several keys accepts inputs partitioned on a subset of them
    (``requireAllClusterKeysForCoPartition`` off), so the point
    evaluator's joins on ``(id, t)`` read the loaded tables, which are
    partitioned by ``id`` alone, without an exchange.

    PySpark's DataFrame call-site capture is off
    (``spark.python.sql.dataFrameDebugging.enabled``): it wraps every
    ``Column`` and ``functions`` call in JVM round trips, which made up
    most of a plan build's py4j calls. The cost is that an analysis error
    no longer names the Python line that built the failing expression."""
    spark = (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.requireAllClusterKeysForCoPartition", "false")
        .config("spark.python.sql.dataFrameDebugging.enabled", "false")
        .getOrCreate()
    )
    spark.conf.set("spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism)
    return spark
