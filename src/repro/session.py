"""The one SparkSession builder of the jobs, the benchmark and the tests.
Driver memory is read at JVM launch, so ``spark-submit`` or
``PYSPARK_SUBMIT_ARGS`` carries it, not this builder."""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str, shuffle_partitions: int = 16) -> SparkSession:
    """A local session without UI, with Arrow on and broadcast joins off,
    so that joins take the shuffle path even on small inputs. A join on
    several keys accepts inputs partitioned on a subset of them
    (``requireAllClusterKeysForCoPartition`` off), so the point
    evaluator's joins on ``(id, t)`` read the loaded tables, which are
    partitioned by ``id`` alone, without an exchange."""
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(shuffle_partitions))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.requireAllClusterKeysForCoPartition", "false")
        .getOrCreate()
    )
