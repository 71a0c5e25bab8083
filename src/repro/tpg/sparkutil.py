"""Catalyst helpers shared by the evaluators.

The key primitive is interval coalescing (gaps-and-islands with window
functions): the paper's point-based semantics requires interval
representations to stay temporally coalesced through operations. The
other is :func:`pin_counted`, the one way a relation is materialised
together with its row count.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Observation, Window
from pyspark.sql import functions as F


def pin_counted(df: DataFrame) -> tuple[DataFrame, int]:
    """Eager ``localCheckpoint`` of ``df`` and its row count, both from the
    jobs that write the checkpoint: the count is an :class:`Observation` of
    the rows written, not an action of its own."""
    obs = Observation()
    pinned = df.observe(obs, F.count(F.lit(1)).alias("n")).localCheckpoint(eager=True)
    return pinned, obs.get["n"]


def coalesce_intervals(df: DataFrame, keys: list[str], s: str = "s", e: str = "e") -> DataFrame:
    """Merge overlapping/adjacent ``[s, e]`` intervals per key group.

    Pure window-function gaps-and-islands: an interval starts a new island
    when its start exceeds (running max of previous ends) + 1.
    """
    w = Window.partitionBy(*keys).orderBy(F.col(s), F.col(e))
    prev_max_e = F.max(F.col(e)).over(w.rowsBetween(Window.unboundedPreceding, -1))
    flagged = df.withColumn(
        "_new_island",
        F.when(prev_max_e.isNull() | (F.col(s) > prev_max_e + 1), 1).otherwise(0),
    )
    with_island = flagged.withColumn(
        "_island",
        F.sum("_new_island").over(w.rowsBetween(Window.unboundedPreceding, 0)),
    )
    return (
        with_island.groupBy(*keys, "_island")
        .agg(F.min(s).alias(s), F.max(e).alias(e))
        .drop("_island")
    )


def intersect_intervals(
    a: DataFrame, b: DataFrame, on: list[str], s: str = "s", e: str = "e"
) -> DataFrame:
    """Per-key interval intersection of two interval tables with identical
    ``(on..., s, e)`` schemas. Output rows are the non-empty overlaps."""
    bb = b
    for c in (s, e):
        bb = bb.withColumnRenamed(c, "_b_" + c)
    joined = a.join(bb, on=on)
    return (
        joined.withColumn(s, F.greatest(F.col(s), F.col("_b_" + s)))
        .withColumn(e, F.least(F.col(e), F.col("_b_" + e)))
        .filter(F.col(s) <= F.col(e))
        .drop("_b_" + s, "_b_" + e)
    )


def explode_points(df: DataFrame, s: str = "s", e: str = "e", out: str = "t") -> DataFrame:
    """Expand ``[s, e]`` interval rows into one row per time point; rows
    with ``s > e`` are empty and expand to nothing."""
    return (
        df.filter(F.col(s) <= F.col(e))
        .withColumn(out, F.explode(F.sequence(F.col(s), F.col(e))))
        .drop(s, e)
    )


def complement_intervals(
    df: DataFrame, ids_df: DataFrame, lo: int, hi: int
) -> DataFrame:
    """Per-id complement of an interval table within the domain ``[lo, hi]``.

    ``ids_df`` is the one-column (``id``) universe; ids absent from ``df``
    yield the full domain. Output is coalesced by construction.
    """
    c = coalesce_intervals(df, ["id"])
    w = Window.partitionBy("id").orderBy("s")
    gaps = (
        c.withColumn("_pe", F.lag("e").over(w))
        .select(
            "id",
            F.when(F.col("_pe").isNull(), F.lit(lo))
            .otherwise(F.col("_pe") + 1)
            .alias("gs"),
            (F.col("s") - 1).alias("ge"),
        )
        .filter(F.col("gs") <= F.col("ge"))
        .select("id", F.col("gs").alias("s"), F.col("ge").alias("e"))
    )
    tails = (
        c.groupBy("id")
        .agg((F.max("e") + 1).alias("s"))
        .withColumn("e", F.lit(hi))
        .filter(F.col("s") <= F.col("e"))
        .select("id", "s", "e")
    )
    missing = (
        ids_df.join(c.select("id").distinct(), on="id", how="left_anti")
        .withColumn("s", F.lit(lo).cast("long"))
        .withColumn("e", F.lit(hi).cast("long"))
        .select("id", "s", "e")
    )
    return gaps.unionByName(tails).unionByName(missing)
