"""Harness for Tables I and II and the Fig. 4/5 sweeps (Section VII).

Every function returns plain row dicts; ``format_*`` helpers print them
side by side with the paper's published numbers so EXPERIMENTS.md and the
``jobs/`` entrypoints share one source of truth.
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from ..probe import counted_jobs, plan_ops
from ..tpg.generator import G_LITE, g_lite
from ..tpg.model import ITPGData, SparkITPG
from ..trpq import queries as Q
from ..trpq.interval_eval import IntervalEvaluator
from ..trpq.match import eval_match_interval
from ..trpq.parser import MatchQuery

#: Table I as published (paper graph → counts).
PAPER_TABLE1 = {
    "G1": (1_000, 12_000, 3_500, 14_000),
    "G2": (2_000, 30_000, 7_000, 35_000),
    "G3": (4_000, 84_000, 14_000, 94_000),
    "G4": (6_000, 158_000, 20_000, 180_000),
    "G5": (8_000, 253_000, 28_000, 282_000),
    "G6": (10_000, 371_000, 34_000, 413_000),
    "G7": (25_000, 2_046_000, 85_000, 2_215_000),
    "G8": (50_000, 7_370_000, 170_000, 8_048_000),
    "G9": (75_000, 15_717_000, 256_000, 17_554_000),
    "G10": (100_000, 28_996_000, 340_000, 32_255_000),
}

#: Table II as published: query → (interval-based time s, total time s, output size).
PAPER_TABLE2 = {
    "Q1": (0.004, 0.004, 341_278),
    "Q2": (0.017, 0.017, 278_931),
    "Q3": (0.016, 0.016, 26_494),
    "Q4": (0.038, 0.038, 116_021),
    "Q5": (4.546, 4.546, 743_714),
    "Q6": (0.096, 0.173, 86_553),
    "Q7": (0.036, 0.079, 47_287),
    "Q8": (0.025, 0.379, 1_277_729),
    "Q9": (0.828, 0.983, 1_234_922),
    "Q10": (0.899, 1.509, 3_927_763),
    "Q11": (1.375, 4.986, 22_961_108),
    "Q12": (2.434, 6.455, 26_888_871),
}


# ------------------------------------------------------------------ Table I
def table1_rows(names: tuple[str, ...] = tuple(G_LITE), seed: int = 0) -> list[dict]:
    """Generate the G-lite ladder and collect Table I statistics."""
    rows = []
    for name in names:
        data = g_lite(name, seed=seed)
        st = data.stats()
        p_nodes, p_edges, p_tn, p_te = PAPER_TABLE1[name]
        rows.append(
            {
                "graph": name,
                "persons": G_LITE[name],
                **st,
                "paper_nodes": p_nodes,
                "paper_edges": p_edges,
                "paper_temp_nodes": p_tn,
                "paper_temp_edges": p_te,
            }
        )
    return rows


def format_table1(rows: list[dict]) -> str:
    hdr = (
        f"{'graph':>6} {'persons':>8} | {'nodes':>8} {'edges':>9} "
        f"{'t.nodes':>8} {'t.edges':>9} | {'paper nodes':>11} {'paper edges':>11} "
        f"{'paper t.n':>10} {'paper t.e':>10}"
    )
    lines = [hdr, "-" * len(hdr)]
    for r in rows:
        lines.append(
            f"{r['graph']:>6} {r['persons']:>8} | {r['nodes']:>8} {r['edges']:>9} "
            f"{r['temp_nodes']:>8} {r['temp_edges']:>9} | {r['paper_nodes']:>11} "
            f"{r['paper_edges']:>11} {r['paper_temp_nodes']:>10} {r['paper_temp_edges']:>10}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------- Table II
def run_query_interval(
    ev: IntervalEvaluator, q: MatchQuery, coalesced_output: bool
) -> dict:
    """Run one query on the interval backend, timing Steps 1–2 vs total.

    ``interval_s`` materialises the composed interval relation (the paper's
    "interval-based time"); ``total_s`` adds Step 3 (point expansion) when
    the query uses temporal navigation, or interval coalescing of the
    output when it does not (Q1–Q5, whose output stays coalesced).
    ``jobs`` counts the Spark jobs of both, and ``joins``/``exchanges`` are
    read from the executed plan of Steps 1–2 after the timed part.
    """

    def timed() -> tuple:
        t0 = time.perf_counter()
        ib = eval_match_interval(ev, q)
        ib.materialize()
        t1 = time.perf_counter()
        if coalesced_output:
            out_size = ib.coalesced().count()
        else:
            # bag count, mirroring the paper's Table II accounting (see
            # IntervalBindings.points docstring).
            out_size = ib.points(distinct=False).count()
        t2 = time.perf_counter()
        return ib, {"interval_s": t1 - t0, "total_s": t2 - t0, "output": out_size}

    (ib, row), jobs = counted_jobs(ev.g.objects.sparkSession, "table2", timed)
    joins, exchanges = plan_ops(ib.df)
    return {**row, "jobs": jobs, "joins": joins, "exchanges": exchanges}


def table2_rows(
    spark: SparkSession,
    data: ITPGData | SparkITPG,
    names: tuple[str, ...] = Q.TABLE2,
    repeats: int = 1,
) -> list[dict]:
    """Run Q1–Q12 on ``data`` (loaded here unless it already is) via the
    interval evaluator (Table II)."""
    itpg = data if isinstance(data, SparkITPG) else SparkITPG.from_data(spark, data)
    ev = IntervalEvaluator(itpg)
    rows = []
    for name in names:
        q = Q.query(name)
        best = None
        for _ in range(repeats):
            r = run_query_interval(ev, q, coalesced_output=name in Q.STRUCTURAL_ONLY)
            if best is None or r["total_s"] < best["total_s"]:
                best = r
        p_int, p_tot, p_out = PAPER_TABLE2[name]
        rows.append(
            {
                "query": name,
                **best,
                "paper_interval_s": p_int,
                "paper_total_s": p_tot,
                "paper_output": p_out,
            }
        )
    return rows


def format_table2(rows: list[dict]) -> str:
    hdr = (
        f"{'query':>5} | {'interval(s)':>11} {'total(s)':>9} {'output':>10} | "
        f"{'paper int(s)':>12} {'paper tot(s)':>12} {'paper output':>12}"
    )
    lines = [hdr, "-" * len(hdr)]
    for r in rows:
        lines.append(
            f"{r['query']:>5} | {r['interval_s']:>11.3f} {r['total_s']:>9.3f} "
            f"{r['output']:>10} | {r['paper_interval_s']:>12.3f} "
            f"{r['paper_total_s']:>12.3f} {r['paper_output']:>12}"
        )
    return "\n".join(lines)


# ------------------------------------------------------------------- sweeps
def window_sweep_rows(
    spark: SparkSession,
    data: ITPGData,
    names: tuple[str, ...] = ("Q10", "Q11", "Q12"),
    windows: tuple[int, ...] = (4, 8, 16, 24, 32, 40, 48),
) -> list[dict]:
    """Fig. 4 shape check: vary the temporal-navigation bound m in [0, m]."""
    itpg = SparkITPG.from_data(spark, data)
    ev = IntervalEvaluator(itpg)
    rows = []
    for name in names:
        for m in windows:
            r = run_query_interval(ev, Q.with_window(name, m), coalesced_output=False)
            rows.append({"query": name, "m": m, **r})
    return rows


def positivity_sweep_rows(
    spark: SparkSession,
    persons: int,
    rates: tuple[float, ...] = (0.02, 0.04, 0.06, 0.08, 0.10),
    names: tuple[str, ...] = ("Q6", "Q7", "Q8", "Q9", "Q10", "Q11"),
    seed: int = 0,
) -> list[dict]:
    """Fig. 5 shape check: vary the positivity rate (query selectivity)."""
    from ..tpg.generator import contact_tracing

    rows = []
    for rate in rates:
        data = contact_tracing(persons=persons, positivity=rate, seed=seed)
        itpg = SparkITPG.from_data(spark, data)
        ev = IntervalEvaluator(itpg)
        for name in names:
            r = run_query_interval(ev, Q.query(name), coalesced_output=False)
            rows.append({"rate": rate, "query": name, **r})
    return rows
