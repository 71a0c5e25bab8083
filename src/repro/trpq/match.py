"""MATCH-clause evaluation: from per-link path relations to binding tables.

A parsed MATCH clause is a chain ``pattern - link - pattern - ...``; each
link (together with its endpoint pattern tests) is one NavL[PC,NOI]
expression. The binding table of the clause (the paper's tables with
columns ``x, x_time, y, y_time, ...``) is the join of the per-link
relations on the shared chain positions.

Three backends share this logic:

* :func:`eval_match_point`   — Spark point evaluator (full language);
* :func:`eval_match_local`   — pure-Python reference semantics (oracle);
* :func:`eval_match_interval`— Section VI interval evaluator; returns an
  :class:`IntervalBindings` that separates Steps 1–2 (interval relation)
  from Step 3 (``points()`` expansion), so benchmarks can time them the
  way Table II reports them.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..tpg.sparkutil import coalesce_intervals, explode_points
from . import ast
from .interval_eval import COLS, IntervalEvaluator, UnsupportedFragment, compose
from .parser import MatchQuery
from .semantics import LocalTPG, eval_path
from .spark_eval import PointEvaluator

_RESERVED = {
    *COLS, "s", "e", "t", "t1", "t2", "_cur", "_m", "_lo", "_hi", *("_r" + c for c in COLS)
}


def segment_asts(q: MatchQuery, shared_once: bool = False) -> list[ast.Path]:
    """One NavL expression per link: ``test_i / link_i / test_{i+1}``.

    A clause with a single pattern yields the bare pattern test. With
    ``shared_once`` every segment but the last leaves out its trailing
    test, which the next segment starts with, so a chain join that
    intersects the shared position's intervals tests each pattern once.
    """
    pats, links = q.patterns, q.links
    for v in q.vars:
        if v in _RESERVED:
            raise ValueError(f"variable name {v!r} is reserved")
    if len(q.vars) != len(set(q.vars)):
        raise ValueError("duplicate variable names are not supported")
    if not links:
        return [ast.seq(ast.TestExpr(pats[0].test()))]
    last = len(links) - 1
    return [
        ast.seq(ast.TestExpr(pats[i].test()), links[i])
        if shared_once and i < last
        else ast.seq(ast.TestExpr(pats[i].test()), links[i], ast.TestExpr(pats[i + 1].test()))
        for i in range(len(links))
    ]


def out_columns(q: MatchQuery) -> list[str]:
    """Binding-table column names in order: ``x, x_time, y, y_time, ...``."""
    cols: list[str] = []
    for v in q.vars:
        cols += [v, f"{v}_time"]
    return cols


# ----------------------------------------------------------- point backend


def eval_match_point(ev: PointEvaluator, q: MatchQuery) -> DataFrame:
    """Binding table via the point-based evaluator (columns per
    :func:`out_columns`)."""
    segs = segment_asts(q)
    pats = q.patterns

    def tag(df: DataFrame, left_idx: int) -> DataFrame:
        lv, rv = pats[left_idx].var, pats[left_idx + 1].var if left_idx + 1 < len(pats) else None
        sel = [F.col("o2").alias("_cur"), F.col("t2").alias("_curt")]
        if lv:
            sel = [F.col("o1").alias(lv), F.col("t1").alias(f"{lv}_time")] + sel
        if rv:
            sel += [F.col("o2").alias(rv), F.col("t2").alias(f"{rv}_time")]
        return df.select(*sel)

    first = ev.rel(segs[0])
    if len(pats) == 1:
        v = pats[0].var
        out = first.select(F.col("o1").alias(v), F.col("t1").alias(f"{v}_time"))
        return out.distinct()
    acc = tag(first, 0)
    for i in range(1, len(segs)):
        rel = ev.rel(segs[i])
        rv = pats[i + 1].var
        sel = [
            F.col("o1").alias("_cur"),
            F.col("t1").alias("_curt"),
            F.col("o2").alias("_nxt"),
            F.col("t2").alias("_nxtt"),
        ]
        rel = rel.select(*sel)
        acc = (
            acc.join(rel, on=["_cur", "_curt"])
            .drop("_cur", "_curt")
            .withColumnRenamed("_nxt", "_cur")
            .withColumnRenamed("_nxtt", "_curt")
        )
        if rv:
            acc = acc.withColumn(rv, F.col("_cur")).withColumn(
                f"{rv}_time", F.col("_curt")
            )
    return acc.select(*out_columns(q)).distinct()


# ----------------------------------------------------------- local backend


def eval_match_local(g: LocalTPG, q: MatchQuery) -> set[tuple]:
    """Binding table via the reference semantics, as a set of row tuples
    ordered per :func:`out_columns`."""
    segs = segment_asts(q)
    pats = q.patterns
    rels = [eval_path(g, s) for s in segs]
    if len(pats) == 1:
        return {(o1, t1) for o1, t1, _, _ in rels[0]}
    # rows: dict from chain position values; start with first link
    rows = [((o1, t1), (o2, t2)) for o1, t1, o2, t2 in rels[0]]
    chains = [list(r) for r in rows]
    for rel in rels[1:]:
        index: dict[tuple, list[tuple]] = {}
        for o1, t1, o2, t2 in rel:
            index.setdefault((o1, t1), []).append((o2, t2))
        chains = [c + [nxt] for c in chains for nxt in index.get(c[-1], ())]
    out: set[tuple] = set()
    for c in chains:
        row: list = []
        for pat, (o, t) in zip(pats, c):
            if pat.var:
                row += [o, t]
        out.add(tuple(row))
    return out


# -------------------------------------------------------- interval backend


@dataclass
class IntervalBindings:
    """Composed interval relation for a whole MATCH chain (Steps 1–2).

    ``df`` carries one object column per *captured* variable plus the
    interval columns ``(s1, e1, s2, e2, dmin, dmax)`` of
    :data:`~repro.trpq.interval_eval.COLS`: variables up to the temporal
    link's start (all of them when ``temporal`` is false) are bound at
    ``t1``, the rest at ``t2``.
    """

    df: DataFrame
    vars_pre: list[str]
    vars_post: list[str]
    temporal: bool

    @property
    def vars(self) -> list[str]:
        return self.vars_pre + self.vars_post

    def materialize(self) -> int:
        """Force Steps 1–2 (the paper's "interval-based time")."""
        self.df = self.df.cache()
        return self.df.count()

    # ------------------------------------------------------------- Step 3
    def points(self, distinct: bool = True) -> DataFrame:
        """Point-wise expansion to the binding table (Step 3).

        ``distinct=False`` keeps duplicate bindings (bag semantics): one
        row per ``(t1, t2)`` witness pair. The paper's Table II output
        sizes for the temporal-navigation queries are bag counts — Q11's
        22.9M tuples exceed the graph's 4.8M (person, time) pairs, so its
        dataflow implementation does not deduplicate — and the benchmark
        harness mirrors that convention. ``t2`` is expanded only for bag
        output or when a variable is bound at it.
        """
        df = explode_points(
            self.df.withColumns({
                "_lo": F.greatest(F.col("s1"), F.col("s2") - F.col("dmax")),
                "_hi": F.least(F.col("e1"), F.col("e2") - F.col("dmin")),
            }),
            "_lo", "_hi", "t1",
        )
        if self.vars_post or not distinct:
            df = explode_points(
                df.withColumns({
                    "_lo": F.greatest(F.col("s2"), F.col("t1") + F.col("dmin")),
                    "_hi": F.least(F.col("e2"), F.col("t1") + F.col("dmax")),
                }),
                "_lo", "_hi", "t2",
            )
        out = df.select(
            *[c for v in self.vars_pre for c in (F.col(v), F.col("t1").alias(f"{v}_time"))],
            *[c for v in self.vars_post for c in (F.col(v), F.col("t2").alias(f"{v}_time"))],
        )
        return out.distinct() if distinct else out

    def coalesced(self) -> DataFrame:
        """Temporally coalesced output for purely structural queries
        (Q1–Q5 style): one row per variable tuple and maximal interval."""
        if self.temporal:
            raise UnsupportedFragment("coalesced output requires a structural chain")
        df = self.df.select(*self.vars, F.col("s1").alias("s"), F.col("e1").alias("e"))
        return coalesce_intervals(df, self.vars)


def eval_match_interval(ev: IntervalEvaluator, q: MatchQuery) -> IntervalBindings:
    """Evaluate the chain on the interval backend (Steps 1–2 only).

    Each pattern is tested once: a link relation ends untested at the
    shared position, and :func:`~repro.trpq.interval_eval.compose` joins it
    there with the next link, which starts from the pattern's test. A
    pattern's variable is captured at its position before that join.
    """
    segs = segment_asts(q, shared_once=True)
    pats = q.patterns
    links = [ev.eval_link(s) for s in segs]
    if sum(lr.temporal for lr in links) > 1:
        raise UnsupportedFragment("more than one temporal link in a MATCH chain")
    # patterns after the temporal link are bound at t2
    split = next((i + 1 for i, lr in enumerate(links) if lr.temporal), len(pats))

    def capture(df: DataFrame, idx: int, col: str) -> DataFrame:
        v = pats[idx].var if idx < len(pats) else None
        return df.withColumn(v, F.col(col)) if v else df

    acc = capture(links[0].df, 0, "o1")
    for i in range(1, len(links)):
        acc = compose(capture(acc, i, "o2"), links[i].df)
    acc = capture(acc, len(links), "o2")
    named = [(j, p.var) for j, p in enumerate(pats) if p.var]
    return IntervalBindings(
        acc.select(*[v for _, v in named], *COLS[2:]),
        [v for j, v in named if j < split],
        [v for j, v in named if j >= split],
        temporal=any(lr.temporal for lr in links),
    )
