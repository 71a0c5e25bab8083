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

from ..tpg.sparkutil import coalesce_intervals, intersect_intervals
from . import ast
from .interval_eval import OFFSET_COLS, IntervalEvaluator, LinkRel, UnsupportedFragment
from .parser import MatchQuery
from .semantics import LocalTPG, eval_path
from .spark_eval import PointEvaluator

_RESERVED = {"o1", "o2", "s", "e", "s1", "e1", "s2", "e2", "dmin", "dmax", "_cur", "t", "t1", "t2"}


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
    interval columns: aligned chains have ``(s, e)`` (every variable's time
    equals ``t ∈ [s, e]``); offset chains have
    ``(s1, e1, s2, e2, dmin, dmax)`` with pre-temporal variables at ``t1``
    and post-temporal variables at ``t2``.
    """

    df: DataFrame
    vars_pre: list[str]
    vars_post: list[str]
    offset: bool

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

        ``distinct=False`` keeps duplicate bindings (bag semantics). The
        paper's Table II output sizes for the temporal-navigation queries
        are bag counts — Q11's 22.9M tuples exceed the graph's 4.8M
        (person, time) pairs, so its dataflow implementation does not
        deduplicate — and the benchmark harness mirrors that convention.
        """
        cols: list = []
        for v in self.vars:
            cols += [v, f"{v}_time"]
        if not self.offset:
            df = self.df.withColumn("t", F.explode(F.sequence("s", "e")))
            out = df.select(
                *[
                    c
                    for v in self.vars
                    for c in (F.col(v), F.col("t").alias(f"{v}_time"))
                ]
            )
            return out.distinct() if distinct else out
        t1lo = F.greatest(F.col("s1"), F.col("s2") - F.col("dmax"))
        t1hi = F.least(F.col("e1"), F.col("e2") - F.col("dmin"))
        if not distinct:
            # bag semantics: expand full (t1, t2) witness pairs, then
            # project to the captured variables (the paper's accounting).
            return self._expand_pairs(t1lo, t1hi)
        if not self.vars_post:
            df = (
                self.df.withColumn("_lo", t1lo)
                .withColumn("_hi", t1hi)
                .filter(F.col("_lo") <= F.col("_hi"))
                .withColumn("t1", F.explode(F.sequence("_lo", "_hi")))
            )
            out = df.select(
                *[
                    c
                    for v in self.vars_pre
                    for c in (F.col(v), F.col("t1").alias(f"{v}_time"))
                ]
            )
            return out.distinct() if distinct else out
        if not self.vars_pre:
            t2lo = F.greatest(F.col("s2"), F.col("s1") + F.col("dmin"))
            t2hi = F.least(F.col("e2"), F.col("e1") + F.col("dmax"))
            df = (
                self.df.withColumn("_lo", t2lo)
                .withColumn("_hi", t2hi)
                .filter(F.col("_lo") <= F.col("_hi"))
                .withColumn("t2", F.explode(F.sequence("_lo", "_hi")))
            )
            out = df.select(
                *[
                    c
                    for v in self.vars_post
                    for c in (F.col(v), F.col("t2").alias(f"{v}_time"))
                ]
            )
            return out.distinct() if distinct else out
        return self._expand_pairs(t1lo, t1hi).distinct()

    def _expand_pairs(self, t1lo, t1hi) -> DataFrame:
        """Expand every valid (t1, t2) witness pair and project to the
        captured variable columns (no dedup)."""
        df = (
            self.df.withColumn("_lo", t1lo)
            .withColumn("_hi", t1hi)
            .filter(F.col("_lo") <= F.col("_hi"))
            .withColumn("t1", F.explode(F.sequence("_lo", "_hi")))
        )
        t2lo = F.greatest(F.col("s2"), F.col("t1") + F.col("dmin"))
        t2hi = F.least(F.col("e2"), F.col("t1") + F.col("dmax"))
        df = (
            df.withColumn("_lo2", t2lo)
            .withColumn("_hi2", t2hi)
            .filter(F.col("_lo2") <= F.col("_hi2"))
            .withColumn("t2", F.explode(F.sequence("_lo2", "_hi2")))
        )
        sel = []
        for v in self.vars_pre:
            sel += [F.col(v), F.col("t1").alias(f"{v}_time")]
        for v in self.vars_post:
            sel += [F.col(v), F.col("t2").alias(f"{v}_time")]
        return df.select(*sel)

    def coalesced(self) -> DataFrame:
        """Temporally coalesced output for purely structural queries
        (Q1–Q5 style): one row per variable tuple and maximal interval."""
        if self.offset:
            raise UnsupportedFragment("coalesced output requires an aligned chain")
        return coalesce_intervals(self.df.select(*self.vars, "s", "e"), self.vars)


def eval_match_interval(ev: IntervalEvaluator, q: MatchQuery) -> IntervalBindings:
    """Evaluate the chain on the interval backend (Steps 1–2 only).

    Each pattern is tested once: a link relation ends untested at the
    shared position, and the chain join intersects its intervals there
    with those of the next link, which starts from the pattern's test.
    """
    segs = segment_asts(q, shared_once=True)
    pats = q.patterns
    links = [ev.eval_link(s) for s in segs]

    if len(pats) == 1:
        v = pats[0].var
        df = links[0].df.select(F.col("o1").alias(v), "s", "e")
        return IntervalBindings(df, [v], [], offset=False)

    def var_cols(df: DataFrame, idx: int, col: str) -> DataFrame:
        v = pats[idx].var
        return df.withColumn(v, F.col(col)) if v else df

    first = links[0]
    acc = var_cols(first.df, 0, "o1")
    acc = var_cols(acc, 1, "o2")
    acc = acc.withColumnRenamed("o2", "_cur").drop("o1")
    offset = first.offset
    split_at = 1 if offset else None  # patterns > split_at-1 are post-temporal
    for i in range(1, len(links)):
        lr: LinkRel = links[i]
        if lr.offset and offset:
            raise UnsupportedFragment(
                "more than one temporal link in a MATCH chain"
            )
        ends = [F.col("o1").alias("_cur"), F.col("o2").alias("_nxt")]
        if lr.offset:
            # the aligned chain's [s, e] meets the link's start interval
            acc = acc.withColumnRenamed("s", "s1").withColumnRenamed("e", "e1")
            rel = lr.df.select(*ends, *OFFSET_COLS[2:])
            s, e = "s1", "e1"
            offset = True
            split_at = i + 1
        else:
            s, e = ("s2", "e2") if offset else ("s", "e")
            rel = lr.df.select(*ends, F.col("s").alias(s), F.col("e").alias(e))
        acc = (
            intersect_intervals(acc, rel, ["_cur"], s, e)
            .drop("_cur")
            .withColumnRenamed("_nxt", "_cur")
        )
        acc = var_cols(acc, i + 1, "_cur")
    acc = acc.drop("_cur")
    named = [(j, p.var) for j, p in enumerate(pats) if p.var]
    if split_at is None:
        return IntervalBindings(acc, [v for _, v in named], [], offset=False)
    vars_pre = [v for j, v in named if j < split_at]
    vars_post = [v for j, v in named if j >= split_at]
    return IntervalBindings(acc, vars_pre, vars_post, offset=True)
