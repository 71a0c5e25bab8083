"""MATCH-clause evaluation: from a parsed chain to binding tables.

A parsed MATCH clause is a chain ``pattern - link - pattern - ...``. The
binding table of the clause (the paper's tables with columns
``x, x_time, y, y_time, ...``) holds the chain positions of its named
patterns.

Three backends share this logic:

* :func:`eval_match_point`   — Spark point evaluator (full language);
* :func:`eval_match_interval`— Section VI interval evaluator; it returns
  an :class:`IntervalBindings` that separates Steps 1–2 (interval
  relation) from Step 3 (``points()`` expansion), so benchmarks can time
  them the way Table II reports them;
* :func:`eval_match_local`   — pure-Python reference semantics (oracle);
  it joins one relation per link (:func:`segment_asts`), which checks the
  Spark backends' one left-deep walk over the chain (:func:`chain_steps`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..tpg.sparkutil import coalesce_intervals, explode_points, pin_counted
from . import ast
from .interval_eval import COLS, IntervalEvaluator, UnsupportedFragment
from .parser import MatchQuery
from .semantics import LocalTPG, eval_path
from .spark_eval import PointEvaluator

_RESERVED = {
    *COLS, "s", "e", "t", "t1", "t2", "_m", "_lo", "_hi", *("_r" + c for c in COLS),
    "_new",  # IntervalEvaluator._apply_move's hop column
    "_island", "_new_island",  # coalesce_intervals' columns
    "_jo", "_jt",  # PointEvaluator.compose's join columns
}


def _check_vars(q: MatchQuery) -> None:
    for v in q.vars:
        if v in _RESERVED:
            raise ValueError(f"variable name {v!r} is reserved")
        if f"{v}_time" in q.vars:
            raise ValueError(f"variable name '{v}_time' is reserved for the time of {v!r}")
    if len(q.vars) != len(set(q.vars)):
        raise ValueError("duplicate variable names are not supported")


def segment_asts(q: MatchQuery) -> list[ast.Path]:
    """One NavL expression per link: ``test_i / link_i / test_{i+1}``.

    A clause with a single pattern yields the bare pattern test.
    """
    _check_vars(q)
    pats, links = q.patterns, q.links
    if not links:
        return [ast.seq(ast.TestExpr(pats[0].test()))]
    return [
        ast.seq(ast.TestExpr(pats[i].test()), links[i], ast.TestExpr(pats[i + 1].test()))
        for i in range(len(links))
    ]


def chain_steps(q: MatchQuery) -> list[ast.Path | ast.Capture]:
    """The chain as one walk: ``test_0, capture(v0), link_0, test_1,
    capture(v1), …, test_n, capture(vn)``, with each link's parts inlined
    and a capture only for a named pattern. Each pattern is tested once."""
    _check_vars(q)
    steps: list[ast.Path | ast.Capture] = []
    for i, pat in enumerate(q.patterns):
        if i:
            link = q.links[i - 1]
            steps += link.parts if isinstance(link, ast.Seq) else [link]
        steps.append(ast.TestExpr(pat.test()))
        if pat.var:
            steps.append(ast.Capture(pat.var))
    return steps


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
    return ev.walk(chain_steps(q)).select(*out_columns(q)).distinct()


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

    ``df`` stays the lazy plan of Steps 1–2, so its executed plan can be
    read after :meth:`materialize`; Step 3 reads ``pinned``, the
    checkpoint that :meth:`materialize` takes, when there is one.
    """

    df: DataFrame
    vars_pre: list[str]
    vars_post: list[str]
    temporal: bool
    pinned: DataFrame | None = field(default=None, repr=False)

    @property
    def vars(self) -> list[str]:
        return self.vars_pre + self.vars_post

    def materialize(self) -> int:
        """Force Steps 1–2 (the paper's "interval-based time") into a local
        checkpoint and return the relation's row count, counted by the
        checkpoint's own jobs (:func:`~repro.tpg.sparkutil.pin_counted`)."""
        self.pinned, n = pin_counted(self.df)
        return n

    def _rel(self) -> DataFrame:
        return self.df if self.pinned is None else self.pinned

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
            self._rel().withColumns({
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
        df = self._rel().select(*self.vars, F.col("s1").alias("s"), F.col("e1").alias("e"))
        return coalesce_intervals(df, self.vars)


def eval_match_interval(ev: IntervalEvaluator, q: MatchQuery) -> IntervalBindings:
    """Evaluate the chain on the interval backend (Steps 1–2 only).

    The chain is one :meth:`~repro.trpq.interval_eval.IntervalEvaluator.walk`
    over :func:`chain_steps`, which captures each variable as ``o2`` at its
    position: before the temporal step it is bound at ``t1``, after it at
    ``t2``. A second temporal link raises :class:`UnsupportedFragment`.
    """
    state = ev.walk(chain_steps(q))
    return IntervalBindings(
        state.df.select(*q.vars, *COLS[2:]),
        [v for v in q.vars if v not in state.post],
        list(state.post),
        temporal=state.temporal,
    )
