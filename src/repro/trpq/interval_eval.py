"""Interval-based TRPQ evaluation (Section VI of the paper).

This is the paper's optimised implementation fragment over
interval-timestamped TPGs, decomposed exactly as in the paper:

* **Step 1** — structural navigation evaluated over the interval
  representation: tests intersect validity intervals, ``F``/``B`` join the
  static edge relation, nothing ever expands to time points;
* **Step 2** — temporal navigation by interval arithmetic: ``(N/∃)[n,m]``
  from ``(o, t)`` reaches ``(o, t')`` iff ``t'−t ∈ [max(n,1), m]`` and
  ``[t+1, t']`` lies inside a single *maximal* existence interval of ``o``
  (coalesced families make this an O(1) interval computation per pair),
  plus the trivial ``t' = t`` case when ``n = 0``;
* **Step 3** — point-wise expansion, performed by the match layer
  (``match.py``) only when the query needs point-based output (Q6–Q12).

The supported fragment is the one the paper implements ("all queries of
Section IV"): path expressions with at most one temporal segment per
root-to-leaf branch, structural parts built from tests, ``F``, ``B`` and
unions. Anything outside (structural Kleene stars, nested path conditions,
a second temporal segment) raises :class:`UnsupportedFragment`; the general
point-based evaluator covers those.

Interval relations come in two shapes:

* *aligned* — ``(o1, o2, s, e)``: for every ``t ∈ [s, e]`` the path holds
  from ``(o1, t)`` to ``(o2, t)`` (purely structural, times equal);
* *offset* — ``(o1, o2, s1, e1, s2, e2, dmin, dmax)``: the path holds from
  ``(o1, t1)`` to ``(o2, t2)`` for every ``t1 ∈ [s1, e1]``,
  ``t2 ∈ [s2, e2]`` with ``t2 − t1 ∈ [dmin, dmax]`` (``NULL`` bounds mean
  ∓∞).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..tpg.model import SparkITPG
from ..tpg.sparkutil import complement_intervals, intersect_intervals
from . import ast


class UnsupportedFragment(Exception):
    """The expression falls outside the Section VI interval fragment."""


ALIGNED_COLS = ["o1", "o2", "s", "e"]
OFFSET_COLS = ["o1", "o2", "s1", "e1", "s2", "e2", "dmin", "dmax"]


@dataclass
class LinkRel:
    """An evaluated path link: aligned or offset interval relation."""

    df: DataFrame
    offset: bool

    def lifted(self) -> DataFrame:
        """The relation in offset schema (aligned rows get dmin=dmax=0)."""
        if self.offset:
            return self.df.select(*OFFSET_COLS)
        return self.df.select(
            "o1",
            "o2",
            F.col("s").alias("s1"),
            F.col("e").alias("e1"),
            F.col("s").alias("s2"),
            F.col("e").alias("e2"),
            F.lit(0).cast("long").alias("dmin"),
            F.lit(0).cast("long").alias("dmax"),
        )


@dataclass(frozen=True)
class _TemporalAtom:
    axis: str  # 'N' | 'P'
    lo: int
    hi: Optional[int]  # None = unbounded
    require_exist: bool


def _as_temporal_atom(path: ast.Path) -> Optional[_TemporalAtom]:
    """Recognise ``N``/``P`` repetition blocks (``(N/∃)[n,m]`` etc.)."""
    if isinstance(path, ast.Repeat):
        inner = path.inner
        if isinstance(inner, ast.Axis) and inner.op in ("N", "P"):
            return _TemporalAtom(inner.op, path.lo, path.hi, False)
        if (
            isinstance(inner, ast.Seq)
            and len(inner.parts) == 2
            and isinstance(inner.parts[0], ast.Axis)
            and inner.parts[0].op in ("N", "P")
            and isinstance(inner.parts[1], ast.TestExpr)
            and isinstance(inner.parts[1].test, ast.ExistsTest)
        ):
            return _TemporalAtom(inner.parts[0].op, path.lo, path.hi, True)
    return None


def _contains_temporal(path: ast.Path) -> bool:
    if isinstance(path, ast.Axis):
        return path.op in ("N", "P")
    if isinstance(path, (ast.Seq, ast.Union)):
        return any(_contains_temporal(p) for p in path.parts)
    if isinstance(path, ast.Repeat):
        return _contains_temporal(path.inner)
    return False


class IntervalEvaluator:
    """Evaluates the Section VI fragment over a :class:`SparkITPG`."""

    def __init__(self, g: SparkITPG):
        self.g = g
        self._tmemo: dict[ast.Test, DataFrame] = {}
        self.edges = (
            g.objects.filter(F.col("kind") == "edge")
            .select("id", "src", "tgt")
            .cache()
        )

    # -------------------------------------------------------- test tables
    def test_table(self, test: ast.Test) -> DataFrame:
        """Validity intervals ``(id, s, e)`` of a (path-condition-free)
        test over PTO(G) — Step 1's select inputs.

        A test whose flattened conjuncts are all simple compiles into one
        scan (:meth:`_scan`); anything else is built from its parts."""
        if test in self._tmemo:
            return self._tmemo[test]
        conjuncts = ast.simple_conjuncts(test)
        out = self._scan(conjuncts) if conjuncts is not None else self._general(test)
        out = out.cache()
        self._tmemo[test] = out
        return out

    def _scan(self, conjuncts: list[ast.Test]) -> DataFrame:
        """One selection over the graph relations for a conjunction of
        kind, label, property, ``∃`` and time tests (Sec VI Step 1).

        The base is the existence relation when ``∃`` is a conjunct, else
        the first property's valued intervals, else every object over Ω;
        kind and label filter the objects (a semi-join unless the base is
        the objects themselves), ``<k`` and ``¬<k`` clamp ``[s, e]``, and
        every other property intersects the intervals."""
        g = self.g
        lo, hi = g.omega
        conds = []
        s_lo, e_hi, exists, props = lo, hi, False, []
        for c in dict.fromkeys(conjuncts):
            if isinstance(c, ast.NodeTest):
                conds.append(F.col("kind") == "node")
            elif isinstance(c, ast.EdgeTest):
                conds.append(F.col("kind") == "edge")
            elif isinstance(c, ast.LabelTest):
                conds.append(F.col("label") == c.label)
            elif isinstance(c, ast.ExistsTest):
                exists = True
            elif isinstance(c, ast.PropTest):
                props.append(
                    g.props.filter((F.col("p") == c.prop) & (F.col("v") == c.value))
                    .select("id", "s", "e")
                )
            elif isinstance(c, ast.LtTest):
                e_hi = min(e_hi, c.k - 1)
            else:  # ¬<k
                s_lo = max(s_lo, c.inner.k)
        objs = g.objects.filter(reduce(lambda a, b: a & b, conds)) if conds else g.objects
        if exists or props:
            out = g.exist.select("id", "s", "e") if exists else props.pop(0)
            if conds:
                out = out.join(objs.select("id"), "id", "left_semi")
        else:
            out = objs.select(
                "id", F.lit(lo).cast("long").alias("s"), F.lit(hi).cast("long").alias("e")
            )
        if s_lo > lo or e_hi < hi:
            out = out.select(
                "id",
                F.greatest("s", F.lit(s_lo).cast("long")).alias("s"),
                F.least("e", F.lit(e_hi).cast("long")).alias("e"),
            ).filter(F.col("s") <= F.col("e"))
        for pt in props:
            out = intersect_intervals(out, pt, ["id"])
        return out

    def _general(self, test: ast.Test) -> DataFrame:
        """Test table built from the tables of the test's parts."""
        if isinstance(test, ast.AndTest):
            return intersect_intervals(
                self.test_table(test.left), self.test_table(test.right), ["id"]
            )
        if isinstance(test, ast.OrTest):
            return self.test_table(test.left).unionByName(self.test_table(test.right))
        if isinstance(test, ast.NotTest):
            lo, hi = self.g.omega
            return complement_intervals(
                self.test_table(test.inner), self.g.objects.select("id"), lo, hi
            )
        if isinstance(test, ast.PathTest):
            raise UnsupportedFragment(
                "path conditions (?path) are outside the interval fragment"
            )
        raise TypeError(f"unknown test {test!r}")

    # ------------------------------------------------------------- links
    def eval_link(self, path: ast.Path) -> LinkRel:
        """Evaluate a path link (Steps 1 and 2) to an interval relation."""
        parts = list(path.parts) if isinstance(path, ast.Seq) else [path]
        state = self._seed(parts)
        for part in parts:
            state = self._apply(state, part)
        return state

    def _seed(self, parts: list[ast.Path]) -> LinkRel:
        """Initial aligned diagonal. When the link starts with a test (all
        MATCH segments do), seed from its validity intervals instead of the
        full PTO diagonal."""
        lo, hi = self.g.omega
        if parts and isinstance(parts[0], ast.TestExpr):
            try:
                tt = self.test_table(parts[0].test)
            except UnsupportedFragment:
                tt = None
            if tt is not None:
                df = tt.select(
                    F.col("id").alias("o1"), F.col("id").alias("o2"), "s", "e"
                )
                parts.pop(0)
                return LinkRel(df, offset=False)
        df = self.g.objects.select(
            F.col("id").alias("o1"),
            F.col("id").alias("o2"),
            F.lit(lo).cast("long").alias("s"),
            F.lit(hi).cast("long").alias("e"),
        )
        return LinkRel(df, offset=False)

    # ------------------------------------------------------------ apply
    def _apply(self, state: LinkRel, part: ast.Path) -> LinkRel:
        atom = _as_temporal_atom(part)
        if atom is not None:
            return self._apply_temporal(state, atom)
        if isinstance(part, ast.Axis):
            if part.op in ("F", "B"):
                return self._apply_move(state, part.op)
            return self._apply_temporal(state, _TemporalAtom(part.op, 1, 1, False))
        if isinstance(part, ast.TestExpr):
            return self._apply_test(state, part.test)
        if isinstance(part, ast.Seq):
            for p in part.parts:
                state = self._apply(state, p)
            return state
        if isinstance(part, ast.Union):
            branches = [self._apply(state, p) for p in part.parts]
            if all(not b.offset for b in branches):
                df = branches[0].df
                for b in branches[1:]:
                    df = df.unionByName(b.df)
                return LinkRel(df, offset=False)
            df = branches[0].lifted()
            for b in branches[1:]:
                df = df.unionByName(b.lifted())
            return LinkRel(df, offset=True)
        if isinstance(part, ast.Repeat):
            if part.lo == 0 and part.hi == 0:
                return state
            raise UnsupportedFragment(
                f"repetition of non-temporal expression: {part}"
            )
        raise TypeError(f"unknown path {part!r}")

    def _apply_test(self, state: LinkRel, test: ast.Test) -> LinkRel:
        s, e = ("s2", "e2") if state.offset else ("s", "e")
        tt = self.test_table(test).select(
            F.col("id").alias("o2"), F.col("s").alias(s), F.col("e").alias(e)
        )
        return LinkRel(intersect_intervals(state.df, tt, ["o2"], s, e), state.offset)

    def _apply_move(self, state: LinkRel, op: str) -> LinkRel:
        """Structural step F/B: node→edge and edge→node joins; intervals
        unchanged (F/B impose no existence by themselves)."""
        if op == "F":
            n2e = self.edges.select(F.col("src").alias("o2"), F.col("id").alias("_new"))
            e2n = self.edges.select(F.col("id").alias("o2"), F.col("tgt").alias("_new"))
        else:
            n2e = self.edges.select(F.col("tgt").alias("o2"), F.col("id").alias("_new"))
            e2n = self.edges.select(F.col("id").alias("o2"), F.col("src").alias("_new"))
        hop = n2e.unionByName(e2n)
        df = (
            state.df.join(hop, "o2")
            .drop("o2")
            .withColumnRenamed("_new", "o2")
        )
        cols = OFFSET_COLS if state.offset else ALIGNED_COLS
        return LinkRel(df.select(*cols), state.offset)

    def _apply_temporal(self, state: LinkRel, atom: _TemporalAtom) -> LinkRel:
        """Step 2: interval arithmetic for a temporal navigation block."""
        if state.offset:
            raise UnsupportedFragment(
                "more than one temporal segment per branch is outside the fragment"
            )
        lo_dom, hi_dom = self.g.omega
        lo1 = max(atom.lo, 1)
        parts: list[DataFrame] = []
        if atom.lo == 0:
            # zero repetitions: stay put, no existence requirement.
            parts.append(LinkRel(state.df, offset=False).lifted())
        if atom.hi is None or atom.hi >= 1:
            if atom.require_exist:
                ex = self.g.exist.select(
                    F.col("id").alias("o2"), F.col("s").alias("a"), F.col("e").alias("b")
                )
                base = state.df.join(ex, "o2")
            else:
                base = state.df.withColumn("a", F.lit(lo_dom).cast("long")).withColumn(
                    "b", F.lit(hi_dom).cast("long")
                )
            hi_lit = F.lit(atom.hi).cast("long") if atom.hi is not None else F.lit(None).cast("long")
            if atom.axis == "N":
                # steps t+1 .. t' all inside [a, b]; t' - t ∈ [lo1, hi]
                s1 = F.greatest(F.col("s"), F.col("a") - 1)
                e1 = F.least(F.col("e"), F.col("b") - 1)
                s2 = F.greatest(F.col("a"), s1 + lo1)
                e2 = F.least(F.col("b"), e1 + hi_lit)
                dmin = F.lit(lo1).cast("long")
                dmax = hi_lit
            else:
                # steps t-1 .. t' all inside [a, b]; t - t' ∈ [lo1, hi]
                s1 = F.greatest(F.col("s"), F.col("a") + 1)
                e1 = F.least(F.col("e"), F.col("b") + 1)
                s2 = F.greatest(F.col("a"), s1 - hi_lit)
                e2 = F.least(F.col("b"), e1 - lo1)
                dmin = -hi_lit
                dmax = F.lit(-lo1).cast("long")
            moved = (
                base.select(
                    "o1",
                    "o2",
                    s1.alias("s1"),
                    e1.alias("e1"),
                    s2.alias("s2"),
                    e2.alias("e2"),
                    dmin.alias("dmin"),
                    dmax.alias("dmax"),
                )
                .filter(F.col("s1") <= F.col("e1"))
                .filter(F.col("s2") <= F.col("e2"))
            )
            parts.append(moved)
        df = parts[0]
        for p in parts[1:]:
            df = df.unionByName(p)
        return LinkRel(df, offset=True)
