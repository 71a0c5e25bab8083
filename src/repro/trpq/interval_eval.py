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

Every interval relation has the columns ``(o1, o2, s1, e1, s2, e2, dmin,
dmax)``: the path holds from ``(o1, t1)`` to ``(o2, t2)`` for every
``t1 ∈ [s1, e1]``, ``t2 ∈ [s2, e2]`` with ``t2 − t1 ∈ [dmin, dmax]``
(``NULL`` bounds mean ∓∞). A structural relation is the case
``dmin = dmax = 0``, ``[s1, e1] = [s2, e2]``. :meth:`IntervalEvaluator.walk`
evaluates a sequence of steps left-deep on one relation, and the steps
extend it by :func:`compose`, which is exact whenever one of its two sides
has ``dmin = dmax = 0``; at most one temporal segment per branch (and so
per MATCH chain) guarantees that. The walk knows the kind of the objects
at ``o2`` when a test fixes it (``F``/``B`` flip it), and from nodes it
traverses ``F / T / F`` (or ``B / T / B``) as one composition with the
edges where ``T`` holds, from one end to the other.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Optional

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from ..tpg.model import SparkITPG
from ..tpg.sparkutil import complement_intervals, intersect_intervals
from . import ast


class UnsupportedFragment(Exception):
    """The expression falls outside the Section VI interval fragment."""


COLS = ["o1", "o2", "s1", "e1", "s2", "e2", "dmin", "dmax"]


@dataclass
class LinkRel:
    """An evaluated path: an interval relation (columns :data:`COLS`, plus
    one column per captured variable), whether a temporal step produced
    it, the kind of the objects at its ``o2`` end (``"node"``, ``"edge"``
    or None when unknown) and the variables captured after its temporal
    step, which are bound at ``t2``."""

    df: DataFrame
    temporal: bool
    kind: Optional[str] = None
    post: tuple[str, ...] = ()


@dataclass(frozen=True)
class Capture:
    """A walk step that binds a MATCH variable to the objects at ``o2``."""

    var: str


_KINDS = {ast.NodeTest: "node", ast.EdgeTest: "edge"}
_FLIPPED = {"node": "edge", "edge": "node", None: None}


def _test_kind(test: ast.Test) -> Optional[str]:
    """The kind a ``Node``/``Edge`` conjunct of ``test`` fixes, else None."""
    if isinstance(test, ast.AndTest):
        return _test_kind(test.left) or _test_kind(test.right)
    return _KINDS.get(type(test))


def _bound(state: LinkRel, var: Optional[str]) -> LinkRel:
    """``state`` with ``var``, just captured, recorded as bound at ``t2``
    when the capture follows the temporal step."""
    return replace(state, post=state.post + (var,)) if var and state.temporal else state


def diagonal(tt: DataFrame, *keys: str | Column) -> DataFrame:
    """The block of a test table ``(id, s, e)``: ``(o, t)`` to ``(o, t)``
    for every ``t ∈ [s, e]``, with the columns ``keys`` (default ``id``)
    in front of ``s1 .. dmax``."""
    zero = F.lit(0).cast("long")
    return tt.select(
        *(keys or ["id"]),
        F.col("s").alias("s1"), F.col("e").alias("e1"),
        F.col("s").alias("s2"), F.col("e").alias("e2"),
        zero.alias("dmin"), zero.alias("dmax"),
    )


def compose(left: DataFrame, right: DataFrame | dict[str, Column]) -> DataFrame:
    """Composition of two interval relations where they meet: ``left``'s
    ``(o2, t2)`` is ``right``'s ``(o1, t1)``.

    ``right`` is a relation (:data:`COLS`) or a *block*, which keeps the
    object (``o2 = o1``): per object, with the columns ``id, s1 .. dmax``,
    or shared by every object, as the ``s1 .. dmax`` columns themselves
    (applied without a join). With the shared time
    ``X = [s2, e2]ₗ ∩ [s1, e1]ᵣ`` a row keeps ``t1 ∈ [s1, e1]ₗ ∩ (X − Dₗ)``,
    ``t2 ∈ [s2, e2]ᵣ ∩ (X + Dᵣ)`` and ``D = Dₗ + Dᵣ``; rows with an empty
    ``X`` or an empty side are dropped. The result is exact when ``Dₗ = 0``
    or ``Dᵣ = 0``. Columns of either side beyond :data:`COLS` (and the
    key) are carried through."""
    if isinstance(right, dict):
        met = left.withColumns({"_r" + c: v for c, v in right.items()})
        moves, rextra = False, []
    else:
        moves = "o1" in right.columns
        key = "o1" if moves else "id"
        rextra = [c for c in right.columns if c not in COLS and c != key]
        met = left.join(
            right.select(
                F.col(key).alias("o2"),
                *(F.col(c).alias("_r" + c) for c in COLS if c in right.columns and c != key),
                *rextra,
            ),
            "o2",
        )
    # a block keeps o2, the join key, so later joins on it need no shuffle
    o2 = "_ro2" if moves else "o2"
    xs = F.greatest("s2", "_rs1")
    xe = F.least("e2", "_re1")
    s1 = F.greatest(F.col("s1"), xs - F.col("dmax"))
    e1 = F.least(F.col("e1"), xe - F.col("dmin"))
    s2 = F.greatest(F.col("_rs2"), xs + F.col("_rdmin"))
    e2 = F.least(F.col("_re2"), xe + F.col("_rdmax"))
    extra = [c for c in left.columns if c not in COLS] + rextra
    # filter on the input columns, before the select replaces them
    return met.filter((xs <= xe) & (s1 <= e1) & (s2 <= e2)).select(
        *extra, "o1", F.col(o2).alias("o2"),
        s1.alias("s1"), e1.alias("e1"), s2.alias("s2"), e2.alias("e2"),
        (F.col("dmin") + F.col("_rdmin")).alias("dmin"),
        (F.col("dmax") + F.col("_rdmax")).alias("dmax"),
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


class IntervalEvaluator:
    """Evaluates the Section VI fragment over a :class:`SparkITPG`."""

    def __init__(self, g: SparkITPG):
        self.g = g
        self._tmemo: dict[ast.Test, DataFrame] = {}
        self.edges = g.objects.filter(F.col("kind") == "edge").select("id", "src", "tgt")

    # -------------------------------------------------------- test tables
    def test_table(self, test: ast.Test) -> DataFrame:
        """Validity intervals ``(id, s, e)`` of a (path-condition-free)
        test over PTO(G) — Step 1's select inputs.

        A test whose flattened conjuncts are all simple compiles into one
        scan (:meth:`_scan`); anything else is built from its parts."""
        if test not in self._tmemo:
            conjuncts = ast.simple_conjuncts(test)
            self._tmemo[test] = (
                self._scan(conjuncts) if conjuncts is not None else self._general(test)
            )
        return self._tmemo[test].select("id", "s", "e")

    def _scan(self, conjuncts: list[ast.Test]) -> DataFrame:
        """One selection over the graph relations for a conjunction of
        kind, label, property, ``∃`` and time tests (Sec VI Step 1), as
        ``(id, src, tgt, s, e)``.

        The base is the first property's valued intervals when a property
        is a conjunct, else the existence relation when ``∃`` is one, else
        every object over Ω. Its rows carry kind, label and an edge's
        endpoints; kind and label are filters on it; ``∃`` needs no join
        next to a property, since a validated graph defines σ only where ξ
        holds. ``<k`` and ``¬<k`` clamp ``[s, e]``, and every further
        property intersects the intervals."""
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
                props.append((F.col("p") == c.prop) & (F.col("v") == c.value))
            elif isinstance(c, ast.LtTest):
                e_hi = min(e_hi, c.k - 1)
            else:  # ¬<k
                s_lo = max(s_lo, c.inner.k)
        if props:
            base = g.props
            conds.append(props.pop(0))
        elif exists:
            base = g.exist
        else:
            base = g.objects.withColumns(
                {"s": F.lit(lo).cast("long"), "e": F.lit(hi).cast("long")}
            )
        if conds:
            base = base.filter(reduce(lambda a, b: a & b, conds))
        out = base.select("id", "src", "tgt", "s", "e")
        if s_lo > lo or e_hi < hi:
            out = out.select(
                "id", "src", "tgt",
                F.greatest("s", F.lit(s_lo).cast("long")).alias("s"),
                F.least("e", F.lit(e_hi).cast("long")).alias("e"),
            ).filter(F.col("s") <= F.col("e"))
        for cond in props:
            out = intersect_intervals(out, g.props.filter(cond).select("id", "s", "e"), ["id"])
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

    # ------------------------------------------------------------- walks
    def eval_link(self, path: ast.Path) -> LinkRel:
        """Evaluate a path link (Steps 1 and 2) to an interval relation:
        the :meth:`walk` of its parts."""
        return self.walk(list(path.parts) if isinstance(path, ast.Seq) else [path])

    def walk(self, steps: list[ast.Path | Capture]) -> LinkRel:
        """Evaluate a sequence of path parts and captures left-deep on one
        relation (Steps 1 and 2).

        It starts from the diagonal of its leading test (a MATCH chain
        starts with its first pattern's), or of every object over Ω."""
        if steps and isinstance(steps[0], ast.TestExpr):
            test, steps = steps[0].test, steps[1:]
            seed, kind = self.test_table(test), _test_kind(test)
        else:
            lo, hi = (F.lit(t).cast("long") for t in self.g.omega)
            seed, kind = self.g.objects.select("id", lo.alias("s"), hi.alias("e")), None
        df = diagonal(seed, F.col("id").alias("o1"), F.col("id").alias("o2"))
        return self._seq(LinkRel(df, temporal=False, kind=kind), steps)

    def _seq(self, state: LinkRel, steps: list[ast.Path | Capture]) -> LinkRel:
        i = 0
        while i < len(steps):
            hop = self._edge_hop(state, steps[i:i + 4])
            if hop is not None:
                rel, var = hop
                state = _bound(replace(state, df=compose(state.df, rel)), var)
                i += 4 if var else 3
            elif isinstance(steps[i], Capture):
                var = steps[i].var
                state = _bound(replace(state, df=state.df.withColumn(var, F.col("o2"))), var)
                i += 1
            else:
                state = self._apply(state, steps[i])
                i += 1
        return state

    def _edge_hop(
        self, state: LinkRel, steps: list[ast.Path | Capture]
    ) -> Optional[tuple[DataFrame, Optional[str]]]:
        """``F / T / F`` (or ``B / T / B``, optionally with a capture of
        the edge after ``T``) at the head of ``steps`` from a state at
        nodes, as one relation from each edge's one end to its other end
        over the intervals where ``T`` holds: (that relation, the captured
        variable or None); else None. The relation carries a captured edge
        as a column of the variable's name."""
        if state.kind != "node" or len(steps) < 3:
            return None
        op, test = steps[0], steps[1]
        if op not in (ast.F, ast.B) or not isinstance(test, ast.TestExpr):
            return None
        var = steps[2].var if isinstance(steps[2], Capture) else None
        end = 3 if var else 2
        if len(steps) <= end or steps[end] != op:
            return None
        self.test_table(test.test)
        ends = self._tmemo[test.test]
        if "src" not in ends.columns:
            ends = ends.join(self.edges, "id")
        a, b = ("src", "tgt") if op == ast.F else ("tgt", "src")
        keys = [F.col(a).alias("o1"), F.col(b).alias("o2")]
        if var:
            keys.append(F.col("id").alias(var))
        return diagonal(ends, *keys), var

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
            return self._seq(state, list(part.parts))
        if isinstance(part, ast.Union):
            branches = [self._apply(state, p) for p in part.parts]
            kinds = {b.kind for b in branches}
            return replace(
                state,
                df=reduce(DataFrame.unionByName, [b.df for b in branches]),
                temporal=any(b.temporal for b in branches),
                kind=kinds.pop() if len(kinds) == 1 else None,
            )
        if isinstance(part, ast.Repeat):
            if part.lo == 0 and part.hi == 0:
                return state
            raise UnsupportedFragment(
                f"repetition of non-temporal expression: {part}"
            )
        raise TypeError(f"unknown path {part!r}")

    def _apply_test(self, state: LinkRel, test: ast.Test) -> LinkRel:
        df = compose(state.df, diagonal(self.test_table(test)))
        return replace(state, df=df, kind=_test_kind(test) or state.kind)

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
        df = state.df.join(hop, "o2").drop("o2").withColumnRenamed("_new", "o2")
        return replace(state, df=df, kind=_FLIPPED[state.kind])

    def _apply_temporal(self, state: LinkRel, atom: _TemporalAtom) -> LinkRel:
        """Step 2: compose with the block's own relation. ``N`` steps
        ``t+1 .. t'`` (``P``: ``t-1 .. t'``) must lie in one maximal
        existence interval ``[s, e]`` of the object (all of Ω without
        ``∃``), with ``|t' − t| ∈ [max(n, 1), m]``; ``n = 0`` adds the
        relation itself."""
        if state.temporal:
            raise UnsupportedFragment(
                "more than one temporal segment per branch is outside the fragment"
            )
        parts = [state.df] if atom.lo == 0 else []
        if atom.hi is None or atom.hi >= 1:
            if atom.require_exist:
                s, e = F.col("s"), F.col("e")
            else:
                s, e = (F.lit(t).cast("long") for t in self.g.omega)
            lo1 = F.lit(max(atom.lo, 1)).cast("long")
            hi = F.lit(atom.hi).cast("long")  # NULL when unbounded
            if atom.axis == "N":
                block = {"s1": s - 1, "e1": e - 1, "s2": s, "e2": e, "dmin": lo1, "dmax": hi}
            else:
                block = {"s1": s + 1, "e1": e + 1, "s2": s, "e2": e, "dmin": -hi, "dmax": -lo1}
            if atom.require_exist:
                block = self.g.exist.select("id", *(v.alias(c) for c, v in block.items()))
            parts.append(compose(state.df, block))
        return replace(state, df=reduce(DataFrame.unionByName, parts), temporal=True)
