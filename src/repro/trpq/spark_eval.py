"""Point-based NavL[PC,NOI] evaluation on Spark DataFrames (Theorem C.1).

The paper's polynomial-time algorithm evaluates the parse tree bottom-up,
materialising for every subexpression a relation of temporal-object pairs
``(o1, t1, o2, t2)`` and combining them with sort-merge joins; numerical
occurrence indicators use exponentiation by squaring (Algorithms 1 and 2).
Here each relation is a DataFrame with schema ``(o1, t1, o2, t2)`` and the
joins are Catalyst joins; ``path[n,m]`` uses the same squaring recursion
(exact ``n``-fold power, then the paper's ``ComputeIntervalRepetition``
doubling for the ``[0, m-n]`` tail), and ``path[n,_]`` iterates doubling to
a fixpoint.

Theorem C.1's polynomial bound is about the sizes of these relations, not
about where they are materialised. So every subexpression's relation is a
lazy DataFrame, memoised per evaluator, and only the levels of the
repetition recursions (the identity, ``_power``, ``_upto`` and ``_star``),
where lineage grows with every round, are ``localCheckpoint``-ed, as
iterative dataflow on Spark requires; ``_star`` reads each round's size,
which detects its fixpoint, from the job that checkpoints the round. The
point rows carry the object's kind and label, so a conjunction of simple
tests compiles into one selection over one graph relation
(:meth:`PointEvaluator._scan`), plus one semi-join per further property.
In a concatenation, adjacent tests are one conjunction; a test is a
semi-join on the end it constrains, not a composition, and leading tests
seed a first ``NEXT``/``PREV`` step directly (:meth:`PointEvaluator._shift`).
A MATCH chain is one such concatenation (:meth:`PointEvaluator.walk`).
Nothing is ``cache()``-d: a fresh evaluator recomputes every relation and
launches the same Spark jobs as the one before it.

This evaluator supports the *full* language (path conditions, negation,
nested occurrence indicators) and is the general-purpose engine; the
interval evaluator (``interval_eval``) is the paper's optimised Section VI
fragment.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from ..tpg.model import SparkTPG
from ..tpg.sparkutil import pin_counted
from . import ast

REL_COLS = ["o1", "t1", "o2", "t2"]


def _capped(df: DataFrame) -> DataFrame:
    """At most 16 partitions, which keeps the many small intermediate
    relations from exploding into hundreds of tasks (crossJoin/union
    multiply partition counts). ``coalesce`` never raises a partition
    count, so it needs no look at ``df.rdd``, which would run the plan's
    shuffle stages once more before the checkpoint runs them."""
    return df.coalesce(16)


def _ckpt(df: DataFrame) -> DataFrame:
    """Materialise with flat lineage."""
    return _capped(df).localCheckpoint(eager=True)


def _all(conds: list[Column]) -> Column:
    return reduce(lambda a, b: a & b, conds)


def _diagonal(pairs: DataFrame) -> DataFrame:
    """The relation ``{((o, t), (o, t))}`` over temporal objects ``(id, t)``."""
    return pairs.select(
        F.col("id").alias("o1"),
        F.col("t").alias("t1"),
        F.col("id").alias("o2"),
        F.col("t").alias("t2"),
    )


class PointEvaluator:
    """Evaluates NavL[PC,NOI] expressions over a point-stamped TPG."""

    def __init__(self, tpg: SparkTPG):
        self.g = tpg
        self._memo: dict[ast.Path, DataFrame] = {}
        self._test_memo: dict[ast.Test, DataFrame] = {}
        self._identity: DataFrame | None = None

    # ------------------------------------------------------------ plumbing
    def identity(self) -> DataFrame:
        """The diagonal of PTO(G): path^0."""
        if self._identity is None:
            self._identity = _ckpt(_diagonal(self.g.pto()))
        return self._identity

    @staticmethod
    def compose(a: DataFrame, b: DataFrame) -> DataFrame:
        """Relation composition (the paper's sort-merge join step); ``a``'s
        captured variables are carried through."""
        extra = [c for c in a.columns if c not in REL_COLS]
        bb = b.select(
            F.col("o1").alias("_jo"),
            F.col("t1").alias("_jt"),
            "o2",
            "t2",
        )
        return (
            a.select("o1", "t1", F.col("o2").alias("_jo"), F.col("t2").alias("_jt"), *extra)
            .join(bb, on=["_jo", "_jt"])
            .select(*REL_COLS, *extra)
            .distinct()
        )

    def _restrict(self, rel: DataFrame, test: ast.Test, o: str, t: str) -> DataFrame:
        """The rows of ``rel`` whose ``(o, t)`` end satisfies ``test``."""
        pairs = self.test_pairs(test).select(F.col("id").alias(o), F.col("t").alias(t))
        return rel.join(pairs, on=[o, t], how="left_semi").select(*rel.columns)

    # ---------------------------------------------------------------- tests
    def test_pairs(self, test: ast.Test) -> DataFrame:
        """Temporal objects ``(id, t)`` in PTO(G) satisfying ``test``.

        A test whose flattened conjuncts are all simple compiles into one
        scan (:meth:`_scan`); anything else is built from its parts."""
        if test in self._test_memo:
            return self._test_memo[test]
        conjuncts = ast.simple_conjuncts(test)
        out = self._scan(conjuncts) if conjuncts is not None else self._general(test)
        self._test_memo[test] = out
        return out

    def _scan(self, conjuncts: list[ast.Test]) -> DataFrame:
        """One selection over the graph relations for a conjunction of
        kind, label, property, ``∃`` and time tests.

        The base is the first property's points when a property is a
        conjunct, else the existence points when ``∃`` is one, else every
        object over Ω. Its rows carry kind and label, so kind, label,
        ``<k`` and ``¬<k`` are filters on it; ``∃`` needs no join next to a
        property, since a :class:`SparkTPG` comes from a validated graph
        (σ ⊆ ξ). Every further property is a semi-join on ``(id, t)``."""
        g = self.g
        conds, exists, props = [], False, []
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
                conds.append(F.col("t") < c.k)
            else:  # ¬<k
                conds.append(F.col("t") >= c.inner.k)
        if props:
            base = g.props
            conds.append(props.pop(0))
        elif exists:
            base = g.exist
        else:
            base = g.objects.crossJoin(g.domain_df())
        out = (base.filter(_all(conds)) if conds else base).select("id", "t")
        for cond in props:
            out = out.join(g.props.filter(cond).select("id", "t"), on=["id", "t"], how="left_semi")
        return out

    def _general(self, test: ast.Test) -> DataFrame:
        """Test relation built from the relations of the test's parts."""
        if isinstance(test, ast.AndTest):
            return self.test_pairs(test.left).join(
                self.test_pairs(test.right), on=["id", "t"], how="left_semi"
            )
        if isinstance(test, ast.OrTest):
            return (
                self.test_pairs(test.left)
                .unionByName(self.test_pairs(test.right))
                .distinct()
            )
        if isinstance(test, ast.NotTest):
            return self.g.pto().join(
                self.test_pairs(test.inner), on=["id", "t"], how="left_anti"
            )
        if isinstance(test, ast.PathTest):
            return self.rel(test.path).select(
                F.col("o1").alias("id"), F.col("t1").alias("t")
            ).distinct()
        raise TypeError(f"unknown test {test!r}")

    # ---------------------------------------------------------------- paths
    def rel(self, path: ast.Path) -> DataFrame:
        """⟦path⟧_G as a DataFrame ``(o1, t1, o2, t2)``."""
        if path in self._memo:
            return self._memo[path]
        out = self._rel(path)
        self._memo[path] = out
        return out

    def _rel(self, path: ast.Path) -> DataFrame:
        g = self.g
        if isinstance(path, ast.TestExpr):
            return _diagonal(self.test_pairs(path.test))
        if isinstance(path, ast.Axis):
            dom = g.domain_df()
            edges = g.objects.filter(F.col("kind") == "edge")
            if path.op in ("F", "B"):
                fwd = path.op == "F"
                a = edges.select(
                    F.col("src" if fwd else "tgt").alias("o1"), F.col("id").alias("o2")
                ).crossJoin(dom)
                b = edges.select(
                    F.col("id").alias("o1"), F.col("tgt" if fwd else "src").alias("o2")
                ).crossJoin(dom)
                return (
                    a.unionByName(b)
                    .select("o1", F.col("t").alias("t1"), "o2", F.col("t").alias("t2"))
                )
            return self._shift(g.pto(), path.op)
        if isinstance(path, ast.Seq):
            return self.walk(list(path.parts))
        if isinstance(path, ast.Union):
            rel = self.rel(path.parts[0])
            for p in path.parts[1:]:
                rel = rel.unionByName(self.rel(p))
            return rel.distinct()
        if isinstance(path, ast.Repeat):
            base = self.rel(path.inner)
            exact = self._power(base, path.lo)
            if path.hi == path.lo:
                return exact
            tail = self._upto(base, path.hi - path.lo) if path.hi is not None else self._star(base)
            # base^0 is the identity, and the tail already holds it
            return tail if path.lo == 0 else self.compose(exact, tail)
        raise TypeError(f"unknown path {path!r}")

    def _shift(self, pairs: DataFrame, op: str) -> DataFrame:
        """``NEXT`` (``op='N'``) or ``PREV`` (``'P'``) from the temporal
        objects ``(id, t)`` of ``pairs``: ``{((o, t), (o, t ± 1))}``,
        clamped to Ω."""
        lo, hi = self.g.omega
        return pairs.select(
            F.col("id").alias("o1"),
            F.col("t").alias("t1"),
            F.col("id").alias("o2"),
            (F.col("t") + (1 if op == "N" else -1)).alias("t2"),
        ).filter(F.col("t2").between(lo, hi))

    def walk(self, steps: list[ast.Path | ast.Capture]) -> DataFrame:
        """Concatenation: compose the non-test parts in order. Adjacent
        tests merge into one conjunction, so each run of tests is one
        scan. A leading test seeds a first ``NEXT``/``PREV`` step from its
        temporal objects (:meth:`_shift`) and restricts any other first
        step's ``(o1, t1)`` end; a later test restricts the ``(o2, t2)``
        end of the composition so far. Both restrictions are semi-joins.
        A :class:`~repro.trpq.ast.Capture` of ``v`` (a MATCH chain) adds
        ``v, v_time``: a copy of ``(o2, t2)`` after the first move, else of
        ``(o1, t1)``, added last so a one-link chain's plan is its path's."""
        pre: list[str] = []  # captured before the first move
        run: list[ast.Path | ast.Capture] = []
        for p in steps:
            if isinstance(p, ast.Capture) and all(isinstance(s, ast.TestExpr) for s in run):
                pre.append(p.var)
            elif isinstance(p, ast.TestExpr) and run and isinstance(run[-1], ast.TestExpr):
                run[-1] = ast.TestExpr(ast.conj(run[-1].test, p.test))
            else:
                run.append(p)
        if len(run) == 1:  # tests only
            rel = self.rel(run[0])
        else:
            lead = run.pop(0).test if isinstance(run[0], ast.TestExpr) else None
            first = run[0]
            if lead is None:
                rel = self.rel(first)
            elif isinstance(first, ast.Axis) and first.op in ("N", "P"):
                rel = self._shift(self.test_pairs(lead), first.op)
            else:
                rel = self._restrict(self.rel(first), lead, "o1", "t1")
            for p in run[1:]:
                if isinstance(p, ast.Capture):
                    rel = rel.withColumns({p.var: F.col("o2"), f"{p.var}_time": F.col("t2")})
                elif isinstance(p, ast.TestExpr):
                    rel = self._restrict(rel, p.test, "o2", "t2")
                else:
                    rel = self.compose(rel, self.rel(p))
        for v in pre:
            rel = rel.withColumns({v: F.col("o1"), f"{v}_time": F.col("t1")})
        return rel

    # -------------------------------------------- repetition (Algorithms 1/2)
    def _power(self, base: DataFrame, n: int) -> DataFrame:
        """``base^n`` by exponentiation by squaring (Algorithm 1)."""
        if n == 0:
            return self.identity()
        if n == 1:
            return base
        half = _ckpt(self._power(base, n // 2))
        sq = _ckpt(self.compose(half, half))
        return sq if n % 2 == 0 else self.compose(sq, base)

    def _upto(self, base: DataFrame, n: int) -> DataFrame:
        """``⋃_{i=0..n} base^i`` by doubling (Algorithm 2), exact — no
        overshoot past ``n``."""
        if n == 0:
            return self.identity()
        if n == 1:
            return self.identity().unionByName(base).distinct()
        half = _ckpt(self._upto(base, n // 2))  # covers 0 .. n//2
        even = _ckpt(self.compose(half, half).unionByName(half).distinct())  # 0 .. 2*(n//2)
        if n % 2 == 0:
            return even
        return self.compose(even, base).unionByName(even).distinct()  # 0 .. n

    def _star(self, base: DataFrame) -> DataFrame:
        """Reflexive-transitive closure by doubling to a fixpoint
        (``path[0,_] = path[0,M^2]``, reached in O(log M) rounds). Each
        round's size, which detects the fixpoint, is counted by the job
        that checkpoints the round (:func:`~repro.tpg.sparkutil.pin_counted`)."""
        cur, n = pin_counted(_capped(self.identity().unionByName(base).distinct()))
        while True:
            nxt, m = pin_counted(_capped(self.compose(cur, cur).unionByName(cur).distinct()))
            if m == n:
                return nxt
            cur, n = nxt, m
