"""Temporal property graph model (Definitions III.1 and A.1).

``ITPGData`` is the canonical in-memory representation: an
interval-timestamped temporal property graph held in pandas frames (the
paper's Nodes/Edges interval relations of Section VI). It converts to

* ``SparkITPG`` — Spark DataFrames with interval timestamps, consumed by the
  interval evaluator (Section VI Steps 1–2);
* ``SparkTPG``  — Spark DataFrames exploded to time points, consumed by the
  point-based evaluator (Theorem C.1);
* a point-table pandas pair for the DuckDB oracle.

Object ids are globally unique strings across nodes and edges (``N ∩ E = ∅``).
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from . import interval as iv

OBJECT_COLS = ["id", "kind", "label", "src", "tgt"]
EXIST_COLS = ["id", "s", "e"]
PROP_COLS = ["id", "p", "v", "s", "e"]


def _empty(cols: list[str]) -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series(dtype=object) for c in cols})


@dataclass(frozen=True)
class ITPGData:
    """Canonical interval-timestamped TPG (Definition A.1), pandas-backed.

    ``objects``: id, kind ('node'|'edge'), label, src, tgt (NaN for nodes).
    ``exist``:   id, s, e — coalesced maximal validity intervals (ξ').
    ``props``:   id, p, v, s, e — coalesced valued intervals (σ').
    ``omega``:   the temporal domain [lo, hi].

    Every instance is validated when it is built (:meth:`validate`), so
    consumers may rely on the integrity constraints; in particular a
    property is defined only where its object exists (σ ⊆ ξ).
    """

    omega: tuple[int, int]
    objects: pd.DataFrame
    exist: pd.DataFrame
    props: pd.DataFrame

    def __post_init__(self) -> None:
        self.validate()

    # ---------------------------------------------------------------- build
    @staticmethod
    def build(
        omega: tuple[int, int],
        nodes: list[tuple],  # (id, label, [(s,e)...], {p: [(v,s,e)...]})
        edges: list[tuple],  # (id, src, tgt, label, [(s,e)...], {p: [...]})
    ) -> "ITPGData":
        """Build and validate an ITPG from per-object interval specs."""
        objs, ex, pr = [], [], []
        for nid, label, ivs, props in nodes:
            objs.append((nid, "node", label, None, None))
            ex += [(nid, s, e) for s, e in iv.coalesce(ivs)]
            for p, vals in props.items():
                pr += [
                    (nid, p, v, s, e)
                    for v, (s, e) in iv.coalesce_valued([(v, (s, e)) for v, s, e in vals])
                ]
        for eid, src, tgt, label, ivs, props in edges:
            objs.append((eid, "edge", label, src, tgt))
            ex += [(eid, s, e) for s, e in iv.coalesce(ivs)]
            for p, vals in props.items():
                pr += [
                    (eid, p, v, s, e)
                    for v, (s, e) in iv.coalesce_valued([(v, (s, e)) for v, s, e in vals])
                ]
        return ITPGData(
            omega=omega,
            objects=pd.DataFrame(objs, columns=OBJECT_COLS) if objs else _empty(OBJECT_COLS),
            exist=pd.DataFrame(ex, columns=EXIST_COLS) if ex else _empty(EXIST_COLS),
            props=pd.DataFrame(pr, columns=PROP_COLS) if pr else _empty(PROP_COLS),
        )

    # ------------------------------------------------------------- validate
    def validate(self) -> None:
        """Check the integrity constraints of Definitions III.1 / A.1."""
        lo, hi = self.omega
        if lo > hi:
            raise ValueError("empty temporal domain")
        ids = self.objects["id"]
        if ids.duplicated().any():
            raise ValueError("duplicate object ids (N ∩ E must be empty)")
        known = set(ids)
        fams: dict[str, list[iv.Interval]] = {}
        for oid, s, e in zip(self.exist["id"], self.exist["s"], self.exist["e"]):
            fams.setdefault(oid, []).append((int(s), int(e)))
        for oid, fam in fams.items():
            if oid not in known:
                raise ValueError(f"existence for unknown object {oid}")
            fam.sort()
            if not iv.is_coalesced(fam):
                raise ValueError(f"ξ({oid}) not coalesced: {fam}")
            if fam[0][0] < lo or fam[-1][1] > hi:
                raise ValueError(f"ξ({oid}) outside Ω: {fam}")
        node_ids = {
            oid for oid, k in zip(ids, self.objects["kind"]) if k == "node"
        }
        for eid, kind, src, tgt in zip(
            ids, self.objects["kind"], self.objects["src"], self.objects["tgt"]
        ):
            if kind != "edge":
                continue
            if src not in node_ids or tgt not in node_ids:
                raise ValueError(f"edge {eid} references unknown node")
            ef = fams.get(eid, [])
            if not iv.covered_by(ef, fams.get(src, [])) or not iv.covered_by(
                ef, fams.get(tgt, [])
            ):
                raise ValueError(f"edge {eid} exists outside its endpoints' validity")
        pvals: dict[tuple[str, str], list] = {}
        for oid, p, v, s, e in zip(
            self.props["id"],
            self.props["p"],
            self.props["v"],
            self.props["s"],
            self.props["e"],
        ):
            pvals.setdefault((oid, p), []).append((v, (int(s), int(e))))
        for (oid, p), vals in pvals.items():
            iv.coalesce_valued(vals)  # raises on overlap-with-conflict / bad form
            if not iv.covered_by([i for _, i in vals], fams.get(oid, [])):
                raise ValueError(f"σ({oid}, {p}) defined while object absent")

    # ---------------------------------------------------------------- stats
    def stats(self) -> dict[str, int]:
        """Table I statistics: #nodes, #edges, #temporal nodes/edges.

        A *temporal* node/edge is one constant-state maximal interval of the
        object (a box in Figure 1): existence intervals split at every
        property-value change boundary.
        """
        prop_bounds: dict[str, set[int]] = {}
        for oid, grp in self.props.groupby("id"):
            b = prop_bounds.setdefault(oid, set())
            for s, e in zip(grp["s"], grp["e"]):
                b.add(int(s))
                b.add(int(e) + 1)
        states = {"node": 0, "edge": 0}
        kind_of = dict(zip(self.objects["id"], self.objects["kind"]))
        for oid, grp in self.exist.groupby("id"):
            cuts = prop_bounds.get(oid, set())
            for s, e in zip(grp["s"], grp["e"]):
                inner = [c for c in cuts if int(s) < c <= int(e)]
                states[kind_of[oid]] += 1 + len(set(inner))
        counts = self.objects["kind"].value_counts()
        return {
            "nodes": int(counts.get("node", 0)),
            "edges": int(counts.get("edge", 0)),
            "temp_nodes": states["node"],
            "temp_edges": states["edge"],
        }

    # ------------------------------------------------------------ to points
    def point_tables(self) -> tuple[pd.DataFrame, pd.DataFrame]:
        """Point-exploded wide tables for the DuckDB oracle.

        Returns ``(nodes_pt, edges_pt)``: one row per (object, time point)
        where the object exists, with property columns pivoted wide (a
        property is NaN at times it is undefined).
        """
        rows = []
        for _, r in self.exist.iterrows():
            for t in range(int(r["s"]), int(r["e"]) + 1):
                rows.append((r["id"], t))
        pt = pd.DataFrame(rows, columns=["id", "t"]) if rows else _empty(["id", "t"])
        prows = []
        for _, r in self.props.iterrows():
            for t in range(int(r["s"]), int(r["e"]) + 1):
                prows.append((r["id"], t, r["p"], r["v"]))
        ppt = (
            pd.DataFrame(prows, columns=["id", "t", "p", "v"])
            if prows
            else _empty(["id", "t", "p", "v"])
        )
        prop_names = sorted(set(ppt["p"])) if len(ppt) else []
        wide = pt.merge(self.objects, on="id", how="left")
        if prop_names:
            pivot = ppt.pivot_table(
                index=["id", "t"], columns="p", values="v", aggfunc="first"
            ).reset_index()
            wide = wide.merge(pivot, on=["id", "t"], how="left")
        for p in prop_names:
            if p not in wide.columns:
                wide[p] = None
        nodes_pt = wide[wide["kind"] == "node"].drop(columns=["kind", "src", "tgt"])
        edges_pt = wide[wide["kind"] == "edge"].drop(columns=["kind"])
        return nodes_pt.reset_index(drop=True), edges_pt.reset_index(drop=True)


@dataclass
class SparkITPG:
    """Interval-timestamped TPG as Spark DataFrames, each a local
    checkpoint whose plan holds no rows, hash-partitioned by ``id``: the
    paper's Nodes/Edges interval relations, whose rows carry the object's
    kind, label and, for an edge, its endpoints ``src``/``tgt`` (NULL on a
    node), so a pattern test is one selection over one of them and an edge
    hop reads its endpoints from the same rows."""

    omega: tuple[int, int]
    objects: DataFrame  # id, kind, label, src, tgt
    exist: DataFrame  # id, kind, label, src, tgt, s, e
    props: DataFrame  # id, kind, label, src, tgt, p, v, s, e

    @staticmethod
    def from_data(spark: SparkSession, data: ITPGData) -> "SparkITPG":
        """Load ``data``; kind, label, src and tgt are joined onto the
        ``exist`` and ``props`` rows in pandas, so loading launches no
        join. Each table is hash-partitioned by ``id`` into the session's
        default parallelism and then an eager ``localCheckpoint``: a frame
        built from pandas (with Arrow) keeps its rows in its logical plan,
        which every query over it would carry and analyse; the
        checkpoint's plan reads an RDD instead, and keeps the partitioning
        (the session plans without adaptive execution, whose plans report
        none), so a join keyed on the object (``o2 = id``, or ``(id, t)``
        on points) needs no exchange on the loaded side."""
        obj_schema = "id string, kind string, label string, src string, tgt string"
        ex_schema = f"{obj_schema}, s long, e long"
        pr_schema = f"{obj_schema}, p string, v string, s long, e long"
        kl = data.objects[OBJECT_COLS]

        def labelled(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
            out = df[cols].merge(kl, on="id", how="left")
            return out[[*OBJECT_COLS, *cols[1:]]]

        frames = [
            spark.createDataFrame(data.objects[OBJECT_COLS], schema=obj_schema),
            spark.createDataFrame(labelled(data.exist, EXIST_COLS), schema=ex_schema),
            spark.createDataFrame(labelled(data.props, PROP_COLS), schema=pr_schema),
        ]
        n = spark.sparkContext.defaultParallelism
        objects, exist, props = (df.repartition(n, "id").localCheckpoint() for df in frames)
        return SparkITPG(data.omega, objects, exist, props)

    def to_tpg(self) -> "SparkTPG":
        """Explode intervals into time points (the canonical translation
        from ITPG to TPG of Section III-B), in Catalyst, and checkpoint
        the point rows, which keep the object's kind and label. The
        explode is a narrow step, so the point rows keep the loaded
        tables' partitioning by ``id``."""
        seq = F.explode(F.sequence(F.col("s"), F.col("e"))).alias("t")
        exist_pt = self.exist.select("id", "kind", "label", seq)
        props_pt = self.props.select("id", "kind", "label", "p", "v", seq)
        return SparkTPG(
            self.omega, self.objects, exist_pt.localCheckpoint(), props_pt.localCheckpoint()
        )


@dataclass
class SparkTPG:
    """Point-timestamped TPG as Spark DataFrames (Definition III.1), built
    only by :meth:`SparkITPG.to_tpg` from a validated :class:`ITPGData`, so
    a property holds only where its object exists (σ ⊆ ξ). The point rows
    are local checkpoints and carry the object's kind and label, so a
    pattern test is one selection over one of them."""

    omega: tuple[int, int]
    objects: DataFrame  # id, kind, label, src, tgt
    exist: DataFrame  # id, kind, label, t
    props: DataFrame  # id, kind, label, p, v, t

    def domain_df(self) -> DataFrame:
        """One-column DataFrame ``t`` enumerating Ω (single partition so
        crossJoins with it do not multiply partition counts)."""
        lo, hi = self.omega
        return self.objects.sparkSession.range(lo, hi + 1, 1, 1).select(
            F.col("id").cast("long").alias("t")
        )

    def pto(self) -> DataFrame:
        """PTO(G) = (N ∪ E) × Ω as ``(id, t)`` — all temporal objects,
        existing or not (the paper's navigation domain)."""
        return self.objects.select("id").crossJoin(self.domain_df())


def merge_data(omega: tuple[int, int], parts: list[ITPGData]) -> ITPGData:
    """Union several ITPGData fragments (disjoint object ids) into one."""
    return ITPGData(
        omega=omega,
        objects=pd.concat([p.objects for p in parts], ignore_index=True)
        if parts
        else _empty(OBJECT_COLS),
        exist=pd.concat([p.exist for p in parts], ignore_index=True)
        if parts
        else _empty(EXIST_COLS),
        props=pd.concat([p.props for p in parts], ignore_index=True)
        if parts
        else _empty(PROP_COLS),
    )
