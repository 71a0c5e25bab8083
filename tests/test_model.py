"""Tests for the TPG/ITPG model (Definitions III.1 and A.1)."""
import dataclasses

import pandas as pd
import pytest

from repro.tpg.figure1 import figure1
from repro.tpg.model import ITPGData, SparkITPG, merge_data


def tiny(**overrides):
    nodes = overrides.get(
        "nodes",
        [
            ("a", "Person", [(1, 5)], {"risk": [("low", 1, 5)]}),
            ("b", "Person", [(2, 6)], {}),
        ],
    )
    edges = overrides.get("edges", [("e", "a", "b", "meets", [(2, 4)], {})])
    return ITPGData.build(overrides.get("omega", (1, 10)), nodes, edges)


class TestBuildValidate:
    def test_build_ok(self):
        g = tiny()
        assert set(g.objects["id"]) == {"a", "b", "e"}
        assert g.stats()["nodes"] == 2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ITPGData.build(
                (1, 5),
                [("a", "P", [(1, 2)], {}), ("a", "P", [(3, 4)], {})],
                [],
            )

    def test_edge_outside_endpoint_validity_rejected(self):
        # edge exists at t=6 but node 'a' ends at 5 — violates Def III.1
        with pytest.raises(ValueError, match="outside its endpoints"):
            tiny(edges=[("e", "a", "b", "meets", [(2, 6)], {})])

    def test_edge_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            tiny(edges=[("e", "a", "zzz", "meets", [(2, 4)], {})])

    def test_prop_outside_existence_rejected(self):
        with pytest.raises(ValueError, match="absent"):
            tiny(
                nodes=[("a", "P", [(1, 3)], {"p": [("v", 1, 5)]}),
                       ("b", "P", [(2, 6)], {})],
                edges=[],
            )

    def test_existence_outside_omega_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            tiny(omega=(2, 4))

    def test_conflicting_prop_values_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            tiny(nodes=[("a", "P", [(1, 5)], {"p": [("v", 1, 3), ("w", 2, 5)]}),
                        ("b", "P", [(2, 6)], {})])

    def test_build_coalesces_intervals(self):
        g = tiny(nodes=[("a", "P", [(1, 2), (3, 5)], {}), ("b", "P", [(2, 6)], {})])
        fam = sorted(zip(g.exist[g.exist["id"] == "a"]["s"], g.exist[g.exist["id"] == "a"]["e"]))
        assert fam == [(1, 5)]

    def test_empty_graph(self):
        g = ITPGData.build((1, 3), [], [])
        assert g.stats() == {"nodes": 0, "edges": 0, "temp_nodes": 0, "temp_edges": 0}

    def test_direct_construction_validated(self):
        # a:risk stretched to [1, 8] while a exists on [1, 5] only
        g = tiny()
        props = g.props.assign(e=g.props["e"] + 3)
        with pytest.raises(ValueError, match="absent"):
            ITPGData(g.omega, g.objects, g.exist, props)

    def test_frozen(self):
        g = tiny()
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.props = g.props.iloc[:0]


class TestStats:
    def test_states_split_at_prop_changes(self):
        # one node, one existence interval, risk changes at 4 → 2 temporal nodes
        g = ITPGData.build(
            (1, 10),
            [("a", "P", [(1, 9)], {"risk": [("low", 1, 3), ("high", 4, 9)]})],
            [],
        )
        assert g.stats()["temp_nodes"] == 2

    def test_states_split_at_existence_gaps(self):
        g = ITPGData.build((1, 10), [("a", "P", [(1, 2), (5, 6)], {})], [])
        assert g.stats()["temp_nodes"] == 2

    def test_figure1_stats(self):
        st = figure1().stats()
        assert st["nodes"] == 7 and st["edges"] == 9
        # n2 (risk change) and n6 (test change) have 2 states each;
        # e1 has 2 validity runs with a loc change → boxes as drawn.
        assert st["temp_nodes"] == 9
        assert st["temp_edges"] == 10


class TestPointTables:
    def test_point_rows_match_interval_lengths(self):
        g = tiny()
        nodes_pt, edges_pt = g.point_tables()
        assert len(nodes_pt) == 5 + 5  # a:[1,5], b:[2,6]
        assert len(edges_pt) == 3  # e:[2,4]

    def test_prop_pivot(self):
        g = tiny()
        nodes_pt, _ = g.point_tables()
        a3 = nodes_pt[(nodes_pt["id"] == "a") & (nodes_pt["t"] == 3)]
        assert list(a3["risk"]) == ["low"]
        b = nodes_pt[nodes_pt["id"] == "b"]
        assert b["risk"].isna().all()

    def test_figure1_n6_test_change(self):
        nodes_pt, _ = figure1().point_tables()
        n6 = nodes_pt[nodes_pt["id"] == "n6"].set_index("t")
        assert n6.loc[8, "test"] == "neg"
        assert n6.loc[9, "test"] == "pos"


class TestMerge:
    def test_merge_disjoint(self):
        a = tiny()
        b = ITPGData.build((1, 10), [("c", "Room", [(1, 4)], {})], [])
        m = merge_data((1, 10), [a, b])
        assert set(m.objects["id"]) == {"a", "b", "e", "c"}

    def test_merge_conflict_rejected(self):
        with pytest.raises(ValueError):
            merge_data((1, 10), [tiny(), tiny()])


class TestSparkRepresentations:
    def test_itpg_roundtrip_counts(self, spark, fig1_data, fig1_itpg):
        assert fig1_itpg.objects.count() == len(fig1_data.objects)
        assert fig1_itpg.exist.count() == len(fig1_data.exist)
        assert fig1_itpg.props.count() == len(fig1_data.props)

    def test_rows_carry_kind_and_label(self, fig1_data, fig1_itpg, fig1_tpg):
        """Interval rows and the point rows exploded from them."""
        kl = {r.id: (r.kind, r.label) for r in fig1_data.objects.itertuples()}
        for df in (fig1_itpg.exist, fig1_itpg.props, fig1_tpg.exist, fig1_tpg.props):
            for r in df.collect():
                assert (r["kind"], r["label"]) == kl[r["id"]]

    def test_interval_rows_carry_edge_ends(self, fig1_data, fig1_itpg):
        ends = {
            r.id: (r.src, r.tgt) if r.kind == "edge" else (None, None)
            for r in fig1_data.objects.itertuples()
        }
        for df in (fig1_itpg.exist, fig1_itpg.props):
            for r in df.collect():
                assert (r["src"], r["tgt"]) == ends[r["id"]]

    def test_point_explosion_matches_interval_lengths(self, fig1_data, fig1_tpg):
        n_points = sum(int(e) - int(s) + 1 for s, e in zip(fig1_data.exist["s"], fig1_data.exist["e"]))
        assert fig1_tpg.exist.count() == n_points

    def test_point_explosion_values(self, fig1_tpg):
        rows = {
            (r["id"], r["t"])
            for r in fig1_tpg.exist.filter(fig1_tpg.exist["id"] == "e1").collect()
        }
        assert rows == {("e1", 3), ("e1", 5), ("e1", 6)}

    def test_props_explosion(self, fig1_tpg):
        rows = {
            (r["t"], r["v"])
            for r in fig1_tpg.props.filter(
                (fig1_tpg.props["id"] == "n2") & (fig1_tpg.props["p"] == "risk")
            ).collect()
        }
        assert rows == {(t, "low") for t in range(1, 5)} | {
            (t, "high") for t in range(5, 10)
        }

    def test_domain_df(self, fig1_tpg):
        assert [r["t"] for r in fig1_tpg.domain_df().collect()] == list(range(1, 12))

    def test_pto_size(self, fig1_tpg):
        assert fig1_tpg.pto().count() == 16 * 11  # (7 nodes + 9 edges) × |Ω|
