"""Harness + jobs smoke tests: Tables I/II runners produce sane rows."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.tables import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    format_table1,
    format_table2,
    table1_rows,
    table2_rows,
    window_sweep_rows,
)

JOBS = Path(__file__).resolve().parents[1] / "jobs"


class TestTable1:
    def test_rows(self):
        rows = table1_rows(("G1", "G2"))
        assert [r["graph"] for r in rows] == ["G1", "G2"]
        for r in rows:
            assert r["temp_nodes"] >= r["nodes"] > 0
            assert r["paper_nodes"] == PAPER_TABLE1[r["graph"]][0]

    def test_format(self):
        text = format_table1(table1_rows(("G1",)))
        assert "G1" in text and "paper" in text

    def test_paper_constants_complete(self):
        assert set(PAPER_TABLE1) == {f"G{i}" for i in range(1, 11)}
        assert set(PAPER_TABLE2) == {f"Q{i}" for i in range(1, 13)}


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self, spark, gen_data):
        return table2_rows(spark, gen_data, names=("Q1", "Q5", "Q6", "Q9", "Q11"))

    def test_all_queries_ran(self, rows):
        assert [r["query"] for r in rows] == ["Q1", "Q5", "Q6", "Q9", "Q11"]

    def test_times_positive_and_ordered(self, rows):
        for r in rows:
            assert 0 < r["interval_s"] <= r["total_s"]

    def test_output_sizes(self, rows, gen_local):
        from repro.trpq import queries as Q
        from repro.trpq.match import eval_match_local

        by_name = {r["query"]: r for r in rows}
        # Q1 coalesced rows ≤ point rows
        q1_points = len(eval_match_local(gen_local, Q.query("Q1")))
        assert 0 < by_name["Q1"]["output"] <= q1_points
        # bag counts dominate set counts for temporal queries
        q9_set = len(eval_match_local(gen_local, Q.query("Q9")))
        assert by_name["Q9"]["output"] >= q9_set

    def test_format(self, rows):
        text = format_table2(rows)
        assert "paper" in text and "Q11" in text


class TestSweeps:
    def test_window_sweep_monotone_output(self, spark, gen_data):
        rows = window_sweep_rows(
            spark, gen_data, names=("Q11",), windows=(4, 48)
        )
        out = {r["m"]: r["output"] for r in rows}
        assert out[4] <= out[48]


class TestJobsCli:
    def test_table1_job_runs(self):
        proc = subprocess.run(
            [sys.executable, str(JOBS / "table1.py"), "--graphs", "G1"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "G1" in proc.stdout

    def test_table2_help_lists_json(self):
        proc = subprocess.run(
            [sys.executable, str(JOBS / "table2.py"), "--help"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        assert "--json PATH" in proc.stdout

    def test_run_query_help(self):
        proc = subprocess.run(
            [sys.executable, str(JOBS / "run_query.py"), "--help"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        assert "fig1" in proc.stdout

    def test_run_query_prints_rows_and_jobs(self):
        """Rows, jobs, and the joins and exchanges of the binding table's
        plan; Q6 on the point backend joins its pattern scans with the
        PREV step."""
        proc = subprocess.run(
            [sys.executable, str(JOBS / "run_query.py"), "Q6", "--graph", "fig1", "--backend", "point"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"^rows: 1$", proc.stdout, re.M), proc.stdout
        assert re.search(r"^jobs: [1-9][0-9]*$", proc.stdout, re.M), proc.stdout
        assert re.search(r"^joins: [1-9][0-9]*$", proc.stdout, re.M), proc.stdout
        assert re.search(r"^exchanges: [0-9]+$", proc.stdout, re.M), proc.stdout

    def test_run_query_interval_plan_counters(self):
        """Q5 on the interval backend: its edge hop and the test of its
        second pattern are one join each."""
        proc = subprocess.run(
            [sys.executable, str(JOBS / "run_query.py"), "Q5", "--graph", "fig1"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"^rows: 4$", proc.stdout, re.M), proc.stdout
        assert re.search(r"^joins: 2$", proc.stdout, re.M), proc.stdout
        assert re.search(r"^exchanges: [1-9][0-9]*$", proc.stdout, re.M), proc.stdout
