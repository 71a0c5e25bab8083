"""Workloads, passes and output checks of the benchmark.

One *pass* runs a workload's query list once on a warm session. Before
every pass the cache state is reset to "graph just loaded", so every pass
does the same work and launches the same number of Spark jobs. The first
pass is the warm-up: it is untimed, and its outputs are checked against
the DuckDB oracle. Timed passes must then reproduce the warm-up's output
sizes exactly.
"""
from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import duckdb
from pyspark.sql import SparkSession

from repro.tpg.generator import g_lite
from repro.tpg.model import SparkITPG
from repro.trpq.interval_eval import IntervalEvaluator
from repro.trpq.match import eval_match_interval, eval_match_point, out_columns
from repro.trpq.oracle_sql import ORACLE_SQL
from repro.trpq.parser import parse_match
from repro.trpq.queries import QUERIES, STRUCTURAL_ONLY
from repro.trpq.spark_eval import PointEvaluator
from sparkprobe import SparkProbe
from spans import NullTracer, TracedIntervalEvaluator, TracedPointEvaluator, Tracer


@dataclass(frozen=True)
class Workload:
    rung: str  # G-lite graph, generated from the run's seed
    backend: str  # "interval" (Section VI) or "point" (Theorem C.1)
    queries: tuple[str, ...]
    # about a warm pass on a quiet 4-core host; sets the number of timed
    # passes, round(seconds / nominal_pass_s)
    nominal_pass_s: float
    # Untimed passes before the timed ones. Even without the JIT compilers'
    # own CPU time, the CPU time of a pass falls over the first passes on a
    # new JVM while code still runs interpreted: on `table2` about 21, 15,
    # 12.5 and 11 CPU-s, then flat; on `point` about 8.5, 4.7, 4.1, 4.1,
    # then flat at 3.8 from the fifth pass.
    warmup_passes: int


WORKLOADS = {
    "table2": Workload("G6", "interval", ("Q4", "Q7"), 5.0, 2),
    "point": Workload("G6", "point", ("Q6",), 2.5, 3),
}

END_TO_END = {"setup_s": "s", "pass_cpu_s": "s", "spark_jobs": "count", "peak_rss_mb": "MiB"}

# span name -> per-layer metric holding the span's self time
SPAN_METRICS = {
    "parse": "parse_s",
    "plan_build": "plan_build_s",
    "steps12": "steps12_s",
    "chain": "chain_s",
    "step3": "step3_s",
    "point_rel": "point_rel_s",
    "point_match": "point_chain_s",
}
PER_LAYER = {
    "generate_s": "s",
    "load_s": "s",
    "load_jobs": "count",
    "load_rows": "count",
    "tpg_build_s": "s",
    "tpg_rows": "count",
    "parse_s": "s",
    "plan_build_s": "s",
    "plan_joins": "count",
    "plan_exchanges": "count",
    "steps12_s": "s",
    "link_rows": "count",
    "chain_s": "s",
    "interval_rows": "count",
    "step3_s": "s",
    "output_rows": "count",
    "expansion_ratio": "ratio",
    "point_rel_s": "s",
    "point_chain_s": "s",
    "point_rows": "count",
    "spark_stages": "count",
    "spark_tasks": "count",
    "gc_s": "s",
    "jit_cpu_s": "s",
    "pass_s": "s",
    "storage_mb": "MiB",
    "host_ref_s": "s",
    "steal_s": "s",
    "trace_overhead_s": "s",
}

HOST_REF_N = 1_000_000


def host_ref() -> float:
    """Seconds for a fixed CPU-bound loop: the host's speed right now."""
    t = time.perf_counter()
    acc = 0
    for i in range(HOST_REF_N):
        acc += i
    return time.perf_counter() - t


class Bench:
    """One workload on one session: set-up, reset, passes and checks."""

    def __init__(self, spark: SparkSession, wl: Workload, seed: int):
        self.spark = spark
        self.wl = wl
        self.seed = seed
        self.probe = SparkProbe(spark)
        self.npass = 0

    # ------------------------------------------------------------ set-up
    def setup(self, tr) -> None:
        with tr.span("generate"):
            self.data = g_lite(self.wl.rung, seed=self.seed)
        self._load(tr)
        if self.wl.backend == "point":
            with tr.span("tpg_build") as rec:
                self.tpg = self.itpg.to_tpg()
            if tr.enabled:
                rec["rows"] = self.tpg.exist.count() + self.tpg.props.count()
        self._new_evaluator(NullTracer())  # the warm-up pass is untraced

    def _load(self, tr) -> None:
        with tr.span("load") as rec:
            self.itpg = SparkITPG.from_data(self.spark, self.data)
        d = self.data
        rec["rows"] = len(d.objects) + len(d.exist) + len(d.props)

    def _new_evaluator(self, tr) -> None:
        traced = tr.enabled
        if self.wl.backend == "interval":
            self.ev = TracedIntervalEvaluator(self.itpg, tr) if traced else IntervalEvaluator(self.itpg)
        else:
            self.ev = TracedPointEvaluator(self.tpg, tr) if traced else PointEvaluator(self.tpg)

    def reset(self, tr) -> None:
        """Return to the cache state right after set-up (untimed).

        A new interval evaluator on a graph that is still cached would be
        served the previous evaluator's test tables by Spark's cache
        manager, so the interval backend drops every cached table and
        reloads. The point evaluator keeps its state in its own memo and
        in checkpoints, so a new evaluator is enough.
        """
        self.probe.set_group("reset")
        if self.wl.backend == "interval":
            self.spark.catalog.clearCache()
            self._load(NullTracer())
        self._new_evaluator(tr)

    # ------------------------------------------------------------ passes
    def _op(self, name: str, tr) -> tuple[int, object]:
        """One query as Table II runs it; returns the output size and the
        object the output checks read."""
        with tr.span("query", name):
            with tr.span("parse"):
                q = parse_match(QUERIES[name])
            if self.wl.backend == "point":
                with tr.span("point_match") as rec:
                    df = eval_match_point(self.ev, q)
                    rec["rows"] = df.count()
                return rec["rows"], df
            with tr.span("plan_build"):
                ib = eval_match_interval(self.ev, q)
            with tr.span("chain") as chain:
                chain["rows"] = ib.materialize()
            if tr.enabled:
                chain.update(SparkProbe.plan_ops(ib.df))
            with tr.span("step3") as rec:
                if name in STRUCTURAL_ONLY:
                    rec["rows"] = ib.coalesced().count()
                else:
                    rec["rows"] = ib.points(distinct=False).count()
            return rec["rows"], ib

    def run_pass(self, tr) -> tuple[dict, dict]:
        """Run the query list once; return the pass record and, per
        query, the object its output checks read."""
        p = self.probe
        ref_before = host_ref()
        group = f"pass-{self.npass}"
        self.npass += 1
        gc0, cpu0, steal0, thr0 = p.gc_s(), p.cpu_s(), p.steal_s(), p.thread_cpu_s()
        p.set_group(group)
        jobs0 = p.total_jobs()
        queries, kept = {}, {}
        t = time.perf_counter()
        with tr.span("pass"):
            for name in self.wl.queries:
                tq = time.perf_counter()
                try:
                    out, kept[name] = self._op(name, tr)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    out = None
                queries[name] = {"s": time.perf_counter() - tq, "output": out}
        wall = time.perf_counter() - t
        cpu, thr = p.cpu_s(), p.thread_cpu_s()
        rec = {
            "wall_s": wall,
            "queries": queries,
            "jobs": p.total_jobs() - jobs0,
            "cpu_s": cpu - cpu0,
            "jit_cpu_s": p.jit_cpu_s(thr) - p.jit_cpu_s(thr0),
            "thread_cpu_s": {k: v - thr0.get(k, 0.0) for k, v in thr.items()},
            "steal_s": p.steal_s() - steal0,
            "gc_s": p.gc_s() - gc0,
        }
        if not tr.enabled:  # the traced pass's jobs ran under span groups
            rec.update(p.group_counts(group, expected_jobs=rec["jobs"]))
        rec.update(
            storage_mb=p.storage_mb(),
            host_ref_before_s=ref_before,
            host_ref_after_s=host_ref(),
        )
        return rec, kept

    # ------------------------------------------------------------ checks
    def check(self, warm: dict, kept: dict) -> dict:
        """Check the warm-up pass's outputs against the DuckDB oracle.

        Interval backend: the distinct point-wise binding table equals the
        oracle's answer as a set; for structural queries the coalesced row
        count equals the number of maximal runs of consecutive time points
        per binding tuple in the oracle's answer; otherwise the bag count
        is at least the size of the answer. Point backend: the binding
        table equals the oracle's answer.
        """
        nodes_pt, edges_pt = self.data.point_tables()
        con = duckdb.connect()
        results = {}
        try:
            con.register("nodes_pt", nodes_pt)
            con.register("edges_pt", edges_pt)
            for name in self.wl.queries:
                out = warm["queries"][name]["output"]
                if out is None:
                    results[name] = {"ok": False, "why": "warm-up raised"}
                    continue
                q = parse_match(QUERIES[name])
                cols = out_columns(q)
                answer = f"SELECT {', '.join(cols)} FROM ({ORACLE_SQL[name]}) AS a"
                expected = set(con.execute(answer).fetchall())
                res = {"output": out, "oracle_rows": len(expected)}
                if self.wl.backend == "point":
                    got = {tuple(r) for r in kept[name].collect()}
                    res["ok"] = got == expected and out == len(expected)
                else:
                    got = {tuple(r) for r in kept[name].points(distinct=True).select(*cols).collect()}
                    res["set_equal"] = got == expected
                    if name in STRUCTURAL_ONLY:
                        res["oracle_runs"] = self._maximal_runs(con, q, answer)
                        res["ok"] = res["set_equal"] and out == res["oracle_runs"]
                    else:
                        res["ok"] = res["set_equal"] and out >= len(expected)
                results[name] = res
        finally:
            con.close()
        return results

    @staticmethod
    def _maximal_runs(con, q, answer: str) -> int:
        """Maximal runs of consecutive time points per binding tuple."""
        vs = ", ".join(q.vars)
        t = f"{q.vars[0]}_time"
        sql = (
            f"SELECT count(*) FROM (SELECT DISTINCT {vs}, {t} - row_number() "
            f"OVER (PARTITION BY {vs} ORDER BY {t}) AS grp FROM ({answer}) AS b) AS c"
        )
        return con.execute(sql).fetchone()[0]


# ---------------------------------------------------------------- run
def run(spark: SparkSession, wl: Workload, seed: int, seconds: float, trace: bool, t0: float, session_s: float) -> dict:
    """Set up, warm up, check, measure; return the run record."""
    b = Bench(spark, wl, seed)
    tr = Tracer(b.probe, t0) if trace else NullTracer()
    b.setup(tr)
    warm, kept = b.run_pass(NullTracer())
    t = time.perf_counter()
    checks = b.check(warm, kept)
    check_s = time.perf_counter() - t
    del kept
    warmups = [warm]
    for _ in range(wl.warmup_passes - 1):
        b.reset(NullTracer())
        warmups.append(b.run_pass(NullTracer())[0])
    setup_s = time.perf_counter() - t0 - check_s

    # --seconds sets the number of timed passes through the workload's
    # nominal pass time, so the count, and with it the passes' place on the
    # JVM's warm-up curve, does not depend on how fast the host is today
    timed = []
    t_meas = time.perf_counter()
    for _ in range(max(1, round(seconds / wl.nominal_pass_s))):
        b.reset(NullTracer())
        timed.append(b.run_pass(NullTracer())[0])
    measured_s = time.perf_counter() - t_meas

    # an operation fails if it raises, or if its output is wrong: the
    # warm-up output failed its oracle check or a timed pass differs from it
    attempted = failed = wrong = 0
    for p in timed:
        for name, qr in p["queries"].items():
            attempted += 1
            if qr["output"] is None:
                failed += 1
            elif not checks[name]["ok"] or qr["output"] != warm["queries"][name]["output"]:
                failed += 1
                wrong += 1
    jobs_steady = len({p["jobs"] for p in warmups + timed}) == 1
    correct = jobs_steady and wrong == 0

    rss = b.probe.peak_rss_mb()
    metrics = {
        "setup_s": setup_s,
        # the JIT compilers' share is left out: it is the JVM still warming
        # up, and it varies from run to run far more than the rest
        "pass_cpu_s": statistics.median(p["cpu_s"] - p["jit_cpu_s"] for p in timed),
        "spark_jobs": statistics.median_low(p["jobs"] for p in timed),
        "peak_rss_mb": sum(rss.values()),
    }
    record = {
        "workload": wl.__dict__,
        "seed": seed,
        "seconds": seconds,
        "session_s": session_s,
        "measured_s": measured_s,
        "check_s": check_s,
        "warmups": warmups,
        "passes": timed,
        "checks": checks,
        "jobs_steady": jobs_steady,
        "peak_rss_mb": rss,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "metrics": metrics,
    }
    if trace:
        b.reset(tr)
        traced, _ = b.run_pass(tr)
        record["traced_pass"] = traced
        record["spans"] = tr.spans
        record["per_layer"] = per_layer(tr, traced, timed)
    return record


def per_layer(tr: Tracer, traced: dict, timed: list[dict]) -> dict:
    """Per-layer metrics: span self times and counts from the traced run,
    Spark runtime and host figures as medians over the untraced passes."""
    m = {k: 0.0 for k in PER_LAYER}
    for s in tr.spans:
        name = s["name"]
        if name in ("generate", "load", "tpg_build"):  # set-up spans, cold session
            m[f"{name}_s"] = s["end"] - s["start"]
            if name == "load":
                m["load_jobs"] = s["jobs"]
                m["load_rows"] = s["rows"]
            elif name == "tpg_build":
                m["tpg_rows"] = s["rows"]
        elif name in SPAN_METRICS:
            m[SPAN_METRICS[name]] += tr.self_time(s)
        rows = s.get("rows", 0)
        if name == "steps12":
            m["link_rows"] += rows
        elif name == "chain":
            m["interval_rows"] += rows
            m["plan_joins"] += s["joins"]
            m["plan_exchanges"] += s["exchanges"]
        elif name == "step3":
            m["output_rows"] += rows
        elif name == "point_match":
            m["point_rows"] += rows
    if m["interval_rows"]:
        m["expansion_ratio"] = m["output_rows"] / m["interval_rows"]
    med = lambda k: statistics.median(p[k] for p in timed)  # noqa: E731
    m.update(
        spark_stages=med("stages"),
        spark_tasks=med("tasks"),
        gc_s=med("gc_s"),
        jit_cpu_s=med("jit_cpu_s"),
        pass_s=med("wall_s"),
        storage_mb=med("storage_mb"),
        steal_s=med("steal_s"),
        host_ref_s=statistics.median(
            r for p in timed for r in (p["host_ref_before_s"], p["host_ref_after_s"])
        ),
        trace_overhead_s=traced["wall_s"] - med("wall_s"),
    )
    return m
