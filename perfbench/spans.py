"""In-memory spans for the traced run, and evaluators that record them.

A span is one call into a layer: its name, start and end (seconds since
the run started), the span that caused it, the query it served, and the
Spark jobs, stages and tasks launched while it was the innermost open
span (each span runs under its own job group). Layer-specific counts such
as rows or plan operators are added to the span's record by the caller.

``NullTracer`` has the same interface and records nothing; untimed and
timed passes use it, so the traced and untraced passes share one code
path and only the traced pass pays for bookkeeping.
"""
from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from typing import Iterator

from repro.trpq import ast
from repro.trpq.interval_eval import IntervalEvaluator, LinkRel
from repro.trpq.spark_eval import PointEvaluator
from sparkprobe import SparkProbe


class NullTracer:
    enabled = False

    @contextmanager
    def span(self, name: str, query: str | None = None) -> Iterator[dict]:
        yield {}


class Tracer:
    """Records nested spans with per-span Spark counts."""

    enabled = True

    def __init__(self, probe: SparkProbe, t0: float):
        self.probe = probe
        self.t0 = t0
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, query: str | None = None) -> Iterator[dict]:
        parent = self._open[-1] if self._open else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "query": query if query is not None else (parent or {}).get("query"),
        }
        group = f"span-{rec['id']}"
        self.spans.append(rec)
        self._open.append(rec)
        self.probe.set_group(group)
        jobs0 = self.probe.total_jobs()
        rec["start"] = time.perf_counter() - self.t0
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._open.pop()
            # jobs submitted while a child span was open ran in the child's group
            rec["jobs_total"] = self.probe.total_jobs() - jobs0
            in_children = sum(s["jobs_total"] for s in self.spans if s["parent"] == rec["id"])
            rec.update(self.probe.group_counts(group, rec["jobs_total"] - in_children))
            self.probe.set_group(f"span-{self._open[-1]['id']}" if self._open else "trace")

    def self_time(self, rec: dict) -> float:
        kids = sum(s["end"] - s["start"] for s in self.spans if s["parent"] == rec["id"])
        return rec["end"] - rec["start"] - kids


class TracedIntervalEvaluator(IntervalEvaluator):
    """Records a ``steps12`` span per MATCH segment.

    ``eval_link`` only builds a DataFrame; to time Steps 1–2 on their own
    the traced evaluator caches each link relation and counts it inside
    the span, so the chain join that follows reads the cached links.
    """

    def __init__(self, g, tracer: Tracer):
        super().__init__(g)
        self.tracer = tracer

    def eval_link(self, path: ast.Path) -> LinkRel:
        with self.tracer.span("steps12") as rec:
            lr = super().eval_link(path)
            lr = dataclasses.replace(lr, df=lr.df.cache())
            rec["rows"] = lr.df.count()
        return lr


class TracedPointEvaluator(PointEvaluator):
    """Records a ``point_rel`` span per top-level ``rel`` call, that is,
    per MATCH segment (``rel`` recurses into sub-expressions)."""

    def __init__(self, tpg, tracer: Tracer):
        super().__init__(tpg)
        self.tracer = tracer
        self._depth = 0

    def rel(self, path: ast.Path):
        if self._depth:
            return super().rel(path)
        self._depth += 1
        try:
            with self.tracer.span("point_rel"):
                return super().rel(path)
        finally:
            self._depth -= 1
