"""Closed integer-interval algebra (Section III-B / Appendix A).

An interval ``[a, b]`` with ``a <= b`` denotes ``{a, ..., b}``. A *coalesced*
family is sorted and pairwise "before" (gap of at least one point between
consecutive intervals), per Böhlen et al. — the canonical form the paper
requires ITPGs to maintain. All functions take/return plain
``list[tuple[int, int]]`` and always return coalesced families.
"""
from __future__ import annotations

from typing import Iterable, Iterator

Interval = tuple[int, int]


def coalesce(intervals: Iterable[Interval]) -> list[Interval]:
    """Merge overlapping or temporally adjacent intervals into maximal ones.

    ``[1,2]`` and ``[3,4]`` are adjacent (``[1,2]`` *meets* ``[3,4]``) and
    merge to ``[1,4]``; ``[1,2]`` and ``[4,5]`` stay separate.
    """
    out: list[Interval] = []
    for s, e in sorted(intervals):
        if s > e:
            raise ValueError(f"invalid interval [{s}, {e}]")
        if out and s <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def intersect(a: Iterable[Interval], b: Iterable[Interval]) -> list[Interval]:
    """Set intersection of two interval families."""
    a, b = coalesce(a), coalesce(b)
    out: list[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if s <= e:
            out.append((s, e))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def complement(intervals: Iterable[Interval], lo: int, hi: int) -> list[Interval]:
    """Set complement of ``intervals`` within the domain ``[lo, hi]``."""
    out: list[Interval] = []
    cur = lo
    for s, e in coalesce(intervals):
        if s > cur:
            out.append((cur, min(s - 1, hi)))
        cur = max(cur, e + 1)
        if cur > hi:
            break
    if cur <= hi:
        out.append((cur, hi))
    return out


def clip(intervals: Iterable[Interval], lo: int, hi: int) -> list[Interval]:
    """Intersect with the single interval ``[lo, hi]`` (empty if lo > hi)."""
    if lo > hi:
        return []
    return intersect(intervals, [(lo, hi)])


def covered_by(inner: Iterable[Interval], outer: Iterable[Interval]) -> bool:
    """The ⊑ relation of Appendix A: every inner interval occurs during
    some outer interval (point-set containment for coalesced families)."""
    inner = coalesce(inner)
    return intersect(inner, coalesce(outer)) == inner


def points(intervals: Iterable[Interval]) -> Iterator[int]:
    """Iterate every time point of the family, ascending."""
    for s, e in coalesce(intervals):
        yield from range(s, e + 1)


def is_coalesced(intervals: list[Interval]) -> bool:
    """True iff the family is already in canonical coalesced form."""
    return coalesce(intervals) == list(intervals)


def coalesce_valued(pairs: Iterable[tuple[object, Interval]]) -> list[tuple[object, Interval]]:
    """Coalesce a family of *valued* intervals (Appendix A): adjacent or
    overlapping intervals merge only when they carry the same value;
    same-value-overlap is merged, distinct values may only meet, not overlap.
    """
    by_start = sorted(pairs, key=lambda p: (p[1][0], p[1][1]))
    out: list[tuple[object, Interval]] = []
    for v, (s, e) in by_start:
        if s > e:
            raise ValueError(f"invalid interval [{s}, {e}]")
        if out:
            pv, (ps, pe) = out[-1]
            if s <= pe and pv != v:
                raise ValueError(
                    f"conflicting values {pv!r}/{v!r} overlap at [{s},{min(e, pe)}]"
                )
            if s <= pe + 1 and pv == v:
                out[-1] = (pv, (ps, max(pe, e)))
                continue
        out.append((v, (s, e)))
    return out
