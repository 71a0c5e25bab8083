"""Abstract syntax of NavL[PC,NOI] (grammars (2), (3), (4) of Section V-A).

Two sorts of terms:

* **tests** (grammar 3): ``Node | Edge | ℓ | p↦v | <k | ∃ | ?path |
  ∧ | ∨ | ¬`` — applied to a temporal object ``(o, t)``;
* **paths** (grammars 2, 4): ``test | F | B | N | P | path/path |
  path+path | path[n,m] | path[n,_]`` — denoting relations of pairs of
  temporal objects.

All nodes are frozen dataclasses so they hash (memoised evaluation) and
print back to a readable NavL-ish syntax via ``str``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

# --------------------------------------------------------------------- tests


class Test:
    """Base class for test expressions (grammar 3)."""


@dataclass(frozen=True)
class NodeTest(Test):
    def __str__(self) -> str:
        return "Node"


@dataclass(frozen=True)
class EdgeTest(Test):
    def __str__(self) -> str:
        return "Edge"


@dataclass(frozen=True)
class LabelTest(Test):
    label: str

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class PropTest(Test):
    prop: str
    value: str

    def __str__(self) -> str:
        return f"{self.prop}->{self.value}"


@dataclass(frozen=True)
class ExistsTest(Test):
    def __str__(self) -> str:
        return "E!"


@dataclass(frozen=True)
class LtTest(Test):
    """``< k``: the current time point is less than ``k``."""

    k: int

    def __str__(self) -> str:
        return f"<{self.k}"


@dataclass(frozen=True)
class PathTest(Test):
    """``?path``: some path conforming to ``path`` starts here."""

    path: "Path"

    def __str__(self) -> str:
        return f"?({self.path})"


@dataclass(frozen=True)
class AndTest(Test):
    left: Test
    right: Test

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class OrTest(Test):
    left: Test
    right: Test

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class NotTest(Test):
    inner: Test

    def __str__(self) -> str:
        return f"!({self.inner})"


def conj(*tests: Test) -> Test:
    """Left-deep conjunction of one or more tests."""
    out = tests[0]
    for t in tests[1:]:
        out = AndTest(out, t)
    return out


SIMPLE_TESTS = (NodeTest, EdgeTest, LabelTest, ExistsTest, PropTest, LtTest)


def simple_conjuncts(test: Test) -> Optional[list[Test]]:
    """The flattened conjuncts of ``test`` when every one is simple (kind,
    label, property, ``∃``, ``<k`` or ``¬<k``, the parser's ``time = k``
    lowering), else None. Both Spark evaluators compile such a conjunction
    into one scan of the graph relations."""
    if isinstance(test, AndTest):
        left, right = simple_conjuncts(test.left), simple_conjuncts(test.right)
        return None if left is None or right is None else left + right
    if isinstance(test, SIMPLE_TESTS) or (
        isinstance(test, NotTest) and isinstance(test.inner, LtTest)
    ):
        return [test]
    return None


# --------------------------------------------------------------------- paths


class Path:
    """Base class for path expressions (grammar 2)."""


@dataclass(frozen=True)
class TestExpr(Path):
    """A test used as a path: stays at ``(o, t)`` when the test holds."""

    test: Test

    def __str__(self) -> str:
        return str(self.test)


@dataclass(frozen=True)
class Axis(Path):
    """F (forward), B (backward), N (next), P (previous) — grammar (4)."""

    op: str  # 'F' | 'B' | 'N' | 'P'

    def __post_init__(self) -> None:
        if self.op not in ("F", "B", "N", "P"):
            raise ValueError(f"unknown axis {self.op!r}")

    def __str__(self) -> str:
        return self.op


@dataclass(frozen=True)
class Seq(Path):
    """Concatenation ``p1 / p2 / ... / pk``."""

    parts: tuple[Path, ...]

    def __str__(self) -> str:
        return "(" + "/".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Union(Path):
    """Disjunction ``p1 + p2 + ... + pk``."""

    parts: tuple[Path, ...]

    def __str__(self) -> str:
        return "(" + " + ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Repeat(Path):
    """``path[n, m]`` or, when ``m is None``, ``path[n, _]`` (unbounded).

    The Kleene star is ``Repeat(p, 0, None)``.
    """

    inner: Path
    lo: int
    hi: Optional[int]

    def __post_init__(self) -> None:
        if self.lo < 0 or (self.hi is not None and self.hi < self.lo):
            raise ValueError(f"bad occurrence indicator [{self.lo},{self.hi}]")

    def __str__(self) -> str:
        hi = "_" if self.hi is None else self.hi
        return f"{self.inner}[{self.lo},{hi}]"


def seq(*parts: Union[Path, Test]) -> Path:
    """Concatenate, lifting bare tests and flattening nested Seq."""
    flat: list[Path] = []
    for p in parts:
        p = TestExpr(p) if isinstance(p, Test) else p
        if isinstance(p, Seq):
            flat.extend(p.parts)
        else:
            flat.append(p)
    return flat[0] if len(flat) == 1 else Seq(tuple(flat))


def union(*parts: Union[Path, Test]) -> Path:
    parts = tuple(TestExpr(p) if isinstance(p, Test) else p for p in parts)
    return parts[0] if len(parts) == 1 else Union(parts)


# Convenient singletons for building expressions in code and tests.
F, B, N, P = Axis("F"), Axis("B"), Axis("N"), Axis("P")
NODE, EDGE, EXISTS = NodeTest(), EdgeTest(), ExistsTest()
