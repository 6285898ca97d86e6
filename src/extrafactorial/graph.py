"""Complete weighted graphs: construction, validation, file format, random generation.

A graph of order n stores one real weight per unordered vertex pair, kept in a
flat tuple ordered row-major over pairs (u, v) with u < v. Instances are
immutable and safe to share across threads; all operations are pure.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    BadRange,
    DuplicateEdge,
    GraphSyntaxError,
    MissingEdge,
    NonFiniteScale,
    NonFiniteWeight,
    OrderTooSmall,
    SelfLoop,
    VertexOutOfRange,
)


class EdgeKey(NamedTuple):
    """Normalized unordered vertex pair, always with u < v."""

    u: int
    v: int


def edge_key(u: int, v: int) -> EdgeKey:
    """Normalize a vertex pair into an :class:`EdgeKey`.

    Raises SelfLoop if the endpoints coincide and VertexOutOfRange for
    negative ids. Upper-bound checks happen against a concrete graph.
    """
    if u == v:
        raise SelfLoop(f"edge ({u}, {v}) joins a vertex to itself")
    if u < 0 or v < 0:
        raise VertexOutOfRange(f"vertex ids must be non-negative, got ({u}, {v})")
    return EdgeKey(u, v) if u < v else EdgeKey(v, u)


def _pair_index(n: int, u: int, v: int) -> int:
    # row-major rank of pair (u, v), u < v, within the n(n-1)/2 pairs
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


@dataclass(frozen=True)
class CompleteWeightedGraph:
    """Order-n complete graph with a finite real weight on every pair."""

    n: int
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.n < 3:
            raise OrderTooSmall(f"graph order must be >= 3, got {self.n}")
        m = self.n * (self.n - 1) // 2
        if len(self.weights) != m:
            raise MissingEdge(
                f"order {self.n} needs {m} weights, got {len(self.weights)}"
            )
        for w in self.weights:
            if not math.isfinite(w):
                raise NonFiniteWeight(f"weight {w!r} is not finite")

    @property
    def edge_count(self) -> int:
        return self.n * (self.n - 1) // 2

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} not in [0, {self.n})")

    def edge(self, u: int, v: int) -> EdgeKey:
        """Validate (u, v) against this graph and return the normalized key."""
        e = edge_key(u, v)
        self._check_vertex(e.v)
        return e

    def weight(self, u: int, v: int) -> float:
        """Weight of the edge joining u and v; symmetric in endpoint order."""
        e = self.edge(u, v)
        return self.weights[_pair_index(self.n, e.u, e.v)]

    def edges(self) -> Iterator[EdgeKey]:
        """All edges in (u, v)-lexicographic order."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                yield EdgeKey(u, v)

    def items(self) -> Iterator[tuple[EdgeKey, float]]:
        return zip(self.edges(), self.weights)

    @cached_property
    def strengths(self) -> tuple[float, ...]:
        """Per-vertex sum of the n-1 incident weights."""
        acc = [0.0] * self.n
        k = 0
        w = self.weights
        for u in range(self.n):
            for v in range(u + 1, self.n):
                acc[u] += w[k]
                acc[v] += w[k]
                k += 1
        return tuple(acc)

    def vertex_strength(self, v: int) -> float:
        self._check_vertex(v)
        return self.strengths[v]

    @cached_property
    def total_weight(self) -> float:
        return math.fsum(self.weights)

    def scale(self, c: float) -> CompleteWeightedGraph:
        """New graph with every weight multiplied by the finite factor c."""
        if not math.isfinite(c):
            raise NonFiniteScale(f"scale factor {c!r} is not finite")
        return CompleteWeightedGraph(self.n, tuple(w * c for w in self.weights))


def build_graph(
    n: int, entries: Iterable[tuple[tuple[int, int], float]]
) -> CompleteWeightedGraph:
    """Build a graph from (pair, weight) entries covering every pair exactly once.

    Pairs given as (v, u) with v > u are normalized before insertion. Repeating
    a pair with the identical value is accepted; a conflicting repeat raises
    DuplicateEdge.
    """
    if n < 3:
        raise OrderTooSmall(f"graph order must be >= 3, got {n}")
    m = n * (n - 1) // 2
    entries = list(entries)
    # Fewer entries than pairs must leave a pair without a weight. The table
    # is then sized by the entries, not by the order, which a file header can
    # set arbitrarily high; a missing slot reads as None either way.
    slots: list[float | None] | defaultdict[int, None] = (
        [None] * m if len(entries) >= m else defaultdict(type(None))
    )
    for raw, value in entries:
        e = edge_key(*raw)
        if e.v >= n:
            raise VertexOutOfRange(f"vertex {e.v} not in [0, {n})")
        w = float(value)
        if not math.isfinite(w):
            raise NonFiniteWeight(f"weight {value!r} for edge {tuple(e)} is not finite")
        k = _pair_index(n, e.u, e.v)
        if slots[k] is not None and slots[k] != w:
            raise DuplicateEdge(
                f"edge {tuple(e)} given twice with {slots[k]!r} and {w!r}"
            )
        slots[k] = w
    k = next((k for k in range(m) if slots[k] is None), None)
    if k is not None:
        u = next(u for u in range(n) if _pair_index(n, u, n - 1) >= k)
        v = k - _pair_index(n, u, u + 1) + u + 1
        raise MissingEdge(f"no weight for edge ({u}, {v})")
    return CompleteWeightedGraph(n, tuple(slots))  # type: ignore[arg-type]


def format_weight(x: float) -> str:
    """Shortest decimal that parses back to exactly the same float."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def serialize_graph(g: CompleteWeightedGraph) -> str:
    """Text form of a graph; ``parse_graph`` inverts it exactly."""
    lines = [f"n {g.n}"]
    for (u, v), w in g.items():
        lines.append(f"{u} {v} {format_weight(w)}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> CompleteWeightedGraph:
    """Parse the graph text format.

    Lines starting with '#' and blank lines are ignored. The first data line
    must read ``n <order>``; every following line is ``<u> <v> <weight>`` with
    integer vertex ids and a decimal weight (scientific notation allowed).
    All pairs must be present, in any order.
    """
    n: int | None = None
    entries: list[tuple[tuple[int, int], float]] = []
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise GraphSyntaxError("expected header 'n <order>'", line_no)
            try:
                n = int(tokens[1])
            except ValueError:
                raise GraphSyntaxError(f"bad order {tokens[1]!r}", line_no) from None
            continue
        if len(tokens) != 3:
            raise GraphSyntaxError("expected '<u> <v> <weight>'", line_no)
        try:
            u, v, w = int(tokens[0]), int(tokens[1]), float(tokens[2])
        except ValueError:
            raise GraphSyntaxError(f"bad edge line {line!r}", line_no) from None
        entries.append(((u, v), w))
    if n is None:
        raise GraphSyntaxError("missing 'n <order>' header", max(line_no, 1))
    return build_graph(n, entries)


def random_graph(
    n: int, seed: int, lo: float = 0.0, hi: float = 1.0
) -> CompleteWeightedGraph:
    """Seeded random graph with weights uniform in [lo, hi].

    Reproducibility contract: weights come from ``random.Random(seed)``
    (Mersenne Twister), drawn with ``uniform(lo, hi)`` for each pair in
    (u, v)-lexicographic order, so a given (n, seed, lo, hi) always yields
    the identical graph.
    """
    if n < 3:
        raise OrderTooSmall(f"graph order must be >= 3, got {n}")
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise BadRange(f"bad weight range [{lo!r}, {hi!r}]")
    rng = random.Random(seed)
    m = n * (n - 1) // 2
    return CompleteWeightedGraph(n, tuple(rng.uniform(lo, hi) for _ in range(m)))
