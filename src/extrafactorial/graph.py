"""Complete weighted graphs: construction, validation, file format, random generation.

A graph of order n stores one real weight per unordered vertex pair, kept in a
flat tuple ordered row-major over pairs (u, v) with u < v. This module owns
that layout: ``pairs`` yields it, ``_pair_index`` inverts it, ``edge_lines``
writes per-edge arrays in it, and ``CompleteWeightedGraph.matrix`` unfolds it
for cycle lengths. ``build_graph`` keeps its own cursor, as ``pairs`` would copy
``range(n)`` for any order a header claims; ``efs.efs_all`` slices rows, for
speed. Instances are immutable and safe to share across threads; all
operations are pure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
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


def pairs(n: int) -> Iterator[tuple[int, int]]:
    """The n(n-1)/2 vertex pairs (u, v), u < v, in row-major order."""
    return combinations(range(n), 2)


@dataclass(frozen=True)
class CompleteWeightedGraph:
    """Order-n complete graph with a finite real weight on every pair."""

    n: int
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.n < 3:
            raise OrderTooSmall(f"graph order must be >= 3, got {self.n}")
        m = self.edge_count
        if len(self.weights) != m:
            raise MissingEdge(f"order {self.n} needs {m} weights, got {len(self.weights)}")
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
        return map(EdgeKey._make, pairs(self.n))

    def items(self) -> Iterator[tuple[EdgeKey, float]]:
        return zip(self.edges(), self.weights)

    @cached_property
    def strengths(self) -> tuple[float, ...]:
        """Per-vertex sum of the n-1 incident weights."""
        acc = [0.0] * self.n
        for (u, v), w in zip(pairs(self.n), self.weights):
            acc[u] += w
            acc[v] += w
        return tuple(acc)

    @cached_property
    def matrix(self) -> tuple[tuple[float, ...], ...]:
        """The weights as n rows of n, symmetric, with 0.0 on the diagonal."""
        rows = [[0.0] * self.n for _ in range(self.n)]
        for (u, v), w in zip(pairs(self.n), self.weights):
            rows[u][v] = rows[v][u] = w
        return tuple(map(tuple, rows))

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
    DuplicateEdge. Entries in row-major pair order, as ``serialize_graph``
    writes them, take the fast path; any order gives the same graph.
    """
    if n < 3:
        raise OrderTooSmall(f"graph order must be >= 3, got {n}")
    m = n * (n - 1) // 2
    # One pass. `weights` is the filled prefix of the row-major pairs and
    # (u, v) the pair that extends it: an entry for that pair is appended
    # without normalizing, and any other waits in `pending`, keyed by pair
    # index, until the prefix reaches it. Nothing is sized by n, which a file
    # header can set arbitrarily high.
    weights: list[float] = []
    pending: dict[int, float] = {}
    u, v = 0, 1
    for raw, value in entries:
        a, b = raw
        if a == u and b == v:
            k = len(weights)
        else:
            a, b = edge_key(a, b)
            if b >= n:
                raise VertexOutOfRange(f"vertex {b} not in [0, {n})")
            k = _pair_index(n, a, b)
        w = float(value)
        if not math.isfinite(w):
            raise NonFiniteWeight(f"weight {value!r} for edge {(a, b)} is not finite")
        if k == len(weights):
            weights.append(w)
            while True:
                v += 1
                if v == n:
                    u += 1
                    # past the last pair no entry may extend the prefix
                    v = u + 1 if u < n - 1 else None
                if len(weights) not in pending:
                    break
                weights.append(pending.pop(len(weights)))
        else:
            old = weights[k] if k < len(weights) else pending.get(k)
            if old is not None and old != w:
                raise DuplicateEdge(f"edge {(a, b)} given twice with {old!r} and {w!r}")
            if k < len(weights):
                weights[k] = w
            else:
                pending[k] = w
    if len(weights) < m:
        raise MissingEdge(f"no weight for edge ({u}, {v})")
    return CompleteWeightedGraph(n, tuple(weights))


def format_weight(x: float) -> str:
    """Shortest decimal that parses back to exactly the same float."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def edge_lines(n: int, values: Iterable[float], sep: str) -> list[str]:
    """``u{sep}v{sep}value`` for each value and its pair of ``pairs(n)``.

    A finite non-integral float prints as its ``repr``; any other value, ints
    included, goes through ``format_weight``, which raises on NaN and infinities.
    """
    isfinite = math.isfinite
    return [
        f"{u}{sep}{v}{sep}{x!r}"
        if type(x) is float and isfinite(x) and not x.is_integer()
        else f"{u}{sep}{v}{sep}{format_weight(x)}"
        for (u, v), x in zip(pairs(n), values)
    ]


def serialize_graph(g: CompleteWeightedGraph) -> str:
    """Text form of a graph; ``parse_graph`` inverts it exactly."""
    return "\n".join([f"n {g.n}", *edge_lines(g.n, g.weights, " "), ""])


def parse_graph(text: str) -> CompleteWeightedGraph:
    """Parse the graph text format.

    Lines starting with '#' and blank lines are ignored. The first data line
    must read ``n <order>``; every following line is ``<u> <v> <weight>`` with
    integer vertex ids and a decimal weight (scientific notation allowed).
    All pairs must be present, in any order.
    """
    n: int | None = None
    # three flat columns: their ints and floats are not tracked by the cyclic
    # garbage collector, as a tuple per line would be
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
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
            us.append(int(tokens[0]))
            vs.append(int(tokens[1]))
            ws.append(float(tokens[2]))
        except ValueError:
            raise GraphSyntaxError(f"bad edge line {line!r}", line_no) from None
    if n is None:
        raise GraphSyntaxError("missing 'n <order>' header", max(line_no, 1))
    return build_graph(n, zip(zip(us, vs), ws))


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
