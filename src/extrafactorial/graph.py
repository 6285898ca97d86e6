"""Complete weighted graphs: construction, validation, file format, random generation.

A graph of order n stores one real weight per unordered vertex pair, kept in a
flat tuple ordered row-major over pairs (u, v) with u < v. This module owns
that layout: ``pairs`` yields it, ``_pair_index`` inverts it, ``edge_lines``
writes per-edge arrays in it, and ``CompleteWeightedGraph.matrix`` unfolds it
for cycle lengths. ``build_graph`` takes columns already in it as they are;
``efs.efs_all`` slices rows, for speed. Instances are immutable and safe to
share across threads; all operations are pure.

``parse_graph`` has two readers of the text format. A well-formed file is
read about 64 KiB of whole lines at a time: each chunk is split into tokens
once and its three columns are converted by strided maps. Any text that
reader cannot take as it is (a comment, a blank line, a line end other than
a line feed, a line without three tokens, a token that is not a number) goes
whole to the line loop, which is the only reader that raises
``GraphSyntaxError``. So an error's message and line number do not depend on
the reader. Both return three columns, which ``build_graph`` turns into the
graph.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations, repeat
from operator import add, eq
from typing import Iterable, Iterator, NamedTuple, Sequence

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

    def edge(self, u: int, v: int) -> EdgeKey:
        """Validate (u, v) against this graph and return the normalized key."""
        e = edge_key(u, v)
        if e.v >= self.n:
            raise VertexOutOfRange(f"vertex {e.v} not in [0, {self.n})")
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
        # row u adds its weights to acc[u] in order, then one each to the
        # columns acc[u+1:]: the same additions in the same order as the loop
        # ``acc[u] += w; acc[v] += w`` over the pairs
        n, weights = self.n, self.weights
        acc = [0.0] * n
        start = 0
        for u in range(n - 1):
            row = weights[start : start + n - 1 - u]
            start += n - 1 - u
            acc[u] = reduce(add, row, acc[u])
            acc[u + 1 :] = map(add, acc[u + 1 :], row)
        return tuple(acc)

    @cached_property
    def matrix(self) -> tuple[tuple[float, ...], ...]:
        """The weights as n rows of n, symmetric, with 0.0 on the diagonal."""
        rows = [[0.0] * self.n for _ in range(self.n)]
        for (u, v), w in zip(pairs(self.n), self.weights):
            rows[u][v] = rows[v][u] = w
        return tuple(map(tuple, rows))

    @cached_property
    def total_weight(self) -> float:
        return math.fsum(self.weights)

    def scale(self, c: float) -> CompleteWeightedGraph:
        """New graph with every weight multiplied by the finite factor c."""
        if not math.isfinite(c):
            raise NonFiniteScale(f"scale factor {c!r} is not finite")
        return CompleteWeightedGraph(self.n, tuple(w * c for w in self.weights))


def _row_major(n: int) -> tuple[Iterator[int], Iterator[int]]:
    # the u and v columns of ``pairs(n)``, lazily: a file header can set n
    # arbitrarily high, and ``pairs`` would copy ``range(n)``
    return (
        chain.from_iterable(map(repeat, range(n - 1), range(n - 1, 0, -1))),
        chain.from_iterable(map(range, range(1, n), repeat(n))),
    )


def build_graph(
    n: int, us: Sequence[int], vs: Sequence[int], ws: Sequence[float]
) -> CompleteWeightedGraph:
    """Build a graph from three columns: pair (us[i], vs[i]) has weight ws[i].

    Every pair must be given, with its vertices in either order and the pairs
    in any order. Repeating a pair with an equal value is accepted and the
    last is kept; a conflicting repeat raises DuplicateEdge. Columns that list
    the pairs in row-major order, as ``serialize_graph`` writes them, with
    finite weights are taken as they are. Any other columns go through one
    dict keyed by pair index, which reports the first error in column order.
    """
    if not len(us) == len(vs) == len(ws):
        raise ValueError(f"columns of lengths {len(us)}, {len(vs)} and {len(ws)} differ")
    if n < 3:
        raise OrderTooSmall(f"graph order must be >= 3, got {n}")
    m = n * (n - 1) // 2
    rows, cols = _row_major(n)
    isfinite = math.isfinite
    row_major = len(ws) == m and all(map(eq, us, rows)) and all(map(eq, vs, cols))
    if row_major and all(map(isfinite, ws)):
        return CompleteWeightedGraph(n, tuple(map(float, ws)))
    slots: dict[int, float] = {}
    for a, b, value in zip(us, vs, ws):
        a, b = edge_key(a, b)
        if b >= n:
            raise VertexOutOfRange(f"vertex {b} not in [0, {n})")
        w = float(value)
        if not isfinite(w):
            raise NonFiniteWeight(f"weight {value!r} for edge {(a, b)} is not finite")
        k = _pair_index(n, a, b)
        old = slots.get(k)
        if old is not None and old != w:
            raise DuplicateEdge(f"edge {(a, b)} given twice with {old!r} and {w!r}")
        slots[k] = w
    if len(slots) < m:
        # the first absent pair is at most len(slots) pairs in
        u, v = next(p for k, p in enumerate(zip(*_row_major(n))) if k not in slots)
        raise MissingEdge(f"no weight for edge ({u}, {v})")
    return CompleteWeightedGraph(n, tuple(map(slots.__getitem__, range(m))))


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


#: Characters that send a text to the line loop: a comment, the NUL that
#: marks line ends for the chunked reader, and every line boundary of
#: ``str.splitlines`` but the line feed.
_IRREGULAR = "#\x00\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
#: A blank or whitespace-only line, which also sends a text to the line loop.
_BLANK_LINE = re.compile(r"\n[^\S\n]*\n")
#: The chunked reader tokenizes whole lines about this many characters at a time.
_CHUNK_CHARS = 1 << 16

_Columns = tuple[int, list[int], list[int], list[float]]


def parse_graph(text: str) -> CompleteWeightedGraph:
    """Parse the graph text format.

    Lines starting with '#' and blank lines are ignored. The first data line
    must read ``n <order>``; every following line is ``<u> <v> <weight>`` with
    integer vertex ids and a decimal weight (scientific notation allowed).
    All pairs must be present, in any order.

    A text whose first line is the header and whose every other line holds
    three tokens, with no comment, no blank line and no line end other than
    a line feed, is read in chunks of whole lines. Any other text goes to the
    line loop, which is the only reader that reports a ``GraphSyntaxError``,
    with its line number; both give the same graph.
    """
    return build_graph(*(_read_chunks(text) or _read_lines(text)))


class _VertexIds(dict):
    """Vertex token -> ``int(token)``, converting each distinct token once."""

    def __missing__(self, token: str) -> int:
        self[token] = vertex = int(token)
        return vertex


def _read_chunks(text: str) -> _Columns | None:
    # Returns None, and never raises, on any text the line loop might read
    # differently; each chunk is tokenized once and its columns converted by
    # strided maps.
    if any(c in text for c in _IRREGULAR) or _BLANK_LINE.search(text):
        return None
    stop = len(text)
    start = text.find("\n", 0, stop) + 1 or stop
    head = text[:start].split()
    if len(head) != 2 or head[0] != "n":
        return None
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    ids = _VertexIds()
    try:
        n = int(head[1])
        while start < stop:
            end = text.find("\n", start + _CHUNK_CHARS, stop) + 1 or stop
            chunk = text[start:end]
            if not chunk.endswith("\n"):
                chunk += "\n"
            # with each line end a NUL token, three tokens on every line put
            # one NUL at every fourth place and nowhere else
            lines = chunk.count("\n")
            tokens = chunk.replace("\n", " \x00 ").split()
            if len(tokens) != 4 * lines or tokens[3::4].count("\x00") != lines:
                return None
            us += map(ids.__getitem__, tokens[0::4])
            vs += map(ids.__getitem__, tokens[1::4])
            ws += map(float, tokens[2::4])
            start = end
    except ValueError:
        return None
    return n, us, vs, ws


def _read_lines(text: str) -> _Columns:
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
    return n, us, vs, ws


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
    # uniform draws lo + (hi - lo) * r, so the width must be finite too
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)) or lo > hi:
        raise BadRange(f"bad weight range [{lo!r}, {hi!r}]")
    rng = random.Random(seed)
    m = n * (n - 1) // 2
    return CompleteWeightedGraph(n, tuple(rng.uniform(lo, hi) for _ in range(m)))
