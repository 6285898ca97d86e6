"""Complete weighted graphs: construction, validation, file format, random generation.

A graph of order n stores one real weight per unordered vertex pair, kept in a
flat tuple ordered row-major over pairs (u, v) with u < v. This module owns
that layout: ``pairs`` yields it, ``_row_major`` gives its two vertex columns,
``_pair_index`` inverts it, ``CompleteWeightedGraph.rows`` gives its rows,
which ``strengths`` and ``efs.efs_all`` read, and
``CompleteWeightedGraph.matrix`` unfolds it for cycle lengths. ``build_graph``
takes columns already in it as they are, ``serialize_graph`` writes its
weight lines with ``format_weight``, and ``profile.export_profile_csv`` finds
the vertices of an edge index in ``_row_major``'s columns. Instances are
immutable and safe to share across threads; all operations are pure.

``parse_graph`` reads the text format in blocks of whole lines. A block of
lines that each hold three numbers, as ``serialize_graph`` writes them, is
split into tokens at once and its three columns are converted by strided
maps. Any other block goes through the line loop, which is the only source
of ``GraphSyntaxError``, so an error's message and line number do not depend
on where the blocks end. ``build_graph`` turns the columns into the graph.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations, repeat
from operator import add, eq
from typing import Iterator, NamedTuple, Sequence

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

    def rows(self) -> Iterator[tuple[float, ...]]:
        """The n-1 rows of ``weights``: row u holds the pairs (u, v), v > u."""
        weights = self.weights
        start = 0
        for length in range(self.n - 1, 0, -1):
            yield weights[start : start + length]
            start += length

    @cached_property
    def strengths(self) -> tuple[float, ...]:
        """Per-vertex sum of the n-1 incident weights."""
        # row u adds its weights to acc[u] in order, then one each to the
        # columns acc[u+1:]: the same additions in the same order as the loop
        # ``acc[u] += w; acc[v] += w`` over the pairs
        acc = [0.0] * self.n
        for u, row in enumerate(self.rows()):
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
    if x == 0 and math.copysign(1.0, x) < 0:
        return "-0.0"  # int(-0.0) prints as "0", which parses back as +0.0
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def serialize_graph(g: CompleteWeightedGraph) -> str:
    """Text form of a graph; ``parse_graph`` inverts it exactly."""
    lines = (f"{u} {v} {format_weight(w)}" for (u, v), w in zip(pairs(g.n), g.weights))
    return "\n".join([f"n {g.n}", *lines, ""])


#: ``parse_graph`` cuts a text into blocks of whole lines about this many
#: characters long. A block over twice as long holds a line that long, as a
#: text with no line feed does, and is read line by line: split into tokens
#: at once, it would take several times the memory of the line loop.
_CHUNK_CHARS = 1 << 16


def parse_graph(text: str) -> CompleteWeightedGraph:
    """Parse the graph text format.

    Lines starting with '#' and blank lines are ignored. The first data line
    must read ``n <order>``; every following line is ``<u> <v> <weight>`` with
    integer vertex ids and a decimal weight (scientific notation allowed).
    All pairs must be present, in any order.

    The text is read in blocks of about 64 KiB of whole lines. A block after
    the header whose every line holds three numbers is split into tokens at
    once; any other block, such as one with the header, a comment, a blank
    line or a bad line, is read line by line, which is the only path that
    reports a ``GraphSyntaxError``, with its line number.
    """
    n: int | None = None
    # three flat columns: their ints and floats are not tracked by the cyclic
    # garbage collector, as a tuple per line would be
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    ids = _VertexIds()
    line_no = start = 0
    stop = len(text)
    while start < stop:
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or stop
        # a block ends after a line feed, so its lines are those that
        # ``text.splitlines()`` gives for it
        lines = text[start:end].splitlines()
        short = end - start <= 2 * _CHUNK_CHARS
        start = end
        if n is not None and short and _read_block(lines, ids, us, vs, ws):
            line_no += len(lines)
            continue
        for raw in lines:
            line_no += 1
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
    return build_graph(n, us, vs, ws)


class _VertexIds(dict):
    """Vertex token -> ``int(token)``, converting each distinct token once."""

    def __missing__(self, token: str) -> int:
        self[token] = vertex = int(token)
        return vertex


def _read_block(
    lines: list[str], ids: _VertexIds, us: list[int], vs: list[int], ws: list[float]
) -> bool:
    """Append the columns of lines that each hold three numbers.

    Returns False, with nothing appended, unless every line holds exactly
    three tokens that ``int``, ``int`` and ``float`` convert. The line loop
    reads such lines the same way, and a comment fails ``int``.
    """
    # with a NUL token after each line, 4 * count tokens put a NUL at every
    # fourth place, and so three tokens on every line, once int and float
    # convert all the others (a NUL fails both). Counting the NULs at the
    # fourth places turns most other blocks down before any conversion.
    tokens = (" \x00 ".join(lines) + " \x00").split()
    count = len(lines)
    if len(tokens) != 4 * count or tokens[3::4].count("\x00") != count:
        return False
    try:
        block_us = list(map(ids.__getitem__, tokens[0::4]))
        block_vs = list(map(ids.__getitem__, tokens[1::4]))
        block_ws = list(map(float, tokens[2::4]))
    except ValueError:
        return False
    us += block_us
    vs += block_vs
    ws += block_ws
    return True


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
