"""Complete weighted graphs: construction, validation, file format, random generation.

A graph of order n stores one real weight per unordered vertex pair, kept as
doubles in one flat array ordered row-major over pairs (u, v) with u < v and
shown as a read-only ``memoryview``; the per-edge results are kept the same
way. This module owns that layout: ``pairs`` yields it, ``_row_major`` gives
its two vertex columns, ``_pair_index`` inverts it,
``CompleteWeightedGraph.rows`` gives its rows, which ``efs.efs_all`` and
``serialize_graph`` read, and ``CompleteWeightedGraph.matrix`` unfolds it for
cycle lengths. ``build_graph`` takes columns already in it as they are,
``serialize_graph`` writes its weight lines with ``format_weight``, and
``profile.export_profile_csv`` finds the vertices of an edge index in
``_row_major``'s columns. Instances are immutable and safe to share across
threads; all operations are pure.

``parse_graph`` reads the text format in blocks of whole lines: ``_blocks``
cuts a str into them, and a caller that reads a file hands them over as it
reads them. A block of lines that each hold three numbers, as
``serialize_graph`` writes them, is split into tokens at once and its three
columns are converted by strided maps. Any other block goes through the
line loop, which is the only source of ``GraphSyntaxError``, so an error's
message and line number do not depend on where the blocks end. ``build_graph`` turns the columns into the graph.
"""

from __future__ import annotations

import math
import random
from array import array
from functools import cached_property
from itertools import chain, combinations, repeat
from operator import eq, index
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BadRange,
    DuplicateEdge,
    GraphSyntaxError,
    MissingEdge,
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

    Raises TypeError for an id that is not an ``int``, SelfLoop if the
    endpoints coincide and VertexOutOfRange for negative ids. Upper-bound
    checks happen against a concrete graph.
    """
    if not (isinstance(u, int) and isinstance(v, int)):
        raise TypeError(f"vertex ids must be integers, got ({u!r}, {v!r})")
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


class CompleteWeightedGraph:
    """Order-n complete graph with a finite real weight on every pair.

    The constructor takes any iterable of reals and copies it, as doubles,
    into a private array; ``weights`` is a read-only view of that array, so
    the cached ``strengths``, ``matrix`` and ``total_weight`` stay valid.
    It is the one check that every weight is finite: it raises
    NonFiniteWeight naming the first pair, in row-major order, that is not.
    Graphs compare equal by order and weights. The view cannot be hashed
    or pickled, and so neither can a graph.
    """

    n: int
    weights: memoryview

    def __init__(self, n: int, weights: Iterable[float]):
        n = index(n)
        if n < 3:
            raise OrderTooSmall(f"graph order must be >= 3, got {n}")
        weights = memoryview(array("d", weights)).toreadonly()
        m = n * (n - 1) // 2
        if len(weights) != m:
            raise MissingEdge(f"order {n} needs {m} weights, got {len(weights)}")
        isfinite = math.isfinite
        if not all(map(isfinite, weights)):
            e, w = next(p for p in zip(pairs(n), weights) if not isfinite(p[1]))
            raise NonFiniteWeight(f"weight {w!r} for edge {e} is not finite")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.weights) == (other.n, other.weights)
        return NotImplemented

    def __hash__(self) -> int:
        # raises ValueError: a view of doubles cannot be hashed
        return hash((self.n, self.weights))

    def __repr__(self) -> str:
        # a memoryview's own repr shows only its address
        return f"CompleteWeightedGraph(n={self.n}, weights={self.weights.tolist()})"

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

    def rows(self) -> Iterator[memoryview]:
        """The n-1 rows of ``weights``: row u holds the pairs (u, v), v > u."""
        weights = self.weights
        start = 0
        for length in range(self.n - 1, 0, -1):
            yield weights[start : start + length]
            start += length

    @cached_property
    def strengths(self) -> tuple[float, ...]:
        """Per-vertex sum of the n-1 incident weights."""
        acc = [0.0] * self.n
        for u, v, w in zip(*_row_major(self.n), self.weights):
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

    @cached_property
    def total_weight(self) -> float:
        return math.fsum(self.weights)


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
    the pairs in row-major order, as ``serialize_graph`` writes them, are
    taken as they are, and the constructor names the first non-finite
    weight. Any other columns go through one dict keyed by pair index, which
    reports the first error in column order.
    """
    if not len(us) == len(vs) == len(ws):
        raise ValueError(f"columns of lengths {len(us)}, {len(vs)} and {len(ws)} differ")
    if n < 3:
        raise OrderTooSmall(f"graph order must be >= 3, got {n}")
    m = n * (n - 1) // 2
    rows, cols = _row_major(n)
    if len(ws) == m and all(map(eq, us, rows)) and all(map(eq, vs, cols)):
        return CompleteWeightedGraph(n, ws)
    isfinite = math.isfinite
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
    return CompleteWeightedGraph(n, map(slots.__getitem__, range(m)))


def format_weight(x: float) -> str:
    """Shortest decimal that parses back to exactly the same float."""
    if x == 0 and math.copysign(1.0, x) < 0:
        return "-0.0"  # int(-0.0) prints as "0", which parses back as +0.0
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def serialize_graph(g: CompleteWeightedGraph) -> str:
    """Text form of a graph; ``parse_graph`` inverts it exactly."""
    # one string per row, not per pair: the strings of a row's lines are
    # freed once they are joined
    rows = (
        "\n".join([f"{u} {v} {format_weight(w)}" for v, w in enumerate(row, u + 1)])
        for u, row in enumerate(g.rows())
    )
    return "\n".join([f"n {g.n}", *rows, ""])


#: ``parse_graph`` cuts a text into blocks of whole lines about this many
#: characters long, and ``cli`` reads a file in blocks of about this many
#: bytes. A block over twice as long holds a line that long, as a text with
#: no line feed does, and is read line by line: split into tokens at once,
#: it would take several times the memory of the line loop.
_CHUNK_CHARS = 1 << 16


def _blocks(text: str) -> Iterator[str]:
    # ``text`` as blocks that each end after the first line feed at least
    # ``_CHUNK_CHARS`` characters in, so the lines that ``splitlines()``
    # gives for the blocks are those it gives for the text
    start, stop = 0, len(text)
    while start < stop:
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or stop
        yield text[start:end]
        start = end


def parse_graph(text: str | Iterable[str]) -> CompleteWeightedGraph:
    """Parse the graph text format.

    Lines starting with '#' and blank lines are ignored. The first data line
    must read ``n <order>``; every following line is ``<u> <v> <weight>`` with
    integer vertex ids and a decimal weight (scientific notation allowed).
    All pairs must be present, in any order.

    ``text`` is the whole text as one str, or an iterable of its blocks, each
    made of whole lines: every block but the last ends with a line break.
    The iterable is read once, block by block, so a file read in blocks is
    never held whole. A str is cut into blocks of about 64 KiB of whole
    lines. A block after the header whose every line holds three numbers is
    split into tokens at once; any other block, such as one with the header,
    a comment, a blank line or a bad line, is read line by line, which is
    the only path that reports a ``GraphSyntaxError``, with its line number.
    """
    n: int | None = None
    # three flat columns: their ints are not tracked by the cyclic garbage
    # collector, as a tuple per line would be, and the weights are unboxed
    # doubles, 8 bytes each
    us: list[int] = []
    vs: list[int] = []
    ws = array("d")
    ids = _VertexIds()
    line_no = 0
    for block in _blocks(text) if isinstance(text, str) else text:
        lines = block.splitlines()
        short = len(block) <= 2 * _CHUNK_CHARS
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
    lines: list[str], ids: _VertexIds, us: list[int], vs: list[int], ws: array
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
    ws.fromlist(block_ws)
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
    return CompleteWeightedGraph(n, (rng.uniform(lo, hi) for _ in range(m)))
