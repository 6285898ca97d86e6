"""Independent brute-force oracles and shared sample graphs for the tests.

The oracle enumerates cycles via itertools.permutations and never touches the
package's own enumerator, so the two can check each other. Canonical
convention matches the package: vertex 0 first, second vertex smaller than
the last.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from typing import Iterable, Iterator, NamedTuple

from extrafactorial import CompleteWeightedGraph, EdgeKey, build_graph, edge_key
from extrafactorial.errors import (
    DuplicateEdge,
    GraphSyntaxError,
    MissingEdge,
    NonFiniteWeight,
    OrderTooSmall,
    VertexOutOfRange,
)
from extrafactorial.graph import _pair_index, pairs

# 4-vertex worked example (vertex letters A, B, C, D map to 0..3)
GRAPH4_WEIGHTS = {
    (0, 1): 12.0,
    (0, 2): 8.0,
    (0, 3): 7.0,
    (1, 2): 4.0,
    (1, 3): 5.0,
    (2, 3): 2.0,
}

# 5-vertex worked example (letters A, B, C, X, Y map to 0..4). The (2, 3)
# weight is fixed at 15: the unique value consistent with the six reference
# through-edge cycle lengths asserted in the tests.
GRAPH5_WEIGHTS = {
    (0, 1): 4.0,
    (0, 2): 12.0,
    (0, 3): 15.0,
    (0, 4): 0.5,
    (1, 2): 33.0,
    (1, 3): -0.4,
    (1, 4): 15.0,
    (2, 3): 15.0,
    (2, 4): 33.0,
    (3, 4): 7.0,
}


def make_graph4() -> CompleteWeightedGraph:
    return build_graph(4, *zip(*GRAPH4_WEIGHTS), list(GRAPH4_WEIGHTS.values()))


def make_graph5() -> CompleteWeightedGraph:
    return build_graph(5, *zip(*GRAPH5_WEIGHTS), list(GRAPH5_WEIGHTS.values()))


def make_zero_graph(n: int) -> CompleteWeightedGraph:
    return CompleteWeightedGraph(n, (0.0,) * (n * (n - 1) // 2))


def make_uniform_graph(n: int, w: float) -> CompleteWeightedGraph:
    return CompleteWeightedGraph(n, (w,) * (n * (n - 1) // 2))


def oracle_cycles(n: int) -> Iterator[tuple[int, ...]]:
    """All (n-1)!/2 cycles as canonical vertex tuples, via permutations."""
    for p in itertools.permutations(range(1, n)):
        if p[0] < p[-1]:
            yield (0,) + p


def cycle_edge_set(verts: tuple[int, ...]) -> set[tuple[int, int]]:
    prev = verts[-1]
    out = set()
    for v in verts:
        out.add((prev, v) if prev < v else (v, prev))
        prev = v
    return out


def oracle_length(g: CompleteWeightedGraph, verts: tuple[int, ...]) -> float:
    return math.fsum(g.weight(u, v) for u, v in cycle_edge_set(verts))


def oracle_through(n: int, e: tuple[int, int]) -> list[tuple[int, ...]]:
    key = (min(e), max(e))
    return [c for c in oracle_cycles(n) if key in cycle_edge_set(c)]


def oracle_sum_through(g: CompleteWeightedGraph, e: tuple[int, int]) -> float:
    return math.fsum(oracle_length(g, c) for c in oracle_through(g.n, e))


def oracle_mean_all(g: CompleteWeightedGraph) -> float:
    lengths = [oracle_length(g, c) for c in oracle_cycles(g.n)]
    return math.fsum(lengths) / len(lengths)


def oracle_mean_squared(g: CompleteWeightedGraph) -> float:
    lengths = [oracle_length(g, c) for c in oracle_cycles(g.n)]
    return math.fsum(l * l for l in lengths) / len(lengths)


def oracle_mean_not_through(g: CompleteWeightedGraph, e: tuple[int, int]) -> float:
    key = (min(e), max(e))
    lengths = [
        oracle_length(g, c)
        for c in oracle_cycles(g.n)
        if key not in cycle_edge_set(c)
    ]
    return math.fsum(lengths) / len(lengths)


class ExplicitBreakdown(NamedTuple):
    edge: EdgeKey
    x1: float
    x2: float
    x3: float
    efs: float


def efs_breakdown_explicit(g: CompleteWeightedGraph, e: tuple[int, int]) -> ExplicitBreakdown:
    """Reference form of ``edge_statistics``' x1/x2/x3 and efs that sums the
    edge classes directly.

    O(n^2) per edge; an independent cross-check of the package's
    strength-based closed form (the two must agree to floating precision).
    """
    key = g.edge(*e)
    ends = set(key)
    x1 = g.weight(*key)
    intersecting: list[float] = []
    disjoint: list[float] = []
    for other, w in zip(g.edges(), g.weights):
        shared = len(ends & set(other))
        if shared == 1:
            intersecting.append(w)
        elif shared == 0:
            disjoint.append(w)
    x2 = math.fsum(intersecting)
    x3 = math.fsum(disjoint)
    return ExplicitBreakdown(key, x1, x2, x3, (g.n - 2) * x1 + x2 + 2.0 * x3)


def rel_close(value: float, reference: float, tol: float = 1e-9) -> bool:
    """|value - reference| <= tol * (1 + |reference|)."""
    return abs(value - reference) <= tol * (1.0 + abs(reference))


def build_graph_slots(
    n: int, entries: Iterable[tuple[tuple[int, int], float]]
) -> CompleteWeightedGraph:
    """Reference ``build_graph``: collect the entries, then fill a table of
    pair slots and look for the first empty one.

    The package builds the same graph, or raises the same error with the same
    message, from the entries' three columns.
    """
    if n < 3:
        raise OrderTooSmall(f"graph order must be >= 3, got {n}")
    m = n * (n - 1) // 2
    entries = list(entries)
    # fewer entries than pairs must leave a pair without a weight; the table
    # is then sized by the entries, not by the order
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


def strengths_loop(g: CompleteWeightedGraph) -> tuple[float, ...]:
    """Reference ``strengths``: one ``+=`` per endpoint over the row-major pairs.

    The package adds the same weights in the same order, a row at a time, so
    the two agree bit for bit, overflow to infinities included.
    """
    acc = [0.0] * g.n
    for (u, v), w in zip(pairs(g.n), g.weights):
        acc[u] += w
        acc[v] += w
    return tuple(acc)


def read_lines(text: str) -> tuple[int, list[int], list[int], list[float]]:
    """The text format read one line at a time: the order and three columns.

    The reference for ``parse_graph``, which reads blocks of lines at once
    where it can; both must give the same columns or the same error.
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
    return n, us, vs, ws
