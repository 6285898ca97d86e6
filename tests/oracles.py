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

from extrafactorial import (
    CompleteWeightedGraph,
    EdgeKey,
    HamiltonianCycle,
    build_graph,
    edge_key,
)
from extrafactorial.errors import (
    DuplicateEdge,
    GraphSyntaxError,
    MissingEdge,
    NonFiniteWeight,
    NotAPermutation,
    OrderTooSmall,
    TooShort,
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


def scale_graph(g: CompleteWeightedGraph, c: float) -> CompleteWeightedGraph:
    """New graph with every weight multiplied by c.

    The constructor raises NonFiniteWeight, naming the first pair, when a
    product is not finite: for every pair when c is infinite or NaN, and for
    any pair whose product overflows.
    """
    return CompleteWeightedGraph(g.n, (w * c for w in g.weights))


def canonicalize(raw: Iterable[int]) -> HamiltonianCycle:
    """The package's cycle for the closed walk visiting `raw` in order.

    `raw` must be a permutation of 0..len-1 with at least three entries. The
    walk is rotated to start at 0 and then read in whichever direction puts
    the smaller neighbour of 0 second.
    """
    seq = tuple(raw)
    if len(seq) < 3:
        raise TooShort(f"cycles need at least 3 vertices, got {len(seq)}")
    if sorted(seq) != list(range(len(seq))):
        raise NotAPermutation(f"{seq} is not a permutation of 0..{len(seq) - 1}")
    i = seq.index(0)
    rot = seq[i:] + seq[:i]
    return HamiltonianCycle(min(rot, rot[:1] + rot[:0:-1]))


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


class LengthSums(NamedTuple):
    """Exact sums over a set of cycles: their count, Σ L and Σ L²."""

    count: int
    total: int
    squares: int


def _extend(t: tuple[int, int, int], w: int) -> tuple[int, int, int]:
    # the (count, Σ L, Σ L²) of walks `t` made one edge of weight w longer
    c, s, q = t
    return c, s + w * c, q + 2 * w * s + w * w * c


def subset_sums(g: CompleteWeightedGraph) -> dict[tuple[int, int], LengthSums]:
    """Exact (count, Σ L, Σ L²) over the Hamiltonian cycles through each edge.

    The recurrence of Bellman (1962) and Held and Karp (1962), with sums in
    place of minima, in O(2^n n^2) and without listing a cycle. The weights
    must be integers. Rooted at r = n-1: ``paths[S][v]`` sums the paths that
    leave r, visit exactly the vertices of the bit set S and end at v. A cycle
    through (b, r) is a path through every other vertex that ends at b and
    closes on r. A cycle through (a, b), both not r, reads r -> S -> a - b ->
    T -> r, with S ending at a and T, the rest, read back from r ending at b;
    the split with a on the S side counts each cycle once.
    """
    if not all(x.is_integer() for x in g.weights):
        raise ValueError("subset_sums needs integer weights")
    w = [list(map(int, row)) for row in g.matrix]
    k = root = g.n - 1
    full = (1 << k) - 1
    paths: list[dict[int, tuple[int, int, int]]] = [{} for _ in range(1 << k)]
    for v in range(k):
        paths[1 << v][v] = _extend((1, 0, 0), w[root][v])
    # a set's index exceeds each of its subsets', so each is complete when read
    for S in range(1, full):
        for v, t in paths[S].items():
            for x in range(k):
                if not S >> x & 1:
                    c, s, q = _extend(t, w[v][x])
                    old = paths[S | 1 << x].get(x, (0, 0, 0))
                    paths[S | 1 << x][x] = (old[0] + c, old[1] + s, old[2] + q)
    sums = {(b, root): LengthSums(*_extend(paths[full][b], w[b][root])) for b in range(k)}
    for a, b in itertools.combinations(range(k), 2):
        wab = w[a][b]
        c = s = q = 0
        for S in range(1, full):
            if S >> a & 1 and not S >> b & 1:
                c1, s1, q1 = paths[S][a]
                c2, s2, q2 = paths[full ^ S][b]
                # each cycle's length is L1 + wab + L2
                c += c1 * c2
                s += s1 * c2 + c1 * s2 + wab * c1 * c2
                q += (q1 * c2 + c1 * q2 + 2 * s1 * s2 + wab * wab * c1 * c2
                      + 2 * wab * (s1 * c2 + c1 * s2))
        sums[(a, b)] = LengthSums(c, s, q)
    return sums


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
