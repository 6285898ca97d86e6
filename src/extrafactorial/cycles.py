"""Lazy enumeration and exact counting of Hamiltonian cycles of complete graphs.

Cycles are produced by repeated vertex insertion: a cycle of order L yields L
children of order L+1 by breaking each edge in turn and relinking its two
endpoints through the new vertex. Seeding with the triangle [0, 1, 2] and
inserting the remaining vertices in ascending order visits every dihedral
equivalence class exactly once, because deleting the last-inserted vertex
recovers a unique parent. Each child is built starting at its smallest vertex
(the parent's front vertex, or the new vertex when that is smaller), so only
its reflection can need fixing. Constrained variants protect one or two edges
from breaking, which restricts the output to the cycles traversing them; they
seed with every cycle on the protected edges' vertices (topped up to three)
that traverses all of them, built canonical and ascending: the smallest vertex,
then each lexicographic order of the rest that starts below where it ends.

A stream is a pipeline of lazy levels, one per inserted vertex: each level
maps the cycles of the level before to their children and chains them, so the
cycles come depth-first in parent-edge order while at most one parent's
children per level are held. Memory stays O(n^2) regardless of the factorial
number of cycles produced.

A ``HamiltonianCycle`` is a tuple of its canonical vertices, so it compares,
hashes, orders and pickles as that tuple does, and equals the plain tuple.
The stream wraps its tuples with ``tuple.__new__``, which skips the
constructor's checks: the seeds and ``_children`` already make every tuple a
canonical permutation, and re-checking its length, distinctness and rotation
would cost each of the factorially many cycles about as much again as making
its tuple. The public constructor keeps every check.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache, partial
from itertools import chain, permutations
from typing import Iterable, Iterator

from .errors import (
    EnumerationCapExceeded,
    NotAPermutation,
    NotCanonical,
    OrderMismatch,
    OrderTooSmall,
    SameEdge,
    TooShort,
    VertexOutOfRange,
)
from .graph import CompleteWeightedGraph, EdgeKey, edge_key

#: Orders above this raise EnumerationCapExceeded unless overridden
#: (11!/2 is about 2.0e7 cycles; counting functions are never capped).
DEFAULT_ENUMERATION_CAP = 12


class HamiltonianCycle(tuple):
    """One closed walk over distinct vertices: the tuple of them in canonical form.

    Canonical form: the smallest vertex first and the second vertex smaller
    than the last, which fixes rotation and reflection so each of the
    (n-1)!/2 cycles of a complete graph has exactly one representation.
    The constructor takes any iterable of non-negative vertex ids. A cycle
    equals, hashes and orders as the tuple of its vertices; its ``str`` is
    the closed walk.
    """

    __slots__ = ()

    def __new__(cls, vertices: Iterable[int]):
        v = tuple(vertices)
        if len(v) < 3:
            raise TooShort(f"cycles need at least 3 vertices, got {len(v)}")
        if len(set(v)) != len(v):
            raise NotAPermutation(f"repeated vertex in {v}")
        if v[0] != min(v) or v[1] > v[-1]:
            raise NotCanonical(f"{v} is not in canonical rotation/reflection")
        if v[0] < 0:
            raise VertexOutOfRange(f"vertex ids must be non-negative, got {v}")
        return tuple.__new__(cls, v)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"HamiltonianCycle(vertices={tuple(self)!r})"

    def edges(self) -> Iterator[EdgeKey]:
        prev = self[-1]
        for x in self:
            yield EdgeKey(prev, x) if prev < x else EdgeKey(x, prev)
            prev = x

    def contains_edge(self, u: int, v: int) -> bool:
        if u == v or u < 0 or v < 0:
            edge_key(u, v)  # raises SelfLoop or VertexOutOfRange
        # membership is symmetric, so the endpoints need no ordering: find u,
        # then look for v on either side of it
        try:
            i = self.index(u)
        except ValueError:
            return False
        return v == self[i - 1] or v == self[(i + 1) % len(self)]

    def __str__(self) -> str:
        # closed-walk rendering, e.g. "0-2-1-3-0"
        return _walk_format(len(self)) % (self + self[:1])


@lru_cache(maxsize=32)
def _walk_format(order: int) -> str:
    # "%s-...-%s", one field per vertex of a closed walk over `order`
    # vertices: a single %-format per cycle, which applies str() to each
    # vertex as a join would
    return "-".join(["%s"] * (order + 1))


def _children(
    verts: tuple[int, ...], x: int, protected: frozenset[EdgeKey]
) -> list[tuple[int, ...]]:
    # the canonical cycles made by inserting x into each edge of canonical
    # `verts` in turn, skipping the protected edges
    front = x < verts[0]  # x is the new smallest vertex: start each child at it
    raw = (
        (x,) + verts[i + 1 :] + verts[: i + 1] if front
        else verts[: i + 1] + (x,) + verts[i + 1 :]
        for i, (a, b) in enumerate(zip(verts, verts[1:] + verts[:1]))
        if not protected or ((a, b) if a < b else (b, a)) not in protected
    )
    # each child starts at its smallest vertex: only the reflection can change
    return [c if c[1] < c[-1] else c[:1] + c[:0:-1] for c in raw]


def _stream(
    n: int, through: tuple[tuple[int, int], ...], max_order: int | None
) -> Iterator[HamiltonianCycle]:
    # the one checked entry to every stream: each edge, the pair's
    # distinctness, the largest vertex, the order, then the cap
    keys = [edge_key(*e) for e in through]
    if len(keys) == 2:
        edge_pair_kind(*keys)  # raises SameEdge
    if keys and (top := max(k.v for k in keys)) >= n:
        raise VertexOutOfRange(f"vertex {top} not in [0, {n})")
    if n < 3:
        raise OrderTooSmall(f"enumeration needs order >= 3, got {n}")
    cap = DEFAULT_ENUMERATION_CAP if max_order is None else max_order
    if n > cap:
        raise EnumerationCapExceeded(
            f"order {n} exceeds the enumeration cap {cap}; "
            f"raise max_order to override"
        )
    # seeds: each cycle on the protected edges' vertices, topped up to three
    # with the smallest free vertices, that traverses them all, canonical and
    # ascending as made; then one lazy level per remaining vertex, ascending
    protected = frozenset(keys)
    used = {v for e in protected for v in e}
    free = [v for v in range(n) if v not in used]
    top_up = max(0, 3 - len(used))
    first, *rest = sorted([*used, *free[:top_up]])
    seeds = ((first, *p) for p in permutations(rest) if p[0] < p[-1])
    level: Iterable[tuple[int, ...]] = [
        c for c in seeds if protected.issubset(HamiltonianCycle(c).edges())
    ]
    for x in free[top_up:]:
        level = chain.from_iterable(map(partial(_children, x=x, protected=protected), level))
    # a C-level wrap of each canonical tuple, without the constructor's checks
    return map(partial(tuple.__new__, HamiltonianCycle), level)


def enumerate_all(n: int, *, max_order: int | None = None) -> Iterator[HamiltonianCycle]:
    """All (n-1)!/2 Hamiltonian cycles of the order-n complete graph.

    Deterministic: seeded with the triangle [0, 1, 2], vertices 3..n-1
    inserted in ascending order, children visited in parent-edge order.
    """
    return _stream(n, (), max_order)


def enumerate_through_edge(
    n: int, e: tuple[int, int], *, max_order: int | None = None
) -> Iterator[HamiltonianCycle]:
    """The (n-2)! cycles of order n that traverse edge `e`.

    Seeds with the triangle on e's endpoints plus the smallest other vertex
    and inserts the rest in ascending order, never breaking `e`.
    """
    return _stream(n, (e,), max_order)


class EdgePairKind(Enum):
    """Whether two distinct edges share a vertex."""

    ADJACENT = "adjacent"
    NON_ADJACENT = "non-adjacent"


def edge_pair_kind(e1: tuple[int, int], e2: tuple[int, int]) -> EdgePairKind:
    """Classify a pair of distinct edges; raises SameEdge if they coincide."""
    a, b = edge_key(*e1), edge_key(*e2)
    if a == b:
        raise SameEdge(f"edge pair must differ, got {tuple(a)} twice")
    return EdgePairKind.ADJACENT if set(a) & set(b) else EdgePairKind.NON_ADJACENT


def enumerate_through_pair(
    n: int,
    e1: tuple[int, int],
    e2: tuple[int, int],
    *,
    max_order: int | None = None,
) -> Iterator[HamiltonianCycle]:
    """The cycles of order n traversing both edges.

    Yields (n-3)! cycles for an adjacent pair and 2(n-3)! for a non-adjacent
    one (``edge_pair_kind`` tells which). Adjacent pairs seed with the
    triangle on their three vertices; non-adjacent pairs seed with the two
    4-cycles that traverse both edges. Neither protected edge ever breaks.
    """
    return _stream(n, (e1, e2), max_order)


def _forest_count(n: int, k: int, c: int, needs: str) -> int:
    # the 2^(c-1)·(n-k-1)! Hamiltonian cycles of K_n that contain a fixed
    # linear forest of k edges in c paths (c = 0 for no edges), defined from
    # order max(3, k + c); `needs` opens the error message
    minimum = max(3, k + c)
    if n < minimum:
        raise OrderTooSmall(f"{needs} order >= {minimum}, got {n}")
    return math.factorial(n - k - 1) << c >> 1


def count_all(n: int) -> int:
    """(n-1)!/2, the number of Hamiltonian cycles of the order-n complete graph."""
    return _forest_count(n, 0, 0, "counting needs")


def count_through_edge(n: int) -> int:
    """(n-2)!, the number of order-n cycles traversing any fixed edge."""
    return _forest_count(n, 1, 1, "counting needs")


def count_through_pair(n: int, kind: EdgePairKind) -> int:
    """Cycles through an edge pair: (n-3)! if adjacent, 2(n-3)! otherwise."""
    paths = 1 if kind is EdgePairKind.ADJACENT else 2
    return _forest_count(n, 2, paths, f"{kind.value} pairs need")


def cycle_length(g: CompleteWeightedGraph, cycle: HamiltonianCycle) -> float:
    """Sum of the n edge weights along the closed walk.

    Raises OverflowError when the sum leaves the double range: the weights
    are finite, so a non-finite length is an overflow, not a value. Raises
    VertexOutOfRange for a vertex not below the graph's order.
    """
    if len(cycle) != g.n:
        raise OrderMismatch(f"cycle order {len(cycle)} != graph order {g.n}")
    rows = g.matrix
    total = 0.0
    prev = cycle[-1]
    try:
        for v in cycle:
            total += rows[prev][v]
            prev = v
    except IndexError:
        # the constructor rejects negative ids, so the larger one is past n
        raise VertexOutOfRange(f"vertex {max(prev, v)} not in [0, {g.n})") from None
    if not math.isfinite(total):
        raise OverflowError(f"length of cycle {cycle} overflows the double range")
    return total


def brute_force_sum_through(
    g: CompleteWeightedGraph, e: tuple[int, int], *, max_order: int | None = None
) -> float:
    """Summed lengths of all (n-2)! cycles through `e`, by enumeration.

    This is the expensive quantity the closed form replaces; it serves as
    the verification oracle for the statistics module.
    """
    return math.fsum(
        cycle_length(g, c)
        for c in enumerate_through_edge(g.n, e, max_order=max_order)
    )
