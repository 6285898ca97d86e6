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
that traverses all of them.

A stream is a pipeline of lazy levels, one per inserted vertex: each level
maps the cycles of the level before to their children and chains them, so the
cycles come depth-first in parent-edge order while at most one parent's
children per level are held. Memory stays O(n^2) regardless of the factorial
number of cycles produced.

A ``HamiltonianCycle`` is a tuple of its canonical vertices, so it compares,
hashes, orders and pickles as that tuple does, and equals the plain tuple.
The stream wraps its tuples with ``tuple.__new__``, which skips the
constructor's checks: ``_children`` and the seeds' ``_canonical`` already make
every tuple a canonical permutation, and re-checking its length, distinctness
and rotation would cost each of the factorially many cycles about as much
again as making its tuple. The public constructor keeps every check.
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


def _canonical(seq: tuple[int, ...]) -> tuple[int, ...]:
    # rotate the smallest vertex to the front, then orient so the second
    # vertex is smaller than the last
    i = seq.index(min(seq))
    rot = seq[i:] + seq[:i]
    if rot[1] > rot[-1]:
        rot = (rot[0],) + rot[:0:-1]
    return rot


class HamiltonianCycle(tuple):
    """One closed walk over distinct vertices: the tuple of them in canonical form.

    Canonical form: the smallest vertex first and the second vertex smaller
    than the last, which fixes rotation and reflection so each of the
    (n-1)!/2 cycles of a complete graph has exactly one representation.
    The constructor takes any iterable of vertices. A cycle equals, hashes
    and orders as the tuple of its vertices; its ``str`` is the closed walk.
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


def _check_order(n: int, max_order: int | None) -> None:
    if n < 3:
        raise OrderTooSmall(f"enumeration needs order >= 3, got {n}")
    cap = DEFAULT_ENUMERATION_CAP if max_order is None else max_order
    if n > cap:
        raise EnumerationCapExceeded(
            f"order {n} exceeds the enumeration cap {cap}; "
            f"raise max_order to override"
        )


def _stream(n: int, protected: frozenset[EdgeKey]) -> Iterator[HamiltonianCycle]:
    # seeds: every canonical cycle on the protected edges' vertices, topped up
    # to three with the smallest free vertices, that traverses them all; then
    # one lazy level per remaining vertex, inserted in ascending order
    used = sorted({v for e in protected for v in e})
    free = [v for v in range(n) if v not in used]
    top_up = max(0, 3 - len(used))
    on_seeds = used + free[:top_up]
    level: Iterable[tuple[int, ...]] = sorted(
        {
            c
            for c in map(_canonical, permutations(on_seeds))
            if protected.issubset(HamiltonianCycle(c).edges())
        }
    )
    for x in free[top_up:]:
        level = chain.from_iterable(map(partial(_children, x=x, protected=protected), level))
    # a C-level wrap of each canonical tuple, without the constructor's checks
    return map(partial(tuple.__new__, HamiltonianCycle), level)


def enumerate_all(n: int, *, max_order: int | None = None) -> Iterator[HamiltonianCycle]:
    """All (n-1)!/2 Hamiltonian cycles of the order-n complete graph.

    Deterministic: seeded with the triangle [0, 1, 2], vertices 3..n-1
    inserted in ascending order, children visited in parent-edge order.
    """
    _check_order(n, max_order)
    return _stream(n, frozenset())


def enumerate_through_edge(
    n: int, e: tuple[int, int], *, max_order: int | None = None
) -> Iterator[HamiltonianCycle]:
    """The (n-2)! cycles of order n that traverse edge `e`.

    Seeds with the triangle on e's endpoints plus the smallest other vertex
    and inserts the rest in ascending order, never breaking `e`.
    """
    key = edge_key(*e)
    if key.v >= n:
        raise VertexOutOfRange(f"vertex {key.v} not in [0, {n})")
    _check_order(n, max_order)
    return _stream(n, frozenset((key,)))


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
) -> tuple[EdgePairKind, Iterator[HamiltonianCycle]]:
    """The cycles of order n traversing both edges, with the pair's kind.

    Yields (n-3)! cycles for an adjacent pair and 2(n-3)! for a non-adjacent
    one. Adjacent pairs seed with the triangle on their three vertices;
    non-adjacent pairs seed with the two 4-cycles that traverse both edges.
    Neither protected edge ever breaks.
    """
    a, b = edge_key(*e1), edge_key(*e2)
    kind = edge_pair_kind(a, b)
    if max(a.v, b.v) >= n:
        raise VertexOutOfRange(f"vertex {max(a.v, b.v)} not in [0, {n})")
    _check_order(n, max_order)
    return kind, _stream(n, frozenset((a, b)))


def count_all(n: int) -> int:
    """(n-1)!/2, the number of Hamiltonian cycles of the order-n complete graph."""
    if n < 3:
        raise OrderTooSmall(f"counting needs order >= 3, got {n}")
    return math.factorial(n - 1) // 2


def count_through_edge(n: int) -> int:
    """(n-2)!, the number of order-n cycles traversing any fixed edge."""
    if n < 3:
        raise OrderTooSmall(f"counting needs order >= 3, got {n}")
    return math.factorial(n - 2)


def count_through_pair(n: int, kind: EdgePairKind) -> int:
    """Cycles through an edge pair: (n-3)! if adjacent, 2(n-3)! otherwise."""
    minimum = 3 if kind is EdgePairKind.ADJACENT else 4
    if n < minimum:
        raise OrderTooSmall(f"{kind.value} pairs need order >= {minimum}, got {n}")
    base = math.factorial(n - 3)
    return base if kind is EdgePairKind.ADJACENT else 2 * base


def cycle_length(g: CompleteWeightedGraph, cycle: HamiltonianCycle) -> float:
    """Sum of the n edge weights along the closed walk.

    Raises OverflowError when the sum leaves the double range: the weights
    are finite, so a non-finite length is an overflow, not a value.
    """
    if len(cycle) != g.n:
        raise OrderMismatch(f"cycle order {len(cycle)} != graph order {g.n}")
    rows = g.matrix
    total = 0.0
    prev = cycle[-1]
    for v in cycle:
        total += rows[prev][v]
        prev = v
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
