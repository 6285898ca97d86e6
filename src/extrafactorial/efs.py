"""Closed-form cycle-length statistics built on the extra-factorial sum.

For an edge e of an order-n complete weighted graph, the (n-2)! Hamiltonian
cycles through e contain e itself (n-2)! times, every edge sharing one vertex
with e (n-3)! times, and every edge disjoint from e 2(n-3)! times. Dividing
the summed cycle lengths by the common factor (n-3)! gives the extra-factorial
sum

    efs(e) = (n-2) * x1 + x2 + 2 * x3

where x1 is e's own weight, x2 the summed weight of the 2(n-2) edges
intersecting e, and x3 the summed weight of the (n-2)(n-3)/2 remaining edges.
With per-vertex strengths S and total weight W this collapses to the O(1)
forms x2 = S_u + S_v - 2*w(e) and x3 = W - S_u - S_v + w(e), so all per-edge
statistics of a graph cost O(n^2) overall. Every quantity here is exact in
the sense of never materializing a factorial: efs(e) * (n-3)! reproduces the
brute-force sum over the cycles through e.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import FactorialOverflow, NoComplementCycles
from .graph import CompleteWeightedGraph, EdgeKey

#: Largest order for which the summational multipliers fit in a double: the
#: largest of them, (n-2)!, is 170! at order 172.
MAX_SUMMATIONAL_ORDER = 172


class EdgeStatistics(NamedTuple):
    """One edge's efs decomposition and its two conditional mean cycle lengths."""

    edge: EdgeKey
    x1: float
    x2: float
    x3: float
    efs: float
    mean_through: float
    mean_not_through: float | None  # None at order 3


def _overflow(e: EdgeKey, name: str = "efs") -> OverflowError:
    # the weights are finite, so a non-finite result is an overflow, not a value
    return OverflowError(f"{name} of edge ({e.u}, {e.v}) overflows the double range")


def edge_statistics(g: CompleteWeightedGraph, e: tuple[int, int]) -> EdgeStatistics:
    """x1/x2/x3 decomposition, efs and both conditional means for one edge.

    The mean length of the cycles avoiding e is factorial-free as
    ((n-2) * W - efs(e)) / ((n-2) * (n-3) / 2); it is None at order 3, where
    no cycle avoids e, and inf when (n-2) * W leaves the double range.
    Raises OverflowError when the efs leaves the double range.
    """
    key = g.edge(*e)
    n = g.n
    w = g.weight(*key)
    s = g.strengths
    x2 = s[key.u] + s[key.v] - 2.0 * w
    x3 = g.total_weight - s[key.u] - s[key.v] + w
    efs = (n - 2) * w + x2 + 2.0 * x3
    if not math.isfinite(efs):
        raise _overflow(key)
    mean_not = (
        None if n == 3 else ((n - 2) * g.total_weight - efs) / ((n - 2) * (n - 3) / 2.0)
    )
    return EdgeStatistics(key, w, x2, x3, efs, efs / (n - 2), mean_not)


def extra_factorial_sum(g: CompleteWeightedGraph, e: tuple[int, int]) -> float:
    """The extra-factorial sum of edge `e`.

    Multiplied by (n-3)! it equals the summed lengths of the (n-2)! cycles
    through e; divided by (n-2) it gives their mean length.
    """
    return edge_statistics(g, e).efs


def efs_all(g: CompleteWeightedGraph) -> tuple[float, ...]:
    """Extra-factorial sum of every edge, aligned with ``g.weights``, in O(n^2).

    Raises OverflowError, naming the first such edge, when an efs leaves the
    double range.
    """
    s = g.strengths
    total = g.total_weight
    scale = g.n - 2
    out: list[float] = []
    for (u, su), row in zip(enumerate(s), g.rows()):
        out += [
            scale * w + (su + sv - 2.0 * w) + 2.0 * (total - su - sv + w)
            for w, sv in zip(row, s[u + 1 :])
        ]
    isfinite = math.isfinite
    if not all(map(isfinite, out)):
        raise _overflow(next(e for e, x in zip(g.edges(), out) if not isfinite(x)))
    return tuple(out)


def summational_graph(g: CompleteWeightedGraph, e: tuple[int, int]) -> CompleteWeightedGraph:
    """Copy of `g` with weights multiplied by each edge's cycle multiplicity.

    Relative to the base edge `e`: its own weight carries (n-2)!, each
    intersecting edge (n-3)!, each disjoint edge 2(n-3)!. The multiplied
    weights therefore total exactly the summed lengths of the cycles through
    `e`. Raises NonFiniteWeight when a product overflows.
    """
    key = g.edge(*e)
    if g.n > MAX_SUMMATIONAL_ORDER:
        raise FactorialOverflow(
            f"summational multipliers overflow doubles beyond order "
            f"{MAX_SUMMATIONAL_ORDER}, got {g.n}"
        )
    ends = set(key)
    through = float(math.factorial(g.n - 2))
    touching = float(math.factorial(g.n - 3))
    apart = 2.0 * touching
    multiplied: list[float] = []
    for other, w in g.items():
        if other == key:
            multiplied.append(through * w)
        elif ends & set(other):
            multiplied.append(touching * w)
        else:
            multiplied.append(apart * w)
    return CompleteWeightedGraph(g.n, tuple(multiplied))


def mean_length_through(g: CompleteWeightedGraph, e: tuple[int, int]) -> float:
    """Mean length of the (n-2)! cycles traversing `e`: efs(e) / (n-2)."""
    return edge_statistics(g, e).mean_through


def mean_length_all(g: CompleteWeightedGraph) -> float:
    """Mean length over all (n-1)!/2 cycles: 2 * W / (n-1) for total weight W."""
    return 2.0 * g.total_weight / (g.n - 1)


def mean_length_not_through(g: CompleteWeightedGraph, e: tuple[int, int]) -> float:
    """Mean length of the cycles avoiding `e`; undefined at order 3.

    Raises OverflowError when the value leaves the double range.
    """
    if g.n == 3:
        raise NoComplementCycles("every order-3 cycle traverses every edge")
    stats = edge_statistics(g, e)
    if not math.isfinite(stats.mean_not_through):
        raise _overflow(stats.edge, "mean_not_through")
    return stats.mean_not_through


def derived_graph(g: CompleteWeightedGraph) -> CompleteWeightedGraph:
    """Graph whose each weight is the original times that edge's mean through-length.

    Its summed cycle lengths equal the summed *squared* cycle lengths of `g`.
    """
    scale = g.n - 2
    return CompleteWeightedGraph(
        g.n, tuple(w * (efs / scale) for w, efs in zip(g.weights, efs_all(g)))
    )


def mean_squared_length(g: CompleteWeightedGraph) -> float:
    """Mean of the squared cycle lengths over all (n-1)!/2 cycles.

    Each cycle's squared length distributes over its edges, and each edge e
    collects its weight times the summed lengths of the cycles through it,
    i.e. (n-3)! * efs(e); dividing by (n-1)!/2 cancels the factorials:

        mean(l^2) = 2 / ((n-1)(n-2)) * sum_e w(e) * efs(e)
    """
    n = g.n
    weighted = math.fsum(w * efs for w, efs in zip(g.weights, efs_all(g)))
    return 2.0 * weighted / ((n - 1) * (n - 2))
