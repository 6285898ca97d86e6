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
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FactorialOverflow, NoComplementCycles
from .graph import CompleteWeightedGraph, EdgeKey, _pair_index

#: Largest order for which the summational multipliers fit in a double.
MAX_SUMMATIONAL_ORDER = 170


class EfsBreakdown(NamedTuple):
    """Weight decomposition behind one edge's extra-factorial sum."""

    edge: EdgeKey
    x1: float
    x2: float
    x3: float
    efs: float


@dataclass(frozen=True)
class EdgeStatistics:
    """Per-edge summary: efs plus the two conditional mean cycle lengths."""

    edge: EdgeKey
    efs: float
    mean_through: float
    mean_not_through: float | None  # None at order 3


def efs_breakdown(g: CompleteWeightedGraph, e: tuple[int, int]) -> EfsBreakdown:
    """x1/x2/x3 decomposition and extra-factorial sum for one edge."""
    key = g.edge(*e)
    w = g.weights[_pair_index(g.n, key.u, key.v)]
    s = g.strengths
    x2 = s[key.u] + s[key.v] - 2.0 * w
    x3 = g.total_weight - s[key.u] - s[key.v] + w
    return EfsBreakdown(key, w, x2, x3, (g.n - 2) * w + x2 + 2.0 * x3)


def extra_factorial_sum(g: CompleteWeightedGraph, e: tuple[int, int]) -> float:
    """The extra-factorial sum of edge `e`.

    Multiplied by (n-3)! it equals the summed lengths of the (n-2)! cycles
    through e; divided by (n-2) it gives their mean length.
    """
    return efs_breakdown(g, e).efs


def efs_all(g: CompleteWeightedGraph) -> tuple[float, ...]:
    """Extra-factorial sum of every edge, aligned with ``g.weights``, in O(n^2)."""
    s = g.strengths
    total = g.total_weight
    scale = g.n - 2
    weights = g.weights
    out: list[float] = []
    k = 0
    for u, su in enumerate(s):
        others = s[u + 1 :]
        row = weights[k : k + len(others)]
        k += len(others)
        out += [
            scale * w + (su + sv - 2.0 * w) + 2.0 * (total - su - sv + w)
            for w, sv in zip(row, others)
        ]
    return tuple(out)


@dataclass(frozen=True)
class SummationalGraph:
    """Copy of a graph with weights multiplied by each edge's cycle multiplicity.

    Relative to the base edge: the base edge's weight carries (n-2)!, each
    intersecting edge (n-3)!, each disjoint edge 2(n-3)!. The multiplied
    weights therefore total exactly the summed lengths of the cycles through
    the base edge.
    """

    base_edge: EdgeKey
    n: int
    weights: dict[EdgeKey, float]

    def total_weight(self) -> float:
        return math.fsum(self.weights.values())


def summational_graph(g: CompleteWeightedGraph, e: tuple[int, int]) -> SummationalGraph:
    """Weight-multiplied copy of `g` for edge `e` (see SummationalGraph)."""
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
    multiplied: dict[EdgeKey, float] = {}
    for other, w in g.items():
        if other == key:
            multiplied[other] = through * w
        elif ends & set(other):
            multiplied[other] = touching * w
        else:
            multiplied[other] = apart * w
    return SummationalGraph(key, g.n, multiplied)


def mean_length_through(g: CompleteWeightedGraph, e: tuple[int, int]) -> float:
    """Mean length of the (n-2)! cycles traversing `e`: efs(e) / (n-2)."""
    return extra_factorial_sum(g, e) / (g.n - 2)


def mean_length_all(g: CompleteWeightedGraph) -> float:
    """Mean length over all (n-1)!/2 cycles: 2 * W / (n-1) for total weight W."""
    return 2.0 * g.total_weight / (g.n - 1)


def mean_length_not_through(g: CompleteWeightedGraph, e: tuple[int, int]) -> float:
    """Mean length of the cycles avoiding `e`; undefined at order 3.

    Factorial-free: ((n-2) * W - efs(e)) / ((n-2) * (n-3) / 2).
    """
    if g.n == 3:
        raise NoComplementCycles("every order-3 cycle traverses every edge")
    n = g.n
    efs = extra_factorial_sum(g, e)
    return ((n - 2) * g.total_weight - efs) / ((n - 2) * (n - 3) / 2.0)


def edge_statistics(g: CompleteWeightedGraph, e: tuple[int, int]) -> EdgeStatistics:
    """efs and both conditional means for one edge."""
    key = g.edge(*e)
    efs = extra_factorial_sum(g, key)
    mean_not = None if g.n == 3 else mean_length_not_through(g, key)
    return EdgeStatistics(key, efs, efs / (g.n - 2), mean_not)


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
