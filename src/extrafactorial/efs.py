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
from array import array
from operator import mul
from typing import NamedTuple

from .errors import FactorialOverflow, NoComplementCycles
from .graph import CompleteWeightedGraph, EdgeKey, pairs

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


def _efs(
    g: CompleteWeightedGraph, e: tuple[int, int]
) -> tuple[EdgeKey, float, float, float, float]:
    # edge e's key, x1, x2, x3 and efs; raises OverflowError when the efs
    # leaves the double range
    key = g.edge(*e)
    w = g.weight(*key)
    s = g.strengths
    x2 = s[key.u] + s[key.v] - 2.0 * w
    x3 = g.total_weight - s[key.u] - s[key.v] + w
    efs = (g.n - 2) * w + x2 + 2.0 * x3
    if not math.isfinite(efs):
        raise _overflow(key)
    return key, w, x2, x3, efs


def edge_statistics(g: CompleteWeightedGraph, e: tuple[int, int]) -> EdgeStatistics:
    """x1/x2/x3 decomposition, efs and both conditional means for one edge.

    The mean length of the cycles avoiding e is factorial-free as
    ((n-2) * W - efs(e)) / ((n-2) * (n-3) / 2); it is None at order 3, where
    no cycle avoids e. Raises OverflowError when the efs or that mean leaves
    the double range.
    """
    key, w, x2, x3, efs = _efs(g, e)
    n = g.n
    mean_not = None
    if n > 3:
        mean_not = ((n - 2) * g.total_weight - efs) / ((n - 2) * (n - 3) / 2.0)
        if not math.isfinite(mean_not):
            raise _overflow(key, "mean_not_through")
    return EdgeStatistics(key, w, x2, x3, efs, efs / (n - 2), mean_not)


def extra_factorial_sum(g: CompleteWeightedGraph, e: tuple[int, int]) -> float:
    """The extra-factorial sum of edge `e`.

    Multiplied by (n-3)! it equals the summed lengths of the (n-2)! cycles
    through e; divided by (n-2) it gives their mean length.
    """
    return _efs(g, e)[4]


def efs_all(g: CompleteWeightedGraph) -> memoryview:
    """Extra-factorial sum of every edge, aligned with ``g.weights``, in O(n^2).

    The values are doubles in one array, filled a row at a time and returned
    as a read-only view, like ``g.weights``. Raises OverflowError, naming the
    first such edge, when an efs leaves the double range.
    """
    s = g.strengths
    total = g.total_weight
    scale = g.n - 2
    out = array("d")
    for (u, su), row in zip(enumerate(s), g.rows()):
        out.fromlist([
            scale * w + (su + sv - 2.0 * w) + 2.0 * (total - su - sv + w)
            for w, sv in zip(row, s[u + 1 :])
        ])
    isfinite = math.isfinite
    if not all(map(isfinite, out)):
        raise _overflow(next(e for e, x in zip(g.edges(), out) if not isfinite(x)))
    return memoryview(out).toreadonly()


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
    through = float(math.factorial(g.n - 2))
    touching = float(math.factorial(g.n - 3))
    apart = 2.0 * touching
    return CompleteWeightedGraph(g.n, (
        (through if (u, v) == key else touching if u in key or v in key else apart) * w
        for (u, v), w in zip(pairs(g.n), g.weights)
    ))


def mean_length_through(g: CompleteWeightedGraph, e: tuple[int, int]) -> float:
    """Mean length of the (n-2)! cycles traversing `e`: efs(e) / (n-2)."""
    return _efs(g, e)[4] / (g.n - 2)


def mean_length_all(g: CompleteWeightedGraph) -> float:
    """Mean length over all (n-1)!/2 cycles: 2 * W / (n-1) for total weight W."""
    # (n-1)/2 is exact, so this rounds 2 * W / (n-1) once; 2 * W itself
    # would overflow for a W above half the double range
    return g.total_weight / ((g.n - 1) / 2)


def mean_length_not_through(g: CompleteWeightedGraph, e: tuple[int, int]) -> float:
    """Mean length of the cycles avoiding `e`; undefined at order 3.

    Raises OverflowError when the value leaves the double range.
    """
    if g.n == 3:
        raise NoComplementCycles("every order-3 cycle traverses every edge")
    return edge_statistics(g, e).mean_not_through


def derived_graph(g: CompleteWeightedGraph) -> CompleteWeightedGraph:
    """Graph whose each weight is the original times that edge's mean through-length.

    Its summed cycle lengths equal the summed *squared* cycle lengths of `g`.
    """
    scale = g.n - 2
    return CompleteWeightedGraph(
        g.n, (w * (efs / scale) for w, efs in zip(g.weights, efs_all(g)))
    )


def mean_squared_length(g: CompleteWeightedGraph) -> float:
    """Mean of the squared cycle lengths over all (n-1)!/2 cycles.

    Each cycle's squared length distributes over its edges, and each edge e
    collects its weight times the summed lengths of the cycles through it,
    i.e. (n-3)! * efs(e); dividing by (n-1)!/2 cancels the factorials:

        mean(l^2) = 2 / ((n-1)(n-2)) * sum_e w(e) * efs(e)

    Raises OverflowError when a product w(e) * efs(e) or the mean leaves the
    double range. A partial sum of the products that leaves it is no error:
    the products are then summed exactly.
    """
    n = g.n
    efs = efs_all(g)
    # (n-1)(n-2) is even; dividing by its half, not doubling the sum first,
    # gives the same double without overflowing before the division
    half = (n - 1) * (n - 2) // 2
    overflow = "mean_squared_length overflows the double range"
    try:
        mean = math.fsum(map(mul, g.weights, efs)) / half
    except (OverflowError, ValueError):
        # the weights and the efs are finite, so fsum raises ValueError only
        # when products overflow to both inf and -inf, and OverflowError when
        # a partial sum of finite products overflows. Summed exactly, an
        # infinite product has no integer ratio, and the correctly rounded
        # division of ints raises when the mean is too large
        try:
            exact = sum(map(_in_least_subnormals, map(mul, g.weights, efs)))
            mean = exact / (half << 1074)
        except OverflowError:
            raise OverflowError(overflow) from None
    if not math.isfinite(mean):
        raise OverflowError(overflow)
    return mean


def _in_least_subnormals(x: float) -> int:
    """The finite double x as an exact multiple of 2**-1074, the least
    subnormal double."""
    numerator, denominator = x.as_integer_ratio()
    # the denominator is 2**k with k <= 1074
    return numerator << (1075 - denominator.bit_length())
