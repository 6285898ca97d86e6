"""Ranked extra-factorial-sum profiles: the per-edge curve of a graph.

Sorting a graph's edges by extra-factorial sum gives a curve that summarizes
how cycle length mass distributes over edges. The curve's shape is invariant
under positive rescaling of the weights, which makes it a qualitative
fingerprint for comparing graphs: two graphs that differ only by a positive
factor produce the same edge ranking and strictly proportional values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .efs import efs_all
from .errors import GraphSyntaxError, OrderMismatch
from .graph import CompleteWeightedGraph, EdgeKey, _pair_index, format_weight

#: Relative tolerance for accepting a fitted scale factor between profiles.
SCALE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class RankedProfile:
    """All edges of one graph ranked by ascending extra-factorial sum.

    `efs` holds every edge's value in ``g.weights`` order, row-major over the
    pairs (u, v) with u < v; `order` holds those edge indices by rank, with
    ties ordered by (u, v) lexicographically.
    """

    n: int
    order: tuple[int, ...]
    efs: tuple[float, ...]

    def edge_sequence(self) -> tuple[EdgeKey, ...]:
        n = self.n
        edges = [EdgeKey(u, v) for u in range(n) for v in range(u + 1, n)]
        return tuple(edges[k] for k in self.order)


@dataclass(frozen=True)
class ProfileComparison:
    """Outcome of comparing two same-order profiles.

    `scale_factor` is the constant c with efs2 = c * efs1 across all edges,
    when one exists within SCALE_TOLERANCE; `max_relative_deviation` measures
    how far the best candidate c is from exact proportionality (0 for a
    perfect match, inf when no candidate can be fitted).
    """

    same_ranking: bool
    scale_factor: float | None
    max_relative_deviation: float


def ranked_profile(g: CompleteWeightedGraph) -> RankedProfile:
    """Edges of `g` sorted ascending by extra-factorial sum."""
    efs = efs_all(g)
    # a stable sort of the row-major indices keeps ties in (u, v) order
    return RankedProfile(g.n, tuple(sorted(range(len(efs)), key=efs.__getitem__)), efs)


def compare_profiles(p1: RankedProfile, p2: RankedProfile) -> ProfileComparison:
    """Rank-order equality and exact-scale detection between two profiles."""
    if p1.n != p2.n:
        raise OrderMismatch(f"profile orders differ: {p1.n} != {p2.n}")
    same_ranking = p1.order == p2.order
    efs1, efs2 = p1.efs, p2.efs
    pivot = max(p1.order, key=lambda k: abs(efs1[k]))
    if efs1[pivot] == 0.0:
        # every efs of p1 vanishes: either both profiles are flat zero or no
        # finite scale can relate them
        if all(v == 0.0 for v in efs2):
            return ProfileComparison(same_ranking, 1.0, 0.0)
        return ProfileComparison(same_ranking, None, math.inf)
    c = efs2[pivot] / efs1[pivot]
    worst = 0.0
    for v1, actual in zip(efs1, efs2):
        predicted = c * v1
        denom = max(abs(predicted), abs(actual))
        if denom > 0.0:
            worst = max(worst, abs(actual - predicted) / denom)
    scale = c if worst <= SCALE_TOLERANCE else None
    return ProfileComparison(same_ranking, scale, worst)


def export_profile_csv(p: RankedProfile) -> str:
    """CSV text "rank,u,v,efs" in rank order, full-precision values."""
    n, efs = p.n, p.efs
    pairs = [f"{u},{v}" for u in range(n) for v in range(u + 1, n)]
    rows = [
        f"{rank},{pairs[k]},{format_weight(efs[k])}"
        for rank, k in enumerate(p.order, start=1)
    ]
    return "rank,u,v,efs\n" + "\n".join(rows) + "\n"


def parse_profile_csv(text: str) -> RankedProfile:
    """Inverse of :func:`export_profile_csv`."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != "rank,u,v,efs":
        raise GraphSyntaxError("expected header 'rank,u,v,efs'", 1)
    ranks: list[int] = []
    pairs: list[tuple[int, int]] = []
    values: list[float] = []
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.strip().split(",")
        if len(parts) != 4:
            raise GraphSyntaxError(f"expected 4 fields, got {len(parts)}", line_no)
        try:
            rank, u, v = int(parts[0]), int(parts[1]), int(parts[2])
            value = float(parts[3])
        except ValueError:
            raise GraphSyntaxError(f"bad row {line!r}", line_no) from None
        ranks.append(rank)
        pairs.append((u, v))
        values.append(value)
    count = len(values)
    # count = n(n-1)/2 determines the order
    n = (1 + math.isqrt(1 + 8 * count)) // 2
    if n * (n - 1) // 2 != count or n < 3:
        raise GraphSyntaxError(f"{count} rows is not a complete edge set", 1)
    order = tuple(_pair_index(n, u, v) if 0 <= u < v < n else -1 for u, v in pairs)
    if sorted(order) != list(range(count)):
        raise GraphSyntaxError(f"rows do not cover all pairs of 0..{n - 1}", 1)
    if ranks != list(range(1, count + 1)):
        raise GraphSyntaxError("ranks must be consecutive from 1", 1)
    efs = [0.0] * count
    for k, value in zip(order, values):
        efs[k] = value
    return RankedProfile(n, order, tuple(efs))
