"""Ranked extra-factorial-sum profiles: the per-edge curve of a graph.

Sorting a graph's edges by extra-factorial sum gives a curve that summarizes
how cycle length mass distributes over edges. The curve's shape is invariant
under positive rescaling of the weights, which makes it a qualitative
fingerprint for comparing graphs: two graphs that differ only by a positive
factor produce the same edge ranking and strictly proportional values.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import deque
from itertools import accumulate, count, repeat
from typing import Iterable, Iterator, NamedTuple

from .efs import efs_all
from .errors import OrderMismatch
from .graph import (
    CompleteWeightedGraph,
    EdgeKey,
    format_weight,
    pairs,
)

#: Relative tolerance for accepting a fitted scale factor between profiles.
SCALE_TOLERANCE = 1e-9

#: Lines per block of text that ``export_profile_csv`` yields, and that
#: ``cli`` yields for ``enumerate``.
_BLOCK_LINES = 1024


class RankedProfile(NamedTuple):
    """All edges of one graph ranked by ascending extra-factorial sum.

    `efs` holds every edge's value in ``g.weights`` order, row-major over the
    pairs (u, v) with u < v; `order` holds those edge indices by rank, with
    ties ordered by (u, v) lexicographically. ``ranked_profile`` gives both
    as read-only views of flat arrays, of doubles and of 64-bit ints, like
    ``g.weights``.
    """

    n: int
    order: memoryview
    efs: memoryview

    def __repr__(self) -> str:
        # a memoryview's own repr shows only its address
        order, efs = self.order.tolist(), self.efs.tolist()
        return f"RankedProfile(n={self.n}, order={order}, efs={efs})"

    def edge_sequence(self) -> tuple[EdgeKey, ...]:
        edges = list(map(EdgeKey._make, pairs(self.n)))
        return tuple(edges[k] for k in self.order)


class ProfileComparison(NamedTuple):
    """Outcome of comparing two same-order profiles.

    `scale_factor` is the constant c with efs2 = c * efs1 across all edges,
    when one exists within SCALE_TOLERANCE and the double range;
    `max_relative_deviation` measures how far the best candidate c is from
    exact proportionality (0 for a perfect match, inf when no candidate can
    be fitted). Where c, c times an efs, or an efs less that, leaves the
    double range, the deviation is computed exactly, with fractions.
    """

    same_ranking: bool
    scale_factor: float | None
    max_relative_deviation: float


def ranked_profile(g: CompleteWeightedGraph) -> RankedProfile:
    """Edges of `g` sorted ascending by extra-factorial sum.

    The order is that of a stable sort of the row-major edge indices by efs,
    so ties keep (u, v) order. It is found by buckets, which keeps each
    index unboxed outside the bucket being sorted. The cuts are the distinct
    63 inner quantiles of a strided sample of at most 4,096 efs. A cut and
    the next double above it bound a bucket of the cut's equals, 0.0 and
    -0.0 together, kept in index order, the stable sort's; so a value that
    many efs share, a cut then, costs no sort. Each bucket strictly between
    two cuts is sorted stably by efs.
    """
    efs = efs_all(g)
    sample = sorted(efs[:: (len(efs) + 4095) // 4096])
    cuts = sorted({sample[len(sample) * k // 64] for k in range(1, 64)})
    # bisect_right puts a value equal to the k-th cut in bucket 2k + 1; the
    # bound above the largest double is inf, which no efs equals
    bounds = [b for c in cuts for b in (c, math.nextafter(c, math.inf))]
    buckets = [array("q") for _ in range(len(bounds) + 1)]
    bucket_of = map(bisect_right, repeat(bounds), efs)
    # append each index to its bucket, in index order, at C speed
    deque(map(array.append, map(buckets.__getitem__, bucket_of), count()), maxlen=0)
    order = array("q")
    value = efs.__getitem__
    for k, bucket in enumerate(buckets):
        buckets[k] = None  # freed once its indices are in `order`
        if k % 2:
            order.extend(bucket)  # one value: index order is the stable sort's
        else:
            order.fromlist(sorted(bucket, key=value))
    return RankedProfile(g.n, memoryview(order).toreadonly(), efs)


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
    top, bottom = efs2[pivot], efs1[pivot]
    c = top / bottom
    # c is the ratio rounded to a double unless the ratio left the double
    # range: then c is inf, or 0 although top is not
    in_range = math.isfinite(c) and (c != 0.0 or top == 0.0)
    worst = _worst_deviation(c, efs1, efs2) if in_range else math.nan
    if math.isnan(worst):
        # c, a prediction c * v1 or a difference v2 - c * v1 left the double
        # range: compare exactly; c is already the exact ratio rounded.
        # fractions loads decimal, so only this rare path imports it.
        from fractions import Fraction

        exact = Fraction(top) / Fraction(bottom)
        worst = _worst_deviation(exact, map(Fraction, efs1), map(Fraction, efs2))
    scale = c if in_range and worst <= SCALE_TOLERANCE else None
    return ProfileComparison(same_ranking, scale, float(worst))


def _worst_deviation(c, efs1: Iterable, efs2: Iterable):
    """Largest |v2 - c * v1| / max(|c * v1|, |v2|) over the pairs of values,
    in the arithmetic of c and the values; NaN once one deviation is not
    finite, as when c * v1 or v2 - c * v1 overflows."""
    worst = 0.0
    for v1, actual in zip(efs1, efs2):
        predicted = c * v1
        denom = max(abs(predicted), abs(actual))
        if denom > 0.0:
            deviation = abs(actual - predicted) / denom
            if not math.isfinite(deviation):
                return math.nan
            worst = max(worst, deviation)
    return worst


def export_profile_csv(p: RankedProfile) -> Iterator[str]:
    """CSV text "rank,u,v,efs" in rank order, full-precision values, as blocks
    of whole lines: the header, then one block per ``_BLOCK_LINES`` ranks.

    The values must be finite, as ``ranked_profile`` gives them: it raises on
    an overflow before any block is made.
    """
    n, order, efs = p.n, p.order, p.efs
    labels = list(map(str, range(n)))  # one shared string per vertex
    # row u holds the pairs (u, u + 1), (u, u + 2), ... from index starts[u],
    # so pair k is (us[k], k + offs[us[k]]); us takes 4 bytes a pair, in an
    # array made at its full size. A list of labels per pair for u and one
    # for v (4 MB each at order 1000) would either fit into the space the
    # ranking freed or grow the heap, and the peak RSS of `xfs efs` would
    # move between about 32 and 36 MB from one run to the next.
    starts = list(accumulate(range(n - 1, 0, -1), initial=0))
    us = array("I", [0]) * len(order)
    for u in range(n - 1):
        us[starts[u] : starts[u + 1]] = array("I", [u]) * (n - 1 - u)
    offs = [u + 1 - start for u, start in enumerate(starts)]
    yield "rank,u,v,efs\n"
    for start in range(0, len(order), _BLOCK_LINES):
        ks = order[start : start + _BLOCK_LINES]
        values = list(map(efs.__getitem__, ks))
        # format_weight drops the ".0" of an integral float and gives any
        # other finite float its repr
        fmt = format_weight if any(map(float.is_integer, values)) else repr
        rows = zip(count(start + 1), ks, map(fmt, values))
        yield "".join([f"{r},{labels[us[k]]},{labels[k + offs[us[k]]]},{x}\n" for r, k, x in rows])
