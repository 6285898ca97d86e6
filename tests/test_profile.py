import math
import random
import sys
import tracemalloc
from array import array
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from extrafactorial import (
    CompleteWeightedGraph,
    RankedProfile,
    compare_profiles,
    efs_all,
    export_profile_csv,
    profile,
    random_graph,
    ranked_profile,
)
from extrafactorial.errors import OrderMismatch
from extrafactorial.graph import format_weight
from oracles import make_zero_graph, scale_graph


@st.composite
def graphs(draw, min_n=3, max_n=7, bound=100.0):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    ws = draw(
        st.lists(
            st.floats(min_value=-bound, max_value=bound), min_size=m, max_size=m
        )
    )
    return CompleteWeightedGraph(n, tuple(ws))


class TestRankedProfile:
    def test_sample4_order(self, graph4):
        p = ranked_profile(graph4)
        edges = p.edge_sequence()
        ranked = [(r, tuple(edges[r - 1]), p.efs[k]) for r, k in enumerate(p.order, 1)]
        assert ranked == [
            (1, (0, 3), 49.0),
            (2, (1, 2), 49.0),
            (3, (0, 2), 51.0),
            (4, (1, 3), 51.0),
            (5, (0, 1), 52.0),
            (6, (2, 3), 52.0),
        ]

    def test_entry_count_n14(self):
        p = ranked_profile(random_graph(14, 5))
        assert len(p.order) == len(p.efs) == 91
        assert sorted(p.order) == list(range(91))

    def test_zero_graph_is_lexicographic(self):
        p = ranked_profile(make_zero_graph(5))
        assert all(efs == 0.0 for efs in p.efs)
        assert p.edge_sequence() == tuple(make_zero_graph(5).edges())

    def test_all_tied_order_1000_is_not_sorted(self):
        # tied efs stay unboxed, in index order, in a bucket of their own. A
        # sort with a boxed key each peaks near 40 MB when all 499,500 efs
        # tie, and near 29 MB when 70% of them are 0.0 and share a bucket
        # with other values. The efs are given, as tracing them takes seconds.
        rng = random.Random(1)
        columns = {
            "all ones": efs_all(CompleteWeightedGraph(1000, [1.0] * 499500)),
            "70% zeros": memoryview(array("d", (
                0.0 if rng.random() < 0.7 else rng.uniform(-1.0, 1.0) for _ in range(499500)
            ))).toreadonly(),
        }
        for name, efs in columns.items():
            tracemalloc.start()
            try:
                with mock.patch.object(profile, "efs_all", return_value=efs):
                    order = ranked_profile(random_graph(3, 0)).order
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert order.tolist() == sorted(range(499500), key=efs.__getitem__), name
            assert peak < 15 * 2**20, f"{name}: peak {peak / 2**20:.1f} MB"

    @given(graphs())
    @settings(max_examples=40)
    def test_is_permutation_of_efs_all(self, g):
        p = ranked_profile(g)
        assert p.efs == efs_all(g)
        assert sorted(p.order) == list(range(len(p.efs)))
        values = [p.efs[k] for k in p.order]
        assert values == sorted(values)


@st.composite
def efs_columns(draw):
    """Finite values for ``ranked_profile`` to rank: all equal, signed zeros,
    a few distinct values, mostly one value, neighbouring doubles,
    heavy-tailed or any, as many as on either side of the 4,096 that it
    samples."""
    m = draw(st.one_of(st.integers(3, 300), st.sampled_from([4095, 4096, 4097, 8193, 20000])))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["equal", "zeros", "few", "mostly", "neighbours", "heavy", "any"]))
    if kind == "equal":
        return [draw(finite)] * m
    if kind == "zeros":
        return [rng.choice((0.0, -0.0)) for _ in range(m)]
    if kind == "few":
        # duplicate cuts and empty buckets
        pool = draw(st.lists(finite, min_size=1, max_size=5))
        return [rng.choice(pool) for _ in range(m)]
    if kind == "mostly":
        # a tied value that is a cut, with other values on both sides of it
        tied = draw(finite)
        return [tied if rng.random() < 0.7 else rng.uniform(-1e6, 1e6) for _ in range(m)]
    if kind == "neighbours":
        # a value just above or below a cut, where the bound above the cut
        # may equal the next cut; the bound above the largest double is inf,
        # and at a power of two the spacing of doubles changes
        powers = st.builds(math.ldexp, st.sampled_from([-1.0, 1.0]), st.integers(-1074, 1023))
        c = draw(st.one_of(finite, powers))
        tiny, huge = 5e-324, sys.float_info.max
        pool = [c, math.nextafter(c, math.inf), math.nextafter(c, -math.inf),
                huge, -huge, 0.0, -0.0, tiny, -tiny]
        pool = [x for x in pool if math.isfinite(x)]
        # frequencies 1 to 4,096 apart, so that some values are cuts and
        # some fall between cuts
        weights = [2.0 ** rng.randint(0, 12) for _ in pool]
        return rng.choices(pool, weights, k=m)
    if kind == "heavy":
        return [rng.choice((-1.0, 1.0)) * rng.paretovariate(0.3) for _ in range(m)]
    return draw(st.lists(finite, min_size=3, max_size=300))


class TestRankingIsTheStableSort:
    @given(efs_columns())
    @settings(max_examples=150, deadline=None)
    def test_any_values(self, values):
        efs = memoryview(array("d", values)).toreadonly()
        with mock.patch.object(profile, "efs_all", return_value=efs):
            order = ranked_profile(random_graph(3, 0)).order
        assert order.tolist() == sorted(range(len(efs)), key=efs.__getitem__)

    @given(
        st.integers(3, 12).flatmap(
            lambda n: st.lists(
                st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]),
                min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2,
            ).map(lambda ws: CompleteWeightedGraph(n, ws))
        )
    )
    @settings(max_examples=100)
    def test_graphs_with_tied_efs(self, g):
        efs = efs_all(g)
        assert ranked_profile(g).order.tolist() == sorted(range(len(efs)), key=efs.__getitem__)


def profile_of(efs):
    """The profile of three efs, ranked by a stable sort."""
    order = sorted(range(3), key=efs.__getitem__)
    views = (memoryview(array(t, xs)).toreadonly() for t, xs in (("q", order), ("d", efs)))
    return RankedProfile(3, *views)


class TestCompareProfiles:
    def test_identity(self, graph4):
        p = ranked_profile(graph4)
        outcome = compare_profiles(p, p)
        assert outcome.same_ranking is True
        assert outcome.scale_factor == 1.0
        assert outcome.max_relative_deviation == 0.0

    def test_halved_copy_n14(self):
        g1 = random_graph(14, 99)
        g2 = scale_graph(g1, 0.5)
        outcome = compare_profiles(ranked_profile(g1), ranked_profile(g2))
        assert outcome.same_ranking is True
        assert outcome.scale_factor == pytest.approx(0.5, rel=1e-9)

    def test_independent_graphs(self):
        g1 = random_graph(14, 1)
        g2 = random_graph(14, 2)
        outcome = compare_profiles(ranked_profile(g1), ranked_profile(g2))
        assert outcome.same_ranking is False
        assert outcome.scale_factor is None
        assert outcome.max_relative_deviation > 1e-9

    def test_order_mismatch(self, graph4, graph5):
        with pytest.raises(OrderMismatch):
            compare_profiles(ranked_profile(graph4), ranked_profile(graph5))

    def test_zero_vs_zero(self):
        p = ranked_profile(make_zero_graph(4))
        outcome = compare_profiles(p, p)
        assert outcome.scale_factor == 1.0
        assert outcome.max_relative_deviation == 0.0

    def test_zero_vs_nonzero(self, graph4):
        zero = ranked_profile(make_zero_graph(4))
        outcome = compare_profiles(zero, ranked_profile(graph4))
        assert outcome.scale_factor is None

    @pytest.mark.parametrize(
        "a, b",
        [((1, 1e-300), (2, 1e300)), ((1, 1e-300), (1, 1e300)), ((1, 1e300), (1, 1e-300))],
        ids=["unrelated", "tiny-to-huge", "huge-to-tiny"],
    )
    def test_ratio_beyond_the_double_range_is_no_scale(self, a, b):
        # the pivot ratio is inf or 0 as a double: the deviations are exact
        p1, p2 = (ranked_profile(scale_graph(random_graph(5, seed), c)) for seed, c in (a, b))
        outcome = compare_profiles(p1, p2)
        assert outcome.scale_factor is None
        pivot = max(p1.order, key=lambda k: abs(p1.efs[k]))
        c = Fraction(p2.efs[pivot]) / Fraction(p1.efs[pivot])
        exact = max(
            abs(Fraction(y) - c * Fraction(x)) / max(abs(c * Fraction(x)), abs(Fraction(y)))
            for x, y in zip(p1.efs, p2.efs)
        )
        assert outcome.max_relative_deviation == float(exact)
        assert 0.0 < outcome.max_relative_deviation < (1e-15 if a[0] == b[0] else 1.0)

    def test_difference_beyond_the_double_range(self):
        # under c = 1, the prediction -1e308 of an actual 1e308 is 2e308 off,
        # beyond the double range; the exact deviation is 2
        outcome = compare_profiles(profile_of([-1e308, 1e308, 1.0]), profile_of([-1e308, -1e308, 1.0]))
        assert (outcome.scale_factor, outcome.max_relative_deviation) == (None, 2.0)

    @pytest.mark.parametrize("d", [3.0, 7.0])
    def test_scale_found_by_the_exact_pass(self, d):
        # the prediction c * d of the actual M rounds past the double range,
        # so the float pass gives NaN and the exact pass finds the scale
        big = sys.float_info.max
        c = big / d
        efs1, efs2 = [1.0, -0.5, d], [c, -0.5 * c, big]
        assert math.isnan(profile._worst_deviation(c, efs1, efs2))
        outcome = compare_profiles(profile_of(efs1), profile_of(efs2))
        assert outcome.scale_factor == c
        assert outcome.max_relative_deviation == 2.0**-54

    def test_zero_scale_of_a_zero_profile_stays(self, graph4):
        # an exact ratio of 0 is a double: the zero graph is 0 times any graph
        outcome = compare_profiles(ranked_profile(graph4), ranked_profile(make_zero_graph(4)))
        assert (outcome.scale_factor, outcome.max_relative_deviation) == (0.0, 0.0)


class TestScalingInvariance:
    @pytest.mark.parametrize("c", [0.5, 0.25, 2.0, 8.0])
    def test_positive_scaling_keeps_ranking(self, c):
        g = random_graph(10, 77, -5.0, 5.0)
        p1 = ranked_profile(g)
        p2 = ranked_profile(scale_graph(g, c))
        assert p1.edge_sequence() == p2.edge_sequence()
        outcome = compare_profiles(p1, p2)
        assert outcome.same_ranking is True
        assert outcome.scale_factor == pytest.approx(c, rel=1e-9)

    def test_negation_reverses_ranking(self):
        # tie-free random graph: negation reverses the order exactly
        g = random_graph(9, 31, 1.0, 2.0)
        forward = ranked_profile(g).edge_sequence()
        backward = ranked_profile(scale_graph(g, -1.0)).edge_sequence()
        assert backward == tuple(reversed(forward))

    def test_sample4_tie_groups_under_negation(self, graph4):
        # efs ties (49, 49), (51, 51), (52, 52) stay lexicographic per group
        backward = ranked_profile(scale_graph(graph4, -1.0))
        assert [tuple(e) for e in backward.edge_sequence()] == [
            (0, 1),
            (2, 3),
            (0, 2),
            (1, 3),
            (0, 3),
            (1, 2),
        ]


class TestCsv:
    def test_sample4_rows(self, graph4):
        text = "".join(export_profile_csv(ranked_profile(graph4)))
        lines = text.splitlines()
        assert lines[0] == "rank,u,v,efs"
        assert lines[1] == "1,0,3,49"
        assert len(lines) == 7  # header + 6 data rows

    def test_minimum_three_rows(self):
        lines = "".join(export_profile_csv(ranked_profile(make_zero_graph(3)))).splitlines()
        assert len(lines) == 4

    @staticmethod
    def assert_round_trip(p):
        # row r carries rank r, the r-th edge of the ranking and that edge's
        # efs, which parses back to the same bits
        header, *rows = "".join(export_profile_csv(p)).splitlines()
        assert header == "rank,u,v,efs"
        assert len(rows) == len(p.order)
        for rank, (row, e, k) in enumerate(zip(rows, p.edge_sequence(), p.order), start=1):
            r, u, v, value = row.split(",")
            assert (int(r), int(u), int(v)) == (rank, e.u, e.v)
            assert float(value).hex() == p.efs[k].hex()

    def test_round_trip(self, graph5):
        self.assert_round_trip(ranked_profile(graph5))

    @given(graphs())
    @settings(max_examples=40)
    def test_round_trip_random(self, g):
        self.assert_round_trip(ranked_profile(g))

    def test_vertex_columns_take_four_bytes_a_pair(self):
        # the vertices of each pair come from one array of 4-byte ids, not
        # from a list of labels per pair and column (16 bytes a pair), whose
        # place in the heap moved the peak RSS of `xfs efs` by 4 MB
        rng = random.Random(3)
        n = 600
        m = n * (n - 1) // 2
        efs = memoryview(array("d", (rng.uniform(-1e3, 1e3) for _ in range(m)))).toreadonly()
        order = list(range(m))
        rng.shuffle(order)
        p = RankedProfile(n, memoryview(array("q", order)).toreadonly(), efs)
        tracemalloc.start()
        try:
            lines = sum(block.count("\n") for block in export_profile_csv(p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lines == m + 1
        assert peak < 8 * m, f"peak {peak / m:.1f} bytes a pair"

    @pytest.mark.parametrize("rows", [2, 3])
    def test_blocks_mixing_integral_and_other_values(self, monkeypatch, rows):
        # ranked efs 82.5 x4, 83, 83, 83.5, 83.5, 84.5, 85: with 2 or 3 rows
        # a block, a block holds both kinds of value, and so does a boundary
        monkeypatch.setattr(profile, "_BLOCK_LINES", rows)
        weights = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.5, 10.0)
        p = ranked_profile(CompleteWeightedGraph(5, weights))
        header, *blocks = export_profile_csv(p)
        assert header == "rank,u,v,efs\n"
        assert all(block.endswith("\n") for block in blocks)
        assert max(block.count("\n") for block in blocks) <= rows
        expected = [
            f"{rank},{e.u},{e.v},{format_weight(p.efs[k])}\n"
            for rank, (e, k) in enumerate(zip(p.edge_sequence(), p.order), start=1)
        ]
        assert "".join(blocks) == "".join(expected)
