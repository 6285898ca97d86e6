import math
import random
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from extrafactorial import (
    CompleteWeightedGraph,
    EdgeKey,
    brute_force_sum_through,
    count_all,
    count_through_edge,
    cycle_length,
    derived_graph,
    edge_statistics,
    efs_all,
    enumerate_all,
    extra_factorial_sum,
    mean_length_all,
    mean_length_not_through,
    mean_length_through,
    mean_squared_length,
    random_graph,
    summational_graph,
)
from extrafactorial.errors import (
    FactorialOverflow,
    NoComplementCycles,
    NonFiniteWeight,
    SelfLoop,
    VertexOutOfRange,
)
from extrafactorial.graph import pairs
from oracles import (
    cycle_edge_set,
    efs_breakdown_explicit,
    make_graph5,
    make_uniform_graph,
    make_zero_graph,
    oracle_cycles,
    oracle_mean_all,
    oracle_mean_not_through,
    oracle_mean_squared,
    oracle_sum_through,
    rel_close,
    scale_graph,
    subset_sums,
)


def finite_weights(bound=100.0):
    return st.floats(min_value=-bound, max_value=bound)


@st.composite
def graphs(draw, min_n=3, max_n=6, bound=100.0, weights=None):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    if weights is None:
        weights = finite_weights(bound)
    ws = draw(st.lists(weights, min_size=m, max_size=m))
    return CompleteWeightedGraph(n, tuple(ws))


#: Both zeros, the least subnormals and values whose sums cancel or overflow.
SIGNED_EXTREMES = [
    s * x for x in (0.0, 5e-324, 1.0, 2.5, 1e16, 1.7e308) for s in (1.0, -1.0)
]


def is_negative_zero(x: float) -> bool:
    return x == 0.0 and math.copysign(1.0, x) < 0


class TestBreakdown:
    def test_sample4_edge01(self, graph4):
        bd = edge_statistics(graph4, (0, 1))
        assert (bd.x1, bd.x2, bd.x3, bd.efs) == (12.0, 24.0, 2.0, 52.0)

    def test_sample5_edge01(self, graph5):
        bd = edge_statistics(graph5, (0, 1))
        assert bd.x1 == 4.0
        assert bd.x2 == pytest.approx(75.1, rel=1e-9)
        assert bd.x3 == pytest.approx(55.0, rel=1e-9)
        assert bd.efs == pytest.approx(197.1, rel=1e-9)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_uniform_weights(self, n):
        w = 2.5
        g = make_uniform_graph(n, w)
        for e in g.edges():
            assert extra_factorial_sum(g, e) == pytest.approx(n * (n - 2) * w, rel=1e-12)
            assert mean_length_through(g, e) == pytest.approx(n * w, rel=1e-12)

    def test_errors(self, graph4):
        with pytest.raises(SelfLoop):
            edge_statistics(graph4, (1, 1))
        with pytest.raises(VertexOutOfRange):
            edge_statistics(graph4, (0, 4))

    @given(graphs())
    @settings(max_examples=60)
    def test_partition_sums_to_total(self, g):
        for e in g.edges():
            bd = edge_statistics(g, e)
            assert bd.x1 + bd.x2 + bd.x3 == pytest.approx(
                g.total_weight, rel=1e-9, abs=1e-9
            )

    @given(graphs(max_n=5))
    @settings(max_examples=30)
    def test_explicit_form_agrees(self, g):
        for e in g.edges():
            fast = edge_statistics(g, e)
            explicit = efs_breakdown_explicit(g, e)
            assert fast.efs == pytest.approx(explicit.efs, rel=1e-9, abs=1e-9)
            assert fast.x2 == pytest.approx(explicit.x2, rel=1e-9, abs=1e-9)
            assert fast.x3 == pytest.approx(explicit.x3, rel=1e-9, abs=1e-9)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", range(4, 7))
    def test_efs_matches_enumeration(self, n):
        for seed in range(5):
            g = random_graph(n, seed, -10.0, 10.0)
            shrink = math.factorial(n - 3)
            for e in g.edges():
                oracle = oracle_sum_through(g, e)
                assert rel_close(extra_factorial_sum(g, e) * shrink, oracle)
                assert rel_close(brute_force_sum_through(g, e), oracle)

    @given(graphs(min_n=4, max_n=5, bound=50.0))
    @settings(max_examples=40, deadline=None)
    def test_efs_matches_enumeration_property(self, g):
        shrink = math.factorial(g.n - 3)
        for e in g.edges():
            assert rel_close(
                extra_factorial_sum(g, e) * shrink, oracle_sum_through(g, e)
            )


def integer_graph(n: int, seed: int) -> CompleteWeightedGraph:
    rng = random.Random(seed)
    return CompleteWeightedGraph(n, [rng.randint(-50, 50) for _ in range(n * (n - 1) // 2)])


class TestSubsetSums:
    """The subset-DP oracle, checked against the permutations oracle where
    cycles can be listed, then used beyond that reach with exact equality."""

    @pytest.mark.parametrize("n", range(4, 9))
    def test_matches_the_permutation_oracle(self, n):
        g = integer_graph(n, n)
        expected = {e: [0, 0, 0] for e in pairs(n)}
        for c in oracle_cycles(n):
            edges = cycle_edge_set(c)
            length = sum(int(g.weight(*e)) for e in edges)
            for e in edges:
                sums = expected[e]
                sums[0] += 1
                sums[1] += length
                sums[2] += length * length
        assert subset_sums(g) == {e: tuple(sums) for e, sums in expected.items()}

    @pytest.mark.parametrize("n", [11, 12, 13])
    def test_closed_forms_beyond_enumeration(self, n):
        g = integer_graph(n, n)
        sums = subset_sums(g)
        assert sorted(sums) == list(pairs(n))
        through, shrink = math.factorial(n - 2), math.factorial(n - 3)
        for e, efs in zip(pairs(n), efs_all(g)):
            assert sums[e].count == through, e
            assert Fraction(efs) * shrink == sums[e].total, e
        # each cycle has two edges at vertex n-1
        ends = [sums[(v, n - 1)] for v in range(n - 1)]
        cycles = sum(t.count for t in ends) // 2
        assert cycles == count_all(n)
        # the closed forms are correctly rounded on these weights
        total = Fraction(sum(t.total for t in ends), 2 * cycles)
        squares = Fraction(sum(t.squares for t in ends), 2 * cycles)
        assert mean_length_all(g) == float(total)
        assert mean_squared_length(g) == float(squares)


class TestEfsAll:
    def test_sample4_values(self, graph4):
        table = dict(zip(graph4.edges(), efs_all(graph4)))
        assert table == {
            (0, 1): 52.0,
            (0, 2): 51.0,
            (0, 3): 49.0,
            (1, 2): 49.0,
            (1, 3): 51.0,
            (2, 3): 52.0,
        }

    def test_entry_count_n14(self):
        assert len(efs_all(random_graph(14, 3))) == 91

    def test_zero_graph(self):
        assert all(efs == 0.0 for efs in efs_all(make_zero_graph(6)))

    @given(graphs(max_n=7))
    @example(make_graph5())
    @settings(max_examples=100)
    def test_agrees_with_single_edge_path(self, g):
        table = efs_all(g)
        assert len(table) == g.edge_count
        for k, e in enumerate(g.edges()):
            # bit-equal: one formula, same arithmetic order on both paths
            assert table[k].hex() == edge_statistics(g, e).efs.hex()

    @given(graphs(max_n=8, weights=st.sampled_from(SIGNED_EXTREMES)))
    @example(make_uniform_graph(3, -0.0))
    @example(make_uniform_graph(12, -0.0))
    @settings(max_examples=200)
    def test_no_efs_is_negative_zero(self, g):
        # the profile CSV writes an efs as its repr less a trailing ".0",
        # which is format_weight's text for every finite value but -0.0.
        # (n-2)w is -0.0 only when w is; then (S_u + S_v) - 2w is not, and
        # neither is the sum
        try:
            table = efs_all(g)
        except OverflowError:
            assume(False)
        assert not any(map(is_negative_zero, table))
        for e in g.edges():
            try:
                x = edge_statistics(g, e).efs
            except OverflowError:
                # the mean of the cycles avoiding e left the double range
                x = extra_factorial_sum(g, e)
            assert not is_negative_zero(x)

    def test_non_finite_efs_raises_overflow(self):
        # finite weights; only efs(0, 2) = 2w and efs(1, 3) = 2 * x3 = 2w
        # leave the double range
        g = CompleteWeightedGraph(4, (0.0, 1.7e308, 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(OverflowError, match=r"^efs of edge \(0, 2\) overflows"):
            efs_all(g)
        for e in g.edges():
            if e in ((0, 2), (1, 3)):
                with pytest.raises(OverflowError, match=rf"^efs of edge \({e.u}, {e.v}\)"):
                    edge_statistics(g, e)
            else:
                # edge_statistics raises here: (n-2) * W overflows, so the
                # mean of the cycles avoiding e does
                assert math.isfinite(extra_factorial_sum(g, e))


class TestSummationalGraph:
    def test_sample5_multipliers(self, graph5):
        sg = summational_graph(graph5, (0, 1))
        assert sg.weight(0, 1) == 24.0  # 6 * 4, the edge itself
        assert sg.weight(0, 4) == 1.0  # 2 * 0.5, intersecting
        assert sg.weight(3, 4) == 28.0  # 4 * 7, disjoint
        assert sg.total_weight == pytest.approx(394.2, rel=1e-9)

    def test_sample4(self, graph4):
        sg = summational_graph(graph4, (0, 1))
        assert sg.weight(0, 1) == 24.0
        # (n-3)! = 1 leaves intersecting weights unchanged
        assert sg.weight(0, 2) == graph4.weight(0, 2)
        assert sg.weight(2, 3) == 2.0 * graph4.weight(2, 3)
        assert sg.total_weight == pytest.approx(52.0, rel=1e-9)

    def test_order3_unchanged(self):
        g = make_uniform_graph(3, 1.5)
        sg = summational_graph(g, (0, 1))
        assert all(sg.weight(*e) == g.weight(*e) for e in g.edges())

    def test_total_matches_brute_force(self):
        for n in range(4, 7):
            g = random_graph(n, n, -5.0, 5.0)
            for e in g.edges():
                assert rel_close(
                    summational_graph(g, e).total_weight,
                    brute_force_sum_through(g, e),
                )

    def test_factorial_overflow(self):
        g = make_zero_graph(173)
        with pytest.raises(FactorialOverflow):
            summational_graph(g, (0, 1))
        # order 172's largest multiplier, 170! ~ 7.3e306, still fits in a double
        assert summational_graph(make_zero_graph(172), (0, 1)).total_weight == 0.0

    def test_overflowing_product_is_non_finite_weight(self):
        # 7! * 1e305 exceeds the double range
        g = CompleteWeightedGraph(9, (1e305,) * 36)
        with pytest.raises(
            NonFiniteWeight, match=r"^weight inf for edge \(0, 1\) is not finite$"
        ):
            summational_graph(g, (0, 1))

    @given(graphs(), st.data())
    @settings(max_examples=100)
    def test_each_weight_times_its_class_multiplier(self, g, data):
        e = data.draw(st.sampled_from(list(g.edges())))
        through, touching = math.factorial(g.n - 2), math.factorial(g.n - 3)
        expected = [
            w * (through if len(set(e) & set(other)) == 2
                 else touching if set(e) & set(other) else 2 * touching)
            for other, w in zip(g.edges(), g.weights)
        ]
        got = summational_graph(g, e).weights.tolist()
        assert list(map(float.hex, got)) == list(map(float.hex, expected))


class TestMeans:
    def test_mean_through_sample4(self, graph4):
        expected = {
            (0, 1): 26.0,
            (0, 2): 25.5,
            (0, 3): 24.5,
            (1, 2): 24.5,
            (1, 3): 25.5,
            (2, 3): 26.0,
        }
        for e, value in expected.items():
            assert mean_length_through(graph4, e) == pytest.approx(value, rel=1e-9)

    def test_mean_through_sample5(self, graph5):
        assert mean_length_through(graph5, (0, 1)) == pytest.approx(65.7, rel=1e-9)

    def test_mean_all(self, graph4, graph5):
        assert mean_length_all(graph4) == pytest.approx(76.0 / 3.0, rel=1e-12)
        assert mean_length_all(graph5) == pytest.approx(67.05, rel=1e-9)
        assert mean_length_all(make_uniform_graph(6, 2.0)) == pytest.approx(12.0)

    def test_mean_all_of_a_total_above_half_the_double_range(self):
        # W = 1e308 is finite but 2 * W is not; the mean 2 * W / 5 is 4e307
        g = CompleteWeightedGraph(6, (1e308,) + (0.0,) * 14)
        assert mean_length_all(g) == float(Fraction(1e308) * 2 / 5) == 4e307

    @pytest.mark.parametrize("n", range(4, 7))
    def test_mean_all_matches_oracle(self, n):
        g = random_graph(n, 11 * n, -3.0, 9.0)
        assert rel_close(mean_length_all(g), oracle_mean_all(g))

    def test_mean_not_through_sample4(self, graph4):
        # the single avoiding cycle for edge (0, 1) has length 24
        assert mean_length_not_through(graph4, (0, 1)) == pytest.approx(24.0, rel=1e-9)

    def test_mean_not_through_sample5(self, graph5):
        assert mean_length_not_through(graph5, (0, 1)) == pytest.approx(68.4, rel=1e-9)

    def test_mean_not_through_matches_oracle(self):
        for n in range(4, 7):
            g = random_graph(n, 7 * n, -4.0, 4.0)
            for e in g.edges():
                assert rel_close(
                    mean_length_not_through(g, e), oracle_mean_not_through(g, e)
                )

    def test_mean_not_through_overflow(self):
        # (n-2) * W overflows although the weights, the efs and the mean of the
        # cycles through (0, 1) are finite
        g = CompleteWeightedGraph(4, (0.0, 1.7e308, 0.0, 0.0, 0.0, 0.0))
        message = r"^mean_not_through of edge \(0, 1\) overflows the double range$"
        with pytest.raises(OverflowError, match=message):
            mean_length_not_through(g, (1, 0))
        assert extra_factorial_sum(g, (0, 1)) == 1.7e308
        assert mean_length_through(g, (0, 1)) == 8.5e307
        with pytest.raises(OverflowError, match=message):
            edge_statistics(g, (0, 1))

    def test_no_complement_at_order3(self):
        with pytest.raises(NoComplementCycles):
            mean_length_not_through(make_uniform_graph(3, 1.0), (0, 1))

    @given(graphs(min_n=4))
    @settings(max_examples=40)
    def test_through_and_complement_recombine(self, g):
        # weighted recombination of the two conditional means gives the global mean
        n = g.n
        n_through = count_through_edge(n)
        n_all = count_all(n)
        n_not = n_all - n_through
        for e in g.edges():
            combined = (
                n_through * mean_length_through(g, e)
                + n_not * mean_length_not_through(g, e)
            ) / n_all
            assert combined == pytest.approx(mean_length_all(g), rel=1e-9, abs=1e-9)

    def test_edge_statistics(self, graph4):
        stats = edge_statistics(graph4, (0, 1))
        assert stats.edge == EdgeKey(0, 1)
        assert stats.efs == pytest.approx(52.0)
        assert stats.mean_through == pytest.approx(26.0)
        assert stats.mean_not_through == pytest.approx(24.0)
        assert edge_statistics(make_uniform_graph(3, 1.0), (0, 1)).mean_not_through is None


class TestDerivedGraph:
    def test_sample4_weights(self, graph4):
        d = derived_graph(graph4)
        assert d.weight(0, 1) == pytest.approx(312.0, rel=1e-9)  # 12 * 26
        assert d.weight(2, 3) == pytest.approx(52.0, rel=1e-9)  # 2 * 26
        assert d.weight(0, 2) == pytest.approx(204.0, rel=1e-9)

    def test_zero_graph(self):
        assert derived_graph(make_zero_graph(5)) == make_zero_graph(5)

    def test_sample4_length_sum(self, graph4):
        d = derived_graph(graph4)
        total = math.fsum(cycle_length(d, c) for c in enumerate_all(4))
        assert total == pytest.approx(1930.0, rel=1e-9)

    @pytest.mark.parametrize("n", range(4, 7))
    def test_length_sum_equals_squared_sum(self, n):
        g = random_graph(n, 5 * n + 1, -2.0, 6.0)
        d = derived_graph(g)
        derived_total = math.fsum(cycle_length(d, c) for c in enumerate_all(n))
        squared_total = math.fsum(
            cycle_length(g, c) ** 2 for c in enumerate_all(n)
        )
        assert rel_close(derived_total, squared_total)


class TestMeanSquared:
    def test_sample4(self, graph4):
        assert mean_squared_length(graph4) == pytest.approx(1930.0 / 3.0, rel=1e-9)

    def test_zero_graph(self):
        assert mean_squared_length(make_zero_graph(7)) == 0.0

    def test_sample5_matches_oracle(self, graph5):
        oracle = oracle_mean_squared(graph5)
        assert oracle == pytest.approx(4738.205, rel=1e-9)
        assert mean_squared_length(graph5) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("n", range(4, 8))
    def test_matches_oracle(self, n):
        g = random_graph(n, 13 * n, -8.0, 8.0)
        assert rel_close(mean_squared_length(g), oracle_mean_squared(g))

    @pytest.mark.parametrize(
        "n, weights",
        [
            # every product w * efs is 3e400
            (3, [1e200] * 3),
            # products of both signs beyond the double range
            (4, [1e200] * 5 + [-1e200]),
            # finite products 1.28e308 whose mean 2.56e308 does not fit
            (4, [4e153] * 6),
        ],
        ids=["inf", "inf-and-minus-inf", "mean"],
    )
    def test_overflow_raises_naming_the_quantity(self, n, weights):
        g = CompleteWeightedGraph(n, weights)
        with pytest.raises(OverflowError, match=r"^mean_squared_length overflows the double range$"):
            mean_squared_length(g)

    @pytest.mark.parametrize(
        "n, weights",
        [
            # products 7.2e307 whose sum 4.32e308 leaves the double range,
            # though the mean 1.44e308 does not
            (4, [3e153] * 6),
            # products 5.04e307 whose sum 1.51e308 is the mean, but its
            # double is beyond the double range
            (3, [4.1e153] * 3),
        ],
        ids=["sum", "doubled-sum"],
    )
    def test_mean_in_range_though_a_sum_is_not(self, n, weights):
        g = CompleteWeightedGraph(n, weights)
        products = map(Fraction, map(mul, g.weights, efs_all(g)))
        exact = 2 * sum(products) / ((n - 1) * (n - 2))
        assert mean_squared_length(g) == float(exact)

    @given(graphs(min_n=3, max_n=6))
    @settings(max_examples=40)
    def test_variance_non_negative(self, g):
        mean = mean_length_all(g)
        assert mean_squared_length(g) >= mean * mean - 1e-9 * (1.0 + mean * mean)


class TestScaling:
    @pytest.mark.parametrize("c", [0.5, 2.0, -1.0])
    def test_efs_scales_exactly_for_dyadic_factors(self, graph5, c):
        scaled = scale_graph(graph5, c)
        for e in graph5.edges():
            assert extra_factorial_sum(scaled, e) == c * extra_factorial_sum(graph5, e)

    @given(graphs(), st.floats(min_value=-50, max_value=50))
    @settings(max_examples=40)
    def test_efs_scales_linearly(self, g, c):
        scaled = scale_graph(g, c)
        for e in g.edges():
            assert extra_factorial_sum(scaled, e) == pytest.approx(
                c * extra_factorial_sum(g, e), rel=1e-12, abs=1e-9
            )
