import pytest
from hypothesis import given, settings, strategies as st

from extrafactorial import (
    CompleteWeightedGraph,
    EdgeKey,
    compare_profiles,
    efs_all,
    export_profile_csv,
    parse_profile_csv,
    random_graph,
    ranked_profile,
)
from extrafactorial.errors import GraphSyntaxError, OrderMismatch
from oracles import make_zero_graph


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

    @given(graphs())
    @settings(max_examples=40)
    def test_is_permutation_of_efs_all(self, g):
        p = ranked_profile(g)
        assert p.efs == efs_all(g)
        assert sorted(p.order) == list(range(len(p.efs)))
        values = [p.efs[k] for k in p.order]
        assert values == sorted(values)


class TestCompareProfiles:
    def test_identity(self, graph4):
        p = ranked_profile(graph4)
        outcome = compare_profiles(p, p)
        assert outcome.same_ranking is True
        assert outcome.scale_factor == 1.0
        assert outcome.max_relative_deviation == 0.0

    def test_halved_copy_n14(self):
        g1 = random_graph(14, 99)
        g2 = g1.scale(0.5)
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


class TestScalingInvariance:
    @pytest.mark.parametrize("c", [0.5, 0.25, 2.0, 8.0])
    def test_positive_scaling_keeps_ranking(self, c):
        g = random_graph(10, 77, -5.0, 5.0)
        p1 = ranked_profile(g)
        p2 = ranked_profile(g.scale(c))
        assert p1.edge_sequence() == p2.edge_sequence()
        outcome = compare_profiles(p1, p2)
        assert outcome.same_ranking is True
        assert outcome.scale_factor == pytest.approx(c, rel=1e-9)

    def test_negation_reverses_ranking(self):
        # tie-free random graph: negation reverses the order exactly
        g = random_graph(9, 31, 1.0, 2.0)
        forward = ranked_profile(g).edge_sequence()
        backward = ranked_profile(g.scale(-1.0)).edge_sequence()
        assert backward == tuple(reversed(forward))

    def test_sample4_tie_groups_under_negation(self, graph4):
        # efs ties (49, 49), (51, 51), (52, 52) stay lexicographic per group
        backward = ranked_profile(graph4.scale(-1.0))
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
        text = export_profile_csv(ranked_profile(graph4))
        lines = text.splitlines()
        assert lines[0] == "rank,u,v,efs"
        assert lines[1] == "1,0,3,49"
        assert len(lines) == 7  # header + 6 data rows

    def test_minimum_three_rows(self):
        lines = export_profile_csv(ranked_profile(make_zero_graph(3))).splitlines()
        assert len(lines) == 4

    def test_round_trip(self, graph5):
        p = ranked_profile(graph5)
        assert parse_profile_csv(export_profile_csv(p)) == p

    @given(graphs())
    @settings(max_examples=40)
    def test_round_trip_random(self, g):
        p = ranked_profile(g)
        assert parse_profile_csv(export_profile_csv(p)) == p

    def test_bad_header(self):
        with pytest.raises(GraphSyntaxError):
            parse_profile_csv("rank,u,v\n1,0,1,5\n")

    def test_bad_row(self):
        with pytest.raises(GraphSyntaxError) as exc:
            parse_profile_csv("rank,u,v,efs\n1,0,1\n")
        assert exc.value.line_no == 2

    def test_incomplete_edge_set(self):
        with pytest.raises(GraphSyntaxError):
            parse_profile_csv("rank,u,v,efs\n1,0,1,5\n2,0,2,6\n")
