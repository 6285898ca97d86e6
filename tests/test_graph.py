import math

import pytest
from hypothesis import given, settings, strategies as st

from extrafactorial import (
    CompleteWeightedGraph,
    EdgeKey,
    build_graph,
    edge_key,
    format_weight,
    parse_graph,
    random_graph,
    serialize_graph,
)
from extrafactorial.errors import (
    BadRange,
    DuplicateEdge,
    GraphSyntaxError,
    MissingEdge,
    NonFiniteScale,
    NonFiniteWeight,
    OrderTooSmall,
    SelfLoop,
    VertexOutOfRange,
)
from oracles import GRAPH4_WEIGHTS, GRAPH5_WEIGHTS, make_zero_graph


def finite_weights(bound=1000.0):
    return st.floats(min_value=-bound, max_value=bound)


@st.composite
def graphs(draw, min_n=3, max_n=7, bound=1000.0):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    ws = draw(st.lists(finite_weights(bound), min_size=m, max_size=m))
    return CompleteWeightedGraph(n, tuple(ws))


class TestEdgeKey:
    def test_normalizes(self):
        assert edge_key(3, 1) == EdgeKey(1, 3)
        assert edge_key(1, 3) == edge_key(3, 1)

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            edge_key(2, 2)

    def test_negative(self):
        with pytest.raises(VertexOutOfRange):
            edge_key(-1, 2)


class TestBuildGraph:
    def test_sample4(self, graph4):
        assert graph4.n == 4
        assert graph4.edge_count == 6
        assert graph4.weight(0, 1) == 12.0
        assert graph4.weight(1, 0) == 12.0  # symmetric lookup
        assert graph4.weight(2, 3) == 2.0

    def test_all_zero(self):
        g = build_graph(3, [((0, 1), 0.0), ((0, 2), 0.0), ((1, 2), 0.0)])
        assert g.total_weight == 0.0

    def test_missing_edge(self):
        entries = list(GRAPH4_WEIGHTS.items())[:5]
        with pytest.raises(MissingEdge):
            build_graph(4, entries)

    def test_order_far_beyond_entries(self):
        # 5e17 pairs promised, one given: no slot per promised pair is allocated
        with pytest.raises(MissingEdge, match=r"no weight for edge \(0, 2\)"):
            build_graph(10**9, [((0, 1), 1.0)])
        # the entries are still validated before the missing pair is named
        with pytest.raises(NonFiniteWeight):
            build_graph(10**9, [((0, 1), math.inf)])
        with pytest.raises(DuplicateEdge):
            build_graph(10**9, [((0, 1), 1.0), ((1, 0), 2.0)])

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            build_graph(2, [((0, 1), 1.0)])

    def test_unnormalized_entries(self):
        g = build_graph(3, [((1, 0), 1.0), ((2, 0), 2.0), ((2, 1), 3.0)])
        assert g.weight(0, 1) == 1.0
        assert g.weight(1, 2) == 3.0

    def test_duplicate_identical_ok(self):
        g = build_graph(
            3, [((0, 1), 1.0), ((0, 2), 2.0), ((1, 2), 3.0), ((1, 0), 1.0)]
        )
        assert g.weight(0, 1) == 1.0

    def test_duplicate_conflicting(self):
        with pytest.raises(DuplicateEdge):
            build_graph(
                3, [((0, 1), 1.0), ((0, 2), 2.0), ((1, 2), 3.0), ((1, 0), 1.5)]
            )

    def test_non_finite(self):
        with pytest.raises(NonFiniteWeight):
            build_graph(3, [((0, 1), math.nan), ((0, 2), 2.0), ((1, 2), 3.0)])
        with pytest.raises(NonFiniteWeight):
            build_graph(3, [((0, 1), math.inf), ((0, 2), 2.0), ((1, 2), 3.0)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            build_graph(3, [((0, 3), 1.0), ((0, 2), 2.0), ((1, 2), 3.0)])


class TestAccess:
    def test_weight_self_loop(self, graph4):
        with pytest.raises(SelfLoop):
            graph4.weight(2, 2)

    def test_weight_out_of_range(self, graph4):
        with pytest.raises(VertexOutOfRange):
            graph4.weight(0, 4)

    def test_sample5_weights(self, graph5):
        assert graph5.weight(0, 1) == 4.0
        assert graph5.weight(3, 2) == 15.0  # the recovered weight

    def test_strengths(self, graph4):
        assert graph4.vertex_strength(0) == 27.0  # 12 + 8 + 7
        assert graph4.vertex_strength(2) == 14.0  # 8 + 4 + 2
        assert make_zero_graph(5).vertex_strength(3) == 0.0
        with pytest.raises(VertexOutOfRange):
            graph4.vertex_strength(4)

    def test_total_weight(self, graph4, graph5):
        assert graph4.total_weight == 38.0
        assert graph5.total_weight == pytest.approx(134.1, rel=1e-12)
        assert make_zero_graph(4).total_weight == 0.0

    def test_edges_order(self, graph4):
        assert list(graph4.edges()) == [
            EdgeKey(0, 1),
            EdgeKey(0, 2),
            EdgeKey(0, 3),
            EdgeKey(1, 2),
            EdgeKey(1, 3),
            EdgeKey(2, 3),
        ]


class TestScale:
    def test_halving(self, graph4):
        h = graph4.scale(0.5)
        assert h.weight(0, 1) == 6.0
        assert h.total_weight == 19.0

    def test_identity(self, graph4):
        assert graph4.scale(1.0) == graph4

    def test_zero(self, graph4):
        assert graph4.scale(0.0) == make_zero_graph(4)

    def test_non_finite_scale(self, graph4):
        with pytest.raises(NonFiniteScale):
            graph4.scale(math.inf)

    @given(graphs(), st.floats(-100, 100))
    @settings(max_examples=50)
    def test_total_scales_linearly(self, g, c):
        assert g.scale(c).total_weight == pytest.approx(
            c * g.total_weight, rel=1e-12, abs=1e-9
        )


class TestStrengthIdentity:
    @given(graphs(bound=1e6))
    @settings(max_examples=50)
    def test_strengths_sum_to_twice_total(self, g):
        lhs = math.fsum(g.strengths)
        rhs = 2.0 * g.total_weight
        scale = max(1.0, 2.0 * math.fsum(abs(w) for w in g.weights))
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestTextFormat:
    def test_parse_minimal(self):
        g = parse_graph("n 3\n0 1 1.5\n0 2 -2\n1 2 0.25")
        assert g.n == 3
        assert g.weight(0, 2) == -2.0

    def test_parse_comments_and_blanks(self):
        text = "# demo\n\nn 3\n2 1 3e-1\n# mid comment\n0 1 1\n0 2 2\n"
        g = parse_graph(text)
        assert g.weight(1, 2) == 0.3

    def test_missing_header(self):
        with pytest.raises(GraphSyntaxError):
            parse_graph("0 1 1.5\n0 2 -2\n1 2 0.25")

    def test_header_line_number(self):
        with pytest.raises(GraphSyntaxError) as exc:
            parse_graph("# c\nnope 3\n")
        assert exc.value.line_no == 2

    def test_bad_edge_line(self):
        with pytest.raises(GraphSyntaxError) as exc:
            parse_graph("n 3\n0 1\n")
        assert exc.value.line_no == 2

    def test_non_integer_vertex(self):
        with pytest.raises(GraphSyntaxError):
            parse_graph("n 3\n0.5 1 1\n0 2 1\n1 2 1\n")

    def test_nan_weight_rejected(self):
        with pytest.raises(NonFiniteWeight):
            parse_graph("n 3\n0 1 nan\n0 2 1\n1 2 1\n")

    def test_round_trip_sample(self, graph4):
        assert parse_graph(serialize_graph(graph4)) == graph4

    def test_serialized_shape(self, graph4):
        lines = serialize_graph(graph4).splitlines()
        assert lines[0] == "n 4"
        assert lines[1] == "0 1 12"
        assert len(lines) == 7

    @given(graphs(bound=1e9))
    @settings(max_examples=50)
    def test_round_trip_random(self, g):
        assert parse_graph(serialize_graph(g)) == g

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200)
    def test_format_weight_round_trips(self, x):
        assert float(format_weight(x)) == x


class TestRandomGraph:
    def test_edge_count_n14(self):
        assert random_graph(14, 1).edge_count == 91

    def test_deterministic(self):
        assert random_graph(9, 123, -5, 5) == random_graph(9, 123, -5, 5)

    def test_seed_changes_weights(self):
        assert random_graph(9, 1) != random_graph(9, 2)

    def test_range(self):
        g = random_graph(6, 7, 0.0, 1.0)
        assert all(0.0 <= w <= 1.0 for w in g.weights)

    def test_bad_range(self):
        with pytest.raises(BadRange):
            random_graph(5, 1, 2.0, 1.0)

    def test_order_far_beyond_entries(self):
        # 5e17 pairs promised, one given: no slot per promised pair is allocated
        with pytest.raises(MissingEdge, match=r"no weight for edge \(0, 2\)"):
            build_graph(10**9, [((0, 1), 1.0)])
        # the entries are still validated before the missing pair is named
        with pytest.raises(NonFiniteWeight):
            build_graph(10**9, [((0, 1), math.inf)])
        with pytest.raises(DuplicateEdge):
            build_graph(10**9, [((0, 1), 1.0), ((1, 0), 2.0)])

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            random_graph(2, 1)
