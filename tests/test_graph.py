import math
import tracemalloc
from contextlib import contextmanager
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

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
    NonFiniteWeight,
    OrderTooSmall,
    SelfLoop,
    VertexOutOfRange,
    XfsError,
)
from extrafactorial import graph
from extrafactorial.graph import _pair_index, pairs
from oracles import (
    GRAPH4_WEIGHTS,
    build_graph_slots,
    make_zero_graph,
    read_lines,
    scale_graph,
    strengths_loop,
)


def finite_weights(bound=1000.0):
    return st.floats(min_value=-bound, max_value=bound)


@st.composite
def graphs(draw, min_n=3, max_n=7, bound=1000.0, weights=None):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    if weights is None:
        weights = finite_weights(bound)
    ws = draw(st.lists(weights, min_size=m, max_size=m))
    return CompleteWeightedGraph(n, tuple(ws))


#: Few values, so that repeats are often equal; both zeros, so that which
#: of two equal repeats is kept shows.
REPEATING_WEIGHTS = st.sampled_from([0.0, -0.0, 1.0, 2.5])
ANY_WEIGHTS = st.one_of(
    REPEATING_WEIGHTS, st.sampled_from([math.nan, math.inf, -math.inf]), st.floats()
)
EDITS = ("drop", "repeat", "move", "flip", "loop", "high", "negative", "weight")


@st.composite
def entry_lists(draw):
    """(n, entries) for ``build_graph``.

    Starts from every pair of an order-k graph in row-major order, then
    applies a few edits: a pair dropped, repeated with the same or the negated
    weight, moved, given as (v, u) or any float, NaN and infinities included,
    or a self-loop or an out-of-range pair inserted. The list is then kept in
    order or shuffled. n is k half of the time, else near k, below 3 or far
    beyond k.
    """
    k = draw(st.integers(3, 6))
    entries = [((u, v), draw(REPEATING_WEIGHTS)) for u in range(k) for v in range(u + 1, k)]
    edits = st.tuples(
        st.sampled_from(EDITS), st.integers(0, 99), st.integers(0, 99), st.booleans(), ANY_WEIGHTS
    )
    for edit, i, j, same, w in draw(st.lists(edits, max_size=5)):
        if not entries:
            break
        i %= len(entries)
        j %= len(entries) + 1
        (u, v), x = entries[i]
        if edit == "drop":
            del entries[i]
        elif edit == "repeat":
            # negated, a weight conflicts, or for a zero equals with the other sign
            entries.insert(j, ((u, v), x if same else -x))
        elif edit == "move":
            entries.insert(j, entries.pop(i))
        elif edit == "flip":
            entries[i] = ((v, u), x)
        elif edit == "loop":
            entries.insert(j, ((v, v), x))
        elif edit == "high":
            entries.insert(j, ((v, k + i % 2), x))
        elif edit == "negative":
            entries.insert(j, ((-1, v), x))
        else:
            entries[i] = ((u, v), w)
    if draw(st.booleans()):
        entries = draw(st.permutations(entries))
    n = draw(st.one_of(st.just(k), st.sampled_from([2, k - 1, k + 1, 10**9])))
    return n, entries


def build_from_entries(n, entries):
    """``build_graph`` on the three columns of ((u, v), weight) entries."""
    us = [u for (u, _), _ in entries]
    vs = [v for (_, v), _ in entries]
    return build_graph(n, us, vs, [w for _, w in entries])


def build_outcome(build, n, entries):
    """The graph's order and exact weights, or the error's type and message."""
    try:
        g = build(n, entries)
    except XfsError as exc:
        return type(exc), str(exc)
    return g.n, [w.hex() for w in g.weights]


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

    @pytest.mark.parametrize("u, v", [(0.5, 1), (1, 2.0), ("0", 1)])
    def test_non_integer(self, u, v):
        with pytest.raises(TypeError) as info:
            edge_key(u, v)
        assert str(info.value) == f"vertex ids must be integers, got ({u!r}, {v!r})"

    @pytest.mark.parametrize("u, v", [(True, 2), (2, True), (False, True)])
    def test_bool_ids_become_ints(self, u, v):
        # a bool is an int, so it is accepted, but stored as 0 or 1
        key = edge_key(u, v)
        assert key == tuple(sorted((int(u), int(v))))
        assert (type(key.u), type(key.v)) == (int, int)
        assert repr(key) == f"EdgeKey(u={key.u}, v={key.v})"


class TestBuildGraph:
    def test_sample4(self, graph4):
        assert graph4.n == 4
        assert graph4.edge_count == 6
        assert graph4.weight(0, 1) == 12.0
        assert graph4.weight(1, 0) == 12.0  # symmetric lookup
        assert graph4.weight(2, 3) == 2.0

    def test_all_zero(self):
        g = build_graph(3, [0, 0, 1], [1, 2, 2], [0.0, 0.0, 0.0])
        assert g.total_weight == 0.0

    def test_missing_edge(self):
        entries = list(GRAPH4_WEIGHTS.items())[:5]
        with pytest.raises(MissingEdge, match=r"no weight for edge \(2, 3\)"):
            build_from_entries(4, entries)
        with pytest.raises(MissingEdge, match=r"^order 4 needs 6 weights, got 5$"):
            CompleteWeightedGraph(4, (1.0,) * 5)

    def test_order_far_beyond_entries(self):
        # 5e17 pairs promised, one given: no slot per promised pair is allocated
        with pytest.raises(MissingEdge, match=r"no weight for edge \(0, 2\)"):
            build_graph(10**9, [0], [1], [1.0])
        # the entries are still validated before the missing pair is named
        with pytest.raises(NonFiniteWeight):
            build_graph(10**9, [0], [1], [math.inf])
        with pytest.raises(DuplicateEdge):
            build_graph(10**9, [0, 1], [1, 0], [1.0, 2.0])

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            build_graph(2, [0], [1], [1.0])
        with pytest.raises(OrderTooSmall):
            CompleteWeightedGraph(2, (1.0,))

    @pytest.mark.parametrize(
        "n, error", [(3.0, TypeError), (3.5, TypeError), (True, OrderTooSmall)]
    )
    def test_order_must_be_an_integer(self, n, error):
        # 3.0 would pass every other check and leave ``strengths`` to fail
        with pytest.raises(error):
            CompleteWeightedGraph(n, (1.0, 2.0, 3.0))

    def test_unequal_columns(self):
        # zip would drop the tail of the longer columns; the lengths are checked
        # before any entry is read, so the self-loop (5, 5) is not reported
        cases = [
            ([0, 0], [1, 2], [1.0]),
            ([0], [1, 2], [1.0, 2.0]),
            ([0, 0, 1, 5], [1, 2, 2, 5], [1.0, 2.0, 3.0]),
        ]
        for us, vs, ws in cases:
            with pytest.raises(ValueError, match=r"^columns of lengths \d, \d and \d differ$"):
                build_graph(3, us, vs, ws)

    def test_unnormalized_entries(self):
        g = build_graph(3, [1, 2, 2], [0, 0, 1], [1.0, 2.0, 3.0])
        assert g.weight(0, 1) == 1.0
        assert g.weight(1, 2) == 3.0

    def test_duplicate_identical_ok(self):
        g = build_graph(3, [0, 0, 1, 1], [1, 2, 2, 0], [1.0, 2.0, 3.0, 1.0])
        assert g.weight(0, 1) == 1.0

    def test_duplicate_conflicting(self):
        with pytest.raises(DuplicateEdge):
            build_graph(3, [0, 0, 1, 1], [1, 2, 2, 0], [1.0, 2.0, 3.0, 1.5])
        # (0, 2) first arrives out of row-major order, then in it
        with pytest.raises(DuplicateEdge, match=r"edge \(0, 2\) given twice with 2.0 and 2.5"):
            build_graph(3, [0, 0, 0, 1], [2, 1, 2, 2], [2.0, 1.0, 2.5, 3.0])

    def test_row_major_columns_are_taken_as_they_are(self):
        g = random_graph(40, 3)
        # no pair is normalized, so the shortcut took them
        with mock.patch.object(graph, "edge_key", side_effect=AssertionError):
            assert parse_graph(serialize_graph(g)) == g

    def test_reversed_columns_go_through_the_loop(self):
        g = random_graph(40, 3)
        header, *lines = serialize_graph(g).splitlines(keepends=True)
        with mock.patch.object(graph, "edge_key", wraps=graph.edge_key) as spy:
            h = parse_graph("".join([header, *reversed(lines)]))
        assert spy.call_count == g.edge_count
        assert [w.hex() for w in h.weights] == [w.hex() for w in g.weights]

    @given(entry_lists())
    @settings(max_examples=500)
    def test_matches_slot_table_reference(self, case):
        n, entries = case
        assert build_outcome(build_from_entries, n, entries) == build_outcome(
            build_graph_slots, n, entries
        )

    def test_non_finite(self):
        with pytest.raises(NonFiniteWeight):
            build_graph(3, [0, 0, 1], [1, 2, 2], [math.nan, 2.0, 3.0])
        with pytest.raises(NonFiniteWeight):
            build_graph(3, [0, 0, 1], [1, 2, 2], [math.inf, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("k", [0, 4, 9])
    def test_non_finite_named_alike_in_either_column_order(self, k, bad):
        # row-major columns reach the constructor's check, reversed ones the
        # dict loop's; both name the pair in the same words
        n = 5
        us, vs = map(list, zip(*pairs(n)))
        ws = [float(i) for i in range(1, 11)]
        ws[k] = bad
        u, v = us[k], vs[k]
        message = f"^weight {bad!r} for edge \\({u}, {v}\\) is not finite$"
        with pytest.raises(NonFiniteWeight, match=message):
            build_graph(n, us, vs, ws)
        with pytest.raises(NonFiniteWeight, match=message):
            build_graph(n, us[::-1], vs[::-1], ws[::-1])
        with pytest.raises(NonFiniteWeight, match=message):
            CompleteWeightedGraph(n, ws)

    def test_constructor_names_the_first_non_finite_pair(self):
        with pytest.raises(
            NonFiniteWeight, match=r"^weight nan for edge \(0, 2\) is not finite$"
        ):
            CompleteWeightedGraph(3, (1.0, math.nan, math.inf))

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            build_graph(3, [0, 0, 1], [3, 2, 2], [1.0, 2.0, 3.0])
        # the pair after the last one, once every pair has its weight
        with pytest.raises(VertexOutOfRange, match=r"vertex 3 not in \[0, 3\)"):
            build_graph(3, [0, 0, 1, 2], [1, 2, 2, 3], [1.0, 2.0, 3.0, 1.0])


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
        assert graph4.strengths[0] == 27.0  # 12 + 8 + 7
        assert graph4.strengths[2] == 14.0  # 8 + 4 + 2
        assert make_zero_graph(5).strengths[3] == 0.0

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


#: Weights whose bits a copy can lose: both zeros and subnormals.
SIGNED_TINY_WEIGHTS = st.one_of(
    finite_weights(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072009e-308]),
)


class TestLayout:
    @pytest.mark.parametrize("n", range(3, 41))
    def test_pair_index_inverts_pairs(self, n):
        assert [_pair_index(n, u, v) for u, v in pairs(n)] == list(range(n * (n - 1) // 2))

    @given(graphs(weights=SIGNED_TINY_WEIGHTS))
    @settings(max_examples=100)
    def test_matrix_holds_each_weight_both_ways(self, g):
        for u, v in pairs(g.n):
            expected = float.hex(g.weight(u, v))
            assert float.hex(g.matrix[u][v]) == expected
            assert float.hex(g.matrix[v][u]) == expected
        assert [float.hex(g.matrix[v][v]) for v in range(g.n)] == [float.hex(0.0)] * g.n


class TestScale:
    def test_halving(self, graph4):
        h = scale_graph(graph4, 0.5)
        assert h.weight(0, 1) == 6.0
        assert h.total_weight == 19.0

    def test_identity(self, graph4):
        assert scale_graph(graph4, 1.0) == graph4

    def test_zero(self, graph4):
        assert scale_graph(graph4, 0.0) == make_zero_graph(4)

    def test_non_finite_scale(self, graph4):
        with pytest.raises(NonFiniteWeight):
            scale_graph(graph4, math.inf)

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_non_finite_factor_names_the_first_pair(self, graph4, c):
        # every product is infinite or NaN, 0 * inf included, so the
        # constructor names pair (0, 1), whatever the weights
        for g in (graph4, make_zero_graph(4)):
            with pytest.raises(NonFiniteWeight, match=r" for edge \(0, 1\) is not finite$"):
                scale_graph(g, c)

    def test_overflowing_product_names_its_pair(self):
        g = CompleteWeightedGraph(4, (1.0, 2.0, 1e300, 3.0, -1e300, 4.0))
        with pytest.raises(
            NonFiniteWeight, match=r"^weight inf for edge \(0, 3\) is not finite$"
        ):
            scale_graph(g, 1e10)

    @given(graphs(), st.floats(-100, 100))
    @settings(max_examples=50)
    def test_total_scales_linearly(self, g, c):
        assert scale_graph(g, c).total_weight == pytest.approx(
            c * g.total_weight, rel=1e-12, abs=1e-9
        )


#: Weights whose sums overflow, cancel, or lose bits when added out of order.
STRENGTH_WEIGHTS = st.one_of(
    SIGNED_TINY_WEIGHTS,
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 1e16, -1e16, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestRows:
    @given(graphs(max_n=9))
    @settings(max_examples=100)
    def test_rows_are_the_pairs_of_each_vertex(self, g):
        rows = list(g.rows())
        assert len(rows) == g.n - 1
        for u, row in enumerate(rows):
            assert tuple(row) == tuple(g.weight(u, v) for v in range(u + 1, g.n))
        assert tuple(chain.from_iterable(rows)) == tuple(g.weights)


class TestStrengthIdentity:
    @given(graphs(max_n=9, weights=STRENGTH_WEIGHTS))
    @settings(max_examples=300)
    def test_matches_pair_loop(self, g):
        assert list(map(float.hex, g.strengths)) == list(map(float.hex, strengths_loop(g)))

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

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            # the stripped line keeps its inner tabs and repeated spaces
            ("n 3\n0 1 1\n \t0\t2   two \t\n1 2 1\n", 3, "line 3: bad edge line '0\\t2   two'"),
            ("n 3\n0 1 1\n0 2\n1 2 1\n", 3, "line 3: expected '<u> <v> <weight>'"),
            # the first offending line wins over a later one
            ("n 3\n0 1 x\n0 2\n", 2, "line 2: bad edge line '0 1 x'"),
            ("# head\r\n\r\nn 3\r\n0 1 1\r\n# c\r\n\r\n0 2 y\r\n", 7, "line 7: bad edge line '0 2 y'"),
            ("n three\n0 1 1\n", 1, "line 1: bad order 'three'"),
            ("# only a comment\n\n", 2, "line 2: missing 'n <order>' header"),
            ("", 1, "line 1: missing 'n <order>' header"),
        ],
    )
    def test_syntax_error_contract(self, text, line_no, message):
        with pytest.raises(GraphSyntaxError) as exc:
            parse_graph(text)
        assert exc.value.line_no == line_no
        assert str(exc.value) == message

    def test_crlf_comments_and_blanks(self):
        text = "# head\r\n\r\nn 3\r\n0 1 1\r\n# c\r\n\r\n2 0 2.5\r\n1 2 -3\r\n"
        assert parse_graph(text) == CompleteWeightedGraph(3, (1.0, 2.5, -3.0))

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

    def test_serialize_peak_memory(self):
        # a string per line, all alive at once, would take over 4x the text
        g = random_graph(300, 1)
        tracemalloc.start()
        try:
            text = serialize_graph(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)

    def test_serialize_int_weights(self):
        # weights are stored as doubles, so 10**17 is written as the float
        # 1e+17, which parses back to the same graph
        g = CompleteWeightedGraph(3, (1, -2, 10**17))
        text = serialize_graph(g)
        assert text == "n 3\n0 1 1\n0 2 -2\n1 2 1e+17\n"
        assert parse_graph(text) == g

    @given(graphs(bound=1e9))
    @settings(max_examples=50)
    def test_round_trip_random(self, g):
        assert parse_graph(serialize_graph(g)) == g

    @given(
        graphs(
            weights=st.one_of(
                st.sampled_from(
                    [s * x for x in (0.0, 5e-324, 2.2250738585072014e-308, 1e16, 2.0**53, 1.7e308)
                     for s in (1.0, -1.0)]
                ),
                st.floats(allow_nan=False, allow_infinity=False),
            )
        ),
        st.sampled_from([64, graph._CHUNK_CHARS]),
    )
    @example(CompleteWeightedGraph(7, (-0.0,) * 21), 64)
    @settings(max_examples=100)
    def test_round_trip_keeps_every_bit(self, g, chunk_chars):
        # == does not tell -0.0 from 0.0, float.hex does; 64-character blocks
        # send the lines after the header to the block path
        with mock.patch.object(graph, "_CHUNK_CHARS", chunk_chars):
            h = parse_graph(serialize_graph(g))
        assert [w.hex() for w in h.weights] == [w.hex() for w in g.weights]

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @settings(max_examples=200)
    def test_format_weight_round_trips(self, x):
        # float.hex tells -0.0 from 0.0, which == does not
        assert float(format_weight(x)).hex() == x.hex()

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, 1e16, -1e16, 2.0**53, 5e-324, -2.2250738585072014e-308]),
                st.integers(-(2**60), 2**60).map(float),
                st.floats(min_value=1e16, allow_infinity=False),
                st.floats(min_value=-1e-307, max_value=1e-307),
                st.integers(-(2**70), 2**70),
            )
        )
    )
    @settings(max_examples=200)
    def test_format_weights_matches_format_weight(self, xs):
        n = 3
        while n * (n - 1) // 2 < len(xs):
            n += 1
        g = CompleteWeightedGraph(n, (*xs, *[0.0] * (n * (n - 1) // 2 - len(xs))))
        assert serialize_graph(g).splitlines()[1:] == [
            f"{u} {v} {format_weight(w)}" for (u, v), w in zip(pairs(n), g.weights)
        ]

    @pytest.mark.parametrize(
        "x, error",
        [(math.inf, OverflowError), (-math.inf, OverflowError), (math.nan, ValueError)],
        ids=["inf", "-inf", "nan"],
    )
    def test_format_weight_raises_on_non_finite(self, x, error):
        with pytest.raises(error):
            format_weight(x)


#: Every line boundary that ``str.splitlines`` knows, "\r\n" included.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
NOISE = st.lists(st.sampled_from([*"0123456789.eE+- \t#\x00", *LINE_BREAKS]), max_size=12).map(
    "".join
)
CLEAN_WEIGHTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers(-9, 9).map(str)
)
WEIGHT_TOKENS = st.one_of(
    CLEAN_WEIGHTS,
    st.floats().map(repr),
    st.sampled_from(["-0.0", "1e400", "1_0", "0x1", "2.", ".5e-3", "+3", "nan"]),
)


@st.composite
def graph_texts(draw):
    """Graph texts near the well-formed one of an order-k graph.

    The pairs come in row-major or shuffled order. The header, the weights
    and the line ends are each either clean (``n k``, finite floats, line
    feeds) or drawn from wider sets; other line ends come one kind per text,
    on every line or mixed with line feeds. A few lines may be replaced by or
    joined by noise, blank, comment or whitespace-only lines, or cut in two
    at any place by any line end, and the last line end may be missing.
    """
    k = draw(st.integers(3, 5))
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
    weights = draw(st.sampled_from([CLEAN_WEIGHTS, WEIGHT_TOKENS]))
    lines = [f"{u}{sep}{v}{sep}{draw(weights)}" for u, v in pairs(k)]
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    headers = st.sampled_from([f" n\t{k} ", "n", f"n {k} 1", "m 3", "n x", "#n 3", ""])
    clean_header = draw(st.booleans())
    lines.insert(0, f"n {k}" if clean_header else draw(st.one_of(headers, NOISE)))
    extras = st.one_of(NOISE, st.sampled_from(
        ["", " ", "\t", "# c", "#", "0 1", "0 1 1 1", "0 1 2", "1 0 -0.0", "7 0 1", "0 0 1"]
    ))
    edits = st.tuples(st.sampled_from(["replace", "insert", "cut"]), st.integers(0, 99), extras)
    for edit, i, extra in draw(st.lists(edits, max_size=3)):
        if edit == "insert":
            lines.insert(i % (len(lines) + 1), extra)
            continue
        i %= len(lines)
        if edit == "replace":
            lines[i] = extra
        else:
            spaces = [j for j, c in enumerate(lines[i]) if c in " \t"]
            cut = draw(st.one_of(st.integers(0, len(lines[i])), st.sampled_from(spaces or [0])))
            lines[i] = lines[i][:cut] + draw(st.sampled_from(LINE_BREAKS)) + lines[i][cut:]
    other = draw(st.sampled_from(LINE_BREAKS))
    breaks = draw(st.sampled_from([["\n"], [other], ["\n", "\n", other]]))
    text = "".join(line + draw(st.sampled_from(breaks)) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


def parse_outcome(parse, text):
    """The graph's order and exact weights, or the error's type, message and line."""
    try:
        g = parse(text)
    except XfsError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return g.n, [w.hex() for w in g.weights]


def line_loop(text):
    return build_graph(*read_lines(text))


@contextmanager
def read_block_calls(chunk_chars):
    """Set ``_CHUNK_CHARS``; the list collects each ``_read_block`` call's lines and result."""
    read_block = graph._read_block
    calls = []

    def record(lines, *columns):
        calls.append((lines, read_block(lines, *columns)))
        return calls[-1][1]

    with mock.patch.object(graph, "_CHUNK_CHARS", chunk_chars), mock.patch.object(
        graph, "_read_block", wraps=record
    ):
        yield calls


class TestReader:
    @given(graph_texts(), st.sampled_from([1, 7, 40, graph._CHUNK_CHARS]))
    @settings(max_examples=1000)
    def test_matches_line_loop(self, text, chunk_chars):
        # small chunks put chunk ends inside every kind of text
        with mock.patch.object(graph, "_CHUNK_CHARS", chunk_chars):
            assert parse_outcome(parse_graph, text) == parse_outcome(line_loop, text)

    @pytest.mark.parametrize("brk", LINE_BREAKS[1:])
    def test_other_line_ends_go_to_the_line_loop(self, brk):
        # split() reads each of them as a space, splitlines() as a line end
        for text in [f"n{brk}3\n0 1 1\n", f"n 3\n0 1{brk}1\n0 2 2\n1 2 3\n"]:
            assert parse_outcome(parse_graph, text) == parse_outcome(line_loop, text)

    def test_blocks_after_the_header_are_split_at_once(self):
        g = random_graph(40, 3)
        text = serialize_graph(g)
        # with or without the last line end
        for variant in (text, text.rstrip("\n")):
            with read_block_calls(64) as calls:
                assert parse_graph(variant) == g
            assert all(ok for _, ok in calls)
            # lines of over 20 characters: the header's block of about 64
            # holds at most three of the 780 edge lines
            assert sum(len(lines) for lines, _ in calls) >= 780 - 3

    @pytest.mark.parametrize("extra", ["", " ", "\t \x1f", "# 1 2"])
    def test_an_odd_line_sends_only_its_block_to_the_line_loop(self, extra):
        g = random_graph(40, 3)
        lines = serialize_graph(g).splitlines(keepends=True)
        # blocks are three or four lines long, so some of these places are
        # inside a block, after lines that int and float convert
        for i in range(400, 404):
            text = "".join([*lines[:i], extra + "\n", *lines[i:]])
            with read_block_calls(64) as calls:
                assert parse_graph(text) == g
            [failed] = [block for block, ok in calls if not ok]
            assert extra in failed

    def test_three_tokens_on_each_line_not_only_in_total(self):
        # six tokens on two lines, or seven on one, stride into valid columns
        for block in (["0 1", "0.5 0 2 0.25"], ["0 1 0.5 x 0 2 0.25"]):
            columns = [], [], []
            assert not graph._read_block(block, graph._VertexIds(), *columns)
            assert columns == ([], [], [])
            text = "".join(f"{line}\n" for line in ["n 3", *block, "1 2 1"])
            with pytest.raises(GraphSyntaxError, match=r"^line 2: expected '<u> <v> <weight>'$"):
                parse_graph(text)

    @pytest.mark.parametrize("brk", ["\u2028", "\r"])
    def test_a_text_without_line_feeds_is_read_line_by_line(self, brk):
        g = random_graph(40, 3)
        head, body = serialize_graph(g).split("\n", 1)
        text = body.replace("\n", brk)
        # a long header line ends the first block, so the second block is all
        # 780 edge lines: it is never split into tokens at once
        for variant in (f"{head}{brk}{text}", f"{head}{' ' * 64}\n{text}"):
            with read_block_calls(64) as calls:
                assert parse_graph(variant) == g
            assert calls == []


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

    def test_overflowing_width(self):
        with pytest.raises(BadRange, match=r"bad weight range \[-1.7e\+308, 1.7e\+308\]"):
            random_graph(3, 1, -1.7e308, 1.7e308)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            random_graph(2, 1)
