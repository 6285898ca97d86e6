import math
import tracemalloc
from collections import Counter
from functools import partial
from itertools import combinations, islice, permutations

import pytest
from hypothesis import given, settings, strategies as st

from extrafactorial import (
    DEFAULT_ENUMERATION_CAP,
    EdgePairKind,
    HamiltonianCycle,
    brute_force_sum_through,
    count_all,
    count_through_edge,
    count_through_pair,
    cycle_length,
    edge_pair_kind,
    enumerate_all,
    enumerate_through_edge,
    enumerate_through_pair,
)
from extrafactorial.cycles import _child_getters, _children
from extrafactorial.errors import (
    EnumerationCapExceeded,
    NotAPermutation,
    NotCanonical,
    OrderMismatch,
    OrderTooSmall,
    SameEdge,
    SelfLoop,
    TooShort,
    VertexOutOfRange,
    XfsError,
)
from extrafactorial.graph import edge_key
from oracles import (
    canonicalize,
    cycle_edge_set,
    make_zero_graph,
    oracle_cycles,
    oracle_through,
)

# reference cycles through edge (0, 1) of the 5-vertex sample, written as the
# raw vertex orders they are usually quoted in (letters A,B,C,X,Y = 0..4),
# with their known lengths
REFERENCE_THROUGH_01 = [
    ((4, 2, 0, 1, 3), 55.6),
    ((4, 2, 1, 0, 3), 92.0),
    ((4, 3, 2, 1, 0), 59.5),
    ((4, 2, 3, 1, 0), 52.1),
    ((4, 2, 3, 0, 1), 82.0),
    ((4, 3, 2, 0, 1), 53.0),
]


class TestCanonicalize:
    def test_rotate_to_minimum(self):
        assert canonicalize([1, 0, 2]).vertices == (0, 1, 2)

    def test_reflection_equivalence(self):
        assert canonicalize([0, 2, 1, 3]) == canonicalize([0, 3, 1, 2])

    def test_idempotent(self):
        c = canonicalize([3, 1, 4, 0, 2])
        assert canonicalize(c.vertices) == c

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutation):
            canonicalize([0, 1, 1, 2])
        with pytest.raises(NotAPermutation):
            canonicalize([0, 2, 3])
        with pytest.raises(NotAPermutation):
            HamiltonianCycle((0, 1, 1))

    def test_too_short(self):
        with pytest.raises(TooShort):
            canonicalize([0, 1])
        with pytest.raises(TooShort):
            HamiltonianCycle((0, 1))

    @pytest.mark.parametrize(
        "raw, error, message",
        [
            ((0, 1), TooShort, "cycles need at least 3 vertices, got 2"),
            ((0, 1, 1), NotAPermutation, "repeated vertex in (0, 1, 1)"),
            ([0, 2, 2, 1], NotAPermutation, "repeated vertex in (0, 2, 2, 1)"),
            (iter([1, 0, 2]), NotCanonical, "(1, 0, 2) is not in canonical rotation/reflection"),
            ((0, 3, 1, 2), NotCanonical, "(0, 3, 1, 2) is not in canonical rotation/reflection"),
            # -1 would index the last row of the weight matrix in cycle_length
            ((-1, 0, 1), VertexOutOfRange, "vertex ids must be non-negative, got (-1, 0, 1)"),
            # 1.5 would print as a vertex of the closed walk "0-1.5-2-0"
            ((0, 1.5, 2), TypeError, "vertex ids must be integers, got (0, 1.5, 2)"),
        ],
    )
    def test_constructor_error_text(self, raw, error, message):
        # the vertices are named as a tuple, never as a cycle's closed walk
        with pytest.raises(error) as info:
            HamiltonianCycle(raw)
        assert str(info.value) == message

    def test_bool_vertex_ids_are_stored_as_ints(self):
        # True == 1, but a bool kept as a vertex prints as "False-True-2-False"
        c = HamiltonianCycle([False, True, 2])
        assert c == (0, 1, 2)
        assert [type(x) for x in c] == [int, int, int]
        assert str(c) == "0-1-2-0"

    def test_rejects_non_canonical_direct_construction(self):
        with pytest.raises(NotCanonical):
            HamiltonianCycle((1, 0, 2))
        with pytest.raises(NotCanonical):
            HamiltonianCycle((0, 3, 1, 2))

    @given(st.permutations(list(range(6))))
    @settings(max_examples=100)
    def test_rotation_reflection_invariant(self, perm):
        verts = tuple(perm)
        base = canonicalize(verts)
        rotated = verts[2:] + verts[:2]
        reflected = tuple(reversed(verts))
        assert canonicalize(rotated) == base
        assert canonicalize(reflected) == base

    def test_rendering(self):
        assert str(canonicalize([0, 2, 1, 3])) == "0-2-1-3-0"

    def test_rendering_of_two_and_three_digit_vertices(self):
        assert str(HamiltonianCycle((0, 10, 11))) == "0-10-11-0"
        assert str(HamiltonianCycle((7, 8, 123, 100, 99))) == "7-8-123-100-99-7"
        for c in islice(enumerate_all(12), 50):
            verts = c.vertices
            assert str(c) == "-".join(str(v) for v in verts + verts[:1])

    def test_rendering_is_str_of_each_vertex(self):
        # each vertex renders as its own str, whatever was rendered before;
        # a bool vertex is stored as its int, so True renders as 1
        assert str(HamiltonianCycle((0, 1, 2))) == "0-1-2-0"
        assert str(canonicalize([0, True, 2])) == "0-1-2-0"
        assert str(HamiltonianCycle((0, 1, 2))) == "0-1-2-0"
        assert str(canonicalize(range(40))) == "-".join(map(str, [*range(40), 0]))

    def test_list_input_is_kept_as_a_tuple(self):
        # a cycle built from a list renders, compares and hashes as one
        # built from the equal tuple
        from_list, from_tuple = HamiltonianCycle([0, 2, 1, 3]), HamiltonianCycle((0, 2, 1, 3))
        assert from_list.vertices == (0, 2, 1, 3)
        assert type(from_list.vertices) is tuple
        assert str(from_list) == "0-2-1-3-0"
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)


def canonical_on(raw: tuple[int, ...]) -> tuple[int, ...]:
    # the canonical form of a cycle on any distinct vertices: relabel them
    # monotonically onto 0..k-1, which keeps the canonical form, canonicalize
    # there, and map back
    labels = sorted(raw)
    rank = {v: i for i, v in enumerate(labels)}
    return tuple(labels[i] for i in canonicalize([rank[v] for v in raw]))


def insert(cycle: HamiltonianCycle, x: int) -> list[HamiltonianCycle]:
    # every child of `cycle` made by inserting vertex x, none protected
    return [HamiltonianCycle(c) for c in _children(cycle.vertices, x, frozenset())]


class TestVertexInsertion:
    def test_triangle_children(self):
        children = insert(canonicalize([0, 1, 2]), 3)
        expected = {
            canonicalize([0, 3, 2, 1]),
            canonicalize([0, 2, 3, 1]),
            canonicalize([0, 3, 1, 2]),
        }
        assert set(children) == expected
        # a triangle's children are all three order-4 cycles
        assert set(children) == set(
            canonicalize(p) for p in [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]
        )

    def test_eight_cycle_child(self):
        parent = canonicalize(range(8))
        children = insert(parent, 8)
        assert len(children) == 8
        # inserting between 0 and 1 is one of the children
        assert canonicalize((0, 8, 1, 2, 3, 4, 5, 6, 7)) in children

    def test_children_are_distinct_and_one_longer(self):
        for n in range(3, 7):
            for parent in enumerate_all(n):
                children = insert(parent, n)
                assert len(set(children)) == n
                assert all(len(c) == n + 1 for c in children)
                assert parent not in children

    def test_new_smallest_vertex_moves_to_the_front(self):
        children = insert(HamiltonianCycle((2, 3, 4)), 0)
        assert [c.vertices for c in children] == [(0, 2, 4, 3), (0, 3, 2, 4), (0, 2, 3, 4)]

    def test_children_pinned_to_full_canonicalization(self):
        # every canonical cycle on every 3- to 5-subset of range(7), every
        # vertex off it (below and above the front vertex), and no, one or
        # two protected edges: the children are the canonical forms of the
        # insertions into the unprotected edges, in edge order
        cases = 0
        for size in (3, 4, 5):
            for subset in combinations(range(7), size):
                for verts in sorted(set(map(canonical_on, permutations(subset)))):
                    keys = [edge_key(a, b) for a, b in zip(verts, verts[1:] + verts[:1])]
                    protections = [frozenset()]
                    protections += [frozenset((k,)) for k in keys]
                    protections += [frozenset(p) for p in combinations(keys, 2)]
                    for x in set(range(7)) - set(verts):
                        for p in protections:
                            expected = [
                                canonical_on(verts[: i + 1] + (x,) + verts[i + 1 :])
                                for i, k in enumerate(keys)
                                if k not in p
                            ]
                            assert _children(verts, x, p) == expected, (verts, x, p)
                            cases += 1
        assert cases > 10_000


class TestEnumerateAll:
    @pytest.mark.parametrize(
        "n,expected", [(3, 1), (4, 3), (5, 12), (6, 60), (7, 360), (8, 2520)]
    )
    def test_counts(self, n, expected):
        assert sum(1 for _ in enumerate_all(n)) == expected

    def test_triangle(self):
        assert [c.vertices for c in enumerate_all(3)] == [(0, 1, 2)]

    @pytest.mark.parametrize("n", range(3, 8))
    def test_matches_permutation_oracle(self, n):
        ours = [c.vertices for c in enumerate_all(n)]
        assert len(set(ours)) == len(ours)
        assert set(ours) == set(oracle_cycles(n))

    def test_deterministic(self):
        assert list(enumerate_all(6)) == list(enumerate_all(6))

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            enumerate_all(2)

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_all(DEFAULT_ENUMERATION_CAP + 1)
        with pytest.raises(EnumerationCapExceeded):
            enumerate_all(6, max_order=5)
        assert sum(1 for _ in enumerate_all(6, max_order=6)) == 60


class TestLaziness:
    # the first cycles of an order-12 stream (about 2e7 cycles in all) must
    # come without building any level of the insertion tree in full
    @pytest.mark.parametrize(
        "make",
        [
            lambda: enumerate_all(12),
            lambda: enumerate_through_pair(12, (3, 7), (5, 9)),
        ],
        ids=["all", "pair"],
    )
    def test_first_cycles_of_order_12(self, make):
        tracemalloc.start()
        try:
            first = list(islice(make(), 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(c) for c in first] == [12, 12, 12]
        assert peak < 1 << 20

    def test_child_pattern_cache_stays_bounded(self):
        # the index patterns are cached by parent size and reflection variant
        # alone, at most four per size: the positions of a pair stream's
        # protected edges, which move from parent to parent and from stream
        # to stream, are never keys
        _child_getters.cache_clear()
        pairs = [((3, 7), (5, 9)), ((0, 13), (13, 1)), ((10, 11), (12, 13)), ((6, 7), (0, 13))]
        for pair in pairs:
            stream = enumerate_through_pair(14, *pair, max_order=14)
            assert sum(1 for _ in islice(stream, 5000)) == 5000
        info = _child_getters.cache_info()
        # parents of 3 (an adjacent pair's seed) to 13 vertices
        assert info.misses <= 4 * (13 - 3 + 1)
        assert info.currsize <= info.maxsize == 64


class TestStreamedCyclesAreCanonical:
    # the streams build their cycles without the constructor's checks: each
    # must still be what the checked constructor makes of its vertices
    @staticmethod
    def _assert_checked(cycles):
        count = 0
        for c in cycles:
            assert type(c) is HamiltonianCycle
            assert type(c.vertices) is tuple
            assert HamiltonianCycle(c.vertices) == c
            count += 1
        assert count > 0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_all(self, n):
        self._assert_checked(enumerate_all(n))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_through_every_edge(self, n):
        for e in combinations(range(n), 2):
            self._assert_checked(enumerate_through_edge(n, e))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_through_an_adjacent_and_a_non_adjacent_pair(self, n):
        assert edge_pair_kind((0, n - 1), (n - 1, 1)) is EdgePairKind.ADJACENT
        self._assert_checked(enumerate_through_pair(n, (0, n - 1), (n - 1, 1)))
        if n >= 4:
            assert edge_pair_kind((1, n - 1), (0, 2)) is EdgePairKind.NON_ADJACENT
            self._assert_checked(enumerate_through_pair(n, (1, n - 1), (0, 2)))


class TestEnumerateThroughEdge:
    def test_reference_set(self, graph5):
        got = {c.vertices: cycle_length(graph5, c) for c in enumerate_through_edge(5, (0, 1))}
        expected = {canonicalize(raw).vertices: l for raw, l in REFERENCE_THROUGH_01}
        assert set(got) == set(expected)
        for verts, length in expected.items():
            assert got[verts] == pytest.approx(length, rel=1e-9)

    def test_minimum_order(self):
        cycles = list(enumerate_through_edge(3, (0, 2)))
        assert len(cycles) == 1

    @pytest.mark.parametrize("n", range(3, 8))
    def test_counts_membership_and_filter_equality(self, n):
        expected = math.factorial(n - 2)
        for e in combinations(range(n), 2):
            cycles = list(enumerate_through_edge(n, e))
            assert len(cycles) == expected
            assert len(set(cycles)) == expected
            assert all(c.contains_edge(*e) for c in cycles)
            assert {c.vertices for c in cycles} == set(oracle_through(n, e))

    def test_edge_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            enumerate_through_edge(4, (0, 4))

    def test_deterministic(self):
        a = list(enumerate_through_edge(6, (1, 4)))
        assert a == list(enumerate_through_edge(6, (1, 4)))


class TestEnumerateThroughPair:
    def test_adjacent_sample(self):
        cycles = list(enumerate_through_pair(5, (0, 4), (3, 4)))
        assert edge_pair_kind((0, 4), (3, 4)) is EdgePairKind.ADJACENT
        assert len(cycles) == 2  # (n-3)!
        for c in cycles:
            assert c.contains_edge(0, 4) and c.contains_edge(3, 4)

    def test_non_adjacent_order4(self):
        cycles = list(enumerate_through_pair(4, (0, 1), (2, 3)))
        assert edge_pair_kind((0, 1), (2, 3)) is EdgePairKind.NON_ADJACENT
        assert {c.vertices for c in cycles} == {(0, 1, 2, 3), (0, 1, 3, 2)}

    def test_non_adjacent_order6(self):
        stream = enumerate_through_pair(6, (0, 1), (2, 3))
        assert sum(1 for _ in stream) == 12  # 2 (n-3)!

    @pytest.mark.parametrize("n", range(4, 7))
    def test_equals_double_filter(self, n):
        edges = list(combinations(range(n), 2))
        for e1, e2 in combinations(edges, 2):
            self._check_pair_against_filter(n, e1, e2)

    @pytest.mark.parametrize("n", [7, 8])
    def test_equals_double_filter_sampled(self, n):
        import random

        rng = random.Random(n)
        edges = list(combinations(range(n), 2))
        pairs = list(combinations(edges, 2))
        for e1, e2 in rng.sample(pairs, 12):
            self._check_pair_against_filter(n, e1, e2)

    @staticmethod
    def _check_pair_against_filter(n, e1, e2):
        cycles = list(enumerate_through_pair(n, e1, e2))
        expected_count = count_through_pair(n, edge_pair_kind(e1, e2))
        assert len(cycles) == expected_count
        assert len(set(cycles)) == expected_count
        filtered = {
            c
            for c in oracle_cycles(n)
            if {tuple(sorted(e1)), tuple(sorted(e2))} <= cycle_edge_set(c)
        }
        assert {c.vertices for c in cycles} == filtered

    def test_adjacent_pair_minimum_order(self):
        assert edge_pair_kind((0, 1), (1, 2)) is EdgePairKind.ADJACENT
        stream = enumerate_through_pair(3, (0, 1), (1, 2))
        assert [c.vertices for c in stream] == [(0, 1, 2)]

    def test_same_edge(self):
        with pytest.raises(SameEdge):
            enumerate_through_pair(5, (0, 1), (1, 0))

    def test_kind_classification(self):
        assert edge_pair_kind((0, 1), (1, 2)) is EdgePairKind.ADJACENT
        assert edge_pair_kind((0, 1), (2, 3)) is EdgePairKind.NON_ADJACENT

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            enumerate_through_pair(4, (0, 1), (2, 4))


class TestCycleLength:
    def test_sample5(self, graph5):
        for raw, expected in REFERENCE_THROUGH_01:
            assert cycle_length(graph5, canonicalize(raw)) == pytest.approx(
                expected, rel=1e-9
            )

    def test_sample4(self, graph4):
        assert cycle_length(graph4, canonicalize([0, 2, 1, 3])) == 24.0
        assert sorted(
            cycle_length(graph4, c) for c in enumerate_all(4)
        ) == [24.0, 25.0, 27.0]

    def test_zero_graph(self):
        g = make_zero_graph(6)
        assert all(cycle_length(g, c) == 0.0 for c in enumerate_all(6))

    def test_order_mismatch(self, graph4):
        with pytest.raises(OrderMismatch):
            cycle_length(graph4, canonicalize([0, 1, 2]))

    @pytest.mark.parametrize(
        "verts, vertex", [((0, 1, 5), 5), ((0, 1, 2, 7), 7), ((0, 2, 5, 3), 5)]
    )
    def test_vertex_past_the_order_is_named(self, verts, vertex):
        g = make_zero_graph(len(verts))
        with pytest.raises(VertexOutOfRange) as info:
            cycle_length(g, HamiltonianCycle(verts))
        assert str(info.value) == f"vertex {vertex} not in [0, {len(verts)})"


class TestCounts:
    def test_known_values(self):
        assert count_all(6) == 60
        assert count_through_edge(4) == 2
        assert count_all(14) == 3_113_510_400

    @pytest.mark.parametrize("n", range(3, 20))
    def test_closed_forms(self, n):
        assert count_all(n) == math.factorial(n - 1) // 2
        assert count_through_edge(n) == math.factorial(n - 2)
        assert count_through_pair(n, EdgePairKind.ADJACENT) == math.factorial(n - 3)
        if n >= 4:
            assert count_through_pair(n, EdgePairKind.NON_ADJACENT) == 2 * math.factorial(n - 3)

    def test_counts_are_exact_ints(self):
        assert isinstance(count_all(50), int)
        assert count_all(50) == math.factorial(49) // 2

    def test_errors(self):
        with pytest.raises(OrderTooSmall):
            count_all(2)
        with pytest.raises(OrderTooSmall):
            count_through_edge(2)
        with pytest.raises(OrderTooSmall):
            count_through_pair(3, EdgePairKind.NON_ADJACENT)


def _cap(n, cap):
    return f"order {n} exceeds the enumeration cap {cap}; raise max_order to override"


class TestErrorText:
    # each stream runs its checks in this order: each edge (self-loop, then
    # negative id), the pair's distinctness, the largest vertex against the
    # order, the order, then the cap. Most rows would also fail every later
    # check, which pins that order; exact types, exact messages.
    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(
                lambda: enumerate_through_edge(2, (9, 9), max_order=1),
                SelfLoop, "edge (9, 9) joins a vertex to itself", id="edge-self-loop",
            ),
            pytest.param(
                lambda: enumerate_through_pair(2, (0, 9), (-1, -1), max_order=1),
                SelfLoop, "edge (-1, -1) joins a vertex to itself", id="pair-self-loop",
            ),
            pytest.param(
                lambda: enumerate_through_edge(2, (9, -1), max_order=1),
                VertexOutOfRange, "vertex ids must be non-negative, got (9, -1)",
                id="edge-negative",
            ),
            pytest.param(
                lambda: enumerate_through_pair(2, (-1, 9), (9, 9), max_order=1),
                VertexOutOfRange, "vertex ids must be non-negative, got (-1, 9)",
                id="pair-negative-first",
            ),
            pytest.param(
                lambda: enumerate_through_pair(2, (0, 9), (9, 0), max_order=1),
                SameEdge, "edge pair must differ, got (0, 9) twice", id="pair-same-edge",
            ),
            pytest.param(
                lambda: enumerate_through_edge(2, (9, 0), max_order=1),
                VertexOutOfRange, "vertex 9 not in [0, 2)", id="edge-vertex-past-n",
            ),
            pytest.param(
                lambda: enumerate_through_pair(2, (0, 7), (9, 1), max_order=1),
                VertexOutOfRange, "vertex 9 not in [0, 2)", id="pair-larger-vertex-second",
            ),
            pytest.param(
                lambda: enumerate_through_pair(5, (9, 0), (1, 7)),
                VertexOutOfRange, "vertex 9 not in [0, 5)", id="pair-larger-vertex-first",
            ),
            pytest.param(
                # two distinct edges span three vertices: order 2 fails the range
                lambda: enumerate_through_pair(2, (0, 1), (1, 2), max_order=1),
                VertexOutOfRange, "vertex 2 not in [0, 2)", id="pair-order-2",
            ),
            pytest.param(
                lambda: enumerate_all(2, max_order=1),
                OrderTooSmall, "enumeration needs order >= 3, got 2", id="all-order-2",
            ),
            pytest.param(
                lambda: enumerate_all(-1),
                OrderTooSmall, "enumeration needs order >= 3, got -1", id="all-order-negative",
            ),
            pytest.param(
                lambda: enumerate_through_edge(2, (0, 1), max_order=1),
                OrderTooSmall, "enumeration needs order >= 3, got 2", id="edge-order-2",
            ),
            pytest.param(
                lambda: enumerate_all(DEFAULT_ENUMERATION_CAP + 1),
                EnumerationCapExceeded, _cap(DEFAULT_ENUMERATION_CAP + 1, DEFAULT_ENUMERATION_CAP),
                id="all-cap",
            ),
            pytest.param(
                lambda: enumerate_all(6, max_order=5),
                EnumerationCapExceeded, _cap(6, 5), id="all-max-order",
            ),
            pytest.param(
                lambda: enumerate_through_edge(13, (0, 12)),
                EnumerationCapExceeded, _cap(13, 12), id="edge-cap",
            ),
            pytest.param(
                lambda: enumerate_through_edge(4, (0, 3), max_order=3),
                EnumerationCapExceeded, _cap(4, 3), id="edge-max-order",
            ),
            pytest.param(
                lambda: enumerate_through_pair(13, (0, 12), (12, 11)),
                EnumerationCapExceeded, _cap(13, 12), id="pair-cap",
            ),
            pytest.param(
                lambda: enumerate_through_pair(4, (0, 1), (2, 3), max_order=-1),
                EnumerationCapExceeded, _cap(4, -1), id="pair-max-order",
            ),
        ],
    )
    def test_enumerators(self, call, error, message):
        with pytest.raises(XfsError) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.parametrize(
        "call, message",
        [
            # 0.5 would be inserted as a vertex: (0, 2, 0.5, 1, 3) at order 4
            pytest.param(lambda: enumerate_through_edge(4, (0.5, 1)),
                         "vertex ids must be integers, got (0.5, 1)", id="edge"),
            pytest.param(lambda: enumerate_through_pair(5, (0, 1), (2, 3.0)),
                         "vertex ids must be integers, got (2, 3.0)", id="pair"),
        ],
    )
    def test_non_integer_vertex_ids(self, call, message):
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == message

    def test_bool_vertex_ids_are_stored_as_ints(self):
        # a bool is an int, so it is accepted, but the stream holds 0 and 1
        cycles = list(enumerate_through_edge(3, (False, True)))
        assert [str(c) for c in cycles] == ["0-1-2-0"]
        assert {type(x) for c in cycles for x in c} == {int}
        pair = list(enumerate_through_pair(4, (True, 2), (3, False)))
        assert [str(c) for c in pair] == [str(c) for c in enumerate_through_pair(4, (1, 2), (3, 0))]
        assert {type(x) for c in pair for x in c} == {int}

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize(
        "count, minimum, needs",
        [
            pytest.param(count_all, 3, "counting needs", id="all"),
            pytest.param(count_through_edge, 3, "counting needs", id="edge"),
            pytest.param(
                partial(count_through_pair, kind=EdgePairKind.ADJACENT), 3,
                "adjacent pairs need", id="adjacent-pair",
            ),
            pytest.param(
                partial(count_through_pair, kind=EdgePairKind.NON_ADJACENT), 4,
                "non-adjacent pairs need", id="non-adjacent-pair",
            ),
        ],
    )
    def test_counts_at_orders_0_to_3(self, count, minimum, needs, n):
        if n >= minimum:
            assert count(n) == 1
            return
        with pytest.raises(XfsError) as info:
            count(n)
        assert (type(info.value), str(info.value)) == (
            OrderTooSmall, f"{needs} order >= {minimum}, got {n}"
        )


class TestContainsEdge:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_agrees_with_the_edge_set(self, n):
        # u != v over range(n + 2), so pairs leave the cycle at one end or both
        for c in enumerate_all(n):
            edges = set(c.edges())
            for u, v in permutations(range(n + 2), 2):
                assert c.contains_edge(u, v) == (edge_key(u, v) in edges), (c, u, v)

    def test_errors(self):
        c = canonicalize(range(5))
        with pytest.raises(SelfLoop):
            c.contains_edge(2, 2)
        with pytest.raises(SelfLoop):
            c.contains_edge(7, 7)  # a vertex off the cycle
        with pytest.raises(SelfLoop):
            c.contains_edge(-1, -1)  # the self-loop is named first
        with pytest.raises(VertexOutOfRange):
            c.contains_edge(-1, 0)
        with pytest.raises(VertexOutOfRange):
            c.contains_edge(0, -1)


class TestEdgeIncidence:
    @pytest.mark.parametrize("n", range(4, 7))
    def test_each_cycle_in_exactly_n_streams(self, n):
        tally = Counter()
        for e in combinations(range(n), 2):
            for c in enumerate_through_edge(n, e):
                tally[c.vertices] += 1
        assert len(tally) == count_all(n)
        assert all(v == n for v in tally.values())


class TestBruteForceSum:
    def test_sample5(self, graph5):
        assert brute_force_sum_through(graph5, (0, 1)) == pytest.approx(
            394.2, rel=1e-9
        )

    def test_sample4(self, graph4):
        assert brute_force_sum_through(graph4, (0, 1)) == pytest.approx(52.0, rel=1e-9)

    def test_zero_graph(self):
        assert brute_force_sum_through(make_zero_graph(5), (1, 3)) == 0.0

    def test_cap(self, graph5):
        with pytest.raises(EnumerationCapExceeded):
            brute_force_sum_through(graph5, (0, 1), max_order=4)
