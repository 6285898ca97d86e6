"""The per-edge columns are flat arrays behind read-only views.

``g.weights``, ``efs_all(g)`` and a ranked profile's ``efs`` and ``order``
each hold one machine value per edge. They must hold the same values, bit
for bit, as the Python numbers they replace, and refuse every write.
"""

import pytest
from hypothesis import given, settings, strategies as st

from extrafactorial import CompleteWeightedGraph, edge_statistics, efs_all, ranked_profile

#: Both zeros, the smallest subnormals, weights near the largest double, and
#: weights whose sums cancel.
SPECIAL_WEIGHTS = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1, 1e16, -1e16]

WEIGHTS = st.one_of(
    st.sampled_from(SPECIAL_WEIGHTS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60),
)


@st.composite
def orders_and_weights(draw):
    n = draw(st.integers(3, 7))
    return n, draw(st.lists(WEIGHTS, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))


def assert_read_only_column(view, fmt, expected):
    assert isinstance(view, memoryview)
    assert (view.readonly, view.format, view.ndim) == (True, fmt, 1)
    as_bits = (lambda x: x.hex()) if fmt == "d" else int
    assert list(map(as_bits, view)) == list(map(as_bits, expected))
    with pytest.raises(TypeError):
        view[0] = view[0]
    with pytest.raises(TypeError):
        view[:] = view
    assert list(map(as_bits, view)) == list(map(as_bits, expected))


@given(orders_and_weights())
@settings(max_examples=300)
def test_columns_are_read_only_and_bit_identical(drawn):
    n, ws = drawn
    g = CompleteWeightedGraph(n, ws)
    assert_read_only_column(g.weights, "d", list(map(float, ws)))
    try:
        efs = efs_all(g)
    except OverflowError:
        # an efs beyond the double range: the single-edge path says so too
        with pytest.raises(OverflowError):
            for e in g.edges():
                edge_statistics(g, e)
        return
    assert_read_only_column(efs, "d", [edge_statistics(g, e).efs for e in g.edges()])
    p = ranked_profile(g)
    assert_read_only_column(p.efs, "d", list(efs))
    m = g.edge_count
    assert_read_only_column(p.order, "q", sorted(range(m), key=list(efs).__getitem__))


def test_frozen_columns_refuse_writes():
    g = CompleteWeightedGraph(3, [1.0, 2.0, 3.0])
    p = ranked_profile(g)
    for view, value in ((g.weights, 1.0), (p.efs, 1.0), (p.order, 0)):
        with pytest.raises(TypeError):
            view[0] = value


def test_constructor_copies_its_input():
    ws = [1.0, 2.0, 3.0]
    g = CompleteWeightedGraph(3, ws)
    ws[0] = 10.0
    assert list(g.weights) == [1.0, 2.0, 3.0]
    assert g.total_weight == 6.0


def test_reprs_show_the_values():
    # a memoryview's own repr shows only its address; the reprs, and the
    # pretty printer of Hypothesis's falsifying examples, show the values
    from hypothesis.vendor.pretty import pretty

    g = CompleteWeightedGraph(3, [1, -2.5, 3])
    assert repr(g) == "CompleteWeightedGraph(n=3, weights=[1.0, -2.5, 3.0])"
    assert eval(repr(g)) == g
    p = ranked_profile(g)
    assert repr(p) == "RankedProfile(n=3, order=[0, 1, 2], efs=[1.5, 1.5, 1.5])"
    assert (pretty(g), pretty(p)) == (repr(g), repr(p))
