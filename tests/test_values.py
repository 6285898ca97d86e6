"""The value classes: immutability, equality, hashing, copying and pickling.

``CompleteWeightedGraph`` is a hand-written immutable class, a
``HamiltonianCycle`` is a tuple of its canonical vertices, and
``RankedProfile`` and ``ProfileComparison`` are named tuples. A graph's
weights and a profile's columns are read-only views, which cannot be hashed
or pickled; a cycle, as a tuple, can be both.
"""

import copy
import pickle

import pytest

from extrafactorial import (
    CompleteWeightedGraph,
    HamiltonianCycle,
    ProfileComparison,
    RankedProfile,
    compare_profiles,
    enumerate_all,
    ranked_profile,
)
from oracles import scale_graph


@pytest.fixture
def graph():
    return CompleteWeightedGraph(4, [12, 8, 7, 4, 5, 2])


@pytest.mark.parametrize("field", ["n", "weights"])
def test_graph_fields_refuse_assignment_and_deletion(graph, field):
    value = getattr(graph, field)
    with pytest.raises(AttributeError):
        setattr(graph, field, value)
    with pytest.raises(AttributeError):
        delattr(graph, field)
    assert getattr(graph, field) is value


def test_graph_refuses_new_attributes(graph):
    with pytest.raises(AttributeError):
        graph.extra = 1


def test_cycle_vertices_refuse_assignment_and_deletion():
    c = HamiltonianCycle((0, 2, 1, 3))
    with pytest.raises(AttributeError):
        c.vertices = (0, 1, 2, 3)
    with pytest.raises(AttributeError):
        del c.vertices
    with pytest.raises(AttributeError):
        c.extra = 1
    assert c.vertices == (0, 2, 1, 3)


def test_cycle_is_the_tuple_of_its_vertices():
    c = HamiltonianCycle((0, 2, 1, 3))
    assert c == (0, 2, 1, 3)
    assert hash(c) == hash((0, 2, 1, 3))
    assert type(c.vertices) is tuple
    assert c.vertices == c
    assert len(c) == 4
    assert c[1] == 2
    assert list(c) == [0, 2, 1, 3]
    assert HamiltonianCycle((0, 1, 2, 3)) < c
    assert str(c) == "0-2-1-3-0"


def test_profile_fields_refuse_assignment(graph):
    p = ranked_profile(graph)
    with pytest.raises(AttributeError):
        p.n = 5
    comparison = compare_profiles(p, p)
    with pytest.raises(AttributeError):
        comparison.scale_factor = 2.0


def test_graph_equality(graph):
    assert graph == CompleteWeightedGraph(4, [12.0, 8.0, 7.0, 4.0, 5.0, 2.0])
    assert graph != CompleteWeightedGraph(4, [12, 8, 7, 4, 5, 3])
    assert graph != CompleteWeightedGraph(3, [12, 8, 7])
    assert graph != (4, graph.weights)


def test_graph_and_profile_hash_raise(graph):
    # hashing reaches the view of doubles, which refuses
    with pytest.raises(ValueError):
        hash(graph)
    with pytest.raises(ValueError):
        hash(ranked_profile(graph))


@pytest.mark.parametrize("roundtrip", [
    pytest.param(lambda c: pickle.loads(pickle.dumps(c)), id="pickle"),
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
])
def test_cycles_round_trip(roundtrip):
    for c in [HamiltonianCycle((0, 2, 1, 3)), *enumerate_all(5)]:
        twin = roundtrip(c)
        assert type(twin) is HamiltonianCycle
        assert twin == c
        assert hash(twin) == hash(c)
        assert str(twin) == str(c)


def test_graphs_and_profiles_do_not_pickle_but_copy(graph):
    p = ranked_profile(graph)
    for value in (graph, p):
        with pytest.raises(TypeError):
            pickle.dumps(value)
        assert copy.copy(value) == value
    assert copy.copy(graph).strengths == graph.strengths


def test_reprs():
    assert repr(HamiltonianCycle((0, 2, 1, 3))) == "HamiltonianCycle(vertices=(0, 2, 1, 3))"
    assert repr(ProfileComparison(True, 2.0, 0.0)) == (
        "ProfileComparison(same_ranking=True, scale_factor=2.0, max_relative_deviation=0.0)"
    )
    assert repr(ProfileComparison(False, None, float("inf"))) == (
        "ProfileComparison(same_ranking=False, scale_factor=None, max_relative_deviation=inf)"
    )


def test_profile_records_are_named_tuples(graph):
    p = ranked_profile(graph)
    assert RankedProfile._fields == ("n", "order", "efs")
    assert tuple(p) == (p.n, p.order, p.efs)
    comparison = compare_profiles(p, ranked_profile(scale_graph(graph, 2)))
    assert ProfileComparison._fields == ("same_ranking", "scale_factor", "max_relative_deviation")
    assert comparison == (True, 2.0, 0.0)
