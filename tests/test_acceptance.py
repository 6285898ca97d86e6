"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from extrafactorial import (
    EdgePairKind,
    compare_profiles,
    count_through_pair,
    cycle_length,
    brute_force_sum_through,
    edge_pair_kind,
    efs_all,
    enumerate_all,
    enumerate_through_edge,
    enumerate_through_pair,
    extra_factorial_sum,
    mean_length_all,
    mean_length_not_through,
    mean_length_through,
    mean_squared_length,
    random_graph,
    ranked_profile,
    summational_graph,
)
from oracles import (
    efs_breakdown_explicit,
    make_graph4,
    make_graph5,
    rel_close,
    scale_graph,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_four_vertex_golden():
    with criterion(1, "4-vertex worked example"):
        g = make_graph4()
        lengths = sorted(cycle_length(g, c) for c in enumerate_all(4))
        assert lengths == [24.0, 25.0, 27.0]

        expected_means = {
            (0, 1): 26.0,
            (0, 2): 25.5,
            (0, 3): 24.5,
            (1, 2): 24.5,
            (1, 3): 25.5,
            (2, 3): 26.0,
        }
        for e, value in expected_means.items():
            assert mean_length_through(g, e) == pytest.approx(value, rel=1e-9)

        squared_sum = math.fsum(l * l for l in lengths)
        assert squared_sum == 576.0 + 625.0 + 729.0 == 1930.0
        assert mean_squared_length(g) == pytest.approx(1930.0 / 3.0, rel=1e-9)


def test_criterion_2_five_vertex_golden():
    with criterion(2, "5-vertex worked example"):
        g = make_graph5()
        lengths = sorted(
            cycle_length(g, c) for c in enumerate_through_edge(5, (0, 1))
        )
        expected = sorted([55.6, 92.0, 59.5, 52.1, 82.0, 53.0])
        assert len(lengths) == 6
        for got, want in zip(lengths, expected):
            assert got == pytest.approx(want, rel=1e-9)

        # The six lengths above force a sum of 394.2; the figure 349.2
        # occasionally quoted for this configuration is a transcription
        # error (the addends it claims to total give 394.2), so 394.2 is
        # the value accepted here.
        assert brute_force_sum_through(g, (0, 1)) == pytest.approx(394.2, rel=1e-9)
        assert extra_factorial_sum(g, (0, 1)) == pytest.approx(197.1, rel=1e-9)
        assert mean_length_through(g, (0, 1)) == pytest.approx(65.7, rel=1e-9)


def test_criterion_3_count_identities():
    with criterion(3, "count identities"):
        expected_all = {3: 1, 4: 3, 5: 12, 6: 60, 7: 360, 8: 2520, 9: 20160}
        for n, expected in expected_all.items():
            assert sum(1 for _ in enumerate_all(n)) == expected
        assert expected_all[6] == 60

        for n in range(3, 9):
            expected = math.factorial(n - 2)
            for e in combinations(range(n), 2):
                assert sum(1 for _ in enumerate_through_edge(n, e)) == expected

        for n in range(4, 9):
            adjacent = [((0, 1), (1, 2)), ((0, 2), (2, n - 1))]
            non_adjacent = [((0, 1), (2, 3)), ((0, n - 1), (1, 2))]
            kinds = [EdgePairKind.ADJACENT] * 2 + [EdgePairKind.NON_ADJACENT] * 2
            for (e1, e2), kind in zip(adjacent + non_adjacent, kinds):
                assert edge_pair_kind(e1, e2) is kind
                stream = enumerate_through_pair(n, e1, e2)
                assert sum(1 for _ in stream) == count_through_pair(n, kind)


def test_criterion_4_oracle_equivalence_sweep():
    with criterion(4, "oracle equivalence sweep"):
        for n in range(4, 9):
            shrink = math.factorial(n - 3)
            cycles_total = math.factorial(n - 1) // 2
            through_total = math.factorial(n - 2)
            for i in range(50):
                g = random_graph(n, 1000 * n + i, -10.0, 10.0)
                lengths = [cycle_length(g, c) for c in enumerate_all(n)]
                assert len(lengths) == cycles_total
                oracle_mean = math.fsum(lengths) / cycles_total
                oracle_mean_sq = math.fsum(l * l for l in lengths) / cycles_total
                assert rel_close(mean_length_all(g), oracle_mean)
                assert rel_close(mean_squared_length(g), oracle_mean_sq)
                total_length = math.fsum(lengths)
                for e in g.edges():
                    oracle_sum = brute_force_sum_through(g, e)
                    assert rel_close(extra_factorial_sum(g, e) * shrink, oracle_sum)
                    assert rel_close(
                        summational_graph(g, e).total_weight, oracle_sum
                    )
                    oracle_complement = (total_length - oracle_sum) / (
                        cycles_total - through_total
                    )
                    assert rel_close(
                        mean_length_not_through(g, e), oracle_complement
                    )


def test_criterion_5_ranked_profile_scaling():
    with criterion(5, "ranked profile scaling at order 14"):
        g1 = random_graph(14, 20260809)
        g2 = scale_graph(g1, 0.5)
        p1 = ranked_profile(g1)
        p2 = ranked_profile(g2)
        assert len(p1.order) == 91
        assert p1.edge_sequence() == p2.edge_sequence()
        outcome = compare_profiles(p1, p2)
        assert outcome.same_ranking is True
        assert outcome.scale_factor == pytest.approx(0.5, rel=1e-9)


def test_criterion_6_performance_and_explicit_form():
    with criterion(6, "order-1000 fast path and explicit form"):
        g = random_graph(1000, 424242)
        start = time.perf_counter()
        table = efs_all(g)
        elapsed = time.perf_counter() - start
        assert len(table) == 499_500
        assert elapsed < 5.0, f"efs_all took {elapsed:.2f}s"

        g50 = random_graph(50, 50, -10.0, 10.0)
        fast = efs_all(g50)
        for k, e in enumerate(g50.edges()):
            explicit = efs_breakdown_explicit(g50, e)
            assert rel_close(fast[k], explicit.efs)
