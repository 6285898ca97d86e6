"""Golden CLI output: exact bytes of `xfs efs`, `xfs compare` and `xfs stats`.

The tie-heavy integer graph w(u, v) = (7u + 3v) mod 5 takes only five weight
values, so most efs values are shared by many edges: its profile pins the
(u, v) tie-break of the ranking, and its comparisons pin the choice of the
scale pivot among equal-magnitude edges. The random order-60 graph pins the
full-precision values. Long outputs are pinned by SHA-256 digest.
"""

import hashlib

import pytest

from extrafactorial import CompleteWeightedGraph, random_graph, serialize_graph
from extrafactorial.cli import run


def tie_graph(a: int, b: int, mod: int = 5, shift: int = 0) -> CompleteWeightedGraph:
    n = 30
    return CompleteWeightedGraph(
        n,
        tuple(
            float((a * u + b * v) % mod - shift)
            for u in range(n)
            for v in range(u + 1, n)
        ),
    )


def odd_rows_raised(g: CompleteWeightedGraph) -> CompleteWeightedGraph:
    """`g` with 1 added to every weight whose smaller endpoint is odd."""
    return CompleteWeightedGraph(
        g.n, tuple(w + (u % 2) for (u, _), w in zip(g.edges(), g.weights))
    )


GRAPHS = {
    "tie30": lambda: tie_graph(7, 3),
    "tie30b": lambda: tie_graph(3, 7),
    # 16 edges share sym30's largest |efs|, with both signs, and sym30p gives
    # them distinct ratios: the first in rank order, the last in rank order
    # and the first in (u, v) order each yield a different printed deviation
    "sym30": lambda: tie_graph(2, 3, mod=7, shift=3),
    "sym30p": lambda: odd_rows_raised(tie_graph(2, 3, mod=7, shift=3)),
    "tie30x2": lambda: tie_graph(7, 3).scale(2.0),
    "r60": lambda: random_graph(60, 2016, -10.0, 10.0),
    "r60b": lambda: random_graph(60, 2017, -10.0, 10.0),
    "r60neg": lambda: random_graph(60, 2016, -10.0, 10.0).scale(-3.0),
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, make in GRAPHS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(serialize_graph(make()))
        paths[name] = str(path)
    return paths


def stdout_of(capsys, argv):
    assert run(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "graph, size, digest",
    [
        ("tie30", 6140, "1f800abaa92fc1b5b90b29110cae125d7e6923dd725907a77e54eb2bc4b0ce4c"),
        ("sym30", 5415, "e0cda06f2733d1e5b8e331492fecf77578d3868d7c52ce5dc06f34ff6e97b8c1"),
        ("r60", 50086, "9126fe40cfd7b787e72362ad4f865251df2f64575d3b80a9d00dc32f9977496c"),
    ],
)
def test_profile_csv_bytes(files, capsys, graph, size, digest):
    out = stdout_of(capsys, ["efs", files[graph]]).encode()
    assert len(out) == size
    assert hashlib.sha256(out).hexdigest() == digest


def test_tie_profile_head(files, capsys):
    lines = stdout_of(capsys, ["efs", files["tie30"]]).splitlines()
    assert lines[:5] == ["rank,u,v,efs", "1,1,6,1678", "2,1,11,1678", "3,1,16,1678", "4,1,21,1678"]


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ("tie30", "tie30b", "same_ranking false\nscale_factor none\nmax_relative_deviation 0.0956986561174\n"),
        ("sym30", "sym30p", "same_ranking false\nscale_factor none\nmax_relative_deviation 1.6735966736\n"),
        ("tie30", "tie30x2", "same_ranking true\nscale_factor 2\nmax_relative_deviation 0\n"),
        ("r60", "r60b", "same_ranking false\nscale_factor none\nmax_relative_deviation 1.99757051933\n"),
        ("r60", "r60neg", "same_ranking false\nscale_factor -3\nmax_relative_deviation 1.58098548948e-13\n"),
    ],
)
def test_compare_bytes(files, capsys, a, b, expected):
    assert stdout_of(capsys, ["compare", files[a], files[b]]) == expected


@pytest.mark.parametrize(
    "graph, expected",
    [
        ("tie30", "order 30\nedges 435\ntotal_weight 900\nmean_length 62.0689655172\n"
                  "mean_squared_length 3910.25615764\n"),
        ("r60", "order 60\nedges 1770\ntotal_weight 286.939377074\nmean_length 9.72675854488\n"
                "mean_squared_length 2001.86027351\n"),
    ],
)
def test_stats_bytes(files, capsys, graph, expected):
    assert stdout_of(capsys, ["stats", files[graph]]) == expected
