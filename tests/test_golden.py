"""Golden CLI output: exact bytes of `xfs efs`, `compare`, `stats`, `enumerate`, `gen` and `verify`.

The tie-heavy integer graph w(u, v) = (7u + 3v) mod 5 takes only five weight
values, so most efs values are shared by many edges: its profile pins the
(u, v) tie-break of the ranking, and its comparisons pin the choice of the
scale pivot among equal-magnitude edges. The random order-60 graph pins the
full-precision values. The order-6 enumerations pin the order in which each
stream visits its seed cycles and inserts the remaining vertices. The order-60
`gen` file pins `serialize_graph`, one digest pins every order-6 stream of
the three enumerators, and another pins the order-8 streams, with pairs that
miss vertex 0 so that the smaller vertices go in front. One edge's statistics
are pinned in text and CSV on an order-3 graph (no cycle avoids an edge, so
`mean_not_through` is left out of the text and empty in the CSV), the two
worked examples and the order-60 graph, with the edge given both ways round.
Long outputs are pinned by SHA-256 digest.
"""

import hashlib
from itertools import combinations, permutations

import pytest

from extrafactorial import (
    CompleteWeightedGraph,
    enumerate_all,
    enumerate_through_edge,
    enumerate_through_pair,
    random_graph,
    serialize_graph,
)
from extrafactorial.cli import run
from oracles import make_graph4, make_graph5, scale_graph


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
    "tie30x2": lambda: scale_graph(tie_graph(7, 3), 2.0),
    "r60": lambda: random_graph(60, 2016, -10.0, 10.0),
    "r60b": lambda: random_graph(60, 2017, -10.0, 10.0),
    "r60neg": lambda: scale_graph(random_graph(60, 2016, -10.0, 10.0), -3.0),
    "r6": lambda: random_graph(6, 2016, -10.0, 10.0),
    "r3": lambda: random_graph(3, 2016, -10.0, 10.0),
    "g4": make_graph4,
    "g5": make_graph5,
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


@pytest.mark.parametrize(
    "flags, size, first, digest",
    [
        ([], 1775, "0-4-2-1-3-5-0  7.77767041527",
         "270c4b46d77b045a6bbc947c2450d4f186b87707e4a0fd881c0e24a893cffd34"),
        (["--through", "0,3"], 708, "0-3-5-1-2-4-0  7.78106461532",
         "54e0dd525b640000356f1b5d0b58a1f372cae8a1bbb563fbf218bd2548cc44f8"),
        (["--through", "2,5"], 704, "0-4-3-1-2-5-0  10.388503612",
         "4ae11d43daf51b6904426033b9ccc9ebabec3fb979c50461ed85727d7bdff9b5"),
        (["--pair", "0,1,1,2"], 174, "0-1-2-5-4-3-0  5.9268394041",
         "6a95c10dc3215a2e54a02a6c69c0e6f1ea5bd2b061beda8fb7dfda202b2539b0"),
        (["--pair", "1,4,2,3"], 359, "0-2-3-4-1-5-0  -30.904524636",
         "8420817c51986ae78877de1cf78ac62878187f4e4f680863bdbfe3c17dec0e24"),
    ],
)
def test_enumerate_bytes(files, capsys, flags, size, first, digest):
    out = stdout_of(capsys, ["enumerate", files["r6"], *flags])
    assert out.splitlines()[0] == first
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gen_bytes(tmp_path, capsys):
    path = tmp_path / "gen60.txt"
    argv = ["gen", "--n", "60", "--seed", "2016", "--lo", "-10", "--hi", "10", "-o", str(path)]
    assert stdout_of(capsys, argv) == f"wrote {path} (order 60, 1770 edges)\n"
    out = path.read_bytes()
    assert out.startswith(b"n 60\n0 1 4.7585005855403555\n")
    assert len(out) == 43204
    assert hashlib.sha256(out).hexdigest() == "b0742966b8ca5ba465871126650eb35002f88c18091fe174ae47032622ebdad8"


def test_stream_order_digest():
    # every order-6 stream, in order: all cycles, the cycles through each edge,
    # and the cycles through each ordered pair of distinct edges (adjacent and
    # not), the first edge given with its endpoints flipped
    n = 6
    edges = list(combinations(range(n), 2))
    streams = [enumerate_all(n)]
    streams += [enumerate_through_edge(n, e) for e in edges]
    streams += [enumerate_through_pair(n, (v, u), f) for (u, v), f in permutations(edges, 2)]
    h = hashlib.sha256()
    yielded = 0
    for stream in streams:
        cycles = [c.vertices for c in stream]
        yielded += len(cycles)
        h.update(repr(cycles).encode() + b"\n")
    assert (len(streams), yielded) == (1 + 15 + 210, 60 + 15 * 24 + 120 * 6 + 90 * 12)
    assert h.hexdigest() == "9aee987f39c85465c7a22f1d1ce50215ae8aa1fbb89fd0d3d1e3df0caa5142fc"


def test_stream_order_digest_order_8():
    # parents of up to 7 vertices, in order: all cycles, the cycles through
    # each edge, and the cycles through each ordered pair of distinct edges
    # among vertices 4..7 (adjacent and not), the first edge given with its
    # endpoints flipped; such a pair misses vertex 0, so vertices 0..3 are
    # each inserted in front of the seed
    n = 8
    edges = list(combinations(range(n), 2))
    streams = [enumerate_all(n)]
    streams += [enumerate_through_edge(n, e) for e in edges]
    streams += [
        enumerate_through_pair(n, (v, u), f)
        for (u, v), f in permutations(combinations(range(4, n), 2), 2)
    ]
    h = hashlib.sha256()
    yielded = 0
    for stream in streams:
        cycles = [c.vertices for c in stream]
        yielded += len(cycles)
        h.update(repr(cycles).encode() + b"\n")
    assert (len(streams), yielded) == (1 + 28 + 30, 2520 + 28 * 720 + 24 * 120 + 6 * 240)
    assert h.hexdigest() == "d3f75efc26a76e2f0281e4012c371dee320efa573fc0c1c47fdba3f78346a366"


EDGE_CSV_HEADER = "u,v,x1,x2,x3,efs,mean_through,mean_not_through\n"


@pytest.mark.parametrize(
    "graph, edge, text, csv_row",
    [
        ("r3", "0,1",
         "edge 0,1\nx1 4.75850058554\nx2 6.82149164899\nx3 0\nefs 11.5799922345\n"
         "mean_through 11.5799922345\n",
         "0,1,4.7585005855403555,6.821491648985518,0,11.579992234525873,11.579992234525873,\n"),
        ("r3", "2,0",
         "edge 0,2\nx1 -1.02594480181\nx2 12.6059370363\nx3 0\nefs 11.5799922345\n"
         "mean_through 11.5799922345\n",
         "0,2,-1.0259448018129262,12.6059370363388,0,11.579992234525873,11.579992234525873,\n"),
        ("g4", "0,1",
         "edge 0,1\nx1 12\nx2 24\nx3 2\nefs 52\nmean_through 26\nmean_not_through 24\n",
         "0,1,12,24,2,52,26,24\n"),
        ("g4", "2,0",
         "edge 0,2\nx1 8\nx2 25\nx3 5\nefs 51\nmean_through 25.5\nmean_not_through 25\n",
         "0,2,8,25,5,51,25.5,25\n"),
        ("g5", "0,1",
         "edge 0,1\nx1 4\nx2 75.1\nx3 55\nefs 197.1\nmean_through 65.7\nmean_not_through 68.4\n",
         "0,1,4,75.1,54.99999999999999,197.09999999999997,65.69999999999999,68.39999999999999\n"),
        ("g5", "2,0",
         "edge 0,2\nx1 12\nx2 100.5\nx3 21.6\nefs 179.7\nmean_through 59.9\nmean_not_through 74.2\n",
         "0,2,12,100.5,21.599999999999994,179.7,59.9,74.19999999999999\n"),
        ("r60", "0,1",
         "edge 0,1\nx1 4.75850058554\nx2 -36.0764182849\nx3 318.257294773\nefs 876.431205223\n"
         "mean_through 15.1108828487\nmean_not_through 9.53784190264\n",
         "0,1,4.7585005855403555,-36.076418284946186,318.2572947733542,876.4312052231029,"
         "15.110882848674187,9.5378419026412\n"),
        ("r60", "2,0",
         "edge 0,2\nx1 -1.02594480181\nx2 -51.2135624007\nx3 339.178884276\nefs 567.639407647\n"
         "mean_through 9.78688633874\nmean_not_through 9.72464879773\n",
         "0,2,-1.0259448018129262,-51.213562400671194,339.17888427643254,567.6394076470442,"
         "9.786886338742141,9.724648797726534\n"),
    ],
)
def test_edge_bytes(files, capsys, graph, edge, text, csv_row):
    assert stdout_of(capsys, ["efs", files[graph], "--edge", edge]) == text
    csv = stdout_of(capsys, ["efs", files[graph], "--edge", edge, "--csv"])
    assert csv == EDGE_CSV_HEADER + csv_row


VERIFY_CHECKS = (
    "cycle_count", "through_edge_count", "through_edge_membership", "efs_closed_form",
    "breakdown_partition", "summational_total", "complement_mean", "mean_length_all",
    "mean_squared_length", "adjacent_pair_count", "non_adjacent_pair_count",
)


@pytest.mark.parametrize("graph", ["r3", "g4", "g5"])
def test_verify_bytes(files, capsys, graph):
    # order 3 has no complement cycles and no non-adjacent pair of edges
    skipped = {"complement_mean", "non_adjacent_pair_count"} if graph == "r3" else set()
    report = "".join(f"PASS {name}\n" for name in VERIFY_CHECKS if name not in skipped)
    assert stdout_of(capsys, ["verify", files[graph]]) == report
    assert stdout_of(capsys, ["--quiet", "verify", files[graph]]) == ""
