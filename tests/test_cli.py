import io
import os
import random
import re
import resource
import signal
import subprocess
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import extrafactorial
from extrafactorial import (
    CompleteWeightedGraph,
    RankedProfile,
    cli,
    cycle_length,
    efs_all,
    enumerate_all,
    enumerate_through_edge,
    enumerate_through_pair,
    export_profile_csv,
    graph,
    parse_graph,
    random_graph,
    serialize_graph,
)
from extrafactorial.cli import run
from extrafactorial.errors import GraphSyntaxError
from extrafactorial.graph import edge_key, pairs
from oracles import make_graph4, make_graph5, scale_graph


def child_env() -> dict[str, str]:
    """The environment for a child Python that imports this package."""
    src = str(Path(extrafactorial.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """``python -m extrafactorial.cli``, the entry point without the installed script."""
    return subprocess.run([sys.executable, "-m", "extrafactorial.cli", *argv],
                          capture_output=True, env=child_env(), timeout=60)


#: A ``python -c`` program that runs ``python <its arguments>`` as a process
#: of its own and, once that ends, writes "<exit code> <ru_maxrss> <CPU
#: seconds>" of that process alone to stderr. Started straight from the test
#: process, the command would report the test process's peak RSS as a floor
#: of its own ``ru_maxrss``: Linux keeps the peak of the address space that
#: ``exec`` replaces, and a test run peaks above 90 MB. A new process started
#: from this small one has its own, small floor.
SPAWN_AND_REPORT = """\
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_utime + usage.ru_stime,
      file=sys.stderr)
"""


def run_fresh(*argv: str) -> tuple[str, float | None, float]:
    """``xfs <argv>`` in a fresh process started by SPAWN_AND_REPORT; returns
    its stdout, its peak RSS in MB (None where ``ru_maxrss`` is not in KiB)
    and its CPU seconds. It must exit 0 with nothing on stderr."""
    child = subprocess.run(
        [sys.executable, "-c", SPAWN_AND_REPORT, "-m", "extrafactorial.cli", *argv],
        capture_output=True, env=child_env(), timeout=60,
    )
    *errors, report = child.stderr.decode().splitlines()
    code, maxrss_kb, cpu = report.split()
    assert (child.returncode, int(code), errors) == (0, 0, [])
    # ru_maxrss is in KiB on Linux
    peak_mb = int(maxrss_kb) / 1024 if sys.platform.startswith("linux") else None
    return child.stdout.decode(), peak_mb, float(cpu)


@pytest.fixture(scope="module")
def order_1000(tmp_path_factory):
    g = random_graph(1000, 7)
    path = tmp_path_factory.mktemp("order-1000") / "g1000.txt"
    path.write_text(serialize_graph(g))
    return g, str(path)


@pytest.fixture(scope="module")
def order_1000_clique(tmp_path_factory):
    # every weight is 1 but those of the pairs inside a 163-vertex clique, so
    # about 70% of the efs tie
    rng = random.Random(1)
    g = CompleteWeightedGraph(
        1000, [rng.uniform(0, 2) if v < 163 else 1.0 for _, v in pairs(1000)]
    )
    path = tmp_path_factory.mktemp("order-1000-clique") / "clique1000.txt"
    path.write_text(serialize_graph(g))
    return g, str(path)


@pytest.fixture
def g4_file(tmp_path):
    path = tmp_path / "g4.txt"
    path.write_text(serialize_graph(make_graph4()))
    return str(path)


@pytest.fixture
def g5_file(tmp_path):
    path = tmp_path / "g5.txt"
    path.write_text(serialize_graph(make_graph5()))
    return str(path)


@pytest.fixture
def g13_file(tmp_path):
    # one order past the default enumeration cap
    path = tmp_path / "g13.txt"
    path.write_text(serialize_graph(random_graph(13, 13)))
    return str(path)


class TestStats:
    def test_sample4(self, g4_file, capsys):
        assert run(["stats", g4_file]) == 0
        out = capsys.readouterr().out
        assert out == (
            "order 4\n"
            "edges 6\n"
            "total_weight 38\n"
            "mean_length 25.3333333333\n"
            "mean_squared_length 643.333333333\n"
        )

    def test_sample5(self, g5_file, capsys):
        assert run(["stats", g5_file]) == 0
        out = capsys.readouterr().out
        assert "total_weight 134.1\n" in out
        assert "mean_length 67.05\n" in out
        assert "mean_squared_length 4738.205\n" in out


class TestEfs:
    def test_single_edge(self, g4_file, capsys):
        assert run(["efs", g4_file, "--edge", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "efs 52\n" in out
        assert "mean_through 26\n" in out
        assert "mean_not_through 24\n" in out
        assert "x1 12\n" in out

    def test_single_edge_sample5(self, g5_file, capsys):
        assert run(["efs", g5_file, "--edge", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "efs 197.1\n" in out
        assert "mean_through 65.7\n" in out
        assert "mean_not_through 68.4\n" in out

    def test_profile_csv(self, g4_file, capsys):
        assert run(["efs", g4_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank,u,v,efs"
        assert lines[1] == "1,0,3,49"
        assert len(lines) == 7

    def test_edge_csv(self, g4_file, capsys):
        assert run(["efs", g4_file, "--edge", "0,1", "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "u,v,x1,x2,x3,efs,mean_through,mean_not_through"
        assert lines[1] == "0,1,12,24,2,52,26,24"

    def test_bad_edge_syntax_is_usage_error(self, g4_file, capsys):
        assert run(["efs", g4_file, "--edge", "zero-one"]) == 2

    @pytest.mark.parametrize(
        "edge, message",
        [
            ("0,1,2", "expected 'u,v', got '0,1,2'"),
            ("0,b", "expected integers in '0,b'"),
        ],
    )
    def test_bad_edge_message(self, g4_file, capsys, edge, message):
        assert run(["efs", g4_file, "--edge", edge]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --edge: {message}\n" in captured.err

    def test_domain_error_keeps_stdout_clean(self, g4_file, capsys):
        assert run(["efs", g4_file, "--edge", "0,9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "VertexOutOfRange" in captured.err

    def test_order_1000_profile_within_budget(self, order_1000, order_1000_clique):
        # the whole command in a fresh process: start-up, parse, efs, rank, CSV.
        # CPU time, not wall time, so that a busy machine does not fail it. On
        # the clique file most efs tie, and a boxed key for each would break
        # the memory budget.
        for g, path in (order_1000, order_1000_clique):
            efs = efs_all(g)
            order = array("q", sorted(range(len(efs)), key=efs.__getitem__))
            stdout, peak_mb, cpu = run_fresh("efs", path)
            assert stdout == "".join(export_profile_csv(RankedProfile(g.n, order, efs))), path
            assert cpu < 5.0, f"xfs efs {path} took {cpu:.2f} s of CPU time"
            if peak_mb is not None:
                assert peak_mb < 45, f"xfs efs {path} peaked at {peak_mb:.1f} MB"

    def test_order_1000_stats_within_budget(self, order_1000):
        # the same for the command that parses the file and takes one efs pass
        _, path = order_1000
        stdout, peak_mb, _ = run_fresh("stats", path)
        assert stdout.startswith("order 1000\nedges 499500\n")
        if peak_mb is not None:
            assert peak_mb < 40, f"xfs stats at order 1000 peaked at {peak_mb:.1f} MB"


class TestEnumerate:
    def test_all_cycles(self, g4_file, capsys):
        assert run(["enumerate", g4_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0] == "0-2-1-3-0  24"

    def test_through(self, g5_file, capsys):
        assert run(["enumerate", g5_file, "--through", "0,1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert all("  " in line for line in lines)

    def test_pair(self, g5_file, capsys):
        assert run(["enumerate", g5_file, "--pair", "0,4,3,4"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    @pytest.mark.parametrize(
        "pair, message",
        [
            ("0,1,2", "expected 'u,v,x,y', got '0,1,2'"),
            ("0,1,a,b", "expected integers in '0,1,a,b'"),
        ],
    )
    def test_bad_pair_syntax_is_usage_error(self, g5_file, capsys, pair, message):
        assert run(["enumerate", g5_file, "--pair", pair]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --pair: {message}\n" in captured.err

    def test_limit(self, g5_file, capsys):
        assert run(["enumerate", g5_file, "--limit", "4"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert run(["enumerate", g5_file, "--limit", "0"]) == 0
        assert capsys.readouterr().out == ""
        assert run(["enumerate", g5_file, "--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--limit" in captured.err
        assert run(["enumerate", g5_file, "--limit", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --limit: expected an integer, got 'x'\n" in captured.err

    def test_cap_refusal(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        n = 13
        lines = [f"n {n}"] + [
            f"{u} {v} 1" for u in range(n) for v in range(u + 1, n)
        ]
        big.write_text("\n".join(lines) + "\n")
        assert run(["enumerate", str(big)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "EnumerationCapExceeded" in captured.err

    def test_cap_refusal_with_limit(self, g13_file, capsys):
        # the cap is checked before the first cycle, whatever the limit
        assert run(["enumerate", g13_file, "--limit", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "EnumerationCapExceeded" in captured.err

    def test_max_order_lifts_the_cap(self, g13_file, capsys):
        assert run(["enumerate", g13_file, "--max-order", "13", "--limit", "1"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1
        assert captured.err == ""

    def test_deterministic_output(self, g5_file, capsys):
        run(["enumerate", g5_file])
        first = capsys.readouterr().out
        run(["enumerate", g5_file])
        assert capsys.readouterr().out == first


def reference_lines(g: CompleteWeightedGraph, cycles) -> str:
    """``xfs enumerate``'s output written one line per cycle, as the cycle
    prints and as ``format`` gives the length."""
    return "".join(f"{c}  {format(cycle_length(g, c), '.12g')}\n" for c in cycles)


@pytest.fixture(scope="module")
def g9(tmp_path_factory):
    g = random_graph(9, 25, -10.0, 10.0)
    path = tmp_path_factory.mktemp("order-9") / "g9.txt"
    path.write_text(serialize_graph(g))
    return g, str(path)


class TestEnumerateBlocks:
    """``enumerate`` joins its lines into blocks; the bytes are those of one
    line per cycle."""

    @pytest.mark.parametrize("n", range(3, 10))
    @pytest.mark.parametrize("mode", ["all", "through", "pair"])
    def test_same_bytes_as_one_line_per_cycle(self, tmp_path, capsys, n, mode):
        g = random_graph(n, n, -10.0, 10.0)
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(g))
        if mode == "all":
            argv, cycles = [], enumerate_all(n)
        elif mode == "through":
            argv, cycles = ["--through", f"1,{n - 1}"], enumerate_through_edge(n, (1, n - 1))
        else:
            # non-adjacent from order 4, adjacent at order 3
            e2 = (2, 3) if n > 3 else (1, 2)
            argv = ["--pair", f"0,1,{e2[0]},{e2[1]}"]
            cycles = enumerate_through_pair(n, (0, 1), e2)
        assert run(["enumerate", str(path), *argv]) == 0
        assert capsys.readouterr() == (reference_lines(g, cycles), "")

    @pytest.mark.parametrize("limit", [0, 1, 1023, 1024, 1025])
    def test_limit_around_one_block(self, g9, capsys, limit):
        g, path = g9
        assert run(["enumerate", path, "--limit", str(limit)]) == 0
        expected = reference_lines(g, islice(enumerate_all(9), limit))
        assert capsys.readouterr() == (expected, "")

    def test_one_write_per_block(self, g9):
        class CountingStdout(io.StringIO):
            def __init__(self):
                super().__init__()
                self.lines_per_write = []

            def write(self, s):
                self.lines_per_write.append(s.count("\n"))
                return super().write(s)

        _, path = g9
        out = CountingStdout()
        with redirect_stdout(out):
            assert run(["enumerate", path]) == 0
        lines = sum(out.lines_per_write)
        assert lines == 20160
        assert len(out.lines_per_write) <= -(-lines // 1024) + 1
        assert max(out.lines_per_write) <= 1024

    @given(st.floats())
    def test_number_format_is_format_12g(self, x):
        assert cli._NUMBER % x == format(x, ".12g")


class TestVerify:
    @pytest.mark.parametrize("fixture", ["g4_file", "g5_file"])
    def test_passes(self, fixture, request, capsys):
        path = request.getfixturevalue(fixture)
        assert run(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS efs_closed_form" in out
        assert "PASS summational_total" in out
        assert "PASS mean_squared_length" in out

    def test_quiet_success_prints_nothing(self, g4_file, capsys):
        assert run(["--quiet", "verify", g4_file]) == 0
        assert capsys.readouterr().out == ""

    def test_override_below_order_refuses(self, g5_file, capsys):
        assert run(["verify", g5_file, "--max-n-override", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "EnumerationCapExceeded" in captured.err

    def test_override_at_order_passes(self, g5_file, capsys):
        assert run(["verify", g5_file, "--max-n-override", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        assert all(line.startswith("PASS ") for line in lines)

    def test_byte_identical_runs(self, g5_file, capsys):
        run(["verify", g5_file])
        first = capsys.readouterr().out
        run(["verify", g5_file])
        assert capsys.readouterr().out == first

    def test_cycles_missing_the_edge_fail_membership(self, g5_file, capsys, monkeypatch):
        # the right number of cycles, (n-2)!, none of which traverses the edge
        def missing(n, e, *, max_order=None):
            return (c for c in enumerate_all(n) if edge_key(*e) not in set(c.edges()))

        monkeypatch.setattr(cli, "enumerate_through_edge", missing)
        assert run(["verify", g5_file]) == 1
        out = capsys.readouterr().out
        assert "PASS through_edge_count\n" in out
        assert "FAIL through_edge_membership\n" in out


class TestCompare:
    def test_scaled_copy(self, tmp_path, capsys):
        assert run(["gen", "--n", "8", "--seed", "5", "-o", str(tmp_path / "a.txt")]) == 0
        g = parse_graph((tmp_path / "a.txt").read_text())
        (tmp_path / "b.txt").write_text(serialize_graph(scale_graph(g, 0.5)))
        capsys.readouterr()
        assert run(["compare", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]) == 0
        out = capsys.readouterr().out
        assert "same_ranking true\n" in out
        assert "scale_factor 0.5\n" in out

    def test_self_compare(self, g4_file, capsys):
        assert run(["compare", g4_file, g4_file]) == 0
        out = capsys.readouterr().out
        assert "same_ranking true\n" in out
        assert "scale_factor 1\n" in out
        assert "max_relative_deviation 0\n" in out

    def test_unrelated(self, tmp_path, capsys):
        run(["gen", "--n", "9", "--seed", "1", "-o", str(tmp_path / "a.txt")])
        run(["gen", "--n", "9", "--seed", "2", "-o", str(tmp_path / "b.txt")])
        capsys.readouterr()
        assert run(["compare", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]) == 0
        out = capsys.readouterr().out
        assert "same_ranking false\n" in out
        assert "scale_factor none\n" in out

    @pytest.mark.parametrize(
        "a, b, ranking, deviation",
        [
            # unrelated graphs, and one graph on both ends of the double range
            ((1, 1e-300), (2, 1e300), "false", "0.365862940902"),
            ((1, 1e-300), (1, 1e300), "true", "3.09667177851e-16"),
            ((1, 1e300), (1, 1e-300), "true", "3.09667177851e-16"),
        ],
        ids=["unrelated", "tiny-to-huge", "huge-to-tiny"],
    )
    def test_ratio_beyond_the_double_range(self, tmp_path, capsys, a, b, ranking, deviation):
        # the ratio of the efs overflows to inf or underflows to 0 as a double,
        # so no double is the scale factor, and the deviation is exact
        files = []
        for name, (seed, c) in zip("ab", (a, b)):
            files.append(tmp_path / f"{name}.txt")
            files[-1].write_text(serialize_graph(scale_graph(random_graph(5, seed), c)))
        assert run(["compare", *map(str, files)]) == 0
        assert capsys.readouterr() == (
            f"same_ranking {ranking}\nscale_factor none\nmax_relative_deviation {deviation}\n",
            "",
        )


class TestGen:
    def test_writes_parseable_graph(self, tmp_path, capsys):
        target = str(tmp_path / "g.txt")
        assert run(["gen", "--n", "6", "--seed", "7", "-o", target]) == 0
        assert "wrote" in capsys.readouterr().out
        g = parse_graph((tmp_path / "g.txt").read_text())
        assert g.n == 6
        assert all(0.0 <= w <= 1.0 for w in g.weights)

    def test_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        run(["gen", "--n", "7", "--seed", "3", "-o", a])
        run(["gen", "--n", "7", "--seed", "3", "-o", b])
        assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()

    def test_quiet(self, tmp_path, capsys):
        assert run(["--quiet", "gen", "--n", "5", "--seed", "1", "-o", str(tmp_path / "q.txt")]) == 0
        assert capsys.readouterr().out == ""

    def test_custom_range(self, tmp_path):
        target = tmp_path / "r.txt"
        run(["gen", "--n", "5", "--seed", "2", "--lo", "-3", "--hi", "-1", "-o", str(target)])
        g = parse_graph(target.read_text())
        assert all(-3.0 <= w <= -1.0 for w in g.weights)

    def test_overflowing_range_is_bad_range(self, tmp_path, capsys):
        # both ends finite, but hi - lo overflows to inf
        target = tmp_path / "r.txt"
        argv = ["gen", "--n", "3", "--seed", "1", "--lo=-1.7e308", "--hi", "1.7e308",
                "-o", str(target)]
        assert run(argv) == 1
        assert capsys.readouterr() == (
            "", "error: BadRange: bad weight range [-1.7e+308, 1.7e+308]\n"
        )
        assert not target.exists()

    def test_negative_exponent_range_with_equals_sign(self, tmp_path):
        # argparse reads a separate "-1e300" as an option; "--lo=-1e300" works
        target = tmp_path / "r.txt"
        argv = ["gen", "--n", "4", "--seed", "1", "--lo=-1e300", "--hi=-1e299",
                "-o", str(target)]
        assert run(argv) == 0
        g = parse_graph(target.read_text())
        assert all(-1e300 <= w <= -1e299 for w in g.weights)


class TestErrors:
    def test_missing_file(self, capsys):
        assert run(["efs", "missing.wh"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "missing.wh" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "{bad}"],
            ["efs", "{bad}"],
            ["efs", "{bad}", "--edge", "0,1", "--csv"],
            ["enumerate", "{bad}"],
            ["verify", "{bad}"],
            ["compare", "{bad}", "{good}"],
            ["compare", "{good}", "{bad}"],
        ],
        ids=["stats", "efs", "efs-edge", "enumerate", "verify", "compare-a", "compare-b"],
    )
    def test_file_not_utf8_is_usage_error(self, tmp_path, g4_file, capsys, argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"n 3\n0 1 1\n0 2 \xff\n1 2 3\n")
        assert run([a.format(bad=bad, good=g4_file) for a in argv]) == 2
        assert capsys.readouterr() == (
            "", f"error: {str(bad)!r} is not UTF-8 text: invalid start byte at byte 14\n"
        )

    @pytest.mark.parametrize(
        "argv", [["stats"], ["efs"], ["efs", "--edge", "0,2"], ["enumerate"]],
        ids=["stats", "efs", "efs-edge", "enumerate"],
    )
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, argv):
        text = b"n 3\n0 1 1\n0 2 2\n1 2 3\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert run([argv[0], str(plain), *argv[1:]]) == 0
        expected = capsys.readouterr()
        assert run([argv[0], str(marked), *argv[1:]]) == 0
        assert capsys.readouterr() == expected
        assert expected.out

    def test_byte_order_mark_keeps_file_byte_offsets(self, tmp_path, capsys):
        bad = tmp_path / "bom-latin1.txt"
        bad.write_bytes(b"\xef\xbb\xbfn 3\n0 1 1\n0 2 \xff\n1 2 3\n")
        assert run(["stats", str(bad)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {str(bad)!r} is not UTF-8 text: invalid start byte at byte 17\n"
        )

    @staticmethod
    def blocks_file(n):
        """An order-n graph file of several blocks, with a two-byte character
        in a comment in its first; returns its bytes and the offsets at which
        its second and third blocks start."""
        header, rest = serialize_graph(random_graph(n, 5)).split("\n", 1)
        data = f"{header}\n# caf\u00e9\n{rest}".encode()
        # a block is _CHUNK_CHARS bytes and the rest of the line they end in
        second = data.index(b"\n", graph._CHUNK_CHARS) + 1
        third = data.index(b"\n", second + graph._CHUNK_CHARS) + 1
        return data, second, third

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_bad_byte_in_a_later_block_is_named_by_its_file_offset(self, tmp_path, capsys, bom):
        data, _, third = self.blocks_file(150)
        at = third + 10
        bad = tmp_path / "bad.txt"
        bad.write_bytes(bom + data[:at] + b"\xff" + data[at + 1 :])
        assert run(["stats", str(bad)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {str(bad)!r} is not UTF-8 text: invalid start byte at byte {len(bom) + at}\n"
        )

    def test_byte_order_mark_opening_a_later_block_is_text(self, tmp_path, capsys):
        # only the file's first character may be a byte-order mark; one that
        # starts a later line is part of its first token, as in one decoded text
        data, second, _ = self.blocks_file(150)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data[:second] + "\ufeff".encode() + data[second:])
        with pytest.raises(GraphSyntaxError) as info:
            parse_graph(bad.read_text(encoding="utf-8"))
        assert info.value.line_no == data[:second].count(b"\n") + 1
        assert run(["stats", str(bad)]) == 1
        assert capsys.readouterr() == ("", f"error: GraphSyntaxError: {info.value}\n")

    @pytest.mark.parametrize("command", ["stats", "efs"])
    def test_bad_byte_outranks_an_earlier_syntax_error(self, tmp_path, capsys, command):
        # a syntax error on line 5, in the first block, and a bad byte in the third
        data, _, third = self.blocks_file(150)
        data = data.replace(b"\n0 3 0", b"\n0 3 x", 1)
        at = third + 10
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data[:at] + b"\xc3(" + data[at + 2 :])
        assert run([command, str(bad)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {str(bad)!r} is not UTF-8 text: invalid continuation byte at byte {at}\n"
        )
        # without the bad byte, the syntax error is reported
        bad.write_bytes(data)
        with pytest.raises(GraphSyntaxError, match=r"^line 5: bad edge line '0 3 x") as info:
            parse_graph(data.decode())
        assert run([command, str(bad)]) == 1
        assert capsys.readouterr() == ("", f"error: GraphSyntaxError: {info.value}\n")

    def test_unknown_flag(self, g4_file):
        assert run(["stats", g4_file, "--nope"]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_malformed_graph_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("n 3\n0 1 1.0\n")
        assert run(["stats", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "MissingEdge" in captured.err

    def test_order_header_far_beyond_edge_lines(self, tmp_path):
        # the header alone must not size an allocation: 5e17 pairs promised.
        # The command runs in a child limited to 1 GiB of address space, so
        # an allocation sized by the header fails this test alone.
        huge = tmp_path / "huge.txt"
        huge.write_text("n 1000000000\n0 1 1\n")
        limit = 1 << 30
        child = subprocess.run(
            [sys.executable, "-c", "from extrafactorial.cli import main; main()",
             "stats", str(huge)],
            capture_output=True, text=True, env=child_env(), timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (child.returncode, child.stdout, child.stderr) == (
            1, "", "error: MissingEdge: no weight for edge (0, 2)\n"
        )

    @pytest.mark.parametrize(
        "text, err",
        [
            # every pair in row-major order; the last weight overflows to inf
            ("n 3\n0 1 1\n0 2 1\n1 2 1e999\n",
             "error: NonFiniteWeight: weight inf for edge (1, 2) is not finite\n"),
            ("n 2\n0 1 1\n", "error: OrderTooSmall: graph order must be >= 3, got 2\n"),
        ],
    )
    def test_rejected_graph_error_line(self, tmp_path, capsys, text, err):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert run(["stats", str(path)]) == 1
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "old, new, err",
        [
            ("1 3 6\n", "1 3 inf\n",
             "error: NonFiniteWeight: weight inf for edge (1, 3) is not finite\n"),
            ("1 3 6\n", "1 3 6\n3 1 6.5\n",
             "error: DuplicateEdge: edge (1, 3) given twice with 6.0 and 6.5\n"),
        ],
    )
    def test_row_major_file_rejected_with_the_loops_message(
        self, tmp_path, capsys, old, new, err
    ):
        # every pair in row-major order, one weight infinite or one line repeated
        text = serialize_graph(CompleteWeightedGraph(5, tuple(map(float, range(1, 11)))))
        assert old in text
        path = tmp_path / "bad.txt"
        path.write_text(text.replace(old, new))
        assert run(["efs", str(path)]) == 1
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "command, text",
        [
            # finite weights whose total exceeds the double range
            ("stats", "n 3\n0 1 1e308\n0 2 1e308\n1 2 1e308\n"),
            # finite cycle lengths whose oracle sum exceeds it
            ("verify", serialize_graph(scale_graph(random_graph(5, 1), 1e307))),
        ],
    )
    def test_arithmetic_overflow_is_domain_error(self, tmp_path, capsys, command, text):
        path = tmp_path / "overflow.txt"
        path.write_text(text)
        assert run([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: OverflowError: intermediate overflow in fsum\n"

    # finite weights whose cycle lengths overflow to inf and to -inf, which an
    # fsum of the lengths cannot add
    BOTH_WAYS = "n 4\n0 1 1e308\n0 2 1e308\n1 3 1e308\n0 3 -1e308\n1 2 -1e308\n2 3 -1e308\n"

    def test_cycle_lengths_overflowing_both_ways_are_domain_error(self, tmp_path, capsys):
        path = tmp_path / "overflow.txt"
        path.write_text(self.BOTH_WAYS)
        assert run(["verify", str(path)]) == 1
        assert capsys.readouterr() == (
            "",
            "error: OverflowError: length of cycle 0-1-3-2-0 overflows the double range\n",
        )

    def test_enumerate_stops_at_first_overflowing_cycle(self, tmp_path, capsys):
        # enumerate streams: the cycles before the overflowing one stay printed
        path = tmp_path / "overflow.txt"
        path.write_text(self.BOTH_WAYS)
        assert run(["enumerate", str(path)]) == 1
        assert capsys.readouterr() == (
            "0-2-1-3-0  0\n",
            "error: OverflowError: length of cycle 0-1-3-2-0 overflows the double range\n",
        )

    def test_enumerate_keeps_every_block_before_the_overflowing_cycle(self, tmp_path, capsys):
        # edges (0, 1) and (1, 2) of 1e308 overflow only the cycles through
        # both, the first of which comes blocks into the order-9 stream
        ws = [1e308 if e in ((0, 1), (1, 2)) else float(k % 7)
              for k, e in enumerate(pairs(9))]
        g = CompleteWeightedGraph(9, ws)
        path = tmp_path / "overflow.txt"
        path.write_text(serialize_graph(g))
        cycles = list(enumerate_all(9))
        first = next(k for k, c in enumerate(cycles)
                     if c.contains_edge(0, 1) and c.contains_edge(1, 2))
        assert first > 2 * 1024 and first % 1024
        assert run(["enumerate", str(path)]) == 1
        assert capsys.readouterr() == (
            reference_lines(g, cycles[:first]),
            f"error: OverflowError: length of cycle {cycles[first]} overflows the double range\n",
        )

    @pytest.mark.parametrize(
        "text",
        [
            # products w * efs of 3e400, beyond the double range
            "n 3\n0 1 1e200\n0 2 1e200\n1 2 1e200\n",
            # products that overflow to inf and to -inf, which fsum cannot add
            "n 4\n0 1 1e200\n0 2 1e200\n0 3 1e200\n1 2 1e200\n1 3 1e200\n2 3 -1e200\n",
        ],
        ids=["inf", "inf-and-minus-inf"],
    )
    def test_mean_squared_length_overflow_is_domain_error(self, tmp_path, capsys, text):
        path = tmp_path / "overflow.txt"
        path.write_text(text)
        assert run(["stats", str(path)]) == 1
        assert capsys.readouterr() == (
            "", "error: OverflowError: mean_squared_length overflows the double range\n"
        )

    # finite weights with a total of 0 whose naively summed strengths overflow
    # to inf and -inf, so the closed-form efs would be NaN
    NAN_EFS = "n 4\n0 1 1e308\n0 3 1e308\n1 3 1e308\n0 2 -1e308\n1 2 -1e308\n2 3 -1e308\n"
    # finite weights and a finite efs for every edge not (0, 2) or (1, 3), but
    # (n-2) * W overflows, so the mean of the cycles avoiding (0, 1) would be inf
    BIG_TOTAL = "n 4\n0 1 0\n0 2 1.7e308\n0 3 0\n1 2 0\n1 3 0\n2 3 0\n"

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            (NAN_EFS, ["efs"], "efs of edge (0, 1)"),
            (NAN_EFS, ["efs", "--edge", "0,3", "--csv"], "efs of edge (0, 3)"),
            (NAN_EFS, ["stats"], "efs of edge (0, 1)"),
            (NAN_EFS, ["efs", "--edge", "0,3"], "efs of edge (0, 3)"),
            (BIG_TOTAL, ["efs", "--edge", "0,1"], "mean_not_through of edge (0, 1)"),
            (BIG_TOTAL, ["efs", "--edge", "0,1", "--csv"], "mean_not_through of edge (0, 1)"),
        ],
        # explicit ids: the four efs cases keep their established names
        ids=["argv0-(0, 1)", "argv1-(0, 3)", "argv2-(0, 1)", "argv3-(0, 3)",
             "mean_not_through-text", "mean_not_through-csv"],
    )
    def test_non_finite_efs_is_domain_error(self, tmp_path, capsys, text, argv, message):
        path = tmp_path / "overflow.txt"
        path.write_text(text)
        assert run([argv[0], str(path), *argv[1:]]) == 1
        assert capsys.readouterr() == (
            "",
            f"error: OverflowError: {message} overflows the double range\n",
        )

    @pytest.mark.parametrize("nan_first", [True, False], ids=["first", "second"])
    def test_compare_with_non_finite_efs_is_domain_error(
        self, tmp_path, g4_file, capsys, nan_first
    ):
        path = tmp_path / "overflow.txt"
        path.write_text(self.NAN_EFS)
        files = [str(path), g4_file] if nan_first else [g4_file, str(path)]
        assert run(["compare", *files]) == 1
        assert capsys.readouterr() == (
            "",
            "error: OverflowError: efs of edge (0, 1) overflows the double range\n",
        )

    def test_version(self, capsys):
        assert run(["--version"]) == 0


#: Weights at the edges of the double range, whose sums, products and
#: differences overflow, underflow or cancel.
EXTREME_WEIGHTS = st.sampled_from(
    [1.7e308, -1.7e308, 1e200, -1e200, 5e-324, -5e-324, 0.0, -0.0, 1.0, 1e16, -1e16]
)


def extreme_graphs(n):
    m = n * (n - 1) // 2
    return st.lists(EXTREME_WEIGHTS, min_size=m, max_size=m).map(
        lambda ws: CompleteWeightedGraph(n, ws))


def run_captured(argv: list[str]) -> tuple[int, str, str]:
    """``run(argv)`` with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestNeverATraceback:
    """On any graph of finite weights, every command ends in exit 0 or 1,
    with one error line on stderr or a report on stdout, and never prints a
    non-finite value as if it were one."""

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(
        extreme_graphs(n), extreme_graphs(n), st.sampled_from(list(pairs(n))),
        st.integers(0, 30),
    )))
    # products w * efs of 1e400 and -1e400 make fsum raise ValueError
    @example(case=(CompleteWeightedGraph(4, (1e200,) * 5 + (-1e200,)),
                   make_graph4(), (2, 3), 1))
    @settings(max_examples=200, deadline=None)
    def test_extreme_weights(self, tmp_path_factory, case):
        g, h, (u, v), limit = case
        work = tmp_path_factory.mktemp("extreme")
        a, b = work / "a.txt", work / "b.txt"
        a.write_text(serialize_graph(g))
        b.write_text(serialize_graph(h))
        edge = f"{u},{v}"
        commands = [
            ["stats", str(a)],
            ["efs", str(a)],
            ["efs", str(a), "--edge", edge],
            ["efs", str(a), "--edge", edge, "--csv"],
            ["enumerate", str(a), "--limit", str(limit)],
            ["verify", str(a)],
            ["compare", str(a), str(b)],
        ]
        for argv in commands:
            code, out, err = run_captured(argv)
            assert code in (0, 1), argv
            lines = out.splitlines()
            if code == 0:
                assert err == "", argv
            elif argv[0] == "verify" and err == "":
                assert any(line.startswith("FAIL ") for line in lines), argv
            else:
                assert re.fullmatch(r"error: [^\n]*\n", err), (argv, err)
                assert out == "" or argv[0] == "enumerate", (argv, out)
            for line in lines:
                tokens = set(re.split(r"[\s,()]+", line.lower()))
                assert "nan" not in tokens, (argv, line)
                if {"inf", "-inf"} & tokens:
                    assert argv[0] == "compare", (argv, line)
                    assert line == "max_relative_deviation inf", (argv, line)
                    assert "scale_factor none" in lines, (argv, out)


class TestModuleEntryPoint:
    def test_prints_what_run_prints(self, g4_file, capsys):
        child = run_module("stats", g4_file)
        assert run(["stats", g4_file]) == 0
        assert (child.returncode, child.stdout, child.stderr) == (
            0, capsys.readouterr().out.encode(), b""
        )

    def test_no_arguments_is_usage_error(self):
        assert run_module().returncode == 2

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
    def test_closed_stdout_ends_quietly(self, tmp_path):
        # order 9 prints far more than a pipe buffers, so the child is still
        # writing when the reader closes its end after one line
        path = tmp_path / "g9.txt"
        path.write_text(serialize_graph(random_graph(9, 1)))
        with subprocess.Popen(
            [sys.executable, "-m", "extrafactorial.cli", "enumerate", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        ) as child:
            assert child.stdout.readline()
            child.stdout.close()
            assert child.stderr.read() == b""
            assert child.wait(timeout=60) == -signal.SIGPIPE
