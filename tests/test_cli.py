import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import extrafactorial
from extrafactorial import parse_graph, random_graph, serialize_graph
from extrafactorial.cli import run
from oracles import make_graph4, make_graph5


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

    def test_deterministic_output(self, g5_file, capsys):
        run(["enumerate", g5_file])
        first = capsys.readouterr().out
        run(["enumerate", g5_file])
        assert capsys.readouterr().out == first


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

    def test_byte_identical_runs(self, g5_file, capsys):
        run(["verify", g5_file])
        first = capsys.readouterr().out
        run(["verify", g5_file])
        assert capsys.readouterr().out == first


class TestCompare:
    def test_scaled_copy(self, tmp_path, capsys):
        assert run(["gen", "--n", "8", "--seed", "5", "-o", str(tmp_path / "a.txt")]) == 0
        g = parse_graph((tmp_path / "a.txt").read_text())
        (tmp_path / "b.txt").write_text(serialize_graph(g.scale(0.5)))
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


class TestErrors:
    def test_missing_file(self, capsys):
        assert run(["efs", "missing.wh"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "missing.wh" in captured.err

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
        src = str(Path(extrafactorial.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        limit = 1 << 30
        child = subprocess.run(
            [sys.executable, "-c", "from extrafactorial.cli import main; main()",
             "stats", str(huge)],
            capture_output=True, text=True, env=env, timeout=60,
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
        "command, text",
        [
            # finite weights whose total exceeds the double range
            ("stats", "n 3\n0 1 1e308\n0 2 1e308\n1 2 1e308\n"),
            # finite cycle lengths whose oracle sum exceeds it
            ("verify", serialize_graph(random_graph(5, 1).scale(1e307))),
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

    def test_version(self, capsys):
        assert run(["--version"]) == 0
