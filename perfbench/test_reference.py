"""The benchmark's checker must count a wrong output as a failed command.

    python3 -m pytest perfbench/test_reference.py

Real outputs come from the program, started the way the benchmark starts it;
each test breaks one of them the smallest way it can and expects a failure.
"""

from __future__ import annotations

import math

import pytest

import layers
import reference
import run

ORDER = 8


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(command, launcher reply, checked text) for real runs at order 8, plus
    one stats run on a missing file."""
    work = tmp_path_factory.mktemp("perfbench")
    g = run._write(work, "g", ORDER, reference.random_weights(ORDER, 5, -10.0, 10.0))
    commands = {
        "efs": run._efs(g),
        "enumerate": run._enumerate(g),
        "gen": run._gen(work / "gen.txt", ORDER, 11),
        "stats": run._stats(g),
        "missing": run._stats(run.Graph(ORDER, g.weights, work / "missing.txt")),
    }
    launcher = run.Launcher()
    try:
        return {name: (cmd, *run._spawn(launcher, cmd, work)) for name, cmd in commands.items()}
    finally:
        launcher.close()


def judge(cmd, text, exit_code=0):
    tally = run.Tally()
    return tally.judge(cmd, exit_code, text), tally


@pytest.mark.parametrize("name", ["efs", "enumerate", "gen", "stats"])
def test_real_output_passes(outputs, name):
    cmd, reply, text = outputs[name]
    assert reply["exit"] == 0
    assert judge(cmd, text)[0]


def test_changed_csv_digit_fails(outputs):
    cmd, _, text = outputs["efs"]
    lines = text.split("\n")
    rank, u, v, efs = lines[4].split(",")
    point = efs.index(".")
    digit = str((int(efs[point + 1]) + 1) % 10)
    lines[4] = ",".join((rank, u, v, efs[: point + 1] + digit + efs[point + 2 :]))
    ok, tally = judge(cmd, "\n".join(lines))
    assert not ok and tally.failed == 1


def test_changed_last_digit_fails_against_an_earlier_identical_run(outputs):
    # Below the efs tolerance, but identical invocations must print identical bytes.
    cmd, _, text = outputs["efs"]
    lines = text.split("\n")
    last = lines[4][-1]
    lines[4] = lines[4][:-1] + ("1" if last != "1" else "2")
    ok, tally = judge(cmd, text)
    assert ok
    assert not tally.judge(cmd, 0, "\n".join(lines))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_dropped_cycle_line_fails(outputs):
    cmd, _, text = outputs["enumerate"]
    lines = text.splitlines(keepends=True)
    ok, tally = judge(cmd, "".join(lines[:7] + lines[8:]))
    assert not ok and tally.failed == 1


def test_altered_gen_weight_fails(outputs):
    cmd, _, text = outputs["gen"]
    lines = text.splitlines(keepends=True)
    u, v, w = lines[3].split()
    lines[3] = f"{u} {v} {math.nextafter(float(w), 2.0)!r}\n"
    ok, tally = judge(cmd, "".join(lines))
    assert not ok and tally.failed == 1


def test_exit_code_2_fails(outputs):
    cmd, reply, text = outputs["missing"]
    assert reply["exit"] == 2
    ok, tally = judge(cmd, text, reply["exit"])
    assert not ok and tally.failed == 1


def _traced_verify(path, bypass: str | None = None):
    """Run ``xfs verify`` traced; with ``bypass``, the CLI calls that function
    unwrapped, as if it had bound the name at import time."""
    modules = run._import_program()
    original = getattr(modules["cli"], bypass) if bypass else None
    tracer = layers.Tracer()
    with tracer.installed(modules):
        if bypass:
            setattr(modules["cli"], bypass, original)
        code, out, _ = layers.run_cli(modules["cli"].run, ["verify", str(path)], tracer, "cli.verify")
    assert code == 0 and all(line.startswith("PASS") for line in out.splitlines())
    return tracer


@pytest.fixture
def g6(tmp_path):
    path = tmp_path / "g6.txt"
    path.write_text(reference.graph_text(6, reference.random_weights(6, 3)), encoding="utf-8")
    return path


def test_tracer_counts_every_oracle_cycle_and_restores_the_program(g6):
    modules = run._import_program()
    originals = {name: getattr(modules["cli"], name) for name in ("parse_graph", "cycle_length")}
    tracer = _traced_verify(g6)
    n = 6
    full, through, pair = math.factorial(n - 1) // 2, math.factorial(n - 2), math.factorial(n - 3)
    expected = 3 * full + n * (n - 1) // 2 * through + pair + 2 * pair
    assert tracer.counts["cycles.cycles_yielded"] == expected
    assert all(calls > 0 for calls in run.span_calls(tracer, "verify").values())
    assert {name: getattr(modules["cli"], name) for name in originals} == originals


def test_span_check_catches_a_bypassed_wrapper(g6):
    tracer = _traced_verify(g6, bypass="cycle_length")
    calls = run.span_calls(tracer, "verify")
    assert [name for name, n in calls.items() if n == 0] == ["cycles.cycle_length"]
