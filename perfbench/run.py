"""Benchmark of the xfs command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this
directory and needs no build or install.

``--trace 0`` drives the real CLI as fresh processes, one command at a
time from one client (a closed loop), and reports wall time per command
from spawn to ``os.wait4``, peak RSS per child, and the share of commands
that succeeded. ``--trace 1`` calls ``extrafactorial.cli.run`` in-process,
untraced and traced, and reports per-layer spans and counts (see
layers.py) plus tracemalloc peaks from a pass of their own.

Every command's output is checked against references the benchmark
computes itself (reference.py); a non-zero exit, a timeout or a wrong
output counts as a failed command. The last stdout line is the result
object; the line before it is the full record (environment, samples,
failures), also appended to ``.perfbench/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import layers
import reference
from reference import CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: Seed kept out of tuning; a claimed gain is confirmed on it.
HELD_OUT_SEED = 90173
COMMAND_TIMEOUT_S = 60.0
#: Order of the small files on which a workload runs the commands outside
#: its focus, so every workload reports every metric.
PROBE_ORDER = 7
#: Verify graphs per oracle-9 run, used in turn.
ORACLE_GRAPHS = 4

XFS = (sys.executable, "-c", "from extrafactorial.cli import main; main()")
COMMANDS = ("efs", "stats", "verify", "enumerate", "gen", "compare")
#: Spans each command must record in the traced pass. A missing one means a
#: layer was not reached through its wrapper, so its numbers would be wrong.
REQUIRED_SPANS = {
    "efs": ("graph.parse_graph", "graph.build_graph", "efs.efs_all",
            "profile.ranked_profile", "profile.export_profile_csv"),
    "stats": ("graph.parse_graph", "efs.mean_squared_length"),
    "verify": ("graph.parse_graph", "efs.efs_all", "efs.summational_graph",
               "cycles.stream", "cycles.cycle_length"),
    "enumerate": ("graph.parse_graph", "cycles.stream", "cycles.cycle_length"),
    "gen": ("graph.random_graph", "graph.serialize_graph"),
    "compare": ("graph.parse_graph", "profile.ranked_profile", "profile.compare_profiles"),
}


@dataclass(frozen=True)
class Graph:
    n: int
    weights: list[float]
    path: Path


@dataclass(frozen=True)
class Command:
    metric: str
    argv: tuple[str, ...]  # after "xfs"
    check: Callable[[str], None]
    output: Path | None = None  # file checked instead of stdout
    order: int = 0  # graph order, for the oracle's useful ratio

    @property
    def name(self) -> str:
        return next((a for a in self.argv if not a.startswith("-")), "version")


@dataclass
class Workload:
    main: Graph  # input of the direct per-layer calls
    rounds: Callable[[int], list[Command]]


def _write(work: Path, label: str, n: int, weights: list[float]) -> Graph:
    path = work / f"{label}.txt"
    path.write_text(reference.graph_text(n, weights), encoding="utf-8")
    return Graph(n, weights, path)


def _efs(g: Graph) -> Command:
    check = partial(reference.check_efs_csv, n=g.n, weights=g.weights)
    return Command("efs_profile_s", ("efs", str(g.path)), check)


def _verify(g: Graph) -> Command:
    return Command("verify_s", ("verify", str(g.path)), reference.check_verify, order=g.n)


def _enumerate(g: Graph) -> Command:
    check = partial(reference.check_enumerate, n=g.n, weights=g.weights)
    return Command("enumerate_s", ("enumerate", str(g.path)), check)


def _gen(path: Path, n: int, seed: int) -> Command:
    argv = ("--quiet", "gen", "--n", str(n), "--seed", str(seed), "-o", str(path))
    return Command("gen_s", argv, partial(reference.check_gen, n=n, seed=seed), output=path)


def _stats(g: Graph) -> Command:
    check = partial(reference.check_stats, n=g.n, weights=g.weights)
    return Command("stats_s", ("stats", str(g.path)), check)


def _compare(a: Graph, b: Graph) -> Command:
    return Command("compare_s", ("compare", str(a.path), str(b.path)), reference.check_compare)


VERSION = Command("setup_s", ("--version",), reference.check_version)

WORKLOADS = ("profile-1000", "oracle-9")


def build_workload(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's input files, all drawn from ``seed``."""
    rng = random.Random(f"perfbench/{name}/{seed}")
    draw = lambda: rng.getrandbits(32)
    probe = _write(work, "probe", PROBE_ORDER, reference.random_weights(PROBE_ORDER, draw(), -10.0, 10.0))
    half = _write(work, "probe-half", PROBE_ORDER, [0.5 * w for w in probe.weights])
    probes = [_efs(probe), _verify(probe), _enumerate(probe),
              _gen(work / "probe-gen.txt", PROBE_ORDER, draw()), _stats(probe), _compare(probe, half)]
    # The short commands (``--version`` and the probes) run as a block
    # several times per round, spread between the focus commands: on a
    # shared virtual machine CPU speed changes from one second to the next,
    # so a steady figure needs many samples spread over the run.
    if name == "profile-1000":
        main = _write(work, "g1000", 1000, reference.random_weights(1000, draw()))
        focus = lambda i: [_efs(main)]
        blocks = 6
    elif name == "oracle-9":
        nine = [_write(work, f"g9-{k}", 9, reference.random_weights(9, draw(), -10.0, 10.0))
                for k in range(ORACLE_GRAPHS)]
        main = _write(work, "g10", 10, reference.random_weights(10, draw(), -10.0, 10.0))
        focus = lambda i: [_verify(nine[i % ORACLE_GRAPHS]), _enumerate(main)]
        blocks = 4
    else:
        raise ValueError(f"unknown workload {name!r}")
    covered = {c.name for c in focus(0)}
    short = [VERSION] + [c for c in probes if c.name not in covered]

    def rounds(i: int) -> list[Command]:
        cmds = focus(i)
        out = []
        for j, cmd in enumerate(cmds):
            out.append(cmd)
            out += short * (blocks * (j + 1) // len(cmds) - blocks * j // len(cmds))
        return out

    return Workload(main, rounds)


@dataclass
class Tally:
    """Attempted and failed commands; outputs already checked, by argv."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[tuple[str, ...], str] = field(default_factory=dict)

    def judge(self, cmd: Command, exit_code: int, text: str, timed_out: bool = False) -> bool:
        self.attempted += 1
        problem = self._problem(cmd, exit_code, text, timed_out)
        if problem is not None:
            self.failed += 1
            self.failures.append(f"xfs {' '.join(cmd.argv)}: {problem}")
        return problem is None

    def _problem(self, cmd: Command, exit_code: int, text: str, timed_out: bool) -> str | None:
        if timed_out:
            return "timed out"
        if exit_code != 0:
            return f"exit code {exit_code}"
        # Identical invocations must print identical bytes, so an output
        # seen before needs no second full check.
        digest = hashlib.sha256(text.encode()).hexdigest()
        if cmd.argv in self.digests:
            if self.digests[cmd.argv] != digest:
                return "output differs from an earlier identical invocation"
            return None
        try:
            cmd.check(text)
        except CheckError as exc:
            return str(exc)
        self.digests[cmd.argv] = digest
        return None


class Launcher:
    """The small process that starts every timed command (launcher.py)."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": COMMAND_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        self._proc.stdout.close()


def _spawn(launcher: Launcher, cmd: Command, work: Path) -> tuple[dict, str]:
    if cmd.output is not None:
        cmd.output.unlink(missing_ok=True)  # a gen that writes nothing must not pass
    stdout = work / "stdout.txt"
    reply = launcher.run([*XFS, *cmd.argv], stdout, work / "stderr.txt")
    return reply, _read(cmd, stdout.read_text(encoding="utf-8", errors="replace"))


def measure_end_to_end(workload: Workload, launcher: Launcher, seconds: float,
                       work: Path, tally: Tally) -> tuple[dict, dict]:
    """Closed loop of fresh processes; returns (metrics, samples)."""
    samples: dict[str, list[float]] = defaultdict(list)
    peak_kb = 0

    def run(cmd: Command, timed: bool = True) -> dict:
        nonlocal peak_kb
        reply, text = _spawn(launcher, cmd, work)
        tally.judge(cmd, reply["exit"], text, reply["timed_out"])
        peak_kb = max(peak_kb, reply["maxrss_kb"])
        if timed:
            samples[cmd.metric].append(reply["wall_s"])
        return reply

    # The first start also writes the bytecode cache; it is not timed.
    if run(VERSION, timed=False)["exit"] != 0:
        raise SystemExit(f"perfbench: the program does not start: {tally.failures[-1]}")
    busy = last_round = 0.0
    rounds = 0
    # Start another round while it is expected to end less than half a
    # round past the budget, so runs last about ``seconds`` on average.
    while rounds == 0 or busy + last_round / 2 < seconds:
        before = busy
        for cmd in workload.rounds(rounds):
            reply = run(cmd)
            busy += reply["wall_s"]
            if reply["timed_out"]:
                busy = math.inf
                break
        last_round = busy - before
        rounds += 1
    # On a shared virtual machine the samples fall into a fast and a slow
    # mode about 1.4x apart. A median jumps between the modes from run to
    # run; the mean moves with the share of time spent in each, and was
    # steadier across runs. Set-up time is still the median of its samples.
    metrics = {name: statistics.fmean(values) for name, values in samples.items()}
    metrics["setup_s"] = statistics.median(samples["setup_s"])
    metrics["peak_rss_mb"] = peak_kb / 1024
    metrics["success_ratio"] = 1.0 - tally.failed / tally.attempted
    return metrics, {"rounds": rounds, "seconds": dict(samples)}


def _import_program() -> dict:
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"extrafactorial.{name}")
               for name in ("graph", "efs", "profile", "cycles", "cli")}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported the program from {modules['cli'].__file__}")
    return modules


def _in_process(run: Callable, cmd: Command, tracer: layers.Tracer | None = None
                ) -> tuple[int, str, float]:
    if cmd.output is not None:
        cmd.output.unlink(missing_ok=True)
    return layers.run_cli(run, list(cmd.argv), tracer, f"cli.{cmd.name}")


def _read(cmd: Command, stdout: str) -> str:
    """The text a command's check reads: its output file, else its stdout."""
    if cmd.output is None:
        return stdout
    return cmd.output.read_text(encoding="utf-8", errors="replace") if cmd.output.exists() else ""


def measure_layers(workload: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """In-process passes: tracemalloc, direct calls, then rounds that run each
    command untraced and traced, until ``seconds`` have passed; returns
    (metrics, record)."""
    modules = _import_program()
    run = modules["cli"].run
    start = perf_counter()

    memory = layers.MemoryTracer()
    with memory.installed(modules):
        for cmd in workload.rounds(0):
            if cmd.name not in COMMANDS:
                continue
            code, stdout, _ = _in_process(run, cmd)
            tally.judge(cmd, code, _read(cmd, stdout))

    g = modules["graph"].parse_graph(workload.main.path.read_text(encoding="utf-8"))
    strengths = []
    for _ in range(3):
        fresh = type(g)(g.n, g.weights)  # strengths is cached per instance
        t = perf_counter()
        fresh.strengths
        strengths.append(perf_counter() - t)
    t = perf_counter()
    modules["efs"].derived_graph(g)
    derived = perf_counter() - t

    per_round: dict[str, list[float]] = defaultdict(list)
    commands = []
    rounds = 0
    while rounds == 0 or perf_counter() - start < seconds:
        tracer = layers.Tracer()
        untraced: dict[str, float] = defaultdict(float)
        traced: dict[str, float] = defaultdict(float)
        stdout_bytes: dict[str, int] = dict.fromkeys(COMMANDS, 0)
        useful = verify_yielded = 0
        for cmd in workload.rounds(rounds):
            if cmd.name not in COMMANDS:
                continue
            code, stdout, untraced_s = _in_process(run, cmd)
            tally.judge(cmd, code, _read(cmd, stdout))
            span = f"cli.{cmd.name}"
            calls_before = span_calls(tracer, cmd.name)
            span_before = tracer.spans.get(span, [0, 0.0])[1]
            yielded_before = tracer.counts["cycles.cycles_yielded"]
            with tracer.installed(modules):
                code, stdout, _ = _in_process(run, cmd, tracer)
            text = _read(cmd, stdout)
            calls = span_calls(tracer, cmd.name)
            missing = [name for name in calls if calls[name] == calls_before[name]]
            if tally.judge(cmd, code, text) and missing:
                tally.failed += 1
                tally.failures.append(f"xfs {' '.join(cmd.argv)}: no span {', '.join(missing)}")
            traced_s = tracer.spans[span][1] - span_before
            untraced[cmd.name] += untraced_s
            traced[cmd.name] += traced_s
            # gen writes its graph to the -o file: count the text it checks.
            stdout_bytes[cmd.name] += len(text.encode())
            if cmd.name == "verify":
                useful += math.factorial(cmd.order - 1) // 2
                verify_yielded += tracer.counts["cycles.cycles_yielded"] - yielded_before
            commands.append({"argv": cmd.argv, "round": rounds, "untraced_s": untraced_s,
                             "traced_s": traced_s, "missing_spans": missing})
        round_metrics = _round_metrics(tracer)
        round_metrics["cycles.oracle_useful_ratio"] = useful / verify_yielded
        for name in COMMANDS:
            round_metrics[f"cli.{name}.stdout_bytes"] = stdout_bytes[name]
            round_metrics[f"trace.overhead_ratio.{name}"] = traced[name] / untraced[name]
        for name, value in round_metrics.items():
            per_round[name].append(value)
        rounds += 1

    metrics = {name: statistics.median(values) for name, values in per_round.items()}
    metrics["graph.strengths.s"] = statistics.median(strengths)
    metrics["efs.derived_graph.s"] = derived
    metrics["efs.efs_all.peak_mb"] = memory.peak.get("efs.efs_all", 0) / 2**20
    metrics["profile.ranked_profile.peak_mb"] = memory.peak.get("profile.ranked_profile", 0) / 2**20
    record = {"rounds": rounds, "commands": commands, "strengths_s": strengths,
              "useful_cycles": useful, "verify_cycles_yielded": verify_yielded,
              "memory_peak_bytes": memory.peak}
    return metrics, record


def span_calls(tracer: layers.Tracer, command: str) -> dict[str, int]:
    """Calls so far of each span that ``command`` must record."""
    return {name: tracer.spans.get(name, [0])[0] for name in REQUIRED_SPANS[command]}


def _round_metrics(tracer: layers.Tracer) -> dict[str, float]:
    spans = tracer.spans

    def total(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_time(name: str) -> float:
        _, seconds, child = spans.get(name, [0, 0.0, 0.0])
        return seconds - child

    stream_s = total("cycles.stream")
    yielded = tracer.counts["cycles.cycles_yielded"]
    out = {
        "graph.parse_graph.self_s": self_time("graph.parse_graph"),
        "graph.build_graph.s": total("graph.build_graph"),
        "graph.serialize_graph.s": total("graph.serialize_graph"),
        "graph.random_graph.s": total("graph.random_graph"),
        "graph.format_weight.calls": tracer.counts["graph.format_weight.calls"],
        "efs.efs_all.s": total("efs.efs_all"),
        "efs.mean_squared_length.s": total("efs.mean_squared_length"),
        "efs.summational_graph.s": total("efs.summational_graph"),
        "profile.ranked_profile.self_s": self_time("profile.ranked_profile"),
        "profile.export_profile_csv.s": total("profile.export_profile_csv"),
        "profile.compare_profiles.s": total("profile.compare_profiles"),
        "cycles.stream.s": stream_s,
        "cycles.cycles_yielded": yielded,
        "cycles.cycles_per_s": yielded / stream_s if stream_s else 0.0,
        "cycles.cycle_length.calls": spans.get("cycles.cycle_length", [0])[0],
        "cycles.cycle_length.s": total("cycles.cycle_length"),
    }
    for name in COMMANDS:
        out[f"cli.{name}.self_s"] = self_time(f"cli.{name}")
    return out


def _commit() -> str | None:
    """HEAD of the git repository rooted here, if there is one."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # no git, or a repository that merely encloses this one
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "extrafactorial").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "extrafactorial" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'extrafactorial'}", file=sys.stderr)
        return 2

    STATE.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    tally = Tally()
    # Start the launcher while this process is still small (see launcher.py).
    launcher = None if args.trace else Launcher()
    try:
        with tempfile.TemporaryDirectory(dir=STATE) as tmp:
            workload = build_workload(args.workload, args.seed, Path(tmp))
            if args.trace:
                values, detail = measure_layers(workload, args.seconds, tally)
            else:
                values, detail = measure_end_to_end(workload, launcher, args.seconds, Path(tmp), tally)
    finally:
        if launcher is not None:
            launcher.close()
    units = _units("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(_environment(), loadavg_before=load_before,
                            loadavg_after=os.getloadavg()),
        "failures": tally.failures,
        "detail": detail,
        "result": result,
    }
    line = json.dumps(record)
    with open(STATE / "results.jsonl", "a", encoding="utf-8") as f:
        f.write(line + "\n")
    print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
