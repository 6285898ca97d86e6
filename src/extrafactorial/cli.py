"""Batch command-line interface.

Subcommands
    stats      whole-graph statistics
    efs        per-edge breakdown, or the full ranked profile as CSV
    enumerate  cycles with lengths, optionally restricted to an edge or pair
    verify     closed forms vs. the enumeration oracle, PASS/FAIL per check
    compare    rank/scale comparison of two graphs' profiles
    gen        seeded random graph written in the text format

Exit codes: 0 success, 1 domain error (bad graph, cap exceeded, arithmetic
overflow, failed verification), 2 usage error (bad flags, unreadable file).
A graph file is read and decoded in blocks of whole lines as it is parsed,
so it is never held whole; a byte that is not UTF-8 anywhere in it is still
reported before any error in its text.
A reader that closes stdout early ends the process by SIGPIPE, quietly.
On an error, every command except `enumerate` leaves stdout empty.
`enumerate` writes its lines in blocks of ``profile._BLOCK_LINES``, one
write each even when stdout is unbuffered; on an error it first writes the
lines made before it, so it keeps every line before the error. Run it as
the installed `xfs` script or as `python -m extrafactorial.cli`.
"""

from __future__ import annotations

import argparse
import math
import signal
import sys
from functools import partial
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from . import __version__
from .cycles import (
    EdgePairKind,
    HamiltonianCycle,
    _walk_format,
    count_all,
    count_through_edge,
    count_through_pair,
    cycle_length,
    enumerate_all,
    enumerate_through_edge,
    enumerate_through_pair,
)
from .efs import (
    edge_statistics,
    efs_all,
    mean_length_all,
    mean_squared_length,
    summational_graph,
)
from .errors import XfsError
from .graph import (
    _CHUNK_CHARS,
    CompleteWeightedGraph,
    format_weight,
    parse_graph,
    random_graph,
    serialize_graph,
)
from .profile import _BLOCK_LINES, compare_profiles, export_profile_csv, ranked_profile

VERIFY_TOLERANCE = 1e-9

#: The format of every value printed for reading: up to 12 significant
#: digits, trailing zeros trimmed, as ``format(x, ".12g")`` gives them.
_NUMBER = "%.12g"

Output = tuple[int, Iterable[str]]  # a handler's exit code and its stdout as pieces of whole lines


def _ints_arg(text: str, shape: str) -> tuple[int, ...]:
    """`text` as comma-separated integers, as many as `shape` ('u,v') names."""
    parts = text.split(",")
    if len(parts) != len(shape.split(",")):
        raise argparse.ArgumentTypeError(f"expected {shape!r}, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}") from None


def _limit_arg(text: str) -> int:
    try:
        limit = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if limit < 0:
        raise argparse.ArgumentTypeError(f"limit must be >= 0, got {limit}")
    return limit


def _load(path: str) -> CompleteWeightedGraph:
    # Path.open names the file in an OSError as Path(path) spells it
    with Path(path).open("rb") as f:
        blocks = _utf8_blocks(path, f)
        try:
            return parse_graph(blocks)
        except XfsError:
            # a byte that is not UTF-8 anywhere in the file outranks any
            # error in its text, as when the file was decoded before parsing
            for _ in blocks:
                pass
            raise


def _utf8_blocks(path: str, f: BinaryIO) -> Iterator[str]:
    """The text of `f` in blocks of whole lines, about ``_CHUNK_CHARS`` bytes each.

    A block ends after a line feed, which is never inside a UTF-8 sequence,
    so each block decodes on its own.
    """
    offset = 0
    while block := f.read(_CHUNK_CHARS) + f.readline():
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:  # unreadable, like a missing file: exit 2
            at = offset + exc.start
            raise OSError(f"{path!r} is not UTF-8 text: {exc.reason} at byte {at}") from None
        # a leading byte-order mark is dropped after decoding, so the byte
        # offset of a decoding error still counts from the start of the file
        yield text if offset else text.removeprefix("\ufeff")
        offset += len(block)


def _cmd_stats(args: argparse.Namespace) -> Output:
    g = _load(args.file)
    return 0, [
        f"order {g.n}\n",
        f"edges {g.edge_count}\n",
        f"total_weight {_NUMBER % g.total_weight}\n",
        f"mean_length {_NUMBER % mean_length_all(g)}\n",
        f"mean_squared_length {_NUMBER % mean_squared_length(g)}\n",
    ]


def _cmd_efs(args: argparse.Namespace) -> Output:
    if args.edge is None:
        # the graph is freed once ranked; run() writes the CSV block by block
        return 0, export_profile_csv(ranked_profile(_load(args.file)))
    g = _load(args.file)
    stats = edge_statistics(g, args.edge)
    edge, *values = stats
    names = stats._fields[1:]
    if args.csv:
        row = ["" if x is None else format_weight(x) for x in values]
        return 0, [
            ",".join(["u", "v", *names]) + "\n",
            ",".join([str(edge.u), str(edge.v), *row]) + "\n",
        ]
    return 0, [
        f"edge {edge.u},{edge.v}\n",
        *(f"{name} {_NUMBER % x}\n" for name, x in zip(names, values) if x is not None),
    ]


def _cmd_enumerate(args: argparse.Namespace) -> Output:
    g = _load(args.file)
    if args.through is not None:
        stream = enumerate_through_edge(g.n, args.through, max_order=args.max_order)
    elif args.pair is not None:
        u, v, x, y = args.pair
        stream = enumerate_through_pair(g.n, (u, v), (x, y), max_order=args.max_order)
    else:
        stream = enumerate_all(g.n, max_order=args.max_order)
    return 0, _cycle_lines(g, islice(stream, args.limit))


def _cycle_lines(g: CompleteWeightedGraph, cycles: Iterable[HamiltonianCycle]) -> Iterator[str]:
    """Each cycle's line, its closed walk and its length, in blocks of
    ``_BLOCK_LINES`` lines.

    When a length raises, the lines before that cycle are yielded first, so
    the error leaves them printed.
    """
    # one %-format per line: the walk's vertices, its first again, the length
    line = f"{_walk_format(g.n)}  {_NUMBER}\n"
    block: list[str] = []
    try:
        for c in cycles:
            block.append(line % (c + (c[0], cycle_length(g, c))))
            if len(block) == _BLOCK_LINES:
                yield "".join(block)
                block.clear()
    except Exception:
        yield "".join(block)
        raise
    if block:
        yield "".join(block)


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= VERIFY_TOLERANCE * (1.0 + abs(reference))


def _cmd_verify(args: argparse.Namespace) -> Output:
    g = _load(args.file)
    n = g.n
    cap = args.max_n_override
    total_cycles = sum(1 for _ in enumerate_all(n, max_order=cap))
    # check name -> passed, in report order
    checks = {"cycle_count": total_cycles == count_all(n)}
    details = {"cycle_count": f"{total_cycles} != {count_all(n)}"}

    lengths_sum = math.fsum(
        cycle_length(g, c) for c in enumerate_all(n, max_order=cap)
    )
    squares_sum = math.fsum(
        cycle_length(g, c) ** 2 for c in enumerate_all(n, max_order=cap)
    )

    expected_through = count_through_edge(n)
    shrink = math.factorial(n - 3)
    for e, efs in zip(g.edges(), efs_all(g)):
        member = True
        lengths = []
        for cycle in enumerate_through_edge(n, e, max_order=cap):
            member &= cycle.contains_edge(*e)
            lengths.append(cycle_length(g, cycle))
        oracle_sum = math.fsum(lengths)
        stats = edge_statistics(g, e)
        edge_checks = {
            "through_edge_count": len(lengths) == expected_through,
            "through_edge_membership": member,
            "efs_closed_form": _close(efs * shrink, oracle_sum),
            "breakdown_partition": _close(stats.x1 + stats.x2 + stats.x3, g.total_weight),
            "summational_total": _close(summational_graph(g, e).total_weight, oracle_sum),
        }
        if n > 3:
            oracle_complement = (lengths_sum - oracle_sum) / (
                count_all(n) - expected_through
            )
            edge_checks["complement_mean"] = _close(stats.mean_not_through, oracle_complement)
        for name, ok in edge_checks.items():
            checks[name] = checks.get(name, True) and ok

    checks["mean_length_all"] = _close(mean_length_all(g), lengths_sum / total_cycles)
    checks["mean_squared_length"] = _close(
        mean_squared_length(g), squares_sum / total_cycles
    )

    stream = enumerate_through_pair(n, (0, 1), (1, 2), max_order=cap)
    checks["adjacent_pair_count"] = (
        sum(1 for _ in stream) == count_through_pair(n, EdgePairKind.ADJACENT)
    )
    if n >= 4:
        stream = enumerate_through_pair(n, (0, 1), (2, 3), max_order=cap)
        checks["non_adjacent_pair_count"] = (
            sum(1 for _ in stream) == count_through_pair(n, EdgePairKind.NON_ADJACENT)
        )

    report = []
    for name, ok in checks.items():
        if not ok:
            detail = details.get(name)
            report.append(f"FAIL {name}: {detail}\n" if detail else f"FAIL {name}\n")
        elif not args.quiet:
            report.append(f"PASS {name}\n")
    return (0 if all(checks.values()) else 1), report


def _cmd_compare(args: argparse.Namespace) -> Output:
    p1 = ranked_profile(_load(args.file_a))
    p2 = ranked_profile(_load(args.file_b))
    outcome = compare_profiles(p1, p2)
    scale = "none" if outcome.scale_factor is None else _NUMBER % outcome.scale_factor
    return 0, [
        f"same_ranking {'true' if outcome.same_ranking else 'false'}\n",
        f"scale_factor {scale}\n",
        f"max_relative_deviation {_NUMBER % outcome.max_relative_deviation}\n",
    ]


def _cmd_gen(args: argparse.Namespace) -> Output:
    g = random_graph(args.n, args.seed, args.lo, args.hi)
    Path(args.output).write_text(serialize_graph(g), encoding="utf-8")
    return 0, [] if args.quiet else [f"wrote {args.output} (order {g.n}, {g.edge_count} edges)\n"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xfs",
        description="Extra-factorial sums and Hamiltonian-cycle statistics "
        "of complete weighted graphs.",
    )
    parser.add_argument("--version", action="version", version=f"xfs {__version__}")
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress everything but machine-readable output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="whole-graph statistics")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("efs", help="per-edge breakdown or full ranked profile")
    p.add_argument("file")
    p.add_argument("--edge", type=partial(_ints_arg, shape="u,v"),
                   help="edge 'u,v'; omit for the profile")
    p.add_argument("--csv", action="store_true", help="CSV output for --edge")
    p.set_defaults(handler=_cmd_efs)

    p = sub.add_parser("enumerate", help="cycles with lengths, one per line")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--through", type=partial(_ints_arg, shape="u,v"),
                       help="only cycles through 'u,v'")
    group.add_argument("--pair", type=partial(_ints_arg, shape="u,v,x,y"),
                       help="only cycles through both 'u,v' and 'x,y'")
    p.add_argument("--limit", type=_limit_arg, help="stop after this many cycles")
    p.add_argument("--max-order", type=int, help="override the enumeration cap")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="closed forms vs. the enumeration oracle")
    p.add_argument("file")
    p.add_argument("--max-n-override", type=int, help="override the enumeration cap")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("compare", help="compare two graphs' ranked profiles")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("gen", help="write a seeded random graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lo", type=float, default=0.0,
                   help="lowest weight (default 0); a negative value in "
                   "exponent form needs '=', as in --lo=-1e300")
    p.add_argument("--hi", type=float, default=1.0,
                   help="highest weight (default 1); a negative value in "
                   "exponent form needs '=', as in --hi=-1e299")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_gen)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse, dispatch and write the handler's lines; returns the exit code.

    This is the only write to stdout, so a handler that raises wrote nothing.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code, lines = args.handler(args)
        sys.stdout.writelines(lines)
        return code
    except (XfsError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # a reader that closes stdout early (`xfs enumerate g.txt | head -1`) ends
    # the process quietly, as it ends other Unix filters
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(run())


if __name__ == "__main__":
    main()
