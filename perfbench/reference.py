"""Seeded inputs and independent output checks for the xfs benchmark.

Standard library only. Nothing here imports the program: every reference is
computed from the benchmark's own seeded weights, never from what a command
printed, so a wrong answer cannot vouch for itself.
"""

from __future__ import annotations

import itertools
import math
import random

#: Tolerance for a printed efs, relative to the summed magnitudes of the
#: terms of (n-2)*w + 2W - S_u - S_v. Naive summation of a vertex's n-1
#: weights errs by at most (n-2)*u*sum|w| (u = 2**-53), about 1.1e-13
#: relative at order 1000; this leaves a margin of nine.
EFS_REL_TOL = 1e-12

#: Tolerance for values printed with 12 significant digits (stats lengths,
#: cycle lengths), relative to the summed magnitudes behind them: rounding
#: to 12 digits contributes at most 5e-12, the program's own sums far less.
PRINTED_REL_TOL = 1e-10


class CheckError(Exception):
    """A command's output disagrees with the benchmark's reference."""


def pairs(n: int):
    """Vertex pairs (u, v), u < v, in lexicographic order."""
    return itertools.combinations(range(n), 2)


def random_weights(n: int, seed: int, lo: float = 0.0, hi: float = 1.0) -> list[float]:
    """The weights ``xfs gen`` documents: random.Random(seed).uniform(lo, hi)
    drawn for each pair in lexicographic order."""
    rng = random.Random(seed)
    return [rng.uniform(lo, hi) for _ in range(n * (n - 1) // 2)]


def graph_text(n: int, weights: list[float]) -> str:
    """The graph file format, every weight written with repr (exact round trip)."""
    lines = [f"n {n}"]
    lines.extend(f"{u} {v} {w!r}" for (u, v), w in zip(pairs(n), weights))
    return "\n".join(lines) + "\n"


def _strengths(n: int, weights: list[float]) -> list[float]:
    incident: list[list[float]] = [[] for _ in range(n)]
    for (u, v), w in zip(pairs(n), weights):
        incident[u].append(w)
        incident[v].append(w)
    return [math.fsum(ws) for ws in incident]


def reference_efs(n: int, weights: list[float]) -> list[tuple[float, float]]:
    """(efs, magnitude) per edge in lexicographic order.

    efs(e) = (n-2)*x1 + x2 + 2*x3 with x2 = S_u + S_v - 2w and
    x3 = W - S_u - S_v + w, i.e. (n-2)*w + 2W - S_u - S_v; strengths S and
    total W are correctly rounded (fsum), and so is the final sum.
    """
    s = _strengths(n, weights)
    total2 = 2.0 * math.fsum(weights)
    out = []
    for (u, v), w in zip(pairs(n), weights):
        terms = ((n - 2) * w, total2, -s[u], -s[v])
        out.append((math.fsum(terms), math.fsum(map(abs, terms))))
    return out


def _close(value: float, reference: float, magnitude: float, tol: float) -> bool:
    return abs(value - reference) <= tol * magnitude


def check_version(text: str) -> None:
    if not text.startswith("xfs "):
        raise CheckError(f"--version printed {text[:40]!r}")


def check_efs_csv(text: str, n: int, weights: list[float]) -> None:
    """Profile CSV: every edge once, efs within EFS_REL_TOL, rows ascending
    by efs with ties broken by (u, v), ranks 1..m."""
    lines = text.split("\n")
    if lines[0] != "rank,u,v,efs" or lines[-1] != "":
        raise CheckError("missing CSV header or trailing newline")
    rows = lines[1:-1]
    m = n * (n - 1) // 2
    if len(rows) != m:
        raise CheckError(f"{len(rows)} rows, expected {m}")
    ref = reference_efs(n, weights)
    seen = bytearray(m)
    prev = None
    for rank, row in enumerate(rows, start=1):
        try:
            r, u, v, e = row.split(",")
            r, u, v, value = int(r), int(u), int(v), float(e)
        except ValueError:
            raise CheckError(f"bad row {row!r}") from None
        if r != rank or not 0 <= u < v < n:
            raise CheckError(f"bad rank or edge in row {row!r}")
        k = u * (2 * n - u - 1) // 2 + (v - u - 1)
        if seen[k]:
            raise CheckError(f"edge {u},{v} appears twice")
        seen[k] = 1
        efs, magnitude = ref[k]
        if not _close(value, efs, magnitude, EFS_REL_TOL):
            raise CheckError(f"edge {u},{v}: efs {value!r}, reference {efs!r}")
        key = (value, u, v)
        if prev is not None and key <= prev:
            raise CheckError(f"row {rank} breaks the rank order")
        prev = key


def check_verify(text: str) -> None:
    lines = text.splitlines()
    if not lines or not all(line.startswith("PASS ") for line in lines):
        raise CheckError("verify printed a line other than PASS")


def _weight_matrix(n: int, weights: list[float]) -> list[list[float]]:
    w = [[0.0] * n for _ in range(n)]
    for (u, v), x in zip(pairs(n), weights):
        w[u][v] = w[v][u] = x
    return w


def check_enumerate(text: str, n: int, weights: list[float]) -> None:
    """Exactly the (n-1)!/2 canonical cycles, as itertools.permutations lists
    them, each once and with its length within PRINTED_REL_TOL."""
    expected = {
        "-".join(map(str, (0, *p, 0)))
        for p in itertools.permutations(range(1, n))
        if p[0] < p[-1]
    }
    lines = text.splitlines()
    if len(lines) != len(expected):
        raise CheckError(f"{len(lines)} cycles, expected {len(expected)}")
    w = _weight_matrix(n, weights)
    seen = set()
    for line in lines:
        walk, _, length = line.partition("  ")
        if walk not in expected or walk in seen:
            raise CheckError(f"unexpected or repeated cycle {walk!r}")
        seen.add(walk)
        verts = [int(x) for x in walk.split("-")]
        steps = [w[a][b] for a, b in zip(verts, verts[1:])]
        try:
            value = float(length)
        except ValueError:
            raise CheckError(f"bad length in {line!r}") from None
        if not _close(value, math.fsum(steps), math.fsum(map(abs, steps)), PRINTED_REL_TOL):
            raise CheckError(f"cycle {walk}: length {length}")


def check_gen(text: str, n: int, seed: int, lo: float = 0.0, hi: float = 1.0) -> None:
    """Every pair once, each weight bit-identical to random_weights."""
    ref = random_weights(n, seed, lo, hi)
    lines = text.splitlines()
    if not lines or lines[0] != f"n {n}" or len(lines) != len(ref) + 1:
        raise CheckError("wrong header or number of edge lines")
    seen = bytearray(len(ref))
    for line in lines[1:]:
        try:
            u, v, x = line.split()
            u, v, value = int(u), int(v), float(x)
        except ValueError:
            raise CheckError(f"bad edge line {line!r}") from None
        if not 0 <= u < v < n:
            raise CheckError(f"bad edge in {line!r}")
        k = u * (2 * n - u - 1) // 2 + (v - u - 1)
        if seen[k] or value.hex() != ref[k].hex():
            raise CheckError(f"edge {u},{v}: weight {x}, reference {ref[k]!r}")
        seen[k] = 1


def _fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def check_stats(text: str, n: int, weights: list[float]) -> None:
    """order, edges, total weight and both mean lengths against fsum references."""
    f = _fields(text)
    m = n * (n - 1) // 2
    if f.get("order") != str(n) or f.get("edges") != str(m):
        raise CheckError("wrong order or edge count")
    efs = reference_efs(n, weights)
    scale_l = 2.0 / (n - 1)
    scale_l2 = 2.0 / ((n - 1) * (n - 2))
    abs_total = math.fsum(map(abs, weights))
    expected = {
        "total_weight": (math.fsum(weights), abs_total),
        "mean_length": (scale_l * math.fsum(weights), scale_l * abs_total),
        "mean_squared_length": (
            scale_l2 * math.fsum(w * e for w, (e, _) in zip(weights, efs)),
            scale_l2 * math.fsum(abs(w) * mag for w, (_, mag) in zip(weights, efs)),
        ),
    }
    for key, (ref, magnitude) in expected.items():
        try:
            value = float(f.get(key, ""))
        except ValueError:
            raise CheckError(f"missing or bad {key}") from None
        if not _close(value, ref, magnitude, PRINTED_REL_TOL):
            raise CheckError(f"{key} {value!r}, reference {ref!r}")


def check_compare(text: str) -> None:
    """Comparing a graph with itself scaled by 0.5."""
    f = _fields(text)
    if f.get("same_ranking") != "true" or f.get("scale_factor") != "0.5":
        raise CheckError("compare did not report the same ranking at scale 0.5")
