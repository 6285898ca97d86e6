"""Per-layer spans around the program's public functions, for the traced run.

The program is not changed. For the length of a pass, each traced function
is replaced by a wrapper in every module namespace that binds it. Callers
look these names up at call time (``parse_graph`` finds
``graph.build_graph``, ``ranked_profile`` finds ``profile.efs_all``, the CLI
finds the names it imported), so every call goes through the wrapper.

Spans are aggregated in memory per name: calls, seconds, and seconds spent
in wrapped children, which give self time. The cycle streams are timed per
``next`` call, since their work happens while the consumer iterates.
"""

from __future__ import annotations

import functools
import io
import tracemalloc
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterator

#: Functions timed as spans, by module.
SPANNED = {
    "graph": ("parse_graph", "build_graph", "serialize_graph", "random_graph"),
    "efs": ("efs_all", "mean_squared_length", "summational_graph", "derived_graph"),
    "profile": ("ranked_profile", "export_profile_csv", "compare_profiles"),
    "cycles": ("cycle_length",),
}
#: Functions only counted: one call per CSV row or graph line.
COUNTED = {"graph": ("format_weight",)}
#: Functions returning a lazy cycle stream (enumerate_through_pair returns
#: it as the second item of a pair).
STREAMS = {"cycles": ("enumerate_all", "enumerate_through_edge", "enumerate_through_pair")}
#: Functions whose peak allocation the tracemalloc pass records.
MEMORY = {"efs": ("efs_all",), "profile": ("ranked_profile",)}


@contextmanager
def patched(modules: dict[str, ModuleType], targets: dict[str, tuple[str, ...]],
            wrap: Callable[[str, Callable], Callable]) -> Iterator[None]:
    """Replace each target function by ``wrap("<module>.<name>", fn)`` in
    every module of ``modules`` that binds it; restore on exit."""
    saved = []
    try:
        for module_name, names in targets.items():
            for name in names:
                original = getattr(modules[module_name], name)
                wrapper = functools.wraps(original)(wrap(f"{module_name}.{name}", original))
                for module in modules.values():
                    if getattr(module, name, None) is original:
                        saved.append((module, name, original))
                        setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


class Tracer:
    """Aggregated spans: per name, [calls, seconds, seconds in child spans]."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child seconds of each open span

    def call(self, name: str, fn: Callable, *args, **kwargs):
        self._open.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = perf_counter() - start
            child = self._open.pop()
            if self._open:
                self._open[-1] += seconds
            record = self.spans.get(name)
            if record is None:
                record = self.spans[name] = [0, 0.0, 0.0]
            record[0] += 1
            record[1] += seconds
            record[2] += child

    def _stream(self, cycles: Iterator) -> Iterator:
        step = cycles.__next__
        while True:
            try:
                cycle = self.call("cycles.stream", step)
            except StopIteration:
                return
            self.counts["cycles.cycles_yielded"] += 1
            yield cycle

    def _span(self, name: str, fn: Callable) -> Callable:
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def _count(self, name: str, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def _streamed(self, name: str, fn: Callable) -> Callable:
        def streamed(*args, **kwargs):
            result = fn(*args, **kwargs)
            if isinstance(result, tuple):
                kind, cycles = result
                return kind, self._stream(cycles)
            return self._stream(result)
        return streamed

    @contextmanager
    def installed(self, modules: dict[str, ModuleType]) -> Iterator[None]:
        with patched(modules, SPANNED, self._span), \
                patched(modules, COUNTED, self._count), \
                patched(modules, STREAMS, self._streamed):
            yield


class MemoryTracer:
    """Peak bytes allocated inside each MEMORY function, above what was
    allocated when it was entered; largest over calls.

    tracemalloc runs only while one of these functions is on the stack, so
    the rest of a command runs at full speed.
    """

    def __init__(self) -> None:
        self.peak: dict[str, int] = {}
        self._open: list[list[int]] = []  # [bytes at entry, peak bytes]

    def _fold_peak(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._open:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        return current

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self._open:
            tracemalloc.start()
        current = self._fold_peak()
        frame = [current, current]
        self._open.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._fold_peak()
            self._open.pop()
            self.peak[name] = max(self.peak.get(name, 0), frame[1] - frame[0])
            if not self._open:
                tracemalloc.stop()

    @contextmanager
    def installed(self, modules: dict[str, ModuleType]) -> Iterator[None]:
        wrap = lambda name, fn: lambda *a, **k: self.call(name, fn, *a, **k)
        with patched(modules, MEMORY, wrap):
            yield


def run_cli(run: Callable[[list[str]], int], argv: list[str],
            tracer: Tracer | None = None, span: str = "") -> tuple[int, str, float]:
    """Call the CLI's ``run(argv)`` in-process with stdout captured; returns
    (exit code, stdout, seconds). With a tracer the call is the span ``span``."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        code = run(argv) if tracer is None else tracer.call(span, run, argv)
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds
