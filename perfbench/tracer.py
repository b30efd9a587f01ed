"""Spans around the calls into each module of `implicitize`, recorded from outside.

The tracer replaces module attributes with timing wrappers before the
benchmark calls `implicitize.cli.main` in the same process, and puts the
originals back afterwards. Nothing in the program changes.

* Every namespace that bound a traced function is patched, not only the
  defining module: `engine` imports `can_skip` by name, `linalg` calls its
  own `rank_mod_p`, and `cli` imports `parse_map`.
* Each thread keeps its own span stack, so the engine's worker pool can run.
  A span that starts on a thread with an empty stack (a pool worker) becomes
  a child of the innermost open span of the thread that installed the
  tracer, which is the span waiting for the pool.
* A function that no longer exists is reported as absent, not as an error.

Self time of a span is its duration minus the part of its interval that its
child spans cover (the union, since children on several threads overlap).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


def _max_bits(result) -> int:
    pivots, _ = result
    return max(
        (
            abs(v.numerator).bit_length() + v.denominator.bit_length()
            for _, row in pivots
            for v in row.values()
        ),
        default=0,
    )


@dataclass(frozen=True)
class Span:
    """One traced function and the counts built from its calls.

    `observe` turns a call's arguments and result into one value; each entry
    of `counts` reduces the list of those values to one per-layer count.
    """

    module: str
    qualname: str  # a function, or Class.method
    observe: Callable | None = None
    counts: dict[str, Callable] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


SPANS = (
    Span("cli", "main"),
    Span("mapfile", "parse_map"),
    Span(
        "grading",
        "grading_for_map",
        lambda args, res: res.rank,
        {"grading.rank": lambda obs: max(obs, default=0)},
    ),
    Span(
        "enumeration",
        "enumerate_level",
        lambda args, res: (res.monomial_count, len(res.components)),
        {
            "enumeration.monomials": lambda obs: sum(m for m, _ in obs),
            "enumeration.components": lambda obs: sum(c for _, c in obs),
        },
    ),
    Span("matroid", "build_jacobian"),
    Span(
        "matroid",
        "can_skip",
        lambda args, res: (bool(res), tuple(sorted(args[1]))),
        {
            "matroid.can_skip.skipped": lambda obs: sum(skipped for skipped, _ in obs),
            "matroid.can_skip.distinct_supports": lambda obs: len({key for _, key in obs}),
        },
    ),
    Span("engine", "components_of_kernel"),
    Span(
        "engine",
        "trim_basis",
        lambda args, res: res[1],
        {"engine.trim_basis.lift_rank": sum},
    ),
    Span(
        "engine",
        "assemble_component",
        lambda args, res: sum(len(row) for row in res.rows),
        {"engine.assemble_component.nnz": sum},
    ),
    Span("linalg", "rank_mod_p"),
    Span(
        "linalg",
        "sparse_rref",
        lambda args, res: _max_bits(res),
        {"linalg.sparse_rref.max_bits": lambda obs: max(obs, default=0)},
    ),
    Span(
        "linalg",
        "exact_kernel",
        lambda args, res: res.dimension,
        {"linalg.exact_kernel.kernel_dim": sum},
    ),
    Span(
        "linalg",
        "prescreen_trivial",
        lambda args, res: bool(res),
        {"linalg.prescreen_trivial.certified": sum},
    ),
    Span("polyring", "RingMap.apply_monomial"),
    Span("polyring", "RingMap.apply"),
)

# Spans whose self time is reported as `<span>.self_s`: the bucket of work
# that no narrower span covers (argument handling, the pool, sorting).
SELF_S = ("cli.main", "engine.components_of_kernel")


def span_metrics(span: Span) -> list[str]:
    """Every per-layer metric name that `span` produces."""
    time_name = f"{span.name}.self_s" if span.name in SELF_S else f"{span.name}.s"
    return [time_name, f"{span.name}.calls", *span.counts]


PACKAGE = "implicitize"


class Tracer:
    """Records one span per traced call; aggregate with `layer_metrics()`."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        # Filled in before any thread runs, so workers only ever append.
        self.observed: dict[str, list] = {span.name: [] for span in SPANS}
        self.absent: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root_stack
                parent = root[-1] if root else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if observe is not None:
                tracer.observed[name].append(observe(args, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        self._root_stack = self._stack()
        undo: list[tuple[object, str, object]] = []
        try:
            for span in SPANS:
                try:
                    owner = importlib.import_module(f"{PACKAGE}.{span.module}")
                except ModuleNotFoundError:
                    self.absent.append(span)
                    continue
                *path, attr = span.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None)
                if not callable(fn):
                    self.absent.append(span)
                    continue
                wrapper = self._wrap(span.name, fn, span.observe)
                if path:
                    # A method: the class object is shared by every namespace.
                    undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for module in list(sys.modules.values()):
                    mod_name = getattr(module, "__name__", "")
                    if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            undo.append((module, key, fn))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, _, name, start, end in self.spans:
            covered = 0.0
            cursor = start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            seconds[name] += (end - start) - covered
            calls[name] += 1
        return dict(seconds), dict(calls)


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """(self times in seconds, exact counts) of one traced run.

    Spans of absent functions produce no metrics at all.
    """
    seconds, calls = tracer.self_times()
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span in SPANS:
        if span in tracer.absent:
            continue
        time_name, calls_name, *derived = span_metrics(span)
        times[time_name] = seconds.get(span.name, 0.0)
        counts[calls_name] = calls.get(span.name, 0)
        observed = tracer.observed[span.name]
        for metric in derived:
            counts[metric] = span.counts[metric](observed)
    return times, counts
