"""Outside-in spans around pondroute's public functions.

The benchmark never edits library code. For a traced solve it replaces a
fixed set of module attributes with wrappers that open a span, call the
original and close the span, and it puts the originals back afterwards.
Every span records its parent, so a layer's self time is its duration minus
the durations of its child spans (calls are nested and single-threaded, so
children never overlap).

A target whose attribute no longer exists is reported as absent; the run
goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator

ROOT = "evaluation.solve_with"


def _pair_count(args, kwargs, result) -> int:
    return len(result)


def _repair_moves(args, kwargs, result) -> int:
    before = args[0] if args else kwargs["assign"]
    return sum(a != b for a, b in zip(before.labels, result.labels))


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``module.path`` inside ``pondroute``, reported as ``span``.

    ``counter`` (optional) turns one call's arguments and result into a count
    that is added to ``span``'s counter.
    """

    module: str
    path: str
    span: str
    counter: Callable[[tuple, dict, Any], int] | None = None


TARGETS = (
    Target("hpp", "hpp_solve", "hpp.hpp_solve"),
    Target("hpp", "kmeans", "hpp.kmeans"),
    Target("hpp", "repair_clusters", "hpp.repair_clusters", _repair_moves),
    Target("hpp", "route_cluster", "hpp.route_cluster"),
    Target("hpp", "serpentine_route", "hpp.serpentine_route"),
    Target("hpp", "convex_hull", "geometry.convex_hull"),
    Target("hpp", "antipodal_pairs", "geometry.antipodal_pairs", _pair_count),
    Target("baseline", "minmax_local_search", "baseline.minmax_local_search"),
    Target("baseline", "two_opt", "baseline.two_opt"),
    Target("baseline", "DistanceMatrix.from_instance", "baseline.distance_matrix"),
)
# minmax_local_search also gets a ``trace=`` list; its length minus 1 is the
# number of accepted relocations.
RELOCATION_SPAN = "baseline.minmax_local_search"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Spans of the solve in progress plus totals over all finished solves."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self.solves = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, parent, perf_counter())
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def finish_solve(self) -> float:
        """Fold the finished solve's spans into the totals; returns its root duration."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        root = 0.0
        for s, covered in zip(self.spans, child):
            self.self_s[s.name] += (s.end - s.start) - covered
            self.calls[s.name] += 1
            if s.parent is None:
                root += s.end - s.start
        self.spans.clear()
        self.solves += 1
        return root

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        inject_trace = target.span == RELOCATION_SPAN and "trace" in _parameters(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            relocations = None
            if inject_trace and kwargs.get("trace") is None:
                relocations = kwargs["trace"] = []
            with self.span(target.span):
                result = fn(*args, **kwargs)
            if target.counter is not None:
                self.counts[target.span] += target.counter(args, kwargs, result)
            if relocations is not None:
                self.counts[RELOCATION_SPAN] += len(relocations) - 1
            return result

        return wrapper

    @contextmanager
    def installed(self, targets=TARGETS) -> Iterator[None]:
        """Wrap every target that exists; restore the originals on exit."""
        restore: list[tuple[object, str, object]] = []
        try:
            for target in targets:
                resolved = _resolve(target)
                if resolved is None:
                    if target.span not in self.absent:
                        self.absent.append(target.span)
                    continue
                owner, attr, raw = resolved
                if isinstance(raw, (classmethod, staticmethod)):
                    replacement = type(raw)(self._wrap(raw.__func__, target))
                else:
                    replacement = self._wrap(raw, target)
                setattr(owner, attr, replacement)
                restore.append((owner, attr, raw))
            yield
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)


def _parameters(fn: Callable) -> tuple[str, ...]:
    try:
        return tuple(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return ()


def _resolve(target: Target) -> tuple[object, str, object] | None:
    """(owner, attribute, raw attribute value) for a target, or None if it is gone."""
    try:
        owner: object = importlib.import_module(f"pondroute.{target.module}")
    except ImportError:
        return None
    *parents, attr = target.path.split(".")
    try:
        for name in parents:
            owner = getattr(owner, name)
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return owner, attr, raw
