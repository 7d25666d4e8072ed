"""Spans and per-call aggregates recorded from outside the package.

The traced run replaces public functions at their import sites with
wrappers.  A *span* wrapper records ``(name, start, end, parent, info)``
for every call; a *leaf* wrapper is for functions called once per search
node, so it only adds a call count and busy time to the enclosing span,
kept apart for calls made inside another leaf call.  Everything stays in
memory until the run writes it out.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

now = time.perf_counter

ROOT = -1  # parent id of a span opened outside any other span


class TraceTargetMissing(RuntimeError):
    """A wrapped name no longer exists in the package."""


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = ROOT
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Leaf:
    calls: int = 0
    busy_s: float = 0.0
    ok: int = 0  # calls whose result the leaf's ``ok`` predicate accepted


class Tracer:
    """In-memory span recorder; ``reset`` starts the next operation."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        # (enclosing span, leaf name, called inside another leaf call)
        self.leaves: dict[tuple[int, str, bool], Leaf] = {}
        self._open: list[int] = []
        self._leaf_depth = 0

    def span(
        self, name: str, fn: Callable, info: Callable[..., dict[str, Any]] | None = None
    ) -> Callable:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            record = Span(name, now(), parent=self._open[-1] if self._open else ROOT)
            self.spans.append(record)
            self._open.append(len(self.spans) - 1)
            saved_depth, self._leaf_depth = self._leaf_depth, 0
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    record.info = info(result, *args, **kwargs)
                return result
            finally:
                record.end = now()
                self._open.pop()
                self._leaf_depth = saved_depth

        wrapped.__wrapped__ = fn
        return wrapped

    def leaf(self, name: str, fn: Callable, ok: Callable[[Any], bool] | None = None) -> Callable:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            key = (self._open[-1] if self._open else ROOT, name, self._leaf_depth > 0)
            self._leaf_depth += 1
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = now() - start
                self._leaf_depth -= 1
                agg = self.leaves.get(key)
                if agg is None:
                    agg = self.leaves[key] = Leaf()
                agg.calls += 1
                agg.busy_s += busy
            if ok is not None and ok(result):
                agg.ok += 1
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    # -- queries over the current operation --------------------------------

    def leaf_total(self, name: str) -> Leaf:
        """All calls of a leaf, wherever they were made."""
        total = Leaf()
        for (_, leaf, _), agg in self.leaves.items():
            if leaf == name:
                total.calls += agg.calls
                total.busy_s += agg.busy_s
                total.ok += agg.ok
        return total

    def self_time(self, index: int) -> float:
        """Span duration minus its child spans and its outermost leaf calls."""
        busy = sum(s.duration for s in self.spans if s.parent == index)
        busy += sum(
            agg.busy_s
            for (parent, _, nested), agg in self.leaves.items()
            if parent == index and not nested
        )
        return self.spans[index].duration - busy

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.info] for s in self.spans],
            "leaves": [
                [parent, name, nested, agg.calls, agg.busy_s, agg.ok]
                for (parent, name, nested), agg in self.leaves.items()
            ],
        }


def install(
    targets: list[tuple[str, str]], make: Callable[[str, Callable], Callable]
) -> Callable[[], None]:
    """Replace each ``module.attr`` (or ``module.Class.attr``) by a wrapper.

    ``make(name, original)`` builds the wrapper; a function imported at
    several sites gets one wrapper.  Raises ``TraceTargetMissing`` before
    patching anything if a site is gone, so a renamed function fails the
    run instead of reading as zero.  Returns a function that restores the
    originals.
    """
    resolved = []
    for module_name, dotted in targets:
        owner: Any = importlib.import_module(module_name)
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            raise TraceTargetMissing(f"{module_name}.{dotted} no longer exists")
        resolved.append((owner, attr, vars(owner)[attr]))
    made: dict[int, Callable] = {}
    for owner, attr, original in resolved:
        if id(original) not in made:
            made[id(original)] = make(attr, original)
        setattr(owner, attr, made[id(original)])

    def restore() -> None:
        for owner, attr, original in resolved:
            setattr(owner, attr, original)

    return restore
