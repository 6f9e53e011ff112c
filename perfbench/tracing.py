"""Spans around calls into the program's layers, recorded from outside.

Nothing in ``src/`` is instrumented: the traced run replaces public
functions and methods of each layer with timing wrappers for its
duration and restores them afterwards.  A span records its name, start,
end, parent span and request id; spans stay in memory and are written
once, when the run ends.  A layer's self time is its spans' duration
minus the time covered by their child spans.

Very hot calls (one per route or per cell-day) are *aggregated* instead of
recorded one by one -- a count and a summed self time per name -- and
still subtract from their parent's self time; calls that only need a
count get a counting wrapper without a clock read.

Spans are per thread.  Work a program layer hands to a worker process
(the pool fan-outs in ``core.mapreduce``) is visible only as the parent's
span around the hand-off.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Root spans (one per replayed command or request) carry this prefix;
#: every other span name is a program layer.
ROOT = "run."


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    request_id: int
    name: str
    start_ns: int
    end_ns: int
    self_ns: int

    def to_json(self) -> dict[str, object]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "request": self.request_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "self_ns": self.self_ns,
        }


class _Frame:
    __slots__ = ("span_id", "parent_id", "request_id", "name", "start_ns", "child_ns")

    def __init__(
        self, span_id: int, parent_id: int | None, request_id: int, name: str
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.name = name
        self.child_ns = 0
        self.start_ns = time.perf_counter_ns()


class Tracer:
    """Collects spans, aggregates and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        #: name -> [calls, summed self ns] for aggregated layers.
        self.aggregates: dict[str, list[int]] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._items: list[tuple[dict[str, Any], str, object]] = []

    # -- frames ---------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack: list[_Frame] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _enter(self, name: str) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = _Frame(
            next(self._ids),
            parent.span_id if parent else None,
            parent.request_id if parent else next(self._requests),
            name,
        )
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, aggregate: bool) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start_ns
        if stack:
            stack[-1].child_ns += duration
        self_ns = duration - frame.child_ns
        if aggregate:
            with self._lock:
                slot = self.aggregates.setdefault(frame.name, [0, 0])
                slot[0] += 1
                slot[1] += self_ns
            return
        span = Span(
            frame.span_id,
            frame.parent_id,
            frame.request_id,
            frame.name,
            frame.start_ns,
            end,
            self_ns,
        )
        with self._lock:
            self.spans.append(span)

    def span(self, name: str) -> "_SpanContext":
        """A span around a block of the benchmark's own code."""
        return _SpanContext(self, name)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, value), value)

    # -- patching -------------------------------------------------------

    def timed(
        self,
        func: Callable[..., Any],
        name: str,
        *,
        aggregate: bool = False,
        after: Callable[[tuple[Any, ...], dict[str, Any], Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``func`` wrapped in a span (or an aggregate) named ``name``."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(frame, aggregate)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    def counted(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``func`` wrapped in a bare call counter."""
        local_counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            local_counts[name] = local_counts.get(name, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_method(self, cls: type, attr: str, wrapper: Callable[..., Any]) -> None:
        """Replace a method on its class until :meth:`restore`."""
        self._set(cls, attr, wrapper)

    def patch_item(self, mapping: dict[str, Any], key: str, value: object) -> None:
        """Replace one entry of a module-level registry until :meth:`restore`."""
        self._items.append((mapping, key, mapping[key]))
        mapping[key] = value

    def patch_function(
        self, func: Callable[..., Any], wrapper: Callable[..., Any]
    ) -> None:
        """Replace a function in every loaded ``repro`` module binding it.

        Program modules import layer functions by name, so the wrapper has
        to replace each binding, not only the defining module's.
        """
        attr = func.__name__
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            if getattr(module, attr, None) is func:
                self._set(module, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        while self._items:
            mapping, key, original = self._items.pop()
            mapping[key] = original

    # -- results --------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer name, recorded and aggregated."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_ns / 1e9
        for name, (_, self_ns) in self.aggregates.items():
            out[name] = out.get(name, 0.0) + self_ns / 1e9
        return out

    def total_seconds(self, name: str) -> float:
        """Summed full duration (children included) of spans ``name``."""
        return sum(s.end_ns - s.start_ns for s in self.spans if s.name == name) / 1e9

    def calls(self, name: str) -> int:
        if name in self.aggregates:
            return self.aggregates[name][0]
        return sum(1 for s in self.spans if s.name == name)

    def coverage(self) -> tuple[float, float]:
        """``(root wall seconds, share of it in layer self time)``.

        Only layer spans that descend from a root span count, so work on
        threads the benchmark does not drive (a daemon's executor) is left
        out; aggregated calls are counted as covered.
        """
        by_id = {s.span_id: s for s in self.spans}

        def top(span: Span) -> Span:
            while span.parent_id is not None and span.parent_id in by_id:
                span = by_id[span.parent_id]
            return span

        wall = sum(
            s.end_ns - s.start_ns for s in self.spans if s.name.startswith(ROOT)
        )
        layers = sum(
            s.self_ns
            for s in self.spans
            if not s.name.startswith(ROOT) and top(s).name.startswith(ROOT)
        ) + sum(self_ns for _, self_ns in self.aggregates.values())
        return wall / 1e9, (layers / wall if wall else 0.0)

    def write(self, path: Path) -> None:
        """Write every span and aggregate as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [s.to_json() for s in self.spans],
            "aggregates": {
                name: {"calls": calls, "self_ns": self_ns}
                for name, (calls, self_ns) in sorted(self.aggregates.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(doc) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._frame: _Frame | None = None

    def __enter__(self) -> "_SpanContext":
        self._frame = self._tracer._enter(self._name)
        return self

    def __exit__(self, *exc: object) -> None:
        if self._frame is not None:
            self._tracer._exit(self._frame, aggregate=False)
