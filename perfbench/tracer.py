"""Runtime span tracing of the repro layers, owned by the benchmark.

The benchmark never edits ``src/``.  Instead :class:`Tracer` replaces a
layer's public function (a module attribute or a class attribute) with a
wrapper that records one span per call: name, start, end, parent span
and request id.  Spans nest through a stack, so each span's *self time*
(its duration minus the time its child spans cover) is computed as it
closes.  Every wrapped function is synchronous, which keeps the stack
exact even inside the asyncio daemon: no span is open across an
``await``.

Aggregates (calls, inclusive and self nanoseconds, per-name counters) are
kept for every call.  Raw spans are kept in memory up to
:data:`SPANS_KEPT` and written out once, by :meth:`Tracer.dump`, when the
run ends.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

#: Raw spans kept in memory; the aggregates cover every call regardless.
SPANS_KEPT = 50_000


class _Agg:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.dropped = 0
        self.aggs: Dict[str, _Agg] = {}
        self.counters: Dict[str, float] = {}
        #: The request the next spans belong to (cell+run, check sequence).
        self.request: Optional[str] = None
        self._stack: List[list] = []
        self._next_id = 0
        self._undo: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        owner,
        attr: str,
        name,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
        consume: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, or a callable of the call's arguments
        that returns it (the plain/coloured label).  ``before(args)`` and
        ``after(args, result)`` feed counters.  ``consume`` drains a
        returned generator inside the span, so a lazy decoder is charged
        for the work it defers.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else None
        original = getattr(owner, attr)
        stack = self._stack
        spans = self.spans
        aggs = self.aggs
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            if before is not None:
                before(args)
            parent = stack[-1][0] if stack else -1
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                agg = aggs.get(span_name)
                if agg is None:
                    agg = aggs[span_name] = _Agg()
                agg.calls += 1
                agg.total_ns += duration
                agg.self_ns += duration - frame[1]
                if len(spans) < SPANS_KEPT:
                    spans.append(
                        (span_name, start, end, span_id, parent, tracer.request)
                    )
                else:
                    tracer.dropped += 1
            if after is not None:
                after(args, result)
            return result

        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(
                lambda cls, *a, **k: wrapper(*a, **k)
            ))
        else:
            setattr(owner, attr, wrapper)
        self._undo.append(
            lambda: setattr(owner, attr, raw if raw is not None else original)
        )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reporting ------------------------------------------------------

    def calls(self, name: str) -> int:
        agg = self.aggs.get(name)
        return agg.calls if agg else 0

    def self_s(self, name: str) -> float:
        agg = self.aggs.get(name)
        return agg.self_ns / 1e9 if agg else 0.0

    def total_s(self, name: str) -> float:
        agg = self.aggs.get(name)
        return agg.total_ns / 1e9 if agg else 0.0

    def summary(self) -> dict:
        return {
            "aggs": {
                name: [a.calls, a.total_ns, a.self_ns]
                for name, a in self.aggs.items()
            },
            "counters": dict(self.counters),
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def merge(self, summary: dict) -> None:
        """Fold another process's :meth:`summary` into this tracer."""
        for name, (calls, total_ns, self_ns) in summary["aggs"].items():
            agg = self.aggs.get(name)
            if agg is None:
                agg = self.aggs[name] = _Agg()
            agg.calls += calls
            agg.total_ns += total_ns
            agg.self_ns += self_ns
        for name, value in summary["counters"].items():
            self.count(name, value)

    def dump(self, path: str) -> None:
        """Write the kept spans (JSON lines) and the aggregates."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"summary": self.summary()}) + "\n")
            for name, start, end, span_id, parent, request in self.spans:
                out.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "id": span_id, "parent": parent, "request": request,
                }) + "\n")
