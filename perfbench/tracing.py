"""Span tracing from outside the program: wrappers around layer entry points.

The benchmark never edits ``src/``.  A traced run instead replaces a few
public entry points of each layer (module functions and class methods) with
thin wrappers that open a span around the original call, then puts the
originals back.  Spans are kept in memory and written as JSON lines when the
run ends.

A span records its name, parent span, start, end and the request id of the
benchmark operation that caused it.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("span_id", "name", "parent", "start", "end", "request", "attrs")

    def __init__(self, span_id, name, parent, start, request):
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.request = request
        self.attrs: Dict[str, float] = {}

    def to_json(self) -> Dict[str, object]:
        return {
            "id": self.span_id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "request": self.request,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """Collects spans around wrapped calls; single-threaded by design.

    Every workload drives the program from one thread, and the serve
    workload's asyncio client only has synchronous calls wrapped, so a
    plain stack gives each span its parent.  The request id lives in a
    context variable, which asyncio keeps per task across awaits, and so
    does ``active``: the wrappers stay installed for a whole traced run but
    record only operations marked active, so traced and untraced
    operations interleave and their latencies give the tracing overhead.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request: contextvars.ContextVar = contextvars.ContextVar("request", default=None)
        self.active: contextvars.ContextVar = contextvars.ContextVar("active", default=False)
        self._stack: List[Span] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._next_id = 0

    # -- recording ------------------------------------------------------- #
    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self._next_id, name, parent, time.perf_counter(), self.request.get())
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - a wrapper bug, not input
            raise RuntimeError(f"span stack out of order: {popped.name} vs {span.name}")
        self.spans.append(span)

    def inside(self, prefix: str) -> bool:
        """True while some open span's name starts with ``prefix``."""
        return any(span.name.startswith(prefix) for span in self._stack)

    # -- patching -------------------------------------------------------- #
    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        observe: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``observe(span, args, kwargs, result)`` may attach attributes to
        the span after the call returns.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        function = original.__func__ if isinstance(original, (classmethod, staticmethod)) else original
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.active.get():
                return function(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        replacement = wrapper
        if isinstance(original, classmethod):
            replacement = classmethod(wrapper)
        elif isinstance(original, staticmethod):
            replacement = staticmethod(wrapper)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every wrapped entry point back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def begin(self, request: str, active: bool) -> None:
        """Mark the operation about to run (in this task) and whether it is traced."""
        self.request.set(request)
        self.active.set(active)

    # -- reading --------------------------------------------------------- #
    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            row = table[span.name]
            duration = span.end - span.start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - _covered(span, children.get(span.span_id, ()))
        return dict(table)


def _covered(span: Span, kids) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    covered = 0.0
    cursor = span.start
    for kid in sorted(kids, key=lambda item: item.start):
        start = max(kid.start, cursor)
        end = min(kid.end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return covered
