"""Span recorder that times the program's layers from outside.

The tracer replaces each layer's public entry point (a module-level
function at every module that binds it, or a method on its class) with a
wrapper while it is installed, and puts the originals back when it is
removed.  No code of the program under test changes.

Two modes:

* ``timed`` — every wrapped call becomes a span ``(id, name, start, end,
  parent, request)`` kept in memory.  Self time (a span's duration minus
  the time its direct child spans cover) is accumulated per layer as the
  spans close, and the spans can be written out as Chrome trace-event
  JSON at the end.
* ``count`` — the wrappers only count calls and run the result hooks.
  The setup warm-up pass runs in this mode to collect the counts of the
  determinism self-check at negligible cost.

A call counts once per outermost entry: a layer that re-enters itself
(``explain_plan`` recursing over a plan tree) is timed as nested spans
but counted as one call.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

perf_counter = time.perf_counter

#: Self-time bucket for the time result hooks spend computing counts.
HOOKS = "trace.hooks"


@dataclass(frozen=True)
class Layer:
    """One traced entry point.

    ``owner`` is a class (the method ``attr`` is wrapped on it) or the
    function object itself (``attr`` is ``None``; every ``repro`` module
    attribute bound to that object is wrapped).  ``hook`` receives the
    tracer and the call's return value.
    """

    name: str
    owner: Any
    attr: str | None = None
    hook: Callable[["Tracer", Any], None] | None = None


class Tracer:
    def __init__(self, layers: list[Layer], mode: str = "timed"):
        if mode not in ("timed", "count"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.layers = layers
        self.mode = mode
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        #: Id of the current request and the label of every request.
        self.request = 0
        self.request_labels: dict[int, str] = {}
        # Open calls: [id, name, start, child seconds] frames when timed,
        # layer names when counting.
        self._stack: list = []
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installing and removing the wrappers

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in self.layers:
            if layer.attr is not None:
                original = layer.owner.__dict__[layer.attr]
                self._patch(layer.owner, layer.attr, original,
                            self._wrap(layer, original))
                continue
            wrapper = self._wrap(layer, layer.owner)
            bound = [
                module for name, module in list(sys.modules.items())
                if name.startswith("repro") and module is not None
                and any(value is layer.owner for value in vars(module).values())
            ]
            if not bound:
                raise RuntimeError(f"{layer.name}: entry point is bound nowhere")
            for module in bound:
                for attr, value in list(vars(module).items()):
                    if value is layer.owner:
                        self._patch(module, attr, value, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: Layer, fn):
        name = layer.name
        hook = layer.hook
        stack = self._stack
        calls = self.calls

        if self.mode == "count":
            def counted(*args, **kwargs):
                outermost = not stack or stack[-1] != name
                if outermost:
                    calls[name] += 1
                stack.append(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                if hook is not None and outermost:
                    hook(self, result)
                return result

            return counted

        spans = self.spans
        self_s = self.self_s

        def timed(*args, **kwargs):
            outermost = not stack or stack[-1][1] != name
            if outermost:
                calls[name] += 1
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                self_s[name] += duration - frame[3]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                spans.append((span_id, name, frame[2], end,
                              parent[0] if parent is not None else None,
                              self.request))
            if hook is not None and outermost:
                # Hook time is tracing work: bill it to its own bucket, not
                # to the caller's self time.
                hook_start = perf_counter()
                hook(self, result)
                spent = perf_counter() - hook_start
                self_s[HOOKS] += spent
                if stack:
                    stack[-1][3] += spent
            return result

        return timed

    def begin_request(self, label: str) -> None:
        self.request += 1
        self.request_labels[self.request] = label

    # ------------------------------------------------------------------
    # Results

    def write_chrome_trace(self, path, origin: float) -> int:
        """Write the spans as Chrome trace-event JSON (complete ``X``
        events, microseconds from ``origin``; each request's label under
        ``otherData``), one event at a time; returns the event count."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit": "ms", "otherData": ')
            json.dump({"requests": self.request_labels}, handle)
            handle.write(', "traceEvents": [')
            for index, (span_id, name, start, end, parent, request) in enumerate(self.spans):
                if index:
                    handle.write(",")
                json.dump({
                    "name": name,
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": span_id, "parent": parent, "request": request},
                }, handle)
            handle.write("]}\n")
        return len(self.spans)
