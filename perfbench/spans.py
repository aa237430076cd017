"""In-memory spans recorded by the benchmark around calls into each layer.

The benchmark never edits the program: in a traced run it wraps the
public functions of each layer (``Table.conflict_index``,
``core.decompose.decompose``, ``exec.solve_components`` …) with a thin
recorder and restores the originals when the run ends.  Spans stay in a
list in memory and are written out once, after the last measured op.

Traced runs alternate traced and untraced ops inside one process (the
wrappers stay installed and check one flag), so the tracing overhead is
the difference between the two arms under identical conditions.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

perf = time.perf_counter


class Span:
    __slots__ = ("op", "span_id", "parent", "name", "start", "end", "value")

    def __init__(self, op, span_id, parent, name, start, end, value=None):
        self.op = op
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.value = value

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def as_dict(self) -> Dict[str, object]:
        out = {"op": self.op, "id": self.span_id, "parent": self.parent,
               "name": self.name, "start": self.start, "end": self.end}
        if self.value is not None:
            out["value"] = self.value
        return out


class Tracer:
    """Spans of the benchmark's traced ops.

    ``active`` gates every wrapper: while it is false a wrapped call
    costs one attribute check and records nothing.  Each op opens a
    root span; spans opened inside it (on the same thread) record it,
    or the innermost open span, as their parent and share its op id.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_start: Optional[float] = None
        self.gc_pause_s = 0.0

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str, op=None):
        """Record one span while active.  With *op* it is the root span
        of that op; otherwise its parent is the innermost open span on
        this thread, whose op it shares."""
        if not self.active:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack and op is None else None
        span = Span(parent.op if parent else op, next(self._ids),
                    parent.span_id if parent else None, name, perf(), 0.0)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = perf()
            stack.pop()
            self.spans.append(span)

    def record(self, op_id, name: str, start: float, end: float) -> None:
        """A span timed by the caller (the serve client's round trips)."""
        if self.active:
            self.spans.append(
                Span(op_id, next(self._ids), None, name, start, end))

    # -- wrapping the program's layer functions ------------------------
    def wrap(self, owner, attr: str, name: str,
             value: Optional[Callable[[object], object]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *value*, when given, maps the call's return value to a count
        stored on the span (edges built, components found, …).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
                if value is not None:
                    span.value = value(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _on_gc(self, phase: str, _info) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = perf()
        elif self._gc_start is not None:
            self.gc_pause_s += perf() - self._gc_start
            self._gc_start = None

    def install_gc_meter(self) -> None:
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped function and drop the GC callback."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self.active = False

    # -- reading -------------------------------------------------------
    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent is None and s.op is not None
                and s.name == "op"]

    def per_op(self, name: str) -> Dict[object, float]:
        """Milliseconds per op spent in spans called *name*."""
        out: Dict[object, float] = {}
        for s in self.spans:
            if s.name == name:
                out[s.op] = out.get(s.op, 0.0) + s.ms
        return out

    def values(self, name: str) -> List[object]:
        return [s.value for s in self.spans
                if s.name == name and s.value is not None]

    def root_self_ms(self) -> Dict[object, float]:
        """Per op: root duration not covered by any direct child span."""
        children: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + s.ms
        return {r.op: r.ms - children.get(r.span_id, 0.0)
                for r in self.roots()}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
