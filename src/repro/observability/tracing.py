"""Span-based stage tracing over monotonic clocks.

``trace.span("ingest.flush")`` wraps a stage in a context manager that
records its monotonic duration into a bounded in-memory ring of recent
spans and (when a registry is attached) a ``repro_span_seconds``
histogram labelled by span name.  Like the metrics core, tracing is
gated on the one process-wide enabled flag: disabled, ``span`` returns a
shared no-op context manager — no clock read, no allocation.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry, _STATE, get_registry

__all__ = ["SPAN_RING_CAPACITY", "Span", "Tracer", "get_tracer", "trace"]

#: How many completed spans each tracer retains for inspection.
SPAN_RING_CAPACITY = 256


class _NullSpan:
    """The disabled path: one shared, reusable, do-nothing span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def annotate(self, **fields: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Span:
    """One live stage timing; records itself into the tracer on exit."""

    __slots__ = ("name", "started", "duration_seconds", "fields", "_tracer")

    def __init__(self, tracer: "Tracer", name: str):
        self.name = name
        self.started = 0.0
        self.duration_seconds: Optional[float] = None
        self.fields: Dict[str, Any] = {}
        self._tracer = tracer

    def __enter__(self) -> "Span":
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_seconds = time.perf_counter() - self.started
        if exc_type is not None:
            self.fields.setdefault("error", exc_type.__name__)
        self._tracer._record(self)

    def annotate(self, **fields: Any) -> None:
        """Attach small structured facts (counts, sizes) to the span."""
        self.fields.update(fields)


class Tracer:
    """A bounded ring of recent spans plus an optional histogram feed."""

    def __init__(
        self,
        capacity: int = SPAN_RING_CAPACITY,
        registry: Optional[MetricsRegistry] = None,
    ):
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._registry = registry
        self._histogram = None
        self._children: Dict[str, Any] = {}

    def span(self, name: str):
        """Context manager timing one stage; no-op while disabled."""
        if not _STATE.enabled:
            return _NULL_SPAN
        return Span(self, name)

    def record(self, name: str, seconds: float, **fields: Any) -> None:
        """Record an already-measured stage as a span; no-op while disabled.

        For stages too fine-grained to wrap one by one: the caller sums the
        time of several short calls and records them as one span.
        """
        if not _STATE.enabled:
            return
        span = Span(self, name)
        span.duration_seconds = float(seconds)
        span.fields.update(fields)
        self._record(span)

    def _record(self, span: Span) -> None:
        with self._lock:
            self._ring.append(span)
        # Span names are a small fixed vocabulary, so cache each name's
        # histogram child — the per-span cost is then one dict hit plus
        # one observe, not a labels() resolution per stage.
        child = self._children.get(span.name)
        if child is None:
            histogram = self._histogram
            if histogram is None:
                registry = self._registry or get_registry()
                histogram = registry.histogram(
                    "repro_span_seconds",
                    "Stage durations from trace.span instrumentation.",
                    labels=("span",),
                )
                self._histogram = histogram
            child = histogram.labels(span=span.name)
            self._children[span.name] = child
        child.observe(span.duration_seconds)

    def recent(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """The retained spans, oldest first, as plain dicts."""
        with self._lock:
            spans = list(self._ring)
        return [
            {
                "name": span.name,
                "duration_seconds": span.duration_seconds,
                **span.fields,
            }
            for span in spans
            if name is None or span.name == name
        ]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()


#: The process-wide tracer: ``from repro.observability import trace``.
trace = Tracer()


def get_tracer() -> Tracer:
    return trace
