"""Simulated-time span tracing: causal round-trip and round trees.

A :class:`Span` is one timed operation on the *simulated* clock — a
client round-trip, one of its stages (download / train / upload /
queue / admit), or one task round (the window between consecutive
server steps).  Spans form trees through ``parent_id``, so an exported
trace reconstructs exactly the causal chain the paper describes:

    check-in → selection → download → train → upload → admit → step

Span ids are sequence numbers (no randomness — tracing must never
perturb the run it observes) and timestamps are simulated seconds, so
the same run traces identically everywhere.

Memory is bounded the same way :class:`~repro.sim.trace.BoundedMetricsTrace`
bounds participation records: completed spans beyond ``max_spans`` are
retained in a ring (newest win) while exact per-name tallies survive
eviction.  Open spans are bounded by the system's own concurrency — a
span opens when a session starts and closes when it terminates, so at
most the in-flight session count is ever open.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Span", "SpanTracer"]


@dataclass(slots=True)
class Span:
    """One timed operation in the simulated run.

    Slotted, and the annotation list is lazily allocated (most spans are
    never annotated): a tracer retains up to ``max_spans`` of these, so
    per-span footprint is what bounds telemetry memory — and allocation
    count is what bounds telemetry overhead on the hot session path.
    """

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float | None = None
    #: terminal status: "ok", a terminal outcome name, or "in_flight"
    status: str = "in_flight"
    attrs: dict[str, Any] = field(default_factory=dict)
    #: free-form timed annotations; None until the first one lands
    annotations: list[dict[str, Any]] | None = None

    @property
    def duration_s(self) -> float | None:
        """Span duration in simulated seconds (None while open)."""
        return None if self.end_s is None else self.end_s - self.start_s

    def annotate(self, annotation: dict[str, Any]) -> None:
        """Attach one annotation (e.g. an overlapping fault window)."""
        if self.annotations is None:
            self.annotations = []
        self.annotations.append(annotation)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able document of this span."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "status": self.status,
            "attrs": dict(self.attrs),
            "annotations": list(self.annotations or ()),
        }


class SpanTracer:
    """Collects spans with ring-bounded retention and exact tallies.

    >>> tracer = SpanTracer()
    >>> root = tracer.start("round_trip", 0.0, task="train", device=7)
    >>> child = tracer.start("download", 0.0, parent=root)
    >>> tracer.end(child, 3.5)
    >>> tracer.end(root, 9.0, status="aggregated")
    >>> [s.name for s in tracer.completed()]
    ['download', 'round_trip']
    >>> tracer.open_count
    0
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be at least 1")
        self.max_spans = max_spans
        self._open: dict[int, Span] = {}
        self._done: deque[Span] = deque()
        self._next_id = 1
        #: exact per-name counts of completed spans (eviction-proof)
        self._name_totals: dict[str, int] = {}
        self.evicted = 0

    # -- recording ----------------------------------------------------------

    def start(
        self, name: str, at_s: float, parent: int | None = None, **attrs: Any
    ) -> int:
        """Open a span; returns its id (use as ``parent`` for children)."""
        span_id = self._next_id
        self._next_id += 1
        self._open[span_id] = Span(
            span_id=span_id, parent_id=parent, name=name, start_s=at_s,
            attrs=attrs,
        )
        return span_id

    def end(self, span_id: int, at_s: float, status: str = "ok", **attrs: Any) -> None:
        """Close an open span (idempotent: a second end is ignored)."""
        span = self._open.pop(span_id, None)
        if span is None:
            return
        span.end_s = at_s
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        self._done.append(span)
        self._name_totals[span.name] = self._name_totals.get(span.name, 0) + 1
        if len(self._done) > self.max_spans:
            self._done.popleft()
            self.evicted += 1

    def annotate(self, span_id: int, **annotation: Any) -> bool:
        """Attach one annotation to an *open* span; False when not open."""
        span = self._open.get(span_id)
        if span is None:
            return False
        span.annotate(annotation)
        return True

    def record(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent: int | None = None,
        status: str = "ok",
        **attrs: Any,
    ) -> int:
        """Record an already-finished span in one call; returns its id."""
        span_id = self.start(name, start_s, parent=parent, **attrs)
        self.end(span_id, end_s, status=status)
        return span_id

    # -- reading ------------------------------------------------------------

    @property
    def open_count(self) -> int:
        """Number of spans still open."""
        return len(self._open)

    def open_spans(self) -> list[Span]:
        """Still-open spans, in start order."""
        return [self._open[k] for k in sorted(self._open)]

    def completed(self) -> Iterator[Span]:
        """Retained completed spans, in completion order."""
        return iter(self._done)

    def completed_of(self, name: str) -> list[Span]:
        """Retained completed spans with the given name."""
        return [s for s in self._done if s.name == name]

    def count(self, name: str) -> int:
        """Exact number of completed spans of ``name`` (eviction-proof)."""
        return self._name_totals.get(name, 0)

    def name_totals(self) -> dict[str, int]:
        """Exact completed-span totals per name, sorted."""
        return {k: self._name_totals[k] for k in sorted(self._name_totals)}

    def tree(self) -> dict[int | None, list[Span]]:
        """Retained completed spans keyed by parent id (the span tree)."""
        children: dict[int | None, list[Span]] = {}
        for span in self._done:
            children.setdefault(span.parent_id, []).append(span)
        for group in children.values():
            group.sort(key=lambda s: (s.start_s, s.span_id))
        return children

    def orphans(self) -> list[Span]:
        """Completed child spans whose parent was neither completed nor open.

        A non-empty result means a span closed against a parent id that
        never existed — the trace-completeness contract violation the
        chaos suite asserts against.  (A parent *evicted* from the
        bounded ring is not an orphan: eviction is accounted separately.)
        """
        if self.evicted:
            return []  # parentage can no longer be decided exactly
        known = {s.span_id for s in self._done} | set(self._open)
        return [
            s for s in self._done
            if s.parent_id is not None and s.parent_id not in known
        ]

    def to_dicts(self) -> list[dict[str, Any]]:
        """Retained completed spans (then open ones) as JSON-able dicts."""
        docs = [s.to_dict() for s in self._done]
        docs.extend(s.to_dict() for s in self.open_spans())
        return docs

    def approx_bytes(self) -> int:
        """Rough memory footprint of retained + open spans."""
        return 160 * (len(self._done) + len(self._open))
