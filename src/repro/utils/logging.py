"""Structured event logging for simulated system components.

Production PAPAYA emits telemetry from every Coordinator/Selector/Aggregator
interaction; the reproduction records the same events as in-memory structured
records so tests and the experiment harness can assert on system behaviour
(e.g. "no client was assigned to a task with zero demand") without parsing
text logs.

**Kind indexing** keeps lookups cheap on long runs:
:meth:`EventLog.of_kind` / :meth:`EventLog.count` read a per-kind index
instead of scanning every record, so the assertion-heavy test suites and
the chaos experiment stop paying O(n) per lookup.

:meth:`EventLog.to_jsonl` serializes the records as JSON lines —
the same export path the observability plane (:mod:`repro.obs`) uses for
spans, so structured events (``plane_fallback``, ``executor_fallback``,
``shard_failed``, ``shard_replaced``, ``placement_retry``, ...) ride
along in run exports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["EventRecord", "EventLog"]


def _json_default(value: Any) -> Any:
    """JSON fallback for event details (numpy scalars, sets, arrays)."""
    # ``tolist`` covers scalars and arrays alike; ``item`` would raise on
    # any array of more than one element.
    tolist = getattr(value, "tolist", None)
    if callable(tolist):  # numpy scalar or array
        return tolist()
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value) if isinstance(value, (set, frozenset)) else list(value)
    return repr(value)


@dataclass(frozen=True)
class EventRecord:
    """One structured telemetry event.

    Attributes
    ----------
    time:
        Simulated time at which the event occurred (seconds).
    component:
        Emitting component, e.g. ``"coordinator"`` or ``"aggregator:0"``.
    kind:
        Event type, e.g. ``"client_assigned"`` or ``"heartbeat_missed"``.
    detail:
        Free-form payload for assertions and debugging.
    """

    time: float
    component: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able document of this event (detail keys flattened under
        ``detail`` so the envelope schema is stable)."""
        return {
            "time": self.time,
            "component": self.component,
            "kind": self.kind,
            "detail": dict(self.detail),
        }

    def to_json(self) -> str:
        """One JSON line; non-JSON detail values degrade to lists/repr."""
        return json.dumps(
            self.to_dict(), sort_keys=True, default=_json_default
        )


class EventLog:
    """Append-only in-memory event log with indexed queries."""

    def __init__(self) -> None:
        self._records: list[EventRecord] = []
        #: records per kind, in emission order
        self._by_kind: dict[str, list[EventRecord]] = {}

    def emit(self, time: float, component: str, kind: str, **detail: Any) -> None:
        """Append one event."""
        record = EventRecord(time, component, kind, detail)
        self._records.append(record)
        self._by_kind.setdefault(kind, []).append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self._records)

    def of_kind(self, kind: str) -> list[EventRecord]:
        """Events with the given ``kind``, in emission order.

        Indexed: O(matches), not a scan over the whole log.
        """
        return list(self._by_kind.get(kind, ()))

    def from_component(self, component: str) -> list[EventRecord]:
        """All events emitted by ``component``, in emission order."""
        return [r for r in self._records if r.component == component]

    def where(self, predicate: Callable[[EventRecord], bool]) -> list[EventRecord]:
        """All events matching an arbitrary predicate."""
        return [r for r in self._records if predicate(r)]

    def count(self, kind: str) -> int:
        """Exact number of events of the given kind over the whole run."""
        return len(self._by_kind.get(kind, ()))

    def kind_totals(self) -> dict[str, int]:
        """Exact per-kind event totals (sorted by kind)."""
        return {k: len(self._by_kind[k]) for k in sorted(self._by_kind)}

    def to_jsonl(self) -> str:
        """All records as JSON lines (one event per line).

        The same export envelope the observability plane uses for spans
        (:mod:`repro.obs.export`), so events and spans interleave into
        one trace file cleanly.
        """
        return "\n".join(r.to_json() for r in self._records)

    def clear(self) -> None:
        """Drop all records (used between experiment repetitions)."""
        self._records.clear()
        self._by_kind.clear()
