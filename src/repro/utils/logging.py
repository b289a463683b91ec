"""Structured event logging for simulated system components.

Production PAPAYA emits telemetry from every Coordinator/Selector/Aggregator
interaction; the reproduction records the same events as in-memory structured
records so tests and the experiment harness can assert on system behaviour
(e.g. "no client was assigned to a task with zero demand") without parsing
text logs.

Two scale features keep the log usable on million-client runs:

* **bounded retention** — ``EventLog(max_records=N)`` keeps only the most
  recent ``N`` records in a ring while per-kind *tallies* stay exact
  (mirroring :class:`repro.sim.trace.BoundedMetricsTrace`'s
  retained-vs-exact split), so a fleet-scale run never grows its log
  without bound;
* **kind indexing** — :meth:`EventLog.of_kind` / :meth:`EventLog.count`
  read a per-kind index instead of scanning every record, so the
  assertion-heavy test suites and the chaos experiment stop paying O(n)
  per lookup.

:meth:`EventLog.to_jsonl` serializes the retained records as JSON lines —
the same export path the observability plane (:mod:`repro.obs`) uses for
spans, so structured events (``plane_fallback``, ``executor_fallback``,
``task_failover``, ``shard_replaced``, ``placement_retry``, ...) ride
along in run exports.
"""

from __future__ import annotations

import json
from collections import deque
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
    """In-memory event log with indexed queries and optional bounded retention.

    ``max_records=None`` (the default) is the historical append-only log:
    every record is retained and every query helper sees all of them.
    With ``max_records=N`` the log keeps a ring of the newest ``N``
    records — :meth:`count` still returns **exact** per-kind totals over
    the whole run (the tallies are never evicted), while ``of_kind`` /
    iteration / ``to_jsonl`` see only the retained window.
    """

    def __init__(self, max_records: int | None = None) -> None:
        if max_records is not None and max_records < 1:
            raise ValueError("max_records must be at least 1 (or None)")
        self.max_records = max_records
        self._records: deque[EventRecord] = deque()
        #: retained records per kind (rings evict in lockstep with _records)
        self._by_kind: dict[str, deque[EventRecord]] = {}
        #: exact per-kind totals over the whole run (never decremented)
        self._kind_totals: dict[str, int] = {}
        self.evicted = 0

    def emit(self, time: float, component: str, kind: str, **detail: Any) -> None:
        """Append one event (evicting the oldest when over the bound)."""
        record = EventRecord(time, component, kind, detail)
        self._records.append(record)
        self._by_kind.setdefault(kind, deque()).append(record)
        self._kind_totals[kind] = self._kind_totals.get(kind, 0) + 1
        if self.max_records is not None and len(self._records) > self.max_records:
            oldest = self._records.popleft()
            self._by_kind[oldest.kind].popleft()
            self.evicted += 1

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self._records)

    def of_kind(self, kind: str) -> list[EventRecord]:
        """Retained events with the given ``kind``, in emission order.

        Indexed: O(matches), not a scan over the whole log.
        """
        return list(self._by_kind.get(kind, ()))

    def from_component(self, component: str) -> list[EventRecord]:
        """All retained events emitted by ``component``, in emission order."""
        return [r for r in self._records if r.component == component]

    def where(self, predicate: Callable[[EventRecord], bool]) -> list[EventRecord]:
        """All retained events matching an arbitrary predicate."""
        return [r for r in self._records if predicate(r)]

    def count(self, kind: str) -> int:
        """Exact number of events of the given kind over the whole run.

        With bounded retention this may exceed ``len(of_kind(kind))`` —
        the tally survives eviction, the records do not.
        """
        return self._kind_totals.get(kind, 0)

    def kind_totals(self) -> dict[str, int]:
        """Exact per-kind event totals (sorted by kind), eviction-proof."""
        return {k: self._kind_totals[k] for k in sorted(self._kind_totals)}

    def to_jsonl(self) -> str:
        """Retained records as JSON lines (one event per line).

        The same export envelope the observability plane uses for spans
        (:mod:`repro.obs.export`), so events and spans interleave into
        one trace file cleanly.
        """
        return "\n".join(r.to_json() for r in self._records)

    def clear(self) -> None:
        """Drop all records and tallies (used between experiment repetitions)."""
        self._records.clear()
        self._by_kind.clear()
        self._kind_totals.clear()
        self.evicted = 0
