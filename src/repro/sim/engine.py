"""Discrete-event simulation engine.

The substitute for the paper's live fleet: every latency in the system —
client training time, network transfers, selection, aggregation, heartbeat
intervals, failure-detection delays — is an event on one global virtual
clock, so experiments over "hours" of fleet time run in seconds and are
perfectly reproducible.

The event queue is a bucketed *calendar queue* (Brown, CACM 1988): a
wheel of time buckets sized from the observed event-gap distribution, so
``schedule``/``pop`` stay O(1) amortized as the pending-event count
grows from thousands to millions.  A binary heap pays O(log n) per
operation and, worse, its cache behaviour degrades with n — per-event
cost visibly climbs between a 10k-client and a 1M-client fleet.  The
calendar queue keys on exactly the heap's old ``(time, seq)`` tuple, so
event order — including the FIFO tie-break for same-instant events — is
bit-identical to the previous implementation and every recorded trace is
unchanged.

The engine keeps cancellable handles (cancellation is how the system
layer models aborting in-flight clients when a synchronous round closes
or staleness bounds trip); cancelled entries are pruned lazily when
their bucket is drained, never paying an eager O(n) removal.
"""

from __future__ import annotations

import itertools
import math
from bisect import insort
from typing import Callable

__all__ = ["EventHandle", "Simulator"]


class EventHandle:
    """Cancellable reference to a scheduled event."""

    __slots__ = ("time", "cancelled", "_sim")

    def __init__(self, time: float, sim: "Simulator | None" = None):
        self.time = time
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired).

        Decrements the owning simulator's live-event counter exactly
        once: repeat cancels are guarded by the ``cancelled`` flag, and
        the simulator detaches the handle (``_sim = None``) when the
        event fires.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._live -= 1
            self._sim = None


#: within a bucket, entries are kept sorted *descending* by (time, seq) so
#: the next event to fire is at the tail and ``list.pop()`` is O(1).  seq
#: is unique, so comparisons never reach the handle.
def _bucket_key(entry) -> tuple[float, int]:
    return (-entry[0], -entry[1])


class _CalendarQueue:
    """Calendar queue over ``(time, seq, handle, action)`` entries.

    A non-wrapping wheel of ``_n_buckets`` buckets of ``_width`` seconds
    starting at ``_start``; entries at or beyond the wheel's end go to an
    unsorted ``_overflow`` list.  When the wheel is exhausted (or grossly
    over-full) the queue rebuilds: it re-centres the wheel on the
    earliest live entry and re-sizes buckets from the observed event
    span, the classic Brown adaptation that keeps ~O(1) entries per
    bucket regardless of load.

    Total order is exactly ``(time, seq)`` ascending — identical to the
    binary heap this replaces — so simulation traces are byte-identical.
    Invariant: for live entries a < b, bucket(a) <= bucket(b); the
    floor-based index is monotone in time and both clamps (to the
    current scan bucket below, to overflow above) preserve monotonicity,
    while within-bucket order is exact.
    """

    __slots__ = ("_buckets", "_n_buckets", "_start", "_width", "_cur",
                 "_overflow", "_count")

    _MIN_BUCKETS = 64
    _MAX_BUCKETS = 1 << 16

    def __init__(self) -> None:
        self._init_wheel(start=0.0, width=1.0, n_buckets=self._MIN_BUCKETS)
        self._overflow: list = []
        self._count = 0  # entries physically stored (incl. not-yet-pruned cancels)

    def _init_wheel(self, start: float, width: float, n_buckets: int) -> None:
        self._buckets: list[list] = [[] for _ in range(n_buckets)]
        self._n_buckets = n_buckets
        self._start = start
        self._width = width
        self._cur = 0  # scan pointer: buckets before it are empty

    def push(self, entry) -> None:
        time = entry[0]
        if self._count == 0:
            # Empty queue: re-anchor the wheel at this event so bucket
            # indices stay small after long quiet stretches.
            self._start = time
            self._cur = 0
        idx = int((time - self._start) / self._width)
        if idx >= self._n_buckets:
            self._overflow.append(entry)
        else:
            # Clamp below to the scan pointer: guards float rounding at
            # bucket boundaries and events scheduled for instants the
            # scan already passed (always >= the last fired (time, seq),
            # so within-bucket exact ordering keeps them correct).
            if idx < self._cur:
                idx = self._cur
            insort(self._buckets[idx], entry, key=_bucket_key)
        self._count += 1
        if (self._count > 8 * self._n_buckets
                and self._n_buckets < self._MAX_BUCKETS):
            self._rebuild()

    def peek(self):
        """Next live entry (without removing it), or None when empty."""
        while True:
            while self._cur < self._n_buckets:
                bucket = self._buckets[self._cur]
                while bucket and bucket[-1][2].cancelled:
                    bucket.pop()  # lazy prune
                    self._count -= 1
                if bucket:
                    return bucket[-1]
                self._cur += 1
            # Wheel exhausted — everything live (if anything) is in
            # overflow; re-centre the wheel on it and keep scanning.
            if not self._rebuild():
                return None

    def pop(self):
        """Remove and return the next live entry, or None when empty."""
        entry = self.peek()
        if entry is not None:
            self._buckets[self._cur].pop()
            self._count -= 1
        return entry

    def _rebuild(self) -> bool:
        """Re-centre and re-size the wheel around the live entries.

        Returns False when no live entries remain.
        """
        live = [e for b in self._buckets[self._cur:] for e in b
                if not e[2].cancelled]
        live.extend(e for e in self._overflow if not e[2].cancelled)
        self._overflow = []
        self._count = len(live)
        if not live:
            self._init_wheel(start=self._start, width=self._width,
                             n_buckets=self._n_buckets)
            return False
        times = sorted(e[0] for e in live)
        n_buckets = self._MIN_BUCKETS
        while n_buckets < len(live) and n_buckets < self._MAX_BUCKETS:
            n_buckets *= 2
        span = times[-1] - times[0]
        if span <= 0.0:
            width = 1.0
        else:
            # Slightly over-wide so the latest entry lands inside the
            # wheel rather than bouncing straight back to overflow.
            width = max(span * 1.5 / n_buckets, 1e-9)
        self._init_wheel(start=times[0], width=width, n_buckets=n_buckets)
        for entry in live:
            idx = int((entry[0] - self._start) / self._width)
            if idx >= self._n_buckets:
                self._overflow.append(entry)
            else:
                insort(self._buckets[idx], entry, key=_bucket_key)
        return True


class Simulator:
    """Single-clock discrete-event loop.

    Events scheduled for the same instant fire in scheduling order
    (stable FIFO tie-break), which makes runs deterministic.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = _CalendarQueue()
        self._seq = itertools.count()
        self._fired = 0
        self._live = 0  # scheduled, not yet fired or cancelled

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total events executed (for instrumentation/tests)."""
        return self._fired

    @property
    def pending(self) -> int:
        """Events scheduled but not yet fired or cancelled.

        O(1): a live counter maintained by ``schedule``/``cancel``/the
        event-loop pops, instead of a scan over the heap (whose
        lazily-deleted cancelled entries made the scan O(n) per call).
        """
        return self._live

    def schedule(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule into the past ({time} < {self._now})")
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite (got {time})")
        handle = EventHandle(time, self)
        self._queue.push((time, next(self._seq), handle, action))
        self._live += 1
        return handle

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        entry = self._queue.pop()
        if entry is None:
            return False
        time, _, handle, action = entry
        handle._sim = None
        self._live -= 1
        self._now = time
        self._fired += 1
        action()
        return True

    def run_until(
        self,
        t_end: float,
        stop: Callable[[], bool] | None = None,
        max_events: int | None = None,
    ) -> float:
        """Run events up to ``t_end`` (inclusive).

        Parameters
        ----------
        t_end:
            Simulated-time horizon; events beyond it stay queued and the
            clock is advanced to exactly ``t_end``.
        stop:
            Optional predicate checked after every event; the run halts
            early when it returns True (e.g. "target loss reached").
        max_events:
            Safety valve for runaway simulations.

        Returns
        -------
        The simulated time when the run stopped.
        """
        fired = 0
        while True:
            head = self._queue.peek()
            if head is None or head[0] > t_end:
                break
            time, _, handle, action = self._queue.pop()
            handle._sim = None
            self._live -= 1
            self._now = time
            self._fired += 1
            fired += 1
            action()
            if stop is not None and stop():
                return self._now
            if max_events is not None and fired >= max_events:
                return self._now
        self._now = max(self._now, t_end)
        return self._now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Drain the queue entirely (bounded by ``max_events``)."""
        fired = 0
        while self.step():
            fired += 1
            if fired >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
        return self._now
