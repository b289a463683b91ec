"""Discrete-event simulation engine.

The substitute for the paper's live fleet: every latency in the system —
client training time, network transfers, selection, aggregation, heartbeat
intervals, failure-detection delays — is an event on one global virtual
clock, so experiments over "hours" of fleet time run in seconds and are
perfectly reproducible.

The event queue is a binary heap (``heapq``) of ``(time, seq, handle,
action)`` entries: ``seq`` is a global scheduling counter, so events at
the same instant fire in scheduling order and every run is
deterministic.  A heap is the right size for the traffic the simulator
actually carries.  At the ``e2e`` benchmark's scale the peak pending
count per run is 66 (``lstm_cohort``), 202 (``secure_wide``,
``sharded_wide_process``), 1 002 (``async_fleet``), 1 008
(``sync_rounds``) and 1 088 (``million_chaos``, a 1 M-device fleet):
pending events grow with the sessions in flight (a task's concurrency),
never with the device count.  At those sizes ``heappush``/``heappop``
cost less per event than a bucketed calendar queue written in Python.

The engine keeps cancellable handles (cancellation is how the system
layer models aborting in-flight clients when a synchronous round closes
or staleness bounds trip); cancelled entries stay in the heap and are
dropped when they reach its head, never paying an eager O(n) removal.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
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


class Simulator:
    """Single-clock discrete-event loop.

    Events scheduled for the same instant fire in scheduling order
    (stable FIFO tie-break), which makes runs deterministic.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list = []  # heap of (time, seq, handle, action)
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
        event loop, instead of a scan over the heap (whose lazily
        dropped cancelled entries would make the scan O(n) per call).
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
        heappush(self._queue, (time, next(self._seq), handle, action))
        self._live += 1
        return handle

    def _fire_next(self, t_end: float) -> bool:
        """Fire the next live event if it is due by ``t_end``.

        Returns False, firing nothing, when no live event is due.
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heappop(queue)  # lazy prune
        if not queue or queue[0][0] > t_end:
            return False
        time, _, handle, action = heappop(queue)
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
        if math.isnan(t_end):
            raise ValueError("run horizon must not be NaN")
        fired = 0
        while self._fire_next(t_end):
            fired += 1
            if stop is not None and stop():
                return self._now
            if max_events is not None and fired >= max_events:
                return self._now
        self._now = max(self._now, t_end)
        return self._now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Drain the queue entirely (bounded by ``max_events``)."""
        fired = 0
        while self._fire_next(math.inf):
            fired += 1
            if fired >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
        return self._now
