"""Million-client fleet dynamics: batched arrivals over the columnar population.

The paper's scale claim is a fleet of millions of phones checking in
against a server; what makes that simulable is keeping the per-*client*
cost out of the event loop.  This driver batches everything that scales
with the population into one vectorized pass per fixed-width tick —
which devices wake, their eligibility rolls, their session durations and
dropout points — and leaves only O(active sessions) scalar events for
the event queue: at most ``demand`` session completions plus one tick
are ever pending, so cost per fired event stays flat from 10k to 1M
devices.

The pieces it composes:

* :class:`~repro.sim.population.ColumnarDevicePopulation` — the fleet's
  struct-of-arrays state (speed, data, bandwidth, payload);
* :class:`~repro.sim.engine.Simulator` — the binary-heap event loop;
  one completion event per admitted session is the load that heap
  holds;
* :class:`~repro.sim.trace.BoundedMetricsTrace` — sampled participation
  records plus exact tallies, so a 1M-client run never holds its full
  trace in RAM.

Devices sleep exponentially-distributed intervals between check-ins;
wakes are bucketed by tick index so each tick pops exactly its arrivals
(no scan over the fleet).  A small ``deep_trace_fraction`` of admitted
sessions additionally materializes its :class:`DeviceProfile` via
``checkout``/``release``, exercising the lazy object path the system
layer uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.population import ColumnarDevicePopulation
from repro.sim.trace import (
    BoundedMetricsTrace,
    MetricsTrace,
    Outcome,
    ParticipationRecord,
)
from repro.utils.backoff import BackoffPolicy
from repro.utils.rng import child_rng

__all__ = ["FleetConfig", "FleetSimulation"]


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the batched fleet driver.

    Attributes
    ----------
    tick_s:
        Arrival-batching granularity; all devices waking within one tick
        are sampled in a single vectorized pass.
    demand:
        Server-side concurrent-session capacity (the paper's
        ``max_concurrency``); eligible arrivals beyond it are turned
        away to retry after a backoff.
    mean_sleep_s:
        Mean of the exponential sleep between a device's check-ins.
    backoff_s:
        Base retry delay for ineligible or turned-away devices (jittered
        ±50 % to avoid synchronized retry storms).
    backoff_policy:
        Backoff shape/jitter as a :class:`~repro.utils.backoff.BackoffPolicy`
        string, with ``backoff_s`` as its base delay.  The default
        (``"fixed,jitter=0.5"``) reproduces the historical jittered
        delays bit-identically.
    epochs:
        Local training epochs per session (scales execution time).
    deep_trace_fraction:
        Fraction of admitted sessions that materialize a full
        :class:`DeviceProfile` via ``checkout`` for the session's
        lifetime.
    """

    tick_s: float = 60.0
    demand: int = 128
    mean_sleep_s: float = 4 * 3600.0
    backoff_s: float = 900.0
    backoff_policy: str = "fixed,jitter=0.5"
    epochs: int = 1
    deep_trace_fraction: float = 0.001

    def __post_init__(self) -> None:
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if self.demand < 0:
            raise ValueError("demand must be non-negative")
        if self.mean_sleep_s <= 0 or self.backoff_s <= 0:
            raise ValueError("sleep/backoff times must be positive")
        try:
            BackoffPolicy.parse(self.backoff_policy, default_base=self.backoff_s)
        except ValueError as exc:
            raise ValueError(f"backoff_policy: {exc}") from None
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not (0.0 <= self.deep_trace_fraction <= 1.0):
            raise ValueError("deep_trace_fraction must be in [0, 1]")


class FleetSimulation:
    """Tick-batched check-in/train/report loop over a columnar fleet."""

    TASK = "fleet"

    def __init__(
        self,
        population: ColumnarDevicePopulation,
        config: FleetConfig | None = None,
        trace: MetricsTrace | None = None,
        seed: int = 0,
        sim: Simulator | None = None,
        observer=None,
    ) -> None:
        self.population = population
        self.config = config or FleetConfig()
        #: optional repro.obs.telemetry.RunTelemetry; None (the default)
        #: keeps the hot loops free of any observation cost.
        self.observer = observer
        self.trace = trace if trace is not None else BoundedMetricsTrace(seed=seed)
        self.sim = sim or Simulator()
        self.rng = child_rng(seed, "fleet")
        self._backoff_policy = BackoffPolicy.parse(
            self.config.backoff_policy, default_base=self.config.backoff_s
        )
        #: tick index -> device ids waking in that tick
        self._buckets: dict[int, list[int]] = {}
        #: index of the next tick that has not fired yet.  Re-bookings
        #: are clamped to it: booking into an already-popped bucket
        #: would silently lose the device forever (it leaks out of the
        #: wake calendar), and at 1M devices thousands of backoff wakes
        #: per day land inside the tick being processed.
        self._next_tick = 0
        #: whether a tick event is currently sitting in the queue (a
        #: re-entrant run() must not start a second tick chain).
        self._tick_pending = False
        self._checked_out: set[int] = set()
        self._horizon = 0.0
        self.in_flight = 0
        self.sessions_started = 0
        self.sessions_completed = 0
        self.turned_away = 0
        self.ineligible = 0
        self._seed_initial_wakes()

    # -- wake bookkeeping -------------------------------------------------------

    def _seed_initial_wakes(self) -> None:
        """Draw every device's first check-in in one vectorized pass."""
        n = self.population.config.n_devices
        wakes = self.rng.exponential(self.config.mean_sleep_s, n)
        self._bucket_bulk(np.arange(n, dtype=np.int64), wakes)

    def _bucket_bulk(self, ids: np.ndarray, wakes: np.ndarray) -> None:
        """Group ``ids`` by wake tick and append each group to its bucket."""
        if len(ids) == 0:
            return
        ticks = (wakes / self.config.tick_s).astype(np.int64)
        np.maximum(ticks, self._next_tick, out=ticks)
        order = np.argsort(ticks, kind="stable")
        ticks, ids = ticks[order], ids[order]
        starts = np.flatnonzero(np.r_[True, ticks[1:] != ticks[:-1]])
        for s, e in zip(starts, np.r_[starts[1:], len(ticks)]):
            self._buckets.setdefault(int(ticks[s]), []).extend(
                ids[s:e].tolist()
            )

    def _bucket_one(self, device_id: int, wake: float) -> None:
        tick = max(int(wake / self.config.tick_s), self._next_tick)
        self._buckets.setdefault(tick, []).append(device_id)

    # -- event handlers ---------------------------------------------------------

    def _on_tick(self) -> None:
        cfg = self.config
        pop = self.population
        now = self.sim.now
        # Explicit tick indexing: float-derived indices (round(now /
        # tick_s)) skip buckets when a resumed chain fires off a tick
        # boundary (banker's rounding maps both 2.5 and 3.5 ticks to an
        # even index).  _next_tick advances before any arrival is
        # processed so re-bookings clamp past this (already-popped)
        # bucket.
        tick = self._next_tick
        self._next_tick = tick + 1
        self._tick_pending = False
        boundary = (tick + 1) * cfg.tick_s
        if boundary <= self._horizon:
            # A chain resumed after an out-of-horizon drain may be
            # catching up on stale buckets; never schedule in the past.
            self.sim.schedule_at(max(boundary, now), self._on_tick)
            self._tick_pending = True
        arrivals = self._buckets.pop(tick, None)
        if arrivals:
            ids = np.asarray(arrivals, dtype=np.int64)
            eligible_mask = pop.eligibility_mask(ids, now, self.rng)
            eligible = ids[eligible_mask]
            ineligible = ids[~eligible_mask]
            self.ineligible += len(ineligible)
            capacity = max(cfg.demand - self.in_flight, 0)
            admitted, rejected = eligible[:capacity], eligible[capacity:]
            self.turned_away += len(rejected)
            if self.observer is not None:
                self.observer.on_fleet_tick(
                    len(admitted), len(rejected), len(ineligible)
                )
            self._backoff(np.concatenate([ineligible, rejected]), now)
            if len(admitted):
                self._start_sessions(admitted, now)

    def _backoff(self, ids: np.ndarray, now: float) -> None:
        """Re-book ids after a policy-shaped backoff (vectorized).

        The default policy's block draw reproduces the historical
        ``backoff_s * (0.5 + random(n))`` wakes bit-identically.
        """
        if len(ids) == 0:
            return
        wakes = now + self._backoff_policy.delay_block(len(ids), self.rng)
        self._bucket_bulk(ids, wakes)

    def _start_sessions(self, ids: np.ndarray, now: float) -> None:
        """Vectorized session setup; one completion event per session."""
        cfg = self.config
        pop = self.population
        exec_times = pop.execution_times(ids, cfg.epochs)
        transfer = pop.transfer_times(ids)
        drop_frac = pop.dropout_fractions(ids, self.rng)
        failed = ~np.isnan(drop_frac)
        durations = transfer + np.where(failed, drop_frac * exec_times, exec_times)
        deep = self.rng.random(len(ids)) < cfg.deep_trace_fraction
        self.in_flight += len(ids)
        self.sessions_started += len(ids)
        n_examples = pop.n_examples[ids]
        for i in range(len(ids)):
            device_id = int(ids[i])
            if deep[i]:
                pop.checkout(device_id)
                self._checked_out.add(device_id)
            self.trace.record_active_delta(now, +1)
            self.sim.schedule(
                float(durations[i]),
                self._make_completion(
                    device_id, now, int(n_examples[i]),
                    float(exec_times[i]), bool(failed[i]),
                ),
            )

    def _make_completion(self, device_id, start, n_examples, exec_time, failed):
        def _complete() -> None:
            self._end_session(device_id, start, n_examples, exec_time, failed)

        return _complete

    def _end_session(
        self, device_id: int, start: float, n_examples: int,
        exec_time: float, failed: bool,
    ) -> None:
        now = self.sim.now
        pop = self.population
        self.in_flight -= 1
        self.sessions_completed += 1
        payload = int(pop.payload_bytes[device_id])
        self.trace.record_download(payload)
        if not failed:
            self.trace.record_upload(payload)
        self.trace.record_participation(
            ParticipationRecord(
                device_id=device_id,
                task=self.TASK,
                start_time=start,
                end_time=now,
                n_examples=n_examples,
                execution_time=exec_time,
                outcome=Outcome.FAILED if failed else Outcome.AGGREGATED,
            )
        )
        self.trace.record_active_delta(now, -1)
        deep = device_id in self._checked_out
        if self.observer is not None:
            self.observer.on_fleet_session_end(device_id, start, now, failed, deep)
        if deep:
            self._checked_out.discard(device_id)
            pop.release(device_id)
        self._bucket_one(
            device_id, now + float(self.rng.exponential(self.config.mean_sleep_s))
        )

    # -- driving ----------------------------------------------------------------

    def run(self, horizon_s: float, max_events: int | None = None) -> float:
        """Run fleet dynamics to ``horizon_s``; returns the final sim time.

        Re-entrant: calling again with a later horizon resumes where the
        previous run stopped (pending sessions and wake buckets are
        preserved), and the tick chain restarts on the next unfired
        tick's boundary — never on a fractional-tick timestamp, and
        never as a second concurrent chain when a previous run (stopped
        early by ``max_events``) left its tick event queued.
        """
        if horizon_s < self.sim.now:
            raise ValueError("horizon is in the past")
        self._horizon = horizon_s
        if not self._tick_pending:
            boundary = self._next_tick * self.config.tick_s
            if boundary <= horizon_s:
                self.sim.schedule_at(max(boundary, self.sim.now), self._on_tick)
                self._tick_pending = True
        return self.sim.run_until(horizon_s, max_events=max_events)
