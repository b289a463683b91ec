"""Wires population, network, and server components into runnable simulations.

:class:`FederatedSimulation` is the top-level entry point of the system
layer: give it task configs with trainer adapters, and it stands up the
PAPAYA deployment (Coordinator, Selectors, Aggregators), drives client
check-ins to keep every task at its target concurrency (the "fast client
replacement" of Section 6.2 — a freed slot triggers a new selection within
the selection latency), runs heartbeats and failure sweeps, and stops at a
time horizon, a target loss, or a server-step budget.

Failure injection (aggregator death, coordinator outage) is exposed as
methods so the recovery behaviour of Appendix E.4 is testable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.types import TaskConfig
from repro.sim.engine import Simulator
from repro.sim.network import NetworkModel
from repro.sim.population import DevicePopulation
from repro.sim.trace import MetricsTrace, Outcome
from repro.system import planes
from repro.system.adapters import TrainerAdapter
from repro.system.aggregator import AggregatorNode, FLTaskRuntime
from repro.system.client_runtime import ClientSession, CohortDispatcher
from repro.system.coordinator import Coordinator
from repro.system.selector import Selector
from repro.utils.backoff import BackoffPolicy, RetryPolicy
from repro.utils.logging import EventLog
from repro.utils.rng import child_rng

__all__ = ["SystemConfig", "TaskStats", "RunResult", "FederatedSimulation"]


@dataclass(frozen=True)
class SystemConfig:
    """Deployment-level knobs of the simulated PAPAYA installation.

    ``min_reparticipation_interval_s`` implements the client runtime's
    participation-history tracking (Section 4): a device that finished a
    participation will not be selected again before the interval elapses,
    which spreads participation fairly across the population instead of
    repeatedly drafting the fastest devices.

    ``cohort_batch_size`` caps how many parked client trainings one
    batched ``train_cohort`` call runs (see
    :mod:`repro.system.client_runtime`).  Every training is parked and
    computed when its upload is processed; the cap changes only how many
    are computed together, never a result, an event or a timestamp, so
    it moves the simulator's wall-clock and nothing else.

    The aggregation plane (single, sharded, secure, secure_sharded or a
    custom one, with its shard count, routing and executor) is not a
    field here: it is the plane factory passed to
    :class:`FederatedSimulation` as ``plane=`` (see
    :mod:`repro.system.planes`).

    ``drain_threads`` is the size of each :class:`AggregatorNode`'s
    queue-draining thread pool — a per-node concurrency knob, unrelated
    to the sharded planes' shard count.

    ``rebalance_queue_threshold_s`` is the aggregation-queue backpressure
    (seconds of backlog on a node's busiest drain thread) above which
    the Coordinator's heartbeat loop moves a task off an overloaded
    node (Section 6.3).

    ``selection_backoff`` / ``checkin_backoff`` / ``placement_retry``
    are the control plane's retry/backoff policies as compact strings
    (see :mod:`repro.utils.backoff`): the pump's per-check-in delay
    (base ``selection_latency_s``), the no-demand/saturated re-pump
    delay (base ``pump_interval_s``), and the Coordinator's task/shard
    re-placement policy.  The defaults reproduce the historical
    hard-coded behaviour bit-identically — same RNG draws, same delays.
    """

    n_aggregators: int = 2
    n_selectors: int = 2
    drain_threads: int = 4
    selection_latency_s: float = 1.0
    update_process_time_s: float = 0.01
    heartbeat_interval_s: float = 10.0
    heartbeat_miss_limit: int = 3
    recovery_period_s: float = 30.0
    failure_detection_s: float = 15.0
    pump_interval_s: float = 5.0
    min_reparticipation_interval_s: float = 0.0
    cohort_batch_size: int = 1
    rebalance_queue_threshold_s: float = 30.0
    selection_backoff: str = "fixed,jitter=0.5"
    checkin_backoff: str = "fixed"
    placement_retry: str = "always"

    def __post_init__(self) -> None:
        if self.n_aggregators < 1 or self.n_selectors < 1:
            raise ValueError("need at least one aggregator and one selector")
        if self.drain_threads < 1:
            raise ValueError("drain_threads must be at least 1")
        if self.selection_latency_s < 0 or self.failure_detection_s < 0:
            raise ValueError("latencies must be non-negative")
        if self.min_reparticipation_interval_s < 0:
            raise ValueError("min_reparticipation_interval_s must be non-negative")
        if self.cohort_batch_size < 1:
            raise ValueError("cohort_batch_size must be at least 1")
        if self.rebalance_queue_threshold_s <= 0:
            raise ValueError("rebalance_queue_threshold_s must be positive")
        # Parse-validate the policy strings now so a bad policy fails at
        # config construction, not mid-run.
        for label, text in (
            ("selection_backoff", self.selection_backoff),
            ("checkin_backoff", self.checkin_backoff),
        ):
            try:
                BackoffPolicy.parse(text)
            except ValueError as exc:
                raise ValueError(f"{label}: {exc}") from None
        try:
            RetryPolicy.parse(self.placement_retry)
        except ValueError as exc:
            raise ValueError(f"placement_retry: {exc}") from None


@dataclass(frozen=True)
class TaskStats:
    """Per-task summary of a finished run."""

    name: str
    server_steps: int
    final_loss: float
    time_to_target: float | None
    comm_trips: int          # client updates received at the server
    downloads: int           # model downloads (wasted ones included)
    aggregated: int
    discarded: int
    failed: int
    timeouts: int
    aborted: int
    mean_staleness: float


@dataclass
class RunResult:
    """Everything a finished simulation exposes to the harness."""

    duration_s: float
    trace: MetricsTrace
    log: EventLog
    task_stats: dict[str, TaskStats] = field(default_factory=dict)
    #: TelemetryReport when the run had telemetry attached, else None
    telemetry: object | None = None

    def stats(self, task: str | None = None) -> TaskStats:
        """Stats for a task (or the only task when unambiguous)."""
        if task is None:
            if len(self.task_stats) != 1:
                raise ValueError("multiple tasks; specify one")
            return next(iter(self.task_stats.values()))
        return self.task_stats[task]

    def sim_digest(self) -> str:
        """sha256 over every simulated statistic of the run.

        Participation records, server-step records and ``TaskStats``: two
        runs with equal digests simulated the same thing, so a change
        meant only to make the simulator faster must not move it.
        """
        h = hashlib.sha256()
        for p in self.trace.participations:
            h.update(repr((p.device_id, p.task, p.start_time, p.end_time, p.n_examples,
                           p.execution_time, p.outcome.value, p.staleness)).encode())
        for s in self.trace.server_steps:
            h.update(repr((s.time, s.task, s.version, s.num_updates,
                           s.mean_staleness, s.loss)).encode())
        for name in sorted(self.task_stats):
            h.update(repr(self.task_stats[name]).encode())
        return h.hexdigest()


class FederatedSimulation:
    """A runnable simulated PAPAYA deployment.

    ``plane`` is the aggregation-plane factory every task runtime is
    built by (default: one :class:`~repro.system.planes.SinglePlane`).
    """

    def __init__(
        self,
        tasks: list[tuple[TaskConfig, TrainerAdapter]],
        population: DevicePopulation,
        network: NetworkModel | None = None,
        system: SystemConfig | None = None,
        plane: planes.PlaneFactory | None = None,
        seed: int = 0,
        target_loss: float | None = None,
    ):
        if not tasks:
            raise ValueError("need at least one task")
        names = [cfg.name for cfg, _ in tasks]
        if len(set(names)) != len(names):
            raise ValueError("task names must be unique")

        self.population = population
        self.network = network or NetworkModel()
        self.system = system or SystemConfig()
        self.plane = plane or planes.SinglePlane()
        self.seed = seed
        self.target_loss = target_loss

        self.sim = Simulator()
        self.trace = MetricsTrace()
        self.log = EventLog()
        self._rng_devices = child_rng(seed, "orchestrator-devices")
        self._rng_routing = child_rng(seed, "orchestrator-routing")
        self._selection_backoff = BackoffPolicy.parse(
            self.system.selection_backoff,
            default_base=self.system.selection_latency_s,
        )
        self._checkin_backoff = BackoffPolicy.parse(
            self.system.checkin_backoff, default_base=self.system.pump_interval_s
        )
        # Set by a FaultInjector (repro.sim.faults) when a FaultSpec has
        # events; None on the default path, which therefore never pays
        # for fault interception.
        self.fault_injector = None
        # Set by repro.obs.telemetry.RunTelemetry.attach when the spec
        # enables telemetry; None on the default path, so telemetry-off
        # runs pay one attribute load per emission point and nothing
        # else.
        self.telemetry = None

        self.aggregators = [
            AggregatorNode(
                i,
                self.sim,
                self.log,
                drain_threads=self.system.drain_threads,
                update_process_time_s=self.system.update_process_time_s,
            )
            for i in range(self.system.n_aggregators)
        ]
        self.coordinator = Coordinator(
            self.sim,
            self.log,
            child_rng(seed, "coordinator"),
            heartbeat_interval_s=self.system.heartbeat_interval_s,
            heartbeat_miss_limit=self.system.heartbeat_miss_limit,
            recovery_period_s=self.system.recovery_period_s,
            placement_retry=RetryPolicy.parse(
                self.system.placement_retry,
                default_base=self.system.heartbeat_interval_s,
            ),
        )
        for node in self.aggregators:
            self.coordinator.register_aggregator(node)

        self.task_runtimes: dict[str, FLTaskRuntime] = {}
        for cfg, adapter in tasks:
            rt: FLTaskRuntime = self.plane.build(
                planes.PlaneContext(
                    config=cfg, adapter=adapter, sim=self.sim,
                    trace=self.trace, log=self.log, on_slot_free=self._pump,
                    cohort=CohortDispatcher(
                        adapter, max_cohort=self.system.cohort_batch_size
                    ),
                )
            )
            self.task_runtimes[cfg.name] = rt
            self.coordinator.register_task(rt)

        self.selectors = [
            Selector(i, self.sim, self.coordinator, self.log)
            for i in range(self.system.n_selectors)
        ]

        self._active_devices: set[int] = set()
        self._participation_count: dict[int, int] = {}
        self._checkin_count: dict[int, int] = {}
        self._last_participation_end: dict[int, float] = {}
        self._outstanding_checkins = 0
        self._started = False

    # -- client supply: fast replacement ------------------------------------------

    def _total_demand(self) -> int:
        return sum(rt.demand() for rt in self.task_runtimes.values())

    def _pump(self) -> None:
        """Keep enough check-ins in flight to satisfy current demand.

        Every freed slot (completion, failure, abort, round close) calls
        this, which is exactly the paper's replacement mechanism: "as soon
        as one client completes training or fails, a new one is selected."
        """
        needed = self._total_demand() - self._outstanding_checkins
        for _ in range(max(0, needed)):
            self._outstanding_checkins += 1
            self.sim.schedule(
                self._selection_backoff.delay(self._rng_routing), self._checkin
            )

    def _sample_device(self) -> int | None:
        """Pick a random not-currently-active device id."""
        n = self.population.config.n_devices
        for _ in range(8):
            device_id = int(self._rng_devices.integers(n))
            if device_id not in self._active_devices:
                return device_id
        return None  # population saturated

    def _checkin(self) -> None:
        """One device checks in with a Selector (Section 6.1 selection)."""
        self._outstanding_checkins -= 1
        tel = self.telemetry
        device_id = self._sample_device()
        if device_id is None:
            if tel is not None:
                tel.on_checkin("saturated")
            self.sim.schedule(
                self._checkin_backoff.delay(self._rng_routing), self._pump
            )
            return
        count = self._checkin_count.get(device_id, 0)
        self._checkin_count[device_id] = count + 1
        cooldown = self.system.min_reparticipation_interval_s
        if cooldown > 0:
            last_end = self._last_participation_end.get(device_id)
            if last_end is not None and self.sim.now - last_end < cooldown:
                # Participation history says: too soon for this device.
                if tel is not None:
                    tel.on_checkin("cooldown")
                self._pump()
                return
        if not self.population.is_eligible(device_id, count, time_s=self.sim.now):
            # Device not idle/charging/unmetered right now; it will try
            # again later — meanwhile keep the supply topped up.
            if tel is not None:
                tel.on_checkin("ineligible")
            self._pump()
            return
        if self.fault_injector is not None and not self.fault_injector.allow_checkin(
            device_id
        ):
            # Inside an injected blackout/availability-wave window: the
            # device never reaches a selector.
            if tel is not None:
                tel.on_checkin("fault_blocked")
            self._pump()
            return
        selector = self.selectors[
            int(self._rng_routing.integers(len(self.selectors)))
        ]
        task_rt, extra_latency = selector.route_checkin()
        if task_rt is None:
            # No demand anywhere (or coordinator down): back off.
            if tel is not None:
                tel.on_checkin("no_demand")
            self.sim.schedule(
                self._checkin_backoff.delay(self._rng_routing), self._pump
            )
            return
        if tel is not None:
            tel.on_checkin("assigned")

        # checkout/release scope the profile object to the session: a no-op
        # for the cached object population, the lazy-materialization path
        # for the columnar fleet.
        profile = self.population.checkout(device_id)
        participation = self._participation_count.get(device_id, 0)
        self._participation_count[device_id] = participation + 1
        self._active_devices.add(device_id)
        session = ClientSession(
            profile=profile,
            task_rt=task_rt,
            sim=self.sim,
            network=self.network,
            population=self.population,
            trace=self.trace,
            participation=participation,
            failure_detection_s=self.system.failure_detection_s,
            on_end=lambda s, rt=task_rt: self._session_ended(rt, s),
        )
        if extra_latency > 0:
            self.sim.schedule(extra_latency, lambda: task_rt.attach_session(session))
        else:
            task_rt.attach_session(session)

    def _session_ended(self, task_rt: FLTaskRuntime, session: ClientSession) -> None:
        self._active_devices.discard(session.device_id)
        self._last_participation_end[session.device_id] = self.sim.now
        self.population.release(session.device_id)
        task_rt.session_ended(session)

    # -- control plane loops ------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        for node in self.aggregators:
            if node.alive:
                self.coordinator.on_heartbeat(node, node.demand_report())
        for selector in self.selectors:
            selector.refresh_map()
        self.coordinator.sweep_failures()
        self.coordinator.rebalance_overloaded(
            queue_threshold_s=self.system.rebalance_queue_threshold_s
        )
        if self.telemetry is not None:
            self.telemetry.on_heartbeat(self)
        self.sim.schedule(self.system.heartbeat_interval_s, self._heartbeat_loop)

    def _pump_loop(self) -> None:
        self._pump()
        self.sim.schedule(self.system.pump_interval_s, self._pump_loop)

    # -- run ------------------------------------------------------------

    def run(
        self,
        t_end: float,
        target_loss: float | None = None,
        max_server_steps: int | None = None,
        max_events: int | None = None,
    ) -> RunResult:
        """Execute the simulation.

        Parameters
        ----------
        t_end:
            Simulated-time horizon in seconds.
        target_loss:
            Stop as soon as *every* task's last step loss is at or below
            this (overrides the constructor's value when given).
        max_server_steps:
            Stop when any task reaches this many server steps.
        max_events:
            Hard event budget (safety valve).
        """
        target = target_loss if target_loss is not None else self.target_loss
        if not self._started:
            self._started = True
            self._heartbeat_loop()
            self._pump_loop()

        names = list(self.task_runtimes)

        def stop() -> bool:
            if target is not None and self.trace.last_loss and all(
                self.trace.last_loss.get(n, float("inf")) <= target for n in names
            ):
                return True
            if max_server_steps is not None and any(
                self.trace.step_counts.get(n, 0) >= max_server_steps for n in names
            ):
                return True
            return False

        # Without a target or a step budget nothing can stop the run
        # early, so the engine is spared a predicate call per event.
        early = target is not None or max_server_steps is not None
        end = self.sim.run_until(
            t_end, stop=stop if early else None, max_events=max_events
        )
        return self._build_result(end, target)

    def _build_result(self, end: float, target: float | None) -> RunResult:
        result = RunResult(duration_s=end, trace=self.trace, log=self.log)
        for name, rt in self.task_runtimes.items():
            parts = [p for p in self.trace.participations if p.task == name]
            outcomes = {o: 0 for o in Outcome}
            for p in parts:
                outcomes[p.outcome] += 1
            stales = [
                p.staleness for p in parts if p.outcome is Outcome.AGGREGATED
            ]
            result.task_stats[name] = TaskStats(
                name=name,
                server_steps=self.trace.step_counts.get(name, 0),
                final_loss=self.trace.last_loss.get(name, float("inf")),
                time_to_target=(
                    self.trace.time_to_loss(target, name) if target is not None else None
                ),
                comm_trips=outcomes[Outcome.AGGREGATED] + outcomes[Outcome.DISCARDED],
                downloads=len(parts),
                aggregated=outcomes[Outcome.AGGREGATED],
                discarded=outcomes[Outcome.DISCARDED],
                failed=outcomes[Outcome.FAILED],
                timeouts=outcomes[Outcome.TIMEOUT],
                aborted=outcomes[Outcome.ABORTED],
                mean_staleness=float(np.mean(stales)) if stales else 0.0,
            )
        if self.telemetry is not None:
            result.telemetry = self.telemetry.finalize(result)
        return result
