"""Deterministic fault injection for simulated PAPAYA deployments.

PAPAYA's production claim is that async FL stays correct under constant
device churn, stragglers, and infrastructure failure.  This module makes
adverse conditions first-class *configuration*: a :class:`FaultInjector`
schedules declarative fault events on the simulation engine, seeded from
its own RNG stream so the same spec + seed + schedule replays
bit-identically — and a run with no fault events constructs nothing and
perturbs nothing (the byte-identity contract of the default path).

Fault kinds (the :data:`FAULT_KINDS` table is the single source of
truth; ``repro.api.FaultSpec`` validates against it):

========================  ====================================================
``aggregator_crash``      kill aggregator ``node`` (optional recovery)
``aggregator_flap``       repeated crash/recover cycles on one node
``coordinator_outage``    coordinator down for ``duration_s``
``dropout_storm``         kill a seeded fraction of active sessions per tick
``straggler_tier``        slow a stable device subset's network by ``factor``
``network_delay``         slow every transfer by ``factor`` for a window
``network_loss``          drop a seeded fraction of uploads in a window
``blackout``              a fraction of check-ins rejected for a window
``availability_wave``     diurnal sinusoidal check-in rejection
``flash_crowd``           bursts of extra device check-ins
``worker_kill``           terminate a shard worker process mid-epoch
========================  ====================================================

Interception hooks are installed lazily, only for the kinds actually
scheduled: the network proxy only exists when a delay/straggler window
was declared, the upload gate only for loss windows, the check-in gate
only for blackout/wave windows.  The ``Deployment`` façade constructs an
injector only for a non-empty schedule, so a spec without fault events
changes no behaviour at all.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.sim.trace import Outcome
from repro.utils.rng import child_rng, stable_hash64

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.orchestrator import FederatedSimulation, RunResult

__all__ = [
    "FAULT_KINDS",
    "FaultKind",
    "FaultParamError",
    "FaultInjector",
    "validate_fault_params",
    "event_end_s",
    "recovery_report",
]


class FaultParamError(ValueError):
    """A fault event parameter failed validation (carries the param name)."""

    def __init__(self, param: str, message: str):
        super().__init__(f"{param}: {message}")
        self.param = param
        self.message = message


# The value vocabulary of fault params and ScenarioSpec fields alike: each
# check returns the normalized value or raises ValueError(message).  Numbers
# never accept bool or str; integers accept integral floats (numpy scalars
# included); booleans accept only bool.


def _integer(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError("must be an integer")
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValueError("must be an integer")
    return int(value)


def _int_ge(n: int) -> Callable[[Any], int]:
    def check(value: Any) -> int:
        value = _integer(value)
        if value < n:
            raise ValueError(f"must be >= {n}")
        return value

    return check


def _number(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def _float_pos(value: Any) -> float:
    value = _number(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError("must be a positive number")
    return value


def _fraction(value: Any) -> float:
    value = _number(value)
    if not (0.0 < value <= 1.0):
        raise ValueError("must be in (0, 1]")
    return value


def _string(value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError("must be a non-empty string")
    return value


def _boolean(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _optional(check: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``check``, except that ``None`` passes through unchanged."""
    return lambda value: None if value is None else check(value)


@dataclass(frozen=True)
class FaultKind:
    """Schema of one fault kind: required/optional params and validators."""

    name: str
    summary: str
    validators: Mapping[str, Callable[[Any], Any]]
    required: tuple[str, ...]
    defaults: Mapping[str, Any] = field(default_factory=dict)


FAULT_KINDS: dict[str, FaultKind] = {
    k.name: k
    for k in (
        FaultKind(
            "aggregator_crash",
            "kill aggregator `node` at `at_s`; recover after `recover_after_s`",
            {"node": _int_ge(0), "recover_after_s": _float_pos},
            required=("node",),
        ),
        FaultKind(
            "aggregator_flap",
            "`count` crash/recover cycles of `down_s`/`up_s` on `node`",
            {"node": _int_ge(0), "count": _int_ge(1),
             "down_s": _float_pos, "up_s": _float_pos},
            required=("node", "count", "down_s", "up_s"),
        ),
        FaultKind(
            "coordinator_outage",
            "coordinator down for `duration_s` (then leader election + recovery period)",
            {"duration_s": _float_pos},
            required=("duration_s",),
        ),
        FaultKind(
            "dropout_storm",
            "kill a seeded `fraction` of active sessions every `interval_s` "
            "for `duration_s`",
            {"fraction": _fraction, "duration_s": _float_pos,
             "interval_s": _float_pos},
            required=("fraction",),
            defaults={"duration_s": 0.0, "interval_s": 60.0},
        ),
        FaultKind(
            "straggler_tier",
            "a stable hashed `fraction` of devices gets `factor`x slower "
            "transfers for `duration_s`",
            {"factor": _float_pos, "fraction": _fraction, "duration_s": _float_pos},
            required=("factor", "fraction", "duration_s"),
        ),
        FaultKind(
            "network_delay",
            "every transfer `factor`x slower for `duration_s`",
            {"factor": _float_pos, "duration_s": _float_pos},
            required=("factor", "duration_s"),
        ),
        FaultKind(
            "network_loss",
            "a seeded `rate` of arriving uploads dropped for `duration_s`",
            {"rate": _fraction, "duration_s": _float_pos},
            required=("rate", "duration_s"),
        ),
        FaultKind(
            "blackout",
            "a seeded `fraction` of check-ins rejected for `duration_s`",
            {"fraction": _fraction, "duration_s": _float_pos},
            required=("fraction", "duration_s"),
        ),
        FaultKind(
            "availability_wave",
            "sinusoidal check-in rejection: peak `amplitude`, `period_s`, "
            "for `duration_s` (diurnal availability)",
            {"amplitude": _fraction, "period_s": _float_pos,
             "duration_s": _float_pos},
            required=("amplitude", "period_s", "duration_s"),
        ),
        FaultKind(
            "flash_crowd",
            "`burst` extra device check-ins every `interval_s` for `duration_s`",
            {"burst": _int_ge(1), "duration_s": _float_pos,
             "interval_s": _float_pos},
            required=("burst",),
            defaults={"duration_s": 0.0, "interval_s": 60.0},
        ),
        FaultKind(
            "worker_kill",
            "terminate the process-executor worker of `task`'s shard `shard`",
            {"task": _string, "shard": _int_ge(0)},
            required=("task", "shard"),
        ),
    )
}


def validate_fault_params(
    kind: str, params: Mapping[str, Any], fill_defaults: bool = False
) -> dict[str, Any]:
    """Validate + normalize one event's params against :data:`FAULT_KINDS`.

    Raises :class:`FaultParamError` naming the offending parameter.  With
    ``fill_defaults`` the optional params' defaults are merged in (the
    injector wants complete params; the spec layer stores only what the
    user wrote so round-tripped JSON stays minimal).
    """
    if kind not in FAULT_KINDS:
        raise FaultParamError(
            "kind", f"unknown fault kind {kind!r}; known: {', '.join(sorted(FAULT_KINDS))}"
        )
    schema = FAULT_KINDS[kind]
    out: dict[str, Any] = {}
    for name, value in params.items():
        if name not in schema.validators:
            raise FaultParamError(
                name,
                f"unknown parameter for {kind}; "
                f"accepts: {', '.join(sorted(schema.validators))}",
            )
        try:
            out[name] = schema.validators[name](value)
        except (TypeError, ValueError) as exc:
            raise FaultParamError(name, str(exc)) from None
    for name in schema.required:
        if name not in out:
            raise FaultParamError(name, f"required by {kind}")
    if fill_defaults:
        for name, value in schema.defaults.items():
            out.setdefault(name, value)
    return out


def event_end_s(kind: str, at_s: float, params: Mapping[str, Any]) -> float:
    """When the fault window of one event closes (recovery-time anchor)."""
    p = validate_fault_params(kind, params, fill_defaults=True)
    if kind == "aggregator_crash":
        return at_s + p.get("recover_after_s", 0.0)
    if kind == "aggregator_flap":
        return at_s + p["count"] * (p["down_s"] + p["up_s"])
    if kind in ("dropout_storm", "flash_crowd"):
        return at_s + p["duration_s"]
    return at_s + p.get("duration_s", 0.0)


# ---------------------------------------------------------------------------
# Interception proxies
# ---------------------------------------------------------------------------

class _FaultedNetworkModel:
    """Wraps a :class:`~repro.sim.network.NetworkModel`, stretching
    transfer times by the injector's active delay/straggler windows."""

    def __init__(self, base, injector: "FaultInjector"):
        self._base = base
        self._injector = injector

    def download_time(self, profile, nbytes: int) -> float:
        return self._base.download_time(profile, nbytes) * self._injector.network_factor(
            profile.device_id
        )

    def upload_time(self, profile, nbytes: int) -> float:
        return self._base.upload_time(profile, nbytes) * self._injector.network_factor(
            profile.device_id
        )

    def roundtrip(self) -> float:
        # No device in scope: only global (fraction == 1) windows apply.
        return self._base.roundtrip() * self._injector.network_factor(None)

    def __getattr__(self, name: str):
        return getattr(self._base, name)


# ---------------------------------------------------------------------------
# The injector
# ---------------------------------------------------------------------------

class FaultInjector:
    """Schedules declarative fault events on a built simulation.

    One injector per :class:`FederatedSimulation`; ``Deployment.build``
    creates it when the spec's ``FaultSpec`` has events, seeding its
    private RNG stream (``child_rng(seed, "fault-injector")``) so fault
    rolls never perturb the orchestrator's streams.
    """

    def __init__(self, fedsim: "FederatedSimulation", seed: int = 0):
        self.fedsim = fedsim
        self.sim = fedsim.sim
        self.log = fedsim.log
        self.rng = child_rng(seed, "fault-injector")
        self.fired: list[tuple[float, str]] = []
        self.uploads_lost = 0
        self.checkins_blocked = 0
        self.last_fault_end_s = 0.0
        # (start, end, factor, fraction, salt); fraction 1.0 = global
        self._delay_windows: list[tuple[float, float, float, float, int]] = []
        self._loss_windows: list[tuple[float, float, float]] = []
        # ("blackout", start, end, fraction) | ("wave", start, end, amp, period)
        self._gate_windows: list[tuple] = []
        self._network_wrapped = False
        self._upload_gated = False
        self._n_events = 0
        fedsim.fault_injector = self

    # -- scheduling ------------------------------------------------------------

    def schedule(self, kind: str, at_s: float, **params: Any) -> None:
        """Validate one fault event and put its actions on the calendar."""
        at_s = float(at_s)
        if not (math.isfinite(at_s) and at_s >= 0):
            raise FaultParamError("at_s", "must be a finite time >= 0")
        p = validate_fault_params(kind, params, fill_defaults=True)
        self._check_targets(kind, p)
        self.last_fault_end_s = max(self.last_fault_end_s, event_end_s(kind, at_s, p))
        self._n_events += 1
        salt = self._n_events

        if kind == "aggregator_crash":
            node = self.fedsim.aggregators[p["node"]]
            self.sim.schedule_at(at_s, lambda: self._crash(node))
            if "recover_after_s" in p:
                end = at_s + p["recover_after_s"]
                self.sim.schedule_at(end, lambda: self._recover(node))
        elif kind == "aggregator_flap":
            node = self.fedsim.aggregators[p["node"]]
            cycle = p["down_s"] + p["up_s"]
            for i in range(p["count"]):
                down_at = at_s + i * cycle
                self.sim.schedule_at(down_at, lambda: self._crash(node))
                self.sim.schedule_at(down_at + p["down_s"], lambda: self._recover(node))
        elif kind == "coordinator_outage":
            self.sim.schedule_at(at_s, self._coordinator_down)
            self.sim.schedule_at(at_s + p["duration_s"], self._coordinator_up)
        elif kind == "dropout_storm":
            t = at_s
            while t <= at_s + p["duration_s"]:
                self.sim.schedule_at(
                    t, lambda f=p["fraction"]: self._storm_tick(f)
                )
                t += p["interval_s"]
        elif kind in ("network_delay", "straggler_tier"):
            fraction = p.get("fraction", 1.0)
            self._delay_windows.append(
                (at_s, at_s + p["duration_s"], p["factor"], fraction, salt)
            )
            self._wrap_network()
        elif kind == "network_loss":
            self._loss_windows.append((at_s, at_s + p["duration_s"], p["rate"]))
            self._gate_uploads()
        elif kind == "blackout":
            self._gate_windows.append(
                ("blackout", at_s, at_s + p["duration_s"], p["fraction"])
            )
        elif kind == "availability_wave":
            self._gate_windows.append(
                ("wave", at_s, at_s + p["duration_s"], p["amplitude"], p["period_s"])
            )
        elif kind == "flash_crowd":
            t = at_s
            while t <= at_s + p["duration_s"]:
                self.sim.schedule_at(t, lambda b=p["burst"]: self._flash_tick(b))
                t += p["interval_s"]
        elif kind == "worker_kill":
            self.sim.schedule_at(
                at_s, lambda: self._kill_worker(p["task"], p["shard"])
            )

        if kind in ("network_delay", "straggler_tier", "network_loss",
                    "blackout", "availability_wave"):
            # Window faults act passively through their interception
            # hooks; note the window opening so the schedule is visible
            # in the event log (and in ``fired``) like every other kind.
            end = at_s + p["duration_s"]
            self.sim.schedule_at(at_s, lambda k=kind, e=end: self._note(k, until_s=e))

    def _check_targets(self, kind: str, p: Mapping[str, Any]) -> None:
        """Validate node/task/shard references against the live deployment."""
        if "node" in p and p["node"] >= len(self.fedsim.aggregators):
            raise FaultParamError(
                "node",
                f"no such aggregator (deployment has {len(self.fedsim.aggregators)})",
            )
        if "task" in p and p["task"] not in self.fedsim.task_runtimes:
            raise FaultParamError(
                "task",
                f"no such task; deployment has: "
                f"{', '.join(sorted(self.fedsim.task_runtimes))}",
            )

    # -- event actions ------------------------------------------------------------

    def _note(self, kind: str, **detail: Any) -> None:
        self.fired.append((self.sim.now, kind))
        self.log.emit(self.sim.now, "faults", f"fault_{kind}", **detail)

    def _crash(self, node) -> None:
        if node.alive:
            node.fail()
            self._note("aggregator_crash", node=node.node_id)

    def _recover(self, node) -> None:
        if not node.alive:
            node.recover()
            self._note("aggregator_recover", node=node.node_id)

    def _coordinator_down(self) -> None:
        self.fedsim.coordinator.fail()
        self._note("coordinator_outage")

    def _coordinator_up(self) -> None:
        self.fedsim.coordinator.recover()
        self._note("coordinator_recover")

    def _storm_tick(self, fraction: float) -> None:
        """Kill a seeded fraction of active sessions across every task."""
        killed = 0
        for name in sorted(self.fedsim.task_runtimes):
            rt = self.fedsim.task_runtimes[name]
            for device_id in sorted(rt.sessions):
                session = rt.sessions.get(device_id)
                if session is None or session.finished:
                    continue
                if float(self.rng.random()) < fraction:
                    rt.core.client_failed(device_id)
                    session.abort(Outcome.FAILED)
                    killed += 1
        self._note("dropout_storm", killed=killed)

    def _flash_tick(self, burst: int) -> None:
        """A crowd of extra devices checks in over the selection latency."""
        fedsim = self.fedsim
        for _ in range(burst):
            fedsim._outstanding_checkins += 1
            delay = fedsim.system.selection_latency_s * float(
                self.rng.uniform(0.5, 1.5)
            )
            self.sim.schedule(delay, fedsim._checkin)
        self._note("flash_crowd", burst=burst)

    def _kill_worker(self, task: str, shard: int) -> None:
        """Terminate one shard worker; the dispatch-log replay fallback
        fires at the core's next barrier (bit-identical recovery)."""
        core = self.fedsim.task_runtimes[task].core
        kill = getattr(core, "kill_worker", None)
        if kill is None:
            self._note("worker_kill_noop", task=task, shard=shard,
                       reason="no process executor")
            return
        killed = kill(shard)
        self._note("worker_kill", task=task, shard=shard, killed=killed)

    # -- interception ------------------------------------------------------------

    def _wrap_network(self) -> None:
        if not self._network_wrapped:
            self._network_wrapped = True
            self.fedsim.network = _FaultedNetworkModel(self.fedsim.network, self)

    def _gate_uploads(self) -> None:
        if not self._upload_gated:
            self._upload_gated = True
            for rt in self.fedsim.task_runtimes.values():
                rt.fault_gate = self

    def network_factor(self, device_id: int | None) -> float:
        """Multiplier on transfer times from the active delay windows."""
        now = self.sim.now
        factor = 1.0
        for start, end, f, fraction, salt in self._delay_windows:
            if start <= now < end:
                if fraction >= 1.0:
                    factor *= f
                elif device_id is not None and self._member(device_id, fraction, salt):
                    factor *= f
        return factor

    def _member(self, device_id: int, fraction: float, salt: int) -> bool:
        """Stable per-window device membership (same devices every time)."""
        return (stable_hash64("straggler", salt, device_id) % (1 << 32)) < (
            fraction * (1 << 32)
        )

    def intercept_upload(self, task_rt, session) -> bool:
        """Drop an arriving upload when inside an active loss window.

        Installed (as ``task_rt.fault_gate``) only when a ``network_loss``
        event was scheduled.  Mirrors the dead-node upload path: the core
        forgets the client, the session aborts.
        """
        now = self.sim.now
        for start, end, rate in self._loss_windows:
            if start <= now < end and float(self.rng.random()) < rate:
                self.uploads_lost += 1
                self.log.emit(
                    now, "faults", "upload_lost",
                    task=task_rt.config.name, device=session.device_id,
                )
                task_rt.core.client_failed(session.device_id)
                session.abort(Outcome.ABORTED)
                return True
        return False

    def allow_checkin(self, device_id: int) -> bool:
        """Check-in gate for blackout / availability-wave windows.

        Returns True (and draws nothing) outside every window, so an
        injector without gate events never perturbs the run.
        """
        now = self.sim.now
        for window in self._gate_windows:
            if window[0] == "blackout":
                _, start, end, fraction = window
                p = fraction if start <= now < end else 0.0
            else:
                _, start, end, amplitude, period = window
                if start <= now < end:
                    phase = 2.0 * math.pi * (now - start) / period
                    p = amplitude * 0.5 * (1.0 - math.cos(phase))
                else:
                    p = 0.0
            if p > 0.0 and float(self.rng.random()) < p:
                self.checkins_blocked += 1
                return False
        return True


# ---------------------------------------------------------------------------
# Recovery-invariant accounting
# ---------------------------------------------------------------------------

def recovery_report(fedsim: "FederatedSimulation", result: "RunResult") -> dict[str, Any]:
    """Audit a finished run against the recovery invariants.

    * **Device conservation** — the orchestrator's active-device set is
      exactly the union of the runtimes' live sessions, every live
      session is unfinished, and the outstanding check-in counter never
      went negative.
    * **Update conservation** (async tasks) — every admitted update
      (``aggregated + discarded`` outcomes) is either in a server step,
      explicitly lost to a shard failover (``shard_failed`` events), or
      still buffered: nothing vanishes and nothing double-counts.
    """
    session_devices: set[int] = set()
    live_sessions_ok = True
    for rt in fedsim.task_runtimes.values():
        for device_id, session in rt.sessions.items():
            session_devices.add(device_id)
            if session.finished:
                live_sessions_ok = False
    device_conservation_ok = (
        set(fedsim._active_devices) == session_devices
        and live_sessions_ok
        and fedsim._outstanding_checkins >= 0
    )

    from repro.core.types import TrainingMode

    tasks: dict[str, dict[str, int]] = {}
    updates_ok = True
    for name, rt in fedsim.task_runtimes.items():
        if rt.config.mode is not TrainingMode.ASYNC:
            continue  # sync discards round stragglers without buffering them
        stats = result.task_stats[name]
        admitted = stats.aggregated + stats.discarded
        stepped = sum(
            s.num_updates for s in result.trace.server_steps if s.task == name
        )
        component = f"task:{name}"
        lost = sum(
            r.detail.get("lost_buffered", 0)
            for r in result.log.of_kind("shard_failed")
            if r.component == component
        )
        buffered = rt.core.buffered_count
        unaccounted = admitted - stepped - lost - buffered
        tasks[name] = {
            "admitted": admitted,
            "stepped": stepped,
            "lost_buffered": lost,
            "buffered_now": buffered,
            "unaccounted": unaccounted,
        }
        if unaccounted != 0:
            updates_ok = False

    return {
        "device_conservation_ok": device_conservation_ok,
        "updates_conservation_ok": updates_ok,
        "active_devices": len(fedsim._active_devices),
        "outstanding_checkins": fedsim._outstanding_checkins,
        "tasks": tasks,
    }
