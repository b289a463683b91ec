"""Outside-in tracing of one built deployment, layer by layer.

Nothing in ``src/`` knows about this file.  :func:`install` wraps
callables of a built :class:`FederatedSimulation` (and a few classes and
module functions whose instances are created mid-run) in spans;
:meth:`Tracer.restore` puts every original back.  A span stack gives
each span its *self* time — its duration minus the spans it called — so
the layer times add up to the traced ``run_s`` instead of overlapping.

Spans are aggregated per ``(layer, name)`` as they close: a fleet rep
closes a few million of them and keeping each would cost more than the
run being measured.

``Simulator.schedule_at`` is wrapped so that every scheduled callback
becomes a span of the layer whose module defined it; what is left of
``run_until`` is then the engine's own pop/dispatch loop.
"""

from __future__ import annotations

import sys
import time

__all__ = ["Tracer", "install", "layer_metrics"]


class Tracer:
    """Span stack + per-(layer, name) aggregates + undo log of patches."""

    def __init__(self) -> None:
        #: (layer, name) -> [calls, self seconds]
        self.spans: dict[tuple[str, str], list] = {}
        self._stack: list[float] = []  # child seconds of each open span
        self._undo: list[tuple[object, str, bool, object]] = []

    # -- spans ----------------------------------------------------------------

    def span(self, layer: str, name: str, fn, before=None):
        """``fn`` wrapped in a span; ``before(*args)`` runs first if given."""
        acc = self.spans.setdefault((layer, name), [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                acc[0] += 1
                acc[1] += dur - stack.pop()
                if stack:
                    stack[-1] += dur

        def tallied(*args, **kwargs):
            before(*args, **kwargs)
            return traced(*args, **kwargs)

        wrapper = traced if before is None else tallied
        wrapper.e2e_span = True
        return wrapper

    def calls(self, layer: str, *names: str) -> int:
        """Spans closed in ``layer`` (all of it, or just ``names``)."""
        return sum(
            acc[0] for (lyr, name), acc in self.spans.items()
            if lyr == layer and (not names or name in names)
        )

    def self_s(self, layer: str, *names: str) -> float:
        """Self seconds of ``layer`` (all of it, or just ``names``)."""
        return sum(
            acc[1] for (lyr, name), acc in self.spans.items()
            if lyr == layer and (not names or name in names)
        )

    def layer_totals(self) -> dict[str, float]:
        """Self seconds per layer."""
        out: dict[str, float] = {}
        for (layer, _), acc in self.spans.items():
            out[layer] = out.get(layer, 0.0) + acc[1]
        return out

    # -- patching ---------------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, name: str | None = None,
              before=None) -> None:
        """Replace ``owner.attr`` (instance, class or module) with a span."""
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        traced = self.span(layer, name or attr, getattr(owner, attr), before)
        if isinstance(own.get(attr), (classmethod, staticmethod)):
            traced = staticmethod(traced)  # getattr above already bound it
        setattr(owner, attr, traced)

    def patch_function(self, fn, layer: str, name: str) -> None:
        """Replace a module-level function in every repro module that
        bound it (``from x import fn`` copies the reference)."""
        traced = self.span(layer, name, fn)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, True, fn))
                    setattr(module, attr, traced)

    def patch_schedule(self, engine) -> None:
        """Span ``engine.schedule_at`` and turn each action into a span.

        This runs once per simulated event, so the action span is written
        out for zero-argument callbacks instead of going through
        :meth:`span`: what the wrapper costs is charged to the engine.
        """
        inner = engine.schedule_at
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def schedule_at(when, action):
            if getattr(action, "e2e_span", False):
                return inner(when, action)
            fn = getattr(action, "__func__", action)
            key = (fn.__module__.removeprefix("repro."), fn.__name__)
            acc = spans.get(key)
            if acc is None:
                acc = spans[key] = [0, 0.0]

            def fire():
                stack.append(0.0)
                t0 = clock()
                try:
                    action()
                finally:
                    dur = clock() - t0
                    acc[0] += 1
                    acc[1] += dur - stack.pop()
                    if stack:
                        stack[-1] += dur

            return inner(when, fire)

        self._undo.append((engine, "schedule_at", False, None))
        engine.schedule_at = self.span("sim.engine", "schedule_at", schedule_at)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _patch_all(tracer: Tracer, owner, layer: str, *attrs: str, name=None) -> None:
    for attr in attrs:
        if hasattr(owner, attr):
            tracer.patch(owner, attr, layer, name)


def install(tracer: Tracer, sim) -> dict:
    """Wrap the layers of a built ``FederatedSimulation``.

    Returns the mutable tallies that plain call counts cannot give.
    """
    from repro.secagg.dh import DHKeyPair, shared_key
    from repro.secagg.prng import expand_mask, expand_mask_block
    from repro.sim.network import NetworkModel
    from repro.system.client_runtime import ClientSession
    from repro.system.secure import SecureBufferedAggregator
    from repro.utils.rng import child_rng

    tallies = {"queue_wait_s": 0.0, "scheduled_before": sim.sim.pending}
    engine = sim.sim
    tracer.patch(engine, "run_until", "sim.engine")
    tracer.patch_schedule(engine)
    tracer.patch_function(child_rng, "utils.rng", "child_rng")

    _patch_all(tracer, sim.population, "sim.population",
               "is_eligible", "checkout", "release", "dropout_point", "profile")
    # NetworkModel is frozen and the fault proxy forwards to it, so the
    # class is the one place every transfer-time call passes through.
    _patch_all(tracer, NetworkModel, "sim.network",
               "download_time", "upload_time", "roundtrip")
    _patch_all(tracer, sim.trace, "sim.trace",
               "record_participation", "record_server_step", "record_active_delta",
               "record_download", "record_upload")
    if sim.fault_injector is not None:
        # The scheduled fault lambdas look these up on the instance when
        # they fire, so wrapping after build() still catches them.
        _patch_all(tracer, sim.fault_injector, "sim.faults",
                   "network_factor", "allow_checkin", "intercept_upload",
                   "_storm_tick", "_flash_tick", "_crash", "_recover", "_note",
                   "_coordinator_down", "_coordinator_up", "_kill_worker")

    _patch_all(tracer, sim, "system.orchestrator", "_session_ended", "_build_result")
    _patch_all(tracer, sim.coordinator, "system.coordinator",
               "assign_client", "on_heartbeat", "sweep_failures", "rebalance_overloaded")
    for selector in sim.selectors:
        _patch_all(tracer, selector, "system.coordinator", "route_checkin", "refresh_map")
    # Sessions are created per check-in, so their entry points from other
    # layers are wrapped on the class.
    _patch_all(tracer, ClientSession, "system.client_runtime", "begin", "abort", "complete")

    # Simulated time an update spends in a node's queue: noted when it is
    # enqueued, read when process_update takes it (the session object is
    # held by the queued callback, so its id is stable in between).
    enqueued_at: dict[int, float] = {}

    def note_enqueue(task_rt, session, payload):
        enqueued_at[id(session)] = engine.now

    def note_process(session, payload):
        tallies["queue_wait_s"] += engine.now - enqueued_at.pop(id(session))

    for node in sim.aggregators:
        tracer.patch(node, "enqueue_update", "system.aggregator", before=note_enqueue)
        _patch_all(tracer, node, "system.aggregator", "demand_report")

    for rt in sim.task_runtimes.values():
        # The runtime captured the orchestrator's bound _pump at build.
        tracer.patch(rt, "on_slot_free", "system.orchestrator", "_pump")
        tracer.patch(rt, "process_update", "system.aggregator", before=note_process)
        _patch_all(tracer, rt, "system.aggregator",
                   "attach_session", "session_ended", "upload_arrived",
                   "demand", "on_reassigned", "drop_shards_on")
        if rt.cohort is not None:
            _patch_all(tracer, rt.cohort, "system.client_runtime", "submit", "discard", "resolve")

        adapter = rt.adapter
        _patch_all(tracer, adapter, "system.adapters", "train", "train_cohort", "current_loss")
        if hasattr(adapter, "dataset"):
            _patch_all(tracer, adapter.dataset, "data", "client_dataset")
        _patch_all(tracer, adapter.state, "core.state", "apply", "current")

        core = rt.core
        _patch_all(tracer, core, "core.aggregate",
                   "register_download", "client_failed", "stale_clients",
                   "drop_buffer_and_inflight", "drop_shard", "revive_shard")
        if isinstance(core, SecureBufferedAggregator):
            _patch_all(tracer, core, "system.secure",
                       "receive_update", "receive_update_block", name="secagg_submit")
            _patch_all(tracer, core, "system.secure", "_finalize_epoch", name="secagg_finalize")
            _patch_all(tracer, core.codec, "secagg",
                       "encode", "encode_block", "decode", "decode_sum", name="codec")
        else:
            _patch_all(tracer, core, "core.aggregate", "receive_update", "receive_update_block")
            # The fold seams exist on the sharded float cores only.
            _patch_all(tracer, core, "core.sharding", "_fold_one", "_fold_group",
                       name="shard_fold")
            _patch_all(tracer, core, "core.sharding", "_merge_shards", name="root_merge")
        pool = getattr(core, "_pool", None)
        if pool is not None:
            _patch_all(tracer, pool, "core.parallel", "fold_scalar", "fold_group",
                       name="pool_dispatch")
            _patch_all(tracer, pool, "core.parallel", "barrier", name="pool_barrier")
            _patch_all(tracer, pool, "core.parallel", "partial", "reset_epoch", "discard_shard")

    tracer.patch(DHKeyPair, "generate", "secagg", "dh")
    tracer.patch_function(shared_key, "secagg", "dh")
    tracer.patch_function(expand_mask, "secagg", "mask")
    tracer.patch_function(expand_mask_block, "secagg", "mask")
    return tallies


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, tallies: dict, sim, result) -> dict[str, float]:
    """The per-layer metrics one traced rep can give by itself.

    ``api.build_s``, ``obs.*`` and ``trace.overhead_frac`` need timings
    from outside the traced run and are filled in by the caller.
    """
    t = tracer
    engine = sim.sim
    stats = list(result.task_stats.values())
    aggregated = sum(s.aggregated for s in stats)
    discarded = sum(s.discarded for s in stats)
    sessions = t.calls("system.client_runtime", "begin")
    scheduled = t.calls("sim.engine", "schedule_at") + tallies["scheduled_before"]
    cancelled = scheduled - engine.events_fired - engine.pending
    eligibility_rolls = t.calls("sim.population", "is_eligible")
    injector = sim.fault_injector
    blocked = injector.checkins_blocked if injector is not None else 0
    routed = t.calls("system.coordinator", "route_checkin")
    cohorts = [rt.cohort for rt in sim.task_runtimes.values() if rt.cohort is not None]
    secure = [rt.core for rt in sim.task_runtimes.values()
              if hasattr(rt.core, "boundary_bytes_in_total")]
    enqueued = sum(node.updates_processed for node in sim.aggregators)
    submits = t.calls("system.secure", "secagg_submit")
    root = ("bench", "run")
    run_total = sum(acc[1] for acc in t.spans.values())

    return {
        "sim.engine.events": engine.events_fired,
        "sim.engine.loop_self_s": t.self_s("sim.engine", "run_until"),
        "sim.engine.schedule_calls": t.calls("sim.engine", "schedule_at"),
        "sim.engine.schedule_self_s": t.self_s("sim.engine", "schedule_at"),
        "sim.engine.cancelled_frac": _ratio(cancelled, scheduled),
        "utils.rng.child_rng_calls": t.calls("utils.rng"),
        "utils.rng.child_rng_self_s": t.self_s("utils.rng"),
        "sim.population.calls": t.calls("sim.population"),
        "sim.population.self_s": t.self_s("sim.population"),
        # a roll passed iff the check-in went on to the fault gate/selector
        "sim.population.eligible_frac": _ratio(routed + blocked, eligibility_rolls),
        "sim.network.calls": t.calls("sim.network"),
        "sim.network.self_s": t.self_s("sim.network"),
        "sim.trace.records": t.calls("sim.trace"),
        "sim.trace.self_s": t.self_s("sim.trace"),
        "sim.faults.calls": t.calls("sim.faults"),
        "sim.faults.self_s": t.self_s("sim.faults"),
        "sim.faults.blocked_checkins": blocked,
        "system.orchestrator.checkins": t.calls("system.orchestrator", "_checkin"),
        "system.orchestrator.self_s": t.self_s("system.orchestrator"),
        "system.orchestrator.assigned_frac": _ratio(
            sessions, t.calls("system.orchestrator", "_checkin")),
        "system.orchestrator.result_build_s": t.self_s("system.orchestrator", "_build_result"),
        "system.coordinator.calls": t.calls("system.coordinator"),
        "system.coordinator.self_s": t.self_s("system.coordinator"),
        "system.coordinator.failovers": (
            result.log.count("task_failover") + result.log.count("shard_replaced")),
        "system.client_runtime.sessions": sessions,
        "system.client_runtime.self_s": t.self_s("system.client_runtime"),
        "system.client_runtime.aggregated_frac": _ratio(aggregated, sessions),
        "system.aggregator.updates": enqueued,
        "system.aggregator.self_s": t.self_s("system.aggregator"),
        "system.aggregator.queue_wait_sim_s": _ratio(
            tallies["queue_wait_s"], t.calls("system.aggregator", "process_update")),
        "system.adapters.train_calls": t.calls("system.adapters", "train", "train_cohort"),
        "system.adapters.train_self_s": t.self_s("system.adapters", "train", "train_cohort"),
        "system.adapters.cohort_mean_size": _ratio(
            sum(c.trainings_run for c in cohorts), sum(c.batches_run for c in cohorts)),
        "system.adapters.eval_self_s": t.self_s("system.adapters", "current_loss"),
        "data.client_dataset_calls": t.calls("data"),
        "data.client_dataset_self_s": t.self_s("data"),
        "core.aggregate.calls": t.calls("core.aggregate"),
        "core.aggregate.self_s": t.self_s("core.aggregate"),
        "core.aggregate.discarded_frac": _ratio(discarded, aggregated + discarded),
        "core.state.apply_calls": t.calls("core.state", "apply"),
        "core.state.apply_self_s": t.self_s("core.state", "apply"),
        "core.state.snapshot_self_s": t.self_s("core.state", "current"),
        "core.sharding.shard_fold_s": t.self_s("core.sharding", "shard_fold"),
        "core.sharding.root_merge_s": t.self_s("core.sharding", "root_merge"),
        "core.parallel.pool_dispatch_s": t.self_s("core.parallel", "pool_dispatch"),
        "core.parallel.pool_barrier_s": t.self_s("core.parallel", "pool_barrier"),
        "core.parallel.fallbacks": result.log.count("executor_fallback"),
        "system.secure.secagg_submit_s": t.self_s("system.secure", "secagg_submit"),
        "system.secure.secagg_finalize_s": t.self_s("system.secure", "secagg_finalize"),
        "secagg.dh_calls": t.calls("secagg", "dh"),
        "secagg.dh_self_s": t.self_s("secagg", "dh"),
        "secagg.mask_self_s": t.self_s("secagg", "mask"),
        "secagg.codec_self_s": t.self_s("secagg", "codec"),
        # submissions that did not become contributions of an epoch
        "secagg.rejected": max(0, submits - sum(c.updates_received for c in secure)),
        "secagg.boundary_mb": sum(
            c.boundary_bytes_in_total + c.boundary_bytes_out_total for c in secure) / 1e6,
        "trace.unattributed_frac": _ratio(t.spans[root][1], run_total),
    }
