"""Names fixed by the ``e2e`` benchmark: workloads, metrics, bounds.

This table is the single source the driver (``run.py``), the comparer
(``compare.py``), the README and ``BENCHMARK.json`` agree on; the smoke
test fails when ``BENCHMARK.json`` drifts from it.  Later issues refer
to these names, so renaming one is a benchmark change of its own.
"""

from __future__ import annotations

#: workload names in run order; each has ``workloads/<name>.json`` (a
#: plain ScenarioSpec document) and ``workloads/<name>.why`` (one line)
WORKLOADS = (
    "async_fleet",
    "sync_rounds",
    "lstm_cohort",
    "secure_wide",
    "sharded_wide_process",
    "million_chaos",
)

#: common factor on every ``t_end_s`` / ``max_server_steps`` and every
#: fault time parameter of the checked-in specs.  The specs are written
#: at the size the issue measured (~11-14 s per rep); 0.4 brings a rep
#: to ~4.5-5.5 s so that 22 driver runs per workload fit the time cap.
SCALE = 0.4

#: ``run_seconds`` of BENCHMARK.json: a timed run keeps starting reps
#: until this many wall seconds have passed
RUN_SECONDS = 12

#: timed reps per workload of the full set (the contract form runs as
#: many as fit in ``RUN_SECONDS``)
TIMED_REPS = 3

#: (name, unit, better, bound, meaning).  The bounds are what the
#: run-to-run spread measured on the reference box allows (README,
#: "Measured spread"), not what one would like them to be.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "spec parse + Deployment.from_spec(...).build() wall seconds"),
    ("run_s", "s", "lower", 0.25,
     "wall seconds of Deployment.run() incl. result build and plane close()"),
    ("updates_per_s", "1/s", "higher", 0.25,
     "aggregated client updates per host second of run_s"),
    ("cpu_s", "s", "lower", 0.25,
     "user+sys CPU seconds of the rep process and its children over build+run"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "ru_maxrss of the rep process (max with its children)"),
    ("wire_mb_per_update", "MB", "lower", 0.05,
     "simulated (download + upload) bytes per aggregated update / 1e6"),
    ("sim_steps_per_hour", "1/h", "higher", 0.25,
     "server steps per simulated hour, start of run to last step"),
)

_FLEET = "async_fleet, sync_rounds, million_chaos"
_WIDE = "sharded_wide_process, secure_wide"

#: (name, unit, better, end-to-end metric it should move, on which
#: workloads).  Every ``*_s`` here is *self* time of the traced rep:
#: span time minus the spans it called.
PER_LAYER = (
    ("api.build_s", "s", "lower", "setup_s",
     "all (visible on million_chaos, sharded_wide_process)"),
    ("sim.engine.events", "count", "lower", "run_s", _FLEET),
    ("sim.engine.loop_self_s", "s", "lower", "run_s", _FLEET),
    ("sim.engine.schedule_calls", "count", "lower", "run_s", _FLEET),
    ("sim.engine.schedule_self_s", "s", "lower", "run_s", _FLEET),
    ("sim.engine.cancelled_frac", "ratio", "lower", "run_s", "sync_rounds"),
    ("utils.rng.child_rng_calls", "count", "lower", "run_s, cpu_s", "async_fleet, sync_rounds"),
    ("utils.rng.child_rng_self_s", "s", "lower", "run_s, cpu_s", "async_fleet, sync_rounds"),
    ("sim.population.calls", "count", "lower", "run_s", _FLEET),
    ("sim.population.self_s", "s", "lower", "run_s; peak_rss_mb, setup_s on million_chaos", _FLEET),
    ("sim.population.eligible_frac", "ratio", "higher", "run_s", _FLEET),
    ("sim.network.calls", "count", "lower", "run_s", _FLEET),
    ("sim.network.self_s", "s", "lower", "run_s", _FLEET),
    ("sim.trace.records", "count", "lower", "run_s", _FLEET),
    ("sim.trace.self_s", "s", "lower", "run_s", _FLEET),
    ("sim.faults.calls", "count", "lower", "run_s", "million_chaos (0 elsewhere)"),
    ("sim.faults.self_s", "s", "lower", "run_s", "million_chaos (0 elsewhere)"),
    ("sim.faults.blocked_checkins", "count", "lower", "run_s", "million_chaos (0 elsewhere)"),
    ("system.orchestrator.checkins", "count", "lower", "run_s", _FLEET),
    ("system.orchestrator.self_s", "s", "lower", "run_s", _FLEET),
    ("system.orchestrator.assigned_frac", "ratio", "higher", "run_s", _FLEET),
    ("system.orchestrator.result_build_s", "s", "lower", "run_s", _FLEET),
    ("system.coordinator.calls", "count", "lower", "run_s", _FLEET),
    ("system.coordinator.self_s", "s", "lower", "run_s", _FLEET),
    ("system.coordinator.failovers", "count", "lower", "run_s", "million_chaos (0 elsewhere)"),
    ("system.client_runtime.sessions", "count", "lower", "run_s", "async_fleet, sync_rounds"),
    ("system.client_runtime.self_s", "s", "lower", "run_s", "async_fleet, sync_rounds"),
    ("system.client_runtime.aggregated_frac", "ratio", "higher",
     "run_s, wire_mb_per_update", "async_fleet, sync_rounds"),
    ("system.aggregator.updates", "count", "lower", "run_s", _FLEET),
    ("system.aggregator.self_s", "s", "lower", "run_s", _FLEET),
    ("system.aggregator.queue_wait_sim_s", "s", "lower", "sim_steps_per_hour", _FLEET),
    ("system.adapters.train_calls", "count", "lower", "run_s, updates_per_s", "lstm_cohort"),
    ("system.adapters.train_self_s", "s", "lower", "run_s, updates_per_s", "lstm_cohort"),
    ("system.adapters.cohort_mean_size", "count", "higher", "run_s, updates_per_s", "lstm_cohort"),
    ("system.adapters.eval_self_s", "s", "lower", "run_s, updates_per_s", "lstm_cohort"),
    ("data.client_dataset_calls", "count", "lower", "run_s, updates_per_s", "lstm_cohort"),
    ("data.client_dataset_self_s", "s", "lower", "run_s, updates_per_s", "lstm_cohort"),
    ("core.aggregate.calls", "count", "lower", "run_s, cpu_s", _WIDE),
    ("core.aggregate.self_s", "s", "lower", "run_s, cpu_s", _WIDE),
    ("core.aggregate.discarded_frac", "ratio", "lower", "wire_mb_per_update", "sync_rounds"),
    ("core.state.apply_calls", "count", "lower", "run_s, cpu_s", _WIDE),
    ("core.state.apply_self_s", "s", "lower", "run_s, cpu_s", _WIDE),
    ("core.state.snapshot_self_s", "s", "lower", "run_s, cpu_s", _WIDE),
    ("core.sharding.shard_fold_s", "s", "lower", "run_s, cpu_s", "sharded_wide_process"),
    ("core.sharding.root_merge_s", "s", "lower", "run_s", "sharded_wide_process"),
    ("core.parallel.pool_dispatch_s", "s", "lower", "run_s, cpu_s", "sharded_wide_process"),
    ("core.parallel.pool_barrier_s", "s", "lower", "run_s only", "sharded_wide_process"),
    ("core.parallel.fallbacks", "count", "lower", "run_s", "sharded_wide_process"),
    ("system.secure.secagg_submit_s", "s", "lower", "run_s, updates_per_s", "secure_wide"),
    ("system.secure.secagg_finalize_s", "s", "lower", "run_s, updates_per_s", "secure_wide"),
    ("secagg.dh_calls", "count", "lower", "run_s, updates_per_s", "secure_wide"),
    ("secagg.dh_self_s", "s", "lower", "run_s, updates_per_s", "secure_wide"),
    ("secagg.mask_self_s", "s", "lower", "run_s, updates_per_s, peak_rss_mb", "secure_wide"),
    ("secagg.codec_self_s", "s", "lower", "run_s, updates_per_s", "secure_wide"),
    ("secagg.rejected", "count", "lower", "updates_per_s", "secure_wide"),
    ("secagg.boundary_mb", "MB", "lower", "run_s", "secure_wide"),
    ("obs.telemetry_overhead_frac", "ratio", "lower",
     "none (telemetry is off end to end)", "async_fleet"),
    ("obs.spans", "count", "lower", "none", "async_fleet"),
    ("obs.finalize_s", "s", "lower", "none", "async_fleet"),
    ("trace.overhead_frac", "ratio", "lower", "none (tracing is off end to end)", "all"),
    ("trace.unattributed_frac", "ratio", "lower", "none", "all"),
)

#: ``compare.py`` calls ``setup_s`` medians closer than this equal: most
#: builds take milliseconds, where a relative bound would judge timer noise
SETUP_FLOOR_S = 0.05

#: pure functions of the simulation: identical between two runs of the
#: same seed and scale, where ``compare.py`` holds them to a bound of 0
DETERMINISTIC = ("wire_mb_per_update", "sim_steps_per_hour")

END_TO_END_NAMES = tuple(m[0] for m in END_TO_END)
PER_LAYER_NAMES = tuple(m[0] for m in PER_LAYER)
UNITS = {m[0]: m[1] for m in END_TO_END + PER_LAYER}
BETTER = {m[0]: m[2] for m in END_TO_END + PER_LAYER}
BOUNDS = {m[0]: m[3] for m in END_TO_END}
