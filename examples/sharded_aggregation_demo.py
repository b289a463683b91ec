"""Sharded hierarchical aggregation plane, from the core up to the system.

PAPAYA scales one FL task past a single aggregator by sharding
aggregation horizontally: shard cores partially fold their slice of the
arriving client updates, and a root reducer merges the shard partials
into one server step.  This walkthrough shows the subsystem at its
three levels:

1. **Core equivalence** — drive identical arrival sequences through a
   ``FedBuffAggregator`` at one shard and at ``num_shards=4`` (hash
   routing) and watch the models agree to float64 rounding
   (the deterministic ascending-shard merge only *reassociates* the
   weighted sum).
2. **Critical-path speedup** — attach an ``AggregationPlaneClock`` and
   compare the single plane's sequential wall clock against the sharded
   plane's parallel-lane latency (what the ``shards`` experiment sweeps:
   ``python -m repro.harness shards``).
3. **System failover** — run a full simulated deployment described by a
   declarative ``repro.api.ScenarioSpec`` (``plane.name="sharded"``,
   S = 4) spreading one task's shards over three aggregator nodes, kill
   a node mid-run, and watch the heartbeat sweep drop only that node's
   shards (their in-flight contributions are lost, their slice
   re-routes) and re-place them on the survivors.

Run with: PYTHONPATH=src python examples/sharded_aggregation_demo.py
"""

import time

import numpy as np

from repro.api import (
    Deployment,
    ExecutionSpec,
    PlaneSpec,
    PopulationSpec,
    ScenarioSpec,
    TaskSpec,
)
from repro.core import FedBuffAggregator, TrainingResult
from repro.core.server_opt import FedAdam
from repro.core.sharding import AggregationPlaneClock
from repro.core.state import GlobalModelState
from repro.sim.faults import FaultInjector

PARAMS = 20_000
GOAL = 32
ARRIVALS = 128
SEED = 0


def fresh_state():
    rng = np.random.default_rng(SEED)
    return GlobalModelState(
        rng.standard_normal(PARAMS).astype(np.float32), FedAdam(lr=0.1)
    )


def arrival_stream(n):
    rng = np.random.default_rng(SEED + 1)
    return [
        TrainingResult(
            client_id=cid,
            delta=rng.standard_normal(PARAMS).astype(np.float32),
            num_examples=int(rng.integers(1, 50)),
            train_loss=float(rng.random()),
            initial_version=0,
        )
        for cid in range(n)
    ]


def core_equivalence():
    """Same arrivals, single core vs 4 shards: float64-rounding agreement."""
    print("=== 1. core equivalence (S=4, hash routing) ===")
    results = arrival_stream(ARRIVALS)
    single = FedBuffAggregator(fresh_state(), goal=GOAL)
    sharded = FedBuffAggregator(
        fresh_state(), goal=GOAL, num_shards=4, routing="hash"
    )
    for agg in (single, sharded):
        for r in results:
            agg.register_download(r.client_id)
        for r in results:
            agg.receive_update(r)
    div = float(np.max(np.abs(single.state.current() - sharded.state.current())))
    print(f"server steps: single={single.version} sharded={sharded.version}")
    print(f"per-shard folds: {sharded.shard_loads()}")
    print(f"max model divergence: {div:.2e}  "
          "(merge reassociation surviving the float32 state cast)\n")


def critical_path_speedup():
    """Measured fold costs on parallel lanes vs the sequential plane."""
    print("=== 2. critical-path speedup (plane clock) ===")
    results = arrival_stream(ARRIVALS)

    single = FedBuffAggregator(fresh_state(), goal=GOAL)
    for r in results:
        single.register_download(r.client_id)
    t0 = time.perf_counter()
    for r in results:
        single.receive_update(r)
    single_s = time.perf_counter() - t0

    for num_shards in (2, 4, 8):
        clock = AggregationPlaneClock(num_shards)
        sharded = FedBuffAggregator(
            fresh_state(), goal=GOAL, num_shards=num_shards, clock=clock
        )
        for r in results:
            sharded.register_download(r.client_id)
        for r in results:
            sharded.receive_update(r)
        print(
            f"S={num_shards}: single {single_s * 1e3:6.2f} ms -> plane "
            f"{clock.elapsed * 1e3:6.2f} ms  "
            f"(speedup {single_s / clock.elapsed:.2f}x, "
            f"{clock.folds} folds, {clock.merges} merges)"
        )
    print("sweep the full operating curve: python -m repro.harness shards\n")


def system_failover():
    """One task, 4 shards over 3 nodes; node dies mid-run; plane recovers."""
    print("=== 3. system-level shard failover ===")
    spec = ScenarioSpec(
        population=PopulationSpec(n_devices=500, seed=SEED),
        tasks=(
            TaskSpec(name="demo", mode="async", concurrency=40,
                     aggregation_goal=10, model_size_bytes=100_000,
                     trainer="surrogate"),
        ),
        plane=PlaneSpec(name="sharded", num_shards=4, shard_routing="hash"),
        system={"n_aggregators": 3},
        execution=ExecutionSpec(seed=SEED, t_end_s=2500.0),
    )
    deployment = Deployment.from_spec(spec)
    fs = deployment.build()
    rt = fs.task_runtimes["demo"]
    print(f"initial shard placement: {fs.coordinator.shard_placement['demo']}")
    victim = rt.shard_nodes[0].node_id
    FaultInjector(fs, seed=fs.seed).schedule("aggregator_crash", 120.0, node=victim)
    res = deployment.run()
    stats = res.stats()
    print(f"killed node {victim} at t=120s; detected by heartbeat sweep")
    print(f"placement after failover: {fs.coordinator.shard_placement['demo']}")
    print(
        f"server steps: {stats.server_steps}, aggregated: {stats.aggregated}, "
        f"aborted: {stats.aborted} (dropped slices), "
        f"shard failovers: {rt.core.shard_failovers}"
    )
    for record in fs.log.of_kind("shard_failed"):
        print(
            f"  t={record.time:7.1f}s  shard {record.detail['shard']} on "
            f"node {record.detail['node']} died: lost "
            f"{record.detail['lost_buffered']} buffered, dropped "
            f"{record.detail['dropped_clients']} in-flight clients"
        )
    print(f"live shards at the end: {rt.core.live_shards()}")


if __name__ == "__main__":
    core_equivalence()
    critical_path_speedup()
    system_failover()
