"""Failure recovery in the PAPAYA control plane (paper Appendix E.4).

Injects the two failure modes the paper designs for, into a live AsyncFL
run, and shows training riding through both:

* an **Aggregator dies** mid-run — the Coordinator detects it via missed
  heartbeats, reassigns its task to another Aggregator (the in-memory
  buffer and in-flight sessions are lost; the model state survives);
* the **Coordinator goes down** — participating clients are unaffected
  and server steps continue; only *new* client assignment pauses until a
  leader is re-elected and the recovery period rebuilds the assignment
  view.

Run:
    python examples/failure_recovery_demo.py
"""


from repro.api import (
    Deployment,
    ExecutionSpec,
    FaultEvent,
    FaultSpec,
    PopulationSpec,
    ScenarioSpec,
    TaskSpec,
)
from repro.harness import print_series, print_table


def main() -> None:
    spec = ScenarioSpec(
        population=PopulationSpec(n_devices=20_000, seed=11),
        tasks=(
            TaskSpec(
                name="resilient",
                mode="async",
                concurrency=64,
                aggregation_goal=8,
                model_size_bytes=1_000_000,
                trainer="surrogate",
            ),
        ),
        system={"n_aggregators": 3, "heartbeat_interval_s": 5.0},
        execution=ExecutionSpec(seed=11, t_end_s=3600.0),
        # Aggregator 0 dies at t=10min; coordinator outage 25-27min.
        faults=FaultSpec(events=(
            FaultEvent("aggregator_crash", 600.0, {"node": 0}),
            FaultEvent("coordinator_outage", 1500.0, {"duration_s": 120.0}),
        )),
    )
    deployment = Deployment.from_spec(spec)

    print("Running 1 simulated hour with injected failures ...")
    result = deployment.run()

    times, counts = result.trace.active_series()
    print_series("active clients (note the dips at 10min and 25min)", times, counts)

    reassigned = result.log.of_kind("tasks_reassigned")
    steps = result.trace.server_steps
    during_outage = sum(1 for s in steps if 1500.0 < s.time < 1620.0)
    print_table(
        ["event", "observation"],
        [
            ["aggregator failure detected at (s)",
             round(reassigned[0].time, 1) if reassigned else "never"],
            ["tasks reassigned", reassigned[0].detail["tasks"] if reassigned else []],
            ["sessions lost to the failure", result.stats().aborted],
            ["server steps during coordinator outage", during_outage],
            ["total server steps", result.stats().server_steps],
            ["final loss", round(result.stats().final_loss, 3)],
        ],
        title="failure-recovery transcript",
    )
    print(
        "Training progressed through both failures: the task moved to a "
        "healthy aggregator, and the coordinator outage only paused new "
        "client selection."
    )


if __name__ == "__main__":
    main()
