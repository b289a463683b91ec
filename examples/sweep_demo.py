"""Parallel multi-seed experiment sweep with caching and aggregation.

Fans a small grid of sweep cells — (experiment × seed × operating point)
— out across worker processes via ``repro.harness.sweep``, then prints
the mean / stddev / min-max aggregate across seeds.  The executor runs
each distinct arm (one complete scenario spec) once: the two
``target_loss`` points share no arm, but a second run (same store
directory) completes almost instantly because every arm is stored
content-addressed on disk.

The CLI front-end to the same machinery::

    python -m repro.harness sweep fig9 --seeds 0..4 --jobs 8

Run from the repository root::

    PYTHONPATH=src python examples/sweep_demo.py
"""

import tempfile

from repro.api import ExecutionSpec, PopulationSpec, ScenarioSpec, TaskSpec
from repro.harness import Scale
from repro.harness.cache import ResultCache
from repro.harness.report import print_aggregate
from repro.harness.sweep import build_cells, build_scenario_cells, run_sweep

# A deliberately tiny scale so the demo finishes in seconds.
TINY = Scale(
    name="demo-tiny",
    base_concurrency=12,
    base_goal=3,
    concurrency_sweep=(6, 12),
    goal_sweep=(3, 6, 12),
    population=3000,
    sim_hours=1.0,
    critical_goal=5.0,
)


def main() -> None:
    cache = ResultCache(tempfile.mkdtemp(prefix="sweep-demo-"))

    # fig9 across three seeds, and a one-axis operating-point grid over
    # the convergence target to show param grids riding along.
    cells = build_cells(
        ["fig9"], TINY, seeds=[0, 1, 2], grid={"target_loss": [2.7, 2.8]}
    )
    print(f"sweeping {len(cells)} cells on 2 worker processes...")
    sweep = run_sweep(cells, jobs=2, cache=cache, progress=print)
    print(f"\n[{sweep.ran} arms run, {sweep.stored} from the store, "
          f"{sweep.duration_s:.1f}s]\n")

    for group in sweep.groups():
        print_aggregate(
            group.aggregate,
            title=f"{group.describe()} — mean/std/min/max over {len(group.cells)} seeds",
        )

    # Re-run the identical sweep: every arm is now stored.
    again = run_sweep(cells, jobs=2, cache=cache)
    print(f"re-run: {again.stored}/{again.arms} arms served from the store "
          f"in {again.duration_s:.2f}s")

    # --- declarative scenario sweeps -------------------------------------
    # Any deployment a repro.api.ScenarioSpec can describe is sweepable:
    # grid keys are dotted spec-override paths applied to the base spec
    # (the CLI equivalent is
    #   python -m repro.harness sweep scenario --spec demo.json \
    #       --grid tasks.0.concurrency=6,12).
    base = ScenarioSpec(
        population=PopulationSpec(n_devices=2000, seed=0),
        tasks=(
            TaskSpec(name="async", mode="async", concurrency=12,
                     aggregation_goal=3, model_size_bytes=1_000_000,
                     trainer="surrogate",
                     trainer_params={"critical_goal": 5.0}),
        ),
        execution=ExecutionSpec(seed=0, t_end_s=1800.0),
    )
    scenario_cells = build_scenario_cells(
        base, seeds=[0, 1], grid={"tasks.0.concurrency": [6, 12]}
    )
    print(f"\nsweeping {len(scenario_cells)} scenario cells "
          f"(grid over tasks.0.concurrency)...")
    scenario_sweep = run_sweep(scenario_cells, jobs=2, cache=cache)
    for group in scenario_sweep.groups():
        conc = dict(group.params)["tasks.0.concurrency"]
        steps = group.aggregate["tasks"][0]["server_steps"]
        print(f"  concurrency={conc}: server steps "
              f"mean={steps['mean']:.1f} (min {steps['min']}, max {steps['max']})")


if __name__ == "__main__":
    main()
