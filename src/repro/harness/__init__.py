"""Experiment harness: regenerate every figure and table of the paper.

Experiments are first-class :class:`~repro.harness.registry.ExperimentSpec`
entries in a process-wide registry; ``repro.harness.sweep`` fans
(experiment × seed × operating point) grids out across worker processes
with a content-addressed on-disk result cache and mean/std/min-max
multi-seed aggregation.  From the command line::

    python -m repro.harness fig9 --scale default
    python -m repro.harness sweep fig9 --seeds 0..4 --jobs 8
    python -m repro.harness sweep all --seeds 0,1,2 --json sweep.json

CI runs the tier-1 test suite, a smoke-scale figure regeneration, and a
one-cell sweep of this subsystem on every push (see
``.github/workflows/ci.yml``); the ``--json`` sweep reports are uploaded
as per-run artifacts so the performance trajectory is tracked per-PR.
"""

from repro.harness.configs import DEFAULT, PAPER, SMOKE, Scale
from repro.harness.figures import (
    Fig2Result,
    Fig3Result,
    Fig6Result,
    Fig7Result,
    Fig8Result,
    Fig9Result,
    Fig10Result,
    Fig11Result,
    Fig12Result,
    Fig13Result,
    Table1Result,
    figure2,
    figure3,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    table1,
)
from repro.harness.ks import KSResult, ks_two_sample
from repro.harness import perf  # noqa: F401  (registers the five perf experiments)
from repro.harness.registry import ExperimentSpec
from repro.harness.report import (
    format_aggregate,
    format_series,
    format_table,
    print_aggregate,
    print_series,
    print_table,
)
from repro.harness.cache import ResultCache, cell_fingerprint
from repro.harness.sweep import (
    SweepCell,
    SweepResult,
    aggregate_payloads,
    build_cells,
    build_scenario_cells,
    expand_grid,
    run_sweep,
)
from repro.harness.runner import (
    DEFAULT_TARGET_LOSS,
    async_scenario,
    make_population,
    sync_scenario,
)
from repro.harness.scenario import (
    ScenarioRunSummary,
    ScenarioTaskSummary,
    print_scenario,
    run_scenario,
)
from repro.harness.chaos import (
    SCHEDULES,
    ChaosPoint,
    ChaosResult,
    chaos_experiment,
    print_chaos,
)
from repro.harness.obs import (
    ObsPoint,
    ObsResult,
    obs_experiment,
    print_obs,
    trace_scenario,
)

__all__ = [
    "DEFAULT",
    "PAPER",
    "SMOKE",
    "Scale",
    "Fig2Result",
    "Fig3Result",
    "Fig6Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "Fig10Result",
    "Fig11Result",
    "Fig12Result",
    "Fig13Result",
    "Table1Result",
    "figure2",
    "figure3",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "table1",
    "KSResult",
    "ks_two_sample",
    "ExperimentSpec",
    "ResultCache",
    "cell_fingerprint",
    "SweepCell",
    "SweepResult",
    "aggregate_payloads",
    "build_cells",
    "expand_grid",
    "run_sweep",
    "format_aggregate",
    "format_series",
    "format_table",
    "print_aggregate",
    "print_series",
    "print_table",
    "DEFAULT_TARGET_LOSS",
    "async_scenario",
    "sync_scenario",
    "make_population",
    "ScenarioRunSummary",
    "ScenarioTaskSummary",
    "run_scenario",
    "print_scenario",
    "build_scenario_cells",
    "SCHEDULES",
    "ChaosPoint",
    "ChaosResult",
    "chaos_experiment",
    "print_chaos",
    "ObsPoint",
    "ObsResult",
    "obs_experiment",
    "print_obs",
    "trace_scenario",
]
