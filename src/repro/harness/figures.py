"""Regenerators for every figure and table in the paper's evaluation.

Each ``figure*``/``table1`` function runs the corresponding experiment at
a configurable scale and returns a structured result whose fields are the
series/rows of the original plot.  ``print_*`` companions render them as
text.  The pytest-benchmark modules under ``benchmarks/`` call these with
the SMOKE scale and assert the paper's qualitative claims (who wins, by
roughly what factor, where the crossovers are).

Index (paper → function):

* Figure 2  — client execution-time distribution; round duration vs mean
  client time → :func:`figure2`
* Figure 3  — SyncFL time-to-target & comm trips vs concurrency → :func:`figure3`
* Figure 6  — host↔TEE transfer time vs aggregation goal → :func:`figure6`
* Figure 7  — active clients over time, Sync vs Async → :func:`figure7`
* Figure 8  — server model updates per hour vs concurrency → :func:`figure8`
* Figure 9  — time-to-target, speedup, comm trips vs concurrency → :func:`figure9`
* Figure 10 — time-to-target & update rate vs aggregation goal K → :func:`figure10`
* Figure 11 — participant distributions ± over-selection, KS tests → :func:`figure11`
* Figure 12 — training curves for the four configurations → :func:`figure12`
* Figure 13 — hours-to-target bar chart for the four configurations → :func:`figure13`
* Table 1   — test perplexity by data-volume percentile (real training) → :func:`table1`
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.api import (
    Deployment,
    ExecutionSpec,
    PopulationSpec,
    ScenarioSpec,
    TaskSpec,
)
from repro.core.server_opt import FedAdam
from repro.core.state import GlobalModelState
from repro.core.client_trainer import LocalTrainer
from repro.core.surrogate import SurrogateParams
from repro.core.types import TrainingMode
from repro.data.federated import FederatedDataset
from repro.data.synthetic_text import CorpusSpec, TopicMarkovCorpus
from repro.harness import registry
from repro.harness.configs import DEFAULT, OVER_SELECTION, Scale, MODEL_BYTES_20MB
from repro.harness.ks import KSResult, ks_two_sample
from repro.harness.report import print_series, print_table
from repro.harness.runner import (
    DEFAULT_TARGET_LOSS,
    async_scenario,
    deploy,
    make_population,
    sync_scenario,
)
from repro.nn.model import LSTMLanguageModel, ModelConfig
from repro.secagg.protocol import BoundaryCostModel
from repro.sim.population import DevicePopulation
from repro.sim.trace import Outcome
from repro.system.adapters import RealTrainingAdapter
from repro.system.orchestrator import FederatedSimulation, RunResult
from repro.utils.rng import child_rng

__all__ = [
    "figure2", "figure3", "figure6", "figure7", "figure8", "figure9",
    "figure10", "figure11", "figure12", "figure13", "table1",
    "Fig2Result", "Fig3Result", "Fig6Result", "Fig7Result", "Fig8Result",
    "Fig9Result", "Fig10Result", "Fig11Result", "Fig12Result", "Fig13Result",
    "Table1Result",
]


def _params(scale: Scale) -> SurrogateParams:
    return SurrogateParams(critical_goal=scale.critical_goal)


def _async_sim(
    concurrency: int, goal: int, pop: DevicePopulation, scale: Scale, seed: int,
) -> FederatedSimulation:
    """An AsyncFL figure deployment, built through the scenario API."""
    spec = async_scenario(
        concurrency, goal, pop, seed=seed, surrogate=_params(scale)
    )
    return deploy(spec, population=pop)


def _sync_sim(
    goal: int, pop: DevicePopulation, scale: Scale, seed: int,
    over_selection: float = OVER_SELECTION,
) -> FederatedSimulation:
    """A SyncFL figure deployment, built through the scenario API."""
    spec = sync_scenario(
        goal, pop, over_selection=over_selection, seed=seed,
        surrogate=_params(scale),
    )
    return deploy(spec, population=pop)


def _sync_goal(concurrency: int, over_selection: float = OVER_SELECTION) -> int:
    """The paper's convention: concurrency = goal × (1 + over-selection).

    Floored so the over-selected cohort never exceeds the concurrency cap
    (ceil(floor(C/1.3) × 1.3) ≤ C).
    """
    return max(1, int(concurrency / (1.0 + over_selection)))


# ---------------------------------------------------------------------------
# Figure 2 — execution-time heterogeneity and the straggler effect
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig2Result:
    """Execution-time histogram + round-duration comparison."""

    bin_edges: np.ndarray
    density: np.ndarray
    mean_client_s: float
    median_client_s: float
    mean_round_s: float
    round_to_client_ratio: float
    spread_orders_of_magnitude: float


def figure2(
    population: DevicePopulation | None = None,
    cohort: int = 1000,
    n_rounds: int = 30,
    n_hist_samples: int = 20_000,
    seed: int = 0,
) -> Fig2Result:
    """Client execution-time distribution (log x-axis) and the 21× gap.

    The round duration of SyncFL at concurrency = goal = ``cohort`` is the
    maximum over the cohort's execution times (no over-selection), just as
    in the paper's measurement.
    """
    pop = population or make_population(100_000, seed=seed)
    rng = child_rng(seed, "fig2")
    profiles = pop.sample_profiles(min(n_hist_samples, pop.config.n_devices), rng)
    times = np.array([p.execution_time(pop.config.overhead_s) for p in profiles])

    edges = np.logspace(np.log10(max(times.min(), 0.1)), np.log10(times.max()), 50)
    density, _ = np.histogram(times, bins=edges, density=True)
    density = density / density.max() if density.max() > 0 else density

    round_durations = []
    for r in range(n_rounds):
        cohort_times = rng.choice(times, size=min(cohort, times.size), replace=False)
        round_durations.append(float(cohort_times.max()))

    mean_client = float(times.mean())
    mean_round = float(np.mean(round_durations))
    return Fig2Result(
        bin_edges=edges,
        density=density,
        mean_client_s=mean_client,
        median_client_s=float(np.median(times)),
        mean_round_s=mean_round,
        round_to_client_ratio=mean_round / mean_client,
        spread_orders_of_magnitude=float(
            np.log10(np.percentile(times, 99.5) / max(np.percentile(times, 0.5), 1e-9))
        ),
    )


def print_figure2(res: Fig2Result) -> None:
    """Render Figure 2 as text."""
    print_series("exec-time density (log bins)", res.bin_edges[:-1], res.density)
    print_table(
        ["metric", "value"],
        [
            ["mean client execution time (s)", res.mean_client_s],
            ["median client execution time (s)", res.median_client_s],
            ["mean SyncFL round duration (s)", res.mean_round_s],
            ["round / client ratio (paper: ~21x)", res.round_to_client_ratio],
            ["spread (orders of magnitude, paper: >2)", res.spread_orders_of_magnitude],
        ],
        title="Figure 2 — client execution times vs round duration",
    )


# ---------------------------------------------------------------------------
# Figure 3 — SyncFL scaling limits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One operating point of a concurrency sweep."""

    concurrency: int
    goal: int
    time_to_target_h: float | None
    comm_trips: int
    steps_per_hour: float


@dataclass(frozen=True)
class Fig3Result:
    """SyncFL time-to-target and communication vs concurrency."""

    points: list[SweepPoint]
    target_loss: float


def figure3(
    scale: Scale = DEFAULT,
    target_loss: float = DEFAULT_TARGET_LOSS,
    seed: int = 0,
) -> Fig3Result:
    """SyncFL-only concurrency sweep (the motivation experiment)."""
    pop = make_population(scale.population, seed=seed)
    points = []
    for conc in scale.concurrency_sweep:
        goal = _sync_goal(conc)
        sim = _sync_sim(goal, pop, scale, seed=seed)
        res = sim.run(t_end=scale.sim_seconds * 4, target_loss=target_loss)
        s = res.stats("sync")
        t = s.time_to_target
        points.append(
            SweepPoint(
                concurrency=conc,
                goal=goal,
                time_to_target_h=None if t is None else t / 3600.0,
                comm_trips=_trips_until(res, "sync", t),
                steps_per_hour=res.trace.steps_per_hour("sync"),
            )
        )
    return Fig3Result(points=points, target_loss=target_loss)


def _trips_until(res: RunResult, task: str, t: float | None) -> int:
    """Client updates received at the server before time ``t``."""
    horizon = math.inf if t is None else t
    return sum(
        1
        for p in res.trace.participations
        if p.task == task
        and p.outcome in (Outcome.AGGREGATED, Outcome.DISCARDED)
        and p.end_time <= horizon
    )


def print_figure3(res: Fig3Result) -> None:
    """Render Figure 3 as text."""
    print_table(
        ["concurrency", "goal", "hours to target", "comm trips", "steps/h"],
        [
            [p.concurrency, p.goal,
             "n/a" if p.time_to_target_h is None else p.time_to_target_h,
             p.comm_trips, p.steps_per_hour]
            for p in res.points
        ],
        title=f"Figure 3 — SyncFL scaling (target loss {res.target_loss})",
    )


# ---------------------------------------------------------------------------
# Figure 6 — TEE boundary-transfer time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig6Result:
    """Naive TSA vs Asynchronous SecAgg boundary transfer times."""

    goals: tuple[int, ...]
    naive_ms: list[float]
    async_ms: list[float]
    model_bytes: int


def figure6(
    goals: tuple[int, ...] = (10, 50, 100, 500, 1000),
    model_bytes: int = MODEL_BYTES_20MB,
    cost_model: BoundaryCostModel | None = None,
) -> Fig6Result:
    """Data-transfer time across the TEE boundary vs aggregation goal."""
    m = cost_model or BoundaryCostModel()
    return Fig6Result(
        goals=tuple(goals),
        naive_ms=[m.naive_transfer_ms(k, model_bytes) for k in goals],
        async_ms=[m.async_transfer_ms(k, model_bytes) for k in goals],
        model_bytes=model_bytes,
    )


def print_figure6(res: Fig6Result) -> None:
    """Render Figure 6 as text."""
    rows = [
        [k, n, a, n / a]
        for k, n, a in zip(res.goals, res.naive_ms, res.async_ms)
    ]
    print_table(
        ["K", "naive TSA (ms)", "AsyncSecAgg (ms)", "ratio"],
        rows,
        title=f"Figure 6 — TEE boundary transfer time, {res.model_bytes >> 20} MB model",
    )


# ---------------------------------------------------------------------------
# Figure 7 — client utilization over time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig7Result:
    """Active-client time series for SyncFL and AsyncFL."""

    sync_times: np.ndarray
    sync_active: np.ndarray
    async_times: np.ndarray
    async_active: np.ndarray
    concurrency: int
    sync_utilization: float
    async_utilization: float


def figure7(
    scale: Scale = DEFAULT,
    duration_h: float | None = None,
    seed: int = 0,
) -> Fig7Result:
    """Active clients over time at equal max concurrency (paper: 1300)."""
    duration = (duration_h or scale.sim_hours / 2) * 3600.0
    conc = scale.base_concurrency
    pop = make_population(scale.population, seed=seed)

    sync_sim = _sync_sim(_sync_goal(conc), pop, scale, seed=seed)
    sync_res = sync_sim.run(t_end=duration)
    async_sim = _async_sim(conc, scale.base_goal, pop, scale, seed=seed + 1)
    async_res = async_sim.run(t_end=duration)

    st, sc = sync_res.trace.active_series()
    at, ac = async_res.trace.active_series()
    warmup = duration * 0.2
    return Fig7Result(
        sync_times=st, sync_active=sc, async_times=at, async_active=ac,
        concurrency=conc,
        sync_utilization=sync_res.trace.mean_utilization(conc, warmup, duration),
        async_utilization=async_res.trace.mean_utilization(conc, warmup, duration),
    )


def print_figure7(res: Fig7Result) -> None:
    """Render Figure 7 as text."""
    print_series("SyncFL active clients", res.sync_times, res.sync_active)
    print_series("AsyncFL active clients", res.async_times, res.async_active)
    print_table(
        ["configuration", "mean utilization"],
        [
            [f"SyncFL w/ OS (max {res.concurrency})", res.sync_utilization],
            [f"AsyncFL (max {res.concurrency})", res.async_utilization],
        ],
        title="Figure 7 — client utilization",
    )


# ---------------------------------------------------------------------------
# Figure 8 — server model updates per hour
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig8Result:
    """Server update rate vs concurrency, Sync vs Async."""

    concurrencies: tuple[int, ...]
    sync_steps_per_hour: list[float]
    async_steps_per_hour: list[float]
    async_goal: int


def figure8(
    scale: Scale = DEFAULT,
    duration_h: float | None = None,
    seed: int = 0,
) -> Fig8Result:
    """Update-rate sweep; the paper sees ~30× at concurrency 2300."""
    duration = (duration_h or scale.sim_hours / 2) * 3600.0
    pop = make_population(scale.population, seed=seed)
    sync_rates, async_rates = [], []
    for conc in scale.concurrency_sweep:
        sync_sim = _sync_sim(_sync_goal(conc), pop, scale, seed=seed)
        sync_rates.append(sync_sim.run(t_end=duration).trace.steps_per_hour("sync"))
        async_sim = _async_sim(conc, scale.base_goal, pop, scale, seed=seed + 1)
        async_rates.append(async_sim.run(t_end=duration).trace.steps_per_hour("async"))
    return Fig8Result(
        concurrencies=scale.concurrency_sweep,
        sync_steps_per_hour=sync_rates,
        async_steps_per_hour=async_rates,
        async_goal=scale.base_goal,
    )


def print_figure8(res: Fig8Result) -> None:
    """Render Figure 8 as text."""
    rows = [
        [c, s, a, (a / s if s > 0 else float("inf"))]
        for c, s, a in zip(
            res.concurrencies, res.sync_steps_per_hour, res.async_steps_per_hour
        )
    ]
    print_table(
        ["concurrency", "sync steps/h", f"async steps/h (K={res.async_goal})", "ratio"],
        rows,
        title="Figure 8 — server model updates per hour",
    )


# ---------------------------------------------------------------------------
# Figure 9 — convergence speed and communication efficiency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig9Row:
    """One concurrency level of the headline comparison."""

    concurrency: int
    sync_hours: float | None
    async_hours: float | None
    speedup: float | None
    sync_trips: int
    async_trips: int
    trip_ratio: float | None


@dataclass(frozen=True)
class Fig9Result:
    """AsyncFL vs SyncFL: hours to target, speedup, communication trips."""

    rows: list[Fig9Row]
    target_loss: float


def figure9(
    scale: Scale = DEFAULT,
    target_loss: float = DEFAULT_TARGET_LOSS,
    seed: int = 0,
) -> Fig9Result:
    """The paper's headline: async up to 5× faster, 8× fewer trips."""
    pop = make_population(scale.population, seed=seed)
    rows = []
    for conc in scale.concurrency_sweep:
        sync_sim = _sync_sim(_sync_goal(conc), pop, scale, seed=seed)
        sync_res = sync_sim.run(t_end=scale.sim_seconds * 4, target_loss=target_loss)
        sync_t = sync_res.stats("sync").time_to_target

        async_sim = _async_sim(conc, scale.base_goal, pop, scale, seed=seed + 1)
        async_res = async_sim.run(t_end=scale.sim_seconds * 4, target_loss=target_loss)
        async_t = async_res.stats("async").time_to_target

        sync_trips = _trips_until(sync_res, "sync", sync_t)
        async_trips = _trips_until(async_res, "async", async_t)
        rows.append(
            Fig9Row(
                concurrency=conc,
                sync_hours=None if sync_t is None else sync_t / 3600.0,
                async_hours=None if async_t is None else async_t / 3600.0,
                speedup=(
                    sync_t / async_t
                    if sync_t is not None and async_t is not None and async_t > 0
                    else None
                ),
                sync_trips=sync_trips,
                async_trips=async_trips,
                trip_ratio=(
                    sync_trips / async_trips if async_trips > 0 else None
                ),
            )
        )
    return Fig9Result(rows=rows, target_loss=target_loss)


def print_figure9(res: Fig9Result) -> None:
    """Render Figure 9 as text."""
    print_table(
        ["concurrency", "sync (h)", "async (h)", "speedup",
         "sync trips", "async trips", "trip ratio"],
        [
            [r.concurrency,
             "n/a" if r.sync_hours is None else r.sync_hours,
             "n/a" if r.async_hours is None else r.async_hours,
             "n/a" if r.speedup is None else r.speedup,
             r.sync_trips, r.async_trips,
             "n/a" if r.trip_ratio is None else r.trip_ratio]
            for r in res.rows
        ],
        title=f"Figure 9 — time/communication to target loss {res.target_loss}",
    )


# ---------------------------------------------------------------------------
# Figure 10 — effect of the aggregation goal K
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig10Row:
    """One aggregation-goal setting at fixed concurrency."""

    goal: int
    time_to_target_h: float | None
    steps_per_hour: float


@dataclass(frozen=True)
class Fig10Result:
    """Async convergence time and update rate vs K (fixed concurrency)."""

    rows: list[Fig10Row]
    concurrency: int
    target_loss: float


def figure10(
    scale: Scale = DEFAULT,
    target_loss: float = DEFAULT_TARGET_LOSS,
    seed: int = 0,
) -> Fig10Result:
    """K sweep at fixed concurrency (paper: C=1300, K=100…1300)."""
    pop = make_population(scale.population, seed=seed)
    conc = scale.base_concurrency
    rows = []
    for goal in scale.goal_sweep:
        if goal > conc:
            continue
        sim = _async_sim(conc, goal, pop, scale, seed=seed)
        res = sim.run(t_end=scale.sim_seconds * 4, target_loss=target_loss)
        t = res.stats("async").time_to_target
        rows.append(
            Fig10Row(
                goal=goal,
                time_to_target_h=None if t is None else t / 3600.0,
                steps_per_hour=res.trace.steps_per_hour("async"),
            )
        )
    return Fig10Result(rows=rows, concurrency=conc, target_loss=target_loss)


def print_figure10(res: Fig10Result) -> None:
    """Render Figure 10 as text."""
    print_table(
        ["K", "hours to target", "server steps/h"],
        [
            [r.goal,
             "n/a" if r.time_to_target_h is None else r.time_to_target_h,
             r.steps_per_hour]
            for r in res.rows
        ],
        title=(
            f"Figure 10 — aggregation goal sweep at concurrency "
            f"{res.concurrency} (target {res.target_loss})"
        ),
    )


# ---------------------------------------------------------------------------
# Figure 11 — sampling bias from over-selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig11Result:
    """Participant distributions and KS tests against the ground truth."""

    truth_exec: np.ndarray          # SyncFL w/o OS = unbiased reference
    sync_os_exec: np.ndarray
    async_exec: np.ndarray
    truth_examples: np.ndarray
    sync_os_examples: np.ndarray
    async_examples: np.ndarray
    ks_async_exec: KSResult
    ks_sync_os_exec: KSResult
    ks_async_examples: KSResult
    ks_sync_os_examples: KSResult


def figure11(
    scale: Scale = DEFAULT,
    duration_h: float | None = None,
    seed: int = 0,
) -> Fig11Result:
    """Who actually gets aggregated, with and without over-selection."""
    duration = (duration_h or scale.sim_hours) * 3600.0
    pop = make_population(scale.population, seed=seed)
    conc = scale.base_concurrency
    goal = _sync_goal(conc)

    def aggregated_arrays(res: RunResult, task: str) -> tuple[np.ndarray, np.ndarray]:
        parts = [
            p for p in res.trace.participations
            if p.task == task and p.outcome is Outcome.AGGREGATED
        ]
        return (
            np.array([p.execution_time for p in parts]),
            np.array([p.n_examples for p in parts], dtype=float),
        )

    truth_res = _sync_sim(goal, pop, scale, seed=seed,
                          over_selection=0.0).run(t_end=duration)
    os_res = _sync_sim(goal, pop, scale, seed=seed,
                       over_selection=OVER_SELECTION).run(t_end=duration)
    async_res = _async_sim(conc, scale.base_goal, pop, scale,
                           seed=seed).run(t_end=duration)

    truth_exec, truth_n = aggregated_arrays(truth_res, "sync")
    os_exec, os_n = aggregated_arrays(os_res, "sync")
    a_exec, a_n = aggregated_arrays(async_res, "async")
    return Fig11Result(
        truth_exec=truth_exec, sync_os_exec=os_exec, async_exec=a_exec,
        truth_examples=truth_n, sync_os_examples=os_n, async_examples=a_n,
        ks_async_exec=ks_two_sample(a_exec, truth_exec),
        ks_sync_os_exec=ks_two_sample(os_exec, truth_exec),
        ks_async_examples=ks_two_sample(a_n, truth_n),
        ks_sync_os_examples=ks_two_sample(os_n, truth_n),
    )


def print_figure11(res: Fig11Result) -> None:
    """Render Figure 11 as text."""
    print_table(
        ["sample vs ground truth", "KS D", "p-value", "distinguishable?"],
        [
            ["AsyncFL exec time", res.ks_async_exec.statistic,
             res.ks_async_exec.pvalue, not res.ks_async_exec.matches()],
            ["SyncFL w/ OS exec time", res.ks_sync_os_exec.statistic,
             res.ks_sync_os_exec.pvalue, not res.ks_sync_os_exec.matches()],
            ["AsyncFL #examples", res.ks_async_examples.statistic,
             res.ks_async_examples.pvalue, not res.ks_async_examples.matches()],
            ["SyncFL w/ OS #examples", res.ks_sync_os_examples.statistic,
             res.ks_sync_os_examples.pvalue, not res.ks_sync_os_examples.matches()],
        ],
        title="Figure 11 — sampling bias (KS vs SyncFL w/o over-selection)",
    )
    print_table(
        ["population", "mean exec (s)", "mean #examples"],
        [
            ["ground truth (sync w/o OS)", float(res.truth_exec.mean()),
             float(res.truth_examples.mean())],
            ["SyncFL w/ OS", float(res.sync_os_exec.mean()),
             float(res.sync_os_examples.mean())],
            ["AsyncFL", float(res.async_exec.mean()),
             float(res.async_examples.mean())],
        ],
    )


# ---------------------------------------------------------------------------
# Figures 12 & 13 — decomposing AsyncFL's advantage
# ---------------------------------------------------------------------------

FOUR_CONFIGS = ("async_small_k", "async_big_k", "sync_with_os", "sync_without_os")


@dataclass(frozen=True)
class Fig12Result:
    """Training curves of the four configurations of Figure 12."""

    curves: dict[str, tuple[np.ndarray, np.ndarray]]
    concurrency: int
    small_goal: int
    big_goal: int


def _four_config_sims(
    scale: Scale, pop: DevicePopulation, seed: int
) -> dict[str, FederatedSimulation]:
    """The four configurations the paper compares at goal=1000/C=1300."""
    conc = scale.base_concurrency
    big_goal = _sync_goal(conc)  # e.g. 1000 at paper scale
    return {
        "async_small_k": _async_sim(conc, scale.base_goal, pop, scale, seed=seed),
        "async_big_k": _async_sim(conc, big_goal, pop, scale, seed=seed),
        "sync_with_os": _sync_sim(big_goal, pop, scale, seed=seed,
                                  over_selection=OVER_SELECTION),
        "sync_without_os": _sync_sim(big_goal, pop, scale, seed=seed,
                                     over_selection=0.0),
    }


def figure12(
    scale: Scale = DEFAULT,
    duration_h: float | None = None,
    seed: int = 0,
) -> Fig12Result:
    """Training curves: frequent steps vs staleness vs sampling bias."""
    duration = (duration_h or scale.sim_hours) * 3600.0
    pop = make_population(scale.population, seed=seed)
    curves = {}
    for name, sim in _four_config_sims(scale, pop, seed).items():
        res = sim.run(t_end=duration)
        task = next(iter(res.task_stats))
        curves[name] = res.trace.loss_curve(task)
    return Fig12Result(
        curves=curves,
        concurrency=scale.base_concurrency,
        small_goal=scale.base_goal,
        big_goal=_sync_goal(scale.base_concurrency),
    )


def print_figure12(res: Fig12Result) -> None:
    """Render Figure 12 as text."""
    for name, (times, losses) in res.curves.items():
        if len(times):
            print_series(f"{name:16s}", times, losses)
    rows = []
    for name, (times, losses) in res.curves.items():
        rows.append([name, len(times), losses[-1] if len(losses) else float("nan")])
    print_table(["configuration", "server steps", "final loss"], rows,
                title="Figure 12 — training curves")


@dataclass(frozen=True)
class Fig13Result:
    """Hours-to-target for the four configurations (bar chart)."""

    hours: dict[str, float | None]
    target_loss: float


def figure13(
    scale: Scale = DEFAULT,
    target_loss: float = DEFAULT_TARGET_LOSS,
    seed: int = 0,
) -> Fig13Result:
    """Time to target for the four Figure 12 configurations."""
    pop = make_population(scale.population, seed=seed)
    hours: dict[str, float | None] = {}
    for name, sim in _four_config_sims(scale, pop, seed).items():
        res = sim.run(t_end=scale.sim_seconds * 6, target_loss=target_loss)
        task = next(iter(res.task_stats))
        t = res.task_stats[task].time_to_target
        hours[name] = None if t is None else t / 3600.0
    return Fig13Result(hours=hours, target_loss=target_loss)


def print_figure13(res: Fig13Result) -> None:
    """Render Figure 13 as text."""
    print_table(
        ["configuration", "hours to target"],
        [[k, "n/a" if v is None else v] for k, v in res.hours.items()],
        title=f"Figure 13 — hours to target loss {res.target_loss}",
    )


# ---------------------------------------------------------------------------
# Table 1 — model quality and fairness under real training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Row:
    """One method's quality/fairness numbers."""

    method: str
    ppl_all: float
    ppl_75: float
    ppl_99: float
    time_h: float
    client_updates: int


@dataclass(frozen=True)
class Table1Result:
    """Test perplexity by data-volume percentile after a fixed update budget."""

    rows: list[Table1Row]


def _percentile_clients(
    pop: DevicePopulation, n_sample: int, seed: int
) -> tuple[list[int], list[int], list[int]]:
    """Client id groups: all, ≥75th percentile, ≥99th percentile by data volume."""
    rng = child_rng(seed, "table1-percentiles")
    profiles = pop.sample_profiles(n_sample, rng)
    counts = np.array([p.n_examples for p in profiles])
    p75, p99 = np.percentile(counts, 75), np.percentile(counts, 99)
    all_ids = [p.device_id for p in profiles]
    ids75 = [p.device_id for p in profiles if p.n_examples >= p75]
    ids99 = [p.device_id for p in profiles if p.n_examples >= p99]
    return all_ids, ids75, ids99


def table1(
    update_budget: int = 400,
    concurrency: int = 16,
    async_goal: int = 4,
    population_size: int = 400,
    vocab_size: int = 24,
    server_lr: float = 0.1,
    client_lr: float = 1.0,
    seed: int = 0,
) -> Table1Result:
    """Real-training fairness comparison (scaled-down Table 1).

    Three methods — SyncFL without over-selection, SyncFL with 30 %
    over-selection, AsyncFL — each train the same NumPy LSTM until
    ``update_budget`` client updates have been aggregated; test perplexity
    is then measured for all clients and for the 75th / 99th data-volume
    percentiles (the paper's fairness slice).
    """
    model_cfg = ModelConfig(vocab_size=vocab_size, embed_dim=8, hidden_dim=16)
    corpus = TopicMarkovCorpus(
        CorpusSpec(
            vocab_size=vocab_size,
            seq_len=10,
            volume_topic_coupling=0.8,
            reference_examples=20.0,
        ),
        seed=seed,
    )
    pop = make_population(
        population_size, seed=seed, mean_examples=20.0, max_examples=80
    )
    all_ids, ids75, ids99 = _percentile_clients(pop, min(200, population_size), seed)

    def run_method(name: str, mode: TrainingMode, goal: int, over: float) -> Table1Row:
        dataset = FederatedDataset(corpus)
        model = LSTMLanguageModel(model_cfg, seed=seed)
        state = GlobalModelState(model.get_flat(), FedAdam(lr=server_lr))
        trainer = LocalTrainer(model_cfg, lr=client_lr, batch_size=8, seed=seed)
        eval_ids = all_ids[:24]
        adapter = RealTrainingAdapter(
            trainer, dataset, state,
            eval_clients=eval_ids,
            eval_examples=[pop.profile(i).n_examples for i in eval_ids],
            eval_every=5,
        )
        conc = concurrency if mode is TrainingMode.ASYNC else int(
            math.ceil(goal * (1.0 + over))
        )
        spec = ScenarioSpec(
            population=PopulationSpec.from_population(pop),
            tasks=(
                TaskSpec(
                    name=name, mode=mode.value, concurrency=conc,
                    aggregation_goal=goal, over_selection=over,
                    model_size_bytes=200_000, trainer="external",
                ),
            ),
            execution=ExecutionSpec(seed=seed),
        )
        fs = Deployment.from_spec(
            spec, population=pop, adapters={name: adapter}
        ).build()
        max_steps = max(1, update_budget // goal)
        res = fs.run(t_end=3e6, max_server_steps=max_steps)

        def ppl(ids: list[int]) -> float:
            return adapter.perplexity_for_clients(
                ids, [pop.profile(i).n_examples for i in ids]
            )

        return Table1Row(
            method=name,
            ppl_all=ppl(all_ids[:60]),
            ppl_75=ppl(ids75[:40]),
            ppl_99=ppl(ids99[:20] if ids99 else ids75[:5]),
            time_h=res.duration_s / 3600.0,
            client_updates=res.stats(name).aggregated,
        )

    rows = [
        run_method("sync_no_os", TrainingMode.SYNC, concurrency, 0.0),
        run_method("sync_with_os", TrainingMode.SYNC, concurrency, OVER_SELECTION),
        run_method("async", TrainingMode.ASYNC, async_goal, 0.0),
    ]
    return Table1Result(rows=rows)


def print_table1(res: Table1Result) -> None:
    """Render Table 1 as text."""
    print_table(
        ["method", "ppl All", "ppl 75%", "ppl 99%", "time (h)", "updates"],
        [
            [r.method, r.ppl_all, r.ppl_75, r.ppl_99, r.time_h, r.client_updates]
            for r in res.rows
        ],
        title="Table 1 — test perplexity by data-volume percentile",
    )


# ---------------------------------------------------------------------------
# Registry wiring — every figure/table becomes a first-class experiment
# ---------------------------------------------------------------------------
#
# Runners are the figure functions themselves (module-level, so sweep
# worker processes can pickle and re-import them); ``ExperimentSpec.run``
# passes ``scale=`` / ``seed=`` only to the ones that declare a use for them.

def _run_table1(seed: int = 0, **params) -> Table1Result:
    params.setdefault("update_budget", 800)
    params.setdefault("server_lr", 0.05)
    return table1(seed=seed, **params)


def _register_all() -> None:
    specs = [
        registry.ExperimentSpec(
            "fig2", figure2, print_figure2, Fig2Result,
            description="client execution-time distribution vs round duration",
            uses_scale=False),
        registry.ExperimentSpec(
            "fig3", figure3, print_figure3, Fig3Result,
            description="SyncFL time-to-target & comm trips vs concurrency"),
        registry.ExperimentSpec(
            "fig6", figure6, print_figure6, Fig6Result,
            description="host-TEE transfer time vs aggregation goal",
            uses_seed=False, uses_scale=False),
        registry.ExperimentSpec(
            "fig7", figure7, print_figure7, Fig7Result,
            description="active clients over time, Sync vs Async"),
        registry.ExperimentSpec(
            "fig8", figure8, print_figure8, Fig8Result,
            description="server model updates per hour vs concurrency"),
        registry.ExperimentSpec(
            "fig9", figure9, print_figure9, Fig9Result,
            description="time-to-target, speedup, comm trips vs concurrency"),
        registry.ExperimentSpec(
            "fig10", figure10, print_figure10, Fig10Result,
            description="time-to-target & update rate vs aggregation goal K"),
        registry.ExperimentSpec(
            "fig11", figure11, print_figure11, Fig11Result,
            description="participant distributions ± over-selection, KS tests"),
        registry.ExperimentSpec(
            "fig12", figure12, print_figure12, Fig12Result,
            description="training curves for the four configurations"),
        registry.ExperimentSpec(
            "fig13", figure13, print_figure13, Fig13Result,
            description="hours-to-target for the four configurations"),
        registry.ExperimentSpec(
            "table1", _run_table1, print_table1, Table1Result,
            description="test perplexity by data-volume percentile",
            uses_scale=False),
    ]
    for spec in specs:
        registry.register(spec, replace=True)


_register_all()
