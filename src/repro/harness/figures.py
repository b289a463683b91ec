"""Regenerators for every figure and table in the paper's evaluation.

Each ``figure*``/``table1`` function runs the corresponding experiment at
a configurable scale and returns a structured result whose fields are the
series/rows of the original plot.  ``print_*`` companions render them as
text.  The pytest-benchmark modules under ``benchmarks/`` call these with
the SMOKE scale and assert the paper's qualitative claims (who wins, by
roughly what factor, where the crossovers are).

Every simulated arm is one complete :class:`~repro.api.ScenarioSpec` from
the :mod:`repro.harness.runner` templates, horizon and stop conditions
included, run as ``Deployment.from_spec(spec, population=pop).run()``
against the figure's one built population; a reducer turns each
:class:`~repro.system.orchestrator.RunResult` into a row.

The registry table at the end of this module indexes them: experiment
name (``fig2`` … ``fig13``, ``table1``) → regenerator, printer, result
type and one-line description of the paper's figure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import Deployment, ScenarioSpec
from repro.core.server_opt import FedAdam
from repro.core.state import GlobalModelState
from repro.core.client_trainer import LocalTrainer
from repro.data.federated import FederatedDataset
from repro.data.synthetic_text import CorpusSpec, TopicMarkovCorpus
from repro.harness import registry
from repro.harness.configs import DEFAULT, Scale, MODEL_BYTES_20MB
from repro.harness.ks import KSResult, ks_two_sample
from repro.harness.report import print_points, print_series, print_table
from repro.harness.runner import (
    DEFAULT_TARGET_LOSS,
    async_scenario,
    four_configs,
    make_population,
    run_to_target,
    sync_goal,
    sync_scenario,
    sync_vs_async,
)
from repro.nn.model import LSTMLanguageModel, ModelConfig
from repro.secagg.protocol import BoundaryCostModel
from repro.sim.population import DevicePopulation
from repro.sim.trace import Outcome
from repro.system.adapters import RealTrainingAdapter
from repro.utils.rng import child_rng

__all__ = [
    "figure2", "figure3", "figure6", "figure7", "figure8", "figure9",
    "figure10", "figure11", "figure12", "figure13", "table1",
    "Fig2Result", "Fig3Result", "Fig6Result", "Fig7Result", "Fig8Result",
    "Fig9Result", "Fig10Result", "Fig11Result", "Fig12Result", "Fig13Result",
    "Table1Result",
]


def _hours(t: float | None) -> float | None:
    return None if t is None else t / 3600.0


# Figure 2 — execution-time heterogeneity and the straggler effect
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


def figure2(population: DevicePopulation | None = None, cohort: int = 1000,
            n_rounds: int = 30, n_hist_samples: int = 20_000, seed: int = 0) -> Fig2Result:
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

    mean_round = float(np.mean([
        rng.choice(times, size=min(cohort, times.size), replace=False).max()
        for _ in range(n_rounds)
    ]))
    mean_client = float(times.mean())
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


# Figure 3 — SyncFL scaling limits
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


def figure3(scale: Scale = DEFAULT, target_loss: float = DEFAULT_TARGET_LOSS,
            seed: int = 0) -> Fig3Result:
    """SyncFL-only concurrency sweep (the motivation experiment)."""
    pop = make_population(scale.population, seed=seed)
    points = []
    for conc in scale.concurrency_sweep:
        goal = sync_goal(conc)
        t, trips, rate = run_to_target(sync_scenario(
            goal, pop, seed=seed, surrogate=scale.surrogate,
            target_loss=target_loss, t_end_s=scale.sim_seconds * 4), pop)
        points.append(SweepPoint(conc, goal, _hours(t), trips, rate))
    return Fig3Result(points=points, target_loss=target_loss)


def print_figure3(res: Fig3Result) -> None:
    """Render Figure 3 as text."""
    print_points(
        [("concurrency", "concurrency"), ("goal", "goal"),
         ("hours to target", "time_to_target_h"), ("comm trips", "comm_trips"),
         ("steps/h", "steps_per_hour")],
        res.points,
        title=f"Figure 3 — SyncFL scaling (target loss {res.target_loss})",
    )


# Figure 6 — TEE boundary-transfer time
@dataclass(frozen=True)
class Fig6Result:
    """Naive TSA vs Asynchronous SecAgg boundary transfer times."""

    goals: tuple[int, ...]
    naive_ms: list[float]
    async_ms: list[float]
    model_bytes: int


def figure6(goals: tuple[int, ...] = (10, 50, 100, 500, 1000),
            model_bytes: int = MODEL_BYTES_20MB,
            cost_model: BoundaryCostModel | None = None) -> Fig6Result:
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
    print_table(
        ["K", "naive TSA (ms)", "AsyncSecAgg (ms)", "ratio"],
        [[k, n, a, n / a] for k, n, a in zip(res.goals, res.naive_ms, res.async_ms)],
        title=f"Figure 6 — TEE boundary transfer time, {res.model_bytes >> 20} MB model",
    )


# Figure 7 — client utilization over time
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


def figure7(scale: Scale = DEFAULT, duration_h: float | None = None,
            seed: int = 0) -> Fig7Result:
    """Active clients over time at equal max concurrency (paper: 1300)."""
    duration = (duration_h or scale.sim_hours / 2) * 3600.0
    conc = scale.base_concurrency
    pop = make_population(scale.population, seed=seed)
    sync_res, async_res = (
        Deployment.from_spec(spec, population=pop).run()
        for spec in sync_vs_async(scale, pop, conc, seed, t_end_s=duration)
    )
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


# Figure 8 — server model updates per hour
@dataclass(frozen=True)
class Fig8Result:
    """Server update rate vs concurrency, Sync vs Async."""

    concurrencies: tuple[int, ...]
    sync_steps_per_hour: list[float]
    async_steps_per_hour: list[float]
    async_goal: int


def figure8(scale: Scale = DEFAULT, duration_h: float | None = None,
            seed: int = 0) -> Fig8Result:
    """Update-rate sweep; the paper sees ~30× at concurrency 2300."""
    duration = (duration_h or scale.sim_hours / 2) * 3600.0
    pop = make_population(scale.population, seed=seed)
    sync_rates, async_rates = [], []
    for conc in scale.concurrency_sweep:
        arms = sync_vs_async(scale, pop, conc, seed, t_end_s=duration)
        for rates, spec in zip((sync_rates, async_rates), arms):
            res = Deployment.from_spec(spec, population=pop).run()
            rates.append(res.trace.steps_per_hour(spec.tasks[0].name))
    return Fig8Result(
        concurrencies=scale.concurrency_sweep,
        sync_steps_per_hour=sync_rates,
        async_steps_per_hour=async_rates,
        async_goal=scale.base_goal,
    )


def print_figure8(res: Fig8Result) -> None:
    """Render Figure 8 as text."""
    print_table(
        ["concurrency", "sync steps/h", f"async steps/h (K={res.async_goal})", "ratio"],
        [[c, s, a, (a / s if s > 0 else float("inf"))] for c, s, a in zip(
            res.concurrencies, res.sync_steps_per_hour, res.async_steps_per_hour)],
        title="Figure 8 — server model updates per hour",
    )


# Figure 9 — convergence speed and communication efficiency
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


def figure9(scale: Scale = DEFAULT, target_loss: float = DEFAULT_TARGET_LOSS,
            seed: int = 0) -> Fig9Result:
    """The paper's headline: async up to 5× faster, 8× fewer trips."""
    pop = make_population(scale.population, seed=seed)
    rows = []
    for conc in scale.concurrency_sweep:
        (sync_t, sync_trips, _), (async_t, async_trips, _) = (
            run_to_target(spec, pop)
            for spec in sync_vs_async(scale, pop, conc, seed, target_loss=target_loss,
                                       t_end_s=scale.sim_seconds * 4)
        )
        rows.append(Fig9Row(
            concurrency=conc,
            sync_hours=_hours(sync_t),
            async_hours=_hours(async_t),
            speedup=(sync_t / async_t
                     if sync_t is not None and async_t is not None and async_t > 0
                     else None),
            sync_trips=sync_trips,
            async_trips=async_trips,
            trip_ratio=sync_trips / async_trips if async_trips > 0 else None,
        ))
    return Fig9Result(rows=rows, target_loss=target_loss)


def print_figure9(res: Fig9Result) -> None:
    """Render Figure 9 as text."""
    print_points(
        [("concurrency", "concurrency"), ("sync (h)", "sync_hours"),
         ("async (h)", "async_hours"), ("speedup", "speedup"),
         ("sync trips", "sync_trips"), ("async trips", "async_trips"),
         ("trip ratio", "trip_ratio")],
        res.rows,
        title=f"Figure 9 — time/communication to target loss {res.target_loss}",
    )


# Figure 10 — effect of the aggregation goal K
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


def figure10(scale: Scale = DEFAULT, target_loss: float = DEFAULT_TARGET_LOSS,
             seed: int = 0) -> Fig10Result:
    """K sweep at fixed concurrency (paper: C=1300, K=100…1300)."""
    pop = make_population(scale.population, seed=seed)
    conc = scale.base_concurrency
    rows = []
    for goal in scale.goal_sweep:
        if goal <= conc:
            t, _, rate = run_to_target(async_scenario(
                conc, goal, pop, seed=seed, surrogate=scale.surrogate,
                target_loss=target_loss, t_end_s=scale.sim_seconds * 4), pop)
            rows.append(Fig10Row(goal, _hours(t), rate))
    return Fig10Result(rows=rows, concurrency=conc, target_loss=target_loss)


def print_figure10(res: Fig10Result) -> None:
    """Render Figure 10 as text."""
    print_points(
        [("K", "goal"), ("hours to target", "time_to_target_h"),
         ("server steps/h", "steps_per_hour")],
        res.rows,
        title=(f"Figure 10 — aggregation goal sweep at concurrency "
               f"{res.concurrency} (target {res.target_loss})"),
    )


# Figure 11 — sampling bias from over-selection
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


def figure11(scale: Scale = DEFAULT, duration_h: float | None = None,
             seed: int = 0) -> Fig11Result:
    """Who actually gets aggregated, with and without over-selection."""
    duration = (duration_h or scale.sim_hours) * 3600.0
    pop = make_population(scale.population, seed=seed)
    conc = scale.base_concurrency
    arm = dict(seed=seed, surrogate=scale.surrogate, t_end_s=duration)

    def aggregated(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray]:
        """Execution times and example counts of the aggregated clients."""
        res = Deployment.from_spec(spec, population=pop).run()
        parts = [
            p for p in res.trace.participations
            if p.task == spec.tasks[0].name and p.outcome is Outcome.AGGREGATED
        ]
        return (
            np.array([p.execution_time for p in parts]),
            np.array([p.n_examples for p in parts], dtype=float),
        )

    truth_exec, truth_n = aggregated(
        sync_scenario(sync_goal(conc), pop, over_selection=0.0, **arm))
    os_exec, os_n = aggregated(sync_scenario(sync_goal(conc), pop, **arm))
    a_exec, a_n = aggregated(async_scenario(conc, scale.base_goal, pop, **arm))
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
            [label, ks.statistic, ks.pvalue, not ks.matches()]
            for label, ks in (
                ("AsyncFL exec time", res.ks_async_exec),
                ("SyncFL w/ OS exec time", res.ks_sync_os_exec),
                ("AsyncFL #examples", res.ks_async_examples),
                ("SyncFL w/ OS #examples", res.ks_sync_os_examples),
            )
        ],
        title="Figure 11 — sampling bias (KS vs SyncFL w/o over-selection)",
    )
    print_table(
        ["population", "mean exec (s)", "mean #examples"],
        [
            [label, float(exec_s.mean()), float(examples.mean())]
            for label, exec_s, examples in (
                ("ground truth (sync w/o OS)", res.truth_exec, res.truth_examples),
                ("SyncFL w/ OS", res.sync_os_exec, res.sync_os_examples),
                ("AsyncFL", res.async_exec, res.async_examples),
            )
        ],
    )


# Figures 12 & 13 — decomposing AsyncFL's advantage
@dataclass(frozen=True)
class Fig12Result:
    """Training curves of the four configurations of Figure 12."""

    curves: dict[str, tuple[np.ndarray, np.ndarray]]
    concurrency: int
    small_goal: int
    big_goal: int


def figure12(scale: Scale = DEFAULT, duration_h: float | None = None,
             seed: int = 0) -> Fig12Result:
    """Training curves: frequent steps vs staleness vs sampling bias."""
    duration = (duration_h or scale.sim_hours) * 3600.0
    pop = make_population(scale.population, seed=seed)
    curves = {}
    for name, spec in four_configs(scale, pop, seed, t_end_s=duration).items():
        res = Deployment.from_spec(spec, population=pop).run()
        curves[name] = res.trace.loss_curve(spec.tasks[0].name)
    return Fig12Result(
        curves=curves,
        concurrency=scale.base_concurrency,
        small_goal=scale.base_goal,
        big_goal=sync_goal(scale.base_concurrency),
    )


def print_figure12(res: Fig12Result) -> None:
    """Render Figure 12 as text."""
    for name, (times, losses) in res.curves.items():
        if len(times):
            print_series(f"{name:16s}", times, losses)
    print_table(
        ["configuration", "server steps", "final loss"],
        [[name, len(times), losses[-1] if len(losses) else float("nan")]
         for name, (times, losses) in res.curves.items()],
        title="Figure 12 — training curves",
    )


@dataclass(frozen=True)
class Fig13Result:
    """Hours-to-target for the four configurations (bar chart)."""

    hours: dict[str, float | None]
    target_loss: float


def figure13(scale: Scale = DEFAULT, target_loss: float = DEFAULT_TARGET_LOSS,
             seed: int = 0) -> Fig13Result:
    """Time to target for the four Figure 12 configurations."""
    pop = make_population(scale.population, seed=seed)
    specs = four_configs(scale, pop, seed, target_loss=target_loss,
                          t_end_s=scale.sim_seconds * 6)
    hours = {name: _hours(run_to_target(spec, pop)[0]) for name, spec in specs.items()}
    return Fig13Result(hours=hours, target_loss=target_loss)


def print_figure13(res: Fig13Result) -> None:
    """Render Figure 13 as text."""
    print_points(
        [("configuration", lambda item: item[0]),
         ("hours to target", lambda item: item[1])],
        list(res.hours.items()),
        title=f"Figure 13 — hours to target loss {res.target_loss}",
    )


# Table 1 — model quality and fairness under real training
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


def table1(update_budget: int = 400, concurrency: int = 16, async_goal: int = 4,
           population_size: int = 400, vocab_size: int = 24, server_lr: float = 0.1,
           client_lr: float = 1.0, seed: int = 0) -> Table1Result:
    """Real-training fairness comparison (scaled-down Table 1).

    Three methods — SyncFL without over-selection, SyncFL with 30 %
    over-selection, AsyncFL — each train the same NumPy LSTM until
    ``update_budget`` client updates have been aggregated; test perplexity
    is then measured for all clients and for the 75th / 99th data-volume
    percentiles (the paper's fairness slice).  Each method is a runner
    template with an ``external`` trainer (the LSTM adapter) and its
    budget as ``execution.max_server_steps``.
    """
    model_cfg = ModelConfig(vocab_size=vocab_size, embed_dim=8, hidden_dim=16)
    corpus = TopicMarkovCorpus(
        CorpusSpec(vocab_size=vocab_size, seq_len=10, volume_topic_coupling=0.8,
                   reference_examples=20.0),
        seed=seed,
    )
    pop = make_population(population_size, seed=seed, mean_examples=20.0, max_examples=80)

    # Client id groups: all, ≥75th and ≥99th percentile by data volume.
    profiles = pop.sample_profiles(
        min(200, population_size), child_rng(seed, "table1-percentiles")
    )
    p75, p99 = np.percentile([p.n_examples for p in profiles], [75, 99])
    all_ids = [p.device_id for p in profiles]
    ids75 = [p.device_id for p in profiles if p.n_examples >= p75]
    ids99 = [p.device_id for p in profiles if p.n_examples >= p99]

    def ppl(adapter: RealTrainingAdapter, ids: list[int]) -> float:
        return adapter.perplexity_for_clients(
            ids, [pop.profile(i).n_examples for i in ids]
        )

    rows = []
    for name, template in (
        ("sync_no_os", sync_scenario(concurrency, pop, over_selection=0.0, seed=seed)),
        ("sync_with_os", sync_scenario(concurrency, pop, seed=seed)),
        ("async", async_scenario(concurrency, async_goal, pop, seed=seed)),
    ):
        spec = template.with_overrides({
            "tasks.0.name": name,
            "tasks.0.trainer": "external",
            "tasks.0.model_size_bytes": 200_000,
            "execution.t_end_s": 3e6,
            "execution.max_server_steps": max(
                1, update_budget // template.tasks[0].aggregation_goal
            ),
        })
        eval_ids = all_ids[:24]
        adapter = RealTrainingAdapter(
            LocalTrainer(model_cfg, lr=client_lr, batch_size=8, seed=seed),
            FederatedDataset(corpus),
            GlobalModelState(
                LSTMLanguageModel(model_cfg, seed=seed).get_flat(), FedAdam(lr=server_lr)
            ),
            eval_clients=eval_ids,
            eval_examples=[pop.profile(i).n_examples for i in eval_ids],
            eval_every=5,
        )
        res = Deployment.from_spec(spec, population=pop, adapters={name: adapter}).run()
        rows.append(Table1Row(
            method=name,
            ppl_all=ppl(adapter, all_ids[:60]),
            ppl_75=ppl(adapter, ids75[:40]),
            ppl_99=ppl(adapter, ids99[:20] if ids99 else ids75[:5]),
            time_h=res.duration_s / 3600.0,
            client_updates=res.stats(name).aggregated,
        ))
    return Table1Result(rows=rows)


def print_table1(res: Table1Result) -> None:
    """Render Table 1 as text."""
    print_points(
        [("method", "method"), ("ppl All", "ppl_all"), ("ppl 75%", "ppl_75"),
         ("ppl 99%", "ppl_99"), ("time (h)", "time_h"), ("updates", "client_updates")],
        res.rows,
        title="Table 1 — test perplexity by data-volume percentile",
    )


# Registry wiring — every figure/table becomes a first-class experiment
#
# Runners are the figure functions themselves (module-level, so sweep
# worker processes can pickle and re-import them); ``ExperimentSpec.run``
# passes ``scale=`` / ``seed=`` only to the ones that declare a use for them.

def _run_table1(seed: int = 0, **params) -> Table1Result:
    params.setdefault("update_budget", 800)
    params.setdefault("server_lr", 0.05)
    return table1(seed=seed, **params)


def _register_all() -> None:
    for name, runner, printer, result, description, flags in (
        ("fig2", figure2, print_figure2, Fig2Result,
         "client execution-time distribution vs round duration", {"uses_scale": False}),
        ("fig3", figure3, print_figure3, Fig3Result,
         "SyncFL time-to-target & comm trips vs concurrency", {}),
        ("fig6", figure6, print_figure6, Fig6Result,
         "host-TEE transfer time vs aggregation goal",
         {"uses_seed": False, "uses_scale": False}),
        ("fig7", figure7, print_figure7, Fig7Result,
         "active clients over time, Sync vs Async", {}),
        ("fig8", figure8, print_figure8, Fig8Result,
         "server model updates per hour vs concurrency", {}),
        ("fig9", figure9, print_figure9, Fig9Result,
         "time-to-target, speedup, comm trips vs concurrency", {}),
        ("fig10", figure10, print_figure10, Fig10Result,
         "time-to-target & update rate vs aggregation goal K", {}),
        ("fig11", figure11, print_figure11, Fig11Result,
         "participant distributions ± over-selection, KS tests", {}),
        ("fig12", figure12, print_figure12, Fig12Result,
         "training curves for the four configurations", {}),
        ("fig13", figure13, print_figure13, Fig13Result,
         "hours-to-target for the four configurations", {}),
        ("table1", _run_table1, print_table1, Table1Result,
         "test perplexity by data-volume percentile", {"uses_scale": False}),
    ):
        registry.register(
            registry.ExperimentSpec(name, runner, printer, result,
                                    description=description, **flags),
            replace=True,
        )


_register_all()
