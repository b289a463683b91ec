"""Sweep-layer performance experiments: one comparison kit, five arm sets.

Every experiment here is one shape — a *reference* and a *candidate*
driven over a grid on identical inputs, reporting their ratio next to
columns that say the two computed the same thing.  What each experiment
measures, its swept axes and how to read its columns is documented once,
in ``docs/EXPERIMENTS.md`` (sections ``cohort``, ``secagg``, ``shards``,
``secure_shards``, ``million``); a ratio here describes a subsystem
against its own reference, and ``benchmarks/e2e/`` remains the only
basis for a whole-run performance claim.

The shared kit is private to this module: :func:`_best_of` (the
best-of-``repeats`` loop), :func:`_ratio`, :func:`_drive` (one arrival
stream through any aggregation plane, timing the data plane only),
:func:`_model_state` and one column table per experiment rendered by
:func:`repro.harness.report.print_points`.  All five run and sweep
through the harness layer (``python -m repro.harness sweep <name>
--json out.json``), so before/after JSON reports land in the same
cache + CI-artifact pipeline as every figure.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.client_trainer import LocalTrainer
from repro.core.cohort import CohortRequest, CohortTrainer
from repro.core.fedbuff import FedBuffAggregator
from repro.core.parallel import ProcessShardedFedBuffAggregator, ShardWorkerPool
from repro.core.server_opt import FedAdam
from repro.core.sharding import AggregationPlaneClock
from repro.core.state import GlobalModelState
from repro.core.types import TrainingResult
from repro.data.federated import FederatedDataset
from repro.data.synthetic_text import CorpusSpec, TopicMarkovCorpus
from repro.api import PopulationSpec, build_population
from repro.harness import registry
from repro.harness.configs import Scale
from repro.harness.report import print_points
from repro.nn.model import LSTMLanguageModel, ModelConfig
from repro.sim.fleet import FleetConfig, FleetSimulation
from repro.sim.trace import BoundedMetricsTrace
from repro.secagg.attestation import SigningAuthority
from repro.secagg.client import SecAggClient
from repro.secagg.fixedpoint import FixedPointCodec
from repro.secagg.groups import PowerOfTwoGroup
from repro.secagg.prng import expand_mask
from repro.secagg.server import SecAggServer
from repro.secagg.tsa import TrustedSecureAggregator
from repro.system.secure import SecureBufferedAggregator
from repro.system.secure_sharding import ProcessSecureShardedAggregator
from repro.utils.rng import child_rng

__all__ = [
    "CohortPoint",
    "CohortResult",
    "cohort_speedup",
    "print_cohort",
    "SecAggPoint",
    "SecAggResult",
    "secagg_speedup",
    "print_secagg",
    "ShardPoint",
    "ShardsResult",
    "shards_speedup",
    "print_shards",
    "SecureShardPoint",
    "SecureShardsResult",
    "secure_shards_speedup",
    "print_secure_shards",
    "MillionPoint",
    "MillionResult",
    "million_scaling",
    "print_million",
]


# ---------------------------------------------------------------------------
# The comparison kit every experiment below is written in
# ---------------------------------------------------------------------------

def _timed(fn, *args):
    """``(wall-clock seconds, fn(*args))``."""
    t0 = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - t0, value


def _best_of(repeats: int, arm):
    """Run ``arm() -> (seconds, value)`` ``repeats`` times (at least once).

    Returns the smallest ``seconds`` and the last repeat's ``value`` —
    arms are deterministic, so any repeat's value is *the* value.
    """
    best, value = float("inf"), None
    for _ in range(max(1, repeats)):
        seconds, value = arm()
        best = min(best, seconds)
    return best, value


def _ratio(reference: float, candidate: float) -> float:
    """``reference / candidate``; a zero-cost candidate is infinitely better."""
    return reference / candidate if candidate > 0 else float("inf")


def _ms(field: str):
    """Column getter: a seconds attribute rendered in milliseconds."""
    return lambda point: getattr(point, field) * 1e3


def _model_state(label: str, vector_length: int, seed: int) -> GlobalModelState:
    """The aggregation-plane fixture: a seeded float32 model under FedAdam."""
    return GlobalModelState(
        child_rng(seed, label).standard_normal(vector_length).astype(np.float32),
        FedAdam(lr=0.1),
    )


def _arrival_stream(population: int, arrivals: int, vector_length: int, rng):
    """Client-id sequence (waves of unique ids) + their training results."""
    ids: list[int] = []
    while len(ids) < arrivals:
        wave = rng.permutation(population)[: arrivals - len(ids)]
        ids.extend(int(i) for i in wave)
    return [
        TrainingResult(
            client_id=cid,
            delta=rng.standard_normal(vector_length).astype(np.float32),
            num_examples=int(rng.integers(1, 50)),
            train_loss=float(rng.random()),
            initial_version=0,
        )
        for cid in ids
    ]


def _drive(agg, results, *, drain: bool = False) -> float:
    """Drive one arrival stream through ``agg``; returns data-plane seconds.

    Each client registers immediately before its upload, re-stamped at
    the plane's current version, so every arm admits with identical
    staleness and weights.  Only ``receive_update`` (admission + fold +
    any step or epoch finalize) is timed — the per-arrival
    ``register_download`` (in-flight bookkeeping; the model snapshot is
    shared, not copied) is selection-time control plane, excluded from
    every arm identically.  With ``drain`` a final worker
    barrier is paid for inside the measurement (process arms: dispatched
    folds of the trailing incomplete buffer are real work).  Arms with an
    :class:`~repro.core.sharding.AggregationPlaneClock` read its critical
    path instead of this return value.
    """
    elapsed = 0.0
    for r in results:
        agg.register_download(r.client_id)
        arrival = TrainingResult(r.client_id, r.delta, r.num_examples,
                                 r.train_loss, agg.version)
        elapsed += _timed(agg.receive_update, arrival)[0]
    if drain:
        elapsed += _timed(agg.drain)[0]
    return elapsed


# ---------------------------------------------------------------------------
# Cohort engine: batched vs scalar local training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohortPoint:
    """One cohort-size operating point of the engine comparison."""

    cohort_size: int
    scalar_s: float
    batched_s: float
    speedup: float
    max_delta_diff: float
    max_loss_diff: float
    equivalent: bool  # within the 1e-8 differential bound


@dataclass(frozen=True)
class CohortResult:
    """Scalar-vs-batched training comparison across cohort sizes."""

    points: list[CohortPoint]
    clients_mean_examples: float
    batch_size: int
    local_epochs: int
    num_params: int


EQUIVALENCE_ATOL = 1e-8


def cohort_speedup(
    cohort_sizes: tuple[int, ...] = (4, 16, 32, 64),
    mean_examples: float = 40.0,
    batch_size: int = 8,
    local_epochs: int = 1,
    client_lr: float = 1.0,
    vocab_size: int = 24,
    repeats: int = 3,
    seed: int = 0,
) -> CohortResult:
    """Measure batched-vs-scalar cohort training on the real workload.

    Both engines train identical client sets from identical initial
    models.  The scalar arm, K sequential ``LocalTrainer`` calls, is the
    reference the batched engine (the simulator's one path) is held to.
    """
    model_cfg = ModelConfig(vocab_size=vocab_size, embed_dim=8, hidden_dim=16)
    corpus = TopicMarkovCorpus(
        CorpusSpec(vocab_size=vocab_size, seq_len=10, volume_topic_coupling=0.8,
                   reference_examples=mean_examples),
        seed=seed,
    )
    dataset = FederatedDataset(corpus)
    # Same cap ratio as the table1 real-training population (max = 4x
    # mean): without it a single data-rich straggler serializes the tail
    # of every cohort and the comparison measures that client, not the
    # engine.
    pop = build_population(
        PopulationSpec(
            n_devices=100_000,
            seed=seed,
            overrides={
                "mean_examples": mean_examples,
                "max_examples": int(mean_examples * 4),
            },
        )
    )
    base_model = LSTMLanguageModel(model_cfg, seed=seed).get_flat()
    rng = child_rng(seed, "cohort-perf")

    points: list[CohortPoint] = []
    for size in cohort_sizes:
        profiles = pop.sample_profiles(size, rng)
        requests = [
            CohortRequest(
                initial_model=base_model,
                dataset=dataset.client_dataset(p.device_id, p.n_examples),
                initial_version=0,
                participation=0,
            )
            for p in profiles
        ]
        scalar = LocalTrainer(
            model_cfg, lr=client_lr, batch_size=batch_size,
            epochs=local_epochs, seed=seed,
        )
        batched = CohortTrainer(
            model_cfg, lr=client_lr, batch_size=batch_size,
            epochs=local_epochs, seed=seed,
        )
        batched.train_cohort(requests[: min(2, size)])  # warm workspaces

        def train_scalar():
            return [
                scalar.train(r.initial_model, r.dataset, r.initial_version,
                             r.participation)
                for r in requests
            ]

        best_scalar, scalar_results = _best_of(repeats, partial(_timed, train_scalar))
        best_batched, batched_results = _best_of(
            repeats, partial(_timed, batched.train_cohort, requests)
        )

        delta_diff = max(
            float(np.max(np.abs(a.delta - b.delta)))
            for a, b in zip(scalar_results, batched_results)
        )
        loss_diff = max(
            abs(a.train_loss - b.train_loss)
            for a, b in zip(scalar_results, batched_results)
        )
        points.append(
            CohortPoint(
                cohort_size=size,
                scalar_s=best_scalar,
                batched_s=best_batched,
                speedup=_ratio(best_scalar, best_batched),
                max_delta_diff=delta_diff,
                max_loss_diff=loss_diff,
                equivalent=(delta_diff <= EQUIVALENCE_ATOL
                            and loss_diff <= EQUIVALENCE_ATOL),
            )
        )
    return CohortResult(
        points=points,
        clients_mean_examples=mean_examples,
        batch_size=batch_size,
        local_epochs=local_epochs,
        num_params=scalar.num_params,
    )


_COHORT_COLUMNS = (
    ("K", "cohort_size"),
    ("scalar (ms)", _ms("scalar_s")),
    ("batched (ms)", _ms("batched_s")),
    ("speedup", "speedup"),
    ("max |Δdelta|", "max_delta_diff"),
    ("equivalent", "equivalent"),
)


def print_cohort(res: CohortResult) -> None:
    """Render the cohort-engine comparison as text."""
    print_points(_COHORT_COLUMNS, res.points, title=(
        f"Cohort engine — batched vs scalar local training "
        f"({res.num_params} params, B={res.batch_size}, "
        f"E={res.local_epochs}, mean {res.clients_mean_examples:.0f} "
        f"examples/client)"
    ))


# ---------------------------------------------------------------------------
# Secure-aggregation data plane: scalar vs block server+TSA wall clock
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecAggPoint:
    """One (cohort size, vector length) operating point of the comparison."""

    cohort_size: int
    vector_length: int
    scalar_s: float  # sequential server+TSA data plane (best-of)
    block_s: float  # vectorized block data plane (best-of)
    speedup: float
    handshake_s: float  # one client's DH completion, off the timed path
    max_divergence: float  # |block - scalar| over decoded aggregates
    bit_identical: bool  # aggregates AND release vectors exactly equal
    boundary_match: bool  # TSA boundary meters equal between arms


@dataclass(frozen=True)
class SecAggResult:
    """Scalar-vs-block secure-aggregation comparison across K × ℓ."""

    points: list[SecAggPoint]
    group_bits: int
    fp_scale: float
    clip_value: float
    repeats: int


def _scalar_reference_finalize(server, seeds_by_leg, weights, clip_value):
    """The pre-vectorization sequential weighted finalize, replicated.

    This is the scalar baseline's data plane, kept verbatim so the sweep
    keeps measuring the protocol the block path replaced: the server
    scales and folds each accepted masked update one at a time, and the
    trusted party re-expands every seed and folds ``w·m`` one leg at a
    time.  Returns the decoded aggregate and the unmask vector (the
    latter is pinned bit-equal to the TSA's vectorized release).
    """
    group = server.codec.group
    length = server.tsa.vector_length
    masked = group.zeros(length)
    total_w = 0
    for sub in server.accepted_submissions:
        w = weights.get(sub.leg_index, 0)
        if w:
            masked = group.add(masked, group.scale(sub.masked_update, w))
            total_w += abs(w)
    unmask = group.zeros(length)
    for leg_index, w in weights.items():
        if w:
            mask = expand_mask(seeds_by_leg[leg_index], length, group)
            unmask = group.add(unmask, group.scale(mask, w))
    aggregate = server.codec.decode_sum(
        group.sub(masked, unmask), max(total_w, 1), clip_value
    )
    return aggregate, unmask


def secagg_speedup(
    cohort_sizes: tuple[int, ...] = (8, 16, 32, 64),
    vector_lengths: tuple[int, ...] = (25_000, 200_000),
    repeats: int = 4,
    group_bits: int = 64,
    fp_scale: float = 2**16,
    clip_value: float = 1.0,
    seed: int = 0,
) -> SecAggResult:
    """Measure block-vs-scalar secure aggregation on the server+TSA path.

    Both arms process identical client submissions (same seeds, same DH
    legs — the arms' TSAs draw from identical randomness streams) and are
    pinned bit-identical: decoded aggregates, release vectors, and
    boundary byte meters must agree exactly.  Each repeat re-keys the
    arms with ``begin_round`` and fresh legs/submissions, so the block
    arm is measured in its steady state (row caches warm across epochs,
    exactly as :class:`repro.system.secure.SecureBufferedAggregator`
    runs it).
    """
    group = PowerOfTwoGroup(group_bits)
    codec = FixedPointCodec(group, scale=fp_scale, clip_value=clip_value)
    authority = SigningAuthority()
    rng = child_rng(seed, "secagg-perf")

    points: list[SecAggPoint] = []
    for length in vector_lengths:
        # Identical rng streams => identical legs: one set of client
        # submissions opens against either arm.  Arms (a server and its
        # TSA) are long-lived across cohort sizes and repeats (re-keyed
        # with begin_round), so the block arm is measured in its warm
        # steady state, exactly as the system layer runs it.
        scalar, block = (
            SecAggServer(
                TrustedSecureAggregator(
                    group,
                    length,
                    threshold=1,  # the sweep releases after exactly K submits
                    authority=authority,
                    rng=child_rng(seed, "secagg-perf-tsa", length),
                    cache_masks=cache_masks,
                ),
                codec,
                initial_legs=max(cohort_sizes),
            )
            for cache_masks in (False, True)
        )
        for size in cohort_sizes:
            updates = rng.uniform(-1.0, 1.0, size=(size, length))
            weights = {i: (i % 7) + 1 for i in range(size)}
            best_scalar = best_block = best_handshake = float("inf")
            agg_scalar = agg_block = None
            bit_identical = True
            for _ in range(max(1, repeats)):
                for server in (scalar, block):
                    server.tsa.begin_round()
                    server.begin_round()
                legs = [scalar.assign_leg() for _ in range(size)]
                block_legs = [block.assign_leg() for _ in range(size)]
                assert [leg.index for leg in legs] == [
                    leg.index for leg in block_legs
                ]
                submissions = []
                seeds_by_leg = {}
                weight_map = {}
                for i in range(size):
                    client = SecAggClient(
                        client_id=i,
                        codec=codec,
                        authority=authority,
                        expected_binary_hash=scalar.tsa.binary_hash,
                        expected_params_hash=scalar.tsa.params_hash,
                        rng=child_rng(seed, "secagg-perf-client", length, i),
                    )
                    sub = client.participate(updates[i], legs[i])
                    submissions.append(sub)
                    seeds_by_leg[sub.leg_index] = client.last_seed
                    weight_map[sub.leg_index] = weights[i]
                # Control plane, off the timed path: forward every
                # completing message at check-in (amortized DH legs).
                t0 = time.perf_counter()
                for sub in submissions:
                    for server in (scalar, block):
                        server.complete_checkin(sub)
                # 2 arms x K clients completed above -> per-client cost.
                best_handshake = min(
                    best_handshake, (time.perf_counter() - t0) / (2 * size)
                )

                t0 = time.perf_counter()
                for sub in submissions:
                    if not scalar.submit(sub):
                        raise RuntimeError("scalar arm rejected a submission")
                agg_scalar, ref_unmask = _scalar_reference_finalize(
                    scalar, seeds_by_leg, weight_map, clip_value
                )
                best_scalar = min(best_scalar, time.perf_counter() - t0)

                t0 = time.perf_counter()
                flags = block.submit_block(submissions)
                agg_block = block.finalize(weights=weight_map, max_abs=clip_value)
                best_block = min(best_block, time.perf_counter() - t0)
                if not all(flags):
                    raise RuntimeError("block arm rejected a submission")

                # Pin the vectorized release against the sequential one
                # (untimed; also keeps the arms' boundary meters aligned).
                released = scalar.tsa.release_unmask(
                    {k: v for k, v in weight_map.items() if v}
                )
                bit_identical = bit_identical and np.array_equal(
                    released, ref_unmask
                )
            bit_identical = bit_identical and np.array_equal(agg_scalar, agg_block)
            divergence = float(np.max(np.abs(agg_block - agg_scalar)))
            points.append(
                SecAggPoint(
                    cohort_size=size,
                    vector_length=length,
                    scalar_s=best_scalar,
                    block_s=best_block,
                    speedup=_ratio(best_scalar, best_block),
                    handshake_s=best_handshake,
                    max_divergence=divergence,
                    bit_identical=bool(bit_identical),
                    boundary_match=(
                        scalar.tsa.boundary_bytes_in == block.tsa.boundary_bytes_in
                        and scalar.tsa.boundary_bytes_out == block.tsa.boundary_bytes_out
                    ),
                )
            )
    return SecAggResult(
        points=points,
        group_bits=group_bits,
        fp_scale=fp_scale,
        clip_value=clip_value,
        repeats=repeats,
    )


_SECAGG_COLUMNS = (
    ("K", "cohort_size"),
    ("len", "vector_length"),
    ("scalar (ms)", _ms("scalar_s")),
    ("block (ms)", _ms("block_s")),
    ("speedup", "speedup"),
    ("handshake/client (ms)", _ms("handshake_s")),
    ("max |div|", "max_divergence"),
    ("bit-identical", "bit_identical"),
    ("boundary ok", "boundary_match"),
)


def print_secagg(res: SecAggResult) -> None:
    """Render the secagg data-plane comparison as text."""
    print_points(_SECAGG_COLUMNS, res.points, title=(
        f"SecAgg data plane — block vs scalar server+TSA wall clock "
        f"(Z_2^{res.group_bits}, scale 2^{int(np.log2(res.fp_scale))}, "
        f"best of {res.repeats})"
    ))


# ---------------------------------------------------------------------------
# Sharded aggregation plane: critical-path latency vs the single aggregator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardPoint:
    """One (shard count, population size) operating point."""

    num_shards: int
    routing: str
    population: int     # distinct clients the arrival stream draws from
    arrivals: int       # updates driven through both planes
    single_s: float     # single-aggregator sequential wall clock (best-of)
    sharded_s: float    # sharded plane critical-path latency (best-of)
    speedup: float      # modeled: single_s / sharded_s
    load_skew: float    # max shard lifetime folds / ideal even share
    max_divergence: float  # |sharded - single| over the final model state
    equivalent: bool    # within SHARD_EQUIV_ATOL, same step structure
    process_s: float    # process-executor measured wall clock (best-of)
    measured_speedup: float  # single_s / process_s, on this machine
    speedup_gap: float  # modeled speedup − measured speedup
    process_identical: bool  # process state bit-equal to inline sharded state
    process_fallbacks: int   # executor fallbacks across the repeats (0 = clean)


@dataclass(frozen=True)
class ShardsResult:
    """Single-vs-sharded aggregation plane across S × population."""

    points: list[ShardPoint]
    vector_length: int
    goal: int
    routing: str
    repeats: int
    cpu_count: int      # cores available to the measured process arm


# The sharded merge only reassociates the single plane's float64 folds
# (~1e-16 relative per step), but each server step casts the averaged
# delta to the float32 model state, where a reassociation that lands on
# a rounding boundary surfaces as one float32 ulp (~1e-7 for O(1)
# values).  1e-6 cleanly separates that from any real divergence; the
# differential suite pins the tight per-step float64 bound.
SHARD_EQUIV_ATOL = 1e-6


def _step_structure(agg) -> list[tuple[int, int]]:
    """(version, update count) of every server step, in order."""
    return [(i.version, i.num_updates) for i in agg.step_history]


def shards_speedup(
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    populations: tuple[int, ...] = (192, 4096),
    arrivals: int = 512,
    vector_length: int = 50_000,
    goal: int = 128,
    routing: str = "hash",
    repeats: int = 3,
    seed: int = 0,
) -> ShardsResult:
    """Measure the sharded aggregation plane against the single aggregator.

    Both planes consume *identical* arrival sequences (same deltas, same
    example counts, same order; each client registers immediately before
    its upload at the plane's current version, so admission weights are
    identical too).  The single arm's cost is its sequential data-plane
    wall clock; the sharded arm's cost is the
    :class:`~repro.core.sharding.AggregationPlaneClock` critical path —
    measured per-fold costs on ``S`` parallel lanes, root merges
    barriering across them.  Divergence compares the final float32 model
    states; step structure (count, versions) must match exactly.

    The process arm re-drives each point on real worker processes
    (shared across a point's repeats — spawn cost is pool setup, not
    steady state) and must reproduce the inline sharded plane's final
    float32 state *bit-for-bit* (``process_identical``); its measured
    speedup sits next to the modeled one with the gap as its own column.
    """
    points: list[ShardPoint] = []
    for population in populations:
        results = _arrival_stream(
            population, arrivals, vector_length,
            child_rng(seed, "shards-stream", population),
        )

        def single_arm():
            agg = FedBuffAggregator(
                _model_state("shards-init", vector_length, seed), goal=goal
            )
            return _drive(agg, results), agg

        best_single, single_agg = _best_of(repeats, single_arm)
        for num_shards in shard_counts:

            def sharded_arm():
                clock = AggregationPlaneClock(num_shards)
                agg = FedBuffAggregator(
                    _model_state("shards-init", vector_length, seed), goal=goal,
                    num_shards=num_shards, routing=routing, clock=clock,
                )
                _drive(agg, results)
                return clock.elapsed, agg

            best_sharded, sharded_agg = _best_of(repeats, sharded_arm)
            process_fallbacks = 0
            process_identical = True

            def process_arm():
                nonlocal process_fallbacks, process_identical
                agg = ProcessShardedFedBuffAggregator(
                    _model_state("shards-init", vector_length, seed), goal=goal,
                    num_shards=num_shards, routing=routing,
                    pool=pool if pool.healthy and not pool.closed else None,
                )
                seconds = _drive(agg, results, drain=True)
                process_fallbacks += agg.executor_fallbacks
                process_identical = process_identical and bool(
                    np.array_equal(
                        agg.state.current(), sharded_agg.state.current()
                    )
                    and len(agg.step_history) == len(sharded_agg.step_history)
                )
                if agg.pool_active:
                    # Leave the shared pool empty for the next repeat
                    # (frees epoch slots, zeroes the partial slab).
                    agg.drop_buffer_and_inflight()
                agg.close()
                return seconds, None

            with ShardWorkerPool(
                num_shards=num_shards,
                vector_length=vector_length,
                slots=2 * goal,
            ) as pool:
                best_process, _ = _best_of(repeats, process_arm)
            divergence = float(
                np.max(np.abs(single_agg.state.current()
                              - sharded_agg.state.current()))
            )
            same_steps = _step_structure(single_agg) == _step_structure(sharded_agg)
            loads = sharded_agg.shard_loads()
            ideal = arrivals / num_shards
            speedup = _ratio(best_single, best_sharded)
            measured = _ratio(best_single, best_process)
            points.append(
                ShardPoint(
                    num_shards=num_shards,
                    routing=routing,
                    population=population,
                    arrivals=arrivals,
                    single_s=best_single,
                    sharded_s=best_sharded,
                    speedup=speedup,
                    load_skew=max(loads) / ideal,
                    max_divergence=divergence,
                    equivalent=bool(
                        same_steps and divergence <= SHARD_EQUIV_ATOL
                    ),
                    process_s=best_process,
                    measured_speedup=measured,
                    speedup_gap=speedup - measured,
                    process_identical=process_identical,
                    process_fallbacks=process_fallbacks,
                )
            )
    return ShardsResult(
        points=points,
        vector_length=vector_length,
        goal=goal,
        routing=routing,
        repeats=repeats,
        cpu_count=len(os.sched_getaffinity(0)),
    )


_SHARDS_COLUMNS = (
    ("S", "num_shards"),
    ("pop", "population"),
    ("single (ms)", _ms("single_s")),
    ("sharded (ms)", _ms("sharded_s")),
    ("modeled x", "speedup"),
    ("process (ms)", _ms("process_s")),
    ("measured x", "measured_speedup"),
    ("gap", "speedup_gap"),
    ("load skew", "load_skew"),
    ("max |div|", "max_divergence"),
    ("equivalent", "equivalent"),
    ("bit-identical", "process_identical"),
)


def print_shards(res: ShardsResult) -> None:
    """Render the sharded-plane comparison as text."""
    print_points(_SHARDS_COLUMNS, res.points, title=(
        f"Sharded aggregation plane — modeled critical path + measured "
        f"process executor vs single aggregator "
        f"({res.vector_length} params, K={res.goal}, "
        f"{res.routing} routing, best of {res.repeats}, "
        f"{res.cpu_count} cores)"
    ))


# ---------------------------------------------------------------------------
# Secure sharded plane: hierarchical secure aggregation vs the single plane
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecureShardPoint:
    """One (shard count, goal, vector length) secure operating point."""

    num_shards: int
    routing: str
    goal: int
    vector_length: int
    arrivals: int       # updates driven through all arms
    single_s: float     # single secure plane full-drive wall clock (best-of)
    serial_path_s: float  # S=1 clocked run: serial fold + merge path
    sharded_path_s: float  # inline S-lane critical path (best-of)
    speedup: float      # modeled: serial_path_s / sharded_path_s
    process_s: float    # process-executor full-drive wall clock (best-of)
    measured_speedup: float  # single_s / process_s, on this machine
    load_skew: float    # max shard lifetime folds / ideal even share
    bit_identical: bool  # states + step structure exactly equal, all arms
    boundary_match: bool  # boundary-byte meters equal across all arms
    process_fallbacks: int  # executor fallbacks across the repeats (0 = clean)


@dataclass(frozen=True)
class SecureShardsResult:
    """Single-vs-hierarchical secure aggregation across S × K × ℓ."""

    points: list[SecureShardPoint]
    routing: str
    repeats: int
    cpu_count: int      # cores available to the measured process arm


def _secure_fingerprint(agg):
    """Everything the exactness contract compares between arms."""
    return (
        agg.state.current(),
        [(i.version, i.num_updates, i.total_weight, i.contributors)
         for i in agg.step_history],
        agg.boundary_bytes_in_total,
        agg.boundary_bytes_out_total,
    )


def secure_shards_speedup(
    shard_counts: tuple[int, ...] = (1, 2, 4),
    goals: tuple[int, ...] = (8, 24),
    vector_lengths: tuple[int, ...] = (4096, 16384),
    epochs: int = 3,
    population_factor: int = 4,
    routing: str = "hash",
    repeats: int = 2,
    seed: int = 0,
) -> SecureShardsResult:
    """Measure hierarchical secure aggregation against the single plane.

    All arms consume *identical* arrival sequences (same deltas,
    example counts, order; each client registers immediately before its
    upload, so versions, staleness, and the clients' global-counter-keyed
    randomness match).  Two speedups come out:

    * **modeled** — the :class:`~repro.core.sharding.AggregationPlaneClock`
      critical path of the inline ``S``-shard plane (measured per-shard
      fold costs on ``S`` lanes, the root merge barriering across them)
      against the *same clocked quantity at S=1*, the serial fold lane.
      The clock charges server-side work only, so this isolates what
      hierarchy buys the aggregation plane itself, independent of
      client-side modexp cost.
    * **measured** — the process executor's full-drive wall clock (each
      shard's whole secure pipeline — client participation, leg mint,
      admit — on its own worker process) against the single plane's full
      sequential drive, on this machine's real cores.

    Exactness is checked with ``==``: final model states, step
    structure, and boundary-byte meters must agree across all arms at
    every point — the group-sum merge reassociates exact uint64 math,
    so there is no tolerance to hide behind.
    """
    points: list[SecureShardPoint] = []
    for length in vector_lengths:
        for goal in goals:
            arrivals = epochs * goal
            results = _arrival_stream(
                population_factor * goal, arrivals, length,
                child_rng(seed, "secure-shards-stream", length, goal),
            )

            def single_arm():
                agg = SecureBufferedAggregator(
                    _model_state("secure-shards-init", length, seed),
                    goal, length, seed=seed,
                )
                return _drive(agg, results), agg

            def sharded_arm(num_shards):
                clock = AggregationPlaneClock(num_shards)
                agg = SecureBufferedAggregator(
                    _model_state("secure-shards-init", length, seed),
                    goal, length, num_shards=num_shards, routing=routing,
                    clock=clock, seed=seed,
                )
                _drive(agg, results)
                return clock.elapsed, agg

            best_single, single = _best_of(repeats, single_arm)
            single_fp = _secure_fingerprint(single)
            # Serial modeled baseline: the same plane clocked at S=1, so
            # the modeled speedup divides like for like (fold + merge
            # path, no client-side crypto in either side of the ratio).
            best_serial, _ = _best_of(repeats, partial(sharded_arm, 1))
            for num_shards in shard_counts:
                best_path, sharded = _best_of(repeats, partial(sharded_arm, num_shards))
                sharded_fp = _secure_fingerprint(sharded)
                process_fallbacks = 0

                def process_arm():
                    nonlocal process_fallbacks
                    agg = ProcessSecureShardedAggregator(
                        _model_state("secure-shards-init", length, seed),
                        goal, length, num_shards=num_shards, routing=routing,
                        seed=seed,
                    )
                    try:
                        seconds = _drive(agg, results, drain=True)
                        process_fallbacks += agg.executor_fallbacks
                        return seconds, _secure_fingerprint(agg)
                    finally:
                        agg.close()

                best_process, process_fp = _best_of(repeats, process_arm)
                identical = bool(
                    np.array_equal(single_fp[0], sharded_fp[0])
                    and np.array_equal(single_fp[0], process_fp[0])
                    and single_fp[1] == sharded_fp[1] == process_fp[1]
                )
                boundary = (
                    single_fp[2:] == sharded_fp[2:] == process_fp[2:]
                )
                points.append(
                    SecureShardPoint(
                        num_shards=num_shards,
                        routing=routing,
                        goal=goal,
                        vector_length=length,
                        arrivals=arrivals,
                        single_s=best_single,
                        serial_path_s=best_serial,
                        sharded_path_s=best_path,
                        speedup=_ratio(best_serial, best_path),
                        process_s=best_process,
                        measured_speedup=_ratio(best_single, best_process),
                        load_skew=max(sharded.shard_loads()) / (arrivals / num_shards),
                        bit_identical=identical,
                        boundary_match=bool(boundary),
                        process_fallbacks=process_fallbacks,
                    )
                )
    return SecureShardsResult(
        points=points,
        routing=routing,
        repeats=repeats,
        cpu_count=len(os.sched_getaffinity(0)),
    )


_SECURE_SHARDS_COLUMNS = (
    ("S", "num_shards"),
    ("K", "goal"),
    ("len", "vector_length"),
    ("single (ms)", _ms("single_s")),
    ("serial path (ms)", _ms("serial_path_s")),
    ("path (ms)", _ms("sharded_path_s")),
    ("modeled x", "speedup"),
    ("process (ms)", _ms("process_s")),
    ("measured x", "measured_speedup"),
    ("load skew", "load_skew"),
    ("bit-identical", "bit_identical"),
    ("boundary ok", "boundary_match"),
    ("fallbacks", "process_fallbacks"),
)


def print_secure_shards(res: SecureShardsResult) -> None:
    """Render the secure sharded-plane comparison as text."""
    print_points(_SECURE_SHARDS_COLUMNS, res.points, title=(
        f"Secure sharded plane — hierarchical secure aggregation vs the "
        f"single secure plane ({res.routing} routing, best of "
        f"{res.repeats}, {res.cpu_count} cores)"
    ))


# ---------------------------------------------------------------------------
# Million-client fleet: per-event cost vs population size
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MillionPoint:
    """One population-size operating point of the columnar fleet."""

    population: int
    demand: int             # concurrent-session capacity at this size
    horizon_s: float        # simulated span driven
    events: int             # engine events fired
    sessions: int           # sessions completed
    wall_s: float           # wall-clock of the run() call
    events_per_sec: float
    us_per_event: float
    peak_rss_mb: float      # ru_maxrss after the point (process lifetime max)
    columns_mb: float       # struct-of-arrays footprint of the fleet
    trace_records: int      # participation records the bounded trace holds
    total_participations: int  # exact tally (sampled records notwithstanding)


@dataclass(frozen=True)
class MillionResult:
    """Fleet-scaling sweep 10k→1M devices."""

    points: list[MillionPoint]
    flatness: float         # max/min us_per_event across points (~1 = flat)
    tick_s: float
    mean_sleep_s: float
    max_trace_records: int


def million_scaling(
    populations: tuple[int, ...] = (10_000, 100_000, 1_000_000),
    horizon_s: float = 1800.0,
    demand_divisor: int = 200,
    min_demand: int = 64,
    tick_s: float = 60.0,
    mean_sleep_s: float = 7200.0,
    max_trace_records: int = 10_000,
    seed: int = 0,
) -> MillionResult:
    """Drive the columnar fleet at each population size; measure per-event cost.

    Demand (concurrent-session capacity) scales with the population
    (``population // demand_divisor``) so the event load grows with the
    fleet — the claim under test is that the *per-event* cost does not:
    arrivals, eligibility and session setup are batched per tick over the
    struct-of-arrays columns, and the event heap holds at most ``demand``
    session completions plus one tick (it grows with demand, never with
    the device count).  ``peak_rss_mb`` is the process-lifetime
    high-water mark (``ru_maxrss``), so within one sweep it is
    non-decreasing across points; the 1M point's value is the honest
    fleet-scale figure.
    """
    points: list[MillionPoint] = []
    for population in populations:
        fleet_pop = build_population(
            PopulationSpec(n_devices=population, seed=seed, columnar=True)
        )
        trace = BoundedMetricsTrace(max_records=max_trace_records, seed=seed)
        fleet = FleetSimulation(
            fleet_pop,
            FleetConfig(
                tick_s=tick_s,
                demand=max(min_demand, population // demand_divisor),
                mean_sleep_s=mean_sleep_s,
            ),
            trace=trace,
            seed=seed,
        )
        wall, _ = _timed(fleet.run, horizon_s)
        events = fleet.sim.events_fired
        points.append(
            MillionPoint(
                population=population,
                demand=fleet.config.demand,
                horizon_s=horizon_s,
                events=events,
                sessions=fleet.sessions_completed,
                wall_s=wall,
                events_per_sec=_ratio(events, wall),
                us_per_event=wall / events * 1e6 if events else float("nan"),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
                columns_mb=fleet_pop.columns_nbytes() / 1e6,
                trace_records=len(trace.participations),
                total_participations=trace.total_participations,
            )
        )
    costs = [p.us_per_event for p in points if p.events]
    flatness = max(costs) / min(costs) if costs else float("nan")
    return MillionResult(
        points=points,
        flatness=flatness,
        tick_s=tick_s,
        mean_sleep_s=mean_sleep_s,
        max_trace_records=max_trace_records,
    )


_MILLION_COLUMNS = (
    ("population", "population"),
    ("demand", "demand"),
    ("events", "events"),
    ("sessions", "sessions"),
    ("wall (s)", "wall_s"),
    ("events/s", "events_per_sec"),
    ("µs/event", "us_per_event"),
    ("peak RSS (MB)", "peak_rss_mb"),
    ("columns (MB)", "columns_mb"),
    ("trace recs", "trace_records"),
)


def print_million(res: MillionResult) -> None:
    """Render the fleet-scaling sweep as text."""
    print_points(_MILLION_COLUMNS, res.points, title=(
        f"Columnar fleet scaling — per-event cost vs population "
        f"(tick {res.tick_s:g}s, mean sleep {res.mean_sleep_s:g}s, "
        f"flatness {res.flatness:.2f}x)"
    ))


def _run_million(scale: Scale, seed: int, **params) -> MillionResult:
    # The smoke scale trims the simulated span so CI stays fast; the
    # population axis is the experiment's point and is never scaled down.
    params.setdefault("horizon_s", float(min(1800.0, scale.sim_hours * 200.0)))
    return million_scaling(seed=seed, **params)


# ---------------------------------------------------------------------------
# Registry wiring — runners are the experiment functions themselves
# ---------------------------------------------------------------------------

def _register_all() -> None:
    specs = [
        registry.ExperimentSpec(
            "cohort", cohort_speedup, print_cohort, CohortResult,
            description="batched cohort engine vs scalar training: speedup + equivalence",
            uses_scale=False),
        registry.ExperimentSpec(
            "secagg", secagg_speedup, print_secagg, SecAggResult,
            description="secure-aggregation block vs scalar data plane: speedup + bit-identity",
            uses_scale=False),
        registry.ExperimentSpec(
            "shards", shards_speedup, print_shards, ShardsResult,
            description="sharded aggregation plane vs single aggregator: modeled and "
                        "measured multi-core speedup + load skew + equivalence",
            uses_scale=False),
        registry.ExperimentSpec(
            "secure_shards", secure_shards_speedup, print_secure_shards, SecureShardsResult,
            description="hierarchical secure aggregation vs the single secure plane: "
                        "modeled and measured speedup + exact equivalence",
            uses_scale=False),
        registry.ExperimentSpec(
            "million", _run_million, print_million, MillionResult,
            description="columnar fleet 10k→1M devices: events/sec, per-event cost "
                        "flatness, peak RSS"),
    ]
    for spec in specs:
        registry.register(spec, replace=True)


_register_all()
