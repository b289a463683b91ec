"""Conformance suite: one aggregation protocol under every core.

Every construction below runs :class:`repro.core.AggregationCore`'s
protocol, so the rejections, the epoch bookkeeping and failover are
checked once, parametrised, instead of per core.  What a *fold* computes
is the differential suites' business (block ≡ sequential, sharded ≡
single, secure ≡ plain); nothing here repeats them.
"""

import numpy as np
import pytest

from repro.core import (
    AggregationCore,
    DPConfig,
    DPFedBuffAggregator,
    FedBuffAggregator,
    SyncRoundAggregator,
    TrainingResult,
)
from repro.core.parallel import ProcessShardedFedBuffAggregator
from repro.system.secure import SecureBufferedAggregator
from repro.system.secure_sharding import ProcessSecureShardedAggregator

P = 8  # model size
GOAL = 3


class VecState:
    """Minimal model state: apply() accumulates the average delta."""

    def __init__(self):
        self.vec = np.zeros(P, dtype=np.float32)
        self.size = P

    def current(self):
        return self.vec.copy()

    def apply(self, avg, n):
        self.vec += avg


# name -> (class, positional args after the state, keyword args)
CORES = {
    "fedbuff": (FedBuffAggregator, (GOAL,), {}),
    "sync": (SyncRoundAggregator, (GOAL,), {}),
    "dp": (DPFedBuffAggregator, (GOAL, DPConfig(noise_multiplier=0.0)), {}),
    "sharded-1": (FedBuffAggregator, (GOAL,), {"num_shards": 1}),
    "sharded-3": (FedBuffAggregator, (GOAL,), {"num_shards": 3}),
    "sharded-process": (ProcessShardedFedBuffAggregator, (GOAL,), {"num_shards": 2}),
    "secure": (SecureBufferedAggregator, (GOAL, P), {"seed": 1}),
    "secure-sharded": (SecureBufferedAggregator, (GOAL, P), {"num_shards": 2, "seed": 1}),
    "secure-sharded-process": (
        ProcessSecureShardedAggregator, (GOAL, P), {"num_shards": 2, "seed": 1},
    ),
}
# Sync rounds have no reported-version rule and no transform hook.
FEDBUFF_FAMILY = sorted(set(CORES) - {"sync"})
PATHS = ["receive_update", "receive_update_block"]


@pytest.fixture
def build():
    """``build(name, subclass=None)``; process pools are closed on exit."""
    built = []

    def _build(name, subclass=None):
        cls, args, kwargs = CORES[name]
        if subclass is not None:
            cls = subclass(cls)
        built.append(cls(VecState(), *args, **kwargs))
        return built[-1]

    yield _build
    for agg in built:
        if hasattr(agg, "close"):
            agg.close()


def make_result(cid, version=0, length=P):
    return TrainingResult(
        client_id=cid,
        delta=np.full(length, 0.01 * (cid + 1), dtype=np.float32),
        num_examples=cid + 1,
        train_loss=1.0,
        initial_version=version,
    )


def upload(agg, path, *results):
    """Deliver ``results`` through either entry point; returns the infos."""
    if path == "receive_update":
        return [agg.receive_update(r)[1] for r in results]
    return [info for _, info in agg.receive_update_block(list(results))]


def counters(agg):
    return agg.buffered_count, agg.updates_received, len(agg.step_history)


def assert_lanes_healthy(agg):
    """Shard slots match the in-flight map; a process lane never fell back."""
    if hasattr(agg, "shard_in_flight"):
        assert sum(agg.shard_in_flight()) == agg.in_flight_count()
        assert sum(agg.shard_buffered()) == agg.buffered_count
    if hasattr(agg, "pool_active"):
        assert agg.pool_active and agg.executor_fallbacks == 0


def assert_rejected_before_counting(agg, path, bad, match):
    """One good update, then ``bad`` → ``ValueError`` with nothing
    counted, its in-flight entry consumed, and the *next* valid arrivals
    closing a step that holds exactly the valid updates."""
    agg.register_download(0)
    upload(agg, path, make_result(0))
    agg.register_download(1)
    before = counters(agg)
    with pytest.raises(ValueError, match=match):
        upload(agg, path, bad)
    assert counters(agg) == before == (1, 1, 0)
    assert agg.in_flight_count() == 0
    assert_lanes_healthy(agg)

    valid = range(2, GOAL + 1)
    for cid in valid:
        agg.register_download(cid)
    infos = upload(agg, path, *(make_result(cid) for cid in valid))
    step = infos[-1]
    assert step is not None and infos[:-1] == [None] * (GOAL - 2)
    assert step.num_updates == GOAL == len(step.contributors)
    assert step.contributors == (0, *valid)
    assert counters(agg) == (0, GOAL, 1)
    assert_lanes_healthy(agg)


def test_every_core_is_one_protocol():
    assert all(issubclass(cls, AggregationCore) for cls, _, _ in CORES.values())
    assert issubclass(SecureBufferedAggregator, FedBuffAggregator)
    assert not issubclass(SyncRoundAggregator, FedBuffAggregator)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", sorted(CORES))
def test_unknown_client_changes_nothing(name, path, build):
    agg = build(name)
    agg.register_download(0)
    before = counters(agg)
    with pytest.raises(KeyError, match="not in flight"):
        upload(agg, path, make_result(99))
    assert counters(agg) == before == (0, 0, 0)
    assert agg.in_flight_count() == 1
    assert_lanes_healthy(agg)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", FEDBUFF_FAMILY)
def test_version_mismatch_is_rejected_before_counting(name, path, build):
    assert_rejected_before_counting(
        build(name), path, make_result(1, version=7), "reported initial version 7"
    )


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", sorted(CORES))
def test_wrong_length_delta_is_rejected_before_counting(name, path, build):
    assert_rejected_before_counting(
        build(name), path, make_result(1, length=5), "client 1 .* length 5, .* 8"
    )


@pytest.mark.parametrize("name", sorted(CORES))
def test_mid_block_rejection_keeps_what_was_admitted(name, build):
    """The block driver leaves the state the sequential path would:
    everything before the bad result is buffered *and folded*."""
    agg = build(name)
    for cid in range(GOAL + 1):
        agg.register_download(cid)
    with pytest.raises(ValueError):
        agg.receive_update_block(
            [make_result(0), make_result(1, length=5), make_result(2)]
        )
    assert counters(agg) == (1, 1, 0)
    assert agg.in_flight_count() == GOAL - 1  # 0 and 1 consumed, 2.. untouched
    infos = upload(agg, "receive_update", make_result(2), make_result(3))
    assert infos[-1].contributors == (0, 2, 3)
    assert_lanes_healthy(agg)


@pytest.mark.parametrize("name", sorted(CORES))
def test_drop_buffer_and_inflight_reports_what_it_lost(name, build):
    agg = build(name)
    for cid in range(4):
        agg.register_download(cid)
    upload(agg, "receive_update", make_result(0), make_result(1))
    assert agg.drop_buffer_and_inflight() == (2, [2, 3])
    assert agg.buffered_count == 0 and agg.in_flight_count() == 0
    assert agg.updates_received == 2 and agg.version == 0
    assert_lanes_healthy(agg)
    # The next epoch starts clean on the surviving model state.
    for cid in range(4, 4 + GOAL):
        version, _ = agg.register_download(cid)
        assert version == 0
    infos = upload(agg, "receive_update", *(make_result(c) for c in range(4, 4 + GOAL)))
    assert infos[-1].contributors == tuple(range(4, 4 + GOAL))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", FEDBUFF_FAMILY)
def test_transform_hook_sees_every_admitted_result(name, path, build):
    """The client-contribution seam (DP clipping lands here) is on the
    one admission path: float and secure cores, both entry points."""

    def spying(cls):
        class Spy(cls):
            def _transform_result(self, result):
                self.seen = getattr(self, "seen", []) + [result.client_id]
                return super()._transform_result(result)

        return Spy

    agg = build(name, subclass=spying)
    clients = range(GOAL + 1)
    for cid in clients:
        agg.register_download(cid)
    upload(agg, path, *(make_result(cid) for cid in clients))
    assert agg.seen == list(clients)
    assert agg.version == 1 and agg.buffered_count == 1


def test_one_routing_table():
    """A policy registered through the system-layer registry is the one
    the core resolves by name (and vice versa: one table, two doors)."""
    from repro.core.sharding import LoadAwareShardRouting, make_routing
    from repro.system import planes

    class Last(LoadAwareShardRouting):
        name = "last"

    planes.register_routing("last", Last)
    try:
        assert "last" in planes.routing_names()
        assert isinstance(make_routing("last"), Last)
        agg = FedBuffAggregator(VecState(), GOAL, num_shards=2, routing="last")
        assert agg.routing.name == "last"
    finally:
        planes._ROUTINGS._entries.pop("last")
    assert "last" not in planes.routing_names()
    with pytest.raises(ValueError, match="unknown shard routing policy"):
        make_routing("last")
