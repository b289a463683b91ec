"""Conformance suite: one aggregation protocol under every core.

Every construction below runs :class:`repro.core.AggregationCore`'s
protocol, so the rejections, the epoch bookkeeping and failover are
checked once, parametrised, instead of per core.  What a *fold* computes
is the differential suites' business (sharded ≡ single, secure ≡
plain); nothing here repeats them.
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
    "sharded-3": (FedBuffAggregator, (GOAL,), {"num_shards": 3}),
    "sharded-load": (FedBuffAggregator, (GOAL,), {"num_shards": 3, "routing": "load"}),
    "sharded-process": (ProcessShardedFedBuffAggregator, (GOAL,), {"num_shards": 2}),
    "secure": (SecureBufferedAggregator, (GOAL, P), {"seed": 1}),
    "secure-sharded": (SecureBufferedAggregator, (GOAL, P), {"num_shards": 2, "seed": 1}),
    "secure-sharded-load": (
        SecureBufferedAggregator, (GOAL, P), {"num_shards": 2, "routing": "load", "seed": 1},
    ),
    "secure-sharded-process": (
        ProcessSecureShardedAggregator, (GOAL, P), {"num_shards": 2, "seed": 1},
    ),
}
# Sync rounds have no reported-version rule and no transform hook.
FEDBUFF_FAMILY = sorted(set(CORES) - {"sync"})


@pytest.fixture
def build():
    """``build(name, subclass=None, **overrides)``; process pools are
    closed on exit."""
    built = []

    def _build(name, subclass=None, **overrides):
        cls, args, kwargs = CORES[name]
        if subclass is not None:
            cls = subclass(cls)
        built.append(cls(VecState(), *args, **{**kwargs, **overrides}))
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


def upload(agg, *results):
    """Deliver ``results`` one arrival at a time; returns the infos."""
    return [agg.receive_update(r)[1] for r in results]


def counters(agg):
    return agg.buffered_count, agg.updates_received, len(agg.step_history)


def close_epoch(agg, clients, version=0):
    """Register and upload ``clients``; returns the step their last
    arrival closed."""
    for cid in clients:
        agg.register_download(cid)
    infos = upload(agg, *(make_result(cid, version=version) for cid in clients))
    assert infos[-1] is not None
    return infos[-1]


def assert_lanes_healthy(agg):
    """Shard slots match the in-flight map; a process lane never fell back."""
    if hasattr(agg, "shard_in_flight"):
        assert sum(agg.shard_in_flight()) == agg.in_flight_count()
        assert sum(agg.shard_buffered()) == agg.buffered_count
    if hasattr(agg, "pool_active"):
        assert agg.pool_active and agg.executor_fallbacks == 0


def assert_rejected_before_counting(agg, bad, match):
    """One good update, then ``bad`` → ``ValueError`` with nothing
    counted, its in-flight entry consumed, and the *next* valid arrivals
    closing a step that holds exactly the valid updates."""
    agg.register_download(0)
    upload(agg, make_result(0))
    agg.register_download(1)
    before = counters(agg)
    with pytest.raises(ValueError, match=match):
        upload(agg, bad)
    assert counters(agg) == before == (1, 1, 0)
    assert agg.in_flight_count() == 0
    assert_lanes_healthy(agg)

    valid = range(2, GOAL + 1)
    for cid in valid:
        agg.register_download(cid)
    infos = upload(agg, *(make_result(cid) for cid in valid))
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


@pytest.mark.parametrize("name", sorted(CORES))
def test_unknown_client_changes_nothing(name, build):
    agg = build(name)
    agg.register_download(0)
    before = counters(agg)
    with pytest.raises(KeyError, match="not in flight"):
        upload(agg, make_result(99))
    assert counters(agg) == before == (0, 0, 0)
    assert agg.in_flight_count() == 1
    assert_lanes_healthy(agg)


@pytest.mark.parametrize("name", FEDBUFF_FAMILY)
def test_version_mismatch_is_rejected_before_counting(name, build):
    assert_rejected_before_counting(
        build(name), make_result(1, version=7), "reported initial version 7"
    )


@pytest.mark.parametrize("name", sorted(CORES))
def test_wrong_length_delta_is_rejected_before_counting(name, build):
    assert_rejected_before_counting(
        build(name), make_result(1, length=5), "client 1 .* length 5, .* 8"
    )


@pytest.mark.parametrize("name", sorted(CORES))
def test_drop_buffer_and_inflight_reports_what_it_lost(name, build):
    agg = build(name)
    for cid in range(4):
        agg.register_download(cid)
    upload(agg, make_result(0), make_result(1))
    assert agg.drop_buffer_and_inflight() == (2, [2, 3])
    assert agg.buffered_count == 0 and agg.in_flight_count() == 0
    assert agg.updates_received == 2 and agg.version == 0
    assert_lanes_healthy(agg)
    # The next epoch starts clean on the surviving model state.
    for cid in range(4, 4 + GOAL):
        version, _ = agg.register_download(cid)
        assert version == 0
    infos = upload(agg, *(make_result(c) for c in range(4, 4 + GOAL)))
    assert infos[-1].contributors == tuple(range(4, 4 + GOAL))


@pytest.mark.parametrize("name", sorted(CORES))
def test_every_goal_arrivals_close_exactly_one_step(name, build):
    agg = build(name)
    start = agg.state.current()
    for version in range(2):
        clients = range(version * GOAL, (version + 1) * GOAL)
        for cid in clients:
            assert agg.register_download(cid)[0] == version
        infos = upload(agg, *(make_result(cid, version=version) for cid in clients))
        assert infos[:-1] == [None] * (GOAL - 1)
        step = infos[-1]
        assert (step.version, step.num_updates, step.contributors) == (
            version + 1, GOAL, tuple(clients),
        )
        assert step.max_staleness == 0 and step.discarded == ()
        assert agg.version == version + 1 and agg.buffered_count == 0
        assert_lanes_healthy(agg)
    assert [s.version for s in agg.step_history] == [1, 2]
    assert agg.updates_received == 2 * GOAL
    version, vec = agg.register_download(99)
    assert version == 2 and not np.array_equal(vec, start)


@pytest.mark.parametrize("name", sorted(CORES))
def test_client_failed_releases_only_that_client(name, build):
    agg = build(name)
    for cid in range(3):
        agg.register_download(cid)
    agg.client_failed(1)
    agg.client_failed(99)  # never registered: a no-op
    assert agg.in_flight_count() == 2
    assert_lanes_healthy(agg)
    with pytest.raises(KeyError, match="not in flight"):
        upload(agg, make_result(1))
    assert counters(agg) == (0, 0, 0)
    # A replacement client takes the failed one's place in the epoch.
    agg.register_download(3)
    infos = upload(agg, make_result(0), make_result(2), make_result(3))
    assert infos[-1].contributors == (0, 2, 3)
    assert agg.in_flight_count() == 0
    assert_lanes_healthy(agg)


@pytest.mark.parametrize("name", sorted(CORES))
def test_reregistration_restarts_the_client_at_the_current_version(name, build):
    agg = build(name)
    agg.register_download(0)
    agg.register_download(0)  # a second download while in flight
    assert agg.in_flight_count() == 1
    assert_lanes_healthy(agg)  # one shard slot, not two
    close_epoch(agg, range(1, GOAL + 1))
    assert agg.register_download(0)[0] == 1
    assert agg.in_flight_count() == 1
    assert_lanes_healthy(agg)
    others = range(10, 10 + GOAL - 1)
    for cid in others:
        agg.register_download(cid)
    infos = upload(
        agg, make_result(0, version=1), *(make_result(c, version=1) for c in others)
    )
    step = infos[-1]
    assert step.contributors == (0, *others) and step.max_staleness == 0
    assert_lanes_healthy(agg)


@pytest.mark.parametrize("name", FEDBUFF_FAMILY)
def test_staleness_counts_server_steps_since_download(name, build):
    agg = build(name)
    agg.register_download(0)  # trains across one server step
    close_epoch(agg, range(1, GOAL + 1))
    fresh = range(GOAL + 1, 2 * GOAL)
    for cid in fresh:
        agg.register_download(cid)
    infos = upload(
        agg, make_result(0, version=0), *(make_result(c, version=1) for c in fresh)
    )
    step = infos[-1]
    assert step.contributors == (0, *fresh)
    assert step.max_staleness == 1
    assert step.mean_staleness == pytest.approx(1 / GOAL)
    assert_lanes_healthy(agg)


@pytest.mark.parametrize("name", FEDBUFF_FAMILY)
def test_stale_clients_are_reported_and_left_in_flight(name, build):
    agg = build(name, max_staleness=0)
    agg.register_download(0)
    assert agg.stale_clients() == []
    close_epoch(agg, range(1, GOAL + 1))
    agg.register_download(GOAL + 1)
    assert agg.stale_clients() == [0]
    assert agg.in_flight_count() == 2  # reporting aborts nobody
    agg.client_failed(0)  # what the system layer does with the report
    assert agg.stale_clients() == [] and agg.in_flight_count() == 1
    assert_lanes_healthy(agg)


@pytest.mark.parametrize("name", sorted(CORES))
def test_drop_shard_loses_exactly_that_shards_slice(name, build):
    """A dead shard takes its buffered slice and its in-flight clients;
    the other shards' contributions survive into the next step, and the
    revived shard comes back empty.  At one shard this is the whole
    plane."""
    agg = build(name)
    for cid in range(6):
        agg.register_download(cid)
    home = {cid: agg.shard_of(cid) for cid in range(6)}
    victim = home[0]
    upload(agg, make_result(0), make_result(1))
    kept = [c for c in (0, 1) if home[c] != victim]
    waiting = [c for c in range(2, 6) if home[c] != victim]
    dropped = [c for c in range(2, 6) if home[c] == victim]

    assert agg.drop_shard(victim) == (2 - len(kept), dropped)
    assert not agg.shard_alive(victim)
    assert agg.buffered_count == len(kept)
    assert agg.in_flight_count() == len(waiting)
    assert agg.updates_received == 2 and agg.version == 0
    assert_lanes_healthy(agg)
    for cid in dropped:
        with pytest.raises(KeyError, match="not in flight"):
            upload(agg, make_result(cid))

    agg.revive_shard(victim)
    assert agg.shard_alive(victim)
    assert_lanes_healthy(agg)
    need = GOAL - len(kept)
    arrivals = (waiting + [10, 11, 12])[:need]
    for cid in arrivals:
        if cid not in waiting:
            agg.register_download(cid)
    infos = upload(agg, *(make_result(c) for c in arrivals))
    step = infos[-1]
    assert step.contributors == (*kept, *arrivals)
    assert agg.version == 1 and agg.buffered_count == 0
    assert_lanes_healthy(agg)


@pytest.mark.parametrize("name", FEDBUFF_FAMILY)
def test_download_during_a_plane_wide_outage_cannot_contribute(name, build):
    agg = build(name)
    for sid in range(agg.num_shards):
        agg.drop_shard(sid)
    assert agg.live_shards() == []
    assert agg.register_download(0)[0] == 0
    assert agg.shard_of(0) is None and agg.in_flight_count() == 1
    with pytest.raises(KeyError, match="no shard was live"):
        upload(agg, make_result(0))
    assert counters(agg) == (0, 0, 0)
    agg.client_failed(0)  # the runtime aborts the unrouted session
    assert agg.in_flight_count() == 0
    for sid in range(agg.num_shards):
        agg.revive_shard(sid)
    assert agg.live_shards() == list(range(agg.num_shards))
    assert close_epoch(agg, range(1, GOAL + 1)).contributors == tuple(range(1, GOAL + 1))
    assert_lanes_healthy(agg)


@pytest.mark.parametrize("name", FEDBUFF_FAMILY)
def test_transform_hook_sees_every_admitted_result(name, build):
    """The client-contribution seam (DP clipping lands here) is on the
    one admission path: float and secure cores."""

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
    upload(agg, *(make_result(cid) for cid in clients))
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
