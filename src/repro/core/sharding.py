"""Shard routing and per-shard state of the sharded aggregation plane.

PAPAYA scales one FL task past a single aggregator by sharding
aggregation horizontally (Section 6.3): every aggregator shard folds a
slice of the arriving client updates into an *intermediate aggregate*,
and a root reducer combines the shard partials into one server model
update.  ``num_shards`` is a parameter of the one FedBuff core
(:class:`~repro.core.fedbuff.FedBuffAggregator`, and the secure core
built on it); this module holds what that core routes and folds with:

* client-to-shard routing policies: :class:`HashShardRouting` (a
  salted-free deterministic integer mix of the client id, probed past
  dead shards) and :class:`LoadAwareShardRouting` (least-loaded live
  shard, ties to the lowest shard id);
* the per-shard slice state (:class:`_ShardSlice`, and the float
  partial fold's :class:`_Shard`);
* the root reduce of exact group partials (:func:`merge_group_partials`)
  and the critical-path model of parallel shard lanes
  (:class:`AggregationPlaneClock`).

Equivalence contract
--------------------
Shard-local folding only *reassociates* the one-shard core's weighted
sum — admission, staleness, weighting, step triggering, and the server
optimizer are the same code at every shard count — so for any shard
count and either routing policy the core matches its one-shard run on
the same arrival sequence to float64 rounding.  At one shard the single
partial merges as the identity, so the core performs exactly the
unsharded AXPY sequence.  ``tests/test_sharded_equivalence.py`` is the
differential suite, and ``tests/test_core_known_answers.py`` pins the
one-shard reference.

Shard failover
--------------
``drop_shard`` models one shard dying (its hosting aggregator process
failed, Appendix E.4): the shard's *partial fold is discarded* (those
contributions never reached the root), its in-flight clients are
dropped, and while the shard is dead both routing policies steer new
clients to the surviving shards.  ``revive_shard`` brings the shard
back empty once the system layer re-places it on a live node.  The
surviving state matches a one-shard core that was fed only the
surviving arrivals.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HashShardRouting",
    "LoadAwareShardRouting",
    "AggregationPlaneClock",
    "ROUTING_POLICIES",
    "make_routing",
    "merge_group_partials",
]

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a deterministic, well-distributed integer mix.

    Used instead of Python's ``hash`` so shard routing is stable across
    processes and runs (``hash`` of str/bytes is salted per process).
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class _ShardSlice:
    """Routing-visible state of one shard: liveness and load counters.

    The float and the secure shard cores differ in what they *fold*
    (a float partial vs. a TSA + server pair); this is what they share,
    and all that routing and the core's shard bookkeeping look at.
    """

    __slots__ = ("count", "in_flight", "alive", "folds_total")

    def __init__(self) -> None:
        self.count = 0          # updates in the current (unmerged) partial
        self.in_flight = 0      # clients routed here and still training
        self.alive = True
        self.folds_total = 0    # lifetime folds (load/skew telemetry)

    def load(self) -> int:
        """Routing load signal: buffered plus in-flight work."""
        return self.count + self.in_flight


class _Shard(_ShardSlice):
    """One shard core: a partial weighted fold over its slice of arrivals."""

    __slots__ = ("buffer",)

    def __init__(self) -> None:
        super().__init__()
        self.buffer: np.ndarray | None = None

    def clear(self) -> None:
        """Forget the open epoch's partial fold."""
        self.buffer = None
        self.count = 0

    def fold(self, weight: float, delta: np.ndarray) -> None:
        """Fold one update into the partial (scalar AXPY)."""
        if self.buffer is None:
            self.buffer = np.zeros_like(delta, dtype=np.float64)
        self.buffer += weight * delta.astype(np.float64)


class HashShardRouting:
    """Deterministic hash routing: ``mix64(client_id) mod S``.

    The simulation analogue of hashing the client to an intermediate
    aggregate.  Dead shards are probed past linearly (``h, h+1, …`` mod
    ``S``), so a dead shard's slice deterministically re-routes to the
    next live shard and snaps back when the shard is revived.
    """

    name = "hash"

    def route(self, client_id: int, shards: list[_Shard]) -> int:
        start = _mix64(client_id) % len(shards)
        for probe in range(len(shards)):
            idx = (start + probe) % len(shards)
            if shards[idx].alive:
                return idx
        raise RuntimeError("no live shards to route to")


class LoadAwareShardRouting:
    """Least-loaded live shard, ties broken by the lowest shard id.

    Load is the shard's buffered-plus-in-flight update count, so a shard
    that just absorbed a re-routed slice stops attracting new clients
    until its peers catch up.
    """

    name = "load"

    def route(self, client_id: int, shards: list[_Shard]) -> int:
        best = -1
        best_load = None
        for idx, shard in enumerate(shards):
            if not shard.alive:
                continue
            load = shard.load()
            if best_load is None or load < best_load:
                best, best_load = idx, load
        if best < 0:
            raise RuntimeError("no live shards to route to")
        return best


# The one name -> zero-argument factory table of routing policies;
# ``repro.system.planes.register_routing`` adds to it.
ROUTING_POLICIES = {"hash": HashShardRouting, "load": LoadAwareShardRouting}


def make_routing(policy: str):
    """Routing-policy factory for the ``shard_routing`` config knob."""
    if policy not in ROUTING_POLICIES:
        raise ValueError(f"unknown shard routing policy {policy!r}")
    return ROUTING_POLICIES[policy]()


def merge_group_partials(group, partials, vector_length: int) -> np.ndarray:
    """Root-reduce per-shard *group* partials in ascending-shard order.

    The exact-arithmetic sibling of
    :meth:`~repro.core.fedbuff.FedBuffAggregator._merge_shards`: ``partials`` is a
    sequence of ``(shard_id, vector)`` pairs of the group's dtype, and
    the merge folds them with wraparound group addition in strictly
    ascending ``shard_id`` order.  Group math mod 2^bits is exact, so —
    unlike the float plane's ulp-tolerance contract — any reassociation
    of the shard folds is *bit-identical* to the single aggregator's
    sum; the ascending order is still pinned so the merge is one
    deterministic convention, not S! equivalent ones.

    Raises ``ValueError`` when shard ids are not strictly ascending; an
    empty sequence merges to the group identity (all zeros).
    """
    ids = [sid for sid, _ in partials]
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise ValueError(
            f"shard partials must merge in ascending shard order, got {ids}"
        )
    merged = group.zeros(vector_length)
    for _, vec in partials:
        group.add_into(merged, vec)
    return merged


class AggregationPlaneClock:
    """Critical-path model of ``S`` parallel shard lanes + a root reducer.

    The perf harness attaches one of these to a sharded
    :class:`~repro.core.fedbuff.FedBuffAggregator` driven by a single
    thread: each
    shard fold's *measured* wall-clock cost is charged to that shard's
    lane, and each root merge + server step is charged to the root lane
    after a barrier over every shard lane (the reducer needs all
    partials; the next buffer epoch's folds start after the merged step,
    since their staleness is measured against the version it produced).
    ``elapsed`` is then the plane's end-to-end latency had the shards
    run on parallel cores — the scale-out analogue of the wall-clock the
    cohort/secagg sweeps measure in-process.
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.lanes = [0.0] * num_shards
        self.root = 0.0
        self.folds = 0
        self.merges = 0

    def record_fold(self, shard_id: int, seconds: float, n: int = 1) -> None:
        """``n`` updates' worth of fold work on ``shard_id``'s lane (``n = 0``
        for lane work that folds nothing, e.g. a secure shard's partial)."""
        self.lanes[shard_id] = max(self.lanes[shard_id], self.root) + seconds
        self.folds += n

    def record_merge(self, seconds: float) -> None:
        """Root merge + server step: barriers on every shard lane."""
        self.root = max(self.root, max(self.lanes)) + seconds
        self.merges += 1

    @property
    def elapsed(self) -> float:
        """End-to-end plane latency (root and all lanes drained)."""
        return max(self.root, max(self.lanes))
