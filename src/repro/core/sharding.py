"""Sharded hierarchical aggregation — many partial folders, one root reducer.

PAPAYA scales one FL task past a single aggregator by sharding
aggregation horizontally (Section 6.3): every aggregator shard folds a
slice of the arriving client updates into an *intermediate aggregate*,
and a root reducer combines the shard partials into one server model
update.  This module is the time- and transport-free core of that plane:

* :class:`ShardedFedBuffAggregator` runs ``S`` shard cores, each a
  FedBuff-style partial fold (``Σ wᵢ·dᵢ`` over the shard's slice of the
  buffer), plus the root reducer that merges shard partials **in
  deterministic ascending-shard order** when the global aggregation goal
  is reached and hands the merged buffer to the server optimizer.
* Routing of clients to shards is pluggable: :class:`HashShardRouting`
  (a salted-free deterministic integer mix of the client id, probed past
  dead shards) and :class:`LoadAwareShardRouting` (least-loaded live
  shard, ties to the lowest shard id).

Equivalence contract
--------------------
Shard-local folding only *reassociates* the single aggregator's weighted
sum — admission, staleness, weighting, step triggering, and the server
optimizer are byte-for-byte the single-core code paths (this class
subclasses :class:`~repro.core.fedbuff.FedBuffAggregator` and reuses its
``_admit``/``_server_step``) — so for any shard count and either routing
policy the sharded plane matches the single aggregator on the same
arrival sequence to float64 rounding, and with ``num_shards=1`` it is
**bit-identical** (one shard's partial fold performs exactly the single
core's AXPY sequence, and merging one partial is the identity).
``tests/test_sharded_equivalence.py`` is the differential suite that
pins this down.

Shard failover
--------------
:meth:`drop_shard` models one shard dying (its hosting aggregator
process failed, Appendix E.4): the shard's *partial fold is discarded*
(those contributions never reached the root), its in-flight clients are
dropped, and while the shard is dead both routing policies steer new
clients to the surviving shards.  :meth:`revive_shard` brings the shard
back empty once the system layer re-places it on a live node.  The
surviving state matches a single aggregator that was fed only the
surviving arrivals.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.fedbuff import FedBuffAggregator, ServerStepInfo
from repro.core.types import ModelUpdate, TrainingResult

__all__ = [
    "HashShardRouting",
    "LoadAwareShardRouting",
    "AggregationPlaneClock",
    "ShardRoutingMixin",
    "ShardedFedBuffAggregator",
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
    and all that routing and :class:`ShardRoutingMixin` look at.
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
    :meth:`ShardedFedBuffAggregator._merge_shards`: ``partials`` is a
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

    The perf harness attaches one of these to a
    :class:`ShardedFedBuffAggregator` driven by a single thread: each
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
        """``n`` updates' worth of fold work on ``shard_id``'s lane
        (``n > 1`` for one grouped block fold covering n updates)."""
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


def _untimed(phase, shard_id=None, n=1) -> None:
    """``ShardRoutingMixin._timer``'s stop when nothing is attached."""


class ShardRoutingMixin:
    """Client→shard routing, slice bookkeeping, and per-shard failover.

    The half of a sharded aggregation core that does not care *what* a
    shard folds — shared verbatim by the float plane
    (:class:`ShardedFedBuffAggregator`) and the secure plane
    (``repro.system.secure_sharding.SecureShardedAggregator``).  Mixed
    in *before* a FedBuff-protocol core, whose ``register_download`` /
    ``client_failed`` / ``_take`` / ``_record`` / ``_reset_epoch`` /
    ``drop_buffer_and_inflight`` it extends and whose ``_in_flight`` map
    it reads.  The host provides ``_shards`` (a list of
    :class:`_ShardSlice` with a ``clear()``), ``clock`` and ``profiler``.
    """

    def _init_routing(self, num_shards: int, routing, clock) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = num_shards
        self.routing = make_routing(routing) if isinstance(routing, str) else routing
        self.clock = clock
        self._shard_of: dict[int, int] = {}  # client id -> shard id
        # Shard of each buffered entry, parallel to the host's
        # arrival-order lists; lets drop_shard() excise exactly one
        # shard's slice of the open epoch.
        self._entry_shards: list[int] = []
        self.shard_failovers = 0

    # -- client protocol ------------------------------------------------------

    def register_download(self, client_id: int) -> tuple[int, np.ndarray]:
        """Record the download and route the client to a shard.

        With *every* shard dead (the whole plane lost its hosts and no
        capacity has recovered yet) the client is registered but left
        unrouted: its upload is rejected exactly like the single
        aggregator's dead-host path, instead of crashing the download
        event — ``shard_of`` stays ``None`` and the system layer aborts
        the session at upload time.
        """
        out = super().register_download(client_id)
        self._unroute(client_id)  # re-registration while in flight
        try:
            shard_id = self.routing.route(client_id, self._shards)
        except RuntimeError:
            return out
        self._shard_of[client_id] = shard_id
        self._shards[shard_id].in_flight += 1
        return out

    def client_failed(self, client_id: int) -> None:
        super().client_failed(client_id)
        self._unroute(client_id)

    def shard_of(self, client_id: int) -> int | None:
        """The shard an in-flight client is routed to (None if unknown)."""
        return self._shard_of.get(client_id)

    def shard_alive(self, shard_id: int) -> bool:
        """Whether a shard is currently accepting contributions."""
        return self._shards[shard_id].alive

    # -- routed admission ---------------------------------------------------------

    def _unroute(self, client_id: int) -> int | None:
        """Release the client's shard slot, if it holds one."""
        shard_id = self._shard_of.pop(client_id, None)
        if shard_id is not None:
            self._shards[shard_id].in_flight -= 1
        return shard_id

    def _take(self, result: TrainingResult) -> int:
        # Reject an update whose client never got a shard (registered
        # while the whole plane was dead) *before* the host consumes its
        # in-flight entry.
        client_id = result.client_id
        if client_id in self._in_flight and client_id not in self._shard_of:
            raise KeyError(
                f"client {client_id} registered while no shard was live; "
                "its contribution is lost (plane-wide outage)"
            )
        try:
            return super()._take(result)
        except ValueError:
            # The host consumed the in-flight entry before its check
            # failed; the shard slot goes with it.
            self._unroute(client_id)
            raise

    def _record(self, client_id: int, weight: float, staleness: int) -> None:
        """One more buffered entry belongs to its routed shard's slice."""
        super()._record(client_id, weight, staleness)
        shard_id = self._unroute(client_id)
        shard = self._shards[shard_id]
        shard.count += 1
        shard.folds_total += 1
        self._entry_shards.append(shard_id)

    def _timer(self):
        """Start timing one interval of shard-lane or root-lane work.

        Returns ``stop(phase, shard_id=None, n=1)``, which charges the
        elapsed wall-clock to the plane clock (``shard_id``'s lane as
        ``n`` folds, or the root merge when ``None``) and to the
        profiler's ``phase`` (skipped when ``None``).  With neither
        attached nothing reads the clock.
        """
        if self.clock is None and self.profiler is None:
            return _untimed
        t0 = time.perf_counter()

        def stop(phase: str | None, shard_id: int | None = None, n: int = 1) -> None:
            dt = time.perf_counter() - t0
            if self.clock is not None:
                if shard_id is None:
                    self.clock.record_merge(dt)
                else:
                    self.clock.record_fold(shard_id, dt, n)
            if self.profiler is not None and phase is not None:
                self.profiler.record(phase, dt)

        return stop

    # -- failover (Appendix E.4, per shard) ------------------------------------

    def drop_shard(self, shard_id: int) -> tuple[int, list[int]]:
        """One shard's host died: discard its partial fold and its slice.

        The shard's buffered contributions never reached the root and
        are excised from the pending step's accounting; its in-flight
        clients are dropped (their uploads will be rejected exactly as
        on the single path after ``client_failed``).  The shard is
        marked dead so routing steers around it until
        :meth:`revive_shard`.  Returns (buffered updates lost, dropped
        client ids).
        """
        shard = self._shards[shard_id]
        shard.alive = False
        dropped = sorted(
            cid for cid, sid in self._shard_of.items() if sid == shard_id
        )
        for cid in dropped:
            self._shard_of.pop(cid)
            self._in_flight.pop(cid, None)
        shard.in_flight = 0
        lost = shard.count
        if lost:
            keep = [i for i, sid in enumerate(self._entry_shards) if sid != shard_id]
            self._entry_shards = [self._entry_shards[i] for i in keep]
            self._keep_entries(keep)
        shard.clear()
        self.shard_failovers += 1
        return lost, dropped

    def revive_shard(self, shard_id: int) -> None:
        """Bring a dead shard back empty (re-placed on a live node)."""
        shard = self._shards[shard_id]
        shard.alive = True
        shard.clear()
        shard.in_flight = 0

    def _reset_epoch(self) -> None:
        super()._reset_epoch()
        for shard in self._shards:
            shard.clear()
        self._entry_shards = []

    def drop_buffer_and_inflight(self) -> tuple[int, list[int]]:
        """Whole-plane failure: every shard partial and session is lost."""
        out = super().drop_buffer_and_inflight()
        for shard in self._shards:
            shard.in_flight = 0
        self._shard_of.clear()
        return out

    # -- introspection ------------------------------------------------------------

    def live_shards(self) -> list[int]:
        """Ids of shards currently accepting contributions."""
        return [i for i, s in enumerate(self._shards) if s.alive]

    def shard_loads(self) -> list[int]:
        """Lifetime folds per shard (the load-skew telemetry)."""
        return [s.folds_total for s in self._shards]

    def shard_buffered(self) -> list[int]:
        """Updates currently sitting in each shard's open epoch."""
        return [s.count for s in self._shards]

    def shard_in_flight(self) -> list[int]:
        """In-flight clients routed to each shard."""
        return [s.in_flight for s in self._shards]


class ShardedFedBuffAggregator(ShardRoutingMixin, FedBuffAggregator):
    """FedBuff with horizontally sharded intermediate aggregation.

    Parameters are those of :class:`FedBuffAggregator` plus:

    num_shards:
        ``S`` — parallel shard cores folding arrival slices.
    routing:
        ``"hash"``, ``"load"``, or a routing object with
        ``route(client_id, shards) -> shard_id``.
    clock:
        Optional :class:`AggregationPlaneClock` collecting the measured
        per-fold / per-merge costs into the parallel-lane schedule (perf
        harness only; ``None`` skips all timing).
    """

    # Set by repro.obs.telemetry.RunTelemetry.attach when the spec
    # enables wall-clock profiling: shard folds and root merges feed a
    # PhaseProfiler through the same perf_counter seam the plane clock
    # uses.  None (the default) keeps fold paths timing-free.
    profiler = None

    def __init__(
        self,
        state,
        goal: int,
        *,
        num_shards: int = 1,
        routing="hash",
        clock: AggregationPlaneClock | None = None,
        **kwargs,
    ):
        super().__init__(state, goal, **kwargs)
        self._init_routing(num_shards, routing, clock)
        self._shards = [_Shard() for _ in range(num_shards)]

    # -- aggregation ------------------------------------------------------------

    def receive_update(
        self, result: TrainingResult
    ) -> tuple[ModelUpdate, ServerStepInfo | None]:
        """Fold one update into its shard; maybe trigger the root merge."""
        stop = self._timer()
        update = self._admit(result)
        shard_id = self._entry_shards[-1]
        self._fold_one(shard_id, update.result, update)
        # Admission + fold both run on the shard's thread.
        stop("shard_fold", shard_id)
        info = self._finalize_epoch() if self.buffered_count >= self.goal else None
        return update, info

    def _fold_chunk(self, admitted: list[ModelUpdate]) -> None:
        """One weights-by-deltas product *per shard*, ascending shard order
        (with one shard: exactly the single core's block fold); a clock
        is charged each grouped fold as one block of ``len(group)``."""
        shards = self._entry_shards[-len(admitted):]
        for shard_id in sorted(set(shards)):
            group = [(u.result, u) for s, u in zip(shards, admitted) if s == shard_id]
            stop = self._timer()
            self._fold_group(shard_id, group)
            stop("shard_fold", shard_id, len(group))

    # -- fold kernels (the seam the process executor overrides) ----------------

    def _fold_one(self, shard_id: int, result: TrainingResult,
                  update: ModelUpdate) -> None:
        """Fold one admitted update into its shard's partial (scalar AXPY).

        ``repro.core.parallel`` overrides this (and :meth:`_fold_group` /
        :meth:`_merge_shards`) to run the identical float operations on a
        worker process; everything around the fold — admission, counts,
        entry bookkeeping — stays on this class so both executors share
        one accounting path.
        """
        shard = self._shards[shard_id]
        if shard.buffer is None:
            shard.buffer = np.zeros_like(result.delta, dtype=np.float64)
        shard.buffer += update.weight * result.delta.astype(np.float64)

    def _fold_group(
        self, shard_id: int, group: list[tuple[TrainingResult, ModelUpdate]]
    ) -> None:
        """Fold one shard's slice of a block chunk as a grouped GEMM."""
        weights = np.array([u.weight for _, u in group], dtype=np.float64)
        deltas = np.stack([r.delta for r, _ in group]).astype(np.float64)
        shard = self._shards[shard_id]
        if shard.buffer is None:
            shard.buffer = np.zeros(deltas.shape[1], dtype=np.float64)
        shard.buffer += weights @ deltas

    def _merge_shards(self) -> np.ndarray:
        """Root reduce: fold shard partials in ascending shard order.

        The order is deterministic by construction (shard id, with empty
        shards skipped), so re-running the same arrival sequence merges
        identically; with exactly one non-empty partial the merge is the
        identity, which is what makes ``num_shards=1`` bit-identical to
        the single aggregator.
        """
        return self._sum_partials(
            [s.buffer for s in self._shards if s.buffer is not None]
        )

    def _sum_partials(self, partials: list[np.ndarray]) -> np.ndarray:
        """The root reduce both executors share: ``p0 + p1``, then
        ``+= p_k`` in list order.  Bit-identical to ``np.add.reduce``
        over the list (the same left-to-right adds) without the
        ``(S, L)`` array numpy would first stack it into.  One partial
        is returned as is, not copied."""
        if not partials:  # all contributions were zero-weight-dropped shards
            return np.zeros(self.state.size, dtype=np.float64)
        if len(partials) == 1:
            return partials[0]
        merged = partials[0] + partials[1]
        for partial in partials[2:]:
            merged += partial
        return merged

    def _server_step(self) -> ServerStepInfo:
        stop = self._timer()
        self._buffer = self._merge_shards()
        info = super()._server_step()
        stop("root_merge")
        return info

    def __repr__(self) -> str:
        return (
            f"ShardedFedBuffAggregator(goal={self.goal}, "
            f"shards={self.num_shards}, routing={self.routing.name}, "
            f"version={self.version}, buffered={self.buffered_count}, "
            f"in_flight={len(self._in_flight)})"
        )
