"""Real multi-core sharded aggregation — shared-memory lane workers.

PR-4's sharded plane parallelism is *modeled*: a single thread folds
every shard partial and :class:`~repro.core.sharding.AggregationPlaneClock`
charges the measured costs to virtual lanes.  This module makes the
parallelism real while keeping the numbers bit-identical, with **one
pool, pluggable lanes, and one fallback path**:

* :class:`ShardWorkerPool` runs one ``multiprocessing`` worker process
  per shard.  Client deltas travel through two
  ``multiprocessing.shared_memory`` slabs — a float32 *input slab* of
  reusable slots the parent writes arrivals into, and an *output slab*
  whose rows belong to exactly one shard each, written **only** by that
  shard's worker (single-writer discipline; the parent only reads it at
  merge time).  Task messages carry a slot index and small scalars, so
  no update payload is ever pickled; they travel on one pipe per shard,
  written by the dispatching thread itself (:class:`_TaskPipe` — no
  feeder thread between a dispatch and its worker), and the acks come
  back on one shared queue.
* What a worker *does* with a task is the pool's **lane**: a small
  picklable object that states its output rows/dtype and, inside the
  worker, turns ``(op, slots, args)`` into a state change plus an
  optional ack payload.  :class:`FoldLane` (here) is the float partial
  fold; the secure lane (a whole TSA + server pair per worker) lives
  next to its shard state in :mod:`repro.system.secure_sharding`.
* :class:`ProcessExecutorMixin` is the parent-side half every
  process-executor aggregator shares: pool ownership, the
  ``WorkerPoolError`` → ``executor_fallback`` translation, and the pool
  hooks on the shard-failover paths.
  :class:`ProcessShardedFedBuffAggregator` applies it to the
  ``_fold_one`` / ``_merge_shards`` seams of
  :class:`~repro.core.fedbuff.FedBuffAggregator`.

Determinism contract
--------------------
The fold worker executes the *identical* float operation sequence as the
in-process shard core — ``partial += w * delta.astype(float64)`` per
arrival, on arrays of the same dtype, shape, and layout, accumulated in
per-shard arrival order from a zeroed partial — and the root merge is
the same statement, not a copy of it: the in-process core's
ascending-shard add (``p0 + p1``, then ``+= p_k``; no stacking copy).  The process-executor plane is
therefore **bit-identical** to the in-process plane (pinned by
``tests/test_sharded_equivalence.py``), which in turn carries the PR-4
contract against the single aggregator.

Worker lifecycle
----------------
Workers are spawned at pool construction (``fork``/``spawn``/
``forkserver`` via ``start_method``), torn down by :meth:`close` (also
registered as a GC finalizer so interrupted runs don't leak processes).
A worker that dies, a worker that stalls (no ack, or a task pipe that
stays full, for ``ack_timeout_s``) or an exhausted input slab triggers a
permanent fallback to the inline executor: the aggregator rebuilds its inline
shard state from the current epoch's dispatch log and the still-live
input slab, bit-identically, and surfaces a structured
``executor_fallback`` event (``on_event`` callback; the system layer
wires it into the run's :class:`EventLog`).  Mirroring the sweep
executor in ``repro.harness.sweep``, a failed worker therefore costs a
log line and the lost parallelism, never the result.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import queue as queue_mod
import selectors
import time
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.core.fedbuff import FedBuffAggregator

__all__ = [
    "WorkerPoolError",
    "FoldLane",
    "ShardWorkerPool",
    "ProcessExecutorMixin",
    "ProcessShardedFedBuffAggregator",
    "numpy_fold_kernel",
]

_LOG = logging.getLogger("repro.core.parallel")


class WorkerPoolError(RuntimeError):
    """A worker died, timed out, or the pool can't accept more work."""


# -- fold kernel ---------------------------------------------------------------


def numpy_fold_kernel(partial, inputs, slot, weight) -> None:
    """The fold every worker applies: op-for-op the in-process shard fold,
    the single core's AXPY ``partial += w * delta.astype(float64)`` on
    input slot ``slot`` — same dtypes, same layout, hence bit-identical
    accumulation.
    """
    partial += weight * inputs[slot].astype(np.float64)


# -- lanes ---------------------------------------------------------------------


class FoldLane:
    """The float lane: one float64 partial row per shard, folded in place.

    A *lane* is what distinguishes one pool from another.  It is pickled
    into every worker, so it holds configuration only; it states the
    shard's share of the output slab (``out_rows`` rows of
    ``out_dtype``), the op :meth:`ShardWorkerPool.reset_epoch` /
    :meth:`~ShardWorkerPool.discard_shard` post to wipe a shard's epoch
    state (``reset_op``), and :meth:`open` builds — inside the worker —
    the handler that turns ``(op, slots, args)`` into a state change and
    an ack payload (``None`` for none; a :class:`WorkerPoolError` to
    fail the pool parent-side).

    Ops: ``fold`` (one input slot, ``args = (weight,)``) applies
    :func:`numpy_fold_kernel` to it; ``reset`` zeroes the partial.
    """

    out_rows = 1
    out_dtype = np.float64
    reset_op = "reset"

    def open(self, shard_id: int, inputs: np.ndarray, rows: np.ndarray):
        """The worker-side op handler.  Deliberately thin — all float
        math lives in :func:`numpy_fold_kernel`, which the equivalence
        suite also drives in-process."""
        partial = rows[0]  # the one row this process may write

        def handle(op: str, slots: tuple[int, ...], args: tuple):
            if op == "fold":
                numpy_fold_kernel(partial, inputs, slots[0], args[0])
            else:  # "reset"
                partial[:] = 0.0

        return handle

    def __repr__(self) -> str:
        return "FoldLane()"


# -- task channel --------------------------------------------------------------


class _TaskPipe:
    """One shard's task channel, written on the dispatching thread.

    ``multiprocessing.Queue.put`` hands a message to a feeder thread,
    which must win the GIL from a parent already running its next event
    before the worker hears of the task; :meth:`put` pickles and writes
    at once.  What the queue gave for free is restored by hand: a pipe
    fills (~64 KiB unread), so the write end is non-blocking and a full
    pipe is waited on for a bounded time; and the parent closes its read
    end once the worker holds one (:meth:`close_reader`), so a dead
    worker's pipe breaks instead of filling.
    """

    _stream = None  # the worker's buffered view of the read end

    def __init__(self, ctx):
        self._reader, self._writer = ctx.Pipe(duplex=False)
        os.set_blocking(self._writer.fileno(), False)

    def put(self, msg, timeout: float) -> bool:
        """Parent side: write ``msg`` now; False if the pipe stayed full
        for ``timeout`` seconds in all.  A broken pipe counts as written:
        its worker is dead, the task could never run, and the next ack
        wait names the worker."""
        data = memoryview(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL))
        fd = self._writer.fileno()
        deadline = time.monotonic() + timeout
        while data:
            try:
                data = data[os.write(fd, data):]
            except BrokenPipeError:
                break
            except BlockingIOError:
                with selectors.DefaultSelector() as writable:
                    writable.register(fd, selectors.EVENT_WRITE)
                    if not writable.select(max(0.0, deadline - time.monotonic())):
                        return False
        return True

    def get(self):
        """Worker side: the next message (blocks until one arrives)."""
        if self._stream is None:
            self._stream = open(self._reader.fileno(), "rb", closefd=False)
        return pickle.load(self._stream)

    def close_reader(self) -> None:
        self._reader.close()

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


# -- worker process ------------------------------------------------------------


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it with a resource tracker.

    Attaching registers the segment again (bpo-39959), which either
    double-unlinks it at worker exit (spawn: the worker has its own
    tracker) or erases the parent's registration (fork: the tracker is
    shared).  The parent owns segment lifecycle, so workers attach with
    registration suppressed.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _worker_main(
    shard_id: int,
    lane,
    input_name: str,
    output_name: str,
    num_shards: int,
    vector_length: int,
    slots: int,
    task_queue,
    ack_queue,
) -> None:
    """One shard lane: feed ``(op, slots, args, token)`` tasks to the
    lane's handler and ack each one.

    Runs in a child process.  Acks are ``(shard_id, token)``, with the
    handler's payload appended only when it returned one — the fold hot
    path pickles nothing it doesn't need.
    """
    input_shm = _attach_untracked(input_name)
    output_shm = _attach_untracked(output_name)
    inputs = np.ndarray(
        (slots, vector_length), dtype=np.float32, buffer=input_shm.buf
    )
    out = np.ndarray(
        (num_shards, lane.out_rows, vector_length),
        dtype=lane.out_dtype,
        buffer=output_shm.buf,
    )
    handle = lane.open(shard_id, inputs, out[shard_id])
    try:
        while True:
            msg = task_queue.get()
            if msg is None:
                break
            op, task_slots, args, token = msg
            payload = handle(op, task_slots, args)
            ack_queue.put(
                (shard_id, token) if payload is None else (shard_id, token, payload)
            )
    finally:
        del handle, inputs, out
        input_shm.close()
        output_shm.close()


# -- pool ----------------------------------------------------------------------


def _default_on_event(kind: str, fields: dict) -> None:
    _LOG.warning(
        "%s %s", kind, " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
    )


def _cleanup(procs, task_queues, ack_queue, shms) -> None:
    """Idempotent teardown shared by close() and the GC finalizer."""
    for q in task_queues:
        q.put(None, 0.0)  # a worker whose pipe is full is killed below
    for p in procs:
        p.join(timeout=2.0)
    for p in procs:
        if p.is_alive():  # stuck worker safety net (SIGKILL: it may be stopped)
            p.kill()
            p.join(timeout=2.0)
    for q in task_queues:
        q.close()
    try:
        ack_queue.close()
        ack_queue.cancel_join_thread()
    except Exception:
        pass
    for shm in shms:
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass


class ShardWorkerPool:
    """One worker process per shard + the shared-memory slabs they work on.

    Parameters
    ----------
    num_shards, vector_length:
        Shape of the output slab (``lane.out_rows`` rows per shard).
    slots:
        Input-slab capacity in arrivals.  Slots are held for the whole
        buffer epoch (so a fallback can replay the epoch from the slab)
        and all freed at the merge barrier; size it at ~2x the
        aggregation goal to ride out shard-failover refills.
    lane:
        What each worker does with its tasks; defaults to the float
        fold lane (see :class:`FoldLane`).
    start_method:
        ``multiprocessing`` start method (``None`` = platform default).
    on_event:
        ``callback(kind, fields)`` for structured lifecycle events
        (defaults to a ``repro.core.parallel`` warning log line).
    ack_timeout_s:
        Barrier patience before the pool is declared wedged.
    """

    # Set by repro.obs.telemetry.RunTelemetry.attach when wall-clock
    # profiling is on: slab writes + dispatch ("pool_dispatch") and the
    # merge-barrier ack wait ("pool_barrier") feed a PhaseProfiler.
    # None (the default) keeps the dispatch path timing-free.
    profiler = None

    def __init__(
        self,
        num_shards: int,
        vector_length: int,
        slots: int,
        *,
        lane=None,
        start_method: str | None = None,
        on_event=None,
        ack_timeout_s: float = 60.0,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if vector_length < 1:
            raise ValueError("vector_length must be at least 1")
        if slots < 1:
            raise ValueError("slots must be at least 1")
        self.lane = lane if lane is not None else FoldLane()
        self.num_shards = num_shards
        self.vector_length = vector_length
        self.slots = slots
        self.start_method = start_method
        self.on_event = on_event or _default_on_event
        self.ack_timeout_s = ack_timeout_s
        self.healthy = True

        ctx = multiprocessing.get_context(start_method)
        out_shape = (num_shards, self.lane.out_rows, vector_length)
        self._input_shm = shared_memory.SharedMemory(
            create=True, size=slots * vector_length * 4
        )
        self._output_shm = shared_memory.SharedMemory(
            create=True,
            size=int(np.prod(out_shape)) * np.dtype(self.lane.out_dtype).itemsize,
        )
        self.inputs = np.ndarray(
            (slots, vector_length), dtype=np.float32, buffer=self._input_shm.buf
        )
        self._out = np.ndarray(
            out_shape, dtype=self.lane.out_dtype, buffer=self._output_shm.buf
        )
        self._out[:] = 0  # workers are not running yet
        self._ack_queue = ctx.Queue()
        self._task_queues: list[_TaskPipe] = []
        self._procs = []
        for sid in range(num_shards):
            # Pipe, start, close — per shard, so that under ``fork`` no
            # later worker inherits an earlier pipe's read end.
            tasks = _TaskPipe(ctx)
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    sid,
                    self.lane,
                    self._input_shm.name,
                    self._output_shm.name,
                    num_shards,
                    vector_length,
                    slots,
                    tasks,
                    self._ack_queue,
                ),
                daemon=True,
                name=f"shard-worker-{sid}",
            )
            proc.start()
            tasks.close_reader()
            self._task_queues.append(tasks)
            self._procs.append(proc)

        self._free_slots = list(range(slots - 1, -1, -1))
        self._epoch_slots: list[int] = []
        self._outstanding: dict[int, int] = {}  # token -> shard id
        self._results: dict[int, object] = {}   # token -> ack payload
        self._next_token = 0
        # Per-epoch dispatch log: (shard, op, slots, args) in dispatch
        # (= arrival) order — the inline-replay script for fallback —
        # and lifetime dispatches per shard, for lanes whose replay must
        # first catch up on what earlier epochs consumed.
        self._log: list[tuple[int, str, tuple[int, ...], tuple]] = []
        self._dispatched = [0] * num_shards
        self._finalizer = weakref.finalize(
            self,
            _cleanup,
            self._procs,
            self._task_queues,
            self._ack_queue,
            [self._input_shm, self._output_shm],
        )

    # -- dispatch --------------------------------------------------------------

    def _check_open(self) -> None:
        """Refuse any op on a closed pool: :meth:`close` unmaps the slabs
        that ``inputs`` and the output rows still view, so reaching them
        would read or write unmapped memory."""
        if not self._finalizer.alive:
            raise WorkerPoolError("the pool is closed (workers stopped, slabs released)")

    def _take_slot(self) -> int:
        if not self._free_slots:
            self.healthy = False
            raise WorkerPoolError(
                f"input slab exhausted ({self.slots} slots in flight; "
                "shard failover churned more arrivals than one epoch holds)"
            )
        slot = self._free_slots.pop()
        self._epoch_slots.append(slot)
        return slot

    def _post(self, shard_id: int, op: str, task_slots=(), args=()) -> int:
        self._check_open()
        token = self._next_token
        self._next_token += 1
        self._outstanding[token] = shard_id
        msg = (op, task_slots, args, token)
        if not self._task_queues[shard_id].put(msg, self.ack_timeout_s):
            self.healthy = False
            raise WorkerPoolError(
                f"shard {shard_id}'s task pipe stayed full for "
                f"{self.ack_timeout_s}s (worker stalled)"
            )
        return token

    def dispatch(self, shard_id: int, op: str, args: tuple, delta) -> None:
        """Asynchronously run one *logged* lane op on ``shard_id``'s worker.

        The arrival's delta is written into a fresh input slot; the task
        (and the dispatch log, which is what a fallback replays) names it.
        """
        t0 = time.perf_counter() if self.profiler is not None else 0.0
        self._check_open()
        task_slots = (self._take_slot(),)
        self.inputs[task_slots[0], :] = delta
        # Posted before it is logged: a task the pipe refused is the
        # caller's to run inline, so a replay must not run it too.
        self._post(shard_id, op, task_slots, args)
        self._log.append((shard_id, op, task_slots, args))
        self._dispatched[shard_id] += 1
        if self.profiler is not None:
            self.profiler.record("pool_dispatch", time.perf_counter() - t0)

    def fold_scalar(self, shard_id: int, delta: np.ndarray, weight: float) -> None:
        """Asynchronously fold one arrival into ``shard_id``'s partial."""
        self.dispatch(shard_id, "fold", (float(weight),), delta)

    # -- synchronization -------------------------------------------------------

    def dead_workers(self) -> list[int]:
        """Shard ids whose worker process is no longer alive."""
        return [sid for sid, p in enumerate(self._procs) if not p.is_alive()]

    def kill_worker(self, shard_id: int) -> bool:
        """Chaos hook: terminate one shard's worker process (SIGTERM).

        The death surfaces at the next ack wait — :meth:`barrier` raises
        :class:`WorkerPoolError`, which trips the dead-worker fallback:
        the parent replays this epoch's dispatch log inline,
        bit-identically.  Returns whether a live worker was killed.
        """
        if not (0 <= shard_id < self.num_shards):
            raise ValueError(f"no such shard {shard_id}")
        proc = self._procs[shard_id]
        if not proc.is_alive():
            return False
        proc.terminate()
        proc.join(timeout=5.0)
        return True

    def _drain_until(self, token: int | None) -> None:
        """Collect acks until ``token`` arrives (or all, when ``None``)."""
        self._check_open()
        deadline = time.monotonic() + self.ack_timeout_s
        while self._outstanding if token is None else token in self._outstanding:
            try:
                sid, got, *acked = self._ack_queue.get(timeout=0.1)
            except queue_mod.Empty:
                dead = self.dead_workers()
                if dead:
                    self.healthy = False
                    raise WorkerPoolError(
                        f"shard worker(s) {dead} died with "
                        f"{len(self._outstanding)} task(s) outstanding"
                    ) from None
                if time.monotonic() > deadline:
                    self.healthy = False
                    raise WorkerPoolError(
                        f"timed out after {self.ack_timeout_s}s waiting for "
                        f"{len(self._outstanding)} worker ack(s)"
                    ) from None
            else:
                self._outstanding.pop(got, None)
                if acked:
                    if isinstance(acked[0], WorkerPoolError):
                        self.healthy = False
                        raise acked[0]
                    self._results[got] = acked[0]

    def barrier(self) -> None:
        """Wait until every dispatched task has been acked.

        Raises :class:`WorkerPoolError` (and marks the pool unhealthy)
        if a worker dies, the acks stall past ``ack_timeout_s``, or a
        lane handler reports a failed op — all of which the caller
        handles by replaying the dispatch log inline.
        """
        t0 = time.perf_counter() if self.profiler is not None else 0.0
        self._drain_until(None)
        self._results.clear()
        if self.profiler is not None:
            self.profiler.record("pool_barrier", time.perf_counter() - t0)

    def call(self, shard_id: int, op: str):
        """Synchronous, unlogged lane op; returns its ack payload."""
        token = self._post(shard_id, op)
        self._drain_until(token)
        return self._results.pop(token, None)

    def rows(self, shard_id: int) -> np.ndarray:
        """Read-only view of one shard's output-slab rows.

        Only meaningful once the op that writes them has been acked; the
        parent must never write through it (single-writer discipline).
        """
        self._check_open()
        return self._out[shard_id]

    def partial(self, shard_id: int) -> np.ndarray:
        """One shard's float64 partial row (fold lane, after :meth:`barrier`)."""
        self._check_open()
        return self._out[shard_id, 0]

    # -- epoch lifecycle -------------------------------------------------------

    def reset_epoch(self) -> None:
        """After a merged server step: reset every lane, free all slots."""
        # The epoch is closed before the resets are posted: should a
        # post fail, the fallback replays an empty log, not a merged one.
        self._free_slots.extend(self._epoch_slots)
        self._epoch_slots.clear()
        self._log.clear()
        for shard_id in range(self.num_shards):
            self._post(shard_id, self.lane.reset_op)

    def discard_shard(self, shard_id: int) -> None:
        """Shard failover: drop its epoch tasks and reset its lane.

        The lifetime dispatch count is deliberately *not* rolled back —
        the worker really consumed those tasks, so a catch-up replay
        must include them.
        """
        self._log = [t for t in self._log if t[0] != shard_id]
        self._post(shard_id, self.lane.reset_op)

    def epoch_log(self) -> list[tuple[int, str, tuple[int, ...], tuple]]:
        """The open epoch's dispatch log (the replay script), in order."""
        return list(self._log)

    def dispatched_before_epoch(self, shard_id: int) -> int:
        """Tasks the shard's worker consumed before the open epoch's."""
        return self._dispatched[shard_id] - sum(
            1 for t in self._log if t[0] == shard_id
        )

    def replay_partials(self) -> dict[int, np.ndarray]:
        """Recompute every fold-lane partial inline from the dispatch log.

        The log preserves per-shard dispatch (= arrival) order and every
        epoch slot is still live in the input slab, so applying the same
        kernel from a zeroed buffer reproduces each worker's fold
        sequence bit-for-bit — this is the dead-worker fallback path.
        """
        self._check_open()
        out: dict[int, np.ndarray] = {}
        for shard_id, _, (slot,), (weight,) in self._log:
            buf = out.get(shard_id)
            if buf is None:
                buf = out[shard_id] = np.zeros(
                    self.vector_length, dtype=np.float64
                )
            numpy_fold_kernel(buf, self.inputs, slot, weight)
        return out

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        """Stop the workers and release both slabs (idempotent); every
        later op raises :class:`WorkerPoolError`."""
        if self._finalizer.alive:
            self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("ok" if self.healthy else "unhealthy")
        return (
            f"ShardWorkerPool(shards={self.num_shards}, "
            f"vector_length={self.vector_length}, slots={self.slots}, "
            f"lane={self.lane!r}, {state})"
        )


# -- process-executor aggregators ----------------------------------------------


class ProcessExecutorMixin:
    """The parent-side half every process-executor aggregator shares.

    Mixed in *before* a sharded aggregator core (float or secure): it
    owns the pool handle, the one ``WorkerPoolError`` → fallback
    translation (:meth:`_on_pool`), the ``executor_fallback`` event, and
    the pool hooks on the epoch-reset and shard-failover paths.  The host
    supplies only :meth:`_restore_inline_shards` — "rebuild my inline
    shard state from the pool's dispatch log" — after which its inherited
    in-process code continues from exactly the state the workers held.
    """

    # False until _attach_pool: host constructors run their inline setup
    # (which may already hit the overridden seams) before the pool exists.
    _pool_active = False
    _closed = False

    def _attach_pool(self, pool: ShardWorkerPool, owned: bool, on_event) -> None:
        self._pool = pool
        self._owns_pool = owned
        self._on_event = on_event or _default_on_event
        self._pool_active = True
        self.executor_fallbacks = 0

    @property
    def pool_active(self) -> bool:
        """Whether shard work is still running on worker processes."""
        return self._pool_active

    def kill_worker(self, shard_id: int) -> bool:
        """Chaos hook (``worker_kill`` fault): terminate one shard worker.

        The fallback does not fire here — it fires at the next barrier or
        dispatch, replaying the dispatch log inline (bit-identical), which
        is exactly the mid-epoch recovery path this hook exists to test.
        Returns False once already fallen back (nothing left to kill).
        """
        if not self._pool_active:
            return False
        return self._pool.kill_worker(shard_id)

    def _restore_inline_shards(self) -> None:
        raise NotImplementedError

    def _fall_back(self, reason: str, **fields) -> None:
        """Permanently switch to the inline executor, bit-identically."""
        if not self._pool_active:
            return
        self._pool_active = False
        self.executor_fallbacks += 1
        self._restore_inline_shards()
        self._on_event(
            "executor_fallback",
            {"reason": reason, "executor": "inline", **fields},
        )
        if self._owns_pool:
            self._pool.close()

    def _on_pool(self, fn, *args, shard: int | None = None) -> bool:
        """Run one pool operation; True iff it completed on the pool.

        False means the caller must take its inline path: either the
        executor had already fallen back, or ``fn`` raised
        :class:`WorkerPoolError` and this call fell back — as
        ``pool_error`` for a dispatch to ``shard``, as ``worker_dead``
        for a synchronization point.  Any other exception (a malformed
        delta, say) is the caller's error, not the executor's, and
        propagates with the pool left active.  A closed core raises.
        """
        if not self._pool_active:
            if self._closed:
                raise RuntimeError(
                    f"{type(self).__name__} is closed (its worker pool is gone)"
                )
            return False
        try:
            fn(*args)
        except WorkerPoolError as exc:
            if shard is None:
                self._fall_back(
                    "worker_dead",
                    dead=tuple(self._pool.dead_workers()),
                    error=str(exc),
                )
            else:
                self._fall_back("pool_error", shard=shard, error=str(exc))
            return False
        return True

    # -- lifecycle hooks -------------------------------------------------------

    def drop_shard(self, shard_id):
        self._on_pool(self._pool.discard_shard, shard_id)
        return super().drop_shard(shard_id)

    def _reset_epoch(self) -> None:
        super()._reset_epoch()
        self._on_pool(self._pool.reset_epoch)

    def drain(self) -> None:
        """Barrier on every outstanding worker task (perf-harness hook)."""
        self._on_pool(self._pool.barrier)

    def close(self) -> None:
        """Tear down the owned worker pool (shared pools stay up).

        Idempotent and silent (no event).  The core is unusable after:
        its shard state lives on the pool, so every later pool seam
        raises instead of running inline against stale partials.
        """
        if self._owns_pool:
            self._pool.close()
        self._pool_active = False
        self._closed = True

    def __repr__(self) -> str:
        if self._closed:
            executor = "closed"
        else:
            executor = "process" if self._pool_active else "inline(fallback)"
        return (
            f"{type(self).__name__}(goal={self.goal}, "
            f"shards={self.num_shards}, routing={self.routing.name}, "
            f"executor={executor}, version={self.version})"
        )


class ProcessShardedFedBuffAggregator(ProcessExecutorMixin, FedBuffAggregator):
    """Sharded FedBuff whose shard cores run on real worker processes.

    Admission, staleness, weighting, routing, failover, and step
    triggering are the inherited in-process code paths; only the three
    numeric seams differ — folds are dispatched to the shard's worker,
    and the root merge barriers on the acks before reducing the
    shared-memory partials in ascending shard order.  Bit-identical to
    the in-process plane by the module's determinism contract.

    Parameters beyond :class:`~repro.core.fedbuff.FedBuffAggregator`'s:

    pool:
        A pre-built :class:`ShardWorkerPool` to fold on (shared across
        drives, e.g. by the perf harness).  When ``None`` the aggregator
        spawns and owns one sized at ``2 * goal`` slots.
    start_method:
        Forwarded to the owned pool (ignored when ``pool`` is given).
    on_event:
        Structured lifecycle callback (see :class:`ShardWorkerPool`).
    """

    def __init__(
        self,
        state,
        goal: int,
        *,
        num_shards: int = 1,
        routing="hash",
        pool: ShardWorkerPool | None = None,
        start_method: str | None = None,
        on_event=None,
        **kwargs,
    ):
        super().__init__(
            state, goal, num_shards=num_shards, routing=routing, **kwargs
        )
        owned = pool is None
        if owned:
            pool = ShardWorkerPool(
                num_shards=num_shards,
                vector_length=int(state.size),
                slots=2 * goal,
                start_method=start_method,
                on_event=on_event,
            )
        else:
            if pool.num_shards != num_shards:
                raise ValueError(
                    f"pool has {pool.num_shards} shards, aggregator needs "
                    f"{num_shards}"
                )
            if pool.vector_length != int(state.size):
                raise ValueError(
                    f"pool vector length {pool.vector_length} != model size "
                    f"{int(state.size)}"
                )
            if pool.closed or not pool.healthy:
                raise ValueError("pool is closed or unhealthy")
        self._lanes = True  # even one shard folds on its worker
        self._attach_pool(pool, owned, on_event)

    def _restore_inline_shards(self) -> None:
        """Every shard's partial, replayed from the dispatch log against
        the input slab (same kernel, same per-shard order)."""
        partials = self._pool.replay_partials()
        for sid, shard in enumerate(self._shards):
            shard.buffer = partials.get(sid)

    # -- overridden numeric seams ----------------------------------------------

    def _fold_one(self, shard_id, result, update) -> None:
        if self._pool_active and result.delta.dtype != np.float32:
            self._fall_back(
                "unsupported_dtype", shard=shard_id, dtype=str(result.delta.dtype)
            )
        if not self._on_pool(
            self._pool.fold_scalar, shard_id, result.delta, update.weight,
            shard=shard_id,
        ):
            super()._fold_one(shard_id, result, update)

    def _merge_shards(self) -> np.ndarray:
        if not self._on_pool(self._pool.barrier):
            return super()._merge_shards()
        # count > 0 is exactly the base class's "buffer is not None":
        # both flip on the first fold and reset together on step/failover.
        partials = [
            self._pool.partial(sid)
            for sid, shard in enumerate(self._shards)
            if shard.count > 0
        ]
        merged = self._sum_partials(partials)
        # A lone partial comes back as is — a view of the output slab,
        # which the epoch reset is about to zero.
        return merged.copy() if len(partials) == 1 else merged
