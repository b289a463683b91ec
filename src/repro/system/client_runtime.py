"""Client participation session — the device side of the protocol.

One :class:`ClientSession` runs the four participation stages of
Section 6.1 on the event loop:

1. **download** of model parameters/code from the CDN;
2. **train** on local data for the device's execution time — during which
   the device may drop out (~10 % do) or hit the server-imposed timeout
   (4 minutes in the paper);
3. **report** of status to the server;
4. **upload** of the update in chunks.

All stages happen inside a virtual session: transient hiccups do not kill
the session, but a dropout does, and the server only *notices* a dropout
after a failure-detection delay (missed heartbeats) — which is when the
slot frees up for a replacement client.

Cohort dispatch
---------------
Every training goes through the task runtime's :class:`CohortDispatcher`.
At training-complete time the session parks a :class:`PendingTraining`
(snapshot of everything the trainer needs) and schedules its upload; the
result is computed only when the upload is processed, when the
dispatcher drains up to ``max_cohort`` parked trainings into one
``train_cohort`` call.  A session that aborts first discards its parked
training, which is then never computed.  Deferral is invisible to the
simulation: a result is a pure function of its snapshot, every event
keeps its timestamp, and the batched engine is bit-equivalent to the
scalar one at every cohort size (see :mod:`repro.core.cohort`), so the
batch cap moves only the simulator's wall-clock.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.types import TrainingResult
from repro.sim.engine import EventHandle, Simulator
from repro.sim.network import NetworkModel
from repro.sim.population import DevicePopulation, DeviceProfile
from repro.sim.trace import MetricsTrace, Outcome, ParticipationRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.adapters import TrainerAdapter
    from repro.system.aggregator import FLTaskRuntime

__all__ = ["PendingTraining", "CohortDispatcher", "ClientSession"]


class PendingTraining:
    """A parked client training: the inputs, and eventually the result."""

    __slots__ = ("profile", "initial_model", "initial_version", "participation",
                 "result")

    def __init__(
        self,
        profile: DeviceProfile,
        initial_model: np.ndarray,
        initial_version: int,
        participation: int,
    ):
        self.profile = profile
        self.initial_model = initial_model
        self.initial_version = initial_version
        self.participation = participation
        self.result: TrainingResult | None = None


class CohortDispatcher:
    """Groups parked client trainings into batched adapter calls.

    Parked trainings live in an insertion-ordered dict keyed by the
    :class:`PendingTraining` itself (hashed by identity), so ``discard``
    and the lookup of the demanded training are O(1).  A drain takes the
    oldest ``max_cohort`` parked trainings in submission order; when the
    demanded one is not among them it replaces the last.  Cohort
    composition therefore depends only on event order, never on hashing.

    Parameters
    ----------
    adapter:
        The task's trainer backend; its ``train_cohort`` runs the batch.
    max_cohort:
        Upper bound on clients per batched call (the ``cohort_batch_size``
        knob).
    """

    def __init__(self, adapter: "TrainerAdapter", max_cohort: int = 1):
        if max_cohort < 1:
            raise ValueError("max_cohort must be at least 1")
        self.adapter = adapter
        self.max_cohort = max_cohort
        self._parked: dict[PendingTraining, None] = {}
        self.batches_run = 0
        self.trainings_run = 0

    def __len__(self) -> int:
        return len(self._parked)

    def submit(
        self,
        profile: DeviceProfile,
        initial_model: np.ndarray,
        initial_version: int,
        participation: int,
    ) -> PendingTraining:
        """Park one client's training for batched execution."""
        pending = PendingTraining(profile, initial_model, initial_version, participation)
        self._parked[pending] = None
        return pending

    def discard(self, pending: PendingTraining) -> None:
        """Drop a parked training whose session aborted (never computed)."""
        self._parked.pop(pending, None)
        pending.initial_model = None  # cancelled events may still hold it

    def resolve(self, pending: PendingTraining) -> TrainingResult:
        """Return ``pending``'s result, computing a cohort batch if needed."""
        if pending.result is None:
            batch = self._drain(pending)
            results = self.adapter.train_cohort(
                [p.profile for p in batch],
                [p.initial_model for p in batch],
                [p.initial_version for p in batch],
                [p.participation for p in batch],
            )
            for member, result in zip(batch, results):
                member.result = result
                member.initial_model = None  # free the snapshot
            self.batches_run += 1
            self.trainings_run += len(batch)
        return pending.result

    def _drain(self, required: PendingTraining) -> list[PendingTraining]:
        """Unpark the oldest ``max_cohort`` trainings, ``required`` among them."""
        if required not in self._parked:
            raise ValueError("required training is not parked")
        batch = list(islice(self._parked, self.max_cohort))
        if required not in batch:  # identity: PendingTraining has no __eq__
            batch[-1] = required
        for p in batch:
            del self._parked[p]
        return batch


class ClientSession:
    """One client's participation in one task, driven by simulator events.

    Parameters
    ----------
    profile:
        The device's static characteristics.
    task_rt:
        The task runtime hosting this session (provides the aggregation
        core and upload sink).
    sim, network, population, trace:
        Simulation substrate.
    participation:
        This device's participation counter (salts training shuffles and
        dropout rolls).
    failure_detection_s:
        Delay between a silent client death and the server noticing it.
    on_end:
        Callback fired when the slot is free again (drives replacement —
        the paper's "fast client replacement").
    """

    def __init__(
        self,
        profile: DeviceProfile,
        task_rt: "FLTaskRuntime",
        sim: Simulator,
        network: NetworkModel,
        population: DevicePopulation,
        trace: MetricsTrace,
        participation: int,
        failure_detection_s: float,
        on_end: Callable[["ClientSession"], None],
    ):
        self.profile = profile
        self.task_rt = task_rt
        self.sim = sim
        self.network = network
        self.population = population
        self.trace = trace
        self.participation = participation
        self.failure_detection_s = failure_detection_s
        self.on_end = on_end

        self.device_id = profile.device_id
        self.start_time = sim.now
        self.initial_version: int | None = None
        self.initial_model = None
        self.execution_time = 0.0
        self.finished = False
        self._active = False
        self._handles: list[EventHandle] = []
        self._pending: PendingTraining | None = None

    # -- stage 1: download ------------------------------------------------------

    def begin(self) -> None:
        """Start the session: count it active and schedule the download."""
        self._active = True
        self.trace.record_active_delta(self.sim.now, +1)
        model_bytes = self.task_rt.config.model_size_bytes
        delay = self.network.download_time(self.profile, model_bytes)
        self.trace.record_download(model_bytes)
        if self.task_rt.observer is not None:
            self.task_rt.observer.on_session_begin(self)
        self._schedule(delay, self._downloaded)

    # -- stage 2: local training ----------------------------------------------------

    def _downloaded(self) -> None:
        self.initial_version, self.initial_model = self.task_rt.core.register_download(
            self.device_id
        )
        cfg = self.task_rt.config
        self.execution_time = self.profile.execution_time(
            self.population.config.overhead_s, epochs=cfg.local_epochs
        )
        drop_frac = self.population.dropout_point(self.device_id, self.participation)
        if self.task_rt.observer is not None:
            self.task_rt.observer.on_session_downloaded(self)

        if drop_frac is not None and drop_frac * self.execution_time < min(
            self.execution_time, cfg.client_timeout_s
        ):
            # Silent device death mid-training.
            self._schedule(drop_frac * self.execution_time, self._dropped)
        elif self.execution_time > cfg.client_timeout_s:
            # Server-imposed execution timeout (paper: 4 minutes).
            self._schedule(cfg.client_timeout_s, self._timed_out)
        else:
            self._schedule(self.execution_time, self._training_complete)

    # -- stages 3-4: report + upload --------------------------------------------

    def _training_complete(self) -> None:
        # Park the training inputs; the dispatcher computes the result
        # when the upload is processed.
        payload = self._pending = self.task_rt.cohort.submit(
            self.profile, self.initial_model, self.initial_version,
            self.participation,
        )
        self.initial_model = None  # the parked training holds the snapshot
        upload_bytes = self.task_rt.config.model_size_bytes
        delay = self.network.roundtrip() + self.network.upload_time(
            self.profile, upload_bytes
        )
        self.trace.record_upload(upload_bytes)
        if self.task_rt.observer is not None:
            self.task_rt.observer.on_session_upload(self)
        self._schedule(delay, lambda: self.task_rt.upload_arrived(self, payload))

    # -- terminal transitions ------------------------------------------------------

    def _deactivate(self) -> None:
        # Every terminal path comes through here: a dead session must not
        # pin its model version until its detection event fires.
        self.initial_model = None
        if self._active:
            self._active = False
            self.trace.record_active_delta(self.sim.now, -1)

    def _dropped(self) -> None:
        """Device died silently; server notices after the detection delay."""
        self._deactivate()
        exec_done = self.sim.now - self.start_time

        def detect() -> None:
            if self.finished:
                # Aborted in between: the server already let the client
                # go, and the device may be back under a new session
                # whose in-flight entry this must not drop.
                return
            self.task_rt.core.client_failed(self.device_id)
            self._finish(Outcome.FAILED, exec_done)

        self.sim.schedule(self.failure_detection_s, detect)

    def _timed_out(self) -> None:
        """Execution cap reached; server aborts the session immediately."""
        self._deactivate()
        self.task_rt.core.client_failed(self.device_id)
        self._finish(Outcome.TIMEOUT, self.task_rt.config.client_timeout_s)

    def abort(self, outcome: Outcome) -> None:
        """Server-side abort (stale client or round closed under it).

        The aggregation core has already dropped this client; we cancel
        pending device events and free the slot.
        """
        if self.finished:
            return
        for h in self._handles:
            h.cancel()
        if self._pending is not None:
            # Never computed and never will be: drop the parked training.
            self.task_rt.cohort.discard(self._pending)
            self._pending = None
        self._deactivate()
        self._finish(outcome, self.sim.now - self.start_time)

    def complete(self, outcome: Outcome, staleness: int) -> None:
        """Upload was processed; record the terminal outcome."""
        self._deactivate()
        self._finish(outcome, self.execution_time, staleness)

    def _finish(self, outcome: Outcome, exec_time: float, staleness: int = 0) -> None:
        if self.finished:
            return
        self.finished = True
        self.trace.record_participation(
            ParticipationRecord(
                device_id=self.device_id,
                task=self.task_rt.config.name,
                start_time=self.start_time,
                end_time=self.sim.now,
                n_examples=self.profile.n_examples,
                execution_time=exec_time,
                outcome=outcome,
                staleness=staleness,
            )
        )
        if self.task_rt.observer is not None:
            self.task_rt.observer.on_session_end(self, outcome, exec_time)
        self.on_end(self)

    # -- plumbing ------------------------------------------------------------

    def _schedule(self, delay: float, action) -> None:
        self._handles.append(self.sim.schedule(delay, action))
