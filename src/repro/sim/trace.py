"""Metrics collection for simulated runs.

Records everything the paper's figures are built from: the active-client
time series (Figure 7), server-step times and losses (Figures 9/10/12),
communication trips (Figures 3/9), and per-participation records — client,
example count, execution time, outcome — from which the sampling-bias
analysis (Figure 11, Table 1) is computed.

:class:`MetricsTrace` keeps every record — the right default for the
paper-figure experiments, whose traces are also the byte-level
equivalence contracts.  :class:`BoundedMetricsTrace` is the million-
client variant: per-participation records go through a reservoir or
ring-buffer policy and the active-client series is binned, so memory is
bounded no matter how long the run, while the scalar tallies (outcome
counts, trip/byte counters, peak concurrency) stay exact.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import child_rng

__all__ = [
    "Outcome",
    "ParticipationRecord",
    "ServerStepRecord",
    "MetricsTrace",
    "BoundedMetricsTrace",
]


class Outcome(enum.Enum):
    """How one client participation ended."""

    AGGREGATED = "aggregated"  # update contributed to a server step
    DISCARDED = "discarded"    # arrived/trained but thrown away (over-selection)
    FAILED = "failed"          # device dropped out mid-participation
    TIMEOUT = "timeout"        # exceeded the client execution timeout
    ABORTED = "aborted"        # server-side abort (stale / round closed)
    REJECTED = "rejected"      # never admitted (ineligible or no demand)


@dataclass(frozen=True)
class ParticipationRecord:
    """One client participation, as the bias analysis needs it."""

    device_id: int
    task: str
    start_time: float
    end_time: float
    n_examples: int
    execution_time: float
    outcome: Outcome
    staleness: int = 0


@dataclass(frozen=True)
class ServerStepRecord:
    """One server model update."""

    time: float
    task: str
    version: int
    num_updates: int
    mean_staleness: float
    loss: float


class MetricsTrace:
    """Append-only run telemetry with the queries the figures need."""

    def __init__(self) -> None:
        self.participations: list[ParticipationRecord] = []
        self.server_steps: list[ServerStepRecord] = []
        self._active_deltas: list[tuple[float, int]] = []
        self.uploads = 0
        self.downloads = 0
        self.upload_bytes = 0
        self.download_bytes = 0
        # O(1) views for stop predicates evaluated after every event.
        self.step_counts: dict[str, int] = {}
        self.last_loss: dict[str, float] = {}

    # -- recording ------------------------------------------------------------

    def record_participation(self, rec: ParticipationRecord) -> None:
        """Log a finished participation (any outcome)."""
        self.participations.append(rec)

    def record_server_step(self, rec: ServerStepRecord) -> None:
        """Log a server model update."""
        self.server_steps.append(rec)
        self.step_counts[rec.task] = self.step_counts.get(rec.task, 0) + 1
        self.last_loss[rec.task] = rec.loss

    def record_active_delta(self, time: float, delta: int) -> None:
        """Client became active (+1) or inactive (-1) at ``time``."""
        self._active_deltas.append((time, delta))

    def record_download(self, nbytes: int) -> None:
        """Count one model download (a communication trip)."""
        self.downloads += 1
        self.download_bytes += nbytes

    def record_upload(self, nbytes: int) -> None:
        """Count one update upload (the paper's "communication trip")."""
        self.uploads += 1
        self.upload_bytes += nbytes

    # -- queries ------------------------------------------------------------

    def active_series(self) -> tuple[np.ndarray, np.ndarray]:
        """Step function of concurrently active clients over time."""
        if not self._active_deltas:
            return np.array([0.0]), np.array([0])
        deltas = sorted(self._active_deltas)
        times = np.array([t for t, _ in deltas])
        counts = np.cumsum([d for _, d in deltas])
        return times, counts

    def mean_utilization(self, concurrency: int, t_start: float = 0.0,
                         t_end: float | None = None) -> float:
        """Time-averaged active clients / concurrency over a window."""
        times, counts = self.active_series()
        if times.size == 0 or concurrency <= 0:
            return 0.0
        t_end = float(times[-1]) if t_end is None else t_end
        if t_end <= t_start:
            return 0.0
        # Integrate the step function over [t_start, t_end].
        total = 0.0
        for i in range(len(times)):
            seg_start = max(float(times[i]), t_start)
            seg_end = min(float(times[i + 1]) if i + 1 < len(times) else t_end, t_end)
            if seg_end > seg_start:
                total += counts[i] * (seg_end - seg_start)
        return total / ((t_end - t_start) * concurrency)

    def loss_curve(self, task: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(times, losses) of server steps, optionally for one task."""
        steps = [s for s in self.server_steps if task is None or s.task == task]
        return (
            np.array([s.time for s in steps]),
            np.array([s.loss for s in steps]),
        )

    def time_to_loss(self, target: float, task: str | None = None) -> float | None:
        """First simulated time the loss reached ``target`` (None if never)."""
        for s in self.server_steps:
            if (task is None or s.task == task) and s.loss <= target:
                return s.time
        return None

    def steps_per_hour(self, task: str | None = None) -> float:
        """Server model updates per simulated hour."""
        steps = [s for s in self.server_steps if task is None or s.task == task]
        if len(steps) < 2:
            return 0.0
        span = steps[-1].time - steps[0].time
        if span <= 0:
            return 0.0
        return (len(steps) - 1) / span * 3600.0

    def outcome_counts(self) -> dict[Outcome, int]:
        """Participation tallies by outcome."""
        counts: dict[Outcome, int] = {o: 0 for o in Outcome}
        for rec in self.participations:
            counts[rec.outcome] += 1
        return counts

    def aggregated_participations(self) -> list[ParticipationRecord]:
        """Participations whose update actually entered a server step."""
        return [p for p in self.participations if p.outcome is Outcome.AGGREGATED]

    def staleness_values(self) -> np.ndarray:
        """Staleness of every aggregated update."""
        return np.array(
            [p.staleness for p in self.aggregated_participations()], dtype=float
        )

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data view of the whole trace (for JSON/dataframe export)."""
        cols = self.to_columns()

        def rows(prefix: str) -> list[dict]:
            names = [k for k in cols if k.startswith(prefix)]
            fields = [k[len(prefix):] for k in names]
            return [dict(zip(fields, row)) for row in zip(*(cols[k].tolist() for k in names))]

        return {
            "participations": rows("p."),
            "server_steps": rows("s."),
            **dict(zip(("uploads", "downloads", "upload_bytes", "download_bytes"),
                       cols["counters"].tolist())),
        }

    def export_json(self, path: str) -> None:
        """Write the trace to a JSON file."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    def to_columns(self) -> dict[str, np.ndarray]:
        """The whole trace as numpy columns, one per record field.

        Exact and pickle-free (no object arrays); :meth:`from_columns`
        rebuilds an equal trace.
        """
        cols = {}
        for prefix, kind, records in (("p.", ParticipationRecord, self.participations),
                                      ("s.", ServerStepRecord, self.server_steps)):
            for f in dataclasses.fields(kind):
                values = [getattr(r, f.name) for r in records]
                cols[prefix + f.name] = np.array(
                    [v.value for v in values] if f.type == "Outcome" else values)
        cols["active.time"] = np.array([t for t, _ in self._active_deltas])
        cols["active.delta"] = np.array([d for _, d in self._active_deltas])
        cols["counters"] = np.array([self.uploads, self.downloads,
                                     self.upload_bytes, self.download_bytes])
        return cols

    @classmethod
    def from_columns(cls, columns) -> "MetricsTrace":
        """Rebuild a trace from :meth:`to_columns` output.

        Values come back as Python scalars (``tolist``), as a run records
        them, so ``repr``-based digests of the records do not move.
        """
        def records(prefix: str, kind: type) -> list:
            fields = []
            for f in dataclasses.fields(kind):
                values = columns[prefix + f.name].tolist()
                fields.append(list(map(Outcome, values)) if f.type == "Outcome" else values)
            return list(map(kind, *fields))

        trace = cls()
        trace.participations = records("p.", ParticipationRecord)
        for step in records("s.", ServerStepRecord):
            trace.record_server_step(step)
        trace._active_deltas = list(zip(columns["active.time"].tolist(),
                                        columns["active.delta"].tolist()))
        (trace.uploads, trace.downloads,
         trace.upload_bytes, trace.download_bytes) = columns["counters"].tolist()
        return trace


class BoundedMetricsTrace(MetricsTrace):
    """A :class:`MetricsTrace` whose memory never grows past a fixed bound.

    A 1M-client day is ~10^7 participations; the full trace would hold
    ~1 GB of record objects that no analysis ever reads in full.  This
    variant stores at most ``max_records`` participation records:

    * ``policy="reservoir"`` — uniform sample over the whole run
      (algorithm R, deterministic via ``child_rng(seed,
      "trace-reservoir")``), the right choice for distributional queries
      (staleness histograms, bias analysis);
    * ``policy="ring"`` — the most recent ``max_records`` records, the
      right choice for "what just happened" debugging.

    Whatever the sample holds, the *scalar* telemetry stays exact:
    ``total_participations``, per-outcome tallies, upload/download trip
    and byte counters, and ``peak_active``.  The active-client series is
    accumulated into fixed-width time bins (``active_bin_s``) instead of
    one delta per transition; ``active_series`` reconstructs the step
    function at bin resolution.  Server-step records are kept exact —
    there is one per server model update, inherently bounded.
    """

    #: accepted sampling policies
    POLICIES = ("reservoir", "ring")

    def __init__(
        self,
        max_records: int = 100_000,
        policy: str = "reservoir",
        seed: int = 0,
        active_bin_s: float = 60.0,
    ) -> None:
        if max_records < 1:
            raise ValueError("max_records must be at least 1")
        if policy not in self.POLICIES:
            raise ValueError(f"policy must be one of {self.POLICIES}")
        if active_bin_s <= 0:
            raise ValueError("active_bin_s must be positive")
        super().__init__()
        self.max_records = max_records
        self.policy = policy
        self.active_bin_s = active_bin_s
        self.total_participations = 0
        self.peak_active = 0
        self._active_now = 0
        self._active_bins: dict[int, int] = {}
        self._outcome_totals: dict[Outcome, int] = {o: 0 for o in Outcome}
        if policy == "ring":
            self.participations = deque(maxlen=max_records)  # type: ignore[assignment]
        else:
            self._reservoir_rng = child_rng(seed, "trace-reservoir")

    # -- bounded recording ------------------------------------------------------

    def record_participation(self, rec: ParticipationRecord) -> None:
        """Tally exactly; store through the sampling policy."""
        self.total_participations += 1
        self._outcome_totals[rec.outcome] += 1
        if self.policy == "ring":
            self.participations.append(rec)  # deque evicts the oldest
        elif len(self.participations) < self.max_records:
            self.participations.append(rec)
        else:
            # Algorithm R: keep each of the n records seen so far with
            # probability max_records / n.
            j = int(self._reservoir_rng.integers(self.total_participations))
            if j < self.max_records:
                self.participations[j] = rec

    def record_active_delta(self, time: float, delta: int) -> None:
        """Accumulate the transition into its time bin; track the peak."""
        self._active_now += delta
        if self._active_now > self.peak_active:
            self.peak_active = self._active_now
        idx = int(time / self.active_bin_s)
        self._active_bins[idx] = self._active_bins.get(idx, 0) + delta

    # -- exact queries over bounded state --------------------------------------

    def outcome_counts(self) -> dict[Outcome, int]:
        """Exact per-outcome tallies (counted, not sampled)."""
        return dict(self._outcome_totals)

    def active_series(self) -> tuple[np.ndarray, np.ndarray]:
        """Active-client step function at ``active_bin_s`` resolution."""
        if not self._active_bins:
            return np.array([0.0]), np.array([0])
        idxs = sorted(self._active_bins)
        times = np.array([i * self.active_bin_s for i in idxs])
        counts = np.cumsum([self._active_bins[i] for i in idxs])
        return times, counts

    def approx_bytes(self) -> int:
        """Rough upper bound on trace memory (records + bins + steps)."""
        # A ParticipationRecord is ~200 bytes of interpreter heap; bins
        # and server steps are the only other growable state.
        return (
            200 * min(self.total_participations, self.max_records)
            + 100 * len(self._active_bins)
            + 200 * len(self.server_steps)
        )

    def to_dict(self) -> dict:
        """Superset of the exact trace's export, flagged as sampled."""
        doc = super().to_dict()
        doc["trace_policy"] = self.policy
        doc["max_records"] = self.max_records
        doc["total_participations"] = self.total_participations
        doc["peak_active"] = self.peak_active
        doc["outcome_totals"] = {
            o.value: n for o, n in self._outcome_totals.items()
        }
        return doc
