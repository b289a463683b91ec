"""The arm store: one content-addressed record per simulated arm.

An *arm* is one complete :class:`~repro.api.ScenarioSpec`, run as
``Deployment.from_spec(spec).run()``.  Its key (:func:`arm_key`) hashes
the spec's canonical JSON, :data:`CACHE_VERSION` and every ``*.py`` file
of the imported ``repro`` package: coarse, but any source edit — in
``core/`` as much as in the harness — invalidates every stored arm.

A record (:func:`to_record`) holds what the figure reducers read:
``duration_s``, the task stats, ``sim_digest`` and the whole
:class:`~repro.sim.trace.MetricsTrace` as typed columns, in one
``np.savez_compressed`` file read back with ``allow_pickle=False``.
:func:`from_record` rebuilds a :class:`~repro.system.orchestrator.RunResult`
(with an empty event log) and refuses a record whose rebuilt
``sim_digest`` differs from the stored one.  Freshly run arms take the
same conversion, so reducers always see a rebuilt result.

The store root defaults to ``.sweep-cache/`` under the current directory
and can be redirected with the ``REPRO_SWEEP_CACHE`` environment variable.
Writes are atomic (temp file + rename), so a killed sweep never leaves a
truncated entry behind.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.sim.trace import MetricsTrace
from repro.system.orchestrator import RunResult, TaskStats
from repro.utils.logging import EventLog

__all__ = [
    "CACHE_VERSION",
    "CACHE_ENV_VAR",
    "source_digest",
    "arm_key",
    "to_record",
    "from_record",
    "ResultCache",
]

# The source tree is part of every key, so code edits need no bump.
# Bump only to mark an intended numerics change: the golden corpora
# (tests/golden_*.json) record the version they were written at.
# v2: cohort-engine PR reassociated scalar LSTM arithmetic (bias folded
# into zx, gate-derivative parenthesization), shifting results by ulps.
# v3: fleet-scheduler fixes (re-bookings clamped to the next unfired
# tick, explicit tick indexing on resume) change which devices wake in
# `million` runs — previously-leaked devices now return.
CACHE_VERSION = 3
CACHE_ENV_VAR = "REPRO_SWEEP_CACHE"
_DEFAULT_ROOT = ".sweep-cache"


@functools.cache
def source_digest() -> str:
    """sha256 over every ``*.py`` file of the imported ``repro`` package."""
    root = Path(repro.__file__).parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def arm_key(spec) -> str:
    """Content address of one arm: its spec, the cache version, the source."""
    doc = json.dumps(
        {"spec": spec.to_dict(), "version": CACHE_VERSION, "source": source_digest()},
        sort_keys=True,
    )
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def to_record(result: RunResult) -> dict[str, np.ndarray]:
    """What reducers read of a run, as pickle-free numpy arrays."""
    stats = [dataclasses.asdict(s) for s in result.task_stats.values()]
    return {
        **result.trace.to_columns(),
        "duration_s": np.float64(result.duration_s),
        "task_stats": np.str_(json.dumps(stats)),
        "sim_digest": np.str_(result.sim_digest()),
    }


def from_record(record) -> RunResult:
    """Rebuild a run from :func:`to_record` output; check its ``sim_digest``."""
    stats = [TaskStats(**s) for s in json.loads(str(record["task_stats"]))]
    result = RunResult(
        duration_s=float(record["duration_s"]),
        trace=MetricsTrace.from_columns(record),
        log=EventLog(),
        task_stats={s.name: s for s in stats},
    )
    if result.sim_digest() != str(record["sim_digest"]):
        raise ValueError("arm record does not reproduce its sim_digest")
    return result


class ResultCache:
    """A directory of ``<key>.npz`` arm records."""

    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            root = os.environ.get(CACHE_ENV_VAR) or _DEFAULT_ROOT
        self.root = Path(root)

    def path(self, key: str) -> Path:
        """Where an arm record lives (two-level fan-out keeps dirs small)."""
        return self.root / key[:2] / f"{key}.npz"

    def load(self, key: str) -> RunResult | None:
        """The stored arm, or ``None`` on a miss, corruption or digest mismatch."""
        try:
            with np.load(self.path(key), allow_pickle=False) as data:
                return from_record({name: data[name] for name in data.files})
        except Exception:
            # A missing, truncated or foreign file fails in np.load, the
            # zip layer or the record schema; a tampered one in the digest.
            return None

    def store(self, key: str, record: dict[str, np.ndarray]) -> Path:
        """Atomically persist an arm record; returns its path."""
        p = self.path(key)
        p.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=p.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez_compressed(fh, **record)
            os.replace(tmp, p)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return p

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.npz"))
