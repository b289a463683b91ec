"""Content-addressed on-disk cache for sweep cell results.

Each sweep cell — one (experiment × scale × seed × params) combination —
is addressed by the SHA-256 fingerprint of its canonical JSON description,
so re-running a sweep (or resuming an interrupted one) skips every cell
whose result is already on disk, regardless of the order or parallelism
of the original run.

Payloads are self-describing JSON documents::

    {"version": 1, "experiment": "fig9", "scale": {...}, "seed": 0,
     "params": {...}, "elapsed_s": 3.2, "result": {...}}

The cache root defaults to ``.sweep-cache/`` under the current directory
and can be redirected with the ``REPRO_SWEEP_CACHE`` environment variable
(CI points the sweep and benchmark steps of one workflow run at a shared
workspace path so cells computed by the sweep are reused within that run;
runner workspaces are ephemeral, so each run starts cold).  Writes are
atomic (temp file + rename) so a killed sweep never leaves a truncated
entry behind.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping

__all__ = ["CACHE_VERSION", "CACHE_ENV_VAR", "cell_fingerprint", "ResultCache"]

# Bump for cross-cutting changes outside harness/ (core/, sim/, nn/) that
# alter results — code_digest only tracks the harness package itself.
# v2: cohort-engine PR reassociated scalar LSTM arithmetic (bias folded
# into zx, gate-derivative parenthesization), shifting results by ulps.
# v3: fleet-scheduler fixes (re-bookings clamped to the next unfired
# tick, explicit tick indexing on resume) change which devices wake in
# `million` runs — previously-leaked devices now return.
CACHE_VERSION = 3
CACHE_ENV_VAR = "REPRO_SWEEP_CACHE"
_DEFAULT_ROOT = ".sweep-cache"


def _canonical(obj: Any) -> Any:
    """Normalize a value for fingerprinting (dataclasses → sorted dicts)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Mapping):
        return {str(k): _canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def cell_fingerprint(
    experiment: str, scale: Any, seed: int, params: Mapping[str, Any] | None = None
) -> str:
    """Stable content address of one sweep cell.

    The scale participates with all of its fields (not just its name), so
    a custom scale never collides with a preset of the same name.  For a
    registered experiment the fingerprint also folds in:

    * the experiment's code identity (``registry.code_digest``) — editing
      the module that defines a runner invalidates its cached results, so
      a warm cache can never serve numbers computed by old code;
    * its seed/scale invariances — a runner declared ``uses_seed=False``
      fingerprints identically for every seed (and likewise for scale),
      so invariant experiments are cached exactly once.
    """
    from repro.harness import registry  # runtime import: no cycle at load time

    spec = registry.find(experiment)
    uses_seed = spec.uses_seed if spec is not None else True
    uses_scale = spec.uses_scale if spec is not None else True
    doc = {
        "version": CACHE_VERSION,
        "experiment": experiment,
        "code": registry.code_digest(experiment),
        "scale": _canonical(scale) if uses_scale else None,
        "seed": int(seed) if uses_seed else 0,
        "params": _canonical(dict(params or {})),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of ``<fingerprint>.json`` cell payloads."""

    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            root = os.environ.get(CACHE_ENV_VAR) or _DEFAULT_ROOT
        self.root = Path(root)

    def path(self, fingerprint: str) -> Path:
        """Where a cell payload lives (two-level fan-out keeps dirs small)."""
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def load(self, fingerprint: str) -> dict | None:
        """The stored payload, or ``None`` on miss / version mismatch / corruption."""
        p = self.path(fingerprint)
        try:
            with open(p, "r", encoding="utf-8") as fh:
                stored = json.load(fh)
        except (OSError, ValueError):
            # ValueError covers both JSONDecodeError and the
            # UnicodeDecodeError a byte-corrupt entry raises.
            return None
        if not isinstance(stored, dict) or stored.get("version") != CACHE_VERSION:
            return None
        return stored

    def store(self, fingerprint: str, payload: dict) -> Path:
        """Atomically persist a cell payload; returns its path."""
        p = self.path(fingerprint)
        p.parent.mkdir(parents=True, exist_ok=True)
        payload = {"version": CACHE_VERSION, **payload}
        fd, tmp = tempfile.mkstemp(dir=p.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, p)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return p

    def __contains__(self, fingerprint: str) -> bool:
        return self.path(fingerprint).is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for p in list(self.root.glob("*/*.json")):
            try:
                p.unlink()
                removed += 1
            except OSError:
                pass
        return removed
