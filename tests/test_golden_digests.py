"""Golden simulation digests: what every plane cell and shipped scenario simulates.

``golden_digests.json`` next to this file maps each corpus entry to the
:meth:`~repro.system.orchestrator.RunResult.sim_digest` of one run — a
sha256 over every participation, every server step and every task's
stats.  The corpus is

* one small spec per valid aggregation-plane cell: single (async and
  sync), sharded (inline and process executor, and a mixed async+sync
  workload whose sync task falls back to single), secure, and
  secure_sharded (inline and process), plus one telemetry-on twin;
  the secure cells are capped with ``execution.max_server_steps``;
* three small ``real_lstm`` cells (async and sync at the default batch
  cap, and the async cell at cap 16, which carries the same digest);
* every ``examples/scenarios/*.json``, at a horizon shortened to just
  past its last fault window.

A refactor must leave every digest where it is.  A change meant to move
one changes what cached sweep results mean, so it bumps
``repro.harness.cache.CACHE_VERSION`` and regenerates the file::

    PYTHONPATH=src python tests/test_golden_digests.py --write

The file also records the numpy major.minor it was written with, which
failure messages quote.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import Deployment, ScenarioSpec
from repro.harness.cache import CACHE_VERSION
from repro.sim.faults import recovery_report

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_digests.json")

_ASYNC = {"name": "train", "mode": "async", "concurrency": 24,
          "aggregation_goal": 6, "model_size_bytes": 1_000_000}
_SYNC = {"name": "rounds", "mode": "sync", "concurrency": 16,
         "aggregation_goal": 6, "over_selection": 0.3,
         "model_size_bytes": 1_000_000}
#: server steps a secure cell runs (each client pays DH key agreement)
_SECURE_STEPS = 8


def _cell(plane: dict | None = None, tasks=(_ASYNC,), **sections) -> dict:
    doc = {
        "population": {"n_devices": 400, "seed": 0},
        "tasks": list(tasks),
        "execution": {"seed": 0, "t_end_s": 900.0},
    }
    if plane is not None:
        doc["plane"] = plane
    doc.update(sections)
    return doc


def _secure(plane: dict) -> dict:
    return _cell(plane, execution={"seed": 0, "t_end_s": 900.0,
                                   "max_server_steps": _SECURE_STEPS})


#: a small real-training task: NumPy-LSTM clients on synthetic text
_LSTM = {"trainer": "real_lstm",
         "trainer_params": {"vocab_size": 16, "embed_dim": 8, "hidden_dim": 12}}
#: server steps a real-training cell runs
_LSTM_STEPS = 10


def _real(task: dict, **system) -> dict:
    doc = _cell(tasks=(dict(task, **_LSTM),),
                population={"n_devices": 400, "seed": 0,
                            "overrides": {"mean_examples": 16, "max_examples": 40}},
                execution={"seed": 0, "t_end_s": 900.0,
                           "max_server_steps": _LSTM_STEPS})
    if system:
        doc["system"] = system
    return doc


_SHARDED = {"name": "sharded", "num_shards": 2}
_SECURE_SHARDED = {"name": "secure_sharded", "num_shards": 2}

PLANE_CELLS = {
    "plane/single/async": _cell(),
    "plane/single/sync": _cell(tasks=(_SYNC,)),
    "plane/sharded/inline": _cell(_SHARDED),
    "plane/sharded/process": _cell(dict(_SHARDED, executor="process")),
    "plane/sharded/mixed": _cell(_SHARDED, tasks=(_ASYNC, _SYNC)),
    "plane/secure": _secure({"name": "secure"}),
    "plane/secure_sharded/inline": _secure(_SECURE_SHARDED),
    "plane/secure_sharded/process": _secure(dict(_SECURE_SHARDED, executor="process")),
    "plane/single/async/telemetry": _cell(telemetry={"enabled": True}),
}

#: real training at the default batch cap and a batched twin that must
#: carry the same digest (every training runs through the cohort engine)
TRAINER_CELLS = {
    "trainer/real_lstm/async": _real(_ASYNC),
    "trainer/real_lstm/async/cap16": _real(_ASYNC, cohort_batch_size=16),
    "trainer/real_lstm/sync": _real(_SYNC),
}

#: shortened horizon per shipped scenario: just past its last fault window
SCENARIO_HORIZONS_S = {
    "aggregator_blip": 450.0,       # crash 305 s, back at 308 s, swept 310 s
    "aggregator_flap": 2500.0,      # 3 flaps from 1200 s, 420 s each
    "coordinator_outage": 2100.0,   # outage 1800-2040 s
    "diurnal_blackout": 2750.0,     # wave 300-2700 s
    "dropout_storm": 1850.0,        # storm 1500-1800 s
    "flash_crowd": 1780.0,          # crowd 1500-1740 s
    "secure_shard_rekey": 430.0,    # crash 300 s, recovery 420 s
    "sharded_worker_kill": 1550.0,  # kill at 1500 s
    "straggler_tier": 2150.0,       # tier 900-2100 s
}


def _corpus() -> dict[str, ScenarioSpec]:
    cells = {**PLANE_CELLS, **TRAINER_CELLS}
    out = {name: ScenarioSpec.from_dict(doc) for name, doc in cells.items()}
    paths = sorted((ROOT / "examples" / "scenarios").glob("*.json"))
    assert sorted(p.stem for p in paths) == sorted(SCENARIO_HORIZONS_S)
    for path in paths:
        spec = ScenarioSpec.from_dict(json.loads(path.read_text()))
        out[f"scenario/{path.stem}"] = spec.override(
            "execution.t_end_s", SCENARIO_HORIZONS_S[path.stem]
        )
    return out


def _run(spec: ScenarioSpec, check=None):
    """Run ``spec`` and return its result (``check(sim, result)`` first)."""
    dep = Deployment.from_spec(spec)
    try:
        result = dep.run()
        if check is not None:
            check(dep.simulation, result)
        return result
    finally:
        for rt in dep.simulation.task_runtimes.values():
            close = getattr(rt, "close", None)
            if close is not None:
                close()


def _digest(spec: ScenarioSpec) -> str:
    return _run(spec).sim_digest()


def _numpy_version() -> str:
    return ".".join(np.__version__.split(".")[:2])


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


_CORPUS = _corpus()


def test_corpus_is_complete():
    assert sorted(_golden()["digests"]) == sorted(_CORPUS)


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_digest_is_pinned(name):
    golden = _golden()
    if golden["cache_version"] != CACHE_VERSION:
        pytest.fail(
            f"{GOLDEN.name} was written at CACHE_VERSION "
            f"{golden['cache_version']}, the code is at {CACHE_VERSION}: "
            "regenerate it with --write"
        )
    assert _digest(_CORPUS[name]) == golden["digests"][name], (
        f"{name}: sim_digest moved without a CACHE_VERSION bump "
        f"(file written with numpy {golden['numpy']}, running "
        f"{_numpy_version()})"
    )


def _assert_parked_conserved(sim, result) -> None:
    """Every parked training belongs to a session still attached, and
    every attached session's unresolved training is parked: no abort
    path (failover, shard drop, network loss, round close) leaks one."""
    for name, rt in sim.task_runtimes.items():
        unresolved = {
            id(s._pending) for s in rt.sessions.values()
            if s._pending is not None and s._pending.result is None
        }
        assert {id(p) for p in rt.cohort._parked} == unresolved, name
    report = recovery_report(sim, result)
    assert report["device_conservation_ok"], report
    assert report["updates_conservation_ok"], report


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_parked_trainings_are_conserved_at_cap_4(name):
    # The batch cap moves no digest, so the cap-4 run is also pinned.
    spec = _CORPUS[name].override("system.cohort_batch_size", 4)
    result = _run(spec, check=_assert_parked_conserved)
    assert result.sim_digest() == _golden()["digests"][name]


def _write() -> None:
    doc = {
        "cache_version": CACHE_VERSION,
        "numpy": _numpy_version(),
        "digests": {name: _digest(spec) for name, spec in sorted(_CORPUS.items())},
    }
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(doc['digests'])} digests)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_digests.py --write")
    _write()
