"""One rep of one workload: build, run, check, measure.

Run as a script this is the child process the driver starts for each
rep, so that peak RSS, imports and caches are per rep::

    python benchmarks/e2e/e2e_rep.py '{"workload": "async_fleet", ...}'

It prints one JSON object on its last stdout line.  Imported, it is the
same code in-process (the smoke test uses that).

The program under test is reached through the façade only:
``ScenarioSpec.from_dict`` -> ``Deployment.from_spec`` -> ``.build()``
-> ``.run()``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: BLAS pools would add cores to some layers and not others; set before
#: numpy is first imported
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_TIME_PARAMS = ("at_s", "duration_s", "down_s", "up_s", "interval_s",
                "recover_after_s", "period_s")

__all__ = ["load_spec", "spec_sha256", "run_rep", "sim_digest"]


def load_spec(workload: str, seed: int = 0, scale: float = 1.0,
              telemetry: bool = False) -> dict:
    """The workload's checked-in spec document, seeded and scaled.

    ``seed`` is added to ``execution.seed`` and ``population.seed``;
    ``scale`` multiplies the run length and every fault time parameter.
    """
    doc = json.loads((HERE / "workloads" / f"{workload}.json").read_text())
    execution = doc["execution"]
    execution["seed"] = execution.get("seed", 0) + seed
    population_seed = doc["population"].get("seed")
    doc["population"]["seed"] = (0 if population_seed is None else population_seed) + seed
    execution["t_end_s"] *= scale
    if execution.get("max_server_steps") is not None:
        execution["max_server_steps"] = max(1, round(execution["max_server_steps"] * scale))
    for event in doc.get("faults", {}).get("events", []):
        for key in _TIME_PARAMS:
            if key in event:
                event[key] *= scale
    if telemetry:
        doc["telemetry"] = {"enabled": True, "profiling": True}
    return doc


def spec_sha256(doc: dict) -> str:
    """sha256 of the canonical JSON of a spec document."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def sim_digest(result) -> str:
    """sha256 over every simulated statistic of a run.

    Participation records, server-step records and ``TaskStats``: two
    commits that print the same digest simulated the same thing, so a
    change meant only to make the simulator faster must not move it.
    """
    h = hashlib.sha256()
    for p in result.trace.participations:
        h.update(repr((p.device_id, p.task, p.start_time, p.end_time, p.n_examples,
                       p.execution_time, p.outcome.value, p.staleness)).encode())
    for s in result.trace.server_steps:
        h.update(repr((s.time, s.task, s.version, s.num_updates,
                       s.mean_staleness, s.loss)).encode())
    for name in sorted(result.task_stats):
        h.update(repr(result.task_stats[name]).encode())
    return h.hexdigest()


def _close(sim) -> None:
    """Plane teardown: worker processes and shared-memory segments."""
    for rt in sim.task_runtimes.values():
        close = getattr(rt, "close", None)
        if close is not None:
            close()


def _cpu_seconds() -> float:
    """user+sys CPU of this process and of the children it has waited for."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def _failures(doc: dict, sim, result) -> list[str]:
    """Why this rep's output is wrong (empty when it is right)."""
    from repro.sim.faults import recovery_report

    why = []
    report = recovery_report(sim, result)
    if not report["device_conservation_ok"]:
        why.append("device conservation violated")
    if not report["updates_conservation_ok"]:
        why.append(f"update conservation violated: {report['tasks']}")
    if any(s.server_steps == 0 for s in result.task_stats.values()):
        why.append("no server step")
    kills = any(e["kind"] == "worker_kill" for e in doc.get("faults", {}).get("events", []))
    if result.log.count("executor_fallback") and not kills:
        why.append("executor_fallback without a worker_kill fault")
    if any(t["trainer"] == "real_lstm" for t in doc["tasks"]):
        losses = [s.loss for s in result.trace.server_steps]
        if not math.isfinite(losses[-1]) or losses[-1] > losses[0]:
            why.append(f"loss did not improve: {losses[0]} -> {losses[-1]}")
    return why


def run_rep(workload: str, seed: int = 0, scale: float = 1.0, mode: str = "timed") -> dict:
    """Run one rep in this process and report it as a JSON-able dict.

    ``mode`` is ``"timed"`` (telemetry off, tracing off — the only mode
    whose timings are end-to-end metrics), ``"traced"`` (layer spans
    installed around the run) or ``"telemetry"`` (the spec's own
    telemetry plane on, untraced).  A rep that raises or whose output is
    wrong comes back with ``ok: False`` and no timing.
    """
    try:
        return _run_rep(workload, seed, scale, mode)
    except Exception:  # the rep boundary: report, let the driver go on
        return {"ok": False, "mode": mode, "error": traceback.format_exc()}


def _run_rep(workload, seed, scale, mode) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.api import Deployment, ScenarioSpec

    from e2e_layers import Tracer, install, layer_metrics
    from wide_adapter import WideDeltaAdapter

    doc = load_spec(workload, seed, scale, telemetry=(mode == "telemetry"))
    external = [t["name"] for t in doc["tasks"] if t["trainer"] == "external"]

    # Adapter construction is the benchmark's own cost, not set-up.
    adapters = {name: WideDeltaAdapter(seed=doc["execution"]["seed"]) for name in external}

    # Set-up is the one build of this fresh process, first-use imports and
    # cold caches included: what a user pays.
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    deployment = Deployment.from_spec(ScenarioSpec.from_dict(doc), adapters=adapters)
    sim = deployment.build()
    setup_s = time.perf_counter() - t0
    tracer = Tracer()
    tallies = None
    try:
        if mode == "traced":
            tallies = install(tracer, sim)
        elif mode == "telemetry":
            tracer.patch(sim.telemetry, "finalize", "obs")

        def run_and_close():
            result = deployment.run()
            _close(sim)
            return result

        t0 = time.perf_counter()
        result = tracer.span("bench", "run", run_and_close)()
        run_s = time.perf_counter() - t0
    finally:
        tracer.restore()
        _close(sim)
    cpu_s = _cpu_seconds() - cpu0

    stats = list(result.task_stats.values())
    aggregated = sum(s.aggregated for s in stats)
    steps = sum(s.server_steps for s in stats)
    last_step_s = result.trace.server_steps[-1].time if steps else math.inf
    why = _failures(doc, sim, result)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {
        "ok": not why,
        "mode": mode,
        "error": "; ".join(why),
        "sim_digest": sim_digest(result),
        "metrics": {
            "setup_s": setup_s,
            "run_s": run_s,
            "updates_per_s": aggregated / run_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": rss_kb / 1024.0,
            "wire_mb_per_update": (
                (result.trace.download_bytes + result.trace.upload_bytes)
                / max(aggregated, 1) / 1e6),
            "sim_steps_per_hour": steps / last_step_s * 3600.0,
        },
        "counts": {
            "events": sim.sim.events_fired,
            "server_steps": steps,
            "aggregated": aggregated,
            "downloads": sum(s.downloads for s in stats),
            "sim_duration_s": result.duration_s,
        },
    }
    if mode == "traced":
        out["layers"] = layer_metrics(tracer, tallies, sim, result)
        out["layers"]["api.build_s"] = setup_s
        out["layer_self_s"] = tracer.layer_totals()
    elif mode == "telemetry":
        out["obs"] = {
            "obs.spans": sum(result.telemetry.tracer.name_totals().values()),
            "obs.finalize_s": tracer.self_s("obs"),
        }
    return out


if __name__ == "__main__":
    os.environ.update(THREAD_ENV)
    print(json.dumps(run_rep(**json.loads(sys.argv[1]))))
