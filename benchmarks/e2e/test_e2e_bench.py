"""Smoke test of the e2e benchmark (collected by tier-1).

Every workload runs in-process at a tiny scale: once traced, once plain.
The timings mean nothing at this size; what is pinned is the contract —
names, the layer budget adding up, tracing leaving no trace, the
correctness gate, and the comparer's verdicts.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

import compare
import e2e_catalog as catalog
import e2e_rep
import run
from e2e_layers import Tracer, install

from repro.api import Deployment, ScenarioSpec
from repro.secagg.dh import DHKeyPair
from repro.sim.engine import Simulator
from repro.sim.network import NetworkModel
from repro.system.client_runtime import ClientSession
from repro.utils.rng import child_rng

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: smallest share of each workload's length that still closes a server
#: step (and, for the LSTM, gets past the first noisy evaluations)
TINY = {
    "async_fleet": 0.03,
    "sync_rounds": 0.05,
    "lstm_cohort": 0.16,
    "secure_wide": 0.09,
    "sharded_wide_process": 0.03,
    "million_chaos": 0.04,
}

# What tracing replaces on classes and modules, as it was before any test
# ran; instances die with their rep.
ORIGINALS = {
    (Simulator, "schedule_at"): vars(Simulator)["schedule_at"],
    (Simulator, "run_until"): vars(Simulator)["run_until"],
    (DHKeyPair, "generate"): vars(DHKeyPair)["generate"],
    **{(NetworkModel, m): vars(NetworkModel)[m]
       for m in ("download_time", "upload_time", "roundtrip")},
    **{(ClientSession, m): vars(ClientSession)[m] for m in ("begin", "abort", "complete")},
}


def assert_untraced() -> None:
    for (owner, attr), original in ORIGINALS.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} still wrapped"
    for name, module in sys.modules.items():
        if name.startswith("repro") and "child_rng" in vars(module):
            assert module.child_rng is child_rng, f"{name}.child_rng still wrapped"


def test_manifest_matches_catalog():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == run.manifest()
    assert manifest["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_spec_is_a_plain_scenario(workload):
    doc = e2e_rep.load_spec(workload)
    spec = ScenarioSpec.from_dict(doc)
    assert spec.execution.t_end_s is not None  # what `harness scenario` needs
    assert "\n" not in run.why(workload) and len(run.why(workload)) <= 200


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_workload_traced_then_plain(workload):
    ledger = run.Ledger()
    traced = ledger.add(e2e_rep.run_rep(workload, 0, TINY[workload], "traced"))
    assert traced["ok"], traced["error"]
    assert_untraced()
    plain = ledger.add(e2e_rep.run_rep(workload, 0, TINY[workload], "timed"))
    assert plain["ok"], plain["error"]  # incl. same sim_digest as the traced rep

    assert tuple(run.end_to_end(ledger)) == catalog.END_TO_END_NAMES
    layers = run.per_layer(ledger)
    assert tuple(layers) == catalog.PER_LAYER_NAMES

    run_s = traced["metrics"]["run_s"]
    assert sum(traced["layer_self_s"].values()) == pytest.approx(run_s, rel=0.02)
    assert layers["trace.unattributed_frac"] <= 0.10
    assert layers["sim.engine.events"] > 0 and layers["sim.engine.loop_self_s"] > 0
    if workload == "million_chaos":
        assert layers["sim.faults.calls"] > 0
    else:
        assert layers["sim.faults.calls"] == 0
    secure = layers["secagg.dh_calls"] + layers["system.secure.secagg_submit_s"]
    assert (secure > 0) == (workload == "secure_wide")
    pooled = layers["core.parallel.pool_dispatch_s"] + layers["core.sharding.shard_fold_s"]
    assert (pooled > 0) == (workload == "sharded_wide_process")
    assert (layers["system.adapters.cohort_mean_size"] > 1) == (workload == "lstm_cohort")


def test_restore_leaves_built_objects_as_they_were():
    doc = e2e_rep.load_spec("million_chaos", scale=0.01)
    doc["population"]["n_devices"] = 1000
    sim = Deployment.from_spec(ScenarioSpec.from_dict(doc)).build()
    rt = sim.task_runtimes["train"]
    objects = [sim, sim.sim, sim.population, sim.trace, sim.coordinator, sim.fault_injector,
               rt, rt.core, rt.adapter, rt.adapter.state, *sim.selectors, *sim.aggregators]

    def attributes():
        return [[(name, id(value)) for name, value in vars(o).items()] for o in objects]

    before = attributes()
    tracer = Tracer()
    install(tracer, sim)
    assert "schedule_at" in vars(sim.sim) and rt.on_slot_free != sim._pump
    tracer.restore()
    assert attributes() == before
    assert_untraced()


def test_failed_rep_is_reported_not_raised():
    rep = e2e_rep.run_rep("no_such_workload")
    assert not rep["ok"] and "no_such_workload" in rep["error"]
    ledger = run.Ledger()
    ledger.add({"ok": True, "mode": "timed", "sim_digest": "a"})
    other = ledger.add({"ok": True, "mode": "traced", "sim_digest": "b"})
    assert not other["ok"] and ledger.failed == 1


def _result(run_s: list[float], seed: int = 0, **others: list[float]) -> dict:
    """A result file in which every workload reads ``run_s`` (and
    ``others``, by metric name); the remaining metrics read ~10."""
    def metric(values):
        values = sorted(values)
        return {"median": values[len(values) // 2], "min": values[0], "max": values[-1],
                "n": len(values), "values": values, "unit": "x"}

    given = {"run_s": run_s, **others}
    workloads = {
        w: {"sim_digest": "d", "end_to_end": {
            name: metric(given.get(name, [10.0, 10.1, 10.2]))
            for name in catalog.END_TO_END_NAMES}}
        for w in catalog.WORKLOADS
    }
    return {"header": {"git_sha": "0" * 40, "seed": seed, "scale": catalog.SCALE},
            "workloads": workloads, "ops_attempted": 24, "ops_failed": 0}


def test_compare_verdicts(capsys):
    base = [5.0, 5.1, 5.2]
    a = _result(base)
    assert compare.compare(a, copy.deepcopy(a)) == 0

    over = 1.0 + catalog.BOUNDS["run_s"] + 0.10
    assert compare.compare(a, _result([v * over for v in base])) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.compare(a, _result([v * 0.7 for v in base])) == 0  # a gain is fine

    # Spread wider than the bound and overlapping runs: cannot say.
    noisy = _result([4.0, 7.5, 9.0])
    assert compare.verdict("run_s", a["workloads"]["async_fleet"]["end_to_end"]["run_s"],
                           noisy["workloads"]["async_fleet"]["end_to_end"]["run_s"],
                           catalog.BOUNDS["run_s"])[0] == "unresolved"
    assert compare.compare(a, noisy) == 0

    failing = copy.deepcopy(a)
    failing["ops_failed"] = 1
    assert compare.compare(a, failing) == 1


def test_compare_setup_floor():
    base = [5.0, 5.1, 5.2]
    # +60 %, every B run above every A run, but 3 ms apart: timer noise.
    fast = _result(base, setup_s=[0.0044, 0.0045, 0.0046])
    assert compare.compare(fast, _result(base, setup_s=[0.0070, 0.0072, 0.0080])) == 0
    # The same +60 % on a build that takes a second is a regression.
    slow = _result(base, setup_s=[1.00, 1.01, 1.02])
    assert compare.compare(slow, _result(base, setup_s=[1.60, 1.62, 1.64])) == 1


def test_compare_holds_deterministic_metrics_to_zero_on_equal_inputs():
    base = [5.0, 5.1, 5.2]
    a = _result(base, sim_steps_per_hour=[100.0] * 3)
    slower = [99.0] * 3  # -1 %: far inside the cross-seed bound
    assert compare.compare(a, _result(base, sim_steps_per_hour=slower)) == 1
    assert compare.compare(a, _result(base, seed=1, sim_steps_per_hour=slower)) == 0
    assert compare.compare(a, _result(base, sim_steps_per_hour=[101.0] * 3)) == 0  # a gain


def test_checked_in_sets_agree_in_both_orders():
    results = Path(__file__).resolve().parent / "results"
    first, rerun = (json.loads((results / f"{name}.json").read_text())
                    for name in ("BENCH_11", "BENCH_11_rerun"))
    assert first["ops_failed"] == rerun["ops_failed"] == 0
    assert compare.compare(first, rerun) == 0
    assert compare.compare(rerun, first) == 0
    for workload in catalog.WORKLOADS:
        wa, wb = first["workloads"][workload], rerun["workloads"][workload]
        assert wa["sim_digest"] == wb["sim_digest"]
        for name in catalog.DETERMINISTIC:
            assert wa["end_to_end"][name]["values"] == wb["end_to_end"][name]["values"]
