"""CLI, registry, sweep-executor and arm-store tests for the harness.

Covers argument parsing (``--seeds`` ranges, ``--grid``), experiment
dispatch through the registry, the arm store (keys that see every source
edit, exact pickle-free records, corrupt records as misses), arm
deduplication across experiments, failure isolation (one broken
experiment or arm no longer kills an ``all`` run or its siblings), and
the core determinism contract: a parallel sweep aggregates to exactly
the same JSON as the serial sweep.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import Deployment, ExecutionSpec, PopulationSpec, ScenarioSpec, TaskSpec
from repro.harness import SMOKE, Scale
from repro.harness import cache as cache_module
from repro.harness import registry
from repro.harness import sweep as sweep_module
from repro.harness.__main__ import main, parse_grid, parse_seeds
from repro.harness.cache import ResultCache, arm_key, from_record, to_record
from repro.harness.figures import Fig12Result, Fig9Result
from repro.harness.registry import ExperimentSpec, from_jsonable, to_jsonable
from repro.harness.sweep import (
    SweepCell,
    SweepError,
    aggregate_payloads,
    build_cells,
    expand_grid,
    run_sweep,
)

MICRO = Scale(
    name="micro",
    base_concurrency=8,
    base_goal=2,
    concurrency_sweep=(4, 8),
    goal_sweep=(2, 4),
    population=1500,
    sim_hours=0.5,
    critical_goal=4.0,
)


class TestSeedParsing:
    def test_comma_list(self):
        assert parse_seeds("0,1,2") == [0, 1, 2]

    def test_range(self):
        assert parse_seeds("0..4") == [0, 1, 2, 3, 4]

    def test_mixed_and_dedup(self):
        assert parse_seeds("0,2..4,2") == [0, 2, 3, 4]

    def test_single(self):
        assert parse_seeds("7") == [7]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_seeds(",")

    def test_backwards_range_rejected(self):
        with pytest.raises(ValueError):
            parse_seeds("4..0")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_seeds("a,b")


class TestGridParsing:
    def test_values_coerced(self):
        grid = parse_grid(["k=1,2", "lr=0.1,0.2", "mode=a,b"])
        assert grid == {"k": [1, 2], "lr": [0.1, 0.2], "mode": ["a", "b"]}

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_grid(["no-equals"])

    def test_empty_axis_rejected(self):
        # An empty axis would silently produce a zero-cell sweep.
        with pytest.raises(ValueError, match="no values"):
            parse_grid(["k=,"])

    def test_duplicate_axis_rejected(self):
        # Last-flag-wins would silently drop the first axis's values.
        with pytest.raises(ValueError, match="twice"):
            parse_grid(["k=1", "k=2,3"])

    def test_duplicate_values_deduped(self):
        # A repeated value would double-weight that point in the aggregate.
        assert parse_grid(["k=1,1,2"]) == {"k": [1, 2]}

    def test_expand_grid_product(self):
        points = expand_grid({"a": [1, 2], "b": ["x"]})
        assert points == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]

    def test_expand_grid_empty(self):
        assert expand_grid({}) == [{}]
        assert expand_grid(None) == [{}]


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {"fig2", "fig3", "fig6", "fig7", "fig8", "fig9",
                    "fig10", "fig11", "fig12", "fig13", "table1"}
        assert expected.issubset(set(registry.names()))

    def test_get_unknown_raises_with_names(self):
        with pytest.raises(KeyError, match="fig9"):
            registry.get("nope")

    def test_duplicate_registration_rejected(self):
        spec = registry.get("fig6")
        with pytest.raises(ValueError):
            registry.register(spec)

    def test_dispatch_runs_experiment(self, capsys):
        spec = registry.get("fig6")
        res = spec.run(SMOKE, 0)
        spec.printer(res)
        assert "Figure 6" in capsys.readouterr().out


class TestCodec:
    def test_fig9_roundtrip(self):
        res = registry.get("fig9").run(MICRO, 0)
        payload = to_jsonable(res)
        back = from_jsonable(Fig9Result, json.loads(json.dumps(payload)))
        assert back == res

    def test_integer_arrays_keep_dtype(self):
        from repro.harness.figures import Fig7Result

        res = Fig7Result(
            sync_times=np.array([0.0, 1.0]), sync_active=np.array([3, 5]),
            async_times=np.array([0.0, 1.0]), async_active=np.array([4, 6]),
            concurrency=8, sync_utilization=0.5, async_utilization=0.9,
        )
        back = from_jsonable(Fig7Result, json.loads(json.dumps(to_jsonable(res))))
        assert back.sync_active.dtype.kind == "i", "client counts must stay integer"
        assert back.sync_times.dtype.kind == "f"

    def test_optional_none_roundtrip(self):
        res = Fig12Result(
            curves={"a": (np.array([1.0, 2.0]), np.array([3.0, 4.0]))},
            concurrency=8, small_goal=2, big_goal=6,
        )
        back = from_jsonable(Fig12Result, json.loads(json.dumps(to_jsonable(res))))
        assert back.concurrency == 8
        np.testing.assert_array_equal(back.curves["a"][1], [3.0, 4.0])
        assert isinstance(back.curves["a"], tuple)
        assert isinstance(back.curves["a"][0], np.ndarray)


def _tiny_spec(seed: int = 0, t_end_s: float = 600.0) -> ScenarioSpec:
    """A one-task async arm that runs in a fraction of a second."""
    return ScenarioSpec(
        population=PopulationSpec(n_devices=200, seed=0),
        tasks=(TaskSpec(name="t", mode="async", concurrency=8,
                        aggregation_goal=2, model_size_bytes=1000),),
        execution=ExecutionSpec(seed=seed, t_end_s=t_end_s),
    )


_KEY_SCRIPT = (
    "from repro.harness import SMOKE, registry; "
    "from repro.harness.cache import arm_key; "
    "print(arm_key(registry.get('fig9').arms(scale=SMOKE, seed=0)['sync@8']))"
)


def _key_under(src_root: Path) -> str:
    """The fig9 sync@8 arm key computed by a fresh interpreter on ``src_root``."""
    out = subprocess.run(
        [sys.executable, "-c", _KEY_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(src_root)},
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


class TestCache:
    def test_arm_key_stable_and_sensitive(self):
        spec = _tiny_spec()
        assert arm_key(spec) == arm_key(_tiny_spec())
        assert arm_key(spec) != arm_key(_tiny_spec(seed=1))
        assert arm_key(spec) != arm_key(spec.override("tasks.0.concurrency", 16))

    def test_arm_key_tracks_cache_version(self, monkeypatch):
        before = arm_key(_tiny_spec())
        monkeypatch.setattr(cache_module, "CACHE_VERSION", cache_module.CACHE_VERSION + 1)
        assert arm_key(_tiny_spec()) != before

    @pytest.mark.parametrize("edited", ["core/fedbuff.py", "harness/ks.py"])
    def test_any_source_edit_moves_the_key(self, tmp_path, edited):
        # The key hashes the whole imported package: an edit outside the
        # harness (core/) must invalidate stored arms as surely as one in it.
        copy = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        original = arm_key(registry.get("fig9").arms(scale=SMOKE, seed=0)["sync@8"])
        assert _key_under(tmp_path) == original, "a verbatim copy keys the same"
        with open(copy / edited, "a", encoding="utf-8") as fh:
            fh.write("\n_NO_OP = None\n")
        assert _key_under(tmp_path) != original

    def test_record_round_trip_is_exact(self, tmp_path):
        run = Deployment.from_spec(_tiny_spec()).run()
        cache = ResultCache(tmp_path)
        key = arm_key(_tiny_spec())
        assert cache.load(key) is None
        cache.store(key, to_record(run))
        assert cache.path(key).is_file() and len(cache) == 1
        back = cache.load(key)
        assert back.sim_digest() == run.sim_digest()
        assert back.task_stats == run.task_stats
        assert back.duration_s == run.duration_s
        assert back.trace.participations == run.trace.participations
        assert back.trace.to_dict() == run.trace.to_dict()
        for query in ("active_series", "loss_curve"):
            for a, b in zip(getattr(back.trace, query)(), getattr(run.trace, query)()):
                np.testing.assert_array_equal(a, b)
        assert back.trace.step_counts == run.trace.step_counts
        assert back.trace.last_loss == run.trace.last_loss
        with np.load(cache.path(key), allow_pickle=False) as data:
            assert all(data[name].dtype != object for name in data.files)

    def _stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = arm_key(_tiny_spec())
        record = to_record(Deployment.from_spec(_tiny_spec()).run())
        cache.store(key, record)
        return cache, key, record

    def test_byte_corrupt_record_is_a_miss(self, tmp_path):
        cache, key, _ = self._stored(tmp_path)
        cache.path(key).write_bytes(b"\xff\xfe\x00garbage\x80")
        assert cache.load(key) is None

    def test_truncated_record_is_a_miss(self, tmp_path):
        cache, key, _ = self._stored(tmp_path)
        data = cache.path(key).read_bytes()
        cache.path(key).write_bytes(data[: len(data) // 2])
        assert cache.load(key) is None

    def test_digest_mismatched_record_is_a_miss(self, tmp_path):
        cache, key, record = self._stored(tmp_path)
        record["p.n_examples"] = record["p.n_examples"] + 1
        cache.store(key, record)
        assert cache.load(key) is None
        with pytest.raises(ValueError, match="sim_digest"):
            from_record(record)

    def test_invariant_experiment_gets_one_cell(self):
        assert len(build_cells(["fig6"], SMOKE, seeds=[0, 1, 2])) == 1
        assert len(build_cells(["fig9"], SMOKE, seeds=[0, 1, 2])) == 3

    def test_invariant_experiment_cell_pins_seed_zero(self):
        # A uses_seed=False experiment gets one cell at seed 0, even when
        # the sweep's seed list doesn't contain 0.
        cells = build_cells(["fig6"], SMOKE, seeds=[3, 4])
        assert len(cells) == 1
        assert cells[0].seed == 0
        # Seed-using experiments keep the requested seeds verbatim.
        assert [c.seed for c in build_cells(["fig9"], SMOKE, seeds=[3, 4])] \
            == [3, 4]


class TestAggregation:
    def test_scalar_stats(self):
        agg = aggregate_payloads([{"x": 1.0}, {"x": 3.0}])
        assert agg["x"]["mean"] == 2.0
        assert agg["x"]["min"] == 1.0 and agg["x"]["max"] == 3.0
        assert agg["x"]["n"] == 2

    def test_none_counted_as_missing(self):
        agg = aggregate_payloads([{"t": None}, {"t": 4.0}])
        assert agg["t"]["mean"] == 4.0
        assert agg["t"]["n"] == 1 and agg["t"]["n_missing"] == 1

    def test_missing_key_in_later_seed_counted_as_missing(self):
        # Structurally heterogeneous payloads (a seed payload without
        # one of the keys) used to KeyError; a missing key is a missing
        # value, exactly like an explicit None.
        agg = aggregate_payloads([{"x": 1.0, "y": 2.0}, {"x": 3.0}])
        assert agg["x"]["n"] == 2 and agg["x"]["mean"] == 2.0
        assert agg["y"]["n"] == 1 and agg["y"]["n_missing"] == 1
        assert agg["y"]["mean"] == 2.0

    def test_key_only_in_later_seed_still_appears(self):
        agg = aggregate_payloads([{"x": 1.0}, {"x": 2.0, "extra": 5.0}])
        assert agg["extra"]["n"] == 1 and agg["extra"]["n_missing"] == 1
        assert agg["extra"]["mean"] == 5.0

    def test_all_seeds_missing_a_key_yields_empty_stat(self):
        agg = aggregate_payloads([{"x": None}, {"x": None}])
        assert agg["x"]["n"] == 0 and agg["x"]["n_missing"] == 2
        assert agg["x"]["mean"] is None

    def test_nested_dict_missing_in_one_seed_reports_n_missing(self):
        agg = aggregate_payloads([
            {"sub": {"a": 1.0}},
            {"sub": {"a": 3.0}},
            {},
        ])
        assert agg["sub"]["a"]["mean"] == 2.0
        assert agg["sub"]["n_missing"] == 1

    def test_homogeneous_payloads_unchanged_by_heterogeneity_handling(self):
        payloads = [{"x": 1.0, "sub": {"a": 2.0}}, {"x": 3.0, "sub": {"a": 4.0}}]
        agg = aggregate_payloads(payloads)
        assert agg["x"] == {
            "kind": "scalar", "mean": 2.0, "std": 1.0, "min": 1.0,
            "max": 3.0, "n": 2, "n_missing": 0,
        }
        assert "n_missing" not in agg["sub"]

    def test_equal_length_series_elementwise(self):
        agg = aggregate_payloads([{"ys": [1.0, 2.0]}, {"ys": [3.0, 4.0]}])
        assert agg["ys"]["kind"] == "series"
        assert agg["ys"]["mean"] == [2.0, 3.0]

    def test_ragged_series_summarized(self):
        agg = aggregate_payloads([{"ys": [1.0]}, {"ys": [2.0, 4.0]}])
        assert agg["ys"]["kind"] == "ragged"
        assert agg["ys"]["length"]["mean"] == 1.5

    def test_ragged_all_none_seed_counts_as_missing(self):
        # A seed with no numeric entries must not contribute a fake 0.0.
        agg = aggregate_payloads([{"ys": [None]}, {"ys": [1.0, 2.0]}])
        stat = agg["ys"]["per_seed_mean"]
        assert stat["mean"] == 1.5
        assert stat["n"] == 1 and stat["n_missing"] == 1

    @pytest.mark.parametrize("n", [95, 96, 100, 49, 200])
    def test_band_series_covers_full_range(self, n):
        from repro.harness.report import format_aggregate

        # Any length vs width 48: the sparkline must always include both
        # endpoints — stride sampling can silently drop the tail.
        ramp = [float(i) for i in range(n)]
        agg = aggregate_payloads([{"ys": ramp}, {"ys": ramp}])
        out = format_aggregate(agg)
        assert f"[0..{n - 1}]" in out
        spark = out.split(": ")[1].split("  ")[0]
        assert spark[-1] == "█", "last mark must be the series maximum"
        assert spark[0] == "▁", "first mark must be the series minimum"

    def test_width_one_sparkline(self):
        # width=1 is part of format_series's public signature; the
        # endpoint-inclusive sampler must not divide by zero on it.
        from repro.harness import format_series

        out = format_series("s", [0, 1, 2], [1.0, 2.0, 3.0], width=1)
        assert "[1..3]" in out

    def test_band_series_preserves_gap_positions(self):
        from repro.harness.report import format_aggregate

        agg = aggregate_payloads([
            {"ys": [1.0, None, 3.0]},
            {"ys": [2.0, None, 5.0]},
        ])
        out = format_aggregate(agg)
        spark = out.split(": ")[1].split("  ")[0]
        assert spark[1] == "·", "all-missing column must stay a visible gap"
        assert len(spark) == 3

    def test_nested_rows(self):
        agg = aggregate_payloads([
            {"rows": [{"v": 1.0}, {"v": 10.0}]},
            {"rows": [{"v": 3.0}, {"v": 30.0}]},
        ])
        assert agg["rows"][0]["v"]["mean"] == 2.0
        assert agg["rows"][1]["v"]["mean"] == 20.0


def _register_probe(runs):
    """A cheap injected direct experiment (runs in-process, never stored)."""
    def runner(scale, seed, **params):
        runs.append(seed)
        return {"seed_echo": seed}

    def printer(res):
        print(f"probe seed={res['seed_echo']}")

    spec = ExperimentSpec("probe", runner, printer, description="test probe")
    registry.register(spec, replace=True)
    return spec


@pytest.fixture
def probe():
    runs = []
    _register_probe(runs)
    yield runs
    registry.unregister("probe")


@pytest.fixture
def failing():
    def runner(scale, seed, **params):
        raise RuntimeError("boom")

    registry.register(
        ExperimentSpec("failing", runner, print, description="always raises"),
        replace=True,
    )
    yield
    registry.unregister("failing")


def _armprobe_arms(seed, extra=None):
    """Two tiny arms per seed; ``extra`` adds one more (its horizon in s)."""
    arms = {"a": _tiny_spec(seed), "b": _tiny_spec(seed, t_end_s=300.0)}
    if extra is not None:
        arms["extra"] = _tiny_spec(seed, t_end_s=float(extra))
    return arms


def _armprobe_reduce(runs, seed, extra=None):
    return {name: res.stats().server_steps for name, res in runs.items()}


@pytest.fixture
def armprobe():
    registry.register(
        ExperimentSpec("armprobe", None, print, description="test arm set",
                       uses_scale=False, arms=_armprobe_arms, reduce=_armprobe_reduce),
        replace=True,
    )
    yield
    registry.unregister("armprobe")


@pytest.fixture
def spec_runs(monkeypatch):
    """Every ``Deployment.from_spec`` the sweep executor makes, in order."""
    made = []
    real = Deployment.from_spec

    def counting(spec, **kwargs):
        made.append(spec)
        return real(spec, **kwargs)

    monkeypatch.setattr(sweep_module.Deployment, "from_spec", counting)
    return made


class TestSweepExecutor:
    def test_shared_arms_run_once(self, spec_runs):
        fig9 = run_sweep(build_cells(["fig9"], MICRO, seeds=[0]))
        assert len(spec_runs) == fig9.arms == fig9.ran == 2 * len(MICRO.concurrency_sweep)
        del spec_runs[:]
        both = run_sweep(build_cells(["fig3", "fig9"], MICRO, seeds=[0]))
        # fig3's arms are fig9's sync arms: fig3 adds no run.
        assert len(spec_runs) == both.arms == fig9.arms
        assert both.cells[1].payload == fig9.cells[0].payload
        assert both.cells[0].result == registry.get("fig3").run(MICRO, 0)
        assert set(both.cells[0].arms.values()) < set(both.cells[1].arms.values())

    def test_second_sweep_runs_no_arm(self, tmp_path, armprobe, spec_runs):
        cache = ResultCache(tmp_path)
        cells = build_cells(["armprobe"], MICRO, seeds=[0, 1])
        sweep = run_sweep(cells, jobs=1, cache=cache)
        assert (sweep.arms, sweep.stored, sweep.ran) == (4, 0, 4)
        assert len(spec_runs) == 4 and len(cache) == 4

        again = run_sweep(cells, jobs=1, cache=cache)
        assert (again.arms, again.stored, again.ran) == (4, 4, 0)
        assert len(spec_runs) == 4, "stored arms must not run again"
        assert [c.payload for c in again.cells] == [c.payload for c in sweep.cells]

    def test_grid_cells_and_grouping(self, tmp_path, probe):
        cells = build_cells(["probe"], MICRO, seeds=[0, 1], grid={"k": [1, 2]})
        assert len(cells) == 4
        sweep = run_sweep(cells, jobs=1, cache=ResultCache(tmp_path))
        groups = sweep.groups()
        assert len(groups) == 2
        assert all(len(g.cells) == 2 for g in groups)
        assert groups[0].params == (("k", 1),)
        assert sweep.direct == 4 and sweep.arms == 0

    def test_direct_cells_are_not_stored(self, tmp_path, probe):
        cache = ResultCache(tmp_path)
        cells = build_cells(["probe"], MICRO, seeds=[0, 1])
        run_sweep(cells, jobs=1, cache=cache)
        run_sweep(cells, jobs=1, cache=cache)
        assert probe == [0, 1, 0, 1] and len(cache) == 0

    def test_unknown_experiment_rejected_upfront(self):
        with pytest.raises(KeyError):
            build_cells(["does-not-exist"], MICRO, seeds=[0])

    def test_bad_grid_value_fails_before_any_arm_runs(self, armprobe, spec_runs):
        cells = build_cells(["armprobe"], MICRO, seeds=[0], grid={"bogus": [1]})
        with pytest.raises(TypeError, match="bogus"):
            run_sweep(cells)
        assert spec_runs == []

    def test_cache_store_failure_keeps_result(self, tmp_path, armprobe):
        # An unwritable store must not turn a computed arm into a cell
        # failure — the sweep completes, merely unstored.
        class BrokenStoreCache(ResultCache):
            def store(self, key, record):
                raise OSError("disk full")

        messages = []
        cells = build_cells(["armprobe"], MICRO, seeds=[0])
        sweep = run_sweep(cells, jobs=1, cache=BrokenStoreCache(tmp_path),
                          progress=messages.append)
        assert len(sweep.cells) == 1 and sweep.ran == 2
        assert any("cache-store failed" in m for m in messages)

    def test_failing_arm_fails_only_its_cells(self, tmp_path, armprobe, monkeypatch):
        cache = ResultCache(tmp_path)
        # Cell 0 needs arms a, b; cell 1 needs a, b and a third that fails.
        cells = build_cells(["armprobe"], MICRO, seeds=[0]) + \
            build_cells(["armprobe"], MICRO, seeds=[0], grid={"extra": [900]})
        real = Deployment.from_spec

        def breaking(spec, **kwargs):
            if spec.execution.t_end_s == 900.0:
                raise RuntimeError("arm exploded")
            return real(spec, **kwargs)

        monkeypatch.setattr(sweep_module.Deployment, "from_spec", breaking)
        with pytest.raises(SweepError, match="extra=900") as excinfo:
            run_sweep(cells, jobs=1, cache=cache)
        err = excinfo.value
        assert [cell for cell, _ in err.failures] == [cells[1]]
        assert [c.cell for c in err.result.cells] == [cells[0]]
        assert (err.result.arms, err.result.ran) == (3, 2)
        # The sibling arms were stored despite the failure...
        assert len(cache) == 2
        # ...so a resume after the fix only runs the broken arm.
        monkeypatch.setattr(sweep_module.Deployment, "from_spec", real)
        resumed = run_sweep(cells, jobs=1, cache=cache)
        assert (resumed.stored, resumed.ran) == (2, 1)

    def test_failing_direct_cell_keeps_siblings(self, tmp_path, probe, failing):
        cells = build_cells(["probe", "failing"], MICRO, seeds=[0, 1])
        with pytest.raises(SweepError, match="failing") as excinfo:
            run_sweep(cells, jobs=1, cache=ResultCache(tmp_path))
        # The error carries the partial result over the completed cells.
        assert [c.cell for c in excinfo.value.result.cells] == cells[:2]
        assert probe == [0, 1]

    def test_parallel_equals_serial(self, tmp_path):
        cells = build_cells(["fig9"], MICRO, seeds=[0, 1])
        serial = run_sweep(cells, jobs=1, cache=ResultCache(tmp_path / "s"))
        parallel = run_sweep(cells, jobs=2, cache=ResultCache(tmp_path / "p"))
        assert parallel.ran == serial.ran == 2 * 2 * len(MICRO.concurrency_sweep)
        a = json.dumps([c.payload for c in serial.cells], sort_keys=True)
        b = json.dumps([c.payload for c in parallel.cells], sort_keys=True)
        assert a == b
        agg_a = json.dumps(serial.to_jsonable()["aggregates"], sort_keys=True)
        agg_b = json.dumps(parallel.to_jsonable()["aggregates"], sort_keys=True)
        assert agg_a == agg_b


class TestCLI:
    def test_run_single(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "[swept 1 cells" in out

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table1" in out

    def test_list_position_independent(self, capsys):
        assert main(["fig9", "--list"]) == 0
        assert "table1" in capsys.readouterr().out

    def test_list_subcommand(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == len(registry.names())
        # Every line pairs a registered name with its description.
        for line in lines:
            name = line.split()[0]
            assert name in registry.names()
            assert registry.get(name).description.strip() in line

    def test_list_subcommand_matches_flag(self, capsys):
        assert main(["list"]) == 0
        sub = capsys.readouterr().out
        assert main(["--list"]) == 0
        flag = capsys.readouterr().out
        assert sub == flag

    def test_no_experiment_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_failure_reports_nonzero_and_continues(self, capsys, failing, monkeypatch):
        # Shrink the registry so `all` = {failing, fig6}: the broken
        # experiment must not stop fig6 from rendering, and the exit
        # code must be nonzero.
        keep = {n: registry._REGISTRY[n] for n in ("failing", "fig6")}
        monkeypatch.setattr(registry, "_REGISTRY", keep)
        assert main(["all"]) == 1
        captured = capsys.readouterr()
        assert "boom" in captured.err and "FAILED: failing" in captured.err
        assert "Figure 6" in captured.out

    def test_single_failure_nonzero(self, capsys, failing):
        assert main(["failing"]) == 1
        assert "boom" in capsys.readouterr().err

    def test_broken_printer_is_isolated_too(self, capsys, monkeypatch):
        # The renderer is part of the experiment contract: a printer that
        # raises must not escape the failure isolation of an `all` run.
        def bad_printer(res):
            raise ValueError("render exploded")

        spec = registry.get("fig6")
        broken = dataclasses.replace(spec, printer=bad_printer)
        monkeypatch.setattr(registry, "_REGISTRY", {"fig6": broken})
        assert main(["all"]) == 1
        captured = capsys.readouterr()
        assert "render exploded" in captured.err
        assert "FAILED: fig6" in captured.err

    def test_sweep_cli_cache_roundtrip(self, capsys, tmp_path, armprobe, spec_runs):
        cache_dir = str(tmp_path / "c")
        args = ["sweep", "armprobe", "--seeds", "0,1", "--jobs", "1",
                "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "4 arms, 0 stored, 4 ran" in first
        assert "mean/std/min/max over 2 seeds" in first

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "4 arms, 4 stored, 0 ran" in second
        assert len(spec_runs) == 4, "second CLI run must be served from the store"

    def test_sweep_json_report(self, tmp_path, probe):
        out = tmp_path / "report.json"
        assert main(["sweep", "probe", "--seeds", "0..2", "--jobs", "1",
                     "--cache-dir", str(tmp_path / "c"), "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["seeds"] == [0, 1, 2]
        assert len(report["cells"]) == 3
        assert report["aggregates"][0]["aggregate"]["seed_echo"]["mean"] == 1.0
        assert report["direct_cells"] == 3 and report["arms"] == 0

    def test_sweep_all_with_unknown_name_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "all", "fig99", "--seeds", "0",
                  "--cache-dir", str(tmp_path)])

    def test_sweep_bad_seeds_exit_code(self, capsys, probe):
        assert main(["sweep", "probe", "--seeds", "x"]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_grid_with_multiple_experiments_rejected(self, capsys):
        # Grid keys are runner keywords; they differ per experiment.
        assert main(["sweep", "fig6", "fig9", "--seeds", "0",
                     "--grid", "target_loss=2.6"]) == 2
        assert "one experiment" in capsys.readouterr().err

    def test_sweep_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["sweep", "nope", "--seeds", "0"])

    def test_sweep_broken_renderer_keeps_json_and_exits_nonzero(
        self, capsys, tmp_path, monkeypatch
    ):
        spec = registry.get("fig6")

        def boom(res):
            raise ValueError("render exploded")

        monkeypatch.setitem(
            registry._REGISTRY, "fig6",
            dataclasses.replace(spec, printer=boom),
        )
        out = tmp_path / "report.json"
        assert main(["sweep", "fig6", "--seeds", "0", "--jobs", "1",
                     "--cache-dir", str(tmp_path / "c"),
                     "--json", str(out)]) == 1
        captured = capsys.readouterr()
        assert "render exploded" in captured.err
        # The machine-readable artifact survives the renderer failure.
        assert json.loads(out.read_text())["cells"]

    def test_sweep_single_seed_renders_figure(self, capsys, tmp_path):
        assert main(["sweep", "fig6", "--seeds", "0", "--jobs", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "Figure 6" in capsys.readouterr().out


class TestSweepCell:
    def test_label(self):
        cell = SweepCell("fig9", SMOKE, 3, (("target_loss", 2.6),))
        assert "fig9" in cell.label() and "seed=3" in cell.label()
        assert "target_loss=2.6" in cell.label()


class TestListCommand:
    def test_every_experiment_listed_with_description(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        listed = {ln.split()[0] for ln in lines}
        assert listed == set(registry.names())
        for spec in registry.specs():
            assert spec.description, f"{spec.name} has no description"
            line = next(ln for ln in lines if ln.split()[0] == spec.name)
            assert spec.description in line

    def test_flags_reflect_metadata(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        for spec in registry.specs():
            line = next(
                ln for ln in out.splitlines() if ln.split() and
                ln.split()[0] == spec.name
            )
            assert ("scale-free" in line) == (not spec.uses_scale)
            assert ("deterministic" in line) == (not spec.uses_seed)
