"""CLI, registry, sweep-executor and cache tests for the harness.

Covers argument parsing (``--seeds`` ranges, ``--grid``), experiment
dispatch through the registry, cache hit/miss behavior, failure isolation
(one broken experiment no longer kills an ``all`` run), and the core
determinism contract: a parallel sweep aggregates to exactly the same
JSON as the serial sweep.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.harness import SMOKE, Scale
from repro.harness import registry
from repro.harness.__main__ import main, parse_grid, parse_seeds
from repro.harness.cache import ResultCache, cell_fingerprint
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


class TestCache:
    def test_fingerprint_stable_and_sensitive(self):
        fp = cell_fingerprint("fig9", SMOKE, 0, {})
        assert fp == cell_fingerprint("fig9", SMOKE, 0, {})
        assert fp != cell_fingerprint("fig9", SMOKE, 1, {})
        assert fp != cell_fingerprint("fig8", SMOKE, 0, {})
        assert fp != cell_fingerprint("fig9", MICRO, 0, {})
        assert fp != cell_fingerprint("fig9", SMOKE, 0, {"target_loss": 2.6})

    def test_fingerprint_tracks_code_identity(self, monkeypatch):
        fp_real = cell_fingerprint("fig9", SMOKE, 0, {})
        monkeypatch.setattr(registry, "code_digest", lambda name: "0" * 16)
        fp_other_code = cell_fingerprint("fig9", SMOKE, 0, {})
        assert fp_real != fp_other_code, \
            "editing the runner's module must invalidate cached cells"

    def test_code_digest_covers_whole_package(self, tmp_path, monkeypatch):
        # An edit to any sibling module of the runner (e.g. harness/runner.py)
        # must change the digest, not just the defining file.
        pkg = tmp_path / "fakepkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("x = 1\n")
        (pkg / "sibling.py").write_text("y = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        registry._module_digest.cache_clear()
        d1 = registry._module_digest("fakepkg.mod")
        (pkg / "sibling.py").write_text("y = 2\n")
        registry._module_digest.cache_clear()
        d2 = registry._module_digest("fakepkg.mod")
        registry._module_digest.cache_clear()
        assert d1 is not None and d1 != d2

    def test_invariant_experiment_fingerprints_collapse(self):
        # fig6 declares uses_seed=False and uses_scale=False.
        fp = cell_fingerprint("fig6", SMOKE, 0, {})
        assert fp == cell_fingerprint("fig6", SMOKE, 7, {})
        assert fp == cell_fingerprint("fig6", MICRO, 0, {})
        assert fp != cell_fingerprint("fig6", SMOKE, 0, {"model_bytes": 1})

    def test_invariant_experiment_gets_one_cell(self):
        assert len(build_cells(["fig6"], SMOKE, seeds=[0, 1, 2])) == 1
        assert len(build_cells(["fig9"], SMOKE, seeds=[0, 1, 2])) == 3

    def test_invariant_experiment_cell_pins_seed_zero(self):
        # The fingerprint of a uses_seed=False experiment pins seed 0;
        # the constructed cell must agree even when the sweep's seed
        # list doesn't contain 0 (seeds[:1] used to leak seed 3 in).
        cells = build_cells(["fig6"], SMOKE, seeds=[3, 4])
        assert len(cells) == 1
        assert cells[0].seed == 0
        assert cells[0].fingerprint == cell_fingerprint("fig6", SMOKE, 0, {})
        # Seed-using experiments keep the requested seeds verbatim.
        assert [c.seed for c in build_cells(["fig9"], SMOKE, seeds=[3, 4])] \
            == [3, 4]

    def test_store_load_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = cell_fingerprint("fig6", SMOKE, 0, {})
        assert cache.load(fp) is None
        cache.store(fp, {"experiment": "fig6", "result": {"x": 1}})
        assert fp in cache
        assert cache.load(fp)["result"] == {"x": 1}
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.load(fp) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = cell_fingerprint("fig6", SMOKE, 0, {})
        p = cache.path(fp)
        p.parent.mkdir(parents=True)
        p.write_text("{not json")
        assert cache.load(fp) is None

    def test_byte_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = cell_fingerprint("fig6", SMOKE, 0, {})
        p = cache.path(fp)
        p.parent.mkdir(parents=True)
        p.write_bytes(b"\xff\xfe\x00garbage\x80")
        assert cache.load(fp) is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = cell_fingerprint("fig6", SMOKE, 0, {})
        cache.store(fp, {"result": 1})
        data = json.loads(cache.path(fp).read_text())
        data["version"] = -1
        cache.path(fp).write_text(json.dumps(data))
        assert cache.load(fp) is None


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
    """A cheap injected experiment (function is module-level for pickling)."""
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


class TestSweepExecutor:
    def test_serial_sweep_and_cache_hits(self, tmp_path, probe):
        cache = ResultCache(tmp_path)
        cells = build_cells(["probe"], MICRO, seeds=[0, 1, 2])
        sweep = run_sweep(cells, jobs=1, cache=cache)
        assert sweep.misses == 3 and sweep.hits == 0
        assert probe == [0, 1, 2]

        again = run_sweep(cells, jobs=1, cache=cache)
        assert again.hits == 3 and again.misses == 0
        assert probe == [0, 1, 2], "cache hits must not re-run the experiment"
        assert [c.payload["result"] for c in again.cells] == \
               [c.payload["result"] for c in sweep.cells]

    def test_grid_cells_and_grouping(self, tmp_path, probe):
        cells = build_cells(["probe"], MICRO, seeds=[0, 1], grid={"k": [1, 2]})
        assert len(cells) == 4
        sweep = run_sweep(cells, jobs=1, cache=ResultCache(tmp_path))
        groups = sweep.groups()
        assert len(groups) == 2
        assert all(len(g.cells) == 2 for g in groups)
        assert groups[0].params == (("k", 1),)

    def test_unknown_experiment_rejected_upfront(self):
        with pytest.raises(KeyError):
            build_cells(["does-not-exist"], MICRO, seeds=[0])

    def test_cache_store_failure_keeps_result(self, tmp_path, probe):
        # An unwritable cache must not turn a computed result into a
        # cell failure — the sweep completes, merely uncached.
        class BrokenStoreCache(ResultCache):
            def store(self, fingerprint, payload):
                raise OSError("disk full")

        messages = []
        cells = build_cells(["probe"], MICRO, seeds=[0, 1])
        sweep = run_sweep(cells, jobs=1, cache=BrokenStoreCache(tmp_path),
                          progress=messages.append)
        assert len(sweep.cells) == 2 and sweep.misses == 2
        assert any("cache-store failed" in m for m in messages)

    def test_failing_cell_keeps_siblings_cached(self, tmp_path, probe, failing):
        cache = ResultCache(tmp_path)
        cells = build_cells(["probe", "failing"], MICRO, seeds=[0, 1])
        with pytest.raises(SweepError, match="failing") as excinfo:
            run_sweep(cells, jobs=1, cache=cache)
        # The error carries the partial result over the completed cells,
        # and its miss count excludes the failed cells.
        assert excinfo.value.result is not None
        assert len(excinfo.value.result.cells) == 2
        assert excinfo.value.result.misses == 2
        # The probe cells were cached despite the failures after them...
        assert cells[0].fingerprint in cache and cells[1].fingerprint in cache
        assert probe == [0, 1]
        # ...so a resume after the fix only re-runs the broken cells.
        ok = ExperimentSpec("failing", lambda scale, seed, **p: {"fixed": 1.0},
                            print, description="fixed")
        registry.register(ok, replace=True)
        resumed = run_sweep(cells, jobs=1, cache=cache)
        assert resumed.hits == 2 and resumed.misses == 2
        assert probe == [0, 1], "probe must not re-run on resume"

    def test_parallel_equals_serial(self, tmp_path):
        cells = build_cells(["fig9"], MICRO, seeds=[0, 1])
        serial = run_sweep(cells, jobs=1, cache=ResultCache(tmp_path / "s"))
        parallel = run_sweep(cells, jobs=2, cache=ResultCache(tmp_path / "p"))
        a = json.dumps([c.payload["result"] for c in serial.cells], sort_keys=True)
        b = json.dumps([c.payload["result"] for c in parallel.cells], sort_keys=True)
        assert a == b
        agg_a = json.dumps(serial.groups()[0].aggregate, sort_keys=True)
        agg_b = json.dumps(parallel.groups()[0].aggregate, sort_keys=True)
        assert agg_a == agg_b


class TestCLI:
    def test_run_single(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "took" in out

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

    def test_sweep_cli_cache_roundtrip(self, capsys, tmp_path, probe):
        cache_dir = str(tmp_path / "c")
        args = ["sweep", "probe", "--seeds", "0,1", "--jobs", "1",
                "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 cached, 2 ran" in first
        assert "mean/std/min/max over 2 seeds" in first

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "2 cached, 0 ran" in second
        assert probe == [0, 1], "second CLI run must be served from cache"

    def test_sweep_json_report(self, tmp_path, probe):
        out = tmp_path / "report.json"
        assert main(["sweep", "probe", "--seeds", "0..2", "--jobs", "1",
                     "--cache-dir", str(tmp_path / "c"), "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["seeds"] == [0, 1, 2]
        assert len(report["cells"]) == 3
        assert report["aggregates"][0]["aggregate"]["seed_echo"]["mean"] == 1.0
        # Cold-run and cache-hit cells must share one schema: all versioned.
        assert all("version" in c for c in report["cells"])

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
    def test_label_and_fingerprint(self):
        cell = SweepCell("fig9", SMOKE, 3, (("target_loss", 2.6),))
        assert "fig9" in cell.label() and "seed=3" in cell.label()
        assert cell.fingerprint == cell_fingerprint(
            "fig9", SMOKE, 3, {"target_loss": 2.6}
        )

    def test_runner_module_recorded_but_not_fingerprinted(self):
        # Spawn-start workers import this module to rebuild the registry.
        cells = build_cells(["fig9"], SMOKE, seeds=[0])
        assert cells[0].runner_module == "repro.harness.figures"
        bare = SweepCell("fig9", SMOKE, 0)
        assert cells[0].fingerprint == bare.fingerprint


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
            assert ("grid:" in line) == bool(spec.default_grid)
