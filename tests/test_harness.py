"""Tests for the experiment harness: report, KS wrapper, runners, figures."""

import numpy as np
import pytest

from repro.harness import (
    DEFAULT_TARGET_LOSS,
    SMOKE,
    async_scenario,
    figure2,
    figure6,
    format_series,
    format_table,
    ks_two_sample,
    make_population,
    sync_scenario,
)
from repro.api import Deployment
from repro.harness.configs import DEFAULT, PAPER, Scale
from repro.harness.runner import sync_goal
from repro.utils import child_rng


class TestReport:
    def test_table_alignment(self):
        out = format_table(["a", "bee"], [[1, 2.5], [30, 0.001]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bee" in lines[1]
        assert len(lines) == 5

    def test_table_float_formatting(self):
        out = format_table(["x"], [[1234.5678]])
        assert "1.23e+03" in out
        out = format_table(["x"], [[0.5]])
        assert "0.5" in out

    def test_table_nan(self):
        assert "nan" in format_table(["x"], [[float("nan")]])

    def test_empty_table(self):
        out = format_table(["h1", "h2"], [])
        assert "h1" in out

    def test_series_sparkline(self):
        out = format_series("loss", [0, 1, 2], [3.0, 2.0, 1.0])
        assert out.startswith("loss [1..3]")
        assert any(ch in out for ch in "▁▂▃▄▅▆▇█")

    def test_series_empty(self):
        assert "(empty)" in format_series("x", [], [])

    def test_series_constant(self):
        out = format_series("c", [0, 1], [5.0, 5.0])
        assert "[5..5]" in out

    def test_print_points_reads_attributes_and_callables(self, capsys):
        from types import SimpleNamespace

        from repro.harness.report import print_points

        points = [SimpleNamespace(k=1, loss=0.25), SimpleNamespace(k=10, loss=0.5)]
        print_points([("k", "k"), ("2x loss", lambda p: 2 * p.loss)], points, title="T")
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "T"
        assert lines[1].split() == ["k", "2x", "loss"]
        assert [line.split() for line in lines[3:5]] == [["1", "0.5"], ["10", "1"]]
        assert lines[5] == ""  # blank separator after each table

    def test_print_points_renders_none_as_na(self, capsys):
        from types import SimpleNamespace

        from repro.harness.report import print_points

        points = [SimpleNamespace(h=None, r=2.0), SimpleNamespace(h=0.5, r=None)]
        print_points([("hours", "h"), ("ratio", lambda p: p.r)], points)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split() for line in lines[2:4]] == [["n/a", "2"], ["0.5", "n/a"]]

    def test_series_downsampling_keeps_both_endpoints(self):
        ys = [float(i) for i in range(100)]
        out = format_series("s", list(range(100)), ys, width=10)
        line = out.split(": ", 1)[1]
        assert len(line) == 10
        assert line[0] == "▁" and line[-1] == "█"


class TestKS:
    def test_identical_samples_match(self):
        rng = child_rng(0, "ks")
        a = rng.normal(size=500)
        res = ks_two_sample(a, a.copy())
        assert res.statistic == 0.0
        assert res.matches()

    def test_shifted_samples_detected(self):
        rng = child_rng(1, "ks")
        a = rng.normal(0, 1, 1000)
        b = rng.normal(1, 1, 1000)
        res = ks_two_sample(a, b)
        assert not res.matches()
        assert res.statistic > 0.2

    def test_same_distribution_matches(self):
        rng = child_rng(2, "ks")
        res = ks_two_sample(rng.normal(size=800), rng.normal(size=800))
        assert res.matches()

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample(np.array([]), np.array([1.0]))


class TestScales:
    def test_presets_ordered(self):
        assert SMOKE.base_concurrency < DEFAULT.base_concurrency < PAPER.base_concurrency
        assert PAPER.base_concurrency == 1300 and PAPER.base_goal == 100

    def test_paper_sweeps_match_paper(self):
        assert PAPER.concurrency_sweep == (130, 260, 650, 1300, 2600)
        assert PAPER.goal_sweep == (100, 200, 400, 700, 1000, 1300)

    def test_sim_seconds(self):
        s = Scale("t", 10, 2, (10,), (2,), 100, sim_hours=2.0)
        assert s.sim_seconds == 7200.0

    def test_sync_goal_respects_cap(self):
        import math

        for c in (8, 13, 32, 130, 1300, 2600):
            goal = sync_goal(c)
            assert math.ceil(goal * 1.3) <= c
            assert goal >= 1
        assert sync_goal(1300) == 1000  # the paper's headline pairing


class TestRunners:
    def test_build_async_runs(self):
        pop = make_population(2000, seed=0)
        sim = Deployment.from_spec(async_scenario(16, 4, pop, seed=0), population=pop).build()
        res = sim.run(t_end=600.0)
        assert res.stats("async").server_steps > 0

    def test_build_sync_cohort_sizing(self):
        pop = make_population(2000, seed=0)
        sim = Deployment.from_spec(
            sync_scenario(10, pop, over_selection=0.3, seed=0), population=pop
        ).build()
        cfg = sim.task_runtimes["sync"].config
        assert cfg.concurrency == 13
        assert cfg.aggregation_goal == 10

    def test_target_loss_is_reachable(self):
        # The default target must sit strictly between the surrogate's
        # floor and initial loss, or every figure run would be vacuous.
        from repro.core import SurrogateParams

        p = SurrogateParams()
        assert p.floor_loss < DEFAULT_TARGET_LOSS < p.initial_loss


class TestFigureFunctions:
    def test_figure2_small(self):
        res = figure2(cohort=50, n_hist_samples=1000, n_rounds=3)
        assert res.mean_round_s > res.mean_client_s
        assert res.density.size == res.bin_edges.size - 1

    def test_figure6_custom_goals(self):
        res = figure6(goals=(5, 50))
        assert len(res.naive_ms) == 2
        assert res.naive_ms[1] > res.naive_ms[0] * 9  # linear in K


class TestCLI:
    def test_cli_fig6(self, capsys):
        from repro.harness.__main__ import main

        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "[swept 1 cells" in out

    def test_cli_rejects_unknown(self):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig99"])
