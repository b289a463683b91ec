"""The verdict logic of ``tools/ab_pairs.py`` on synthetic pairs.

The tool decides whether a perf claim may be made (``choosing-metrics``
section 8), so its rule is pinned here on data whose answer is known:
nine wins in ten and a median gap wider than the parent's own quartile
spread is a gain; anything less is not.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location(
        "ab_pairs", REPO_ROOT / "tools" / "ab_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [5.0, 5.2, 4.9, 5.1, 5.3, 5.0, 4.8, 5.1, 5.2, 5.0]


class TestVerdict:
    def test_clear_win_is_a_gain(self, ab):
        change = [p - 1.0 for p in PARENT]
        assert ab.verdict(PARENT, change, "lower", 0.25) == "gain"
        # The same data read as "higher is better" is a regression only
        # past the bound: 20 % worse is inside 25 %, outside 10 %.
        assert ab.verdict(PARENT, change, "higher", 0.25) == "ok"
        assert ab.verdict(PARENT, change, "higher", 0.10) == "regressed"

    def test_higher_is_better_metrics_gain_upward(self, ab):
        change = [p * 1.4 for p in PARENT]
        assert ab.verdict(PARENT, change, "higher", 0.25) == "gain"

    def test_eight_wins_in_ten_is_not_a_gain(self, ab):
        change = [p - 1.0 for p in PARENT]
        change[0], change[1] = PARENT[0] + 0.1, PARENT[1] + 0.1
        assert ab.summarize(PARENT, change, "lower")["wins"] == 8
        assert ab.verdict(PARENT, change, "lower", 0.25) == "ok"

    def test_nine_wins_and_a_tie_is_a_gain(self, ab):
        change = [p - 1.0 for p in PARENT]
        change[3] = PARENT[3]  # a tie counts for neither side
        s = ab.summarize(PARENT, change, "lower")
        assert (s["wins"], s["losses"]) == (9, 0)
        assert ab.verdict(PARENT, change, "lower", 0.25) == "gain"

    def test_a_gap_inside_the_parents_own_spread_is_not_a_gain(self, ab):
        parent = [4.0, 6.0, 4.5, 5.5, 5.0, 4.2, 5.8, 4.8, 5.2, 5.0]
        change = [p - 0.3 for p in parent]  # wins 10/10, but IQR is ~0.9
        s = ab.summarize(parent, change, "lower")
        assert s["wins"] == 10 and 0 < s["gap"] < s["parent_iqr"]
        assert ab.verdict(parent, change, "lower", 0.25) == "ok"

    def test_worse_than_the_bound_is_regressed(self, ab):
        change = [p * 1.3 for p in PARENT]
        assert ab.verdict(PARENT, change, "lower", 0.25) == "regressed"
        assert ab.verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25) == "ok"

    def test_spread_wider_than_the_bound_is_unresolved(self, ab):
        parent = [1.0, 9.0, 2.0, 8.0, 5.0, 1.5, 8.5, 3.0, 7.0, 5.0]
        change = [p + 0.1 for p in parent]
        assert ab.verdict(parent, change, "lower", 0.10) == "unresolved"
        # ... unless every run of the change beats every run of the parent
        # (the gap is inside the parent's spread, so ok rather than gain).
        wide = [10.0, 30.0] * 5
        better = [9.0, 9.5] * 5
        assert ab.summarize(wide, better, "lower")["dominates"]
        assert ab.verdict(wide, better, "lower", 0.10) == "ok"

    def test_identical_counts_are_ok(self, ab):
        same = [2.27, 2.31, 2.25, 2.27, 2.30, 2.27, 2.27, 2.28, 2.27, 2.26]
        assert ab.verdict(same, list(same), "lower", 0.05) == "ok"
        s = ab.summarize(same, list(same), "lower")
        assert (s["wins"], s["losses"], s["gap"]) == (0, 0, 0.0)

    def test_fewer_than_ten_pairs_never_read_as_a_gain(self, ab):
        assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
        assert ab.verdict([3.0], [2.0], "lower", 0.25) == "unresolved"
        change = [p - 1.0 for p in PARENT]
        assert ab.verdict(PARENT[:9], change[:9], "lower", 0.25) == "unresolved"
        assert ab.verdict(PARENT[:9], [p * 1.3 for p in PARENT[:9]], "lower", 0.25) == "regressed"


def _run(value, failed=0):
    return {"correct": not failed, "attempted": 4, "failed": failed,
            "metrics": {"run_s": {"value": value, "unit": "s"}}}


class TestReport:
    METRICS = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]

    def pairs(self, change_failed=0):
        return [
            {"seed": 300 + i, "first": ("parent", "change")[i % 2],
             "parent": _run(p), "change": _run(p - 1.0, change_failed)}
            for i, p in enumerate(PARENT)
        ]

    def test_table_has_every_pair_and_the_verdict(self, ab):
        pairs = self.pairs()
        text = ab.report("sharded_wide_process", pairs, self.METRICS,
                         ab.judge(pairs, self.METRICS))
        assert "### `sharded_wide_process`: 10 alternating pairs" in text
        for i, p in enumerate(PARENT):
            assert f"| {300 + i} | {('parent', 'change')[i % 2]} | {p:.6g} / {p - 1:.6g} |" in text
        assert "| 10/10 | 25% | **gain** |" in text
        assert "failed operations: parent 0.0%, change 0.0%" in text

    def test_more_failures_than_the_parent_voids_the_gain(self, ab):
        judged = ab.judge(self.pairs(change_failed=1), self.METRICS)
        assert judged["run_s"][1] == "regressed"

    def test_names_directions_and_bounds_come_from_the_manifest(self, ab):
        manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        for metric in manifest["end_to_end"]:
            assert {"name", "unit", "better", "bound"} <= set(metric)
            assert metric["better"] in ("lower", "higher")
        source = (REPO_ROOT / "tools" / "ab_pairs.py").read_text()
        assert "import e2e" not in source and "from e2e" not in source
