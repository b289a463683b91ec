"""Ablation benches for the design choices DESIGN.md calls out.

These go beyond the paper's figures: they vary the knobs the paper fixes
(staleness weighting policy, over-selection factor, max-staleness abort
threshold, K as a fraction of concurrency) and check the trade-offs the
paper's prose asserts.
"""


from repro.core import (
    ConstantStaleness,
    FedBuffAggregator,
    HardCutoffStaleness,
    PolynomialStaleness,
    SurrogateModelState,
    SurrogateParams,
    SurrogateTrainer,
)
from repro.api import Deployment
from repro.harness import SMOKE, async_scenario, make_population, sync_scenario
from repro.harness.report import print_table


class TestStalenessPolicyAblation:
    """Paper (Appendix E.2): down-weight stale updates by 1/sqrt(1+s)."""

    def test_policies_order_effective_weight(self, once, benchmark):
        def measure():
            # Feed one fresh and one very stale update through each policy
            # and compare the stale update's realized weight.
            results = {}
            for name, pol in (
                ("constant", ConstantStaleness()),
                ("polynomial", PolynomialStaleness(0.5)),
                ("hard_cutoff", HardCutoffStaleness(cutoff=5)),
            ):
                st = SurrogateModelState(SurrogateParams())
                agg = FedBuffAggregator(st, goal=1, staleness_policy=pol,
                                        example_weighting="none")
                tr = SurrogateTrainer(SurrogateParams(quality_noise=0.0))
                agg.register_download(0)  # will become stale
                for v in range(8):
                    agg.register_download(100 + v)
                    agg.receive_update(tr.train(50, 100 + v, v))
                upd, _ = agg.receive_update(tr.train(50, 0, 0))
                results[name] = upd.weight
            return results

        weights = once(measure)
        print_table(["policy", "weight of s=8 update"],
                    [[k, v] for k, v in weights.items()],
                    title="Ablation — staleness weighting policies")
        assert weights["constant"] == 1.0
        assert weights["polynomial"] == 1.0 / 3.0  # 1/sqrt(9)
        assert weights["hard_cutoff"] == 0.0
        benchmark.extra_info["weights"] = {k: round(v, 4) for k, v in weights.items()}


class TestOverSelectionAblation:
    """Round time vs wasted work as the over-selection factor grows."""

    def test_overselection_factor_tradeoff(self, once, benchmark):
        def sweep():
            pop = make_population(SMOKE.population, seed=0)
            rows = []
            for o in (0.0, 0.1, 0.3, 0.5):
                sim = Deployment.from_spec(
                    sync_scenario(16, pop, over_selection=o, seed=0), population=pop
                ).build()
                res = sim.run(t_end=3600.0)
                s = res.stats("sync")
                steps = s.server_steps
                waste = s.discarded / max(1, s.aggregated + s.discarded)
                rows.append((o, steps, waste))
            return rows

        rows = once(sweep)
        print_table(["over-selection", "rounds/h", "wasted fraction"],
                    [list(r) for r in rows],
                    title="Ablation — over-selection factor")
        factors = [r[0] for r in rows]
        steps = [r[1] for r in rows]
        waste = [r[2] for r in rows]
        # More over-selection completes rounds faster...
        assert steps[-1] > steps[0], "over-selection must speed rounds up"
        # ...at the price of monotonically more wasted client work.
        assert all(a <= b + 0.02 for a, b in zip(waste, waste[1:]))
        # Without over-selection only mid-round replacements can be
        # discarded (a failed client's stand-in racing the round close).
        assert waste[0] < 0.01
        assert waste[-1] > 0.2  # o=0.5 wastes ~a third of all updates
        benchmark.extra_info["rounds_per_hour"] = dict(zip(factors, steps))
        benchmark.extra_info["wasted_fraction"] = {
            f: round(w, 3) for f, w in zip(factors, waste)
        }


class TestMaxStalenessAblation:
    """Appendix E.1: abort clients whose staleness exceeds a bound."""

    def test_staleness_bound_tradeoff(self, once, benchmark):
        def sweep():
            pop = make_population(SMOKE.population, seed=0)
            rows = []
            for bound in (1, 4, 1000):
                sim = Deployment.from_spec(
                    async_scenario(32, 4, pop, seed=0, max_staleness=bound),
                    population=pop,
                ).build()
                res = sim.run(t_end=3600.0)
                s = res.stats("async")
                rows.append((bound, s.aborted, s.mean_staleness, s.aggregated))
            return rows

        rows = once(sweep)
        print_table(["max staleness", "aborted", "mean staleness", "aggregated"],
                    [list(r) for r in rows],
                    title="Ablation — max-staleness abort threshold")
        aborted = [r[1] for r in rows]
        mean_stal = [r[2] for r in rows]
        # Tighter bounds abort more clients and keep aggregated updates fresher.
        assert aborted[0] > aborted[-1]
        assert mean_stal[0] < mean_stal[-1]
        assert aborted[-1] == 0  # effectively unbounded
        benchmark.extra_info["rows"] = [
            {"bound": b, "aborted": a, "mean_staleness": round(m, 2)}
            for b, a, m, _ in rows
        ]


class TestGoalFractionAblation:
    """Paper (Section 7.1): K at 10–30 % of concurrency works well."""

    def test_goal_fraction_sweet_spot(self, once, benchmark):
        def sweep():
            pop = make_population(SMOKE.population, seed=0)
            params = SurrogateParams(critical_goal=SMOKE.critical_goal)
            rows = []
            for frac in (0.05, 0.15, 0.5, 1.0):
                goal = max(1, int(32 * frac))
                sim = Deployment.from_spec(
                    async_scenario(32, goal, pop, seed=0, surrogate=params),
                    population=pop,
                ).build()
                res = sim.run(t_end=3600.0 * 6, target_loss=2.55)
                t = res.stats("async").time_to_target
                rows.append((frac, goal, None if t is None else t / 3600.0))
            return rows

        rows = once(sweep)
        print_table(["K/C", "K", "hours to target"],
                    [[f, g, "n/a" if h is None else h] for f, g, h in rows],
                    title="Ablation — aggregation goal as fraction of concurrency")
        hours = {f: h for f, _, h in rows if h is not None}
        # The paper's 10-30% band must beat goal == concurrency.
        assert hours[0.15] < hours[1.0]
        benchmark.extra_info["hours_by_fraction"] = {
            f: round(h, 3) for f, h in hours.items()
        }
