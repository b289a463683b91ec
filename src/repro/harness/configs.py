"""Canonical experiment constants and scaling presets.

The paper's headline numbers come from ~100 M devices with concurrency up
to 2600 and aggregation goals up to 1300.  The harness regenerates every
figure at a configurable scale: ``PAPER`` mirrors the published operating
points (slow — minutes per figure), ``DEFAULT`` divides client counts by
10 (the shapes are scale-free), and ``SMOKE`` divides by ~40 for CI and
pytest-benchmark runs.

Scaling divides concurrency/goals but keeps the *ratios* the paper fixes:
30 % over-selection, K ≈ 8–10 % of concurrency for the headline async
configuration, timeout at 4 simulated minutes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.surrogate import SurrogateParams

__all__ = ["Scale", "PAPER", "DEFAULT", "SMOKE",
           "OVER_SELECTION", "CLIENT_TIMEOUT_S", "MODEL_BYTES_20MB"]

OVER_SELECTION = 0.3          # Bonawitz et al. 2019, used throughout the paper
CLIENT_TIMEOUT_S = 240.0      # "we set the timeout to 4 minutes"
MODEL_BYTES_20MB = 20 * 1024 * 1024  # Figure 6's model size


@dataclass(frozen=True)
class Scale:
    """One scaling preset.

    Attributes
    ----------
    name:
        Preset label used in printed reports.
    base_concurrency:
        The paper's headline 1300, scaled.
    base_goal:
        The paper's headline K=100, scaled.
    concurrency_sweep:
        The Figure 3/8/9 sweep (paper: 130…2600), scaled.
    goal_sweep:
        The Figure 10 sweep (paper: 100…1300), scaled.
    population:
        Device-population size to simulate against.
    sim_hours:
        Default simulated-time horizon per run.
    critical_goal:
        ``K_c`` of the surrogate convergence model, scaled with the goal
        sweep so the large-cohort effect sits at the same *relative*
        position as in the paper (K_c ≈ 3× the headline K).
    """

    name: str
    base_concurrency: int
    base_goal: int
    concurrency_sweep: tuple[int, ...]
    goal_sweep: tuple[int, ...]
    population: int
    sim_hours: float
    critical_goal: float = 300.0

    @property
    def sim_seconds(self) -> float:
        """Horizon in simulated seconds."""
        return self.sim_hours * 3600.0

    @property
    def surrogate(self) -> SurrogateParams:
        """The surrogate convergence model's calibration at this scale."""
        return SurrogateParams(critical_goal=self.critical_goal)


PAPER = Scale(
    name="paper",
    base_concurrency=1300,
    base_goal=100,
    concurrency_sweep=(130, 260, 650, 1300, 2600),
    goal_sweep=(100, 200, 400, 700, 1000, 1300),
    population=500_000,
    sim_hours=24.0,
    critical_goal=300.0,
)

DEFAULT = Scale(
    name="default",
    base_concurrency=130,
    base_goal=10,
    concurrency_sweep=(13, 26, 65, 130, 260),
    goal_sweep=(10, 20, 40, 70, 100, 130),
    population=50_000,
    sim_hours=8.0,
    critical_goal=30.0,
)

SMOKE = Scale(
    name="smoke",
    base_concurrency=32,
    base_goal=4,
    concurrency_sweep=(8, 16, 32, 64),
    goal_sweep=(4, 8, 16, 32),
    population=10_000,
    sim_hours=3.0,
    critical_goal=10.0,
)
