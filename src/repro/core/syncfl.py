"""Synchronous FL rounds with over-selection — the paper's baseline.

SyncFL proceeds in rounds (Figure 1): a cohort of ``goal × (1 + o)``
clients trains in parallel (``o`` = over-selection fraction, 0.3 in the
paper, following Bonawitz et al. 2019); once ``goal`` updates arrive, they
are averaged, the server model is updated, and *the updates of the
remaining (slow) clients are discarded* — the source of the sampling bias
the paper quantifies in Section 7.4.

PAPAYA's SyncFL implementation additionally supports mid-round client
replacement (Figure 1 caption): when a client fails mid-round, a new one
can take its place — unlike GFL, where a failed client can doom a round.

The core runs the same :class:`repro.core.fedbuff.AggregationCore`
protocol as FedBuff, so the system layer treats both modes uniformly (the
paper's point that switching between SyncFL and AsyncFL is a
configuration change, Appendix E.3).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.fedbuff import AggregationCore, ServerStepInfo
from repro.core.types import ModelUpdate, TrainingResult

__all__ = ["SyncRoundAggregator"]


class SyncRoundAggregator(AggregationCore):
    """Round-based aggregation with over-selection discard.

    Mid-round joins are allowed — this is PAPAYA's client-replacement
    capability; a replacement simply trains on the current round's model.

    Parameters
    ----------
    state:
        Model state (see :mod:`repro.core.state`).
    goal:
        Updates aggregated per round ("aggregation goal").
    over_selection:
        Fraction of extra clients selected per round; their late updates
        are discarded.  The *cohort size* is ``ceil(goal * (1 + o))``.
    example_weighting:
        ``"linear"`` (FedAvg example weighting, default), ``"log"``,
        or ``"none"``.
    """

    def __init__(
        self,
        state,
        goal: int,
        over_selection: float = 0.0,
        example_weighting: str = "linear",
    ):
        super().__init__(state, goal, example_weighting)
        if not (0.0 <= over_selection < 1.0):
            raise ValueError("over_selection must be in [0, 1)")
        self.over_selection = over_selection
        self.updates_discarded = 0

    @property
    def cohort_size(self) -> int:
        """Clients trained per round including over-selection."""
        return math.ceil(self.goal * (1.0 + self.over_selection))

    def demand(self) -> int:
        """Clients the round still wants: cohort size minus in-flight.

        This implements the paper's SyncFL client-demand formula
        (Appendix E.3): demand is high at round start and shrinks as
        clients report.
        """
        outstanding = self.goal - self.buffered_count
        want = math.ceil(outstanding * (1.0 + self.over_selection))
        return max(0, want - len(self._in_flight))

    # -- aggregation ------------------------------------------------------------

    def _admit(self, result: TrainingResult) -> ModelUpdate:
        """Weigh one current-round update (sync rounds have no staleness).

        An update from a stale round (the client started before the last
        server step) is *discarded* — that is over-selection's waste, and
        it is counted in :attr:`updates_discarded`.
        """
        if self._take(result) != self.version:
            # Late arrival from a closed round: discarded, never aggregated.
            self.updates_discarded += 1
            return ModelUpdate(result=result, arrival_version=self.version, weight=0.0)
        weight = self._example_weight(result.num_examples)
        self._record(result.client_id, weight, 0)
        return ModelUpdate(result=result, arrival_version=self.version, weight=weight)

    def _server_step(self) -> ServerStepInfo:
        avg = self._buffer / self._weight_sum if self._weight_sum > 0 else np.zeros_like(self._buffer)
        # Everyone still training is aborted and their effort wasted —
        # "once the aggregation goal is achieved, updates from other
        # devices still processing are discarded" (Figure 1 caption).
        aborted = tuple(self._in_flight)
        self.updates_discarded += len(aborted)
        self._in_flight.clear()
        return self._apply_step(avg.astype(np.float32), self._weight_sum, aborted)

    def __repr__(self) -> str:
        return (
            f"SyncRoundAggregator(goal={self.goal}, o={self.over_selection}, "
            f"round={self.version}, received={self.buffered_count}, "
            f"in_flight={len(self._in_flight)})"
        )
