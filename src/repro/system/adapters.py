"""Trainer adapters: what "a client trains" means for a simulated task.

Two interchangeable backends plug into the system layer:

* :class:`RealTrainingAdapter` — clients run actual NumPy-LSTM SGD on
  their synthetic local data; the loss curve is measured on a pooled
  held-out test set.  Used for the fidelity experiments (Table 1) and the
  examples.
* :class:`SurrogateAdapter` — clients produce analytic update-quality
  scalars and the loss comes from the calibrated convergence model.  Used
  for the fleet-scale wall-clock experiments (Figures 3, 7–10, 12, 13),
  where the system behaviour (timing, staleness, bias) is under test, not
  the gradient math.

Both expose the model-state object the aggregation cores drive, a
``train`` method, and a ``current_loss``.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.client_trainer import LocalTrainer
from repro.core.cohort import CohortRequest, CohortTrainer
from repro.core.state import GlobalModelState
from repro.core.surrogate import SurrogateModelState, SurrogateParams, SurrogateTrainer
from repro.core.types import TrainingResult
from repro.data.federated import FederatedDataset
from repro.sim.population import DeviceProfile

__all__ = ["TrainerAdapter", "SurrogateAdapter", "RealTrainingAdapter"]


class TrainerAdapter(abc.ABC):
    """Backend contract for the system layer.

    A result must be a pure function of ``train``'s arguments: the
    dispatcher calls it late (when the upload is processed), in batches
    through :meth:`train_cohort`, and never for an aborted session.
    """

    #: the model-state object the aggregation core mutates
    state: object

    @abc.abstractmethod
    def train(
        self,
        profile: DeviceProfile,
        initial_model: np.ndarray,
        initial_version: int,
        participation: int,
    ) -> TrainingResult:
        """Produce one client's training result.

        ``initial_model`` is the downloaded version's snapshot: read-only
        and shared with every other client on that version (see
        :mod:`repro.core.state`) — copy it before training in place.
        """

    def train_cohort(
        self,
        profiles: list[DeviceProfile],
        initial_models: list[np.ndarray],
        initial_versions: list[int],
        participations: list[int],
    ) -> list[TrainingResult]:
        """Produce a whole cohort's training results (aligned with inputs).

        The default loops over :meth:`train`; backends with a vectorized
        engine (see :class:`RealTrainingAdapter`) override it with a
        genuinely batched implementation.
        """
        return [
            self.train(profile, model, version, participation)
            for profile, model, version, participation in zip(
                profiles, initial_models, initial_versions, participations
            )
        ]

    @abc.abstractmethod
    def current_loss(self) -> float:
        """Loss of the current server model (for the training curve)."""

    @property
    def recommended_example_weighting(self) -> str:
        """Example-weighting mode the aggregation core should use."""
        return "linear"

    @property
    def recommended_normalization(self) -> str:
        """Buffer normalization the aggregation core should use."""
        return "weight_sum"


class SurrogateAdapter(TrainerAdapter):
    """Analytic convergence backend (see :mod:`repro.core.surrogate`).

    Uses weight-as-magnitude semantics: staleness weights scale each
    update's contribution directly (``normalize_by="goal"``), matching
    the original FedBuff formulation.
    """

    def __init__(self, params: SurrogateParams | None = None, seed: int = 0):
        self.params = params or SurrogateParams()
        self.state = SurrogateModelState(self.params)
        self.trainer = SurrogateTrainer(self.params, seed=seed)

    def train(
        self,
        profile: DeviceProfile,
        initial_model: np.ndarray,
        initial_version: int,
        participation: int,
    ) -> TrainingResult:
        return self.trainer.train(
            num_examples=profile.n_examples,
            client_id=profile.device_id,
            initial_version=initial_version,
            participation=participation,
        )

    def current_loss(self) -> float:
        return self.state.loss()

    @property
    def recommended_example_weighting(self) -> str:
        return "none"  # example count already enters through update quality

    @property
    def recommended_normalization(self) -> str:
        return "goal"


class RealTrainingAdapter(TrainerAdapter):
    """Real NumPy-LSTM training backend.

    Parameters
    ----------
    trainer:
        Shared local-SGD workspace.
    dataset:
        The federation; each client's data is materialized on demand with
        the example count from its device profile.
    state:
        Real model state (vector + server optimizer).
    eval_clients:
        Device ids whose held-out test splits form the pooled evaluation
        batch.
    eval_examples:
        Example count assumed for the eval clients' datasets.
    eval_every:
        Recompute the loss every this many server versions (evaluation is
        the expensive part of real-mode runs).
    """

    def __init__(
        self,
        trainer: LocalTrainer,
        dataset: FederatedDataset,
        state: GlobalModelState,
        eval_clients: list[int],
        eval_examples: list[int],
        eval_every: int = 1,
    ):
        if eval_every < 1:
            raise ValueError("eval_every must be at least 1")
        self.trainer = trainer
        self.dataset = dataset
        self.state = state
        self.eval_every = eval_every
        # The batched engine shares every hyperparameter with the scalar
        # trainer (bit-equivalent by construction), so it is derived.
        self.cohort_trainer = CohortTrainer(
            trainer.model_config,
            lr=trainer.lr,
            batch_size=trainer.batch_size,
            epochs=trainer.epochs,
            clip_norm=trainer.clip_norm,
            seed=trainer.seed,
        )
        self._eval_x, self._eval_y = dataset.evaluation_batch(
            eval_clients, eval_examples
        )
        self._last_eval_version = -1
        self._last_loss = float("inf")
        self._versions_seen = 0

    def train(
        self,
        profile: DeviceProfile,
        initial_model: np.ndarray,
        initial_version: int,
        participation: int,
    ) -> TrainingResult:
        ds = self.dataset.client_dataset(profile.device_id, profile.n_examples)
        return self.trainer.train(initial_model, ds, initial_version, participation)

    def train_cohort(
        self,
        profiles: list[DeviceProfile],
        initial_models: list[np.ndarray],
        initial_versions: list[int],
        participations: list[int],
    ) -> list[TrainingResult]:
        """Run the whole cohort through the batched LSTM engine."""
        requests = [
            CohortRequest(
                initial_model=model,
                dataset=self.dataset.client_dataset(
                    profile.device_id, profile.n_examples
                ),
                initial_version=version,
                participation=participation,
            )
            for profile, model, version, participation in zip(
                profiles, initial_models, initial_versions, participations
            )
        ]
        return self.cohort_trainer.train_cohort(requests)

    def current_loss(self) -> float:
        self._versions_seen += 1
        if (
            self._last_eval_version < 0
            or self._versions_seen - self._last_eval_version >= self.eval_every
        ):
            self._last_loss = self.trainer.evaluate(
                self.state.current(), self._eval_x, self._eval_y
            )
            self._last_eval_version = self._versions_seen
        return self._last_loss

    def perplexity_for_clients(
        self, client_ids: list[int], n_examples: list[int], max_per_client: int = 8
    ) -> float:
        """Test perplexity of the current model on specific clients' data.

        This is the Table 1 measurement: perplexity for clients in a
        given data-volume percentile band.
        """
        x, y = self.dataset.evaluation_batch(
            client_ids, n_examples, max_per_client=max_per_client
        )
        return self.trainer.evaluate_perplexity(self.state.current(), x, y)
