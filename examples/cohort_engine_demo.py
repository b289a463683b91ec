"""Batched cohort engine, end to end without the simulator.

A training loop with no simulated time: whole cohorts train through
``CohortTrainer`` (one batched LSTM pass over the cohort), and each
client's update then enters FedBuff through ``receive_update`` — the one
admission path every aggregation core has, exactly as each upload does
inside a simulation.

It also double-checks the equivalence guarantee on the way: the batched
pipeline must reproduce the scalar ``LocalTrainer`` pipeline's model
trajectory.

Run with: PYTHONPATH=src python examples/cohort_engine_demo.py
"""

import time

import numpy as np

from repro.core import CohortRequest, CohortTrainer, FedBuffAggregator, LocalTrainer
from repro.core.server_opt import FedAdam
from repro.core.state import GlobalModelState
from repro.data import CorpusSpec, FederatedDataset, TopicMarkovCorpus
from repro.nn import LSTMLanguageModel, ModelConfig

COHORT = 16
ROUNDS = 6
SEED = 0


def build():
    model_cfg = ModelConfig(vocab_size=24, embed_dim=8, hidden_dim=16)
    corpus = TopicMarkovCorpus(
        CorpusSpec(vocab_size=24, seq_len=10, reference_examples=24.0), seed=SEED
    )
    dataset = FederatedDataset(corpus)
    model = LSTMLanguageModel(model_cfg, seed=SEED)
    state = GlobalModelState(model.get_flat(), FedAdam(lr=0.05))
    agg = FedBuffAggregator(state, goal=COHORT, example_weighting="linear")
    return model_cfg, dataset, agg


def run_batched():
    """Cohorts through the batched trainer, then one upload at a time."""
    model_cfg, dataset, agg = build()
    trainer = CohortTrainer(model_cfg, lr=1.0, batch_size=8, seed=SEED)
    start = time.perf_counter()
    for rnd in range(ROUNDS):
        requests = []
        for i in range(COHORT):
            cid = rnd * COHORT + i
            version, vec = agg.register_download(cid)
            requests.append(
                CohortRequest(vec, dataset.client_dataset(cid, 12 + cid % 30), version)
            )
        results = trainer.train_cohort(requests)
        step = [agg.receive_update(result)[1] for result in results][-1]
        assert step is not None, "a full cohort must close a server step"
        mean_loss = float(np.mean([r.train_loss for r in results]))
        print(f"  round {rnd}: version={step.version} "
              f"weight={step.total_weight:8.1f} mean client loss={mean_loss:.3f}")
    return agg.state.current(), time.perf_counter() - start


def run_scalar():
    """The same schedule through the scalar trainer, one update at a time."""
    model_cfg, dataset, agg = build()
    trainer = LocalTrainer(model_cfg, lr=1.0, batch_size=8, seed=SEED)
    start = time.perf_counter()
    for rnd in range(ROUNDS):
        for i in range(COHORT):
            cid = rnd * COHORT + i
            version, vec = agg.register_download(cid)
            result = trainer.train(
                vec, dataset.client_dataset(cid, 12 + cid % 30), version
            )
            agg.receive_update(result)
    return agg.state.current(), time.perf_counter() - start


def main():
    print(f"FedBuff, {ROUNDS} server steps x {COHORT}-client cohorts, no simulator")
    print("batched pipeline (CohortTrainer + receive_update):")
    batched_vec, batched_s = run_batched()
    print("scalar pipeline (LocalTrainer + receive_update) ... ", end="", flush=True)
    scalar_vec, scalar_s = run_scalar()
    print("done")
    drift = float(np.max(np.abs(batched_vec - scalar_vec)))
    print(f"\nscalar {scalar_s*1e3:.0f} ms vs batched {batched_s*1e3:.0f} ms "
          f"-> {scalar_s / batched_s:.2f}x speedup")
    print(f"max |model divergence| after {ROUNDS} steps: {drift:.2e}")
    assert drift <= 1e-6, "batched pipeline diverged from the scalar reference"


if __name__ == "__main__":
    main()
