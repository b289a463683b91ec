"""The model-state contract: one immutable snapshot per model version.

``current()`` hands every caller of one version the same read-only
array; ``apply`` binds a fresh array instead of writing into the old
one.  So a download costs no copy, a client that writes into its
download gets numpy's read-only error instead of silently owning a
private model, and an in-flight client keeps the exact bytes of the
version it downloaded.  The same contract holds for the real vector
under every server optimizer and for the surrogate's progress scalar;
the façade-level cases check that whole spec-built runs, on every plane
that moves a real model, actually share the buffers.
"""

import collections
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.api import Deployment, ScenarioSpec
from repro.core import FedBuffAggregator
from repro.core.server_opt import FedAdam, FedAvgM, FedSGD, ServerOptimizer
from repro.core.state import GlobalModelState
from repro.core.surrogate import SurrogateModelState
from repro.core.types import TrainingResult
from repro.sim.trace import Outcome
from repro.system.adapters import TrainerAdapter
from repro.system.client_runtime import ClientSession

N = 257

STATES = {
    "FedAdam": lambda: GlobalModelState(np.ones(N, np.float32), FedAdam(lr=0.1)),
    "FedSGD": lambda: GlobalModelState(np.ones(N, np.float32), FedSGD(lr=0.5)),
    "FedAvgM": lambda: GlobalModelState(np.ones(N, np.float32), FedAvgM(lr=0.5)),
    "surrogate": SurrogateModelState,
}


@pytest.fixture(params=list(STATES))
def state(request):
    return STATES[request.param]()


def server_step(state, value=0.25):
    state.apply(np.full(state.size, value, dtype=np.float32), 3)


class TestAliasingContract:
    def test_one_version_is_one_read_only_buffer(self, state):
        first, second = state.current(), state.current()
        assert np.shares_memory(first, second)
        assert not first.flags.writeable and not second.flags.writeable
        server_step(state)
        assert np.shares_memory(state.current(), state.current())
        assert not state.current().flags.writeable

    def test_writing_to_a_download_raises(self, state):
        _, download = FedBuffAggregator(state, goal=2).register_download(7)
        before = download.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            download[0] = 123.0
        with pytest.raises(ValueError, match="read-only"):
            download += 1.0
        assert state.current().tobytes() == before

    def test_a_snapshot_keeps_its_bytes_across_later_versions(self, state):
        snapshot = state.current()
        frozen = snapshot.tobytes()
        for _ in range(3):
            server_step(state)
            assert not np.shares_memory(snapshot, state.current())
        assert snapshot.tobytes() == frozen
        assert state.current().tobytes() != frozen

    def test_every_download_of_a_version_is_the_same_object(self, state):
        agg = FedBuffAggregator(state, goal=2)
        downloads = [agg.register_download(cid)[1] for cid in range(5)]
        assert all(d is downloads[0] for d in downloads)
        for cid in range(2):
            agg.receive_update(TrainingResult(
                cid, np.full(state.size, 0.5, np.float32), 4, 0.0, 0))
        assert agg.version == 1
        assert agg.register_download(9)[1] is not downloads[0]
        assert agg.register_download(10)[1] is agg.register_download(11)[1]


class TestGlobalModelState:
    def test_constructor_copies_its_initial_argument(self):
        initial = np.ones(N, np.float32)
        state = GlobalModelState(initial, FedSGD())
        assert not np.shares_memory(initial, state.current())
        initial[:] = 7.0  # the caller's array stays theirs, and writeable
        assert np.array_equal(state.current(), np.ones(N, np.float32))

    def test_an_in_place_optimizer_fails_inside_numpy(self):
        class InPlace(ServerOptimizer):
            def apply(self, model, avg_delta):
                model += avg_delta
                return model

        state = GlobalModelState(np.ones(N, np.float32), InPlace())
        snapshot = state.current()
        with pytest.raises(ValueError, match="read-only"):
            server_step(state)
        assert state.current() is snapshot
        assert np.array_equal(snapshot, np.ones(N, np.float32))

    @pytest.mark.parametrize("alias", [lambda m: m, lambda m: m[:], lambda m: m[::2]],
                             ids=["itself", "full view", "strided view"])
    def test_a_result_sharing_the_outgoing_snapshot_is_rejected(self, alias):
        class Aliasing(ServerOptimizer):
            def apply(self, model, avg_delta):
                return alias(model)

        state = GlobalModelState(np.ones(N, np.float32), Aliasing())
        snapshot = state.current()
        with pytest.raises(ValueError, match="Aliasing.apply returned memory"):
            state.apply(np.zeros(N, np.float32), 1)
        assert state.current() is snapshot

    def test_delta_shape_is_still_checked(self):
        state = STATES["FedAdam"]()
        with pytest.raises(ValueError, match="shape mismatch"):
            state.apply(np.zeros(N + 1, np.float32), 1)


# -- through the façade -----------------------------------------------------------

LENGTH = 65_536


class RecordingAdapter(TrainerAdapter):
    """Zero-cost training over a real vector, noting what it was handed."""

    def __init__(self):
        self.state = GlobalModelState(np.zeros(LENGTH, np.float32), FedAdam(lr=0.05))
        self._row = np.full(LENGTH, 1e-3, dtype=np.float32)
        self.core = None  # set once the deployment is built
        self.buffers: dict[int, weakref.ref] = {}  # version -> first buffer seen
        self.calls = 0
        self.private_copies = 0
        self.excess_buffers = 0

    def train(self, profile, initial_model, initial_version, participation):
        self.calls += 1
        first = self.buffers.setdefault(initial_version, weakref.ref(initial_model))
        self.private_copies += first() is not initial_model
        live = sum(ref() is not None for ref in self.buffers.values())
        versions = {self.core.version, *self.core._in_flight.values()}
        self.excess_buffers = max(self.excess_buffers, live - len(versions))
        return TrainingResult(
            client_id=profile.device_id, delta=self._row,
            num_examples=profile.n_examples, train_loss=0.0,
            initial_version=initial_version,
        )

    def current_loss(self) -> float:
        return float(self.state.current()[0])


def wide_spec(plane: dict, concurrency: int = 40, steps: int = 10) -> ScenarioSpec:
    return ScenarioSpec.from_dict({
        "population": {"n_devices": 4000, "seed": 5},
        "tasks": [{"name": "train", "mode": "async", "concurrency": concurrency,
                   "aggregation_goal": 8, "model_size_bytes": 4 * LENGTH,
                   "trainer": "external"}],
        "plane": plane,
        "execution": {"seed": 5, "t_end_s": 600.0, "max_server_steps": steps},
    })


PLANES = {
    "single": {"name": "single"},
    "sharded-inline": {"name": "sharded", "num_shards": 2},
    "sharded-process": {"name": "sharded", "num_shards": 2, "executor": "process"},
    "secure_sharded": {"name": "secure_sharded", "num_shards": 2},
}


class TestSnapshotsThroughTheFacade:
    @pytest.mark.parametrize("plane", list(PLANES))
    def test_downloads_of_a_version_share_one_buffer(self, plane):
        adapter = RecordingAdapter()
        deployment = Deployment.from_spec(
            wide_spec(PLANES[plane]), adapters={"train": adapter})
        runtime = deployment.build().task_runtimes["train"]
        adapter.core = runtime.core
        try:
            result = deployment.run()
        finally:
            getattr(runtime, "close", lambda: None)()
        assert result.task_stats["train"].server_steps == 10
        # Trainings run when their upload is processed, so the adapter
        # trains exactly the 10 x 8 updates the steps aggregate.
        assert adapter.calls == 80 and len(adapter.buffers) > 5
        assert adapter.private_copies == 0
        # A buffer lives only while a client on its version is in flight.
        assert adapter.excess_buffers <= 0

    def test_a_run_holds_versions_not_one_model_per_client(self):
        concurrency = 80
        adapter = RecordingAdapter()
        deployment = Deployment.from_spec(
            wide_spec(PLANES["single"], concurrency, steps=15),
            adapters={"train": adapter})
        adapter.core = deployment.build().task_runtimes["train"].core
        gc.collect()
        tracemalloc.start()
        try:
            deployment.run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One private copy per training client would be concurrency x
        # 256 KiB = 20 MiB; shared snapshots are a handful of versions
        # plus the optimizer's four float64 vectors.
        assert adapter.calls > concurrency
        assert peak < concurrency * 4 * LENGTH / 2, peak

    def test_a_session_drops_its_snapshot_on_every_terminal_path(self, monkeypatch):
        """A dropped client is only *noticed* ``failure_detection_s`` later;
        it must not pin its model version (once shared: a whole stale
        version) until then, nor must a timed-out or aborted one."""
        held = collections.Counter()
        finish, dropped = ClientSession._finish, ClientSession._dropped

        def spy_finish(session, outcome, *args, **kwargs):
            held[outcome] += session.initial_model is not None
            return finish(session, outcome, *args, **kwargs)

        def spy_dropped(session):
            dropped(session)
            held["at the drop itself"] += session.initial_model is not None

        monkeypatch.setattr(ClientSession, "_finish", spy_finish)
        monkeypatch.setattr(ClientSession, "_dropped", spy_dropped)
        Deployment.from_spec(ScenarioSpec.from_dict({
            "population": {"n_devices": 3000, "seed": 1},
            "tasks": [{"name": "t", "mode": "async", "concurrency": 40,
                       "aggregation_goal": 8, "model_size_bytes": 1000,
                       "max_staleness": 8, "client_timeout_s": 30.0,
                       "trainer": "surrogate"}],
            "execution": {"seed": 1, "t_end_s": 600.0},
        })).run()
        assert {Outcome.AGGREGATED, Outcome.FAILED, Outcome.TIMEOUT,
                Outcome.ABORTED, "at the drop itself"} <= set(held)
        assert not +held  # no terminal path left a snapshot behind
