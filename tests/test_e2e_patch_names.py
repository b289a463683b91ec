"""The e2e tracer's patch names exist on the core of every built-in plane.

``benchmarks/e2e/e2e_layers.py::install`` wraps aggregation-core methods
by name, and its ``_patch_all`` silently skips a name the core lacks: a
renamed or deleted seam would drop out of the per-layer budget without
failing anything.  This builds the core of each built-in plane, checks
every name the tracer patches on it, and checks that ``install`` really
wrapped them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.api import (
    Deployment,
    ExecutionSpec,
    PlaneSpec,
    PopulationSpec,
    ScenarioSpec,
    TaskSpec,
)
from repro.system.planes import plane_names
from repro.system.secure import SecureBufferedAggregator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
from e2e_layers import Tracer, install  # noqa: E402

#: patched on every core
CORE_NAMES = (
    "register_download", "client_failed", "stale_clients",
    "drop_buffer_and_inflight", "drop_shard", "revive_shard",
    "receive_update", "_finalize_epoch",
)
#: the float cores' fold seams (``core.sharding`` shard_fold / root_merge)
FOLD_SEAMS = ("_fold_one", "_merge_shards")

#: case -> (task mode, plane)
CASES = {
    "single-async": ("async", PlaneSpec()),
    "single-sync": ("sync", PlaneSpec()),
    "sharded": ("async", PlaneSpec(name="sharded", num_shards=2)),
    "sharded-process": (
        "async", PlaneSpec(name="sharded", num_shards=2, executor="process"),
    ),
    "secure": ("async", PlaneSpec(name="secure")),
    "secure_sharded": ("async", PlaneSpec(name="secure_sharded", num_shards=2)),
    "secure_sharded-process": (
        "async",
        PlaneSpec(name="secure_sharded", num_shards=2, executor="process"),
    ),
}


def test_every_built_in_plane_is_covered():
    builtin = {"single", "sharded", "secure", "secure_sharded"}
    assert builtin <= set(plane_names())
    assert {plane.name for _, plane in CASES.values()} == builtin


@pytest.mark.parametrize("case", sorted(CASES))
def test_tracer_patch_names_exist_on_the_core(case):
    mode, plane = CASES[case]
    spec = ScenarioSpec(
        population=PopulationSpec(n_devices=50),
        tasks=(TaskSpec(name="t", mode=mode, concurrency=4, aggregation_goal=2),),
        plane=plane,
        execution=ExecutionSpec(seed=0, t_end_s=60.0),
    )
    sim = Deployment.from_spec(spec).build()
    core = sim.task_runtimes["t"].core
    tracer = Tracer()
    try:
        install(tracer, sim)
        patched = {attr for owner, attr, *_ in tracer._undo if owner is core}
    finally:
        tracer.restore()
        for rt in sim.task_runtimes.values():
            rt.close()

    missing = [name for name in CORE_NAMES if not hasattr(core, name)]
    assert not missing, f"{type(core).__name__} lacks {missing}"
    secure = isinstance(core, SecureBufferedAggregator)
    assert secure == plane.name.startswith("secure")
    if secure:
        assert set(CORE_NAMES) <= patched
    else:
        assert set(CORE_NAMES) - {"_finalize_epoch"} <= patched
    if mode == "async" and not secure:
        assert set(FOLD_SEAMS) <= patched
