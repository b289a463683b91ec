"""Known answers for the one-shard FedBuff and secure cores.

A fixed seeded arrival stream — downloads ahead of uploads (so later
arrivals are stale), one ``drop_shard(0)``/``revive_shard(0)`` in the
middle of an epoch, clients registered both before and after the crash
— is fed through :class:`~repro.core.fedbuff.FedBuffAggregator` and
:class:`~repro.system.secure.SecureBufferedAggregator` at one shard,
one arrival at a time.  The final model
bytes (sha256), every ``step_history`` record and the secure core's
boundary-byte meters are pinned as recorded values: they are the S = 1
reference the differential suites compare the sharded cores against,
so a refactor of the cores must reproduce them bit for bit.

``python tests/test_core_known_answers.py`` prints the current values
in the literal form used below.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import FedAdam, FedBuffAggregator, GlobalModelState, TrainingResult
from repro.system.secure import SecureBufferedAggregator

L = 16
GOAL = 4


def _state() -> GlobalModelState:
    init = np.random.default_rng(7).standard_normal(L).astype(np.float32)
    return GlobalModelState(init, FedAdam(lr=0.05))


def _core(kind: str):
    if kind == "fedbuff":
        return FedBuffAggregator(_state(), GOAL, max_staleness=3)
    return SecureBufferedAggregator(_state(), GOAL, L, max_staleness=3, seed=5)


def _results(rng, agg, clients):
    return [
        TrainingResult(
            client_id=cid,
            delta=(0.1 * rng.standard_normal(L)).astype(np.float32),
            num_examples=int(rng.integers(1, 40)),
            train_loss=1.0,
            initial_version=agg._in_flight[cid],
        )
        for cid in clients
    ]


def _deliver(agg, results) -> None:
    for result in results:
        agg.receive_update(result)


def drive(kind: str):
    """Run the fixed stream; returns (model sha256, steps, meters)."""
    rng = np.random.default_rng(20261019)
    agg = _core(kind)
    for cid in range(10):
        agg.register_download(cid)
    _deliver(agg, _results(rng, agg, [3, 1, 4, 0, 5, 9]))  # one step + 2
    # Mid-epoch crash of the one shard: its 2 buffered updates and the
    # in-flight clients 2, 6, 7, 8 are lost; the shard comes back empty.
    lost, dropped = agg.drop_shard(0)
    assert (lost, sorted(dropped)) == (2, [2, 6, 7, 8])
    agg.revive_shard(0)
    for cid in range(10, 22):
        agg.register_download(cid)
    _deliver(agg, _results(rng, agg, [12, 10, 15, 11, 14, 13, 17]))
    for cid in agg.stale_clients():
        agg.client_failed(cid)
    for cid in range(22, 30):
        agg.register_download(cid)
    _deliver(agg, _results(rng, agg, [22, 16, 25, 18, 23, 21, 29, 24, 27]))
    model = hashlib.sha256(np.ascontiguousarray(agg.state.current()).tobytes())
    steps = [dataclasses.astuple(s) for s in agg.step_history]
    meters = (
        (agg.boundary_bytes_in_total, agg.boundary_bytes_out_total)
        if kind == "secure" else None
    )
    return model.hexdigest(), steps, meters


# Recorded while the unsharded and the sharded cores were still separate
# classes.
_FEDBUFF_MODEL = "155f67fa1d3e71965cf4032aa4954d138a4618f4fdce757f62f5ce964f375556"
_FEDBUFF_STEPS = [
    (1, 4, 92.0, 0.0, 0, (3, 1, 4, 0), ()),
    (2, 4, 101.0, 0.0, 0, (12, 10, 15, 11), ()),
    (3, 4, 32.798989873223334, 0.75, 1, (14, 13, 17, 22), ()),
    (4, 4, 63.28244885281437, 1.5, 2, (16, 25, 18, 23), ()),
    (5, 4, 45.98631561299829, 2.25, 3, (21, 29, 24, 27), ()),
]
_SECURE_MODEL = "f702fe9149f6761ad70f8aa377fdb13088986589b1786ea34797e2f4db83404a"
_SECURE_STEPS = [
    (1, 4, 92.0, 0.0, 0, (3, 1, 4, 0), ()),
    (2, 4, 101.0, 0.0, 0, (12, 10, 15, 11), ()),
    (3, 4, 32.8125, 0.75, 1, (14, 13, 17, 22), ()),
    (4, 4, 63.28125, 1.5, 2, (16, 25, 18, 23), ()),
    (5, 4, 45.984375, 2.25, 3, (21, 29, 24, 27), ()),
]
_SECURE_METERS = (6240, 7680)

KNOWN = {
    "fedbuff": (_FEDBUFF_MODEL, _FEDBUFF_STEPS, None),
    "secure": (_SECURE_MODEL, _SECURE_STEPS, _SECURE_METERS),
}


@pytest.mark.parametrize("kind", ["fedbuff", "secure"])
def test_one_shard_core_known_answer(kind):
    assert drive(kind) == KNOWN[kind]


if __name__ == "__main__":
    for kind in ("fedbuff", "secure"):
        print(kind, drive(kind))
