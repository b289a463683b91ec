"""Known answers for the whole SecAgg protocol, submitted per arrival.

The primitive known answers (``test_secagg_kat.py``) pin the bytes on the
wire; these pin what the protocol makes of them.  Each case stands a
deployment up with :func:`~repro.secagg.protocol.build_deployment`,
submits one client at a time through ``SecAggServer.submit`` — one of
them after a check-in-time ``complete_checkin`` — interleaves a tampered
sealed seed and a reused leg, and releases once.  The recorded values are
the sha256 of the TSA's released unmask and of the decoded aggregate, the
boundary meters after each hostile submission and after the release, and
the acceptance flags.  Group arithmetic is exact mod 2^bits, so any
reordering of the folds behind ``submit``/``finalize`` must reproduce
every value here.
"""

import hashlib

import numpy as np
import pytest

from repro.secagg import SecAggClient, build_deployment
from repro.secagg.threat import flip_sealed_ciphertext_bit
from repro.utils import child_rng

LENGTH = 37  # odd: the 32-bit mask draw ends on half a 64-bit word
CLIENTS = 5
WEIGHTS = [3, 0, 1, 7, 2]  # one zero weight: it must contribute nothing

KNOWN = {
    (32, False): {
        "flags": [True, True, False, True, False, True, True],
        "tampered_meters": (936, 1408),
        "reused_meters": (1560, 1408),
        "unmask_sha256": "200c2bb04a3b366a80770cef367284d1f2b79813d9ab3b8c121565f788aa8e3a",
        "aggregate_sha256": "cb684e05916b00f96fad4ea1b0c07d6aca297ab59efd4560ab0a6a1dc2dea142",
        "meters": (2184, 2964),
    },
    (32, True): {
        "flags": [True, True, False, True, False, True, True],
        "tampered_meters": (936, 1408),
        "reused_meters": (1560, 1408),
        "unmask_sha256": "3082ba67f204b8843b510e3616cf9980076d1edea1accdc2861a48c1521e7d89",
        "aggregate_sha256": "bc42fa68895e3a10f6ad723bb507c630a9f36e6c42e2cff59c744494610cbbc7",
        "meters": (2184, 2964),
    },
    (33, False): {
        "flags": [True, True, False, True, False, True, True],
        "tampered_meters": (936, 1408),
        "reused_meters": (1560, 1408),
        "unmask_sha256": "ab695d98ff903fb08a9a3f28968d3a56ca4b6b1585037e5e27b3198bfa654802",
        "aggregate_sha256": "ec1076412e94e96f95b4f8db12be14a877833ffb09f847e854ee215f1e2fb1ac",
        "meters": (2184, 3112),
    },
    (33, True): {
        "flags": [True, True, False, True, False, True, True],
        "tampered_meters": (936, 1408),
        "reused_meters": (1560, 1408),
        "unmask_sha256": "c4bb8668bcfab75d94a40608e17a39fa9c9912ec48f7ab5e07adfb18e43720b6",
        "aggregate_sha256": "e568d777e5604e0940f178aad4327cf016f048cb3f38e6c773482c94378a9458",
        "meters": (2184, 3112),
    },
    (64, False): {
        "flags": [True, True, False, True, False, True, True],
        "tampered_meters": (936, 1408),
        "reused_meters": (1560, 1408),
        "unmask_sha256": "3aec67963a4c240e6ca27bd13e43310c07d5b5fe22b7cc9cb2eca42420ce5585",
        "aggregate_sha256": "ff360d7e291d8b057d96bfd7e5cb99e5a4b66d9f3899ec0c4bf1766d945b4d97",
        "meters": (2184, 3112),
    },
    (64, True): {
        "flags": [True, True, False, True, False, True, True],
        "tampered_meters": (936, 1408),
        "reused_meters": (1560, 1408),
        "unmask_sha256": "e84212e58d89338926582842345cb480aca8dbeb314c255132199dad3544651e",
        "aggregate_sha256": "338db4a7412605b12183fb3fddd72ab2bba02f96a8962d9b556d1734d7cedc68",
        "meters": (2184, 3112),
    },
}


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def run_protocol(bits: int, weighted: bool) -> dict:
    """One round: five honest clients, a tampered and a reused-leg
    submission between them, one release."""
    dep = build_deployment(LENGTH, threshold=3, group_bits=bits, seed=bits)
    released = []
    release = dep.tsa.release_unmask

    def recording_release(weights=None):
        released.append(release(weights))
        return released[-1]

    dep.tsa.release_unmask = recording_release
    updates = child_rng(bits, "protocol-kat-updates").uniform(-1, 1, (CLIENTS, LENGTH))

    def participate(cid, leg):
        client = SecAggClient(
            cid, dep.codec, dep.authority, dep.tsa.binary_hash,
            dep.tsa.params_hash, child_rng(bits, "protocol-kat-client", cid),
        )
        return client.participate(updates[cid % CLIENTS], leg, dep.log_bundle)

    def meters():
        return dep.tsa.boundary_bytes_in, dep.tsa.boundary_bytes_out

    observed, flags, weight_map, legs = {}, [], {}, []
    for cid in range(CLIENTS):
        legs.append(dep.server.assign_leg())
        sub = participate(cid, legs[-1])
        if cid == 1:
            dep.server.complete_checkin(sub)  # channel key cached at check-in
        flags.append(dep.server.submit(sub))
        weight_map[sub.leg_index] = WEIGHTS[cid]
        if cid == 1:
            tampered = participate(11, dep.server.assign_leg())
            flags.append(dep.server.submit(flip_sealed_ciphertext_bit(tampered, bit=5)))
            observed["tampered_meters"] = meters()
        if cid == 2:
            # A second client completing client 0's already-consumed leg.
            flags.append(dep.server.submit(participate(12, legs[0])))
            observed["reused_meters"] = meters()
    aggregate = dep.server.finalize(weights=weight_map if weighted else None)
    (unmask,) = released
    observed.update(
        flags=flags,
        unmask_sha256=_sha256(unmask),
        aggregate_sha256=_sha256(aggregate),
        meters=meters(),
    )
    assert dep.server.accepted_count == dep.tsa.processed_count == CLIENTS
    expected = (np.array(WEIGHTS) if weighted else np.ones(CLIENTS)) @ updates
    np.testing.assert_allclose(aggregate, expected, atol=1e-3)
    return observed


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("bits", [32, 33, 64])
def test_protocol_known_answers(bits, weighted):
    assert run_protocol(bits, weighted) == KNOWN[(bits, weighted)]
