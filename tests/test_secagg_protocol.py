"""End-to-end tests of the Asynchronous SecAgg protocol (Figure 16)."""

import numpy as np
import pytest

from repro.secagg import (
    AttestationError,
    BoundaryCostModel,
    LogBundle,
    ProtocolError,
    SecAggClient,
    VerifiableLog,
    build_deployment,
    run_secure_aggregation,
)
from repro.utils import child_rng


def make_updates(n, length, seed=0, scale=1.0):
    rng = child_rng(seed, "updates")
    return [rng.uniform(-scale, scale, length) for _ in range(n)]


class TestEndToEnd:
    def test_sum_correct(self):
        updates = make_updates(5, 64)
        agg, _ = run_secure_aggregation(updates)
        np.testing.assert_allclose(agg, np.sum(updates, axis=0), atol=1e-3)

    def test_single_client(self):
        updates = make_updates(1, 16)
        agg, _ = run_secure_aggregation(updates)
        np.testing.assert_allclose(agg, updates[0], atol=1e-3)

    def test_many_clients(self):
        updates = make_updates(50, 32)
        agg, _ = run_secure_aggregation(updates)
        np.testing.assert_allclose(agg, np.sum(updates, axis=0), atol=5e-3)

    def test_weighted_aggregation(self):
        updates = make_updates(4, 16)
        weights = [1, 2, 3, 10]
        agg, _ = run_secure_aggregation(updates, weights=weights)
        expected = np.sum([w * u for w, u in zip(weights, updates)], axis=0)
        np.testing.assert_allclose(agg, expected, atol=0.02)

    def test_zero_weight_client_excluded(self):
        updates = [np.ones(8), np.full(8, 100.0)]
        agg, _ = run_secure_aggregation(
            updates, weights=[1, 0], clip_value=128.0, scale=2**8
        )
        np.testing.assert_allclose(agg, np.ones(8), atol=0.05)

    def test_server_never_sees_plaintext(self):
        updates = make_updates(3, 32)
        _, dep = run_secure_aggregation(updates)
        for sub, upd in zip(dep.server.accepted_submissions, updates):
            decoded = dep.codec.decode(sub.masked_update)
            assert not np.allclose(decoded, upd, atol=0.1)

    def test_boundary_traffic_is_constant_per_client(self):
        # O(K + m): TEE input bytes must not scale with the model size.
        small, _ = run_secure_aggregation(make_updates(4, 8))
        big, dep_big = run_secure_aggregation(make_updates(4, 4096))
        # (re-run small to fetch its deployment)
        _, dep_small = run_secure_aggregation(make_updates(4, 8))
        assert dep_big.tsa.boundary_bytes_in == dep_small.tsa.boundary_bytes_in

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            run_secure_aggregation([])
        with pytest.raises(ValueError):
            run_secure_aggregation([np.zeros(4), np.zeros(5)])
        with pytest.raises(ValueError):
            run_secure_aggregation([np.zeros(4)], weights=[1, 2])


class TestThresholdSemantics:
    def test_unmask_blocked_below_threshold(self):
        dep = build_deployment(vector_length=8, threshold=3)
        client = SecAggClient(0, dep.codec, dep.authority, dep.tsa.binary_hash,
                              dep.tsa.params_hash, child_rng(0, "c0"))
        leg = dep.server.assign_leg()
        dep.server.submit(client.participate(np.zeros(8), leg))
        with pytest.raises(ProtocolError, match="threshold"):
            dep.server.finalize()

    def test_unmask_released_at_threshold(self):
        dep = build_deployment(vector_length=8, threshold=2)
        for i in range(2):
            c = SecAggClient(i, dep.codec, dep.authority, dep.tsa.binary_hash,
                             dep.tsa.params_hash, child_rng(0, "c", i))
            dep.server.submit(c.participate(np.full(8, 0.5), dep.server.assign_leg()))
        agg = dep.server.finalize()
        np.testing.assert_allclose(agg, np.ones(8), atol=1e-3)

    def test_release_is_one_shot(self):
        dep = build_deployment(vector_length=4, threshold=1)
        c = SecAggClient(0, dep.codec, dep.authority, dep.tsa.binary_hash,
                         dep.tsa.params_hash, child_rng(0, "c"))
        dep.server.submit(c.participate(np.zeros(4), dep.server.assign_leg()))
        dep.server.finalize()
        with pytest.raises(ProtocolError):
            dep.server.finalize()
        with pytest.raises(ProtocolError):
            dep.tsa.release_unmask()

    def test_tsa_ignores_clients_after_release(self):
        dep = build_deployment(vector_length=4, threshold=1)
        c0 = SecAggClient(0, dep.codec, dep.authority, dep.tsa.binary_hash,
                          dep.tsa.params_hash, child_rng(0, "c0"))
        sub0 = c0.participate(np.zeros(4), dep.server.assign_leg())
        dep.server.submit(sub0)
        dep.server.finalize()
        c1 = SecAggClient(1, dep.codec, dep.authority, dep.tsa.binary_hash,
                          dep.tsa.params_hash, child_rng(0, "c1"))
        sub1 = c1.participate(np.zeros(4), dep.server.assign_leg())
        assert dep.server.submit(sub1) is False


class TestLegSemantics:
    def test_leg_single_use(self):
        dep = build_deployment(vector_length=4, threshold=1)
        c = SecAggClient(0, dep.codec, dep.authority, dep.tsa.binary_hash,
                         dep.tsa.params_hash, child_rng(0, "c"))
        leg = dep.server.assign_leg()
        sub = c.participate(np.zeros(4), leg)
        assert dep.server.submit(sub) is True
        # Same leg again — "the trusted party will not process any further
        # completing messages to the i'th initial message."
        sub2 = c.participate(np.zeros(4), leg)
        assert dep.server.submit(sub2) is False

    def test_legs_minted_on_demand(self):
        dep = build_deployment(vector_length=4, threshold=1)
        seen = {dep.server.assign_leg().index for _ in range(40)}
        assert len(seen) == 40

    def test_unknown_leg_rejected(self):
        dep = build_deployment(vector_length=4, threshold=1)
        c = SecAggClient(0, dep.codec, dep.authority, dep.tsa.binary_hash,
                         dep.tsa.params_hash, child_rng(0, "c"))
        leg = dep.server.assign_leg()
        sub = c.participate(np.zeros(4), leg)
        from dataclasses import replace

        assert dep.server.submit(replace(sub, leg_index=9999)) is False


class TestBoundaryCostModel:
    MODEL_20MB = 20 * 1024 * 1024

    def test_calibration_naive_k100(self):
        m = BoundaryCostModel()
        assert m.naive_transfer_ms(100, self.MODEL_20MB) == pytest.approx(650, rel=0.01)

    def test_naive_linear_in_k(self):
        m = BoundaryCostModel()
        t1000 = m.naive_transfer_ms(1000, self.MODEL_20MB)
        assert t1000 == pytest.approx(6500, rel=0.01)  # the paper's ~6500 ms

    def test_async_nearly_flat_in_k(self):
        m = BoundaryCostModel()
        t10 = m.async_transfer_ms(10, self.MODEL_20MB)
        t1000 = m.async_transfer_ms(1000, self.MODEL_20MB)
        assert t1000 < 2 * t10  # flat-ish, vs 100x for naive

    def test_async_beats_naive_everywhere(self):
        m = BoundaryCostModel()
        for k in (10, 50, 100, 500, 1000):
            assert m.async_transfer_ms(k, self.MODEL_20MB) < m.naive_transfer_ms(
                k, self.MODEL_20MB
            )

    def test_asymptotic_ratio_grows_with_k(self):
        m = BoundaryCostModel()
        r100 = m.naive_transfer_ms(100, self.MODEL_20MB) / m.async_transfer_ms(
            100, self.MODEL_20MB
        )
        r1000 = m.naive_transfer_ms(1000, self.MODEL_20MB) / m.async_transfer_ms(
            1000, self.MODEL_20MB
        )
        assert r1000 > r100 > 1


class TestVerifiableLogBundle:
    """Figure 20 on a log holding several releases (Appendix C.2)."""

    @staticmethod
    def released_log(dep, before=1):
        """A log with ``before`` older releases, then the deployment's binary."""
        log = VerifiableLog()
        for v in range(before):
            log.append(f"manifest|papaya-tsa-v{v}".encode())
        entry = b"manifest|" + dep.tsa.binary_hash
        return log, entry, log.append(entry)

    @staticmethod
    def participate(dep, bundle):
        client = SecAggClient(0, dep.codec, dep.authority, dep.tsa.binary_hash,
                              dep.tsa.params_hash, child_rng(0, "log-client"))
        return client.participate(np.zeros(4), dep.server.assign_leg(), log_bundle=bundle)

    def test_binary_released_after_earlier_versions_accepted(self):
        dep = build_deployment(vector_length=4, threshold=1, trusted_binary=b"papaya-tsa-v2")
        log, entry, index = self.released_log(dep, before=2)
        bundle = LogBundle(entry, index, log.size, log.root(), log.inclusion_proof(index))
        assert dep.server.submit(self.participate(dep, bundle)) is True

    def test_bundle_from_older_snapshot_still_accepted(self):
        # Later releases do not invalidate a proof against its own root.
        dep = build_deployment(vector_length=4, threshold=1)
        log, entry, index = self.released_log(dep)
        size, root, proof = log.size, log.root(), log.inclusion_proof(index)
        for v in range(3):
            log.append(f"manifest|later-{v}".encode())
        assert dep.server.submit(self.participate(dep, LogBundle(entry, index, size, root, proof)))

    def test_proof_against_a_rewritten_log_rejected(self):
        dep = build_deployment(vector_length=4, threshold=1)
        honest, entry, index = self.released_log(dep)
        rewritten = VerifiableLog()
        rewritten.append(b"manifest|backdoored-v0")
        rewritten.append(entry)
        bundle = LogBundle(entry, index, honest.size, rewritten.root(),
                           honest.inclusion_proof(index))
        with pytest.raises(AttestationError, match="verifiable log"):
            self.participate(dep, bundle)

    def test_wrong_index_rejected(self):
        dep = build_deployment(vector_length=4, threshold=1)
        log, entry, index = self.released_log(dep, before=3)
        bundle = LogBundle(entry, index - 1, log.size, log.root(), log.inclusion_proof(index))
        with pytest.raises(AttestationError, match="verifiable log"):
            self.participate(dep, bundle)
