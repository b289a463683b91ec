"""Tests for DH key exchange, sealed boxes, and attestation."""

import multiprocessing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.secagg import (
    AttestationError,
    DH_PRIME,
    DHKeyPair,
    SealError,
    SigningAuthority,
    hash_binary,
    hash_params,
    open_sealed,
    seal,
    shared_key,
)
from repro.secagg import dh
from repro.secagg.dh import DH_GENERATOR
from repro.utils import child_rng

START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


class TestDiffieHellman:
    def test_key_agreement(self):
        a = DHKeyPair.generate(child_rng(0, "dh-a"))
        b = DHKeyPair.generate(child_rng(0, "dh-b"))
        assert shared_key(a.private, b.public) == shared_key(b.private, a.public)

    def test_different_pairs_different_keys(self):
        a = DHKeyPair.generate(child_rng(0, "dh-a"))
        b = DHKeyPair.generate(child_rng(0, "dh-b"))
        c = DHKeyPair.generate(child_rng(0, "dh-c"))
        assert shared_key(a.private, b.public) != shared_key(a.private, c.public)

    def test_public_value_in_group(self):
        pair = DHKeyPair.generate(child_rng(1, "dh"))
        assert 1 < pair.public < DH_PRIME

    def test_degenerate_public_rejected(self):
        pair = DHKeyPair.generate(child_rng(2, "dh"))
        for bad in (0, 1, DH_PRIME - 1, DH_PRIME):
            with pytest.raises(ValueError):
                shared_key(pair.private, bad)

    def test_deterministic_generation(self):
        p1 = DHKeyPair.generate(child_rng(3, "dh"))
        p2 = DHKeyPair.generate(child_rng(3, "dh"))
        assert p1.private == p2.private and p1.public == p2.public

    def test_repr_hides_private(self):
        pair = DHKeyPair.generate(child_rng(4, "dh"))
        assert hex(pair.private)[3:10] not in repr(pair)

    def test_shared_key_is_32_bytes(self):
        a = DHKeyPair.generate(child_rng(5, "dh-a"))
        b = DHKeyPair.generate(child_rng(5, "dh-b"))
        assert len(shared_key(a.private, b.public)) == 32


class _FixedExponent:
    """A randomness stream that yields one chosen 256-bit exponent."""

    def __init__(self, exponent: int):
        self.words = [(exponent >> shift) & (2**64 - 1) for shift in (192, 128, 64, 0)]

    def integers(self, low, high, size, dtype):
        assert (low, high, size) == (0, 2**64, 4)
        return np.array(self.words, dtype=dtype)


class TestFixedBaseTable:
    """``generate`` reads a table of public powers of the fixed generator;
    it must be ``pow`` — for every exponent, in every process."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**256 - 1))
    @example(0)
    @example(1)
    @example(1 << 255)
    @example((1 << 256) - 1)
    @example(0xFF << 128)  # one non-zero byte, every other window zero
    @example(int.from_bytes(bytes([1, 0] * 16), "little"))
    def test_generate_equals_pow(self, exponent):
        pair = DHKeyPair.generate(_FixedExponent(exponent))
        assert pair.private == exponent | (1 << 255)  # forced top bit
        assert pair.public == pow(DH_GENERATOR, pair.private, DH_PRIME)
        # ...and without the forced bit, so the zero digits are real.
        assert dh._generator_power(exponent) == pow(DH_GENERATOR, exponent, DH_PRIME)

    @pytest.mark.parametrize(
        "exponent", [1 << 256, (1 << 256) + 1, (1 << 300) + 12345, DH_PRIME - 2, -1]
    )
    def test_exponent_outside_the_table_takes_plain_pow(self, exponent, monkeypatch):
        """Never truncated to 256 bits: a real branch to ``pow``."""
        def no_table():
            raise AssertionError("table consulted for an exponent it does not span")

        monkeypatch.setattr(dh, "_fixed_base_table", no_table)
        assert dh._generator_power(exponent) == pow(DH_GENERATOR, exponent, DH_PRIME)

    def test_table_is_built_once_and_holds_the_public_powers(self):
        table = dh._fixed_base_table()
        assert dh._fixed_base_table() is table
        assert len(table) == 32 and all(len(row) == 256 for row in table)
        for i in (0, 1, 17, 31):
            for d in (0, 1, 2, 128, 255):
                assert table[i][d] == pow(DH_GENERATOR, d << (8 * i), DH_PRIME)

    def test_table_is_lazy(self):
        """Importing the module must not pay the build (``setup_s``)."""
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            assert pool.apply(_table_cache_size_after_import) == 0

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_table_identical_in_worker_processes(self, start_method):
        """Fork inherits the parent's table, spawn rebuilds it from the
        public constants — either way the same powers."""
        expected = dh._fixed_base_table()
        ctx = multiprocessing.get_context(start_method)
        with ctx.Pool(1) as pool:
            assert pool.apply(dh._fixed_base_table) == expected

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_secure_lane_worker_round_trip(self, start_method):
        """A shard worker mints its legs from *its* table; an honest
        client (this process's table) must still agree on every channel
        key, or the worker's TSA rejects the sealed seed."""
        from repro.core.types import TrainingResult
        from repro.system.secure import SecureBufferedAggregator
        from repro.system.secure_sharding import ProcessSecureShardedAggregator

        class State:
            size = 8

            def __init__(self):
                self.vec = np.zeros(8, dtype=np.float32)

            def current(self):
                return self.vec.copy()

            def apply(self, avg, n):
                self.vec += avg

        inline = SecureBufferedAggregator(State(), 2, 8, num_shards=1, seed=11)
        proc = ProcessSecureShardedAggregator(
            State(), 2, 8, num_shards=1, seed=11, start_method=start_method
        )
        try:
            for agg in (inline, proc):
                for cid in range(2):
                    v0, _ = agg.register_download(cid)
                    agg.receive_update(TrainingResult(
                        client_id=cid, delta=np.full(8, 0.25 * (cid + 1), np.float32),
                        num_examples=3, train_loss=0.0, initial_version=v0,
                    ))
            assert proc.pool_active and proc.executor_fallbacks == 0
            assert proc.version == inline.version == 1
            assert np.array_equal(proc.state.current(), inline.state.current())
        finally:
            proc.close()


def _table_cache_size_after_import() -> int:
    import repro.secagg  # noqa: F401  (the whole package, as a deployment imports it)

    return dh._fixed_base_table.cache_info().currsize


class TestSealedBox:
    KEY = b"k" * 32

    def test_roundtrip(self):
        box = seal(self.KEY, b"sixteen byte msg", seq=3)
        assert open_sealed(self.KEY, box) == b"sixteen byte msg"

    def test_ciphertext_differs_from_plaintext(self):
        box = seal(self.KEY, b"sixteen byte msg")
        assert box.ciphertext != b"sixteen byte msg"

    def test_wrong_key_rejected(self):
        box = seal(self.KEY, b"payload")
        with pytest.raises(SealError):
            open_sealed(b"x" * 32, box)

    def test_tampered_ciphertext_rejected(self):
        box = seal(self.KEY, b"payload")
        bad = box.tampered_with(ciphertext=bytes([box.ciphertext[0] ^ 1]) + box.ciphertext[1:])
        with pytest.raises(SealError):
            open_sealed(self.KEY, bad)

    def test_tampered_tag_rejected(self):
        box = seal(self.KEY, b"payload")
        bad = box.tampered_with(tag=bytes([box.tag[0] ^ 1]) + box.tag[1:])
        with pytest.raises(SealError):
            open_sealed(self.KEY, bad)

    def test_sequence_number_bound(self):
        box = seal(self.KEY, b"payload", seq=1)
        replayed = box.tampered_with(seq=2)
        with pytest.raises(SealError):
            open_sealed(self.KEY, replayed)

    def test_distinct_sequences_distinct_ciphertexts(self):
        b1 = seal(self.KEY, b"payload", seq=1)
        b2 = seal(self.KEY, b"payload", seq=2)
        assert b1.ciphertext != b2.ciphertext

    def test_empty_payload(self):
        box = seal(self.KEY, b"")
        assert open_sealed(self.KEY, box) == b""

    def test_long_payload_spans_keystream_blocks(self):
        msg = bytes(range(256)) * 2
        box = seal(self.KEY, msg)
        assert open_sealed(self.KEY, box) == msg

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            seal(b"short", b"x")
        with pytest.raises(ValueError):
            seal(self.KEY, b"x", seq=-1)


class TestAttestation:
    def test_issue_and_verify(self):
        auth = SigningAuthority()
        bh, ph = hash_binary(b"bin"), hash_params(t=5)
        quote = auth.issue(bh, ph, b"payload")
        auth.verify(quote, bh, ph)  # no raise

    def test_forged_signature_rejected(self):
        auth = SigningAuthority()
        rogue = SigningAuthority(secret=b"not-intel")
        bh, ph = hash_binary(b"bin"), hash_params(t=5)
        quote = rogue.issue(bh, ph, b"payload")
        with pytest.raises(AttestationError, match="signature"):
            auth.verify(quote, bh, ph)

    def test_wrong_binary_rejected(self):
        auth = SigningAuthority()
        bh, ph = hash_binary(b"bin"), hash_params(t=5)
        quote = auth.issue(bh, ph, b"payload")
        with pytest.raises(AttestationError, match="binary"):
            auth.verify(quote, hash_binary(b"evil-bin"), ph)

    def test_wrong_params_rejected(self):
        # The server claims different public parameters than were attested
        # — e.g. a lower threshold t to weaken privacy.
        auth = SigningAuthority()
        bh = hash_binary(b"bin")
        quote = auth.issue(bh, hash_params(t=100), b"payload")
        with pytest.raises(AttestationError, match="parameter"):
            auth.verify(quote, bh, hash_params(t=1))

    def test_payload_covered_by_signature(self):
        # Swapping the DH initial message inside a quote must break it.
        from dataclasses import replace

        auth = SigningAuthority()
        bh, ph = hash_binary(b"bin"), hash_params(t=5)
        quote = auth.issue(bh, ph, b"dh-public-A")
        swapped = replace(quote, payload=b"dh-public-EVIL")
        with pytest.raises(AttestationError):
            auth.verify(swapped, bh, ph)

    def test_params_hash_canonical_order(self):
        assert hash_params(a=1, b=2) == hash_params(b=2, a=1)
        assert hash_params(a=1) != hash_params(a=2)

    def test_binary_hash_distinct(self):
        assert hash_binary(b"v1") != hash_binary(b"v2")
