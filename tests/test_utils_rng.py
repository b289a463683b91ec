"""Tests for deterministic hierarchical RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import child_rng, stable_hash64
from repro.utils.rng import _entropy_words, _pcg64_words

# (seed, labels, stable_hash64(*labels), first two 63-bit integers, then
# random(), then normal()) — printed by the SeedSequence-formula
# implementation, so a faster derivation must reproduce them bit for bit.
KNOWN_ANSWERS = [
    (0, ("population",), 2976330106464006172,
     [1559943804502323686, 8085163425427159520],
     0.44846839933205984, -1.0579367253857657),
    (7, ("device-profile", 12345), 13651403615637613472,
     [4664975695730306529, 3022202473040168701],
     0.4091875502574499, -0.8838651650583865),
    (2**32 + 5, ("eligibility", 3, 9), 685081626118532927,
     [2671313727782279528, 7312827062938761187],
     0.7775696626539671, -1.9766141833847988),
    (2**63 + 11, ("dropout", 0, 0), 13003970876033312583,
     [9214031412732330526, 6826696496383049398],
     0.8598349612801202, 1.7750025682176596),
    (-1, ("surrogate-noise", 17, 2), 9723597095186815773,
     [7482680923024496718, 8706522194522241127],
     0.23022860136882994, -0.7243505480443623),
    (-(2**40) - 3, ("data",), 5002613937086223397,
     [1679707411788786545, 4499433764343665194],
     0.3268502336596977, -0.5669895855989026),
    (3, (), 1449310910991872227,
     [222355588105704130, 247108365440903834],
     0.5057656657197747, 1.0959263722003774),
    (42, (5, "x"), 17614181866450687289,
     [6600707829358898247, 844646514035626588],
     0.5936525642664595, -1.1333162229502955),
    (1, ((1, 2), None, 2.5), 4495177579165112877,
     [3859671980175298592, 4105666842552002724],
     0.16652795123255892, -1.0244475901075618),
]


def reference_rng(seed: int, *labels: object) -> np.random.Generator:
    """The defining formula ``child_rng`` must reproduce stream for stream."""
    entropy = (seed & (2**64 - 1), stable_hash64(*labels))
    return np.random.default_rng(np.random.SeedSequence(entropy))


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash64("population", 3) == stable_hash64("population", 3)

    def test_distinct_labels_differ(self):
        assert stable_hash64("a") != stable_hash64("b")

    def test_label_order_matters(self):
        assert stable_hash64("a", "b") != stable_hash64("b", "a")

    def test_no_concatenation_collision(self):
        # ("ab",) must not collide with ("a", "b").
        assert stable_hash64("ab") != stable_hash64("a", "b")

    def test_fits_in_64_bits(self):
        assert 0 <= stable_hash64("x", 123, (1, 2)) < 2**64

    @given(st.lists(st.integers(), min_size=1, max_size=5))
    def test_hashes_arbitrary_int_labels(self, labels):
        h = stable_hash64(*labels)
        assert h == stable_hash64(*labels)


class TestChildRng:
    def test_same_path_same_stream(self):
        a = child_rng(0, "data", 1).random(8)
        b = child_rng(0, "data", 1).random(8)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = child_rng(0, "data").random(8)
        b = child_rng(1, "data").random(8)
        assert not np.array_equal(a, b)

    def test_different_labels_different_stream(self):
        a = child_rng(0, "data").random(8)
        b = child_rng(0, "population").random(8)
        assert not np.array_equal(a, b)

    def test_independent_of_call_order(self):
        first = child_rng(0, "x").random()
        child_rng(0, "y").random(100)
        again = child_rng(0, "x").random()
        assert first == again

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_any_seed_valid(self, seed):
        rng = child_rng(seed, "prop")
        assert 0.0 <= rng.random() < 1.0

    def test_seed_seq_holds_only_the_pcg64_words(self):
        seed_seq = child_rng(0, "x").bit_generator.seed_seq
        words = reference_rng(0, "x").bit_generator.seed_seq.generate_state(4, np.uint64)
        np.testing.assert_array_equal(seed_seq.generate_state(4, np.dtype("uint64")), words)
        with pytest.raises(ValueError, match="four uint64"):
            seed_seq.generate_state(8)
        assert not hasattr(seed_seq, "spawn")


class TestKnownAnswers:
    @pytest.mark.parametrize(
        "seed, labels, digest, ints, uniform, normal", KNOWN_ANSWERS,
        ids=[f"{seed}-{labels!r}" for seed, labels, *_ in KNOWN_ANSWERS],
    )
    def test_frozen_stream(self, seed, labels, digest, ints, uniform, normal):
        assert stable_hash64(*labels) == digest
        rng = child_rng(seed, *labels)
        assert rng.integers(0, 2**63, size=2, dtype=np.int64).tolist() == ints
        assert rng.random() == uniform
        assert rng.normal() == normal


class TestReferenceFormula:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(min_value=-(2**70), max_value=2**70),
        st.lists(st.one_of(st.text(max_size=12), st.integers()), max_size=4),
        st.integers(min_value=1, max_value=40),
    )
    def test_matches_seed_sequence_formula(self, seed, labels, k):
        ours, ref = child_rng(seed, *labels), reference_rng(seed, *labels)
        np.testing.assert_array_equal(ours.random(k), ref.random(k))
        assert ours.normal() == ref.normal()

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.one_of(st.integers(min_value=0, max_value=2**32),
                  st.integers(min_value=0, max_value=2**64 - 1)),
    )
    def test_seed_words_match_seed_sequence(self, seed, h):
        # Labels hash below 2**32 once in ~4e9 paths, so the one-word
        # hash case is reached here rather than through child_rng.
        ref = np.random.SeedSequence((seed, h))
        ours = np.random.SeedSequence(np.array(_entropy_words(seed, h), dtype=np.uint32))
        assert ours.pool.tolist() == ref.pool.tolist()
        np.testing.assert_array_equal(
            _pcg64_words(ours.pool.tolist()), ref.generate_state(4, np.uint64)
        )
