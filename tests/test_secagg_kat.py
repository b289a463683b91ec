"""Known-answer tests: the SecAgg primitives against frozen bytes.

Every constant below was printed by the commit *before* the per-arrival
fast paths landed (plain ``pow`` key generation, copy-then-mask group
ops, three-pass codec).  The differential suites pin the fast paths to
each other; these pin them to the bytes the protocol has always put on
the wire, so a change to the fixed-base table, the raw-word mask draw or
the fused codec that moves a single bit fails here first.
"""

import hashlib

import numpy as np
import pytest

from repro.secagg import (
    DHKeyPair,
    FixedPointCodec,
    PowerOfTwoGroup,
    expand_mask,
    expand_mask_block,
    seal,
    shared_key,
)
from repro.utils import child_rng

A_PRIVATE = 0xDC8AB9F5D596F1AFB714A9F2E7440317AFFB03C90415265F4C1F8D6705E108FE
A_PUBLIC = int(
    "4bc958e44036e18636ad8556cf927b232c179f74277d6d2fc2095cca4277f260"
    "2ac4d60f0d64192e810b4c92d37f5be887ca9bdcc5e43861916900fd0fc50a5d"
    "73d66d57e804f1a5f7922601e9c9bfb2ef5a3183b88488cf6afb31272f86e689"
    "65dc0cb3c7a1398f1ee4d2560676396388a539f511e6827516212092a964f70d"
    "facba4dcade6a40f2ad4c1870022bdeb840fbb90cdf207a74468cef4e3613e34"
    "28ac3e66f67d9cd41b66d574e5df8ba3ed808023bbc7e78c8afa515db267a170"
    "4cd4a420eba32af7f1f781904687f586c94a9232160d05fd371620694a5da47b"
    "150a0eda21d932e16d0fd162726438f155e70b7917f9c10afd6838007bb737a9",
    16,
)
B_PUBLIC_SHA256 = "f459a238fe83f9223691af0272dbf8bcb7b6eef3b055efb2424a0ffac23fa0f8"
CHANNEL_KEY = "d01b9a32e9a101717796ec4c2c0298f5490cd102335959a23d1c577afe4f9fef"

SEED = bytes(range(16))
MASK_LENGTH = 9  # odd on purpose: the 32-bit draw ends on half a 64-bit word
MASKS = {
    16: "62440000b0c6000064e5000011f60000c45300001444000016670000b9aa0000644f0000",
    32: "15a5624477e3b0c64a2a64e5f38b11f64c38c453930414442e021667cfecb9aa89f2644f",
    64: (
        "15a5624477e3b0c64a2a64e5f38b11f64c38c453930414442e021667cfecb9aa"
        "89f2644ffc26a811db3210abad301befd6571d96404cb5840f90b0e45f030418"
        "3b13f63e7125706e"
    ),
}

# ±clip, beyond ±clip, both zeros, round-half-to-even ties (1.5, 2.5 and
# -1.5 steps), and a value whose float32 rounding crosses the clip.
VALUES = np.array(
    [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 4.0, -4.0, 7.5, -7.5, 1e-3, -1e-3,
     3.9999923706, 1.5 / 65536, 2.5 / 65536, -1.5 / 65536, 0.123456789],
    dtype=np.float64,
)
ENCODED = {
    (32, "f8"): (
        "0000000000000000000001000000ffff008000000080ffff000004000000fcff"
        "000004000000fcff42000000beffffffffff03000200000002000000feffffff"
        "9b1f0000"
    ),
    (32, "f4"): (
        "0000000000000000000001000000ffff008000000080ffff000004000000fcff"
        "000004000000fcff42000000beffffff000004000200000002000000feffffff"
        "9b1f0000"
    ),
    (64, "f8"): (
        "0000000000000000000000000000000000000100000000000000ffffffffffff"
        "00800000000000000080ffffffffffff00000400000000000000fcffffffffff"
        "00000400000000000000fcffffffffff4200000000000000beffffffffffffff"
        "ffff03000000000002000000000000000200000000000000feffffffffffffff"
        "9b1f000000000000"
    ),
    (64, "f4"): (
        "0000000000000000000000000000000000000100000000000000ffffffffffff"
        "00800000000000000080ffffffffffff00000400000000000000fcffffffffff"
        "00000400000000000000fcffffffffff4200000000000000beffffffffffffff"
        "000004000000000002000000000000000200000000000000feffffffffffffff"
        "9b1f000000000000"
    ),
}

BOX_CIPHERTEXT = "85a1e9e3d0e46f277bb5540500525fba"
BOX_TAG = "fe727140e02e840e7dc4ab52b92f96a7b4b4166d25fdb24e8eda559d56e8f959"


def _hex(arr: np.ndarray) -> str:
    """Little-endian bytes of ``arr`` as hex, whatever the host order."""
    return arr.astype(arr.dtype.newbyteorder("<")).tobytes().hex()


class TestDiffieHellmanKAT:
    def test_generate_is_frozen(self):
        pair = DHKeyPair.generate(child_rng(0, "kat"))
        assert pair.private == A_PRIVATE
        assert pair.public == A_PUBLIC

    def test_shared_key_is_frozen(self):
        a = DHKeyPair.generate(child_rng(0, "kat"))
        b = DHKeyPair.generate(child_rng(1, "kat"))
        assert hashlib.sha256(b.public.to_bytes(256, "big")).hexdigest() == B_PUBLIC_SHA256
        assert shared_key(a.private, b.public).hex() == CHANNEL_KEY
        assert shared_key(b.private, a.public).hex() == CHANNEL_KEY

    def test_sealed_box_is_frozen(self):
        box = seal(bytes.fromhex(CHANNEL_KEY), SEED, seq=7)
        assert box.ciphertext.hex() == BOX_CIPHERTEXT
        assert box.tag.hex() == BOX_TAG
        assert box.seq == 7


@pytest.mark.parametrize("bits", sorted(MASKS))
class TestMaskKAT:
    def test_expand_mask_is_frozen(self, bits):
        group = PowerOfTwoGroup(bits)
        mask = expand_mask(SEED, MASK_LENGTH, group)
        assert mask.dtype == group.dtype
        assert _hex(mask) == MASKS[bits]

    def test_expand_mask_block_rows_are_frozen(self, bits):
        group = PowerOfTwoGroup(bits)
        other = bytes(reversed(SEED))
        block = expand_mask_block([SEED, other, SEED], MASK_LENGTH, group)
        assert _hex(block[0]) == MASKS[bits]
        assert _hex(block[2]) == MASKS[bits]
        assert np.array_equal(block[1], expand_mask(other, MASK_LENGTH, group))
        # ...and into a caller's buffer (the TSA row cache).
        out = np.zeros((5, MASK_LENGTH), dtype=group.dtype)
        expand_mask_block([SEED], MASK_LENGTH, group, out=out[3:4])
        assert _hex(out[3]) == MASKS[bits]
        assert not out[:3].any() and not out[4].any()


@pytest.mark.parametrize("bits,kind", sorted(ENCODED))
def test_encode_is_frozen(bits, kind):
    codec = FixedPointCodec(PowerOfTwoGroup(bits), scale=2**16, clip_value=4.0)
    values = VALUES.astype(kind)
    before = values.copy()
    encoded = codec.encode(values)
    assert encoded.dtype == codec.group.dtype
    assert _hex(encoded) == ENCODED[bits, kind]
    assert values.tobytes() == before.tobytes()  # −0.0 stays −0.0 in the input
