"""The batched PCG64 kernel against numpy's own generators, layer by layer.

The fortified block service reads its head letters from raw PCG64 outputs
that ``delayexp._pcg64`` computes for many seeds at once. Each test names
the numpy layer it pins, so that a numpy release that changes one of them
fails here with that name, not as an unexplained change in a table.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from delayexp import _pcg64

OFFSETS = np.array([0, 1, 255, 256, 2**22])
# Entropy of one to six 32-bit words: shorter than SeedSequence's pool of
# four, as long as it, and longer.
WORDS = [[0], [2**32 - 1, 0xC3], [7, 0xC3, 0], [5, 0xC3, 2**16 + 1, 0],
         [2**32 - 1, 1, 0xC3, 100_000_000, 0], [5, 0, 1, 0xC3, 2**32 - 1, 3]]


@pytest.mark.parametrize("length", sorted({len(w) for w in WORDS}))
def test_raw_outputs_are_seedsequence_pcg64_raw_stream(length):
    batch = [w for w in WORDS if len(w) == length]
    batch.append([(0x9E3779B9 * (i + 1)) & 0xFFFFFFFF for i in range(length)])
    got = _pcg64.raw_outputs(np.array(batch, dtype=np.uint32).T, _pcg64.jumps(OFFSETS))
    assert got.dtype == np.uint64 and got.shape == (len(batch), len(OFFSETS))
    for row, words in zip(got, batch):
        bits = np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32)))
        want = bits.random_raw(int(OFFSETS[-1]) + 1)[OFFSETS]
        assert np.array_equal(row, want), (
            f"SeedSequence -> PCG64 raw stream layer: numpy's random_raw for entropy "
            f"{words} differs from the batched kernel at offsets {OFFSETS.tolist()}")


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_raw_outputs_match_numpy_on_drawn_entropy_and_offsets(data):
    length = data.draw(st.integers(1, 8), label="entropy words")
    batch = data.draw(st.integers(1, 4), label="batch")
    words = data.draw(arrays(np.uint32, (length, batch)), label="words")
    offsets = data.draw(arrays(np.int64, array_shapes(min_dims=0, max_dims=2, max_side=3),
                               elements=st.integers(0, 2**22)), label="offsets")
    got = _pcg64.raw_outputs(words, _pcg64.jumps(offsets))
    assert got.shape == (batch, *offsets.shape)
    for column, row in zip(words.T, got):
        raw = np.random.PCG64(np.random.SeedSequence(column)).random_raw(int(offsets.max()) + 1)
        assert np.array_equal(row, raw[offsets])


def test_raw_outputs_keep_the_offsets_shape():
    offsets = 256 * np.arange(3)[:, None] + np.arange(8)
    words = np.array([[1, 0xC3, 4, 0], [1, 0xC3, 5, 0]], dtype=np.uint32).T
    got = _pcg64.raw_outputs(words, _pcg64.jumps(offsets))
    assert got.shape == (2, 3, 8)
    flat = _pcg64.raw_outputs(words, _pcg64.jumps(offsets.ravel()))
    assert np.array_equal(got.reshape(2, -1), flat)


def test_generator_draws_read_raw_outputs_as_the_head_letters_assume():
    # BlockCodebook.head_letters turns raw outputs into letters the way
    # Generator.integers(0, 2, int8) and Generator.random read them.
    words = np.array([3, 0xC3, 41, 0], dtype=np.uint32)
    raw = np.random.PCG64(np.random.SeedSequence(words)).random_raw(16)
    bits = np.random.default_rng(np.random.SeedSequence(words)).integers(
        0, 2, size=8, dtype=np.int8)
    want_bits = (raw[0] >> (8 * np.arange(8, dtype=np.uint64) + np.uint64(7)) & 1)
    assert np.array_equal(bits, want_bits.astype(np.int8)), (
        "Generator.integers layer: integers(0, 2, int8) is no longer the top bit of "
        "each byte of raw output 0, low byte first")
    uniforms = np.random.default_rng(np.random.SeedSequence(words)).random(16)
    assert np.array_equal(uniforms, (raw >> 11) * 2.0 ** -53), (
        "Generator.random layer: random() is no longer (raw >> 11) * 2^-53")


def _mask_draws(raw: np.ndarray, bits: int) -> np.ndarray:
    """``u * (2^bits - 1)`` for the uint32 halves u of ``raw``, low half first."""
    halves = raw[:, None] >> np.array([0, 32], dtype=np.uint64) & np.uint64(0xFFFFFFFF)
    return halves.ravel() * np.uint64(2**bits - 1)


@pytest.mark.parametrize("bits", range(2, 15))
def test_mask_draws_read_raw_outputs_as_the_head_letters_assume(bits):
    # BlockCodebook.head_letters reads a multi-bit coset code's 256 masks
    # integers(1, 2^bits, int64) from raw outputs 0-127 and its dither from
    # raw output 128, on streams where Lemire's rule rejected no draw.
    span = 2**bits - 1
    for block in range(1000):
        words = np.array([3, 0xC3, block, 0], dtype=np.uint32)
        raw = np.random.PCG64(np.random.SeedSequence(words)).random_raw(129)
        scaled = _mask_draws(raw[:128], bits)
        if not (scaled % 2**32 < 2**32 % span).any():
            break
    else:
        pytest.fail(f"every one of 1000 streams rejected a draw at {bits} bits")
    rng = np.random.default_rng(np.random.SeedSequence(words))
    masks = rng.integers(1, 2**bits, size=256, dtype=np.int64)
    assert np.array_equal(masks, 1 + (scaled >> np.uint64(32)).astype(np.int64)), (
        f"Generator.integers layer: integers(1, 2^{bits}, int64) is no longer Lemire's "
        f"multiply-shift 1 + (u * {span} >> 32) of uint32 halves u, low half first")
    bits8 = rng.integers(0, 2, size=8, dtype=np.int8)
    want = raw[128] >> (8 * np.arange(8, dtype=np.uint64) + np.uint64(7)) & 1
    assert np.array_equal(bits8, want.astype(np.int8)), (
        "Generator.integers / PCG64 next_uint32 layer: after 256 mask draws the next "
        "integers(0, 2, int8) no longer starts at raw output 128")


def test_lemire_rejection_skips_the_draw_the_head_letters_refuse():
    # The predicate head_letters uses: a draw u is rejected and drawn again
    # when u * (2^bits - 1) mod 2^32 < 2^32 mod (2^bits - 1). Block 57289 of
    # seed 0 at 11 bits rejects its draw 24, and no other of its first 257.
    words = np.array([0, 0xC3, 57289, 0], dtype=np.uint32)
    raw = np.random.PCG64(np.random.SeedSequence(words)).random_raw(129)
    scaled = _mask_draws(raw, 11)[:257]
    assert np.flatnonzero(scaled % 2**32 < 2**32 % (2**11 - 1)).tolist() == [24]
    masks = np.random.default_rng(np.random.SeedSequence(words)).integers(
        1, 2**11, size=256, dtype=np.int64)
    kept = np.delete(scaled, 24)
    assert np.array_equal(masks, 1 + (kept >> np.uint64(32)).astype(np.int64)), (
        "Generator.integers layer: Lemire's rule no longer rejects exactly the draws "
        "with u * (2^p - 1) mod 2^32 < 2^32 mod (2^p - 1), or no longer skips them")
