import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayexp import sim_anytime, sim_queue
from delayexp.channel import make_bec, make_bsc, make_dmc
from delayexp.cli import HORIZON_MAX
from delayexp.errors import BadInputError, DomainError
from delayexp.sim_anytime import (
    _CODE_SLAB,
    _CODE_STREAM,
    _HEAD_KERNEL_MIN,
    _SERVE_BATCH_CELLS,
    _SERVE_STRIDE_MIN,
    DENY,
    PAYLOAD_BITS_MAX,
    BlockCodebook,
    FlowCode,
    FlowDecoder,
    PayloadTooLargeError,
    SchemeConfig,
    SchemeRunResult,
    WindowTooLargeError,
    _blocks,
    _cdf,
    _code_input_dist,
    _confirmable,
    _NoiseSource,
    _ParseState,
    _ranked,
    _serve_blocks,
    _token,
    fortified_run,
    synthesized_run,
)
from delayexp.sim_queue import HorizonTooShortError, arrival, arrived, fit_exponent
from reference import (
    FortifiedEncoder,
    backlogged_deliveries,
    block_schedule,
    block_values,
    channel_output,
    exhaustive_window_search,
    flow_decode,
    list_index,
    noise_uniforms,
    parse_history,
    strided_deliveries,
)

LN15 = math.log(1.5)
IDENTITY = make_dmc([[1.0, 0.0], [0.0, 1.0]])
FLOW_CHANNELS = {"bsc": make_bsc(0.1), "bec": make_bec(0.4),
                 "z": make_dmc([[1.0, 0.0], [0.3, 0.7]])}
# Block-service channels: coset codes on the binary ones, i.i.d. letters on
# the Z channel and on the four-letter noisy typewriter.
SERVICE_CHANNELS = {"bec0.4": make_bec(0.4), "bec0.9": make_bec(0.9), "bsc0.05": make_bsc(0.05),
                    "z": make_dmc([[1.0, 0.0], [0.3, 0.7]]),
                    "typewriter": make_dmc([[.5, .5, 0, 0], [0, .5, .5, 0], [0, 0, .5, .5],
                                            [.5, 0, 0, .5]])}
BEC_ERASURE = 2
# Codebooks whose head letters are checked against their slabs: one-bit coset
# (the binary channels at one payload bit; the Z channel's code law is
# uniform too), multi-bit coset (the same from 2 to 7 bits, whose full batches
# of 256 to 8 blocks fall on both sides of the kernel's least batch) and
# i.i.d. letters (the typewriter, at every payload).
HEAD_CODEBOOKS = [(channel, payload) for channel in ("bec0.4", "bsc0.05", "z")
                  for payload in range(1, 8)] + \
                 [("typewriter", payload) for payload in range(1, PAYLOAD_BITS_MAX + 1)]

# The repeat-until-confirm reduction of the fortified scheme on a BEC.
BEC_CFG = SchemeConfig(n=1, c=2, l=0, theta=0, rate_bits=0.5, seed=0)


def _ready_uses(cfg, horizon):
    """The use at which each full block fed at the config rate is ready: the
    arrival of its last bit, taken here from every bit's arrival."""
    p = cfg.payload_bits
    return arrival(np.arange(1, arrived(horizon, cfg.rate_bits) + 1), cfg.rate_bits)[p - 1::p]


def _serve(cfg, codebook, values, ready, noise, horizon, size=97):
    """Every block's delivery use from the streamed service, the blocks handed
    over in windows of ``size``; each window's deliveries come back in order."""
    firsts = range(0, len(ready), size)
    served = list(_serve_blocks(cfg, codebook, ((b, values[b:b + size], ready[b:b + size])
                                                for b in firsts), noise, horizon))
    assert [first for first, _ in served] == list(firsts)
    return np.concatenate([deliveries for _, deliveries in served])


class _Uniforms:
    """A stand-in for a noise source's generator: ``random`` hands out the
    given uniforms in turn."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)
        self.drawn = 0

    def random(self, count):
        self.drawn += count
        return self.u[self.drawn - count:self.drawn]


def _delivered(deliveries):
    """The delivery uses of the blocks ``_serve_blocks`` delivered, after
    checking that they come first and every other block reads ``+inf``."""
    n = int(np.count_nonzero(np.isfinite(deliveries)))
    assert np.isposinf(deliveries[n:]).all()
    return deliveries[:n].astype(np.int64).tolist()


class TestSchemeConfig:
    def test_payload_and_derived_fields(self):
        cfg = SchemeConfig(n=2, c=7, l=1, theta=0, rate_bits=3 / 14, seed=11)
        assert cfg.payload_bits == 3
        assert cfg.data_uses_per_chunk == 7

    def test_theta_reduces_data_uses(self):
        cfg = SchemeConfig(n=2, c=24, l=1, theta=12, rate_bits=1 / 6)
        assert cfg.data_uses_per_chunk == 12
        assert cfg.payload_bits == 8

    def test_rejects_fractional_payload(self):
        with pytest.raises(DomainError):
            SchemeConfig(n=1, c=6, l=0, rate_bits=0.25)

    def test_rejects_zero_payload(self):
        with pytest.raises(DomainError):
            SchemeConfig(n=1, c=2, l=0, rate_bits=0.1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            SchemeConfig(n=1, c=0, l=0)
        with pytest.raises(DomainError):
            SchemeConfig(n=1, c=2, l=1)
        with pytest.raises(DomainError):
            SchemeConfig(n=1, c=4, l=0, theta=4, rate_bits=0.25)
        with pytest.raises(DomainError):
            SchemeConfig(n=1, c=2, l=0, rate_bits=-0.5)
        with pytest.raises(DomainError):
            SchemeConfig(n=1, c=2, l=0, redecode_window=0)

    def test_dict_roundtrip(self):
        cfg = SchemeConfig(n=2, c=24, l=1, theta=12, rate_bits=1 / 6, seed=5,
                           redecode_window=3)
        assert SchemeConfig.from_dict(asdict(cfg)) == cfg

    def test_from_dict_rejects_unknown_and_missing_keys(self):
        with pytest.raises(BadInputError):
            SchemeConfig.from_dict({"n": 1, "c": 2, "l": 0, "bogus": 3})
        with pytest.raises(BadInputError):
            SchemeConfig.from_dict({"n": 1, "c": 2})
        with pytest.raises(BadInputError):
            SchemeConfig.from_dict([1, 2, 3])

    def test_from_json_roundtrip(self, tmp_path):
        cfg = SchemeConfig(n=1, c=8, l=0, theta=4, rate_bits=0.125, seed=3)
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(asdict(cfg)))
        assert SchemeConfig.from_json(path) == cfg

    def test_from_json_bad_file(self, tmp_path):
        with pytest.raises(BadInputError):
            SchemeConfig.from_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BadInputError):
            SchemeConfig.from_json(bad)

    @given(st.integers(1, 4), st.integers(0, 2), st.sampled_from([2, 4, 8, 14]),
           st.integers(0, 3), st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, n, l, c, theta, seed):
        if not (n > l and theta < c):
            return
        rate = 1.0 / (n * c)  # one-bit payload keeps any shape valid
        cfg = SchemeConfig(n=n, c=c, l=l, theta=theta, rate_bits=rate, seed=seed)
        assert SchemeConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


class TestArrivalClock:
    @given(st.sampled_from([1.0, 0.5, 0.25, 0.125, 3 / 14, 1 / 6, 0.3, 2 / 3]),
           st.integers(1, 500))
    @settings(max_examples=100, deadline=None)
    def test_arrival_time_is_first_time_with_count(self, rate, i):
        t = int(arrival(i, rate))
        assert arrived(t, rate) >= i
        assert t == 1 or arrived(t - 1, rate) < i

    def test_half_bit_clock(self):
        assert arrival(np.arange(1, 4), 0.5).tolist() == [2, 4, 6]
        assert [arrived(t, 0.5) for t in (1, 2, 3, 4)] == [0, 1, 1, 2]
        # The queue's clock is exact up to the horizon cap: bit i at use 2i.
        bits = np.arange(5 * 10 ** 7 - 1_000, 5 * 10 ** 7 + 1)
        np.testing.assert_array_equal(arrival(bits, 0.5), 2 * bits)
        assert all(arrived(t, 0.5) == t // 2 for t in range(HORIZON_MAX - 1_000, HORIZON_MAX + 1))

    @pytest.mark.parametrize("rate", [1.0, 0.5, 0.25, 0.125, 3 / 14, 1 / 6, 0.3, 2 / 3,
                                      0.15, 1 / 3])
    def test_count_is_search_of_arrival_times(self, rate):
        # The deadline grid takes its bit ranges from the count alone.
        n = arrived(2_000, rate)
        times = np.arange(4_001)
        counts = np.array([min(arrived(int(t), rate), n) for t in times])
        np.testing.assert_array_equal(
            np.searchsorted(arrival(np.arange(1, n + 1), rate), times, side="right"), counts)

    @given(st.sampled_from([(1, 2, 0.5), (2, 7, 3 / 14), (2, 24, 1 / 6), (3, 4, 0.25),
                            (2, 5, 0.3), (1, 1, 1.0)]),
           st.integers(0, 3), st.integers(1, 3_000), st.integers(1, 400))
    @settings(max_examples=60, deadline=None)
    def test_block_schedule_is_the_arrival_of_each_last_bit(self, shape, seed, span, size):
        # Both block schemes read one schedule: every full block is ready at
        # its last bit's arrival, and one more block, ready after the run,
        # holds the bits of the last, partial one. Its windows of ``size``
        # blocks join up into the one whole-run schedule.
        n, c, rate = shape
        cfg = SchemeConfig(n=n, c=c, l=0, rate_bits=rate, seed=seed)
        windows = list(_blocks(cfg, span, size))
        assert [first for first, _, _ in windows] == list(range(0, len(windows) * size, size))
        values, ready = (np.concatenate(parts) for parts in zip(*(w[1:] for w in windows)))
        np.testing.assert_array_equal(ready[:-1], _ready_uses(cfg, span))
        assert ready[-1] > span
        np.testing.assert_array_equal(values, block_values(cfg, len(ready)))
        for whole, joined in zip(block_schedule(cfg, span), (values, ready)):
            np.testing.assert_array_equal(whole, joined)


class TestFlowSymbols:
    def test_tokens_distinct(self):
        ch = make_bsc(0.1)
        tokens = [_token(s) for s in FlowDecoder(FlowCode(ch, 2, 0, memory=1), ch, l=2).symbols]
        assert tokens == [b"0", b"1:0", b"1:1", b"1:2", b"1:3"]


class TestBlockCodebook:
    def test_deterministic_in_seed(self):
        ch = make_bsc(0.1)
        a = BlockCodebook(ch, 6, 7).candidates_range(3, 0, 100)
        b = BlockCodebook(ch, 6, 7).candidates_range(3, 0, 100)
        c = BlockCodebook(ch, 6, 8).candidates_range(3, 0, 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_one_bit_payload_is_antipodal(self):
        cb = BlockCodebook(make_bec(0.4), 1, 0)
        assert cb.coset
        letters = cb.candidates_range(0, 0, 50)
        assert np.all(letters[0] ^ letters[1] == 1)

    def test_pairwise_agreement_near_half(self):
        cb = BlockCodebook(make_bsc(0.1), 8, 2)
        letters = cb.candidates_range(0, 0, 2000)
        agree = np.mean(letters[5] == letters[200])
        assert abs(agree - 0.5) < 0.05

    def test_range_spans_slab_boundary(self):
        # Candidate m's letter at position t is parity(m & g_t) ^ s_t, with
        # (g, s) read from the slab holding t.
        cb = BlockCodebook(make_bsc(0.1), 4, 9)
        block = cb.candidates_range(1, 250, 12)
        for j, t in enumerate(range(250, 262)):
            g, s = cb._slab(1, t // _CODE_SLAB)
            off = t % _CODE_SLAB
            want = [cb._parity[m & g[off]] ^ s[off] for m in range(cb.n_candidates)]
            assert block[:, j].tolist() == want

    def test_binary_inputs_always_take_coset_path(self):
        # The cutoff-rate-optimal weight of any binary-input channel is
        # uniform, so even an asymmetric one gets coset codewords.
        zch = make_dmc([[1.0, 0.0], [0.3, 0.7]])
        assert np.allclose(_code_input_dist(zch), 0.5)
        assert BlockCodebook(zch, 4, 0).coset

    def test_ternary_channel_uses_iid_fallback(self):
        tern = make_dmc([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        cb = BlockCodebook(tern, 4, 0)
        assert not cb.coset
        letters = cb.candidates_range(0, 0, 3000)
        for letter in range(3):
            assert abs(np.mean(letters == letter) - 1 / 3) < 0.05

    def test_skewed_weight_uses_iid_fallback(self):
        # Input 2 is a fair coin over the two clean inputs' outputs, so the
        # code law is [1/2, 1/2, 0] and letter 2 is never sent.
        skewed = make_dmc([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
        assert np.allclose(_code_input_dist(skewed), [0.5, 0.5, 0.0])
        cb = BlockCodebook(skewed, 4, 0)
        assert not cb.coset
        letters = cb.candidates_range(0, 0, 4000)
        assert not np.any(letters == 2)
        assert abs(np.mean(letters) - 0.5) < 0.05

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("payload,channel", [
        (1, make_bec(0.4)), (4, make_bsc(0.1)),
        (2, make_dmc([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])),
    ])
    def test_slab_is_the_tuple_seeded_stream(self, seed, payload, channel):
        # Each slab holds the draws of a generator seeded with the tuple
        # (seed, _CODE_STREAM, block, slab), up to the largest block id and
        # the slab of the largest position.
        cb = BlockCodebook(channel, payload, seed)
        for block_id, slab_idx in [(0, 0), (1, 3), (2**16 + 1, 1), (HORIZON_MAX, 0),
                                   (2**32 - 1, 2**24)]:
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, _CODE_STREAM, block_id, slab_idx)))
            if cb.coset:
                g = rng.integers(1, cb.n_candidates, size=_CODE_SLAB, dtype=np.int64)
                s = rng.integers(0, 2, size=_CODE_SLAB, dtype=np.int8)
                want = (g, s)
            else:
                u = rng.random((cb.n_candidates, _CODE_SLAB))
                want = (np.searchsorted(cb._qcdf, u, side="right").astype(np.int8),)
            got = cb._slab(block_id, slab_idx)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("channel", [
        make_bsc(0.1), make_dmc([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]),
    ])
    def test_cached_slabs_are_read_only(self, channel):
        # A range inside one slab may be a view of the cache: writing into it
        # must fail rather than change the letters of later calls.
        cb = BlockCodebook(channel, 3, 5)
        before = cb.candidates_range(2, 10, 20).copy()
        for part in cb._slab(2, 0):
            assert not part.flags.writeable
        inside = cb.candidates_range(2, 10, 20)
        if not cb.coset:
            assert np.shares_memory(inside, cb._slab(2, 0)[0])
        if not inside.flags.writeable:
            with pytest.raises(ValueError):
                inside[0, 0] = 1 - inside[0, 0]
        else:
            inside[:] = 1 - inside
        across = cb.candidates_range(2, 250, 12)
        across[:] = 1 - across
        assert np.array_equal(cb.candidates_range(2, 10, 20), before)
        assert np.array_equal(cb.candidates_range(2, 250, 12),
                              BlockCodebook(channel, 3, 5).candidates_range(2, 250, 12))

    @settings(max_examples=60, deadline=None)
    @given(codebook=st.sampled_from([("bec0.4", 1), ("bsc0.05", 3), ("typewriter", 2)]),
           reads=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3 * _CODE_SLAB),
                                    st.integers(0, 2 * _CODE_SLAB)), min_size=1, max_size=12))
    @example(codebook=("typewriter", 2), reads=[(0, 0, 8), (1, 0, 8), (2, 0, 8), (0, 0, 8)])
    @example(codebook=("bsc0.05", 3), reads=[(1, 200, 600), (1, 250, 8)])
    def test_slab_memo_holds_two_slabs(self, codebook, reads):
        # Whatever the reads, the memo holds at most two slabs, and every read
        # equals the same read from a codebook that memoized nothing before it.
        channel, payload = codebook
        cb = BlockCodebook(SERVICE_CHANNELS[channel], payload, 6)
        for block, start, count in reads:
            letters = cb.candidates_range(block, start, count)
            assert len(cb._slabs) <= 2
            fresh = BlockCodebook(SERVICE_CHANNELS[channel], payload, 6)
            assert np.array_equal(letters, fresh.candidates_range(block, start, count))

    @pytest.mark.parametrize("payload,channel", [
        (1, make_bec(0.4)), (4, make_bsc(0.1)), (3, SERVICE_CHANNELS["typewriter"]),
        (PAYLOAD_BITS_MAX, SERVICE_CHANNELS["typewriter"]),
    ])
    def test_head_letters_are_each_blocks_first_stride(self, payload, channel):
        # Two batches' worth of blocks, at most 80, from a low block id and
        # from the horizon cap's, and up to the last id below 2^32; a batch
        # across 2^32, where block ids would take a second entropy word, is
        # refused.
        cb = BlockCodebook(channel, payload, 9)
        fresh = BlockCodebook(channel, payload, 9)
        count = min(80, 2 * max(_SERVE_BATCH_CELLS // cb.n_candidates, 1))
        for first in (70, HORIZON_MAX, 2**32 - count):
            head = cb.head_letters(first, count)
            assert head.dtype == np.int8
            assert head.shape == (count, cb.n_candidates, _SERVE_STRIDE_MIN)
            for i in range(count):
                assert np.array_equal(head[i],
                                      fresh.candidates_range(first + i, 0, _SERVE_STRIDE_MIN))
        with pytest.raises(DomainError, match="block count"):
            cb.head_letters(2**32 - 1, count)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5]) | st.integers(0, 2**96),
           first=st.integers(0, HORIZON_MAX), codebook=st.sampled_from(HEAD_CODEBOOKS),
           count=st.integers(1, _SERVE_BATCH_CELLS))
    @example(seed=2**64 + 5, first=HORIZON_MAX, codebook=("typewriter", PAYLOAD_BITS_MAX),
             count=1)
    def test_head_letters_match_first_slabs(self, seed, first, codebook, count):
        # Seeds of one, two and three 32-bit words, and every batch size the
        # block service uses at the codebook's payload.
        channel, payload = codebook
        ch = SERVICE_CHANNELS[channel]
        cb = BlockCodebook(ch, payload, seed)
        count = 1 + (count - 1) % max(_SERVE_BATCH_CELLS // cb.n_candidates, 1)
        head = cb.head_letters(first, count)
        fresh = BlockCodebook(ch, payload, seed)
        want = np.stack([fresh._columns(first + i, 0, 0, _SERVE_STRIDE_MIN)
                         for i in range(count)])
        assert head.dtype == want.dtype
        assert np.array_equal(head, want)

    def test_kernel_route_reads_a_rejected_blocks_slab(self):
        # At payload 11 and seed 0, Lemire's rule rejects mask draw 24 of block
        # 57289 (pinned in tests/test_pcg64.py), so its dither bits are not the
        # ones of raw output 128. A batch of 20 blocks takes the kernel, which
        # reads that block's slab instead; a batch below _HEAD_KERNEL_MIN reads
        # every block's slab. Both hold the block's own letters.
        ch, block = SERVICE_CHANNELS["bsc0.05"], 57289
        raw = np.random.PCG64(np.random.SeedSequence((0, _CODE_STREAM, block, 0))).random_raw(129)
        naive = raw[128] >> 8 * np.arange(_SERVE_STRIDE_MIN, dtype=np.uint64) + 7 & 1
        for first, count in ((57280, 20), (57285, _HEAD_KERNEL_MIN - 1)):
            assert first <= block < first + count
            cb = BlockCodebook(ch, 11, 0)
            assert not np.array_equal(naive.astype(np.int8),
                                      cb._slab(block, 0)[1][:_SERVE_STRIDE_MIN])
            head = cb.head_letters(first, count)
            fresh = BlockCodebook(ch, 11, 0)
            assert np.array_equal(head, np.stack([fresh._columns(b, 0, 0, _SERVE_STRIDE_MIN)
                                                  for b in range(first, first + count)]))

    # Block ids, positions and counts: small, near 2^32 and far outside
    # [0, 2^32); counts inside it stay small, so no example allocates much.
    WORDS = st.integers(-2, 300) | st.integers(2**32 - 300, 2**32 + 2) | st.integers(-2**70, 2**70)
    COUNTS = st.integers(-2, 300) | st.integers(2**32, 2**70) | st.integers(-2**70, -1)

    @settings(max_examples=150, deadline=None)
    @given(codebook=st.sampled_from([("bec0.4", 1), ("bsc0.05", 3), ("typewriter", 2)]),
           block=WORDS, start=WORDS, count=COUNTS)
    @example(codebook=("bsc0.05", 3), block=-1, start=0, count=4)
    @example(codebook=("bsc0.05", 3), block=2**32, start=0, count=1)
    @example(codebook=("typewriter", 2), block=2**32 - 2, start=0, count=3)
    def test_codebook_readers_take_ids_of_one_word(self, codebook, block, start, count):
        # Both readers take block ids, positions and counts in [0, 2^32), a
        # batch of head letters ending at or below 2^32, and refuse anything
        # else at once; what they take reads the blocks' slabs.
        channel, payload = codebook
        cb = BlockCodebook(SERVICE_CHANNELS[channel], payload, 4)
        words = range(2**32)
        if block in words and start in words and count in words:
            letters = cb.candidates_range(block, start, count)
            assert letters.shape == (cb.n_candidates, count)
            slabs = np.concatenate([cb._columns(block, i, 0, _CODE_SLAB)
                                    for i in range(start // _CODE_SLAB,
                                                   (start + count) // _CODE_SLAB + 1)], axis=1)
            assert np.array_equal(letters, slabs[:, start % _CODE_SLAB:][:, :count])
        else:
            with pytest.raises(DomainError):
                cb.candidates_range(block, start, count)
        count = count % 5 if count in words else count  # at most 4 blocks' head letters
        if block in words and count in words and block + count <= 2**32:
            head = cb.head_letters(block, count)
            assert head.shape == (count, cb.n_candidates, _SERVE_STRIDE_MIN)
            for i in range(count):
                assert np.array_equal(head[i],
                                      cb.candidates_range(block + i, 0, _SERVE_STRIDE_MIN))
        else:
            with pytest.raises(DomainError):
                cb.head_letters(block, count)

    def test_negative_block_ids_are_refused_at_once(self):
        # A block id outside [0, 2^32) must be refused before it reaches the
        # entropy words; a negative one, split into 32-bit words, never ends.
        # The calls run in a child process under a 1 GiB address-space cap
        # and a time limit.
        script = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from delayexp import BlockCodebook, DomainError, make_bsc
            cb = BlockCodebook(make_bsc(0.1), 2, 0)
            for call in (lambda: cb.candidates_range(-1, 0, 4), lambda: cb.head_letters(-1, 1),
                         lambda: cb.candidates_range(2**32, 0, 1)):
                try:
                    call()
                except DomainError as exc:
                    print(type(exc).__name__)
            """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["DomainError"] * 3

    def test_payload_caps(self):
        with pytest.raises(PayloadTooLargeError):
            BlockCodebook(make_bsc(0.1), 15, 0)
        with pytest.raises(DomainError):
            BlockCodebook(make_bsc(0.1), 0, 0)


def _block_scores(cb, block_id, outputs):
    """Every candidate's log-likelihood after one block's outputs, as the parse scores it."""
    state = _ParseState()
    state.score(cb, cb.candidates_range(block_id, 0, len(outputs)), outputs)
    return state.scores


class TestListDecode:
    def test_noiseless_rank_one(self):
        cb = BlockCodebook(IDENTITY, 4, 1)
        for value in range(16):
            sent = cb.candidates_range(0, 0, 30)[value]
            assert list(_ranked(_block_scores(cb, 0, sent), 1)) == [value]

    def test_all_erased_ties_break_by_index(self):
        cb = BlockCodebook(make_bec(0.4), 3, 0)
        erased = np.full(10, 2, dtype=np.int64)
        assert list(_ranked(_block_scores(cb, 0, erased), 8)) == list(range(8))

    def test_list_size_validation_and_clipping(self):
        cb = BlockCodebook(make_bsc(0.2), 3, 0)
        assert len(_ranked(_block_scores(cb, 0, np.zeros(4, dtype=np.int64)), 99)) == 8

    @given(st.lists(st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0]), st.floats(-30.0, 0.0)),
                    min_size=1, max_size=16),
           st.integers(0, 15), st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=300, deadline=None)
    def test_confirmed_index_names_the_truth(self, raw, truth, list_len):
        # The encoder confirms as the truth's entry of _ranked, and the decoder
        # reads that entry: on a confirmable block the entry is within the list
        # and counts as reference.list_index counts it directly, so the
        # encoder's timeline never needs the values it confirmed.
        scores = np.array(raw)
        truth %= len(scores)
        if _confirmable(scores, scores[truth], list_len):
            assert _ranked(scores, list_len)[list_index(scores, truth)] == truth

    def test_truth_in_list_rates_grow_with_list_size(self):
        # Monte Carlo inclusion rates on a noisy channel; frozen from the
        # seeded recipe below. Strictly larger lists catch strictly more.
        rates = self._inclusion_rates(make_bsc(0.3), horizon=16, trials=4000)
        assert rates[0] == pytest.approx(0.1165, abs=1e-12)
        assert rates[1] == pytest.approx(0.1835, abs=1e-12)
        assert rates[2] == pytest.approx(0.28275, abs=1e-12)
        assert rates[1] >= rates[0] + 0.03
        assert rates[2] >= rates[1] + 0.05

    def test_long_blocks_on_clean_channel_always_contain_truth(self):
        rates = self._inclusion_rates(make_bsc(0.05), horizon=64, trials=10_000)
        assert all(r >= 0.99 for r in rates.values())
        assert rates[0] <= rates[1] <= rates[2]

    @staticmethod
    def _inclusion_rates(ch, horizon, trials):
        delta = ch.p[0, 1]
        cb = BlockCodebook(ch, 8, 0)
        rng = np.random.default_rng(1)
        hits = {0: 0, 1: 0, 2: 0}
        for trial in range(trials):
            value = int(rng.integers(0, 256))
            letters = cb.candidates_range(trial, 0, horizon)[value]
            y = letters ^ (rng.random(horizon) < delta).astype(np.int64)
            scores = _block_scores(cb, trial, y)
            rank = int(np.count_nonzero(scores > scores[value])
                       + np.count_nonzero(scores[:value] == scores[value]))
            for l in hits:
                hits[l] += rank < (1 << l)
        return {l: hits[l] / trials for l in hits}


class TestFlowCode:
    def test_letters_deterministic_and_in_range(self):
        ch = make_bsc(0.1)
        code = FlowCode(ch, 5, seed=3, memory=2)
        d = code.context_digest([1, DENY])
        a = code.letters(d, 7)
        assert np.array_equal(a, code.letters(d, 7))
        assert a.shape == (5,)
        assert np.all((a >= 0) & (a < ch.inputs))

    def test_context_forgets_old_history(self):
        code = FlowCode(make_bsc(0.1), 4, seed=0, memory=3)
        tail = [DENY, 2, DENY]
        early_a = [1] * 2
        early_b = [DENY] * 5
        assert code.context_digest(early_a + tail) == code.context_digest(early_b + tail)
        bent = tail[:1] + [1] + tail[2:]
        assert code.context_digest(early_a + tail) != code.context_digest(early_a + bent)

    def test_digest_pinned(self):
        # Every flow letter hangs on the token bytes a symbol hashes as, so a
        # change of encoding would move every synthesized table.
        code = FlowCode(make_bsc(0.05), 12, 0, 4)
        assert code.context_digest([DENY, 1, 2, DENY]).hex() == "ace0cdb5403dfad22a89d6595778ad73"

    def test_distinct_histories_collide_half_the_time(self):
        # Uniform binary letters: two independent digests agree on a slot
        # with probability 1/2.
        code = FlowCode(make_bsc(0.1), 4, seed=123, memory=6)
        rng = np.random.default_rng(7)
        coll = total = 0
        for k in range(10_000):
            ha = [int(b) for b in rng.integers(0, 2, size=6)]
            hb = ha[:-1] + [1 - ha[-1]]
            la = code.letters(code.context_digest(ha), k)
            lb = code.letters(code.context_digest(hb), k)
            coll += int(np.count_nonzero(la == lb))
            total += 4
        assert abs(coll / total - 0.5) < 0.01

    def test_theta_and_memory_validation(self):
        with pytest.raises(DomainError):
            FlowCode(make_bsc(0.1), 0, seed=0, memory=1)
        with pytest.raises(DomainError):
            FlowCode(make_bsc(0.1), 2, seed=0, memory=0)


class TestFlowDecoder:
    def test_window_caps(self):
        # The window is the code memory; 12 chunks of 2 bits is the cap.
        ch = make_bsc(0.1)
        FlowDecoder(FlowCode(ch, 2, 0, memory=12), ch, l=1)
        with pytest.raises(WindowTooLargeError):
            FlowDecoder(FlowCode(ch, 2, 0, memory=13), ch, l=1)

    def test_noiseless_stream_decodes_exactly(self):
        ch = IDENTITY
        rng = np.random.default_rng(4)
        truth = [int(c and 1 + rng.integers(0, 2)) for c in rng.integers(0, 2, size=30)]
        code = FlowCode(ch, 6, seed=2, memory=3)
        outputs = [code.letters(code.context_digest(truth[:k + 1]), k) for k in range(30)]
        assert flow_decode(ch, outputs, theta=6, l=1, redecode_window=3, seed=2) == truth

    def test_window_one_equals_chunkwise_hypothesis_test(self):
        # With a one-chunk window the code memory is one message, so the
        # decoder is a per-chunk ML test of each chunk's own message;
        # replicate it by hand.
        ch = make_bsc(0.1)
        theta, l = 3, 0
        code = FlowCode(ch, theta, seed=5, memory=1)
        rng = np.random.default_rng(6)
        truth = [int(b) for b in rng.integers(0, 2, size=60)]
        outputs = []
        for k in range(60):
            letters = code.letters(code.context_digest(truth[:k + 1]), k)
            outputs.append(letters ^ (rng.random(theta) < 0.1).astype(np.int64))
        got = flow_decode(ch, outputs, theta=theta, l=l, redecode_window=1, seed=5)

        logp = np.log(np.array([[0.9, 0.1], [0.1, 0.9]]))
        frozen = []
        for k, y in enumerate(outputs):
            best, best_score = None, -math.inf
            for cand in (DENY, 1):
                letters = code.letters(code.context_digest([cand]), k)
                score = float(logp[letters, y].sum())
                if score > best_score:
                    best, best_score = cand, score
            frozen.append(best)
        assert got == frozen

    def test_estimate_sharpens_with_age(self):
        # Window positions gain one chunk of evidence per step, so the
        # mismatch rate against the true stream falls from newest to
        # oldest position.
        theta, l, w, p = 4, 0, 4, 0.05
        ch = make_bsc(p)
        code = FlowCode(ch, theta, seed=9, memory=w)
        dec = FlowDecoder(code, ch, l)
        rng = np.random.default_rng(10)
        truth = []
        mismatch, count = np.zeros(w), np.zeros(w)
        for k in range(3000):
            truth.append(int(rng.random() < 1 / 3))
            letters = code.letters(code.context_digest(truth), k)
            y = letters ^ (rng.random(theta) < p).astype(np.int64)
            _, best = dec.step(y)
            if len(best) == w:
                for j, est in enumerate(best):
                    age = w - 1 - j
                    mismatch[age] += est != truth[dec.base_chunk + j]
                    count[age] += 1
        rates = mismatch / count
        assert rates[0] == pytest.approx(0.052052, abs=1e-6)
        assert rates[-1] == pytest.approx(0.005672, abs=1e-6)
        assert rates[0] > rates[-1] + 0.02
        for a in range(w - 1):
            assert rates[a + 1] <= rates[a] + 0.01

    @settings(max_examples=40, deadline=None)
    @given(l=st.integers(0, 2), window=st.integers(1, 4),
           channel=st.sampled_from(sorted(FLOW_CHANNELS)), theta=st.integers(1, 6),
           erase_chunk=st.floats(0.0, 0.5), seed=st.integers(0, 2**16))
    def test_step_matches_exhaustive_search(self, l, window, channel, theta, erase_chunk,
                                            seed):
        # Each step's window estimate must be the brute-force ML path of
        # the same state, ties included: short chunks make letters collide,
        # and on the BEC whole chunks come out erased.
        ch = FLOW_CHANNELS[channel]
        code = FlowCode(ch, theta, seed=seed, memory=window)
        dec = FlowDecoder(code, ch, l)
        rng = np.random.default_rng(seed)
        cdf = _cdf(ch.p)
        truth, frozen, outputs = [], [], []
        for k in range(40):
            confirm = bool(rng.random() < 0.5)
            truth.append(1 + int(rng.integers(0, 1 << l)) if confirm else DENY)
            letters = code.letters(code.context_digest(truth), k)
            y = np.sum(cdf[letters] <= rng.random(theta)[:, None], axis=1)
            if channel == "bec" and rng.random() < erase_chunk:
                y[:] = BEC_ERASURE
            outputs.append(y)
            newly, best = dec.step(y)
            frozen += newly
            assert best == exhaustive_window_search(dec, frozen, outputs[len(frozen):])

    @pytest.mark.parametrize("l,window", [(0, 4), (1, 3), (2, 2)])
    def test_all_erased_chunks_decode_as_denies(self, l, window):
        # Every hypothesis has the same likelihood, so the
        # lowest-symbol path, all denies, wins every step.
        ch = FLOW_CHANNELS["bec"]
        dec = FlowDecoder(FlowCode(ch, 3, seed=1, memory=window), ch, l)
        erased = np.full(3, BEC_ERASURE)
        frozen = []
        for k in range(40):
            newly, best = dec.step(erased)
            frozen += newly
            assert best == [DENY] * min(k + 1, window) == exhaustive_window_search(
                dec, frozen, [erased] * len(best))
            assert newly == ([DENY] if k >= window else [])


def _noiseless_truth_side(cfg, chunks):
    """True flow symbols, data rows and confirmed values of a run over the
    identity channel; a block opens once the arrival count covers it."""
    cb = BlockCodebook(IDENTITY, cfg.payload_bits, cfg.seed)
    values = block_values(cfg, chunks)
    state = _ParseState()
    messages, rows, confirmed = [], [], []
    for k in range(chunks):
        start = k * cfg.c + 1
        if not state.active and (arrived(start, cfg.rate_bits)
                                 >= (state.next_block + 1) * cfg.payload_bits):
            state.active = True
            state.pos = 0
            state.scores = np.zeros(cb.n_candidates)
        if state.active:
            value = int(values[state.next_block])
            row = cb.candidates_range(state.next_block, state.pos,
                                      cfg.data_uses_per_chunk)[value]
            state.scores += cb.logp[cb.candidates_range(
                state.next_block, state.pos, cfg.data_uses_per_chunk), row].sum(axis=1)
            state.pos += cfg.data_uses_per_chunk
            confirm = int(np.count_nonzero(state.scores >= state.scores[value])) <= 1
        else:
            row = np.zeros(cfg.data_uses_per_chunk, dtype=np.int64)
            confirm = False
        rows.append(row)
        if confirm:
            messages.append(1)
            confirmed.append(value)
            state.active = False
            state.next_block += 1
        else:
            messages.append(DENY)
    return cb, values, messages, np.asarray(rows), confirmed


class TestParseHistory:
    CFG = SchemeConfig(n=1, c=4, l=0, theta=0, rate_bits=0.25, seed=2)

    def test_true_messages_reproduce_encoder_values(self):
        cb, values, messages, rows, confirmed = _noiseless_truth_side(self.CFG, 40)
        state, decoded = parse_history(self.CFG, cb, messages, rows)
        assert decoded == confirmed
        assert state.next_block == len(confirmed)
        assert len(confirmed) >= 30
        assert state.spurious == 0

    def test_dropped_confirm_shifts_then_recovers(self):
        cb, values, messages, rows, confirmed = _noiseless_truth_side(self.CFG, 40)
        hit = next(k for k, m in enumerate(messages) if m != DENY and 5 < k < 30)
        corrupted = list(messages)
        corrupted[hit] = DENY
        _, shifted = parse_history(self.CFG, cb, corrupted, rows)
        assert len(shifted) < len(confirmed)
        # Re-parsing under the corrected estimate is full recovery.
        _, healed = parse_history(self.CFG, cb, messages, rows)
        assert healed == confirmed

    def test_spurious_confirm_ignored_and_counted(self):
        cb, values, messages, rows, confirmed = _noiseless_truth_side(self.CFG, 40)
        # Chunk 0 has no block in flight yet at rate 1/4: a confirm there
        # is dynamically impossible and must not consume a block.
        assert messages[0] == DENY
        corrupted = [1] + list(messages[1:])
        state, decoded = parse_history(self.CFG, cb, corrupted, rows)
        assert state.spurious == 1
        assert decoded == confirmed


class TestFortifiedScheme:
    BSC_CFG = SchemeConfig(n=2, c=7, l=1, theta=0, rate_bits=3 / 14, seed=11)

    def test_idle_until_first_block_arrives(self):
        cb = BlockCodebook(make_bsc(0.05), 3, 11)
        enc = FortifiedEncoder(self.BSC_CFG, cb, block_values(self.BSC_CFG, 4))
        # Three bits at rate 3/14 have all arrived only at use 14.
        for t in range(1, 14):
            assert enc.next_input(t) == 0
            enc.observe(t, 0)
        assert enc.queue_bits(14) == 3

    def test_first_in_first_out_service(self):
        # One-bit blocks on an erasure channel deliver at the first clean
        # use at or after both the block's arrival and the queue freeing.
        cb = BlockCodebook(make_bec(0.4), 1, 0)
        noise = _NoiseSource(make_bec(0.4), 12, 0)
        u = np.zeros(12)
        u[[0, 1, 3, 6, 7, 8]] = 0.99  # erase uses 1, 2, 4, 7, 8, 9
        noise._rng = _Uniforms(u)
        ready = _ready_uses(BEC_CFG, 12)
        assert ready.tolist() == [2, 4, 6, 8, 10, 12]
        # A seventh block, ready after the horizon, is never delivered; the
        # blocks go in windows of two.
        deliveries = _serve(BEC_CFG, cb, block_values(BEC_CFG, 8), np.append(ready, 14), noise,
                            12, size=2)
        assert deliveries.tolist() == [3, 5, 6, 10, 11, 12, math.inf]

    @pytest.mark.parametrize("ch,cfg", [
        (make_bec(0.4), BEC_CFG),
        (make_bsc(0.05), BSC_CFG),
    ])
    def test_block_service_matches_per_use_encoder(self, ch, cfg):
        horizon = 20_000
        cb = BlockCodebook(ch, cfg.payload_bits, cfg.seed)
        values = block_values(cfg, int(horizon * cfg.rate_bits) // cfg.payload_bits + 2)
        cdf, u = _cdf(ch.p), noise_uniforms(horizon, 3)
        enc = FortifiedEncoder(cfg, cb, values)
        for t in range(1, horizon + 1):
            x = enc.next_input(t)
            # Sampled here by inverse CDF from one whole-run draw, independently
            # of the noise source's windows and emit_batch.
            enc.observe(t, channel_output(cdf, x, u[t - 1]))
            # Queue accounting: arrived bits minus confirmed payloads.
            assert enc.queue_bits(t) == (arrived(t, cfg.rate_bits)
                                         - cfg.payload_bits * len(enc.delivery_uses))
        strided = _serve(cfg, cb, values, _ready_uses(cfg, horizon),
                         _NoiseSource(ch, horizon, 3), horizon)
        assert _delivered(strided) == enc.delivery_uses
        assert len(enc.delivery_uses) > 1000

    @pytest.mark.parametrize("cfg", [
        BEC_CFG,
        SchemeConfig(n=2, c=3, l=1, theta=0, rate_bits=0.5, seed=5),
    ])
    def test_backlogged_service_matches_per_use_confirm_loop(self, cfg):
        # Every block is ready at use 1, so the encoder never idles: block k
        # starts the use after block k - 1 is confirmed. On the erasure
        # channel every candidate that fits the outputs has the same per-use
        # log-likelihoods, so score ties are exact in any summation order.
        ch = make_bec(0.4)
        horizon = 20_000
        cb = BlockCodebook(ch, cfg.payload_bits, cfg.seed)
        values = block_values(cfg, horizon + 1)
        served = _serve(cfg, cb, values, np.ones(len(values), dtype=np.int64),
                        _NoiseSource(ch, horizon, 3), horizon)
        expected = backlogged_deliveries(cfg, cb, values, _cdf(ch.p), noise_uniforms(horizon, 3),
                                         horizon)
        assert _delivered(served) == expected
        assert len(expected) > 2000

    @settings(max_examples=100, deadline=None)
    @given(channel=st.sampled_from(sorted(SERVICE_CHANNELS)), payload=st.integers(1, 6),
           l=st.integers(0, 2), extra_n=st.integers(1, 2), c=st.integers(1, 8),
           code_seed=st.integers(0, 2**40), noise_seed=st.integers(0, 2**32 - 1),
           backlogged=st.booleans(), horizon=st.integers(1, 2_500),
           span=st.integers(1, 3_000),
           cells=st.sampled_from([1, 24, sim_anytime._SERVE_BATCH_CELLS]),
           size=st.integers(1, 600))
    def test_batched_service_matches_strided_reference(self, channel, payload, l, extra_n, c,
                                                       code_seed, noise_seed, backlogged,
                                                       horizon, span, cells, size):
        # Ready uses come from the arrival clock at the config's rate, or are
        # all 1; a batch holds one block, a few blocks or the default number,
        # and a window of blocks any number of batches or part of one.
        ch = SERVICE_CHANNELS[channel]
        n = l + extra_n
        cfg = SchemeConfig(n=n, c=c, l=l, rate_bits=payload / (n * c), seed=code_seed)
        if backlogged:
            values = block_values(cfg, horizon + 1)
            ready = np.ones(len(values), dtype=np.int64)
        else:
            values, ready = block_schedule(cfg, span)
        expected = strided_deliveries(cfg, BlockCodebook(ch, payload, code_seed), values,
                                      ready, _cdf(ch.p), noise_uniforms(horizon, noise_seed),
                                      horizon)
        with mock.patch.object(sim_anytime, "_SERVE_BATCH_CELLS", cells):
            served = _serve(cfg, BlockCodebook(ch, payload, code_seed), values, ready,
                            _NoiseSource(ch, horizon, noise_seed), horizon, size)
        assert served.dtype == expected.dtype
        assert np.array_equal(served, expected)

    def test_bec_reduction_tracks_closed_form_exponent(self):
        table = fortified_run(BEC_CFG, make_bec(0.4), 120_000, (6, 10, 14, 18), 0)
        fit = fit_exponent(table)
        assert table.errors == pytest.approx(
            (2.9134e-02, 6.2102e-03, 1.2420e-03, 2.5841e-04), rel=1e-3)
        assert fit.slope == pytest.approx(LN15, rel=0.20)
        assert fit.r_squared > 0.999
        assert table.blocks_confirmed == 60_000
        assert table.punctuation_chunk_errors == 0
        assert table.data_block_errors == 0

    def test_bsc_error_decays_exponentially(self):
        table = fortified_run(self.BSC_CFG, make_bsc(0.05), 150_000, (6, 10, 14, 18),
                              seed=0)
        fit = fit_exponent(table)
        assert fit.slope > 0.2
        assert fit.r_squared > 0.9
        for i in range(len(table.delays) - 1):
            assert table.errors[i + 1] <= table.errors[i]

    def test_clean_channel_never_misses(self):
        cfg = SchemeConfig(n=1, c=2, l=0, theta=0, rate_bits=0.5, seed=0)
        for delays in ((2, 4, 8), (0, 1, 2)):
            table = fortified_run(cfg, IDENTITY, 20_000, delays, 1)
            assert table.errors == (0.0, 0.0, 0.0)
            assert table.missed_bit_weight == 0.0

    def test_deterministic_by_seed(self):
        a = fortified_run(self.BSC_CFG, make_bsc(0.05), 30_000, (6, 10, 14), 4)
        b = fortified_run(self.BSC_CFG, make_bsc(0.05), 30_000, (6, 10, 14), 4)
        c = fortified_run(self.BSC_CFG, make_bsc(0.05), 30_000, (6, 10, 14), 5)
        assert a == b
        assert a != c

    def test_table_text_is_pinned(self):
        table = fortified_run(self.BSC_CFG, make_bsc(0.05), 30_000, (6, 10, 14), 4)
        assert table.to_csv() == (
            "delay,error,trials,half_width\n"
            "6,1.8576767362e-01,6422,9.5121822422e-03\n"
            "10,3.6125817502e-02,6422,4.5639401067e-03\n"
            "14,1.4014325755e-03,6422,9.1496081340e-04\n")

    # The three fortified configs the benchmark runs, at 20,000 uses and run
    # seed 1; config seed 2**40 + 3 seeds each slab from a two-word int.
    PINNED_CONFIGS = {
        "bec": (make_bec(0.4), dict(n=1, c=2, l=0, rate_bits=0.5), (6, 10, 14, 18)),
        "bsc": (make_bsc(0.05), dict(n=2, c=7, l=1, rate_bits=3 / 14), (6, 10, 14, 18)),
        "z": (make_dmc([[1.0, 0.0], [0.3, 0.7]]), dict(n=1, c=2, l=0, rate_bits=0.5),
              (1, 2, 3, 4)),
    }

    @pytest.mark.parametrize("name,code_seed,csv,confirmed,missed", [
        ("bec", 0,
         "6,2.7449408936e-02,9982,3.2053088917e-03\n"
         "10,4.8587457423e-03,9982,1.3641173743e-03\n"
         "14,9.5171308355e-04,9982,6.0491387792e-04\n"
         "18,0.0000000000e+00,9982,0.0000000000e+00\n", 10000, 332.0),
        ("bec", 2**40 + 3,
         "6,2.7449408936e-02,9982,3.2053088917e-03\n"
         "10,4.8587457423e-03,9982,1.3641173743e-03\n"
         "14,9.5171308355e-04,9982,6.0491387792e-04\n"
         "18,0.0000000000e+00,9982,0.0000000000e+00\n", 10000, 332.0),
        ("bsc", 0,
         "6,1.8758765778e-01,4278,1.1698389252e-02\n"
         "10,4.0556334736e-02,4278,5.9111879817e-03\n"
         "14,1.4025245442e-03,4278,1.1214660950e-03\n"
         "18,0.0000000000e+00,4278,0.0000000000e+00\n", 1428, 982.0),
        ("bsc", 2**40 + 3,
         "6,1.8419822347e-01,4278,1.1616377668e-02\n"
         "10,3.5998129967e-02,4278,5.5823182189e-03\n"
         "14,1.8700327256e-03,4278,1.2946543414e-03\n"
         "18,2.3375409070e-04,4278,4.5810446648e-04\n", 1428, 951.0),
        ("z", 0,
         "1,8.8285314126e-02,9996,5.5618164999e-03\n"
         "2,4.0966386555e-02,9996,3.8857395840e-03\n"
         "3,2.4159663866e-02,9996,3.0100781709e-03\n"
         "4,1.3305322129e-02,9996,2.2461928331e-03\n", 9997, 1666.5),
        ("z", 2**40 + 3,
         "1,8.8385354142e-02,9996,5.5646614557e-03\n"
         "2,4.1616646659e-02,9996,3.9151293947e-03\n"
         "3,2.3959583834e-02,9996,2.9978954535e-03\n"
         "4,1.2805122049e-02,9996,2.2041251771e-03\n", 10000, 1667.0),
    ])
    def test_tables_are_pinned_across_seed_widths(self, name, code_seed, csv, confirmed,
                                                  missed):
        ch, fields_, delays = self.PINNED_CONFIGS[name]
        table = fortified_run(SchemeConfig(seed=code_seed, **fields_), ch, 20_000, delays, 1)
        assert table.to_csv() == "delay,error,trials,half_width\n" + csv
        assert table.blocks_confirmed == confirmed
        assert table.missed_bit_weight == missed

    def test_requires_no_flow_uses(self):
        cfg = SchemeConfig(n=1, c=8, l=0, theta=4, rate_bits=0.125)
        with pytest.raises(DomainError):
            fortified_run(cfg, make_bsc(0.05), 10_000, (4,), 0)

    def test_horizon_guard(self):
        with pytest.raises(HorizonTooShortError):
            fortified_run(BEC_CFG, make_bec(0.4), 100, (20,), 0)

    @pytest.mark.parametrize("window", [1, 5, 64, 1 << 16])
    @pytest.mark.parametrize("horizon", [1_003, 1_007, 1_021])
    def test_judges_every_bit_with_its_block(self, monkeypatch, window, horizon):
        # Each bit is delivered with its block, and the bits of the last,
        # partial block never are; at the smallest delays some of those
        # count. A bit misses delay d when it is delivered more than d uses
        # after its arrival, the first use whose count reaches it.
        cfg, ch, delays = self.BSC_CFG, make_bsc(0.05), (0, 1, 3)
        monkeypatch.setattr(sim_queue, "WINDOW", window)
        table = fortified_run(cfg, ch, horizon, delays, 4)
        p = cfg.payload_bits
        n_bits = arrived(horizon, cfg.rate_bits)
        blocks = _serve(cfg, BlockCodebook(ch, p, cfg.seed), block_values(cfg, n_bits // p + 1),
                        _ready_uses(cfg, horizon), _NoiseSource(ch, horizon, 4), horizon)
        delivered = np.full(n_bits, np.inf)
        delivered[:len(blocks) * p] = np.repeat(blocks, p)
        arrivals = np.array([next(t for t in range(1, horizon + 1)
                                  if arrived(t, cfg.rate_bits) >= i)
                             for i in range(1, n_bits + 1)])
        clear = (arrivals > 3) & (arrivals <= horizon - 3)
        assert n_bits % p and clear[-1] and np.isinf(delivered[-1])
        trials = int(np.count_nonzero(clear))
        assert table.trials == (trials,) * 3
        assert table.errors == tuple(
            0.5 * np.count_nonzero(clear & (delivered > arrivals + d)) / trials for d in delays)

    def test_no_clear_bits_fails_before_serving(self, monkeypatch):
        # At 1/1000 bit per use no bit arrives clear of the burn-in, so the
        # run must stop before a single block is served.
        def serve(*args):
            raise AssertionError("served blocks for a run with no clear bits")

        monkeypatch.setattr(sim_anytime, "_serve_blocks", serve)
        cfg = SchemeConfig(n=1, c=1000, l=0, rate_bits=0.001)
        with pytest.raises(HorizonTooShortError):
            fortified_run(cfg, make_bsc(0.1), 50, (5,), 0)


class TestSynthesizedScheme:
    CFG = SchemeConfig(n=2, c=24, l=1, theta=12, rate_bits=1 / 6, seed=0,
                       redecode_window=4)

    def test_frozen_noisy_run(self):
        table = synthesized_run(self.CFG, make_bsc(0.05), 80_000, (24, 48, 72, 96),
                                seed=0)
        assert isinstance(table, SchemeRunResult)
        assert table.errors == pytest.approx(
            (0.4482706766917293, 0.23105263157894737,
             0.03406015037593985, 0.0012406015037593986), rel=1e-12)
        fit = fit_exponent(table)
        assert fit.slope > 0.02
        assert fit.r_squared > 0.9
        # The flow stream settles without a single punctuation error here;
        # residual wrong bits come from provisional window estimates only.
        assert table.punctuation_chunk_errors == 0
        assert table.data_block_errors == 0
        assert table.spurious_confirms == 0
        assert table.blocks_confirmed == 1666
        assert table.wrong_bit_weight == 19.0

    def test_deterministic_by_seed(self):
        a = synthesized_run(self.CFG, make_bsc(0.05), 30_000, (24, 48), 2)
        b = synthesized_run(self.CFG, make_bsc(0.05), 30_000, (24, 48), 2)
        assert a == b

    def test_clean_channel_resolves_all_but_window_edge(self):
        # Underloaded one-bit blocks on the identity channel: every block
        # confirms in its arrival chunk. At the larger delay the window
        # estimate has aged enough to be error-free; at the tighter one a
        # handful of newest-position ties still deny.
        cfg = SchemeConfig(n=1, c=8, l=0, theta=4, rate_bits=0.125, seed=3,
                           redecode_window=4)
        table = synthesized_run(cfg, IDENTITY, 16_000, (16, 24), 5)
        assert table.errors[1] == 0.0
        assert table.errors[0] < 0.01
        assert table.wrong_bit_weight == 0.0
        assert table.missed_bit_weight == 8.0
        assert table.punctuation_chunk_errors == 0
        assert table.data_block_errors == 0
        assert table.spurious_confirms == 0
        assert table.blocks_confirmed == 1999

    def test_table_text_is_pinned(self):
        table = synthesized_run(self.CFG, make_bsc(0.05), 9_600, (24, 48), 2)
        assert table.to_csv() == (
            "delay,error,trials,half_width\n"
            "24,4.5012626263e-01,1584,2.4500624139e-02\n"
            "48,2.3832070707e-01,1584,2.0981930617e-02\n")
        assert table.blocks_confirmed == 199
        assert table.missed_bit_weight == 1090.5

    def test_flow_link_errors_are_pinned(self):
        # One flow use per chunk at window 4: the flow link errs often, so
        # the settled parse takes wrong punctuation and wrong blocks.
        cfg = SchemeConfig(n=2, c=5, l=1, theta=1, rate_bits=0.3, redecode_window=4, seed=0)
        table = synthesized_run(cfg, make_bsc(0.05), 20_000, (5, 10, 20), 0)
        assert table.to_csv() == (
            "delay,error,trials,half_width\n"
            "5,4.9983299933e-01,5988,1.2664415646e-02\n"
            "10,4.9974949900e-01,5988,1.2664414763e-02\n"
            "20,5.0016700067e-01,5988,1.2664415646e-02\n")
        assert table.blocks_confirmed == 1999
        assert table.punctuation_chunk_errors == 2196
        assert table.data_block_errors == 1615
        assert table.spurious_confirms == 1
        assert table.wrong_bit_weight == 13.0
        assert table.missed_bit_weight == 8967.5

    # More runs whose flow link errs often, over l = 0, 1 and 2, windows 2 to
    # 6 and five channels. A settled block counts as wrong when its value is
    # wrong or when the encoder has not closed that block yet; the two
    # BSC(0.15) runs take the second branch hundreds of times, the others
    # only the first. Each run's table and six counters were recorded with
    # the parse states that each kept a copy of the whole decoded history.
    FLOW_ERROR_RUNS = {
        "bsc-l0-w2": (make_bsc(0.05), dict(n=2, c=5, l=0, theta=1, rate_bits=0.3,
                                           redecode_window=2, seed=0), 20_000, (5, 10, 20)),
        "bec-l2-w3": (make_bec(0.3), dict(n=3, c=4, l=2, theta=1, rate_bits=0.25,
                                          redecode_window=3, seed=1), 12_000, (4, 8, 16)),
        "z-l1-w5": (FLOW_CHANNELS["z"], dict(n=2, c=5, l=1, theta=1, rate_bits=0.3,
                                             redecode_window=5, seed=2), 10_000, (5, 10, 20)),
        "3x3-l0-w6": (make_dmc([[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.25, 0.05, 0.7]]),
                      dict(n=2, c=6, l=0, theta=2, rate_bits=0.25, redecode_window=6, seed=3),
                      12_000, (6, 12, 24)),
        "bsc0.15-l2-w2": (make_bsc(0.15), dict(n=3, c=4, l=2, theta=1, rate_bits=0.5,
                                               redecode_window=2, seed=5), 6_000, (4, 8, 16)),
        "bsc0.15-l1-w3": (make_bsc(0.15), dict(n=3, c=4, l=1, theta=1, rate_bits=0.5,
                                               redecode_window=3, seed=0), 6_000, (4, 8, 16)),
    }

    FLOW_ERROR_PINS = [
        ("bsc-l0-w2",
         "5,5.0000000000e-01,5988,1.2664416353e-02\n"
         "10,5.0000000000e-01,5988,1.2664416353e-02\n"
         "20,4.9991649967e-01,5988,1.2664416176e-02\n", (1999, 1076, 1145, 0, 0.0, 8981.5)),
        ("bec-l2-w3",
         "4,4.9883021390e-01,2992,1.7916125358e-02\n"
         "8,4.9782754011e-01,2992,1.7916005277e-02\n"
         "16,4.9465240642e-01,2992,1.7915149673e-02\n", (999, 1338, 801, 9, 56.0, 4406.0)),
        ("z-l1-w5",
         "5,4.9966532798e-01,2988,1.7928158449e-02\n"
         "10,4.9531459170e-01,2988,1.7927375292e-02\n"
         "20,4.8627844712e-01,2988,1.7921410128e-02\n", (999, 1166, 817, 18, 175.0, 4251.0)),
        ("3x3-l0-w6",
         "6,4.9732262383e-01,2988,1.7927905433e-02\n"
         "12,4.8995983936e-01,2988,1.7924547610e-02\n"
         "24,4.7356091031e-01,2988,1.7903080436e-02\n", (997, 467, 805, 5, 61.0, 4304.0)),
        ("bsc0.15-l2-w2",
         "4,4.9966487936e-01,2984,1.7940170606e-02\n"
         "8,4.9597855228e-01,2984,1.7939594368e-02\n"
         "16,4.9229222520e-01,2984,1.7938042865e-02\n", (478, 750, 487, 131, 850.0, 3590.0)),
        ("bsc0.15-l1-w3",
         "4,5.0016756032e-01,2984,1.7940173628e-02\n"
         "8,5.0150804290e-01,2984,1.7940093036e-02\n"
         "16,5.0837801609e-01,2984,1.7937655976e-02\n", (408, 635, 487, 70, 456.0, 4050.0)),
    ]

    @pytest.mark.parametrize("name,csv,counters", FLOW_ERROR_PINS,
                             ids=[pin[0] for pin in FLOW_ERROR_PINS])
    def test_flow_link_errors_are_pinned_across_configs(self, name, csv, counters):
        ch, fields_, horizon, delays = self.FLOW_ERROR_RUNS[name]
        table = synthesized_run(SchemeConfig(**fields_), ch, horizon, delays, 0)
        assert table.to_csv() == "delay,error,trials,half_width\n" + csv
        assert (table.blocks_confirmed, table.punctuation_chunk_errors, table.data_block_errors,
                table.spurious_confirms, table.wrong_bit_weight,
                table.missed_bit_weight) == counters

    def test_bits_due_before_the_first_boundary_are_misses(self):
        # At delays 2 and 5 the deadlines of bits 0-2 (arrivals 6, 12, 18)
        # fall before the first chunk boundary at use 24, so no parse ever
        # resolves them: each counts 1/2 at both delays, like every later bit here.
        table = synthesized_run(self.CFG, make_bsc(0.05), 2_400, (2, 5), 0)
        assert table.trials == (399, 399)
        assert [e * n for e, n in zip(table.errors, table.trials)] == [199.5, 199.5]
        assert table.missed_bit_weight == 399.0
        assert table.wrong_bit_weight == 0.0

    def test_flow_decoder_hashes_only_new_leaves(self, monkeypatch):
        # Work guard: once the window is full a step hashes the letter rows
        # of the 3^4 new leaves only (l = 1, window 4), and the encoder one
        # row per chunk; the digest tree of the leaves grows one level per
        # warm-up step and is then kept. The data stream is parsed once per
        # chunk and estimate: a chunk is walked again only when a newer
        # estimate changes a symbol at or before it.
        rows = extends = walks = 0
        hash_uniforms = sim_anytime._hash_uniforms
        extend = FlowCode.extend
        chunk_letters = _ParseState.chunk_letters

        def counting_hash(digests, chunk_index, count):
            nonlocal rows
            rows += len(digests)
            return hash_uniforms(digests, chunk_index, count)

        def counting_extend(self, digest, message):
            nonlocal extends
            extends += 1
            return extend(self, digest, message)

        def counting_walk(*args):
            nonlocal walks
            walks += 1
            return chunk_letters(*args)

        monkeypatch.setattr(sim_anytime, "_hash_uniforms", counting_hash)
        monkeypatch.setattr(FlowCode, "extend", counting_extend)
        monkeypatch.setattr(_ParseState, "chunk_letters", counting_walk)
        horizon = 12_000
        synthesized_run(self.CFG, make_bsc(0.05), horizon, (24, 48), 0)
        chunks = horizon // self.CFG.c
        warm_up = 3 + 3**2 + 3**3
        assert rows <= chunks * 3**4 + warm_up + chunks
        # The encoder's context is the last 4 messages. The leaves' digest
        # tree adds one level per warm-up step: 3, 9, 27 and 81 nodes.
        assert extends <= 4 * chunks + 3 + 9 + 27 + 81
        # The encoder steps its parse exactly once per chunk; the window parses
        # walk at most a tenth more than that.
        assert walks - chunks <= chunks + chunks // 10

    def test_slab_memo_keeps_every_reuse(self, monkeypatch):
        # On the benchmark's synthesized config the only slab read again is the
        # one a window parse reads just after the encoder: the two-slab memo
        # draws each (block, slab) pair it is asked for once, and never holds more.
        reads, drawn, held = [], 0, 0
        slab = BlockCodebook._slab

        def counting_slab(self, block_id, slab_idx):
            nonlocal drawn, held
            reads.append((block_id, slab_idx))
            drawn += (block_id, slab_idx) not in self._slabs
            draws = slab(self, block_id, slab_idx)
            held = max(held, len(self._slabs))
            return draws

        monkeypatch.setattr(BlockCodebook, "_slab", counting_slab)
        synthesized_run(self.CFG, make_bsc(0.05), 6_000, (24, 48), 0)
        assert drawn == len(set(reads)) < len(reads)
        assert held == 2

    def test_flow_decoder_settles_only_symbols_the_encoder_can_send(self, monkeypatch):
        # A one-bit payload under l = 2: the list holds both candidates, so the
        # encoder sends DENY, confirm(0) or confirm(1), and the decoder searches
        # those three symbols only. The link is not overloaded, ln 3 < 3 C.
        cfg = SchemeConfig(n=3, c=4, l=2, theta=3, rate_bits=1 / 12, redecode_window=3)
        assert (cfg.payload_bits, cfg.list_size) == (1, 2)
        decoders, frozen = [], []
        step = FlowDecoder.step

        def recording_step(self, outputs):
            decoders.append(self)
            newly, best = step(self, outputs)
            frozen.extend(newly)
            return newly, best

        monkeypatch.setattr(FlowDecoder, "step", recording_step)
        table = synthesized_run(cfg, make_bsc(0.05), 24_000, (12, 24, 48), 0)
        assert len(set(map(id, decoders))) == 1
        assert decoders[0].symbols == range(1 + cfg.list_size)
        assert len(frozen) == 5_997
        assert max(frozen) <= cfg.list_size
        assert (table.punctuation_chunk_errors, table.data_block_errors,
                table.spurious_confirms) == (657, 506, 223)
        assert not sim_anytime._overloaded_flow_link(cfg, make_bsc(0.05))

    def test_requires_flow_uses(self):
        with pytest.raises(DomainError):
            synthesized_run(BEC_CFG, make_bec(0.4), 10_000, (4,), 0)

    def test_horizon_guards(self):
        with pytest.raises(HorizonTooShortError):
            synthesized_run(self.CFG, make_bsc(0.05), 200, (24,), 0)
        with pytest.raises(HorizonTooShortError):
            synthesized_run(self.CFG, make_bsc(0.05), 2_000, (600,), 0)

    def test_no_clear_bits_fails_before_drawing_noise(self, monkeypatch):
        # Two chunks fit the window, but at 1/10000 bit per use no bit
        # arrives clear of the burn-in.
        def noise(*args):
            raise AssertionError("drew noise for a run with no clear bits")

        monkeypatch.setattr(sim_anytime, "_NoiseSource", noise)
        cfg = SchemeConfig(n=10, c=1000, l=0, theta=1, rate_bits=1e-4, redecode_window=1)
        with pytest.raises(HorizonTooShortError):
            synthesized_run(cfg, make_bsc(0.1), 2_000, (5,), 0)


class TestNoiseSource:
    @given(window=st.integers(1, 300), horizon=st.integers(1, 2_000),
           seed=st.integers(0, 2**32 - 1),
           steps=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 90), st.booleans()),
                          max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_windowed_reads_equal_one_draw(self, window, horizon, seed, steps):
        # Reads move forward by gaps and lengths, releasing what lies behind
        # them or not; every read sees the uniforms of one whole-run draw.
        u = noise_uniforms(horizon, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim_queue, "WINDOW", window)
            noise = _NoiseSource(make_bsc(0.1), horizon, seed)
            t = reach = 1
            for gap, length, release in steps:
                t = min(t + gap, horizon)
                if release:
                    noise.release(t)
                uses = np.arange(t, min(t + length, horizon + 1))
                np.testing.assert_array_equal(noise.uniforms(uses), u[uses - 1])
                letters = uses % 2
                np.testing.assert_array_equal(noise.emit_batch(letters, t),
                                              noise.emit(letters, u[uses - 1]))
                # Whole windows, none past the one holding the furthest use read.
                reach = max(reach, int(uses[-1]))
                assert noise._first + len(noise._u) - 1 == min(-(-reach // window) * window,
                                                               horizon)

    def test_refuses_a_read_before_the_release_mark(self, monkeypatch):
        # With windows of 4 uses the source has dropped uses 1-7 by the time
        # it draws use 12; reading use 7 then would wrap to another use's uniform.
        monkeypatch.setattr(sim_queue, "WINDOW", 4)
        noise = _NoiseSource(make_bsc(0.1), 100, 0)
        noise.emit_batch(np.zeros(10, dtype=np.int64), 1)
        noise.release(8)
        noise.uniforms(np.array([12, 8]))
        with pytest.raises(RuntimeError, match="internal error: noise read of uses 7 to 9"):
            noise.emit_batch(np.zeros(3, dtype=np.int64), 7)
        with pytest.raises(RuntimeError, match="internal error"):
            noise.uniforms(np.array([9, 7]))

    def test_refuses_a_read_past_the_horizon(self):
        noise = _NoiseSource(make_bsc(0.1), 100, 0)
        noise.emit_batch(np.zeros(4, dtype=np.int64), 97)  # uses 97 to 100
        with pytest.raises(RuntimeError, match="internal error: noise read of uses 98 to 101"):
            noise.emit_batch(np.zeros(4, dtype=np.int64), 98)
        with pytest.raises(RuntimeError, match="internal error"):
            noise.uniforms(np.array([101]))


def _one_window(run, *args):
    """``run(*args)`` with one window holding the whole run: one noise draw, and
    every block of a fortified run served before any is judged."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_queue, "WINDOW", 1 << 62)
        return run(*args)


class TestStreamedRuns:
    # The fortified configs of the benchmark, plus one-bit blocks at 1/2 bit
    # on BEC(0.6), whose capacity is 0.4 bit: the backlog grows, so its
    # blocks run across window edges and its runs end with a block in flight
    # (at 1,001 uses, the 402nd block of 501, sent from use 1,000).
    FORTIFIED = {**TestFortifiedScheme.PINNED_CONFIGS,
                 "bec-over": (make_bec(0.6), dict(n=1, c=2, l=0, rate_bits=0.5), (1, 2, 3, 4))}
    SYNTHESIZED = {
        "bsc-l0-w4": (make_bsc(0.05), dict(n=1, c=8, l=0, theta=4, rate_bits=0.125,
                                           redecode_window=4, seed=3), (16, 24)),
        **{name: (ch, fields_, delays) for name, (ch, fields_, _, delays)
           in TestSynthesizedScheme.FLOW_ERROR_RUNS.items() if name in ("bsc-l0-w2", "bec-l2-w3")},
    }

    @given(name=st.sampled_from(sorted(FORTIFIED)), window=st.integers(1, 3_000),
           horizon=st.integers(200, 6_000), code_seed=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    @example(name="bec-over", window=64, horizon=1_001, code_seed=0, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_fortified_any_window_matches_one_window(self, name, window, horizon, code_seed,
                                                     seed):
        ch, fields_, delays = self.FORTIFIED[name]
        args = (SchemeConfig(seed=code_seed, **fields_), ch, horizon, delays, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim_queue, "WINDOW", window)
            streamed = fortified_run(*args)
        assert streamed == _one_window(fortified_run, *args)

    @given(name=st.sampled_from(sorted(SYNTHESIZED)), window=st.integers(1, 3_000),
           horizon=st.integers(400, 3_000), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_synthesized_any_window_matches_one_window(self, name, window, horizon, seed):
        # A run ends at a chunk boundary, often with a block in flight, and
        # windows of any length cut chunks and blocks anywhere.
        ch, fields_, delays = self.SYNTHESIZED[name]
        args = (SchemeConfig(**fields_), ch, horizon, delays, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim_queue, "WINDOW", window)
            streamed = synthesized_run(*args)
        assert streamed == _one_window(synthesized_run, *args)

    @staticmethod
    def _traced_peak(run, horizon):
        tracemalloc.start()
        try:
            run(horizon)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_fortified_peak_memory_does_not_grow_with_horizon(self):
        # tracemalloc sees numpy's buffers: the peak is one window of blocks
        # and their noise, a few MiB whatever the horizon. A first, untraced
        # run pays the process's one-off costs.
        def run(horizon):
            fortified_run(TestFortifiedScheme.BSC_CFG, make_bsc(0.05), horizon, (6, 10, 14, 18), 0)

        run(20_000)
        small, large = self._traced_peak(run, 200_000), self._traced_peak(run, 800_000)
        assert large < 4 * 2 ** 20
        assert large <= small + 2 ** 18

    def test_synthesized_peak_memory_grows_only_with_blocks(self):
        # The noise is drawn a window at a time: 3x10^5 more uses would hold
        # 2.4 MB of uniforms. What still grows is per block, not per use: the
        # block schedule (two int64 a block) and the decoded history (one
        # list entry a block), here 1,500 more blocks.
        cfg = SchemeConfig(n=1, c=200, l=0, theta=8, rate_bits=0.02, redecode_window=1)

        def run(horizon):
            synthesized_run(cfg, make_bsc(0.05), horizon, (200, 400), 0)

        run(10_000)
        small, large = self._traced_peak(run, 100_000), self._traced_peak(run, 400_000)
        extra_blocks = 300_000 * cfg.rate_bits / cfg.payload_bits
        assert large < 2 * 2 ** 20
        assert large <= small + 2 ** 18 + 48 * extra_blocks
