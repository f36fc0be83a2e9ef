import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayexp import sim_anytime
from delayexp.channel import make_bec, make_bsc, make_dmc
from delayexp.cli import HORIZON_MAX
from delayexp.errors import BadInputError, DomainError
from delayexp.sim_anytime import (
    _CODE_SLAB,
    _CODE_STREAM,
    DENY,
    BlockCodebook,
    FlowCode,
    FlowDecoder,
    PayloadTooLargeError,
    SchemeConfig,
    SchemeRunResult,
    WindowTooLargeError,
    _block_values,
    _blocks,
    _cdf,
    _code_input_dist,
    _confirmable,
    _list_index,
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
    exhaustive_window_search,
    flow_decode,
    parse_history,
)

LN15 = math.log(1.5)
IDENTITY = make_dmc([[1.0, 0.0], [0.0, 1.0]])
FLOW_CHANNELS = {"bsc": make_bsc(0.1), "bec": make_bec(0.4),
                 "z": make_dmc([[1.0, 0.0], [0.3, 0.7]])}
BEC_ERASURE = 2

# The repeat-until-confirm reduction of the fortified scheme on a BEC.
BEC_CFG = SchemeConfig(n=1, c=2, l=0, theta=0, rate_bits=0.5, seed=0)


def _ready_uses(cfg, horizon):
    """The use at which each full block fed at the config rate is ready: the
    arrival of its last bit, taken here from every bit's arrival."""
    p = cfg.payload_bits
    return arrival(np.arange(1, arrived(horizon, cfg.rate_bits) + 1), cfg.rate_bits)[p - 1::p]


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
           st.integers(0, 3), st.integers(1, 3_000))
    @settings(max_examples=60, deadline=None)
    def test_block_schedule_is_the_arrival_of_each_last_bit(self, shape, seed, span):
        # Both block schemes read one schedule: every full block is ready at
        # its last bit's arrival, and one more block, ready after the run,
        # holds the bits of the last, partial one.
        n, c, rate = shape
        cfg = SchemeConfig(n=n, c=c, l=0, rate_bits=rate, seed=seed)
        values, ready = _blocks(cfg, span)
        np.testing.assert_array_equal(ready[:-1], _ready_uses(cfg, span))
        assert ready[-1] > span
        np.testing.assert_array_equal(values, _block_values(cfg, len(ready)))


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
        # (seed, _CODE_STREAM, block, slab), up to the horizon cap's block ids.
        cb = BlockCodebook(channel, payload, seed)
        for block_id, slab_idx in [(0, 0), (1, 3), (2**16 + 1, 1), (HORIZON_MAX, 0)]:
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
        # The encoder confirms as entry 1 + _list_index, and the decoder reads
        # that entry of _ranked: on a confirmable block it is the truth, so
        # the encoder's timeline never needs the values it confirmed.
        scores = np.array(raw)
        truth %= len(scores)
        if _confirmable(scores, truth, list_len):
            assert _ranked(scores, list_len)[_list_index(scores, truth)] == truth

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
    values = _block_values(cfg, chunks)
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
        enc = FortifiedEncoder(self.BSC_CFG, cb, _block_values(self.BSC_CFG, 4))
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
        noise.u[:] = 0.0
        noise.u[[0, 1, 3, 6, 7, 8]] = 0.99  # erase uses 1, 2, 4, 7, 8, 9
        ready = _ready_uses(BEC_CFG, 12)
        assert ready.tolist() == [2, 4, 6, 8, 10, 12]
        # A seventh block, ready after the horizon, is never delivered.
        deliveries = _serve_blocks(BEC_CFG, cb, _block_values(BEC_CFG, 8),
                                   np.append(ready, 14), noise, 12)
        assert deliveries.tolist() == [3, 5, 6, 10, 11, 12, math.inf]

    @pytest.mark.parametrize("ch,cfg", [
        (make_bec(0.4), BEC_CFG),
        (make_bsc(0.05), BSC_CFG),
    ])
    def test_block_service_matches_per_use_encoder(self, ch, cfg):
        horizon = 20_000
        cb = BlockCodebook(ch, cfg.payload_bits, cfg.seed)
        values = _block_values(cfg, int(horizon * cfg.rate_bits) // cfg.payload_bits + 2)
        noise = _NoiseSource(ch, horizon, 3)
        enc = FortifiedEncoder(cfg, cb, values)
        for t in range(1, horizon + 1):
            x = enc.next_input(t)
            # Sampled here by inverse CDF, independently of emit_batch.
            enc.observe(t, int(np.searchsorted(noise.cdf[x], noise.u[t - 1], side="right")))
            # Queue accounting: arrived bits minus confirmed payloads.
            assert enc.queue_bits(t) == (arrived(t, cfg.rate_bits)
                                         - cfg.payload_bits * len(enc.delivery_uses))
        strided = _serve_blocks(cfg, cb, values, _ready_uses(cfg, horizon),
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
        values = _block_values(cfg, horizon + 1)
        noise = _NoiseSource(ch, horizon, 3)
        served = _serve_blocks(cfg, cb, values, np.ones(len(values), dtype=np.int64),
                               noise, horizon)
        expected = backlogged_deliveries(cfg, cb, values, noise, horizon)
        assert _delivered(served) == expected
        assert len(expected) > 2000

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
        monkeypatch.setattr(sim_anytime, "WINDOW", window)
        table = fortified_run(cfg, ch, horizon, delays, 4)
        p = cfg.payload_bits
        n_bits = arrived(horizon, cfg.rate_bits)
        blocks = _serve_blocks(cfg, BlockCodebook(ch, p, cfg.seed),
                               _block_values(cfg, n_bits // p + 1), _ready_uses(cfg, horizon),
                               _NoiseSource(ch, horizon, 4), horizon)
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
        walk_chunk = sim_anytime._walk_chunk

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
            return walk_chunk(*args)

        monkeypatch.setattr(sim_anytime, "_hash_uniforms", counting_hash)
        monkeypatch.setattr(FlowCode, "extend", counting_extend)
        monkeypatch.setattr(sim_anytime, "_walk_chunk", counting_walk)
        horizon = 12_000
        synthesized_run(self.CFG, make_bsc(0.05), horizon, (24, 48), 0)
        chunks = horizon // self.CFG.c
        warm_up = 3 + 3**2 + 3**3
        assert rows <= chunks * 3**4 + warm_up + chunks
        # The encoder's context is the last 4 messages. The leaves' digest
        # tree adds one level per warm-up step: 3, 9, 27 and 81 nodes.
        assert extends <= 4 * chunks + 3 + 9 + 27 + 81
        assert walks <= chunks + chunks // 10

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
