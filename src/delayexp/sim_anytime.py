"""Closed-loop simulation of chunked feedback coding schemes.

Two schemes share one mechanical core. In both, data bits queue at the
encoder, are grouped into fixed-size payload blocks, and each block is
transmitted as a random codeword that the decoder list-decodes; a
confirm/deny control message tells the decoder when (and as which list
entry) a block is resolved.

* ``fortified_run``: the control messages travel a noiseless side link,
  modeled as one confirm/deny opportunity per channel use. Control is
  never wrong, so all residual errors are missed deadlines.
* ``synthesized_run``: control rides the same channel. Each chunk of
  ``c`` uses ends with ``theta`` flow-control uses carrying a tree-coded
  confirm/deny stream; the decoder maximum-likelihood-decodes a sliding
  window of that stream and parses the data stream under its current
  punctuation estimate, walking again only the chunks whose estimate moved.

Everything is deterministic given the config seed (code randomness) and
the run seed (channel noise). Desk-scale caps keep all decoding searches
exhaustive and exact: payloads of at most 14 bits and flow hypothesis
windows of at most 24 bits.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import MISSING, dataclass, fields
from hashlib import blake2b

import numpy as np

from . import _pcg64, sim_queue
from .channel import Channel, capacity
from .errors import _SIZE_MAX, BadInputError, DomainError, _json_object, _number, _read_json, _seed
from .exponents import _positive_capacity, e0_max
from .sim_queue import (MISS_WEIGHT, DeadlineGrid, DelayErrorTable, HorizonTooShortError, arrival,
                        arrived)

IDLE_LETTER = 0
PAYLOAD_BITS_MAX = 14
FLOW_HYPOTHESIS_BITS_MAX = 24

# Substream tags keep the independent random ingredients of a run apart.
_NOISE_STREAM = 0xA1  # channel noise, keyed by the run seed
_BITS_STREAM = 0xB2   # message content, keyed by the config seed
_CODE_STREAM = 0xC3   # data codebooks, keyed by the config seed
_FLOW_SALT = b"flow"  # tree-code root, keyed by the config seed

# A flow symbol is one chunk-boundary control message: DENY, or 1 + j to
# confirm the block in flight as list entry j.
DENY = 0

_CODE_SLAB = 256
# Block ids, codeword positions and counts are below 2^32, so that each block id
# and slab index is one 32-bit entropy word; a run has fewer than 10^8 uses.
_WORD_END = 1 << 32
# A codebook keeps its last two slabs: the reuse that pays is a window parse reading
# again the slab the encoder has just read. The largest i.i.d. slab takes 4 MiB.
# On the benchmark's configs at seed 0, the synthesized run reads 2,933 slabs of
# 1,249 (block, slab) pairs and draws each pair once (1,259 draws with one slab
# kept); the fortified runs read 25 to 54 slabs, none twice, as their head
# letters come from the PCG64 kernel.
_SLAB_MEMO = 2
# A multi-bit coset codebook reads a batch's head letters through the PCG64
# kernel in calls of _HEAD_KERNEL_MIN to _HEAD_KERNEL_MAX blocks. Below the
# minimum it reads each block's first slab: a call took about 170 us plus 11 us
# a block, a slab 27-30 us, even at 11 blocks. Above the maximum it splits the
# batch, which keeps a call's working arrays near 0.7 MB (129 raw outputs a
# block): 128 blocks took 9.1 us a block in calls of 64 against 10.5 in one
# call, and 256 blocks 9.2 against 11.0, while calls of 32 took 11.3-12.1 us.
_HEAD_KERNEL_MIN = 12
_HEAD_KERNEL_MAX = 64
_LOG_ZERO = -1e30


class PayloadTooLargeError(DomainError):
    """Block payload exceeds the exhaustive-enumeration cap."""


class WindowTooLargeError(DomainError):
    """Flow re-decode window exceeds the exhaustive-search cap."""


# -- configuration -----------------------------------------------------------

@dataclass(frozen=True)
class SchemeConfig:
    """Parameters of a chunked feedback scheme.

    ``n`` is the block length in chunks' worth of data uses, ``c`` the
    chunk length in channel uses, ``l`` the list parameter (list size
    2^list_bits with list_bits = min(l, payload_bits), at most the
    2^payload_bits candidates; a flow symbol confirms one entry of the
    list), ``theta`` the per-chunk flow-control uses (0 for the fortified
    scheme, whose flow link is a noiseless side link; the synthesized
    scheme needs at least 1), ``rate_bits`` the arrival rate in bits per
    channel use, ``seed`` the code/message seed, and ``redecode_window``
    how many trailing chunks of flow history are re-decoded each chunk.
    """

    n: int
    c: int
    l: int
    theta: int = 0
    rate_bits: float = 0.5
    seed: int = 0
    redecode_window: int = 4

    def __post_init__(self):
        def check(name, lo=-math.inf, hi=math.inf, ends="[)", **kinds):
            value = _number(getattr(self, name), f"scheme config {name}", lo, hi, ends, **kinds)
            object.__setattr__(self, name, value)  # the converted value, on a frozen instance

        # Every malformed field is refused before any field out of its range.
        for name in ("n", "c", "l", "theta", "redecode_window"):
            check(name, integer=True, error=BadInputError)
        object.__setattr__(self, "seed", _seed(self.seed, "scheme config seed"))
        check("rate_bits", ends="[]")  # a bool is malformed, NaN out of range
        check("rate_bits", 0, ends="()")
        # Sizes up to an int64, so that n * c * rate_bits is a float.
        check("c", 1, _SIZE_MAX, "[]", integer=True)
        check("l", 0, integer=True)
        check("n", self.l, _SIZE_MAX, "(]", integer=True)
        check("theta", 0, self.c, integer=True)
        check("redecode_window", 1, integer=True)
        raw = self.n * self.c * self.rate_bits
        if not math.isfinite(raw) or abs(raw - round(raw)) > 1e-6 or round(raw) < 1:
            raise DomainError(
                f"block payload n*c*rate_bits = {raw} must be a whole number of bits >= 1")

    @property
    def payload_bits(self) -> int:
        return round(self.n * self.c * self.rate_bits)

    @property
    def list_bits(self) -> int:
        return min(self.l, self.payload_bits)

    @property
    def list_size(self) -> int:
        return 1 << self.list_bits

    @property
    def data_uses_per_chunk(self) -> int:
        return self.c - self.theta

    @classmethod
    def from_dict(cls, payload: dict) -> "SchemeConfig":
        return cls(**_json_object(payload, "scheme config", [f.name for f in fields(cls)],
                                  [f.name for f in fields(cls) if f.default is MISSING]))

    @classmethod
    def from_json(cls, path) -> "SchemeConfig":
        return cls.from_dict(_read_json(path, f"scheme config {path}"))


@dataclass(frozen=True)
class SchemeRunResult(DelayErrorTable):
    """A DelayErrorTable plus how the scheme's failures decompose.

    ``blocks_confirmed`` counts the blocks the encoder saw confirmed;
    ``punctuation_chunk_errors`` counts settled flow messages that differ
    from what the encoder sent; ``data_block_errors`` counts settled
    confirmations whose decoded payload is wrong; ``spurious_confirms``
    counts estimated confirms that were dynamically impossible under the
    parse and were ignored. ``wrong_bit_weight`` sums the weight of judged
    bits decoded wrongly (1 each), ``missed_bit_weight`` that of judged bits
    not yet decoded (1/2 each), over every delay.
    """

    blocks_confirmed: int = 0
    punctuation_chunk_errors: int = 0
    data_block_errors: int = 0
    spurious_confirms: int = 0
    wrong_bit_weight: float = 0.0
    missed_bit_weight: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        for name, value in self.counters.items():  # set on a frozen instance
            integer = type(getattr(SchemeRunResult, name)) is int  # counts; weights are floats
            object.__setattr__(self, name, _number(value, name, 0, integer=integer))

    @property
    def counters(self) -> dict:
        """The failure counters by name: the fields this class adds to a DelayErrorTable."""
        return {f.name: getattr(self, f.name) for f in fields(self)[len(fields(DelayErrorTable)):]}


def _overloaded_flow_link(cfg: SchemeConfig, ch: Channel) -> bool:
    """Whether a chunk's flow symbol, DENY or one confirm per list entry, needs more
    than its ``theta`` flow uses carry: ln(1 + list size) > theta * C nats."""
    return math.log(1 + cfg.list_size) > cfg.theta * capacity(ch)


# -- deterministic random ingredients ---------------------------------------

class _NoiseSource:
    """Per-use channel noise: one uniform per channel use, indexed by time.

    The uniforms are drawn ``sim_queue.WINDOW`` uses at a time from one
    generator, which gives the same draws as one call over the horizon. The
    source holds the uses from its release mark to the last one drawn: its
    caller releases the uses it will not read again, and a read before the
    mark or past the horizon is an internal error.
    """

    def __init__(self, ch: Channel, horizon: int, seed: int):
        self._rng = np.random.default_rng(np.random.SeedSequence((_seed(seed), _NOISE_STREAM)))
        self.horizon = horizon
        self.cdf = _cdf(ch.p)
        self._u = np.empty(0)  # the uniforms of uses _first, _first + 1, ...
        self._first = 1
        self._mark = 1  # the first use not released

    def release(self, use: int) -> None:
        """Release the uses before ``use``: no later read reaches them."""
        self._mark = max(self._mark, use)

    def uniforms(self, uses: np.ndarray) -> np.ndarray:
        """The uniform of each use (1-based) of the nonempty int array ``uses``."""
        self._draw(int(uses.min()), int(uses.max()))
        return self._u[uses - self._first]

    def emit_batch(self, letters: np.ndarray, t0: int) -> np.ndarray:
        """Outputs for a run of consecutive uses starting at 1-based t0."""
        self._draw(t0, t0 + len(letters) - 1)
        return self.emit(letters, self._u[t0 - self._first:t0 - self._first + len(letters)])

    def emit(self, letters: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The output of each input letter under the uniform of the same index."""
        # Entry-wise searchsorted(..., side="right"); each cdf row ends at 1 > u,
        # so every output is a valid letter.
        return (self.cdf[letters] <= u[..., None]).sum(axis=-1)

    def _draw(self, lo: int, hi: int) -> None:
        """Hold uses lo to hi: draw the windows up to the one holding hi, and
        drop the released uses when drawing."""
        if not (self._mark <= lo and hi <= self.horizon):
            raise RuntimeError(f"internal error: noise read of uses {lo} to {hi} outside "
                               f"the unreleased uses {self._mark} to {self.horizon}")
        end = self._first + len(self._u)  # the first use not drawn
        if hi >= end:
            window = sim_queue.WINDOW
            last = min(-(-hi // window) * window, self.horizon)
            drawn = self._rng.random(last - end + 1)[max(self._mark - end, 0):]
            self._u = np.concatenate((self._u[self._mark - self._first:], drawn))
            self._first = self._mark


def _blocks(cfg: SchemeConfig, span: int, size: int):
    """Yield (first block, values, ready uses) for consecutive runs of ``size``
    blocks of a run of ``span`` uses: each block's value and ready use (its last
    bit's arrival), plus one block for the last, partial block's bits, ready
    after the run. The values come from one generator, which gives the same
    draws as one call over every block."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _BITS_STREAM)))
    n_blocks = arrived(span, cfg.rate_bits) // cfg.payload_bits + 1
    for first in range(0, n_blocks, size):
        ids = np.arange(first + 1, min(first + size, n_blocks) + 1)
        yield (first, rng.integers(0, 1 << cfg.payload_bits, size=len(ids), dtype=np.int64),
               arrival(cfg.payload_bits * ids, cfg.rate_bits))


def _code_input_dist(ch: Channel) -> np.ndarray:
    # Uniform, exactly, on symmetric channels: e0_max takes its shortcut there.
    _positive_capacity(ch)  # both schemes build their codes before any draw
    return np.asarray(e0_max(ch, 1.0).q)


def _uint32_words(value: int) -> list[int]:
    """The 32-bit words of a nonnegative int, least significant first (at least one)."""
    return [value >> shift & 0xFFFFFFFF for shift in range(0, max(value.bit_length(), 1), 32)]


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, the last entry forced to 1."""
    cdf = np.cumsum(probs, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def _log_likelihoods(ch: Channel) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(ch.p > 0, np.log(np.where(ch.p > 0, ch.p, 1.0)), _LOG_ZERO)


# -- data-block codebooks ----------------------------------------------------

class BlockCodebook:
    """Per-block random codewords, reproducible from (seed, block, position).

    For binary-input channels with a uniform code distribution the
    codebook is a random coset code: candidate m's letter at position t is
    <m, g_t> xor s_t with g_t a uniform nonzero mask and s_t a uniform
    dither. Pairwise codeword agreement is exactly 1/2 per position and at
    one-bit payloads the two codewords are antipodal. Other channels fall
    back to i.i.d. letters drawn from the code distribution.
    """

    def __init__(self, ch: Channel, payload_bits: int, seed: int):
        # Any number >= 1 first, so that one past the cap is refused as too large.
        _number(payload_bits, "payload bits", 1, ends="[]")
        self.n_candidates = 1 << _number(payload_bits, "payload bits", 1, PAYLOAD_BITS_MAX, "[]",
                                         integer=True, error=PayloadTooLargeError)
        self.seed = _seed(seed)
        # SeedSequence((seed, _CODE_STREAM, block, slab)) reads each int as its
        # 32-bit words, least significant first; handing it those words as one
        # uint32 array gives the same generator without its per-int conversion.
        # A block id and a slab index, below 2^32, are one word each.
        self._entropy_head = [*_uint32_words(self.seed), _CODE_STREAM]
        q = _code_input_dist(ch)
        self.logp = _log_likelihoods(ch)
        self.coset = ch.inputs == 2 and np.max(np.abs(q - 0.5)) < 1e-9
        if self.coset:
            self._parity = np.array([i.bit_count() & 1 for i in range(self.n_candidates)],
                                    dtype=np.int8)
            self._candidates = np.arange(self.n_candidates, dtype=np.int64)[:, None]
        else:
            self._qcdf = _cdf(q)
        self._slabs: dict[tuple[int, int], tuple] = {}

    def _slab(self, block_id: int, slab_idx: int):
        """The memoized draws of one block's slab; read-only, since callers get views."""
        key = (block_id, slab_idx)
        slab = self._slabs.get(key)
        if slab is None:
            entropy = np.array([*self._entropy_head, block_id, slab_idx], dtype=np.uint32)
            rng = np.random.default_rng(np.random.SeedSequence(entropy))
            if self.coset:
                # One-bit payloads have the single mask 1, which numpy returns
                # without drawing from the stream.
                g = rng.integers(1, self.n_candidates, size=_CODE_SLAB, dtype=np.int64)
                s = rng.integers(0, 2, size=_CODE_SLAB, dtype=np.int8)
                slab = (g, s)
            else:
                u = rng.random((self.n_candidates, _CODE_SLAB))
                slab = (np.searchsorted(self._qcdf, u, side="right")
                        .astype(np.int8, copy=False),)
            for part in slab:
                part.flags.writeable = False
            self._slabs[key] = slab
            if len(self._slabs) > _SLAB_MEMO:
                self._slabs.pop(next(iter(self._slabs)))
        return slab

    def _coset_letters(self, g: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Every candidate m's letters <m, g> xor s under masks ``g`` and dithers ``s``
        (one row each, or one row per block), the candidates on the second-last axis."""
        return self._parity[self._candidates & g[..., None, :]] ^ s[..., None, :]

    def _columns(self, block_id: int, slab_idx: int, lo: int, hi: int) -> np.ndarray:
        """Letters of every candidate over offsets [lo, hi) of one slab."""
        slab = self._slab(block_id, slab_idx)
        if self.coset:
            g, s = slab
            return self._coset_letters(g[lo:hi], s[lo:hi])
        return slab[0][:, lo:hi]

    def head_letters(self, first: int, count: int) -> np.ndarray:
        """Letters (int8) of every candidate over positions [0, _SERVE_STRIDE_MIN)
        of blocks ``first`` to ``first + count - 1`` (block ids below 2^32): a
        (blocks, candidates, positions) array, each block's first slab read
        through :meth:`_columns`.

        The letters come from the raw outputs of the blocks' first-slab
        generators, which :mod:`._pcg64` computes for every block at once, read
        as numpy's Generator reads them:

        * candidate c's i.i.d. letter j is ``random()`` at raw output 256c + j;
        * a coset code's 256 masks ``integers(1, 2^p, int64)`` take one uint32
          draw u each, the halves of raw outputs 0-127, low half first (the one
          mask of a one-bit payload takes none). A mask is
          ``1 + (u * (2^p - 1) >> 32)``, unless Lemire's rule rejects u, when
          ``u * (2^p - 1) mod 2^32 < 2^32 mod (2^p - 1)``, and draws again
          (Lemire 2019, "Fast random integer generation in an interval");
        * the dither ``integers(0, 2, int8)`` is the top bit of each byte of the
          next raw output, low byte first (range 2 never rejects).

        A multi-bit coset block whose masks had a draw rejected reads its first
        slab through :meth:`_slab` instead, since its dither lies further on.
        So does every block of a multi-bit coset batch of fewer than
        ``_HEAD_KERNEL_MIN`` blocks, where one kernel call costs more than a
        slab per block; a larger batch goes to the kernel in calls of at most
        ``_HEAD_KERNEL_MAX`` blocks.
        """
        first = _number(first, "block id", 0, _WORD_END, integer=True)
        # A count below 2^32 whose last block id is below 2^32 too.
        count = _number(count, "block count", 0, min(_WORD_END - 1, _WORD_END - first), "[]",
                        integer=True)
        width = _SERVE_STRIDE_MIN
        if not self.coset:
            u = (self._head_raw(first, count) >> 11) * 2.0 ** -53  # Generator.random's double
            return np.searchsorted(self._qcdf, u, side="right").astype(np.int8)
        # The dither bits are the top bits of the last raw output's bytes.
        dither_shifts = 8 * np.arange(width, dtype=np.uint64) + 7
        if self.n_candidates == 2:
            s = (self._head_raw(first, count) >> dither_shifts & 1).astype(np.int8)
            return self._coset_letters(np.ones(width, dtype=np.int64), s)
        span = self.n_candidates - 1
        g = np.empty((count, width), dtype=np.int64)
        s = np.empty((count, width), dtype=np.int8)
        # A batch below the minimum reads every block's slab, as a rejected block does.
        kernel = count if count >= _HEAD_KERNEL_MIN else 0
        rejected = list(range(kernel, count))
        for lo in range(0, kernel, _HEAD_KERNEL_MAX):
            raw = self._head_raw(first + lo, min(_HEAD_KERNEL_MAX, count - lo))
            s[lo:lo + len(raw)] = raw[:, -1:] >> dither_shifts & 1
            # Each raw output before the dither's is two draws, low half first.
            draws = raw[:, :-1, None] >> np.array([0, 32], dtype=np.uint64) & 0xFFFFFFFF
            scaled = draws.reshape(len(raw), -1) * span
            g[lo:lo + len(raw)] = (scaled[:, :width] >> 32) + 1
            rejected += (lo + np.flatnonzero(
                (scaled & 0xFFFFFFFF < (1 << 32) % span).any(axis=1))).tolist()
        for i in rejected:
            g[i], s[i] = (part[:width] for part in self._slab(first + i, 0))
        return self._coset_letters(g, s)

    def _head_raw(self, first: int, count: int) -> np.ndarray:
        """The raw outputs at :attr:`_head_jumps` of the first-slab generators of
        blocks ``first`` to ``first + count - 1``, one row per block."""
        head = np.array(self._entropy_head, dtype=np.uint32)[:, None]
        words = np.concatenate([np.repeat(head, count, axis=1),
                                np.arange(first, first + count, dtype=np.uint32)[None],
                                np.zeros((1, count), dtype=np.uint32)])  # slab index 0
        return _pcg64.raw_outputs(words, self._head_jumps)

    @functools.cached_property
    def _head_jumps(self):
        """The LCG jumps to the raw outputs that the head letters read: a coset
        code's mask draws and the dither after them, or each candidate's first
        uniforms."""
        if self.coset:
            return _pcg64.jumps(np.arange(_CODE_SLAB // 2 + 1 if self.n_candidates > 2 else 1))
        return _pcg64.jumps(_CODE_SLAB * np.arange(self.n_candidates)[:, None]
                            + np.arange(_SERVE_STRIDE_MIN))

    def candidates_range(self, block_id: int, start: int, count: int) -> np.ndarray:
        """Letters (int8) of every candidate over positions [start, start+count).

        A range inside one slab of an i.i.d. codebook is a read-only view of
        the memoized slab.
        """
        block_id = _number(block_id, "block id", 0, _WORD_END, integer=True)
        start = _number(start, "codeword position", 0, _WORD_END, integer=True)
        count = _number(count, "letter count", 0, _WORD_END, integer=True)
        first, off = divmod(start, _CODE_SLAB)
        if off + count <= _CODE_SLAB:
            return self._columns(block_id, first, off, off + count)
        last = (start + count - 1) // _CODE_SLAB
        return np.concatenate(
            [self._columns(block_id, i, max(start - i * _CODE_SLAB, 0),
                           min(start + count - i * _CODE_SLAB, _CODE_SLAB))
             for i in range(first, last + 1)], axis=1)


def _ranked(scores: np.ndarray, k: int) -> np.ndarray:
    """The indices of the ``k`` highest scores, ties broken by ascending index."""
    return np.argsort(-scores, kind="stable")[:k]


def _confirmable(scores: np.ndarray, truth_scores, list_len: int):
    # Strict separation: the truth and everything scoring at least as high
    # must all fit in the list, so the confirmed index is unambiguous under
    # any tie ordering. An all-tied chunk (e.g. all-erased outputs) denies.
    # Candidates run along axis 0, and ``truth_scores`` is the truth's row:
    # one verdict per entry of that row.
    return (scores >= truth_scores).sum(axis=0) <= list_len


# -- flow-control tree code --------------------------------------------------

def _token(symbol: int) -> bytes:
    """The bytes the tree code hashes for one flow symbol."""
    return b"1:%d" % (symbol - 1) if symbol != DENY else b"0"


def _hash_uniforms(digests, chunk_index: int, count: int) -> np.ndarray:
    """One row of ``count`` uniforms in [0, 1) per digest, all at one chunk.

    Row i is the little-endian 64-bit words of blake2b(digests[i] + chunk
    index + block number), 64 bytes per block, over 2^64.
    """
    n_blocks = (count * 8 + 63) // 64
    suffixes = [chunk_index.to_bytes(8, "little") + b.to_bytes(2, "little")
                for b in range(n_blocks)]
    raw = b"".join(blake2b(digest + suffix, digest_size=64).digest()
                   for digest in digests for suffix in suffixes)
    words = np.frombuffer(raw, dtype=np.uint64).reshape(len(digests), n_blocks * 8)
    return words[:, :count].astype(np.float64) / 2.0 ** 64


class FlowCode:
    """Tree code over the flow slots, hashed from the recent message history.

    The letters of chunk k are derived from a seeded hash of the chunk
    index and the last ``memory`` messages ending at chunk k. Histories
    that first differ at chunk k therefore get independent letters for
    ``memory`` consecutive chunks -- in particular for every hypothesis
    pair a window decoder of depth at most ``memory`` can compare -- while
    a difference older than ``memory`` chunks ages out, so a settled
    decoding error desynchronizes the stream only transiently instead of
    permanently. The scheme sets ``memory`` to its re-decode window, the
    shortest memory that separates every window hypothesis pair; the
    letters are drawn from the channel's code input distribution.
    """

    def __init__(self, ch: Channel, theta: int, seed: int, memory: int):
        # The hash numbers a row's 64-byte blocks in two bytes: 2^16 blocks of 8 letters.
        self.theta = _number(theta, "theta", 1, 1 << 19, "[]", integer=True)
        self.memory = _number(memory, "memory", 1, integer=True)
        self._qcdf = _cdf(_code_input_dist(ch))
        self._root = blake2b(_FLOW_SALT + (_seed(seed) & (2 ** 64 - 1)).to_bytes(8, "little"),
                             digest_size=16).digest()

    def extend(self, digest: bytes, symbol: int) -> bytes:
        return blake2b(digest + _token(symbol), digest_size=16).digest()

    def context_digest(self, history) -> bytes:
        """Digest of the trailing ``memory`` symbols of a history sequence."""
        digest = self._root
        for symbol in history[-self.memory:]:
            digest = self.extend(digest, symbol)
        return digest

    def letters(self, digest: bytes, chunk_index: int) -> np.ndarray:
        return self.letter_rows([digest], chunk_index)[0]

    def letter_rows(self, digests, chunk_index: int) -> np.ndarray:
        """The letters of chunk ``chunk_index`` under each digest, one row each."""
        u = _hash_uniforms(digests, _number(chunk_index, "chunk index", 0, 1 << 64, integer=True),
                           self.theta)
        return np.searchsorted(self._qcdf, u, side="right").astype(np.int64)


class FlowDecoder:
    """Sliding-window exact-ML decoder of the tree-coded message stream.

    The window is the code's memory. Each step appends one chunk of flow
    outputs. Once the window is full, appending first freezes the oldest
    chunk's message under the current best path (decision feedback); the
    search then covers only the trailing window. Ties prefer the lower
    symbol: deny, then confirm(0), confirm(1), ...

    The window hypotheses form a tree with one layer per pending chunk,
    each layer's nodes in enumeration order. A node's letters depend only
    on its chunk index and the last ``memory`` messages up to it, so its
    log-likelihood holds from step to step: after a freeze, layer d is the
    block of the old layer d + 1 under the frozen message. A step hashes
    and scores only the new deepest layer. With memory equal to the window
    that layer's context is its own hypothesis path, never a frozen
    message, so its digests are the same leaves of one tree grown from the
    code's root, one level per warm-up step. ``step`` returns each frozen
    symbol once; the decoder keeps none of them, nor any outputs.
    """

    def __init__(self, code: FlowCode, ch: Channel, l: int):
        # The window holds memory * (l + 1) hypothesis bits; the list holds 2^l entries.
        l = _number(l, f"list bits at a window of {code.memory} chunks", 0,
                    FLOW_HYPOTHESIS_BITS_MAX // code.memory - 1, "[]", integer=True,
                    error=WindowTooLargeError)
        self.code = code
        self.logp = _log_likelihoods(ch)
        self.symbols = range(1 + (1 << l))
        self.base_chunk = 0
        self._layers: list[np.ndarray] = []  # per-node log-likelihood of each pending chunk
        self._best: list[int] = []           # symbols of the best path
        self._leaves = [code.context_digest(())]  # digests of the deepest layer's nodes

    def _search(self, outputs) -> list[int]:
        # Score the new deepest layer, then sum node scores along every path
        # in chunk order, as a depth-first scan adds them; np.argmax keeps
        # the first, enumeration-least, of equal maxima.
        depth = len(self._layers) + 1
        letters = self.code.letter_rows(self._leaves, self.base_chunk + depth - 1)
        self._layers.append(self.logp[letters, outputs].sum(axis=1))
        k = len(self.symbols)
        score = np.zeros(1)
        for layer in self._layers:
            score = np.repeat(score, k) + layer
        return [int(i) for i in np.unravel_index(int(np.argmax(score)), (k,) * depth)]

    def step(self, outputs) -> tuple[list[int], list[int]]:
        """Consume one chunk of flow outputs.

        Returns (newly frozen symbols, current best estimate for the
        pending window). The full history estimate is every symbol frozen
        so far plus the window estimate.
        """
        newly: list[int] = []
        if len(self._layers) == self.code.memory:
            head = self._best[0]
            newly.append(head)
            self.base_chunk += 1
            k = len(self.symbols)
            self._layers = [layer[head * (len(layer) // k):(head + 1) * (len(layer) // k)]
                            for layer in self._layers[1:]]
        else:
            self._leaves = [self.code.extend(d, m) for d in self._leaves for m in self.symbols]
        self._best = self._search(outputs)
        return newly, list(self._best)


# -- the data-stream parse ---------------------------------------------------

@dataclass(slots=True)
class _ParseState:
    """Decoder-side reconstruction of the encoder's block timeline. ``scores``
    is ``None`` until the block in flight scores a chunk; ``score`` rebinds it
    rather than adding in place, so a shallow copy is an independent state."""

    next_block: int = 0
    active: bool = False
    pos: int = 0
    scores: np.ndarray | None = None
    spurious: int = 0

    def chunk_letters(self, codebook: BlockCodebook, ready: np.ndarray, t: int,
                      span: int) -> np.ndarray | None:
        """Open the next block if it is ready by use t, the chunk's first use; return
        every candidate's letters of the block in flight over the chunk's ``span``
        data uses, ``None`` when no block is in flight."""
        if not self.active and t >= ready[self.next_block]:
            self.active = True
            self.pos = 0
            self.scores = None
        return codebook.candidates_range(self.next_block, self.pos, span) if self.active else None

    def score(self, codebook: BlockCodebook, letters: np.ndarray, outputs) -> None:
        """Add one chunk's data-use log-likelihoods to every candidate's score."""
        chunk = codebook.logp[letters, outputs].sum(axis=1)
        self.scores = chunk if self.scores is None else self.scores + chunk
        self.pos += letters.shape[1]

    def apply(self, symbol: int, list_len: int) -> int | None:
        """On a confirm, close the block in flight as the list entry it names; return its value."""
        if symbol == DENY:
            return None
        if not self.active:
            # A confirm with no block in flight is impossible under this
            # parse; ignore it and remember that the estimate disagreed.
            self.spurious += 1
            return None
        self.active = False
        self.next_block += 1
        return int(_ranked(self.scores, list_len)[symbol - 1])


# -- the fortified scheme ----------------------------------------------------

_SERVE_STRIDE_MIN = 8
_SERVE_STRIDE_MAX = 512
# A batch holds at most this many (block, candidate) pairs, which keeps its
# working arrays near 250 kB; above 10 payload bits a batch is one block.
_SERVE_BATCH_CELLS = 1024
# Speculation stops once a round finds more than this share of the blocks it
# redid moved again: such a round settles too little to pay for itself.
_SETTLE_RATIO = 0.9


def _first_strides(logp: np.ndarray, noise: _NoiseSource, head: np.ndarray,
                   values: np.ndarray, starts: np.ndarray, horizon: int,
                   list_len: int) -> np.ndarray:
    """Each block's confirm offset within its first stride from use ``starts[i]``,
    ``-1`` if it is still in flight after the stride or at the horizon.

    The same sums and the same confirm rule as the first stride of
    :func:`_serve_block`, for a batch of blocks at once. Uses past the
    horizon read the horizon's uniform and are masked, never confirmed.
    """
    rows = np.arange(len(starts))
    uses = starts[:, None] + np.arange(_SERVE_STRIDE_MIN)
    outputs = noise.emit(head[rows, values], noise.uniforms(np.minimum(uses, horizon)))
    cum = logp[head.transpose(1, 0, 2), outputs].cumsum(axis=2)  # (candidates, blocks, uses)
    ok = _confirmable(cum, cum[values, rows], list_len) & (uses <= horizon)
    offset = ok.argmax(axis=1)
    return np.where(ok[rows, offset], offset, -1)


def _speculate(logp: np.ndarray, noise: _NoiseSource, head: np.ndarray, values: np.ndarray,
               ready: np.ndarray, t_free: int, horizon: int,
               list_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Guessed starts of a batch of blocks and their first-stride confirm offsets.

    The first guess is ``max(ready, t_free)``, exact for the batch's first
    block. Each further round re-guesses a start as the use after the
    predecessor's guessed delivery (a predecessor still in flight after its
    stride frees the link no sooner) and serves again only the blocks whose
    guess moved. Each round redoes at most ``_SETTLE_RATIO`` of the last
    one's blocks, so all rounds together serve at most ten batches' worth
    of first strides, and a backlogged batch, whose guesses all move, costs
    one round.
    """
    starts = np.maximum(ready, t_free)
    offsets = _first_strides(logp, noise, head, values, starts, horizon, list_len)
    redone = len(starts)
    while True:
        freed = starts + np.where(offsets >= 0, offsets, _SERVE_STRIDE_MIN) + 1
        guess = np.maximum(ready[1:], freed[:-1])
        stale = 1 + np.flatnonzero(guess != starts[1:])
        if not 0 < len(stale) <= _SETTLE_RATIO * redone:
            return starts, offsets
        starts[stale] = guess[stale - 1]
        offsets[stale] = _first_strides(logp, noise, head[stale], values[stale],
                                        starts[stale], horizon, list_len)
        redone = len(stale)


def _serve_block(codebook: BlockCodebook, noise: _NoiseSource, block: int, value: int,
                 head: np.ndarray, t: int, horizon: int, list_len: int) -> int | None:
    """The delivery use of one block sent from use t, ``None`` if the horizon
    ends first; ``head`` holds its first-stride letters.

    The block runs in strides that test the confirm condition after every
    use, as a per-use encoder does, but add the log-likelihoods in another
    order: float rounding can break a score tie that is exact in real
    arithmetic the other way (not on the erasure channel, whose ties are
    exact in floats too).
    """
    logp = codebook.logp
    scores = None  # the candidates' scores before the stride, as a column
    pos = 0
    stride = _SERVE_STRIDE_MIN
    while t <= horizon:
        take = min(stride, horizon - t + 1)
        stride = min(stride * 4, _SERVE_STRIDE_MAX)
        letters = head[:, :take] if pos == 0 else codebook.candidates_range(block, pos, take)
        cum = logp[letters, noise.emit_batch(letters[value], t)].cumsum(axis=1)
        if scores is not None:
            cum += scores
        ok = _confirmable(cum, cum[value], list_len)
        j = int(ok.argmax())
        if ok[j]:
            return t + j
        scores = cum[:, -1:]
        pos += take
        t += take
    return None


def _serve_window(codebook: BlockCodebook, first: int, values: np.ndarray, ready: np.ndarray,
                  noise: _NoiseSource, horizon: int, t_free: int,
                  list_len: int) -> tuple[np.ndarray, int]:
    """The delivery use of each block of a window that starts at block ``first``
    (``+inf`` if the horizon ends first) and the use at which the link is free
    after them, past the horizon once it has ended. The window releases the
    noise of the uses before the link is free, which none of its blocks reads.

    Blocks go in batches of at most ``_SERVE_BATCH_CELLS`` (block, candidate)
    pairs. A batch reads its head letters in one call and serves every
    block's first stride from a guessed start in a few vectorized rounds
    (:func:`_speculate`). One pass in block order then settles the batch: a
    block whose guess was its exact start and that confirmed within the
    stride takes its guessed delivery, and any other block is served by
    :func:`_serve_block` from its exact start.
    """
    deliveries = np.full(len(ready), np.inf)
    if t_free > horizon:
        return deliveries, t_free
    noise.release(t_free)
    batch = max(_SERVE_BATCH_CELLS // codebook.n_candidates, 1)
    for lo in range(0, len(ready), batch):
        block_ready = np.asarray(ready[lo:lo + batch], dtype=np.int64)
        block_values = np.asarray(values[lo:lo + len(block_ready)], dtype=np.int64)
        head = codebook.head_letters(first + lo, len(block_ready))
        starts, offsets = _speculate(codebook.logp, noise, head, block_values, block_ready,
                                     t_free, horizon, list_len)
        for i, (t_ready, guessed, offset) in enumerate(
                zip(block_ready.tolist(), starts.tolist(), offsets.tolist())):
            t = max(t_ready, t_free)
            if t == guessed and offset >= 0:
                delivered = t + offset
            elif t > horizon:
                return deliveries, t
            else:
                delivered = _serve_block(codebook, noise, first + lo + i, int(block_values[i]),
                                         head[i], t, horizon, list_len)
                if delivered is None:  # the horizon ended with the block in flight
                    return deliveries, horizon + 1
            deliveries[lo + i] = delivered
            t_free = delivered + 1
    return deliveries, t_free


def _serve_blocks(cfg: SchemeConfig, codebook: BlockCodebook, blocks, noise: _NoiseSource,
                  horizon: int):
    """Yield (first block, deliveries) for each window (first block, values,
    ready uses) of ``blocks``: the delivery use of each block under the ideal
    flow link, ``+inf`` if the horizon ends first.

    Block k is sent from use ``ready[k]`` (its last bit's arrival, or 1 when
    blocks are always backlogged) or after block k - 1 is confirmed, and is
    served as :func:`_serve_block` serves it; the deliveries equal those of
    serving the blocks one at a time. The use at which the link is free
    carries from window to window (:func:`_serve_window`).
    """
    t_free = 1
    for first, values, ready in blocks:
        deliveries, t_free = _serve_window(codebook, first, values, ready, noise, horizon, t_free,
                                           cfg.list_size)
        yield first, deliveries


def fortified_run(cfg: SchemeConfig, ch: Channel, horizon: int, delays,
                  seed: int) -> SchemeRunResult:
    """Closed-loop run of the scheme with an ideal flow link.

    Control messages are never corrupted, so confirmed blocks are always
    correct and the only error events are deadlines missed while a block
    is still in flight (weight 1/2 each, as in the queue simulator). The
    run draws, serves and judges one window of blocks at a time, about
    ``sim_queue.WINDOW`` bits in whole serve batches, and drops it before
    the next, so its memory does not grow with the horizon.
    """
    if cfg.theta != 0:
        raise DomainError("fortified mode requires theta == 0")
    grid = DeadlineGrid(delays, horizon, cfg.rate_bits)
    horizon = grid.horizon
    payload = cfg.payload_bits
    # The codebook caps the payload before any per-block array is sized.
    codebook = BlockCodebook(ch, payload, cfg.seed)
    # Windows of whole serve batches: a window ending in a partial batch would
    # cost one more head-letter kernel call.
    batch = max(_SERVE_BATCH_CELLS // codebook.n_candidates, 1)
    size = max(sim_queue.WINDOW // payload // batch, 1) * batch
    counts = np.zeros(len(grid.delays), dtype=np.int64)
    confirmed = 0
    for first, deliveries in _serve_blocks(cfg, codebook, _blocks(cfg, horizon, size),
                                           _NoiseSource(ch, horizon, seed), horizon):
        counts += grid.misses(first * payload, np.repeat(deliveries, payload))
        confirmed += int(np.count_nonzero(np.isfinite(deliveries)))
    weights = MISS_WEIGHT * counts
    return grid.table(weights, SchemeRunResult, blocks_confirmed=confirmed,
                      missed_bit_weight=float(weights.sum()))


# -- the synthesized scheme --------------------------------------------------

def synthesized_run(cfg: SchemeConfig, ch: Channel, horizon: int, delays,
                    seed: int) -> SchemeRunResult:
    """Closed-loop run with flow control on the shared channel.

    Each chunk sends c - theta data uses followed by theta tree-coded flow
    uses. The decoder ML-decodes the flow stream over a sliding window,
    parses the data stream once per chunk and window estimate, and
    resolves each bit's deadline at the last boundary not after it
    (unresolved bits count 1/2, wrongly decoded bits count 1).

    :func:`fortified_run` with theta 0 is not an ideal-flow twin of this
    run: it may confirm after any use, over a free side link, while a chunk
    here confirms only at its end. A twin that isolates the flow link's
    errors needs a noiseless flow link at the same chunk boundaries.
    """
    least = cfg.redecode_window + 1  # chunks: the flow window, and one to freeze
    chunks = _number(horizon, f"horizon for {least} chunks of {cfg.c} uses", least * cfg.c,
                     _SIZE_MAX, "[]", integer=True, error=HorizonTooShortError) // cfg.c
    span = chunks * cfg.c
    grid = DeadlineGrid(delays, span, cfg.rate_bits)

    payload = cfg.payload_bits
    # The codebook caps the payload before any per-bit array is sized.
    codebook = BlockCodebook(ch, payload, cfg.seed)
    list_len = cfg.list_size
    data_len = cfg.data_uses_per_chunk
    if cfg.theta == 0:
        raise DomainError("synthesized mode requires theta >= 1 flow-control uses per chunk")
    # Memory equal to the window keeps every window hypothesis pair fully
    # separated while letting a rare settled error age out of the hash
    # context as fast as possible (resync after window - 1 clean commits).
    # It also means no frozen message enters the newest chunk's context, so
    # the decoder hashes one fixed tree of window paths.
    flow_code = FlowCode(ch, cfg.theta, cfg.seed, cfg.redecode_window)
    flow_dec = FlowDecoder(flow_code, ch, cfg.list_bits)
    _, values, ready = next(_blocks(cfg, span, _SIZE_MAX))  # one window of every block
    noise = _NoiseSource(ch, span, seed)

    encoder = _ParseState()  # truth-side block timeline; its confirms decode to ``values``
    # The pending chunks' data rows and true symbols, oldest first, and the
    # window estimate with the parse after each of its chunks; parses[0] is
    # the settled parse, the head of every window parse.
    rows: list[np.ndarray] = []
    sent: list[int] = []
    estimate: list[int] = []
    parses = [_ParseState()]
    decoded: list[int] = []  # the newest parse's values, parses[-1].next_block of them
    punctuation_errors = 0
    data_block_errors = 0

    wrong_weight = {d: 0.0 for d in grid.delays}
    miss_weight = {d: 0.0 for d in grid.delays}

    def judge(boundary: int, decoded: list[int]) -> None:
        # Resolve every judged (bit, delay) whose last boundary at or before its
        # deadline is use ``boundary``: the deadline falls in [boundary, boundary + c).
        for d in grid.delays:
            for i in range(grid.due(d, boundary), grid.due(d, boundary + cfg.c)):
                b, offset = divmod(i, payload)
                if b >= len(decoded):
                    miss_weight[d] += MISS_WEIGHT
                elif (decoded[b] ^ int(values[b])) >> (payload - 1 - offset) & 1:
                    wrong_weight[d] += 1.0

    # Bits due before the first chunk ends meet use 0, with no block decoded.
    judge(0, [])
    for k in range(chunks):
        base = k * cfg.c
        # Data portion: the encoder walks the true parse with the decoder's
        # steps, transmitting the active block's codeword on the way.
        letters = encoder.chunk_letters(codebook, ready, base + 1, data_len)
        symbol = DENY
        if letters is None:
            rows.append(noise.emit_batch(np.full(data_len, IDLE_LETTER, dtype=np.int64), base + 1))
        else:
            value = int(values[encoder.next_block])
            rows.append(noise.emit_batch(letters[value], base + 1))
            encoder.score(codebook, letters, rows[-1])
            if _confirmable(encoder.scores, encoder.scores[value], list_len):
                # The confirm names the true block's entry in the decoder's list.
                symbol = 1 + int(np.flatnonzero(_ranked(encoder.scores, list_len) == value)[0])
        encoder.apply(symbol, list_len)
        sent.append(symbol)
        # Flow portion, tree-coded over the recent true symbol history.
        flow_letters = flow_code.letters(flow_code.context_digest(sent), k)
        flow_out = noise.emit_batch(flow_letters, base + data_len + 1)

        newly_frozen, window_best = flow_dec.step(flow_out)
        if newly_frozen:
            # The decoder froze the head of its last estimate, so the parse
            # after that chunk is the new settled parse.
            if newly_frozen[0] != sent[0]:
                punctuation_errors += 1
            del sent[0], rows[0], estimate[0]
            before, settled = parses.pop(0), parses[0]
            slot = before.next_block  # the block the settled chunk closes, if any
            if settled.next_block > slot and (slot >= encoder.next_block
                                              or decoded[slot] != values[slot]):
                data_block_errors += 1
        # Keep the parses of the prefix the new estimate shares with the old
        # one and walk only the rest.
        keep = 0
        while keep < len(estimate) and estimate[keep] == window_best[keep]:
            keep += 1
        del parses[keep + 1:]
        del decoded[parses[keep].next_block:]
        first = k + 1 - len(window_best)  # the oldest pending chunk
        for j in range(keep, len(window_best)):
            state = copy.copy(parses[-1])
            letters = state.chunk_letters(codebook, ready, (first + j) * cfg.c + 1, data_len)
            if letters is not None:
                state.score(codebook, letters, rows[j])
            closed = state.apply(window_best[j], list_len)
            if closed is not None:
                decoded.append(closed)
            parses.append(state)
        estimate = window_best
        judge(base + cfg.c, decoded)
        noise.release(base + cfg.c + 1)

    totals = [wrong_weight[d] + miss_weight[d] for d in grid.delays]
    return grid.table(totals, SchemeRunResult,
                      blocks_confirmed=encoder.next_block,
                      punctuation_chunk_errors=punctuation_errors,
                      data_block_errors=data_block_errors,
                      spurious_confirms=parses[0].spurious,
                      wrong_bit_weight=sum(wrong_weight.values()),
                      missed_bit_weight=sum(miss_weight.values()))
