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
import json
import math
from dataclasses import MISSING, dataclass, fields
from hashlib import blake2b

import numpy as np

from .channel import Channel
from .errors import BadInputError, DomainError
from .exponents import e0_max
from .sim_queue import (MISS_WEIGHT, WINDOW, DeadlineGrid, DelayErrorTable, HorizonTooShortError,
                        arrival, arrived)

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
    2^l), ``theta`` the per-chunk flow-control uses (0 means the ideal
    noiseless link), ``rate_bits`` the arrival rate in bits per channel
    use, ``seed`` the code/message seed, and ``redecode_window`` how many
    trailing chunks of flow history are re-decoded each chunk.
    """

    n: int
    c: int
    l: int
    theta: int = 0
    rate_bits: float = 0.5
    seed: int = 0
    redecode_window: int = 4

    def __post_init__(self):
        # bool is a subclass of int: without its own check `true` would pass as 1.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in (int, "int") and (isinstance(value, bool) or not isinstance(value, int)):
                raise BadInputError(f"scheme config {f.name} must be an integer, got {value!r}")
        if isinstance(self.rate_bits, bool) or not isinstance(self.rate_bits, (int, float)):
            raise BadInputError(f"scheme config rate_bits must be a number, got {self.rate_bits!r}")
        if self.seed < 0:
            raise BadInputError(f"scheme config seed must be >= 0, got {self.seed}")
        if self.c < 1:
            raise DomainError(f"chunk length must be >= 1, got {self.c}")
        if not self.n > self.l >= 0:
            raise DomainError(f"need n > l >= 0, got n={self.n}, l={self.l}")
        if not 0 <= self.theta < self.c:
            raise DomainError(f"need 0 <= theta < c, got theta={self.theta}, c={self.c}")
        if not 0 < self.rate_bits < math.inf:
            raise DomainError(f"rate_bits must be positive and finite, got {self.rate_bits}")
        if self.redecode_window < 1:
            raise DomainError(f"redecode_window must be >= 1, got {self.redecode_window}")
        try:
            raw = float(self.n * self.c * self.rate_bits)
        except OverflowError:  # an integer field too large for a float
            raw = math.inf
        if not math.isfinite(raw) or abs(raw - round(raw)) > 1e-6 or round(raw) < 1:
            raise DomainError(
                f"block payload n*c*rate_bits = {raw} must be a whole number of bits >= 1")

    @property
    def payload_bits(self) -> int:
        return int(round(self.n * self.c * self.rate_bits))

    @property
    def data_uses_per_chunk(self) -> int:
        return self.c - self.theta

    @classmethod
    def from_dict(cls, payload: dict) -> "SchemeConfig":
        if not isinstance(payload, dict):
            raise BadInputError("scheme config must be a JSON object")
        extra = set(payload) - {f.name for f in fields(cls)}
        if extra:
            raise BadInputError(f"unknown scheme config keys: {sorted(extra)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(payload)
        if missing:
            raise BadInputError(f"scheme config is missing keys: {sorted(missing)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise BadInputError(f"bad scheme config: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "SchemeConfig":
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise BadInputError(f"cannot read scheme config {path}: {exc}") from exc
        return cls.from_dict(payload)


@dataclass(frozen=True)
class SchemeRunResult(DelayErrorTable):
    """A DelayErrorTable plus how the scheme's failures decompose.

    ``punctuation_chunk_errors`` counts settled flow messages that differ
    from what the encoder sent; ``data_block_errors`` counts settled
    confirmations whose decoded payload is wrong; ``spurious_confirms``
    counts estimated confirms that were dynamically impossible under the
    parse and were ignored.
    """

    blocks_confirmed: int = 0
    punctuation_chunk_errors: int = 0
    data_block_errors: int = 0
    spurious_confirms: int = 0
    wrong_bit_weight: float = 0.0
    missed_bit_weight: float = 0.0


# -- deterministic random ingredients ---------------------------------------

class _NoiseSource:
    """Per-use channel noise: one uniform per channel use, indexed by time."""

    def __init__(self, ch: Channel, horizon: int, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), _NOISE_STREAM)))
        self.u = rng.random(int(horizon))
        self.cdf = _cdf(ch.p)

    def emit_batch(self, letters: np.ndarray, t0: int) -> np.ndarray:
        """Outputs for a run of consecutive uses starting at 1-based t0."""
        u = self.u[t0 - 1:t0 - 1 + len(letters)]
        # Row-wise searchsorted(..., side="right"); each cdf row ends at 1 > u,
        # so every output is a valid letter.
        return (self.cdf[letters] <= u[:, None]).sum(axis=1)


def _block_values(cfg: SchemeConfig, count: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((int(cfg.seed), _BITS_STREAM)))
    return rng.integers(0, 1 << cfg.payload_bits, size=max(count, 1), dtype=np.int64)


def _blocks(cfg: SchemeConfig, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Each block's value and ready use (its last bit's arrival) in a run of ``span``
    uses, plus one block for the last, partial block's bits, ready after the run."""
    n_blocks = arrived(span, cfg.rate_bits) // cfg.payload_bits + 1
    ready = arrival(cfg.payload_bits * np.arange(1, n_blocks + 1), cfg.rate_bits)
    return _block_values(cfg, n_blocks), ready


def _code_input_dist(ch: Channel) -> np.ndarray:
    # Uniform, exactly, on symmetric channels: e0_max takes its shortcut there.
    return np.asarray(e0_max(ch, 1.0).q)


def _uint32_words(value: int) -> list[int]:
    """The 32-bit words of a nonnegative int, least significant first (at least one)."""
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


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
        if payload_bits > PAYLOAD_BITS_MAX:
            raise PayloadTooLargeError(
                f"payload of {payload_bits} bits exceeds the cap of {PAYLOAD_BITS_MAX}")
        if payload_bits < 1:
            raise DomainError("payload must hold at least one bit")
        self.n_candidates = 1 << payload_bits
        self.seed = int(seed)
        # SeedSequence((seed, _CODE_STREAM, block, slab)) reads each int as its
        # 32-bit words, least significant first; handing it those words as one
        # uint32 array gives the same generator without its per-int conversion.
        self._entropy_head = [*_uint32_words(self.seed), _CODE_STREAM]
        q = _code_input_dist(ch)
        self.logp = _log_likelihoods(ch)
        self.coset = ch.inputs == 2 and np.max(np.abs(q - 0.5)) < 1e-9
        if self.coset:
            par = np.zeros(self.n_candidates, dtype=np.int8)
            for i in range(1, self.n_candidates):
                par[i] = par[i >> 1] ^ (i & 1)
            self._parity = par
            self._candidates = np.arange(self.n_candidates, dtype=np.int64)[:, None]
            self._unit_masks = np.ones(_CODE_SLAB, dtype=np.int64)
        else:
            self._qcdf = _cdf(q)
        self._slabs: dict[tuple[int, int], tuple] = {}

    def _slab(self, block_id: int, slab_idx: int):
        """The cached draws of one block's slab; read-only, since callers get views."""
        key = (block_id, slab_idx)
        slab = self._slabs.get(key)
        if slab is None:
            entropy = np.array([*self._entropy_head, *_uint32_words(block_id),
                                *_uint32_words(slab_idx)], dtype=np.uint32)
            rng = np.random.default_rng(np.random.SeedSequence(entropy))
            if self.coset:
                # One-bit payloads have the single mask 1, which numpy draws
                # without touching the stream; skip the call.
                g = (rng.integers(1, self.n_candidates, size=_CODE_SLAB, dtype=np.int64)
                     if self.n_candidates > 2 else self._unit_masks)
                s = rng.integers(0, 2, size=_CODE_SLAB, dtype=np.int8)
                slab = (g, s)
            else:
                u = rng.random((self.n_candidates, _CODE_SLAB))
                slab = (np.searchsorted(self._qcdf, u, side="right")
                        .astype(np.int8, copy=False),)
            for part in slab:
                part.flags.writeable = False
            if len(self._slabs) > 64:
                self._slabs.pop(next(iter(self._slabs)))
            self._slabs[key] = slab
        return slab

    def _columns(self, block_id: int, slab_idx: int, lo: int, hi: int) -> np.ndarray:
        """Letters of every candidate over offsets [lo, hi) of one slab."""
        slab = self._slab(block_id, slab_idx)
        if self.coset:
            g, s = slab
            return self._parity[self._candidates & g[lo:hi]] ^ s[lo:hi]
        return slab[0][:, lo:hi]

    def candidates_range(self, block_id: int, start: int, count: int) -> np.ndarray:
        """Letters (int8) of every candidate over positions [start, start+count).

        A range inside one slab of an i.i.d. codebook is a read-only view of
        the cached slab.
        """
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


def _confirmable(scores: np.ndarray, truth: int, list_len: int):
    # Strict separation: the truth and everything scoring at least as high
    # must all fit in the list, so the confirmed index is unambiguous under
    # any tie ordering. An all-tied chunk (e.g. all-erased outputs) denies.
    # Candidates run along axis 0; a 2-D block gives one verdict per column.
    return (scores >= scores[truth]).sum(axis=0) <= list_len


def _list_index(scores: np.ndarray, truth: int) -> int:
    s = scores[truth]
    return int(np.count_nonzero(scores > s) + np.count_nonzero(scores[:truth] == s))


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
        if theta < 1:
            raise DomainError(f"theta must be >= 1, got {theta}")
        if memory < 1:
            raise DomainError(f"memory must be >= 1, got {memory}")
        self.theta = theta
        self.memory = int(memory)
        self._qcdf = _cdf(_code_input_dist(ch))
        self._root = blake2b(_FLOW_SALT + (int(seed) & (2 ** 64 - 1)).to_bytes(8, "little"),
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
        u = _hash_uniforms(digests, int(chunk_index), self.theta)
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
        if code.memory * (l + 1) > FLOW_HYPOTHESIS_BITS_MAX:
            raise WindowTooLargeError(
                f"window of {code.memory} chunks at l={l} exceeds "
                f"{FLOW_HYPOTHESIS_BITS_MAX} hypothesis bits")
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

    def open_block(self, ready: np.ndarray, t: int) -> None:
        """Start the next block if it is ready by use t, the chunk's first use."""
        if not self.active and t >= ready[self.next_block]:
            self.active = True
            self.pos = 0
            self.scores = None

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
        order = _ranked(self.scores, list_len)
        self.active = False
        self.next_block += 1
        return int(order[min(symbol - 1, len(order) - 1)])


def _walk_chunk(state: _ParseState, cfg: SchemeConfig, codebook: BlockCodebook,
                ready: np.ndarray, chunk_index: int, symbol: int, data_outputs: np.ndarray,
                list_len: int) -> int | None:
    """Advance a parse by one chunk under one (estimated) flow symbol; return what it decodes."""
    state.open_block(ready, chunk_index * cfg.c + 1)
    span = cfg.data_uses_per_chunk
    if state.active:
        state.score(codebook, codebook.candidates_range(state.next_block, state.pos, span),
                    data_outputs)
    return state.apply(symbol, list_len)


# -- the fortified scheme ----------------------------------------------------

_SERVE_STRIDE_MIN = 8
_SERVE_STRIDE_MAX = 512


def _serve_blocks(cfg: SchemeConfig, codebook: BlockCodebook, values: np.ndarray,
                  ready, noise: _NoiseSource, horizon: int) -> np.ndarray:
    """The delivery use of each block under the ideal flow link, ``+inf`` if
    the horizon ends first.

    Block k is sent from use ``ready[k]`` (its last bit's arrival, or 1 when
    blocks are always backlogged) or after block k - 1 is confirmed. Each
    block runs in vectorized strides that test the confirm condition after
    every use, as a per-use encoder does, but add the log-likelihoods in
    another order: float rounding can break a score tie that is exact in
    real arithmetic the other way (not on the erasure channel, whose ties
    are exact in floats too).
    """
    list_len = min(1 << cfg.l, codebook.n_candidates)
    logp = codebook.logp
    deliveries = np.full(len(ready), np.inf)
    t_free = 1
    for block, t_ready in enumerate(ready):
        t_start = max(int(t_ready), t_free)
        if t_start > horizon:
            break
        value = int(values[block])
        scores = None  # the candidates' scores before the stride, as a column
        pos = 0
        t = t_start
        stride = _SERVE_STRIDE_MIN
        while t <= horizon:
            take = min(stride, horizon - t + 1)
            stride = min(stride * 4, _SERVE_STRIDE_MAX)
            letters = codebook.candidates_range(block, pos, take)
            cum = logp[letters, noise.emit_batch(letters[value], t)].cumsum(axis=1)
            if scores is not None:
                cum += scores
            ok = _confirmable(cum, value, list_len)
            j = int(ok.argmax())
            if ok[j]:
                deliveries[block] = t + j
                t_free = t + j + 1
                break
            scores = cum[:, -1:]
            pos += take
            t += take
        if t > horizon:  # the horizon ended with the block still in flight
            break
    return deliveries


def fortified_run(cfg: SchemeConfig, ch: Channel, horizon: int, delays,
                  seed: int) -> SchemeRunResult:
    """Closed-loop run of the scheme with an ideal flow link.

    Control messages are never corrupted, so confirmed blocks are always
    correct and the only error events are deadlines missed while a block
    is still in flight (weight 1/2 each, as in the queue simulator). The
    run keeps per-block state only; its bits are judged ``WINDOW`` at a time.
    """
    if cfg.theta != 0:
        raise DomainError("fortified mode requires theta == 0")
    grid = DeadlineGrid(delays, horizon, cfg.rate_bits)
    horizon = grid.horizon
    payload = cfg.payload_bits
    # The codebook caps the payload before any per-block array is sized.
    codebook = BlockCodebook(ch, payload, cfg.seed)
    values, ready = _blocks(cfg, horizon)
    noise = _NoiseSource(ch, horizon, seed)
    deliveries = _serve_blocks(cfg, codebook, values, ready, noise, horizon)

    step = max(WINDOW // payload, 1)
    counts = sum(grid.misses(b * payload, np.repeat(deliveries[b:b + step], payload))
                 for b in range(0, len(deliveries), step))
    weights = MISS_WEIGHT * counts
    return grid.table(weights, SchemeRunResult,
                      blocks_confirmed=int(np.count_nonzero(np.isfinite(deliveries))),
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

    The ideal-flow twin is :func:`fortified_run` on the same config with
    theta 0: an error-free flow link carries nothing the fortified model
    does not already deliver, so its reserved slots return to the data.
    """
    if cfg.theta < 1:
        raise DomainError("synthesized mode requires theta >= 1")
    chunks = int(horizon) // cfg.c
    span = chunks * cfg.c
    grid = DeadlineGrid(delays, span, cfg.rate_bits)
    if chunks < cfg.redecode_window + 1:
        raise HorizonTooShortError(
            f"horizon {horizon} holds {chunks} chunks of {cfg.c} uses; the flow "
            f"window needs {cfg.redecode_window + 1}")

    payload = cfg.payload_bits
    # The codebook caps the payload before any per-bit array is sized.
    codebook = BlockCodebook(ch, payload, cfg.seed)
    list_len = min(1 << cfg.l, codebook.n_candidates)
    data_len = cfg.data_uses_per_chunk
    values, ready = _blocks(cfg, span)
    # Memory equal to the window keeps every window hypothesis pair fully
    # separated while letting a rare settled error age out of the hash
    # context as fast as possible (resync after window - 1 clean commits).
    # It also means no frozen message enters the newest chunk's context, so
    # the decoder hashes one fixed tree of window paths.
    flow_code = FlowCode(ch, cfg.theta, cfg.seed, cfg.redecode_window)
    flow_dec = FlowDecoder(flow_code, ch, cfg.l)
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
        encoder.open_block(ready, base + 1)
        value = int(values[encoder.next_block])
        if encoder.active:
            letters = codebook.candidates_range(encoder.next_block, encoder.pos, data_len)
            row = noise.emit_batch(letters[value], base + 1)
            encoder.score(codebook, letters, row)
        else:
            row = noise.emit_batch(np.full(data_len, IDLE_LETTER, dtype=np.int64), base + 1)
        rows.append(row)
        if encoder.active and _confirmable(encoder.scores, value, list_len):
            # The list index puts the true block at the confirmed position.
            symbol = 1 + _list_index(encoder.scores, value)
        else:
            symbol = DENY
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
            closed = _walk_chunk(state, cfg, codebook, ready, first + j, window_best[j], rows[j],
                                 list_len)
            if closed is not None:
                decoded.append(closed)
            parses.append(state)
        estimate = window_best
        judge(base + cfg.c, decoded)

    totals = [wrong_weight[d] + miss_weight[d] for d in grid.delays]
    return grid.table(totals, SchemeRunResult,
                      blocks_confirmed=encoder.next_block,
                      punctuation_chunk_errors=punctuation_errors,
                      data_block_errors=data_block_errors,
                      spurious_confirms=parses[0].spurious,
                      wrong_bit_weight=sum(wrong_weight.values()),
                      missed_bit_weight=sum(miss_weight.values()))
