"""Direct reference forms of what the package computes in batches.

Each function here is a per-use, whole-history or brute-force version of a
step that ``delayexp`` runs in vectorized, incremental or shortcut form;
tests drive both and compare. Nothing here is on the path of a command.
"""

import math

import numpy as np

from delayexp.channel import SYMMETRY_ATOL, OutOfRangeError
from delayexp.exponents import _e0_from_powers, _powers, _simplex_grid
from delayexp.sim_anytime import (
    DENY,
    IDLE_LETTER,
    FlowCode,
    FlowDecoder,
    _confirmable,
    _blocks,
    _list_index,
    _ParseState,
    _walk_chunk,
)
from delayexp.sim_queue import (
    MISS_WEIGHT,
    QUEUE_STREAM,
    DeadlineGrid,
    DelayErrorTable,
    _error_columns,
    arrived,
)


class FortifiedEncoder:
    """Data encoder whose confirm/deny link is ideal: checked every use.

    The encoder simulates the decoder from the fed-back outputs, so it
    knows exactly when the decoder could confirm; the confirm (with its
    list index) is then delivered error-free. ``sim_anytime._serve_blocks``
    serves the same blocks in strides and must deliver at the same uses.
    """

    def __init__(self, cfg, codebook, block_values):
        self.cfg = cfg
        self.codebook = codebook
        self.block_values = block_values
        self.list_len = min(1 << cfg.l, codebook.n_candidates)
        self.next_block = 0
        self.active = False
        self.pos = 0
        self.scores = np.zeros(codebook.n_candidates)
        self.letters = None  # every candidate's letter at the current use
        self.delivery_uses = []

    def queue_bits(self, t):
        """Bits arrived but not yet confirmed, as of use t."""
        return arrived(t, self.cfg.rate_bits) - self.cfg.payload_bits * self.next_block

    def next_input(self, t):
        if not self.active and self.queue_bits(t) >= self.cfg.payload_bits:
            self.active = True
            self.pos = 0
            self.scores = np.zeros(self.codebook.n_candidates)
        if not self.active:
            return IDLE_LETTER
        self.letters = self.codebook.candidates_range(self.next_block, self.pos, 1)[:, 0]
        return int(self.letters[self.block_values[self.next_block]])

    def observe(self, t, y):
        if not self.active:
            return DENY
        self.scores += self.codebook.logp[self.letters, y]
        self.pos += 1
        truth = int(self.block_values[self.next_block])
        if _confirmable(self.scores, truth, self.list_len):
            index = _list_index(self.scores, truth)
            self.delivery_uses.append(t)
            self.active = False
            self.next_block += 1
            return 1 + index
        return DENY


def backlogged_deliveries(cfg, codebook, block_values, noise, horizon):
    """Delivery uses of blocks that are all ready at use 1, confirmed per use.

    Each use sends the next letter of the block in flight, samples its
    output by inverse CDF and tests the confirm condition; the use after a
    confirmation starts the next block. ``sim_anytime._serve_blocks`` with
    every ready use 1 must deliver at the same uses.
    """
    list_len = min(1 << cfg.l, codebook.n_candidates)
    deliveries = []
    block, pos = 0, 0
    scores = np.zeros(codebook.n_candidates)
    for t in range(1, horizon + 1):
        letters = codebook.candidates_range(block, pos, 1)[:, 0]
        truth = int(block_values[block])
        y = int(np.searchsorted(noise.cdf[letters[truth]], noise.u[t - 1], side="right"))
        scores += codebook.logp[letters, y]
        pos += 1
        if _confirmable(scores, truth, list_len):
            deliveries.append(t)
            block, pos = block + 1, 0
            scores = np.zeros(codebook.n_candidates)
    return deliveries


def parse_history(cfg, codebook, symbols, data_outputs):
    """Parse the data stream from scratch under a punctuation estimate.

    ``data_outputs`` holds one row of c - theta outputs per chunk. Returns
    the final parse state and the decoded block values in confirmation
    order; feeding a corrected estimate re-derives the block boundaries,
    which is exactly the decoder's recovery path after a punctuation error.
    """
    list_len = min(1 << cfg.l, 1 << cfg.payload_bits)
    _, ready = _blocks(cfg, len(symbols) * cfg.c)
    state = _ParseState()
    decoded = []
    for k, symbol in enumerate(symbols):
        value = _walk_chunk(state, cfg, codebook, ready, k, symbol, data_outputs[k], list_len)
        if value is not None:
            decoded.append(value)
    return state, decoded


def flow_decode(ch, chunk_outputs, theta, l, redecode_window, seed):
    """Decode a whole flow-output stream; returns the full symbol estimate.

    The code's memory is the window, as the synthesized scheme sets it.
    """
    code = FlowCode(ch, theta, seed, redecode_window)
    dec = FlowDecoder(code, ch, l)
    frozen, best = [], []
    for outputs in chunk_outputs:
        newly, best = dec.step(outputs)
        frozen += newly
    return frozen + best


def exhaustive_window_search(decoder, frozen, window_outputs):
    """The ML window path after a ``FlowDecoder``'s latest step, by brute force.

    ``frozen`` is every symbol the decoder's steps have frozen so far and
    ``window_outputs`` the flow outputs of the chunks after them, one row
    each. Depth-first over every hypothesis path of that window, hashing
    each node's letters from its own history suffix, frozen symbols
    included; ties go to the lowest-symbol path. ``FlowDecoder.step``
    must return the same path.
    """
    memory = decoder.code.memory
    context = tuple(frozen)[-(memory - 1):] if memory > 1 else ()
    best_score = -math.inf
    best_path = []
    stack = [(0.0, ())]
    while stack:
        score, path = stack.pop()
        depth = len(path)
        if depth == len(window_outputs):
            if score > best_score:
                best_score = score
                best_path = list(path)
            continue
        y = window_outputs[depth]
        # Push in reverse so the canonical order is explored first and
        # strict improvement keeps the enumeration-least tie winner.
        for symbol in reversed(decoder.symbols):
            extended = path + (symbol,)
            digest = decoder.code.context_digest(context + extended)
            letters = decoder.code.letters(digest, len(frozen) + depth)
            s = float(decoder.logp[letters, y].sum())
            stack.append((score + s, extended))
    return best_path


def grid_e0_max(p, rho, steps=32):
    """max of E0(rho, q) over the simplex grid of ``steps`` cells per axis.

    A brute-force second route to ``e0_max`` for two or three inputs; the
    grid holds ``steps + 1`` points on two inputs and their triangle on three.
    """
    pa = _powers(p, rho)
    return max(_e0_from_powers(pa, rho, q) for q in _simplex_grid(p.shape[0], steps))


def service_times(delta, horizon, seed):
    """Delivery time of every bit arriving within the horizon (+inf if never).

    The whole-horizon form of ``sim_queue._served_batches``: all uses are
    drawn at once and every bit is served in one pass. Bit i (1-based)
    arrives at use 2i and is served by the first surviving use at or after
    its arrival that is not consumed by an earlier bit.
    """
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), QUEUE_STREAM)))
    survived = rng.random(horizon) < (1.0 - delta)
    succ_times = np.flatnonzero(survived) + 1  # 1-based use indices
    n_bits = horizon // 2
    arrivals = 2 * np.arange(1, n_bits + 1, dtype=np.int64)
    first_free = np.searchsorted(succ_times, arrivals)
    order = np.arange(n_bits, dtype=np.int64)
    # FIFO: each bit consumes one surviving use, so the service index is the
    # running maximum of (first eligible success) shifted by the backlog.
    idx = order + np.maximum.accumulate(first_free - order)
    delivery = np.full(n_bits, np.inf)
    ok = idx < len(succ_times)
    delivery[ok] = succ_times[idx[ok]]
    return arrivals, delivery


def queue_table(delta, horizon, delays, seed):
    """``simulate_bec_feedback``'s table from the whole-horizon service times,
    weighing each delay's misses over all eligible bits at once.

    The grid only checks the delays and the horizon; the eligible bits are
    the ones arriving more than max(delays) uses from either end of the run,
    picked here by their arrival times rather than by the grid's clock.
    """
    grid = DeadlineGrid(delays, horizon, 0.5)
    arrivals, delivery = service_times(delta, grid.horizon, seed)
    eligible = (arrivals > grid.dmax) & (arrivals <= grid.horizon - grid.dmax)
    arr, dlv = arrivals[eligible], delivery[eligible]
    weights = [MISS_WEIGHT * float(np.count_nonzero(dlv > arr + d)) for d in grid.delays]
    return DelayErrorTable(grid.delays, *_error_columns(weights, int(arr.size)))


def queue_level_frequencies(delta, horizon, seed, max_level=12):
    """Occupancy counts of backlog levels sampled at every bit arrival."""
    if not 0.0 < delta < 0.5:
        raise OutOfRangeError(f"erasure probability must lie in (0, 1/2), got {delta}")
    arrivals, delivery = service_times(delta, int(horizon), seed)
    finite = np.sort(delivery[np.isfinite(delivery)])
    # Backlog just after an arrival = bits arrived so far minus bits delivered.
    delivered = np.searchsorted(finite, arrivals, side="right")
    levels = np.arange(1, len(arrivals) + 1) - delivered
    return np.bincount(np.minimum(levels, max_level), minlength=max_level + 1)


def set_partitions(items):
    """Every set partition of the list ``items``, each a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def symmetric_by_partitions(p, max_class=6):
    """Symmetry by brute force: every class of columns with the same sorted
    values (at 9 decimals) splits into some groups whose sub-matrices have
    permuted rows and permuted columns within ``SYMMETRY_ATOL``. Tries every
    set partition of every class, so classes are capped at ``max_class``."""
    classes = {}
    for y in range(p.shape[1]):
        classes.setdefault(tuple(np.round(np.sort(p[:, y]), 9)), []).append(y)

    def valid(cols):
        sub = p[:, cols]
        rows, columns = np.sort(sub, axis=1), np.sort(sub, axis=0)
        return (np.allclose(rows, rows[0], atol=SYMMETRY_ATOL, rtol=0.0)
                and np.allclose(columns.T, columns[:, 0], atol=SYMMETRY_ATOL, rtol=0.0))

    assert all(len(members) <= max_class for members in classes.values())
    return all(any(all(valid(group) for group in partition)
                   for partition in set_partitions(members))
               for members in classes.values())
