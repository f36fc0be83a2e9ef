"""Direct reference forms of what the package computes in batches.

Each function here is a per-use, whole-history or brute-force version of a
step that ``delayexp`` runs in vectorized, incremental or shortcut form;
tests drive both and compare. Nothing here is on the path of a command.
"""

import math

import numpy as np

from delayexp.channel import SYMMETRY_ATOL, OutOfRangeError, is_symmetric
from delayexp.exponents import (
    ASCENT_SWEEPS_MAX,
    ASCENT_TOL,
    BISECT_FTOL,
    BISECT_XTOL,
    FLAG_BRACKET_EDGE,
    FLAG_RATE_OUT_OF_RANGE,
    RHO_MAX,
    RHO_MIN,
    ExponentValue,
    _above_capacity,
    _at_rho_max,
    _e0_from_powers,
    _golden_max,
    _powers,
    _simplex_grid,
    achieved_exponent,
    e0_max,
)
from delayexp.sim_anytime import (
    _SERVE_STRIDE_MAX,
    _SERVE_STRIDE_MIN,
    DENY,
    IDLE_LETTER,
    FlowCode,
    FlowDecoder,
    _confirmable,
    _blocks,
    _ParseState,
)
from delayexp.sim_queue import (
    MISS_WEIGHT,
    QUEUE_STREAM,
    DeadlineGrid,
    DelayErrorTable,
    _error_columns,
    arrived,
)


def list_index(scores, truth):
    """The truth's entry in the decoder's list, counted directly: every
    candidate scoring higher, and every equal one of lower index, is listed
    before it. A second route to the position of ``truth`` in ``_ranked``."""
    s = scores[truth]
    return int(np.count_nonzero(scores > s) + np.count_nonzero(scores[:truth] == s))


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
        self.list_len = cfg.list_size
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
        if _confirmable(self.scores, self.scores[truth], self.list_len):
            index = list_index(self.scores, truth)
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
    list_len = cfg.list_size
    deliveries = []
    block, pos = 0, 0
    scores = np.zeros(codebook.n_candidates)
    for t in range(1, horizon + 1):
        letters = codebook.candidates_range(block, pos, 1)[:, 0]
        truth = int(block_values[block])
        y = int(np.searchsorted(noise.cdf[letters[truth]], noise.u[t - 1], side="right"))
        scores += codebook.logp[letters, y]
        pos += 1
        if _confirmable(scores, scores[truth], list_len):
            deliveries.append(t)
            block, pos = block + 1, 0
            scores = np.zeros(codebook.n_candidates)
    return deliveries


def strided_deliveries(cfg, codebook, values, ready, noise, horizon):
    """The delivery use of each block under the ideal flow link, ``+inf`` if
    the horizon ends first, served one block at a time.

    Block k is sent from use ``ready[k]`` (its last bit's arrival, or 1 when
    blocks are always backlogged) or after block k - 1 is confirmed. Each
    block runs in vectorized strides that test the confirm condition after
    every use, as a per-use encoder does, but add the log-likelihoods in
    another order: float rounding can break a score tie that is exact in
    real arithmetic the other way (not on the erasure channel, whose ties
    are exact in floats too). ``sim_anytime._serve_blocks`` serves the same
    blocks in speculative batches and must return the same array.
    """
    list_len = cfg.list_size
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
            ok = _confirmable(cum, cum[value], list_len)
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


def parse_history(cfg, codebook, symbols, data_outputs):
    """Parse the data stream from scratch under a punctuation estimate.

    ``data_outputs`` holds one row of c - theta outputs per chunk. Returns
    the final parse state and the decoded block values in confirmation
    order; feeding a corrected estimate re-derives the block boundaries,
    which is exactly the decoder's recovery path after a punctuation error.
    """
    _, ready = _blocks(cfg, len(symbols) * cfg.c)
    state = _ParseState()
    decoded = []
    for k, symbol in enumerate(symbols):
        letters = state.chunk_letters(codebook, ready, k * cfg.c + 1, cfg.data_uses_per_chunk)
        if letters is not None:
            state.score(codebook, letters, data_outputs[k])
        value = state.apply(symbol, cfg.list_size)
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


def bisect_root(f, lo, hi):
    """Root of a decreasing-through-zero function with a sign change on [lo, hi]."""
    flo = f(lo)
    while hi - lo > BISECT_XTOL:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < BISECT_FTOL:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bound_at_rate(ch, name, rate, list_size=2):
    """One bound at one rate, by its own search over rho through ``e0_max``: the
    per-rate second route to ``exponents.bound_at_rate``, whose searches run a
    whole rate list in lockstep. Symmetric channels only for ``"focusing"``."""
    rate, above = _above_capacity(ch, rate)
    if above is not None:
        return above
    if name in ("sp", "rc", "list"):
        top = min({"sp": RHO_MAX, "rc": 1.0, "list": list_size}[name], RHO_MAX)
        rho, val = _golden_max(lambda r: e0_max(ch, r).value - r * rate, RHO_MIN, top)
        ev = e0_max(ch, rho)
        if top == RHO_MAX and RHO_MAX - rho < 1e-4:
            return _at_rho_max(ch, max(val, 0.0), rho, ev.q)
        return ExponentValue(max(val, 0.0), rho, ev.q)
    if name == "focusing":
        assert is_symmetric(ch)

        def gap(eta):
            return e0_max(ch, eta).value - eta * rate

        if gap(RHO_MAX) > 0:
            ev = e0_max(ch, RHO_MAX)
            return _at_rho_max(ch, ev.value, RHO_MAX, ev.q)
        eta = bisect_root(gap, RHO_MIN, RHO_MAX)
        ev = e0_max(ch, eta)
        return ExponentValue(ev.value, eta, ev.q)
    assert name == "achieved"

    def rate_at(rho):
        return achieved_exponent(ch, rho).rate

    if rate >= rate_at(RHO_MIN):
        return ExponentValue(0.0, None, None, (FLAG_RATE_OUT_OF_RANGE,))
    edge = rate <= rate_at(RHO_MAX)
    rho = RHO_MAX if edge else bisect_root(lambda r: rate_at(r) - rate, RHO_MIN, RHO_MAX)
    flags = (FLAG_BRACKET_EDGE,) if edge else ()
    return ExponentValue(achieved_exponent(ch, rho).exponent, rho, e0_max(ch, rho).q, flags)


def grid_e0_max(p, rho, steps=32):
    """max of E0(rho, q) over the simplex grid of ``steps`` cells per axis.

    A brute-force second route to ``e0_max`` for two or three inputs; the
    grid holds ``steps + 1`` points on two inputs and their triangle on three.
    """
    pa = _powers(p, rho)
    return max(_e0_from_powers(pa, rho, q) for q in _simplex_grid(p.shape[0], steps))


def ascend_q(p, rho, q0):
    """``exponents._ascend_q`` with E0 written out: a fresh trial law and ``np.sum`` at every
    evaluation, where the package keeps one trial law per input pair and reduces directly."""
    pa = _powers(p, rho)

    def e0(q):
        return -math.log(float(np.sum(np.power(q @ pa, 1.0 + rho))))

    q = np.array(q0, dtype=float)
    best = e0(q)
    for _ in range(ASCENT_SWEEPS_MAX):
        gain = 0.0
        for i in range(len(q)):
            for j in range(i + 1, len(q)):
                mass = q[i] + q[j]
                if mass <= 0:
                    continue

                def split(t, _i=i, _j=j, _m=mass):
                    trial = q.copy()
                    trial[_i], trial[_j] = t * _m, (1.0 - t) * _m
                    return e0(trial)

                t, val = _golden_max(split, 0.0, 1.0)
                if val > best:
                    gain += val - best
                    best = val
                    q[i], q[j] = t * mass, (1.0 - t) * mass
        if gain < ASCENT_TOL or len(q) == 2:
            break
    return q, best


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
