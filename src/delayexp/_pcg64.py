"""numpy's ``PCG64(SeedSequence(words))`` raw stream, for many seeds at once.

``raw_outputs(words, jumps(offsets))`` gives, for each column of ``words``,
the raw 64-bit outputs that ``np.random.PCG64(np.random.SeedSequence(column))``
would give at the stream offsets ``offsets``, with plain integer arithmetic
over the whole batch instead of one generator per seed:

* SeedSequence's entropy pool: its ``hashmix``/``mix`` rules over uint32
  words, then ``generate_state(4, np.uint64)``;
* PCG64's seeding: ``state = seed[0] << 64 | seed[1]``,
  ``inc = (inc[0] << 64 | inc[1]) << 1 | 1`` and the two-step ``srandom``;
* PCG64's 128-bit LCG, jumped to each offset in O(log k) steps (Brown 1994,
  "Random number generation with arbitrary strides"; O'Neill 2014, PCG),
  then its XSL-RR output.

A 128-bit value is a pair (high, low) of 64-bit halves, as PCG64 itself
stores it, each a uint64 array (or a Python int below 2^64). Their sums and
products wrap mod 2^64, silently also for the numpy scalars of 0-d offsets;
the high word of a product of low halves comes from 32-bit partial products.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _halves(value: int) -> tuple[int, int]:
    return value >> 64, value & _MASK64


@np.errstate(over="ignore")
def _mul(x, y):
    """x * y mod 2^128 for 128-bit values of broadcastable shapes."""
    (xh, xl), (yh, yl) = x, y
    a, b, c, d = xl & _MASK32, xl >> 32, yl & _MASK32, yl >> 32
    ac, ad, bc = a * c, a * d, b * c
    mid = (ac >> 32) + (ad & _MASK32) + (bc & _MASK32)
    carry = b * d + (ad >> 32) + (bc >> 32) + (mid >> 32)  # high word of xl * yl
    return carry + xl * yh + xh * yl, xl * yl


@np.errstate(over="ignore")
def _add(x, y):
    """x + y mod 2^128."""
    (xh, xl), (yh, yl) = x, y
    low = xl + yl
    return xh + yh + (low < xl), low


def jumps(offsets) -> tuple[tuple, tuple]:
    """(A, P) with A = M^d and P = 1 + M + ... + M^(d-1) mod 2^128, as halves of
    the shape of ``offsets``, for d = offset + 2: the LCG step from a
    generator's ``start`` (see :func:`_start`) to its raw output ``offset``
    is ``state = A * start + P * inc``."""
    rest = np.asarray(offsets, dtype=np.uint64) + np.uint64(2)
    zero = np.zeros_like(rest)
    acc_mult, acc_plus = (zero, zero + 1), (zero, zero)
    cur_mult, cur_plus = _PCG_MULT, 1
    while rest.any():
        take = (rest & np.uint64(1)).astype(bool)
        stepped = _mul(acc_mult, _halves(cur_mult))
        plus = _add(_mul(acc_plus, _halves(cur_mult)), _halves(cur_plus))
        acc_mult = tuple(np.where(take, s, m) for s, m in zip(stepped, acc_mult))
        acc_plus = tuple(np.where(take, s, m) for s, m in zip(plus, acc_plus))
        cur_plus = (cur_mult + 1) * cur_plus & (1 << 128) - 1
        cur_mult = cur_mult * cur_mult & (1 << 128) - 1
        rest = rest >> np.uint64(1)
    return acc_mult, acc_plus


def _pool(words: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's entropy pool (four uint32 words) of each column of ``words``."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    zero = np.zeros_like(words[0])
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(words)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[src]))
    return pool


def _start(words: np.ndarray) -> tuple[tuple, tuple]:
    """(start, inc) of each column's PCG64: ``start`` is the state two LCG steps
    before raw output 0, ``inc`` the LCG increment, both as uint64 halves."""
    pool = _pool(words)
    hash_const = _INIT_B
    state = []  # generate_state(4, np.uint64) as eight uint32 words, low half first
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ value >> 16).astype(np.uint64))
    seed_high, seed_low, init_high, init_low = (
        state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    # inc = initseq << 1 | 1; srandom then sets state = (inc + seed) * M + inc.
    inc = (init_high << 1 | init_low >> 63, init_low << 1 | 1)
    return _add(inc, (seed_high, seed_low)), inc


def raw_outputs(words: np.ndarray, table: tuple[tuple, tuple]) -> np.ndarray:
    """Raw outputs of ``PCG64(SeedSequence(words[:, b]))`` for each column b of
    the uint32 array ``words`` (entropy words, batch): a uint64 array of
    shape (batch, *offsets.shape) for ``table = jumps(offsets)``."""
    start, inc = _start(np.asarray(words, dtype=np.uint32))
    expand = (slice(None),) + (None,) * np.ndim(table[0][0])
    mult, plus = table
    high, low = _add(_mul(mult, tuple(half[expand] for half in start)),
                     _mul(plus, tuple(half[expand] for half in inc)))
    # XSL-RR: the two halves xored, rotated right by the top six bits.
    x = high ^ low
    rot = high >> 58
    return x >> rot | x << (64 - rot & 63)
