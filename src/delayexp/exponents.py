"""Reliability-exponent bounds for DMCs, in fixed-blocklength and
fixed-delay (feedback) flavors.

Everything here works in nats and returns plain result objects. Every bound takes a rate
or a 1-D sequence of rates, answered by a tuple of what each rate alone gets. Numerical
edge conditions (rate above capacity, optimizer pinned at a bracket edge, structurally
unbounded objectives) are reported as flags; exceptions are reserved for domain violations.

The exponent functions come in two families:

* fixed-blocklength bounds: the Gallager function ``E0``, the
  sphere-packing bound (converse), the random-coding and list-decoding
  achievability bounds, and a grid-search oracle for the change-of-channel
  exponent E+, the fixed-length converse with feedback;
* fixed-delay quantities for feedback schemes: the rate-focusing converse
  built from E+ (the only fixed-delay bound here), the exponent achieved by
  a confirm/deny repeat strategy, the fraction of channel uses it spends on
  confirmations, and the slopes of both curves at capacity, which take the
  exact curvature E0''(0) = -Var i(X;Y) of the Gallager function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    Channel,
    _density_variance,
    _kl,
    _probability_rows,
    capacity,
    capacity_below,
    is_symmetric,
    OutOfRangeError,
)
from .errors import DomainError, _number

RHO_MIN = 1e-6
RHO_MAX = 64.0
GOLDEN_TOL = 1e-10
BISECT_XTOL = 1e-10
BISECT_FTOL = 1e-12
# The pairwise input-law ascent stops once a sweep gains less than this.
ASCENT_TOL = 1e-10
ASCENT_SWEEPS_MAX = 200
DEGENERATE_CAPACITY = 1e-9
# E0''(0) = -Var i(X;Y) is computed exactly, so this cutoff absorbs rounding
# only: where i is constant on the support (error-free channels, the noisy
# typewriter) the variance is 0 up to about 1e-30. BEC(delta), at
# ln^2(2) delta (1 - delta), reads as flat only for delta below about 2e-12.
FLAT_CURVATURE_TOL = 1e-12
ORACLE_MAX_GRID = 200
# Row pairs of the oracle's coarse pass, each a capacity test: 10**6 pairs
# take seconds, and three outputs at 100 grid steps (26.5M pairs) minutes.
ORACLE_MAX_PAIRS = 10 ** 6
# Entries of the e0_max memo, shared by all channels. Only the ascent on a
# non-symmetric channel pays for a miss; its searches revisit nearby rho values
# close together in time, so a small LRU keeps nearly all the reuse there.
E0_MAX_CACHE_SIZE = 256
# Lane x input x output cells per chunk of a rho search's lanes: E0 arrays of 512 KB.
LANE_CELLS = 1 << 16
_ORACLE_CHUNK = 1 << 18

FLAG_RATE_ABOVE_CAPACITY = "rate_above_capacity"
FLAG_RATE_OUT_OF_RANGE = "rate_out_of_range"
FLAG_BRACKET_EDGE = "bracket_edge"
FLAG_UNBOUNDED = "unbounded"
FLAG_SURROGATE = "surrogate"
FLAG_FLAT_CURVATURE = "flat_curvature"

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


class NonPositiveRateError(DomainError):
    """Rate arguments must be strictly positive."""


class UnsupportedAlphabetError(DomainError):
    """The operation is restricted to small alphabets."""


class BadListSizeError(DomainError):
    """List sizes must be integers >= 1."""


class DegenerateChannelError(DomainError):
    """The channel has (numerically) zero capacity."""


@dataclass(frozen=True)
class ExponentValue:
    """An exponent in nats plus how it was attained.

    ``param`` is the achieving optimizer parameter (rho, eta, or lambda,
    depending on the bound) and ``q`` the achieving input distribution;
    either may be None when not meaningful. ``flags`` carries numerical
    edge conditions. Equality compares all but ``q``, an array.
    """

    value: float
    param: float | None = None
    q: np.ndarray | None = field(default=None, compare=False)
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ParametricPoint:
    """One point of a parametric rate/exponent curve: exponent == rho * rate."""

    rho: float
    rate: float
    exponent: float


@dataclass(frozen=True)
class CapacitySlopes:
    """Slopes (as positive magnitudes) of the fixed-delay curves at capacity.

    ``e0_curvature`` is the second derivative of the Gallager function at
    rho = 0, which is negative for any channel that is not error free. When
    it vanishes both slopes are reported as +inf with a flag.
    """

    focusing_slope: float
    achieved_slope: float
    e0_curvature: float
    flags: tuple[str, ...] = ()


# -- generic 1-D searches ----------------------------------------------------

def _golden_max(f, lo: float, hi: float):
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    a, b = float(lo), float(hi)
    h = b - a
    c, d = a + _INVPHI2 * h, a + _INVPHI * h
    fc, fd = f(c), f(d)
    while h > GOLDEN_TOL:
        if fc >= fd:
            b, h = d, d - a
            d, fd = c, fc
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, h = c, b - c
            c, fc = d, fd
            d = a + _INVPHI * h
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _golden_steps(lo: float, hi: float, f):
    """``_golden_max`` of ``f(x, v)`` on [lo, hi] as a lane, sent ``v`` at each x yielded."""
    a, b = float(lo), float(hi)
    h = b - a
    c, d = a + _INVPHI2 * h, a + _INVPHI * h
    fc = f(c, (yield c))
    fd = f(d, (yield d))
    while h > GOLDEN_TOL:
        if fc >= fd:
            b, h = d, d - a
            d, fd = c, fc
            c = a + _INVPHI2 * h
            fc = f(c, (yield c))
        else:
            a, h = c, b - c
            c, fc = d, fd
            d = a + _INVPHI * h
            fd = f(d, (yield d))
    return 0.5 * (a + b)


def _bisect_steps(lo: float, hi: float, f):
    """The root of ``f(x, v)``, decreasing through zero on [lo, hi], as a lane sent ``v``."""
    flo = f(lo, (yield lo))
    while hi - lo > BISECT_XTOL:
        mid = 0.5 * (lo + hi)
        fm = f(mid, (yield mid))
        if abs(fm) < BISECT_FTOL:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _lockstep(ch: Channel, lanes: list) -> list:
    """What each lane returns. A lane is one rate's search, a generator that yields each rho
    it needs and is sent ``e0_max(ch, rho).value`` there; each step evaluates E0 once for all
    lanes still running, so each takes the steps, and stops where, its rate alone would."""
    out, ks, values = [None] * len(lanes), list(range(len(lanes))), [None] * len(lanes)
    while ks:
        running, rhos = [], []
        for k, value in zip(ks, values):
            try:
                rhos.append(lanes[k].send(value))
                running.append(k)
            except StopIteration as stop:
                out[k] = stop.value
        ks, values = running, _e0_lanes(ch, rhos)
    return out


# -- the Gallager function ---------------------------------------------------

def _powers(p: np.ndarray, rho: float) -> np.ndarray:
    """p ** (1 / (1 + rho)), the q-independent part of E0(rho, q)."""
    return np.power(p, 1.0 / (1.0 + rho))


def _e0_from_powers(pa: np.ndarray, rho: float, q: np.ndarray) -> float:
    """E0(rho, q) from ``pa = _powers(p, rho)``, for any rho > -1 (callers police rho >= 0)."""
    inner = q @ pa
    return -math.log(float(np.sum(np.power(inner, 1.0 + rho))))


def _e0_lanes(ch: Channel, rhos: list[float]) -> list[float]:
    """``e0_max(ch, rho).value`` at each of ``rhos``, bit for bit: on a symmetric channel
    one numpy pass at the uniform law, then ``math.log`` per lane (``np.log``'s SIMD
    path can differ in the last bit); on others ``e0_max`` per lane, through its memo."""
    if not is_symmetric(ch):
        return [e0_max(ch, rho).value for rho in rhos]
    r = np.array(rhos)
    inner = np.full(ch.inputs, 1.0 / ch.inputs) @ np.power(ch.p, (1.0 / (1.0 + r))[:, None, None])
    return [-math.log(t) for t in np.sum(np.power(inner, (1.0 + r)[:, None]), axis=-1).tolist()]


def gallager_e0(ch: Channel, rho: float, q=None) -> float:
    """The Gallager function E0(rho, q) in nats; uniform q by default."""
    rho = _rho(rho)
    if q is None:
        qv = np.full(ch.inputs, 1.0 / ch.inputs)
    else:
        qv = _probability_rows(q, ch.inputs)
    return _e0_from_powers(_powers(ch.p, rho), rho, qv)


def _rho(rho, lo=0, hi=math.inf, ends="[)") -> float:
    """``rho`` as a float in [0, inf), or in the range ``lo``, ``hi``, ``ends`` given."""
    return _number(rho, "rho", lo, hi, ends)


def _ascend_q(p: np.ndarray, rho: float, q0: np.ndarray):
    """Maximize E0 over q by cyclic pairwise mass transfers.

    Each sweep reoptimizes the mass split of every input pair by a
    golden-section line search; E0 is -ln of a function convex in q, so
    this converges to the maximizer from any interior start.
    """
    pa = _powers(p, rho)
    q = np.array(q0, dtype=float)
    k = len(q)
    best = _e0_from_powers(pa, rho, q)
    for _ in range(ASCENT_SWEEPS_MAX):
        gain = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                mass = q[i] + q[j]
                if mass <= 0:
                    continue

                def split(t, _i=i, _j=j, _m=mass):
                    trial = q.copy()
                    trial[_i], trial[_j] = t * _m, (1.0 - t) * _m
                    return _e0_from_powers(pa, rho, trial)

                t, val = _golden_max(split, 0.0, 1.0)
                if val > best:
                    gain += val - best
                    best = val
                    q[i], q[j] = t * mass, (1.0 - t) * mass
        if gain < ASCENT_TOL or k == 2:  # two inputs: one pair, searched in full once
            break
    return q, best


def e0_max(ch: Channel, rho: float) -> ExponentValue:
    """max_q E0(rho, q) with the achieving input distribution.

    Symmetric channels take the uniform shortcut; otherwise pairwise
    coordinate ascent runs from the uniform start. Results are memoised by
    (channel, rho) in an LRU of ``E0_MAX_CACHE_SIZE`` entries, so the
    returned ``q`` is read-only.
    """
    return _e0_max(ch, _rho(rho))


@functools.lru_cache(maxsize=E0_MAX_CACHE_SIZE)
def _e0_max(ch: Channel, rho: float) -> ExponentValue:
    # Channel compares by identity, so each channel object has its own keys;
    # the memo keeps a channel alive until its last entry is evicted.
    p = ch.p
    q = np.full(ch.inputs, 1.0 / ch.inputs)
    if is_symmetric(ch):
        val = _e0_from_powers(_powers(p, rho), rho, q)
    else:
        q, val = _ascend_q(p, rho, q)
    q.flags.writeable = False
    return ExponentValue(val, None, q)


# -- fixed-blocklength bounds ------------------------------------------------

def _positive_capacity(ch: Channel) -> float:
    cap = capacity(ch)
    if cap < DEGENERATE_CAPACITY:
        raise DegenerateChannelError(f"channel capacity {cap!r} is numerically zero")
    return cap


def _above_capacity(ch: Channel, rate) -> tuple[float, ExponentValue | None]:
    """``rate`` as a float, and the flagged zero every bound answers at or above capacity,
    else None; raises for a rate that is not a positive number or a channel of zero capacity."""
    rate = _number(rate, "rate", 0, math.inf, "(]", error=NonPositiveRateError)
    if rate >= _positive_capacity(ch):
        return rate, ExponentValue(0.0, None, None, (FLAG_RATE_ABOVE_CAPACITY,))
    return rate, None


def _at_rho_max(ch: Channel, value: float, param: float, q: np.ndarray) -> ExponentValue:
    """The answer of a rho search that runs into RHO_MAX.

    With no output letter reachable from every input, E0 grows linearly in
    rho and the true value is +inf, flagged ``unbounded``; otherwise
    ``value`` stands, flagged ``bracket_edge``.
    """
    if not np.any(np.all(ch.p > 0, axis=0)):
        return ExponentValue(math.inf, math.inf, q, (FLAG_UNBOUNDED,))
    return ExponentValue(value, param, q, (FLAG_BRACKET_EDGE,))


def _over_rates(ch: Channel, rate, lane):
    """The answer at ``rate``, or a tuple of them at a 1-D sequence of rates: the flagged zero
    of ``_above_capacity``, else what ``lane(rate)`` returns, in chunks of ``LANE_CELLS``."""
    many = isinstance(rate, (list, tuple)) or getattr(rate, "ndim", 0) == 1
    checked = [_above_capacity(ch, r) for r in (rate if many else (rate,))]
    below = [r for r, above in checked if above is None]
    step = max(1, LANE_CELLS // ch.p.size)
    solved = iter([v for k in range(0, len(below), step)
                   for v in _lockstep(ch, [lane(r) for r in below[k:k + step]])])
    cells = tuple(next(solved) if above is None else above for _, above in checked)
    return cells if many else cells[0]


def _parametric_bound(ch: Channel, rate, rho_hi: float):
    """max over rho in [RHO_MIN, min(rho_hi, RHO_MAX)] of max_q E0(rho, q) - rho * rate."""
    top = min(rho_hi, RHO_MAX)

    def lane(rate):
        rho = yield from _golden_steps(RHO_MIN, top, lambda x, e0: e0 - x * rate)
        ev = e0_max(ch, rho)
        value = max(ev.value - rho * rate, 0.0)
        edge = top == RHO_MAX and RHO_MAX - rho < 1e-4
        return _at_rho_max(ch, value, rho, ev.q) if edge else ExponentValue(value, rho, ev.q)

    return _over_rates(ch, rate, lane)


def sphere_packing(ch: Channel, rate):
    """Sphere-packing exponent at ``rate`` (nats): the fixed-blocklength converse.

    Zero at and above capacity. When the maximizing rho is pinned at the
    top of the search bracket the value is either reported with a
    ``bracket_edge`` flag, or as +inf with an ``unbounded`` flag when the
    channel structure makes the supremum infinite (zero-error regime).
    """
    return _parametric_bound(ch, rate, RHO_MAX)


def random_coding(ch: Channel, rate):
    """Random-coding exponent: same objective as sphere packing, rho capped at 1."""
    return _parametric_bound(ch, rate, 1.0)


def list_random_coding(ch: Channel, rate, list_size):
    """Random-coding exponent with list decoding; rho is capped at the list size.

    The cap meets RHO_MAX at a list size of 64, and from there on this is
    the sphere-packing search, flags included.
    """
    list_size = _number(list_size, "list size", 1, integer=True, error=BadListSizeError,
                        kind=BadListSizeError)
    return _parametric_bound(ch, rate, list_size)


# -- change-of-channel oracle ------------------------------------------------

def _grid_rows(axes) -> np.ndarray:
    """Rows of the simplex over the grid ``axes``: the free coordinates of
    two outputs (one axis) or three (two axes, pairs past the simplex dropped)."""
    if len(axes) == 1:
        return np.column_stack([axes[0], 1.0 - axes[0]])
    rows = [(a, b, 1.0 - a - b) for a in axes[0] for b in axes[1] if a + b <= 1.0 + 1e-12]
    return np.clip(np.asarray(rows), 0.0, 1.0)


def _simplex_grid(m: int, steps: int) -> np.ndarray:
    return _grid_rows([np.arange(steps + 1) / steps] * (m - 1))


def _simplex_rows(m: int, steps: int) -> int:
    """The number of rows ``_simplex_grid(m, steps)`` holds."""
    return math.comb(steps + m - 1, m - 1)


def _window_grid(row: np.ndarray, steps: int) -> np.ndarray:
    """A refined simplex grid covering +-2 coarse cells around ``row``."""
    half = 2.0 / steps
    return _grid_rows([np.linspace(max(0.0, x - half), min(1.0, x + half), steps + 1)
                       for x in row[:-1]])


def _oracle_pass(p: np.ndarray, rate: float, rows0: np.ndarray, rows1: np.ndarray):
    """Best (lowest) worst-case divergence over feasible row pairs on a grid."""
    d0 = _kl(rows0, p[0])
    d1 = _kl(rows1, p[1])
    n0, n1 = len(rows0), len(rows1)
    best_val, best_pair = math.inf, None
    for start in range(0, n0 * n1, _ORACLE_CHUNK):
        flat = np.arange(start, min(start + _ORACLE_CHUNK, n0 * n1))
        i0, i1 = np.divmod(flat, n1)
        mats = np.empty((len(flat), 2, p.shape[1]))
        mats[:, 0, :] = rows0[i0]
        mats[:, 1, :] = rows1[i1]
        feasible = capacity_below(mats, rate)
        if not np.any(feasible):
            continue
        # D(G || P | r) is linear in the input law r, so its maximum over r
        # sits at a vertex: the larger of the two row divergences.
        obj = np.maximum(d0[i0[feasible]], d1[i1[feasible]])
        k = int(np.argmin(obj))
        if obj[k] < best_val:
            best_val = float(obj[k])
            sel = flat[feasible][k]
            best_pair = (rows0[sel // n1], rows1[sel % n1])
    return best_val, best_pair


def haroutunian_oracle(ch: Channel, rate: float, grid_steps: int = 100) -> ExponentValue:
    """Grid-search evaluation of the change-of-channel converse.

    Minimizes, over channels G on a per-row simplex grid with capacity
    below ``rate``, the worst-case (over input laws) conditional divergence
    D(G || P | r), which is the larger row divergence max_x D(G_x || P_x).
    A second pass refines the grid in a window of two coarse
    cells around the first incumbent. Binary input alphabets with at most
    three outputs only; this is a deliberately direct oracle for
    cross-checking the parametric sphere-packing route. Feasibility
    (C(G) < rate) comes from :func:`capacity_below`, which settles most
    candidates from the capacity bounds of a few alternating-maximization
    steps and runs the full iteration only near the boundary. As with
    sphere packing, the value is 0 with a ``rate_above_capacity`` flag at
    or above capacity, and +inf with an ``unbounded`` flag when every grid
    channel below ``rate`` leaves the support of P.
    """
    if ch.inputs != 2 or ch.outputs > 3:
        raise UnsupportedAlphabetError(
            f"oracle supports 2 inputs and <= 3 outputs, got {ch.inputs}x{ch.outputs}")
    grid_steps = _number(grid_steps, "grid_steps", 4, ORACLE_MAX_GRID, "[]", integer=True)
    pairs = _simplex_rows(ch.outputs, grid_steps) ** 2
    if pairs > ORACLE_MAX_PAIRS:
        fits = max(s for s in range(4, ORACLE_MAX_GRID + 1)
                   if _simplex_rows(ch.outputs, s) ** 2 <= ORACLE_MAX_PAIRS)
        raise DomainError(
            f"grid_steps {grid_steps} on {ch.outputs} outputs makes {pairs} row pairs, "
            f"over the cap of {ORACLE_MAX_PAIRS}; the largest grid_steps that fits is {fits}")
    rate, above = _above_capacity(ch, rate)
    if above is not None:
        return above
    rows = _simplex_grid(ch.outputs, grid_steps)
    val, pair = _oracle_pass(ch.p, rate, rows, rows)
    if pair is None:
        return ExponentValue(math.inf, None, None, (FLAG_UNBOUNDED,))
    refined, _ = _oracle_pass(ch.p, rate, _window_grid(pair[0], grid_steps),
                              _window_grid(pair[1], grid_steps))
    return ExponentValue(min(val, refined))


# -- fixed-delay bounds ------------------------------------------------------

def focusing_bound(ch: Channel, rate):
    """Rate-focusing converse on the fixed-delay exponent at ``rate`` (nats).

    On symmetric channels this is computed parametrically: the value is
    E0(eta) at the eta solving E0(eta) / eta = rate; as with sphere
    packing, a root past the bracket is +inf with an ``unbounded`` flag
    when no output letter is reachable from every input. Other channels fall
    back to the defining outer minimization over rate splits, with the
    sphere-packing bound standing in for the change-of-channel converse;
    the result then carries a ``surrogate`` flag.
    """
    def lane(rate):
        if not is_symmetric(ch):
            return _focusing_surrogate(ch, rate)
        top = e0_max(ch, RHO_MAX)
        if top.value - RHO_MAX * rate > 0:
            return _at_rho_max(ch, top.value, RHO_MAX, top.q)
        eta = yield from _bisect_steps(RHO_MIN, RHO_MAX, lambda x, e0: e0 - x * rate)
        ev = e0_max(ch, eta)
        return ExponentValue(ev.value, eta, ev.q)

    return _over_rates(ch, rate, lane)


def _focusing_surrogate(ch: Channel, rate: float) -> ExponentValue:
    def stretched(lam):
        return sphere_packing(ch, lam * rate).value / (1.0 - lam)

    lo, hi = 1e-6, 1.0 - 1e-6
    probes = np.linspace(lo, hi, 33)
    # Only the first probe with a finite value is needed: it opens the bracket.
    start = next((x for x in probes if math.isfinite(stretched(x))), None)
    if start is None:
        return ExponentValue(math.inf, None, None, (FLAG_SURROGATE, FLAG_UNBOUNDED))
    lam, neg = _golden_max(lambda x: -stretched(x), start, hi)
    return ExponentValue(-neg, lam, None, (FLAG_SURROGATE,))


def _e0_pair(ch: Channel, rho) -> tuple[float, float, float]:
    """(rho, E0(rho), E0(1)), both E0 maximized over q, for rho in [RHO_MIN, RHO_MAX]; raises on
    zero capacity, above which both are positive (E0 is concave in rho and E0(0) = 0)."""
    rho = _rho(rho, RHO_MIN, RHO_MAX, "[]")
    _positive_capacity(ch)
    return rho, e0_max(ch, rho).value, e0_max(ch, 1.0).value


def overhead_fraction(ch: Channel, rho: float) -> float:
    """Fraction of uses a confirm/deny strategy devotes to confirmations.

    At curve parameter rho this is E0(rho) / (E0(1) + E0(rho)), which
    balances the error contributions of the data and confirmation phases.
    ``rho`` must lie in [RHO_MIN, RHO_MAX], the bracket every search uses.
    """
    _, e0_rho, e0_one = _e0_pair(ch, rho)
    return e0_rho / (e0_one + e0_rho)


def achieved_exponent(ch: Channel, rho: float) -> ParametricPoint:
    """Fixed-delay exponent achieved by the confirm/deny repeat strategy.

    The exponent at parameter rho is the harmonic combination
    1 / (1/E0(rho) + 1/E0(1)) and sits at rate exponent / rho, for
    ``rho`` in [RHO_MIN, RHO_MAX].
    """
    rho, e0_rho, e0_one = _e0_pair(ch, rho)
    exponent = 1.0 / (1.0 / e0_rho + 1.0 / e0_one)
    return ParametricPoint(rho, exponent / rho, exponent)


def achieved_exponent_at_rate(ch: Channel, rate):
    """Invert the achieved curve: exponent of the repeat strategy at ``rate``.

    The parametric rate is strictly decreasing in rho, so a bisection
    recovers rho from the rate. The value is 0 flagged ``rate_above_capacity`` at or above
    capacity, as for every bound, and ``rate_out_of_range`` from the rate at RHO_MIN up to
    capacity; rates below the rate at RHO_MAX clamp there with a ``bracket_edge`` flag.
    """
    def lane(rate):
        if rate >= achieved_exponent(ch, RHO_MIN).rate:
            return ExponentValue(0.0, None, None, (FLAG_RATE_OUT_OF_RANGE,))
        e0_one = e0_max(ch, 1.0).value
        edge = rate <= achieved_exponent(ch, RHO_MAX).rate
        rho = RHO_MAX if edge else (yield from _bisect_steps(
            RHO_MIN, RHO_MAX, lambda x, e0: 1.0 / (1.0 / e0 + 1.0 / e0_one) / x - rate))
        flags = (FLAG_BRACKET_EDGE,) if edge else ()
        return ExponentValue(achieved_exponent(ch, rho).exponent, rho, e0_max(ch, rho).q, flags)

    return _over_rates(ch, rate, lane)


# -- one bound by name -------------------------------------------------------

# The bounds evaluated at one rate, in the column order of a curve sweep:
# converses first, then achievability, then the fixed-delay pair.
BOUNDS_AT_RATE = ("sp", "rc", "list", "focusing", "achieved")


def bound_at_rate(ch: Channel, name: str, rate, list_size=2):
    """The bound ``name`` from :data:`BOUNDS_AT_RATE` at ``rate`` (nats), or a tuple of
    them at a 1-D sequence of rates; ``list_size`` applies to ``"list"`` only."""
    # Calls go through the module-level names, not a table of function
    # objects, so a wrapper that replaces a module attribute sees each one.
    if name == "sp":
        return sphere_packing(ch, rate)
    if name == "rc":
        return random_coding(ch, rate)
    if name == "list":
        return list_random_coding(ch, rate, list_size)
    if name == "focusing":
        return focusing_bound(ch, rate)
    if name == "achieved":
        return achieved_exponent_at_rate(ch, rate)
    raise DomainError(f"unknown bound {name!r}; expected one of {', '.join(BOUNDS_AT_RATE)}")


def bec_feedback_exponent(delta: float) -> float:
    """Exact fixed-delay exponent of the erasure channel with feedback."""
    delta = _number(delta, "erasure probability", 0, 0.5, "()", error=OutOfRangeError)
    return math.log((1.0 - delta) / delta)


def capacity_slopes(ch: Channel) -> CapacitySlopes:
    """Slopes of the focusing and achieved curves as rate approaches capacity.

    Both slopes are reported as positive magnitudes:
    2 C / |E0''(0)| for the focusing converse and
    E0(1) / (C + E0(1) |E0''(0)| / (2 C)) for the repeat strategy.
    The curvature is exact: E0''(0) is minus the variance of the
    information density i(X;Y) = ln p(Y|X) / (q p)(Y) under the uniform
    law q. A flat curvature (i constant on the support, as on error-free
    channels) yields +inf slopes and a ``flat_curvature`` flag.
    """
    if not is_symmetric(ch):
        raise DomainError("capacity slopes are defined here for symmetric channels only")
    cap = _positive_capacity(ch)
    d2 = -_density_variance(ch.p, np.full(ch.inputs, 1.0 / ch.inputs))
    if abs(d2) < FLAT_CURVATURE_TOL:
        return CapacitySlopes(math.inf, math.inf, d2, (FLAG_FLAT_CURVATURE,))
    e0_one = e0_max(ch, 1.0).value
    focusing = 2.0 * cap / (-d2)
    achieved = e0_one / (cap - (e0_one / (2.0 * cap)) * d2)
    return CapacitySlopes(focusing, achieved, d2)
