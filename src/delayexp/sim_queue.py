"""Queue-based simulation of the erasure channel with perfect feedback.

The transmitter repeats the head-of-line bit until a use survives erasure,
with new bits arriving deterministically every two uses (one-half bit per
use). The backlog then forms a birth-death chain whose geometric tail sets
the delay exponent; this module simulates the system, estimates per-delay
error probabilities, and fits the exponent for comparison with the closed
form ln((1-delta)/delta) of ``exponents.bec_feedback_exponent``.

The simulation serves the run in windows of ``WINDOW`` uses drawn in turn
from one random stream, so its memory is set by the window and the live
backlog, not by the horizon; the result is the same as serving the whole
run at once. The two scheme simulators of ``sim_anytime`` draw their noise
and serve their blocks in the same windows.

Every simulator is judged by ``DeadlineGrid``, the one deadline rule: the
arrival clock, the bits that count as trials and the per-delay misses.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import _SIZE_MAX, BadInputError, DomainError, _number, _seed
from .exponents import bec_feedback_exponent

# Substream tag separating the erasure draws from any other consumer of the
# same user seed.
QUEUE_STREAM = 0x51

# A bit that misses its deadline is resolved by a fair guess; the deterministic
# estimator counts it wrong with exactly this weight.
MISS_WEIGHT = 0.5

# Uses drawn and served per step of every simulator: the queue's uses, the
# schemes' noise draws, and about this many bits of fortified blocks. It
# bounds a run's working memory (a few MiB) whatever the horizon.
WINDOW = 1 << 14

# Slack in the arrival clock, so that a whole number of bits at a rate given
# as a float arrives at the use exact arithmetic would give.
_ARRIVAL_EPS = 1e-9

Z95 = 1.96


class HorizonTooShortError(DomainError):
    """The run is too short for the requested delays."""


class TooFewPointsError(DomainError):
    """Fewer than three usable rows for the exponent fit."""


class AllZeroErrorsError(DomainError):
    """Every error estimate is zero; no decay rate can be fit."""


@dataclass(frozen=True)
class DelayErrorTable:
    """Per-delay error estimates with binomial 95% half-widths."""

    delays: tuple[int, ...]
    errors: tuple[float, ...]
    trials: tuple[int, ...]
    half_widths: tuple[float, ...]

    def __post_init__(self):
        def column(name, what, lo=-math.inf, hi=math.inf, ends="[)", **kinds):
            values = getattr(self, name)
            if not isinstance(values, Iterable):
                raise BadInputError(f"table {name} must be a collection, got {values!r}")
            # The converted entries, on a frozen instance.
            object.__setattr__(self, name, tuple(_number(v, what, lo, hi, ends, **kinds)
                                                 for v in values))

        column("delays", "table delay", integer=True)
        column("errors", "error estimate", 0, 1, "[]")
        column("trials", "trial count", 1, integer=True)
        column("half_widths", "half-width", 0)
        n = len(self.delays)
        if not (len(self.errors) == len(self.trials) == len(self.half_widths) == n):
            raise DomainError("table columns have mismatched lengths")
        if any(b <= a for a, b in zip(self.delays, self.delays[1:])):
            raise DomainError("delays must be strictly increasing")

    def to_csv(self) -> str:
        lines = ["delay,error,trials,half_width"]
        for d, e, t, w in zip(self.delays, self.errors, self.trials, self.half_widths):
            lines.append(f"{d},{e:.10e},{t},{w:.10e}")
        return "\n".join(lines) + "\n"


def _error_columns(weights, trials: int):
    """(errors, trials, half_widths) from per-delay error weights over ``trials`` bits."""
    errors = tuple(float(w) / trials for w in weights)
    half_widths = tuple(Z95 * math.sqrt(p * (1.0 - p) / trials) for p in errors)
    return errors, (trials,) * len(errors), half_widths


def arrived(t: int, rate_bits: float) -> int:
    """The number of bits arrived by use t at ``rate_bits`` bits per use."""
    return int(t * rate_bits + _ARRIVAL_EPS)


def arrival(i, rate_bits: float):
    """The use at which bit i (1-based; an array gives one use per entry)
    arrives: the first use t with ``arrived(t) >= i``."""
    return np.ceil(np.divide(i, rate_bits) - _ARRIVAL_EPS).astype(np.int64)


class DeadlineGrid:
    """The deadline rule every simulator's delay/error table follows.

    Bits arrive at ``rate_bits`` per use on the clock ``arrived``/``arrival``,
    and a bit misses delay d unless delivered by its arrival plus d. The
    delays are a nonempty grid of nonnegative integers, the run spans at
    least ten times the largest, and only the bits ``bits`` (0-based) that
    arrive more than max(delays) uses from either end of the run count as
    trials, so estimates reflect the stationary regime. A grid without such
    bits is refused at construction, before anything is simulated.
    """

    def __init__(self, delays, horizon: int, rate_bits: float):
        if not isinstance(delays, Iterable):
            raise BadInputError(f"delays must be a collection of integers, got {delays!r}")
        self.delays = tuple(sorted({_number(d, "delay", 0, integer=True) for d in delays}))
        if not self.delays:
            raise DomainError("need at least one delay")
        self.dmax = self.delays[-1]
        self.horizon = _number(horizon, f"horizon for max delay {self.dmax}",
                               10 * max(self.dmax, 1), _SIZE_MAX, "[]", integer=True,
                               error=HorizonTooShortError)
        self.rate_bits = rate_bits
        self.bits = range(arrived(self.dmax, rate_bits),
                          arrived(self.horizon - self.dmax, rate_bits))
        if not self.bits:
            raise HorizonTooShortError("no bits survive the burn-in exclusion")

    def due(self, d: int, t: int) -> int:
        """Where the bits of ``bits`` due at delay d before use t end: they
        are the ones arriving by use t - d - 1."""
        return min(max(arrived(t - d - 1, self.rate_bits), self.bits.start), self.bits.stop)

    def misses(self, first: int, deliveries: np.ndarray) -> np.ndarray:
        """Per-delay counts of the bits of ``bits`` among bits first, first + 1,
        ... that are delivered after their deadline.

        ``deliveries`` holds each bit's delivery use (``+inf`` marks a bit
        never delivered). Counts over consecutive batches of bits add up to
        the count over their union.
        """
        lo = max(first, self.bits.start)
        hi = max(min(first + len(deliveries), self.bits.stop), lo)
        lateness = (deliveries[lo - first:hi - first]
                    - arrival(np.arange(lo + 1, hi + 1), self.rate_bits))
        return np.array([np.count_nonzero(lateness > d) for d in self.delays], dtype=np.int64)

    def table(self, weights, kind=DelayErrorTable, **fields) -> DelayErrorTable:
        """The ``kind`` table of per-delay error weights over the bits of ``bits``."""
        return kind(self.delays, *_error_columns(weights, len(self.bits)), **fields)


@dataclass(frozen=True)
class FitResult:
    """Least-squares decay rate of -ln(error) against delay."""

    slope: float
    r_squared: float
    excluded_delays: tuple[int, ...] = ()


def _served_batches(delta: float, horizon: int, seed: int):
    """Yield (first bit, deliveries) for consecutive runs of the bits within the horizon.

    Bit k (0-based) arrives at use 2(k + 1) and is served by the first
    surviving use at or after its arrival that no earlier bit consumed. The
    uses are drawn ``WINDOW`` at a time from one stream, which gives the
    same draws as one call over the horizon. Service is first in, first
    out, so each window yields the run of bits whose serving use it holds
    (integer deliveries); the bits still queued at the horizon come last,
    with delivery ``+inf``.

    The state carried from window to window is the number of surviving uses
    so far, the running maximum of (first eligible success - bit index) as
    one integer, the number of bits served, and the queued bits' service
    indices. FIFO service gives bit k the service index k plus that running
    maximum, so the indices increase strictly and the queued bits whose
    success the window holds are split off by one search.
    """
    rng = np.random.default_rng(np.random.SeedSequence((_seed(seed), QUEUE_STREAM)))
    successes = 0      # surviving uses before the window
    lead = 0           # running max of (first eligible success - bit index)
    done = 0           # bits served before the window
    queued_idx = np.empty(0, dtype=np.int64)
    for start in range(0, horizon, WINDOW):
        stop = min(start + WINDOW, horizon)
        # 1-based use indices of the window's surviving uses.
        succ_times = np.flatnonzero(rng.random(stop - start) < (1.0 - delta)) + (start + 1)
        order = np.arange(start // 2, stop // 2, dtype=np.int64)
        if order.size:
            first_free = successes + np.searchsorted(succ_times, 2 * (order + 1))
            shift = np.maximum(np.maximum.accumulate(first_free - order), lead)
            lead = int(shift[-1])
            queued_idx = np.concatenate((queued_idx, order + shift))
        served = int(np.searchsorted(queued_idx, successes + succ_times.size))
        yield done, succ_times[queued_idx[:served] - successes]
        done += served
        queued_idx = queued_idx[served:]
        successes += succ_times.size
    yield done, np.full(queued_idx.size, np.inf)


def simulate_bec_feedback(delta: float, horizon: int, delays, seed: int) -> DelayErrorTable:
    """Estimate per-delay error probabilities of the repeat-until-received scheme.

    A bit errs at delay d exactly when it is undelivered at its arrival
    time plus d; such misses count with weight 1/2 (the decoder's fair
    guess, taken deterministically). The bits are judged by a
    ``DeadlineGrid`` at one-half bit per use, whose clock gives bit k
    (0-based) the arrival 2(k + 1) that the service uses.

    The run is served in windows of ``WINDOW`` uses (see
    ``_served_batches``): each window's served bits add their integer miss
    counts, and bits still queued at the horizon count as undelivered, so
    memory is bounded by the window plus the backlog at any horizon.
    """
    bec_feedback_exponent(delta)  # refuses delta outside (0, 1/2)
    grid = DeadlineGrid(delays, horizon, 0.5)
    counts = np.zeros(len(grid.delays), dtype=np.int64)
    for first, deliveries in _served_batches(delta, grid.horizon, seed):
        counts += grid.misses(first, deliveries)
    return grid.table(MISS_WEIGHT * counts)


def fit_exponent(table: DelayErrorTable) -> FitResult:
    """Fit -ln(error) = slope * delay + b by least squares.

    Rows with zero estimates carry no decay information and are excluded
    (and reported); at least three usable rows are required.
    """
    usable = [(d, e) for d, e in zip(table.delays, table.errors) if e > 0.0]
    excluded = tuple(d for d, e in zip(table.delays, table.errors) if e == 0.0)
    if not usable:
        raise AllZeroErrorsError("every estimate is zero; increase the horizon or lower the delays")
    if len(usable) < 3:
        raise TooFewPointsError(f"need >= 3 nonzero rows, have {len(usable)}")
    x = np.array([d for d, _ in usable], dtype=float)
    y = np.array([-math.log(e) for _, e in usable])
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    total = y - y.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(residual @ residual) / ss_tot
    return FitResult(float(slope), r2, excluded)
