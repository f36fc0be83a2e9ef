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
run at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import OutOfRangeError
from .errors import DomainError

# Substream tag separating the erasure draws from any other consumer of the
# same user seed.
QUEUE_STREAM = 0x51

# A bit that misses its deadline is resolved by a fair guess; the deterministic
# estimator counts it wrong with exactly this weight.
MISS_WEIGHT = 0.5

# Uses drawn and served per step of the queue simulation. It bounds the
# simulation's working memory (a few MiB) whatever the horizon.
WINDOW = 1 << 16

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
        n = len(self.delays)
        if not (len(self.errors) == len(self.trials) == len(self.half_widths) == n):
            raise DomainError("table columns have mismatched lengths")
        if any(b <= a for a, b in zip(self.delays, self.delays[1:])):
            raise DomainError("delays must be strictly increasing")
        if any(not 0.0 <= e <= 1.0 for e in self.errors):
            raise DomainError("error estimates must lie in [0, 1]")
        if any(t <= 0 for t in self.trials):
            raise DomainError("trial counts must be positive")

    def to_csv(self) -> str:
        lines = ["delay,error,trials,half_width"]
        for d, e, t, w in zip(self.delays, self.errors, self.trials, self.half_widths):
            lines.append(f"{d},{e:.10e},{t},{w:.10e}")
        return "\n".join(lines) + "\n"


def _error_columns(weights, trials: int):
    """(errors, trials, half_widths) from per-delay error weights over ``trials`` bits."""
    errors = tuple(w / trials for w in weights)
    half_widths = tuple(Z95 * math.sqrt(p * (1.0 - p) / trials) for p in errors)
    return errors, (trials,) * len(errors), half_widths


class DeadlineGrid:
    """The delays a run is judged at, and which of its bits count as trials.

    Every simulator's delay/error table follows the same rules: the delays
    form a nonempty grid of nonnegative integers, the run spans at least ten
    times the largest delay, and only bits arriving more than max(delays)
    uses from either end of the run count, so estimates reflect the
    stationary regime rather than the start-up and the cut-off.
    """

    def __init__(self, delays, horizon: int):
        self.delays = tuple(sorted(set(int(d) for d in delays)))
        if not self.delays:
            raise DomainError("need at least one delay")
        if self.delays[0] < 0:
            raise DomainError("delays must be nonnegative")
        self.dmax = self.delays[-1]
        self.horizon = int(horizon)
        need = 10 * max(self.dmax, 1)
        if self.horizon < need:
            raise HorizonTooShortError(
                f"horizon {self.horizon} is too short for max delay {self.dmax}; need >= {need}")

    def _clear(self, arrivals: np.ndarray) -> np.ndarray:
        return (arrivals > self.dmax) & (arrivals <= self.horizon - self.dmax)

    def clear_range(self, arrived) -> range:
        """Indices, in arrival order, of the bits arriving clear of the burn-in
        at both ends; ``arrived(t)`` is the number of bits arrived by use t."""
        bits = range(arrived(self.dmax), arrived(self.horizon - self.dmax))
        if not bits:
            raise HorizonTooShortError("no bits survive the burn-in exclusion")
        return bits

    def miss_counts(self, arrivals: np.ndarray, deliveries: np.ndarray):
        """Per-delay counts of eligible bits undelivered by their deadline, and the trials.

        A bit misses delay d when it is still undelivered at its arrival
        time plus d (``+inf`` marks a bit never delivered). Counts over
        disjoint batches of bits add up to the count over their union.
        """
        clear = self._clear(arrivals)
        lateness = deliveries[clear] - arrivals[clear]
        counts = np.array([np.count_nonzero(lateness > d) for d in self.delays], dtype=np.int64)
        return counts, int(lateness.size)

    def weigh(self, counts, trials: int):
        """Per-delay error weights of the miss ``counts``, and the trials.

        A missed bit is resolved by the decoder's fair guess, so it counts
        with weight 1/2.
        """
        if trials == 0:
            raise HorizonTooShortError("no bits survive the burn-in exclusion")
        return tuple(MISS_WEIGHT * float(c) for c in counts), trials

    def table(self, weights, trials: int, kind=DelayErrorTable, **fields) -> DelayErrorTable:
        """The ``kind`` table of per-delay error weights over ``trials`` bits."""
        return kind(self.delays, *_error_columns(weights, trials), **fields)


@dataclass(frozen=True)
class FitResult:
    """Least-squares decay rate of -ln(error) against delay."""

    slope: float
    r_squared: float
    excluded_delays: tuple[int, ...] = ()


def _served_batches(delta: float, horizon: int, seed: int):
    """Yield (arrivals, deliveries) of every bit arriving within the horizon.

    Bit k (0-based) arrives at use 2(k + 1) and is served by the first
    surviving use at or after its arrival that no earlier bit consumed. The
    uses are drawn ``WINDOW`` at a time from one stream, which gives the
    same draws as one call over the horizon. Each window yields the bits
    whose serving use it holds (integer deliveries); the bits still queued
    at the horizon come last, with delivery ``+inf``.

    The state carried from window to window is the number of surviving uses
    so far, the running maximum of (first eligible success - bit index) as
    one integer, and the queued bits with their service indices. FIFO
    service gives bit k the service index k plus that running maximum, so
    the indices increase strictly and the queued bits whose success the
    window holds are split off by one search.
    """
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), QUEUE_STREAM)))
    successes = 0      # surviving uses before the window
    lead = 0           # running max of (first eligible success - bit index)
    queued_arrivals = np.empty(0, dtype=np.int64)
    queued_idx = np.empty(0, dtype=np.int64)
    for start in range(0, horizon, WINDOW):
        stop = min(start + WINDOW, horizon)
        # 1-based use indices of the window's surviving uses.
        succ_times = np.flatnonzero(rng.random(stop - start) < (1.0 - delta)) + (start + 1)
        order = np.arange(start // 2, stop // 2, dtype=np.int64)
        if order.size:
            arrivals = 2 * (order + 1)
            first_free = successes + np.searchsorted(succ_times, arrivals)
            shift = np.maximum(np.maximum.accumulate(first_free - order), lead)
            lead = int(shift[-1])
            queued_arrivals = np.concatenate((queued_arrivals, arrivals))
            queued_idx = np.concatenate((queued_idx, order + shift))
        served = int(np.searchsorted(queued_idx, successes + succ_times.size))
        yield queued_arrivals[:served], succ_times[queued_idx[:served] - successes]
        queued_arrivals, queued_idx = queued_arrivals[served:], queued_idx[served:]
        successes += succ_times.size
    yield queued_arrivals, np.full(queued_arrivals.size, np.inf)


def simulate_bec_feedback(delta: float, horizon: int, delays, seed: int) -> DelayErrorTable:
    """Estimate per-delay error probabilities of the repeat-until-received scheme.

    A bit errs at delay d exactly when it is undelivered at its arrival
    time plus d; such misses count with weight 1/2 (the decoder's fair
    guess, taken deterministically). Bits arriving within max(delays) uses
    of either end of the run are excluded so estimates reflect the
    stationary chain.

    The run is served in windows of ``WINDOW`` uses (see
    ``_served_batches``): each window's served bits add their integer miss
    counts, and bits still queued at the horizon count as undelivered, so
    memory is bounded by the window plus the backlog at any horizon.
    """
    if not 0.0 < delta < 0.5:
        raise OutOfRangeError(f"erasure probability must lie in (0, 1/2), got {delta}")
    grid = DeadlineGrid(delays, horizon)
    counts = np.zeros(len(grid.delays), dtype=np.int64)
    trials = 0
    for arrivals, deliveries in _served_batches(delta, grid.horizon, seed):
        batch_counts, batch_trials = grid.miss_counts(arrivals, deliveries)
        counts += batch_counts
        trials += batch_trials
    return grid.table(*grid.weigh(counts, trials))


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
