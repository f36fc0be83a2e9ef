"""Queue-based simulation of the erasure channel with perfect feedback.

The transmitter repeats the head-of-line bit until a use survives erasure,
with new bits arriving deterministically every two uses (one-half bit per
use). The backlog then forms a birth-death chain whose geometric tail sets
the delay exponent; this module simulates the system, estimates per-delay
error probabilities, and fits the exponent for comparison with the closed
form ln((1-delta)/delta) of ``exponents.bec_feedback_exponent``.
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

    def eligible(self, arrivals: np.ndarray) -> np.ndarray:
        """Mask of the bits arriving clear of the burn-in at both ends."""
        mask = (arrivals > self.dmax) & (arrivals <= self.horizon - self.dmax)
        if not mask.any():
            raise HorizonTooShortError("no bits survive the burn-in exclusion")
        return mask

    def miss_weights(self, arrivals: np.ndarray, deliveries: np.ndarray):
        """Per-delay error weights of bits undelivered by their deadline, and the trials.

        A bit misses delay d when it is still undelivered at its arrival
        time plus d; the decoder then guesses, so it counts with weight 1/2.
        """
        eligible = self.eligible(arrivals)
        arr, dlv = arrivals[eligible], deliveries[eligible]
        weights = tuple(MISS_WEIGHT * float(np.count_nonzero(dlv > arr + d))
                        for d in self.delays)
        return weights, int(arr.size)

    def table(self, weights, trials: int, kind=DelayErrorTable, **fields) -> DelayErrorTable:
        """The ``kind`` table of per-delay error weights over ``trials`` bits."""
        return kind(self.delays, *_error_columns(weights, trials), **fields)


@dataclass(frozen=True)
class FitResult:
    """Least-squares decay rate of -ln(error) against delay."""

    slope: float
    r_squared: float
    excluded_delays: tuple[int, ...] = ()


def _service_times(delta: float, horizon: int, seed: int):
    """Delivery time of every bit arriving within the horizon (+inf if never).

    Bit i (1-based) arrives at use 2i and is served by the first surviving
    use at or after its arrival that is not consumed by an earlier bit.
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


def simulate_bec_feedback(delta: float, horizon: int, delays, seed: int) -> DelayErrorTable:
    """Estimate per-delay error probabilities of the repeat-until-received scheme.

    A bit errs at delay d exactly when it is undelivered at its arrival
    time plus d; such misses count with weight 1/2 (the decoder's fair
    guess, taken deterministically). Bits arriving within max(delays) uses
    of either end of the run are excluded so estimates reflect the
    stationary chain.
    """
    if not 0.0 < delta < 0.5:
        raise OutOfRangeError(f"erasure probability must lie in (0, 1/2), got {delta}")
    grid = DeadlineGrid(delays, horizon)
    arrivals, delivery = _service_times(delta, grid.horizon, seed)
    return grid.table(*grid.miss_weights(arrivals, delivery))


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
