"""Discrete memoryless channel primitives.

A channel is a row-stochastic matrix ``p[x, y]`` over finite input and
output alphabets. This module owns construction and validation, the
information measures everything else is built from (mutual information,
conditional divergence, information-density variance), capacity via
alternating maximization, and the symmetry test that decides when the
uniform input distribution is optimal.

A channel is symmetric when its outputs split into groups whose
sub-matrices have permuted rows and permuted columns. The test needs no
search over such splits: columns sharing their sorted values form one
class, and a class that splits into groups with permuted rows has permuted
rows as a whole, since each input's sorted row on a union of groups is the
merge of its sorted rows on the groups, and merging, like sorting, moves no
entry further from its counterpart than the largest gap between the inputs.

All information quantities are in nats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import BadInputError

ROW_SUM_SLACK = 1e-9
CAPACITY_REL_TOL = 1e-12
CAPACITY_MAX_ITER = 10_000
SYMMETRY_ATOL = 1e-9


class NonStochasticError(BadInputError):
    """A row of the transition matrix does not sum to one."""


class NegativeEntryError(BadInputError):
    """The transition matrix contains a negative probability."""


class TooFewLettersError(BadInputError):
    """Input or output alphabet has fewer than two letters."""


class OutOfRangeError(BadInputError):
    """A channel parameter lies outside its admissible interval."""


class DimensionMismatchError(BadInputError):
    """Vector or matrix shapes are incompatible."""


@dataclass(frozen=True, eq=False)
class Channel:
    """A DMC as a row-stochastic matrix with a human-readable label."""

    p: np.ndarray
    label: str = ""

    @property
    def inputs(self) -> int:
        return self.p.shape[0]

    @property
    def outputs(self) -> int:
        return self.p.shape[1]

    @cached_property
    def _capacity_detail(self) -> "CapacityResult":
        solved = _solve(self.p[None])
        return CapacityResult(float(solved.value[0]), solved.q[0],
                              bool(solved.converged[0]), int(solved.iterations[0]))

    @cached_property
    def _symmetric(self) -> bool:
        return _partition_symmetric(self.p)

    def describe(self) -> str:
        return self.label or f"DMC({self.inputs}x{self.outputs})"


@dataclass(frozen=True)
class CapacityResult:
    """Capacity value together with the achieving input distribution.

    ``converged`` is False when the iteration cap was reached first; the
    best value found so far is still reported.
    """

    value: float
    q: np.ndarray
    converged: bool
    iterations: int


def make_dmc(matrix, label: str = "") -> Channel:
    """Validate a transition matrix and wrap it as a Channel.

    Rows must be nonnegative and sum to one within ``ROW_SUM_SLACK``;
    rows passing that check are renormalized exactly.
    """
    try:
        p = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadInputError(f"transition matrix is not a numeric 2-D array: {exc}") from exc
    if p.ndim != 2:
        raise DimensionMismatchError(f"transition matrix must be 2-D, got shape {p.shape}")
    if p.shape[0] < 2 or p.shape[1] < 2:
        raise TooFewLettersError(f"need at least 2 inputs and 2 outputs, got {p.shape[0]}x{p.shape[1]}")
    if not np.all(np.isfinite(p)):
        raise BadInputError("transition matrix contains non-finite entries")
    if np.any(p < 0):
        raise NegativeEntryError("transition matrix contains a negative entry")
    with np.errstate(over="ignore"):  # a row of huge entries sums to inf and is refused
        sums = p.sum(axis=1)
    bad = np.abs(sums - 1.0) > ROW_SUM_SLACK
    if np.any(bad):
        row = int(np.argmax(bad))
        raise NonStochasticError(f"row {row} sums to {float(sums[row])!r}, expected 1")
    return Channel(p / sums[:, None], label)


def make_bsc(delta: float) -> Channel:
    """Binary symmetric channel with crossover probability ``delta``."""
    if not 0.0 <= delta <= 0.5:
        raise OutOfRangeError(f"BSC crossover must lie in [0, 1/2], got {delta}")
    d = float(delta)
    return make_dmc([[1.0 - d, d], [d, 1.0 - d]], label=f"BSC({d:g})")


def make_bec(delta: float) -> Channel:
    """Binary erasure channel with erasure probability ``delta``.

    Outputs are ordered (0, 1, erasure).
    """
    if not 0.0 <= delta <= 1.0:
        raise OutOfRangeError(f"BEC erasure probability must lie in [0, 1], got {delta}")
    d = float(delta)
    return make_dmc([[1.0 - d, 0.0, d], [0.0, 1.0 - d, d]], label=f"BEC({d:g})")


def load_channel(path) -> Channel:
    """Read a channel from a JSON file holding ``{"matrix": [[...], ...]}``."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadInputError(f"cannot read channel file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "matrix" not in payload:
        raise BadInputError(f"channel file {path} must be a JSON object with a 'matrix' key")
    extra = set(payload) - {"matrix", "label"}
    if extra:
        raise BadInputError(f"channel file {path} has unknown keys: {sorted(extra)}")
    label = payload.get("label", "")
    if not isinstance(label, str):
        raise BadInputError("channel label must be a string")
    matrix = payload["matrix"]
    # JSON true/false load as bool, a subclass of int; numeric strings would
    # pass np.asarray, so both are rejected here.
    if not (isinstance(matrix, list) and all(isinstance(row, list) for row in matrix)
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for row in matrix for x in row)):
        raise BadInputError(f"channel file {path}: 'matrix' must be a list of lists of numbers")
    return make_dmc(matrix, label=label)


def as_input_dist(r, n: int) -> np.ndarray:
    """Coerce ``r`` (a sequence or ndarray) to a validated probability vector."""
    q = np.asarray(r, dtype=float)
    if q.shape != (n,):
        raise DimensionMismatchError(f"input distribution has shape {q.shape}, expected ({n},)")
    if np.any(q < 0):
        raise NegativeEntryError("input distribution contains a negative entry")
    with np.errstate(over="ignore"):
        total = float(q.sum())
    if abs(total - 1.0) > ROW_SUM_SLACK:
        raise NonStochasticError(f"input distribution sums to {total!r}, expected 1")
    return q / total


def mutual_information(r, ch: Channel) -> float:
    """I(r; p) in nats, with the 0 log 0 = 0 convention: the ``r``-weighted
    mean of the row divergences D(p_x || r p)."""
    q = as_input_dist(r, ch.inputs)
    live = q > 0
    return max(float(q[live] @ _kl(ch.p[live], q @ ch.p)), 0.0)


def conditional_divergence(g: Channel, p: Channel, r) -> float:
    """D(g || p | r): average row-wise relative entropy under input law ``r``.

    Returns ``math.inf`` when some row of ``g`` puts mass (with positive
    input weight) where the corresponding row of ``p`` has none.
    """
    if g.p.shape != p.p.shape:
        raise DimensionMismatchError(f"channel shapes differ: {g.p.shape} vs {p.p.shape}")
    q = as_input_dist(r, g.inputs)
    live = q > 0
    return float(q[live] @ _kl(g.p[live], p.p[live]))


def _kl(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """KL(a_i || b_i) along the last axis, ``a`` broadcast against ``b``;
    +inf where a row of ``a`` puts mass outside the support of its ``b``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a > 0, a * np.log(np.where(a > 0, a / b, 1.0)), 0.0).sum(axis=-1)


def _density_variance(p: np.ndarray, q: np.ndarray) -> float:
    """Var i(X;Y) under input law ``q``, i(x; y) = ln p(y|x) / (q p)(y): minus
    the curvature of E0(rho, q) at rho = 0. Taken about the mean I(q), so
    no cancellation sets in as the variance vanishes."""
    joint = q[:, None] * p
    live = joint > 0
    w = joint[live]
    i = np.log(p[live] / np.broadcast_to(q @ p, p.shape)[live])
    return float(w @ (i - w @ i) ** 2)


def capacity(ch: Channel) -> float:
    """Channel capacity in nats."""
    return ch._capacity_detail.value


def capacity_detail(ch: Channel) -> CapacityResult:
    """Capacity plus achieving distribution and convergence diagnostics."""
    return ch._capacity_detail


def _divergences(q: np.ndarray, p: np.ndarray, support: np.ndarray,
                 logp: np.ndarray) -> np.ndarray:
    """Per-input divergences D(p_x || q p) for a stack of channels and input laws."""
    m = np.einsum("nk,nkm->nm", q, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        logm = np.where(m > 0, np.log(np.maximum(m, 1e-300)), 0.0)
    return np.where(support, p * (logp - logm[:, None, :]), 0.0).sum(axis=2)


def _ba_step(q: np.ndarray, p: np.ndarray, support: np.ndarray,
             logp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step for a stack: I(q), the capacity bound max_x D(p_x || q p), the next laws."""
    d = _divergences(q, p, support, logp)
    value = np.einsum("nk,nk->n", q, d)
    d_max = d.max(axis=1)
    w = q * np.exp(d - d_max[:, None])
    return value, d_max, w / w.sum(axis=1, keepdims=True)


def _ba_start(mats) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Channel stack, its support mask, its logs and the uniform start laws."""
    p = np.asarray(mats, dtype=float)
    n, k, _ = p.shape
    support = p > 0
    logp = np.where(support, np.log(np.where(support, p, 1.0)), 0.0)
    return p, support, logp, np.full((n, k), 1.0 / k)


class _Solution(NamedTuple):
    value: np.ndarray       # I(q) at the last step, clamped at 0
    q: np.ndarray           # the input laws that produced ``value``
    iterations: np.ndarray  # steps taken
    converged: np.ndarray   # retired before CAPACITY_MAX_ITER ran out
    below: np.ndarray       # capacity below ``rate`` (all False without one)


def _solve(mats, rate: float | None = None) -> _Solution:
    """Blahut-Arimoto alternating maximization of a stack of channels ``mats[i]``.

    Every row starts from the uniform law and retires on its own: when its
    value settles within ``CAPACITY_REL_TOL``, or, given ``rate``, as soon
    as the step's bracket I(q_t) <= C <= max_x D(p_x || q_t p) excludes
    ``rate``. A row's result therefore does not depend on the rest of the
    stack. Live rows are compacted only on steps where some row retires.
    """
    p, support, logp, q = _ba_start(mats)
    n = p.shape[0]
    out = _Solution(np.zeros(n), q.copy(), np.zeros(n, dtype=int),
                    np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
    live = np.arange(n)
    previous = np.full(n, -1.0)
    for step in range(1, CAPACITY_MAX_ITER + 1):
        if not len(live):
            break
        value, d_max, q_next = _ba_step(q, p, support, logp)
        settled = np.abs(value - previous) <= CAPACITY_REL_TOL * np.maximum(1.0, np.abs(value))
        if rate is not None:
            feasible = d_max < rate
            settled |= feasible | (value >= rate)
        retire = settled if step < CAPACITY_MAX_ITER else np.ones(len(live), dtype=bool)
        if np.any(retire):
            rows = live[retire]
            out.value[rows] = np.maximum(value[retire], 0.0)
            out.q[rows] = q[retire]
            out.iterations[rows] = step
            out.converged[rows] = settled[retire]
            if rate is not None:
                out.below[rows] = feasible[retire] | (out.value[rows] < rate)
            keep = ~retire
            live, p, support, logp = live[keep], p[keep], support[keep], logp[keep]
            value, q_next = value[keep], q_next[keep]
        previous, q = value, q_next
    return out


def capacity_batch(mats: np.ndarray) -> np.ndarray:
    """Capacities of a stack of channels ``mats[i]``, all with one shape.

    Same iteration as :func:`capacity`, vectorized over the leading axis so
    grid searches over channel space stay affordable; row ``i`` equals
    ``capacity_batch(mats[i:i + 1])[0]``.
    """
    return _solve(mats).value


def capacity_below(mats: np.ndarray, rate: float) -> np.ndarray:
    """Boolean mask of the channels in the stack ``mats`` with capacity below ``rate``.

    Runs the iteration of :func:`capacity_batch`, but every step brackets
    each capacity, I(q_t) <= C <= max_x D(p_x || q_t p), so a row is
    decided as soon as ``rate`` falls outside its bracket; only undecided
    rows keep iterating. A row that no bound decides is judged by the value
    it settles at, so the mask is ``capacity_batch(mats) < rate``.
    """
    return _solve(mats, rate).below


def is_symmetric(ch: Channel) -> bool:
    """Whether the channel splits into column groups whose sub-matrices have
    mutually permuted rows and mutually permuted columns.

    For such channels the uniform input distribution maximizes both mutual
    information and the exponent functions this package evaluates.
    """
    return ch._symmetric


def _partition_symmetric(p: np.ndarray) -> bool:
    # Columns in one group must be permutations of each other: bucket them by
    # their sorted values at 9 decimals, the resolution of SYMMETRY_ATOL, and
    # within a class that half of the test holds by construction. The row
    # half holds for a class split into groups exactly when it holds for the
    # whole class (the merge argument in the module docstring), so each class
    # takes one row test.
    classes: dict[tuple, list[int]] = {}
    for y in range(p.shape[1]):
        key = tuple(np.round(np.sort(p[:, y]), 9))
        classes.setdefault(key, []).append(y)
    for members in classes.values():
        rows_sorted = np.sort(p[:, members], axis=1)
        if not np.allclose(rows_sorted, rows_sorted[0], atol=SYMMETRY_ATOL, rtol=0.0):
            return False
    return True
