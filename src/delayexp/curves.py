"""Rate sweeps of the exponent bounds, CSV emission, and plot scripts.

A sweep evaluates a chosen set of bounds on a uniform rate grid and packs
the results into a :class:`CurveTable`. Parametric curves are inverted to
the rate axis point by point so every bound shares one x-axis. Cells never
abort a sweep: domain failures and numerical sentinels ride along as flags
and become empty fields (not zeros) in the CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Channel, capacity
from .errors import DelayexpError, DomainError
from . import exponents as ex

LN2 = math.log(2.0)


class EmptyTableError(DomainError):
    """The curve table holds no rows."""


@dataclass(frozen=True)
class CurveCell:
    """One evaluated bound at one rate."""

    value: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class CurveTable:
    """A rate-indexed table of exponent bounds in one unit.

    ``capacity`` is carried in the same unit as the rates so emitters can
    place the capacity marker without re-deriving the channel.
    """

    channel_descriptor: str
    unit: str
    capacity: float
    bounds: tuple[str, ...]
    rates: tuple[float, ...]
    columns: dict[str, tuple[CurveCell, ...]]


def _evaluate_cell(ch: Channel, bound: str, rate: float) -> CurveCell:
    try:
        res = ex.bound_at_rate(ch, bound, rate)
    except DelayexpError as exc:
        return CurveCell(0.0, (f"error:{type(exc).__name__}",))
    return CurveCell(res.value, res.flags)


def sweep(ch: Channel, rate_min: float, rate_max: float, points: int,
          bounds) -> CurveTable:
    """Evaluate ``bounds`` on a uniform rate grid, in nats.

    ``bounds`` is a collection of names from ``exponents.BOUNDS_AT_RATE``
    ("sp", "rc", "list", "focusing", "achieved"; "list" at list size 2).
    The columns follow that order, whatever the order of ``bounds``.
    """
    requested = set(bounds)
    unknown = requested - set(ex.BOUNDS_AT_RATE)
    if unknown:
        raise DomainError(f"unknown bounds: {sorted(map(str, unknown))}")
    order = tuple(b for b in ex.BOUNDS_AT_RATE if b in requested)
    if not order:
        raise DomainError("no bounds requested")
    if not points >= 2:
        raise DomainError(f"points must be >= 2, got {points}")
    # Capacity first: a zero-capacity channel makes every rate interval empty.
    cap = capacity(ch)
    if cap < ex.DEGENERATE_CAPACITY:
        raise ex.DegenerateChannelError(f"channel capacity {cap!r} is numerically zero")
    if not 0.0 < rate_min < rate_max:
        raise DomainError(f"need 0 < rate_min < rate_max, got [{rate_min}, {rate_max}]")
    if rate_max > cap * (1.0 + 1e-12):
        raise DomainError(f"rate_max {rate_max} exceeds capacity {cap}")
    rates = [float(r) for r in np.linspace(rate_min, rate_max, points)]
    columns = {b: tuple(_evaluate_cell(ch, b, r) for r in rates) for b in order}
    return CurveTable(ch.describe(), "nats", cap, order, tuple(rates), columns)


def convert(table: CurveTable, unit: str) -> CurveTable:
    """Rescale a table between nats and bits (exact factor ln 2)."""
    if unit not in ("nats", "bits"):
        raise DomainError(f"unit must be 'nats' or 'bits', got {unit!r}")
    if unit == table.unit:
        return table
    factor = 1.0 / LN2 if unit == "bits" else LN2
    columns = {
        b: tuple(CurveCell(c.value * factor if math.isfinite(c.value) else c.value, c.flags)
                 for c in cells)
        for b, cells in table.columns.items()
    }
    return CurveTable(table.channel_descriptor, unit, table.capacity * factor,
                      table.bounds, tuple(r * factor for r in table.rates), columns)


def _printable(cell: CurveCell) -> bool:
    return math.isfinite(cell.value) and not any(f.startswith("error:") for f in cell.flags)


def emit_csv(table: CurveTable) -> str:
    """Render a table as CSV: 9-decimal fixed point, empty fields for sentinels."""
    if not table.rates:
        raise EmptyTableError("cannot emit an empty curve table")
    lines = ["rate," + ",".join(table.bounds)]
    for i, rate in enumerate(table.rates):
        fields = [f"{rate:.9f}"]
        for b in table.bounds:
            cell = table.columns[b][i]
            fields.append(f"{cell.value:.9f}" if _printable(cell) else "")
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def emit_plot_script(table: CurveTable, csv_path: str) -> str:
    """A gnuplot script drawing one line per bound plus a capacity marker."""
    if not table.rates:
        raise EmptyTableError("cannot emit an empty curve table")
    lines = [
        f"# {table.channel_descriptor}: exponent bounds vs rate, in {table.unit}",
        "set datafile separator ','",
        "set key top right",
        f"set xlabel 'rate ({table.unit})'",
        f"set ylabel 'exponent ({table.unit})'",
        f"set arrow from {table.capacity:.9f}, graph 0 to {table.capacity:.9f}, graph 1 nohead dashtype 2",
        f"set label 'capacity' at {table.capacity:.9f}, graph 0.95 right offset character -1, 0",
    ]
    plots = [f"'{csv_path}' using 1:{i + 2} with lines title '{b}'"
             for i, b in enumerate(table.bounds)]
    lines.append("plot \\")
    lines.append(", \\\n".join("    " + p for p in plots))
    return "\n".join(lines) + "\n"


def crossover_rate(table: CurveTable) -> float | None:
    """Smallest grid rate from which the achieved curve stays strictly above sp.

    None when the achieved curve is not above sphere packing at the top of
    the grid (no high-rate crossover on this grid). Requires both "sp" and
    "achieved" columns.
    """
    for needed in ("sp", "achieved"):
        if needed not in table.bounds:
            raise DomainError(f"crossover needs the {needed!r} column")
    sp = table.columns["sp"]
    av = table.columns["achieved"]
    above = [a.value > s.value and _printable(a) and _printable(s)
             for a, s in zip(av, sp)]
    if not above[-1]:
        return None
    k = len(above) - 1
    while k > 0 and above[k - 1]:
        k -= 1
    return table.rates[k]
