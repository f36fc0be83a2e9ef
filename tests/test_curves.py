import csv
import io
import math

import numpy as np
import pytest

from delayexp import channel as chan
from delayexp import curves
from delayexp import exponents as ex
from delayexp.errors import DomainError

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def bsc04():
    return chan.make_bsc(0.4)


@pytest.fixture(scope="module")
def small_table(bsc04):
    cap = chan.capacity(bsc04)
    return curves.sweep(bsc04, 0.1 * cap, 0.9 * cap, 16, {"sp", "focusing", "achieved"})


def parse_csv(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = [[float(x) if x else None for x in row] for row in reader]
    return header, rows


class TestSweep:
    def test_structure(self, small_table):
        t = small_table
        assert t.unit == "nats"
        assert t.bounds == ("sp", "focusing", "achieved")
        assert len(t.rates) == 16
        assert all(b > a for a, b in zip(t.rates, t.rates[1:]))
        assert all(len(t.columns[b]) == 16 for b in t.bounds)

    def test_rowwise_dominance(self, small_table):
        columns = small_table.columns
        for focusing, achieved in zip(columns["focusing"], columns["achieved"]):
            assert focusing.value >= achieved.value >= 0.0

    def test_two_points(self, bsc04):
        cap = chan.capacity(bsc04)
        t = curves.sweep(bsc04, 0.3 * cap, 0.9 * cap, 2, {"sp"})
        assert len(t.rates) == 2
        assert t.rates[0] == pytest.approx(0.3 * cap)
        assert t.rates[1] == pytest.approx(0.9 * cap)

    def test_canonical_order_with_lists(self, bsc04):
        cap = chan.capacity(bsc04)
        t = curves.sweep(bsc04, 0.2 * cap, 0.5 * cap, 2,
                         {"achieved", "list", "rc", "focusing", "sp"})
        assert t.bounds == ex.BOUNDS_AT_RATE
        t = curves.sweep(bsc04, 0.2 * cap, 0.5 * cap, 2, ["achieved", "list", "sp"])
        assert t.bounds == ("sp", "list", "achieved")

    def test_list_column_is_list_size_two(self, bsc04):
        cap = chan.capacity(bsc04)
        t = curves.sweep(bsc04, 0.2 * cap, 0.5 * cap, 3, {"list"})
        for rate, cell in zip(t.rates, t.columns["list"]):
            assert cell.value == ex.list_random_coding(bsc04, rate, 2).value

    def test_preconditions(self, bsc04):
        cap = chan.capacity(bsc04)
        with pytest.raises(DomainError):
            curves.sweep(bsc04, 0.1 * cap, 1.1 * cap, 8, {"sp"})
        with pytest.raises(DomainError):
            curves.sweep(bsc04, 0.5 * cap, 0.2 * cap, 8, {"sp"})
        with pytest.raises(DomainError):
            curves.sweep(bsc04, 0.1 * cap, 0.5 * cap, 1, {"sp"})
        # Only the names in exponents.BOUNDS_AT_RATE are bounds.
        for bounds in ({"nonsense"}, {"list:zero"}, {"er"}, {"list:2"}, {"sp", "er"}, set()):
            with pytest.raises(DomainError):
                curves.sweep(bsc04, 0.1 * cap, 0.5 * cap, 8, bounds)
        with pytest.raises(ex.DegenerateChannelError):
            curves.sweep(chan.make_dmc([[0.5, 0.5], [0.5, 0.5]]), 0.01, 0.02, 4, {"sp"})

    def test_extreme_list_size_still_sweeps(self, bsc04):
        cap = chan.capacity(bsc04)
        for rate in np.linspace(0.2 * cap, 0.5 * cap, 3):
            assert math.isfinite(ex.list_random_coding(bsc04, float(rate), 10 ** 6).value)

    def test_cell_errors_become_flags(self):
        # Per-cell evaluation converts domain failures into error flags
        # instead of aborting, so one bad cell cannot sink a sweep.
        useless = chan.make_dmc([[0.5, 0.5], [0.5, 0.5]])
        cell = curves._evaluate_cell(useless, "sp", 0.1)
        assert cell.value == 0.0
        assert any(f.startswith("error:") for f in cell.flags)


class TestEmitCsv:
    def test_deterministic_bytes(self, bsc04):
        cap = chan.capacity(bsc04)
        a = curves.emit_csv(curves.sweep(bsc04, 0.1 * cap, 0.8 * cap, 8, {"sp", "rc"}))
        b = curves.emit_csv(curves.sweep(bsc04, 0.1 * cap, 0.8 * cap, 8, {"sp", "rc"}))
        assert a == b

    def test_single_row_two_lines(self):
        t = curves.CurveTable("demo", "nats", 0.5, ("sp",), (0.25,),
                              {"sp": (curves.CurveCell(0.125),)})
        text = curves.emit_csv(t)
        assert text == "rate,sp\n0.250000000,0.125000000\n"

    def test_reparse_matches_table(self, small_table):
        header, rows = parse_csv(curves.emit_csv(small_table))
        assert header == ["rate", "sp", "focusing", "achieved"]
        for j, bound in enumerate(small_table.bounds):
            values = [r[j + 1] for r in rows]
            table_vals = [c.value for c in small_table.columns[bound]]
            assert min(values) == pytest.approx(min(table_vals), abs=5e-10)
            assert max(values) == pytest.approx(max(table_vals), abs=5e-10)

    def test_unit_conversion(self, small_table):
        bits = curves.convert(small_table, "bits")
        assert bits.unit == "bits"
        assert bits.capacity == pytest.approx(small_table.capacity / LN2, rel=1e-15)
        for b in small_table.bounds:
            for cn, cb in zip(small_table.columns[b], bits.columns[b]):
                assert cb.value == pytest.approx(cn.value / LN2, rel=1e-12, abs=1e-300)
        assert curves.convert(bits, "nats").capacity == pytest.approx(small_table.capacity, rel=1e-12)
        with pytest.raises(DomainError):
            curves.convert(small_table, "hartleys")

    def test_sentinel_cells_emitted_empty(self):
        # The error-free channel drives sphere packing to +inf below capacity;
        # those cells must become gaps, not zeros.
        ident = chan.make_dmc(np.eye(2))
        t = curves.sweep(ident, 0.1 * LN2, 0.9 * LN2, 4, {"sp"})
        _, rows = parse_csv(curves.emit_csv(t))
        assert all(r[1] is None for r in rows)

    def test_empty_table_rejected(self):
        empty = curves.CurveTable("demo", "nats", 0.5, ("sp",), (), {"sp": ()})
        with pytest.raises(curves.EmptyTableError):
            curves.emit_csv(empty)
        with pytest.raises(curves.EmptyTableError):
            curves.emit_plot_script(empty, "x.csv")


class TestPlotScript:
    def test_references_all_columns(self, small_table):
        script = curves.emit_plot_script(small_table, "curves.csv")
        for idx, bound in enumerate(small_table.bounds):
            assert f"using 1:{idx + 2}" in script
            assert f"title '{bound}'" in script

    def test_capacity_marker_and_determinism(self, small_table):
        script = curves.emit_plot_script(small_table, "curves.csv")
        assert f"{small_table.capacity:.9f}" in script
        assert script == curves.emit_plot_script(small_table, "curves.csv")
        assert script.isascii()


class TestCrossover:
    def test_bsc_crossover_location(self, bsc04):
        cap = chan.capacity(bsc04)
        t = curves.sweep(bsc04, 0.01 * cap, 0.999 * cap, 128, {"sp", "achieved"})
        r_star = curves.crossover_rate(t)
        assert r_star is not None
        assert 0.2 * cap < r_star < 0.32 * cap

    def test_requires_columns(self, bsc04):
        cap = chan.capacity(bsc04)
        t = curves.sweep(bsc04, 0.1 * cap, 0.5 * cap, 4, {"sp"})
        with pytest.raises(DomainError):
            curves.crossover_rate(t)

    def test_none_when_no_crossover(self):
        t = curves.CurveTable(
            "demo", "nats", 1.0, ("sp", "achieved"), (0.1, 0.2),
            {"sp": (curves.CurveCell(0.5), curves.CurveCell(0.4)),
             "achieved": (curves.CurveCell(0.3), curves.CurveCell(0.2))})
        assert curves.crossover_rate(t) is None
