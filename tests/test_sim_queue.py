import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayexp import exponents as ex
from delayexp import sim_queue as sq
from delayexp.channel import OutOfRangeError
from delayexp.errors import DomainError
from reference import queue_level_frequencies, queue_table

LN15 = math.log(1.5)


class TestChain:
    def test_rejects_unstable_delta(self):
        # delta >= 1/2 makes the backlog chain transient.
        for bad in (0.0, 0.5, 0.9):
            with pytest.raises(OutOfRangeError):
                ex.bec_feedback_exponent(bad)
            with pytest.raises(OutOfRangeError):
                sq.simulate_bec_feedback(bad, 100_000, [4, 8, 12], 0)

    def test_closed_form_values(self):
        assert ex.bec_feedback_exponent(0.4) == pytest.approx(LN15, rel=1e-12)
        assert ex.bec_feedback_exponent(0.25) == pytest.approx(math.log(3.0), rel=1e-12)

    @given(st.floats(min_value=0.01, max_value=0.49))
    @settings(max_examples=30, deadline=None)
    def test_chain_tail_matches_closed_form(self, delta):
        # Over two uses the backlog grows by one with probability delta^2
        # (both erased) and shrinks by one with (1 - delta)^2 (both survive);
        # the stationary tail decays by birth/death per step, halved per use.
        tail = -0.5 * math.log(delta ** 2 / (1.0 - delta) ** 2)
        assert tail == pytest.approx(ex.bec_feedback_exponent(delta), rel=1e-12)


class TestSimulate:
    def test_deterministic_by_seed(self):
        a = sq.simulate_bec_feedback(0.4, 100_000, [4, 8, 12], 11)
        b = sq.simulate_bec_feedback(0.4, 100_000, [4, 8, 12], 11)
        c = sq.simulate_bec_feedback(0.4, 100_000, [4, 8, 12], 12)
        assert a == b
        assert a != c

    def test_horizon_guard(self):
        with pytest.raises(sq.HorizonTooShortError):
            sq.simulate_bec_feedback(0.4, 100, [20], 0)

    def test_zero_delay_error_positive(self):
        t = sq.simulate_bec_feedback(0.4, 200_000, [0], 3)
        assert t.errors[0] > 0.0

    def test_low_erasure_rate_tiny_errors(self):
        t = sq.simulate_bec_feedback(0.01, 100_000, [20, 24, 28], 5)
        assert all(e < 1e-4 for e in t.errors)

    def test_nonincreasing_within_noise(self):
        t = sq.simulate_bec_feedback(0.4, 400_000, [2, 4, 6, 8, 10, 12], 1)
        for i in range(len(t.delays) - 1):
            slack = t.half_widths[i] + t.half_widths[i + 1]
            assert t.errors[i + 1] <= t.errors[i] + slack

    def test_fitted_slope_tracks_closed_form(self):
        t = sq.simulate_bec_feedback(0.4, 2_000_000, [6, 10, 14, 18], 0)
        fit = sq.fit_exponent(t)
        assert 0.34 <= fit.slope <= 0.47
        assert fit.r_squared > 0.99

    def test_level_frequencies_geometric(self):
        # Successive backlog-level frequencies decay like birth/death.
        freq = queue_level_frequencies(0.4, 2_000_000, 0)
        target = 0.16 / 0.36
        for k in range(1, 6):
            assert freq[k + 1] / freq[k] == pytest.approx(target, rel=0.10)

    def test_delays_sorted_and_deduped(self):
        t = sq.simulate_bec_feedback(0.4, 100_000, [12, 4, 8, 4], 2)
        assert t.delays == (4, 8, 12)


W = sq.WINDOW
# Horizons an odd number of uses long, shorter than one window, an exact
# multiple of the window, and one use past a multiple.
HORIZONS = st.one_of(st.integers(200, 100_000).map(lambda n: 2 * n + 1),
                     st.integers(400, W - 1),
                     st.integers(1, 3).map(lambda k: k * W),
                     st.integers(1, 3).map(lambda k: k * W + 1))
DELTAS = st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True)
SEEDS = st.integers(0, 2 ** 32 - 1)
DELAY_SETS = st.lists(st.integers(0, 40), min_size=1, max_size=6)


class TestWindowedService:
    @given(delta=DELTAS, horizon=HORIZONS, delays=DELAY_SETS, seed=SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_matches_whole_horizon_reference(self, delta, horizon, delays, seed):
        assert sq.simulate_bec_feedback(delta, horizon, delays, seed) == \
            queue_table(delta, horizon, delays, seed)

    @given(delta=DELTAS, horizon=st.integers(400, 12_000), window=st.integers(1, 3_000),
           delays=DELAY_SETS, seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_any_window_matches_reference(self, delta, horizon, window, delays, seed):
        # Short windows, odd ones included, carry a backlog across many steps.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sq, "WINDOW", window)
            streamed = sq.simulate_bec_feedback(delta, horizon, delays, seed)
        assert streamed == queue_table(delta, horizon, delays, seed)

    def test_peak_memory_does_not_grow_with_horizon(self):
        # tracemalloc sees numpy's buffers: the peak is the window's working
        # set plus the backlog, a few MiB whatever the horizon.
        def traced_peak(horizon):
            tracemalloc.start()
            try:
                sq.simulate_bec_feedback(0.4, horizon, (2, 6, 10, 14, 18, 22, 26), 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = traced_peak(1_000_000), traced_peak(4_000_000)
        assert large < 6 * 2 ** 20
        assert large <= small + 2 ** 18


# The rates of the arrival-clock tests, the queue's 1/2 among them.
RATES = [1.0, 0.5, 0.25, 0.125, 3 / 14, 1 / 6, 0.3, 2 / 3, 0.15, 1 / 3]


def _brute_arrivals(rate, horizon):
    """Each bit's arrival within the horizon, as the first use whose count reaches it."""
    arrivals = []
    for t in range(1, horizon + 1):
        while len(arrivals) < sq.arrived(t, rate):
            arrivals.append(t)
    return np.array(arrivals, dtype=np.int64)


def _brute_clear(grid, arrivals):
    return (arrivals > grid.dmax) & (arrivals <= grid.horizon - grid.dmax)


class TestDeadlineGrid:
    @given(rate=st.sampled_from(RATES), horizon=st.integers(200, 3_000),
           delays=DELAY_SETS.map(lambda ds: [d % 20 for d in ds]),
           cuts=st.lists(st.integers(0, 1_200), max_size=5), seed=SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_misses_over_any_split_equal_one_call_and_brute_force(self, rate, horizon, delays,
                                                                  cuts, seed):
        grid = sq.DeadlineGrid(delays, horizon, rate)
        arrivals = _brute_arrivals(rate, horizon)
        clear = _brute_clear(grid, arrivals)
        assert len(grid.bits) == np.count_nonzero(clear)
        assert grid.bits.start == np.argmax(clear)
        lateness = np.random.default_rng(seed).integers(0, 26, size=len(arrivals))
        deliveries = (arrivals + lateness).astype(float)
        deliveries[deliveries > horizon] = np.inf
        brute = [int(np.count_nonzero(clear & (deliveries > arrivals + d))) for d in grid.delays]
        np.testing.assert_array_equal(grid.misses(0, deliveries), brute)
        bounds = [0, *sorted(min(c, len(arrivals)) for c in cuts), len(arrivals)]
        split = sum(grid.misses(a, deliveries[a:b]) for a, b in zip(bounds, bounds[1:]))
        np.testing.assert_array_equal(split, brute)
        # Batches wholly before or after the trial bits count nothing.
        never = np.full(len(arrivals), np.inf)
        assert not grid.misses(0, never[:grid.bits.start]).any()
        assert not grid.misses(grid.bits.stop, never).any()

    @pytest.mark.parametrize("rate", RATES)
    def test_due_counts_the_bits_whose_deadline_has_passed(self, rate):
        horizon = 1_000
        arrivals = _brute_arrivals(rate, horizon)
        for delays in ((0,), (3, 17), (40,)):
            grid = sq.DeadlineGrid(delays, horizon, rate)
            clear = _brute_clear(grid, arrivals)
            for d in grid.delays:
                for t in range(0, horizon + 60):
                    due = np.count_nonzero(clear & (arrivals + d < t))
                    assert grid.due(d, t) == grid.bits.start + due

    def test_refuses_a_run_without_clear_bits(self):
        # Ten times the largest delay, but at 1/1000 bit per use no bit
        # arrives between uses 5 and 45.
        with pytest.raises(sq.HorizonTooShortError, match="no bits survive"):
            sq.DeadlineGrid((5,), 50, 0.001)

    @given(st.integers(0, 10_000))
    def test_queue_rate_always_leaves_clear_bits(self, dmax):
        # At one-half bit per use every horizon the grid accepts has clear
        # bits, so the queue has no input that fails only after serving.
        grid = sq.DeadlineGrid((dmax,), 10 * max(dmax, 1), 0.5)
        assert len(grid.bits) >= 4


class TestTable:
    def test_validation(self):
        with pytest.raises(DomainError):
            sq.DelayErrorTable((4, 2), (0.1, 0.2), (10, 10), (0.0, 0.0))
        with pytest.raises(DomainError):
            sq.DelayErrorTable((2, 4), (0.1, 1.5), (10, 10), (0.0, 0.0))
        with pytest.raises(DomainError):
            sq.DelayErrorTable((2, 4), (0.1, 0.2), (10, 0), (0.0, 0.0))
        with pytest.raises(DomainError):
            sq.DelayErrorTable((2, 4), (0.1,), (10, 10), (0.0, 0.0))

    def test_table_text_is_pinned(self):
        # Exact text of a run, so refactors of the table path stay byte-identical.
        t = sq.simulate_bec_feedback(0.4, 50_000, (2, 6, 10), 9)
        assert t.to_csv() == (
            "delay,error,trials,half_width\n"
            "2,1.4901960784e-01,24990,4.4152411439e-03\n"
            "6,3.3713485394e-02,24990,2.2378332858e-03\n"
            "10,1.1044417767e-02,24990,1.2957844066e-03\n")

    def test_csv_roundtrip(self):
        t = sq.simulate_bec_feedback(0.4, 50_000, [2, 6], 9)
        text = t.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "delay,error,trials,half_width"
        assert len(lines) == 3
        d, e, n, w = lines[1].split(",")
        assert int(d) == 2
        assert float(e) == pytest.approx(t.errors[0], rel=1e-9)
        assert int(n) == t.trials[0]
        assert float(w) == pytest.approx(t.half_widths[0], rel=1e-9)


class TestFit:
    def test_exact_exponential(self):
        delays = (5, 10, 15, 20)
        errors = tuple(math.exp(-0.4 * d) for d in delays)
        t = sq.DelayErrorTable(delays, errors, (100,) * 4, (0.0,) * 4)
        fit = sq.fit_exponent(t)
        assert fit.slope == pytest.approx(0.4, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.excluded_delays == ()

    def test_zero_rows_excluded_and_reported(self):
        delays = (5, 10, 15, 20)
        errors = (math.exp(-2.0), math.exp(-4.0), math.exp(-6.0), 0.0)
        t = sq.DelayErrorTable(delays, errors, (100,) * 4, (0.0,) * 4)
        fit = sq.fit_exponent(t)
        assert fit.excluded_delays == (20,)
        assert fit.slope == pytest.approx(0.4, rel=1e-9)

    def test_too_few_points(self):
        t = sq.DelayErrorTable((5, 10, 15), (0.1, 0.05, 0.0), (10,) * 3, (0.0,) * 3)
        with pytest.raises(sq.TooFewPointsError):
            sq.fit_exponent(t)

    def test_all_zero_errors(self):
        t = sq.DelayErrorTable((5, 10, 15), (0.0, 0.0, 0.0), (10,) * 3, (0.0,) * 3)
        with pytest.raises(sq.AllZeroErrorsError):
            sq.fit_exponent(t)
