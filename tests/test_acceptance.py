"""End-to-end acceptance checks, one per headline behavior.

Each test prints a single ``[criterion N] ...: PASS/FAIL`` line (visible
under ``pytest -s``) and then asserts, so the suite both reports and
gates. Tolerances and runtime budgets are part of each check.
"""

import math
import time
from dataclasses import replace

import numpy as np

from delayexp.channel import capacity, make_bec, make_bsc
from delayexp.exponents import (
    achieved_exponent,
    achieved_exponent_at_rate,
    bec_feedback_exponent,
    e0_max,
    focusing_bound,
    haroutunian_oracle,
    list_random_coding,
    overhead_fraction,
    random_coding,
    sphere_packing,
)
from delayexp.sim_anytime import SchemeConfig, fortified_run, synthesized_run
from delayexp.sim_queue import fit_exponent, simulate_bec_feedback
from reference import queue_level_frequencies

LN2 = math.log(2.0)
LN15 = math.log(1.5)
HALF_BIT = 0.5 * LN2


def _report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion}] {label}: {verdict}{suffix}")
    assert ok, f"criterion {criterion} ({label}) failed{suffix}"


def test_criterion_1_bec_sphere_packing_closed_form():
    start = time.perf_counter()
    got = sphere_packing(make_bec(0.4), HALF_BIT).value
    want = -0.5 * math.log(4.0 * 0.4 * 0.6)
    elapsed = time.perf_counter() - start
    ok = abs(got - want) <= 1e-6 and elapsed < 1.0
    _report(1, "sphere packing, BEC(0.4) at half a bit", ok,
            f"value {got:.9f}, |diff| {abs(got - want):.2e}, {elapsed:.2f}s")


def test_criterion_2_bec_focusing_equals_feedback_exponent():
    start = time.perf_counter()
    focusing = focusing_bound(make_bec(0.4), HALF_BIT).value
    feedback = bec_feedback_exponent(0.4)
    sp = sphere_packing(make_bec(0.4), HALF_BIT).value
    ratio = focusing / sp
    elapsed = time.perf_counter() - start
    ok = (abs(focusing - LN15) <= 1e-6
          and abs(focusing - feedback) <= 1e-6
          and 19.0 <= ratio <= 21.0
          and elapsed < 1.0)
    _report(2, "focusing bound, BEC(0.4) at half a bit", ok,
            f"value {focusing:.9f}, ratio to criterion 1 {ratio:.3f}, {elapsed:.2f}s")


def test_criterion_3_achieved_curve_algebra():
    start = time.perf_counter()
    ch = make_bsc(0.4)
    e0_one = e0_max(ch, 1.0).value
    worst = 0.0
    for rho in (0.25, 0.5, 1.0, 2.0, 4.0):
        e0_rho = e0_max(ch, rho).value
        point = achieved_exponent(ch, rho)
        psi = overhead_fraction(ch, rho)
        harmonic = 1.0 / (1.0 / e0_rho + 1.0 / e0_one)
        worst = max(worst,
                    abs(point.exponent - harmonic),
                    abs(point.rate - point.exponent / rho),
                    abs(psi * e0_one - (1.0 - psi) * e0_rho))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    _report(3, "achieved-curve identities, BSC(0.4)", ok,
            f"worst residual {worst:.2e}, {elapsed:.2f}s")


def _secant(rates: np.ndarray, values: np.ndarray, mask: np.ndarray) -> float:
    idx = np.flatnonzero(mask)
    lo, hi = idx[0], idx[-1]
    return abs((values[hi] - values[lo]) / (rates[hi] - rates[lo]))


def test_criterion_4_curve_shapes_near_capacity():
    start = time.perf_counter()
    ch = make_bsc(0.4)
    cap = capacity(ch)
    rates = np.linspace(0.01 * cap, 0.999 * cap, 128)
    sp = np.array([sphere_packing(ch, r).value for r in rates])
    fo = np.array([focusing_bound(ch, r).value for r in rates])
    av = np.array([achieved_exponent_at_rate(ch, r).value for r in rates])

    ordered = bool(np.all(fo >= av - 1e-12) and np.all(av >= -1e-12))
    above = av > sp
    k = len(above)
    while k > 0 and above[k - 1]:
        k -= 1
    crossover_exists = 0 < k < len(above)

    span = rates[-1] - rates[0]
    top = rates >= rates[-1] - 0.1 * span
    mid = (rates >= rates[0] + 0.4 * span) & (rates <= rates[0] + 0.6 * span)
    sp_ratio = _secant(rates, sp, top) / _secant(rates, sp, mid)
    fo_ratio = _secant(rates, fo, top) / _secant(rates, fo, mid)
    av_ratio = _secant(rates, av, top) / _secant(rates, av, mid)

    elapsed = time.perf_counter() - start
    ok = (ordered and crossover_exists and sp_ratio <= 0.1
          and fo_ratio >= 0.1 and av_ratio >= 0.1 and elapsed < 30.0)
    _report(4, "curve shapes near capacity, BSC(0.4)", ok,
            f"crossover at {rates[k] / cap if crossover_exists else -1:.3f}C, "
            f"secant ratios sp {sp_ratio:.4f} / focusing {fo_ratio:.4f} / "
            f"achieved {av_ratio:.4f}, {elapsed:.1f}s")


def test_criterion_5_dual_route_sphere_packing_agreement():
    start = time.perf_counter()
    worst = 0.0
    for delta in (0.1, 0.4):
        ch = make_bsc(delta)
        cap = capacity(ch)
        for frac in (0.3, 0.6, 0.9):
            rate = frac * cap
            direct = sphere_packing(ch, rate).value
            oracle = haroutunian_oracle(ch, rate, grid_steps=100)
            worst = max(worst, abs(direct - oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-3 and elapsed < 30.0
    _report(5, "max-divergence oracle vs parametric sphere packing", ok,
            f"worst |diff| {worst:.2e} nats, {elapsed:.1f}s")


def test_criterion_6_bec_queue_simulation_tracks_theory():
    start = time.perf_counter()
    table = simulate_bec_feedback(0.4, 2_000_000, (6, 10, 14, 18), 0)
    fit = fit_exponent(table)
    slope_ok = abs(fit.slope - LN15) <= 0.15 * LN15

    freq = queue_level_frequencies(0.4, 2_000_000, 0, max_level=8)
    target = 0.16 / 0.36
    ratios = [freq[k + 1] / freq[k] for k in range(1, 6)]
    ratios_ok = all(abs(r - target) <= 0.10 * target for r in ratios)

    elapsed = time.perf_counter() - start
    ok = slope_ok and ratios_ok and elapsed < 120.0
    _report(6, "erasure-queue simulation, delta 0.4", ok,
            f"slope {fit.slope:.5f} vs {LN15:.5f}, level ratios "
            f"{min(ratios):.4f}..{max(ratios):.4f} vs {target:.4f}, {elapsed:.1f}s")


def test_criterion_7_fortified_scheme_reproduces_bec_exponent():
    start = time.perf_counter()
    cfg = SchemeConfig(n=1, c=2, l=0, theta=0, rate_bits=0.5, seed=0)
    table = fortified_run(cfg, make_bec(0.4), 400_000, (6, 10, 14, 18), 0)
    fit = fit_exponent(table)
    elapsed = time.perf_counter() - start
    ok = abs(fit.slope - LN15) <= 0.20 * LN15 and elapsed < 300.0
    _report(7, "fortified scheme on BEC(0.4) at half a bit", ok,
            f"slope {fit.slope:.5f} vs {LN15:.5f}, r^2 {fit.r_squared:.5f}, "
            f"{elapsed:.1f}s")


def test_criterion_8_property_suite():
    start = time.perf_counter()
    checks: list[bool] = []

    # Gallager-function shape on a rho grid, three channels.
    rhos = np.linspace(0.05, 4.0, 25)
    for ch in (make_bsc(0.4), make_bsc(0.1), make_bec(0.4)):
        e0 = np.array([e0_max(ch, r).value for r in rhos])
        checks.append(bool(np.all(np.diff(e0) > 0)))            # increasing
        checks.append(bool(np.all(np.diff(e0, 2) < 1e-9)))      # concave
        checks.append(bool(np.all(np.diff(e0 / rhos) < 0)))     # rate decreasing
        h = 1e-4
        slope0 = e0_max(ch, h).value / h
        checks.append(abs(slope0 - capacity(ch)) <= 1e-4)       # slope at 0 is C

    # Larger lists never hurt the list exponent.
    ch = make_bsc(0.4)
    rate = 0.0002
    values = [list_random_coding(ch, rate, 2 ** l).value for l in range(4)]
    checks.append(all(b >= a - 1e-12 for a, b in zip(values, values[1:])))

    # Below the critical rate both single-codeword bounds coincide.
    for frac in (0.1, 0.2):
        r = frac * capacity(ch)
        sp = sphere_packing(ch, r)
        if sp.param is not None and sp.param < 1.0:
            checks.append(abs(random_coding(ch, r).value - sp.value) <= 1e-9)

    # Determinism of every seeded simulator.
    checks.append(simulate_bec_feedback(0.4, 100_000, (4, 8), 9)
                  == simulate_bec_feedback(0.4, 100_000, (4, 8), 9))
    fcfg = SchemeConfig(n=2, c=7, l=1, theta=0, rate_bits=3 / 14, seed=0)
    checks.append(fortified_run(fcfg, make_bsc(0.05), 30_000, (6, 10), 4)
                  == fortified_run(fcfg, make_bsc(0.05), 30_000, (6, 10), 4))
    scfg = SchemeConfig(n=2, c=24, l=1, theta=12, rate_bits=1 / 6, seed=0,
                        redecode_window=4)
    checks.append(synthesized_run(scfg, make_bsc(0.05), 30_000, (24, 48), 2)
                  == synthesized_run(scfg, make_bsc(0.05), 30_000, (24, 48), 2))

    # The ideal-flow override of the synthesized scheme is the fortified one.
    checks.append(synthesized_run(scfg, make_bsc(0.05), 30_000, (24, 48), 2,
                                  noiseless_flow=True)
                  == fortified_run(replace(scfg, theta=0), make_bsc(0.05),
                                   30_000, (24, 48), 2))

    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 600.0
    _report(8, "shape, ordering, and determinism properties", ok,
            f"{sum(checks)}/{len(checks)} checks, {elapsed:.1f}s")
