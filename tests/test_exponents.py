import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delayexp import channel as chan
from delayexp import exponents as ex
from delayexp.errors import DomainError
import reference
from reference import grid_e0_max

LN2 = math.log(2.0)

# Frozen reference values. The E0 numbers come from the binary closed form
# E0(rho) = rho ln 2 - (1+rho) ln(d^a + (1-d)^a), a = 1/(1+rho); the curve
# values from an independent high-precision golden-section/bisection script
# on those closed forms.
CAP_BSC_04 = 0.020135513550688766
E0_BSC04_R1 = 0.010153423432867736
E0_BSC04_R2 = 0.013566123242494621
E0_BSC04_R4 = 0.016302074086095963
E0_BSC04_R64 = 0.020094840169079475
E0_BEC04_R1 = 0.35667494393873245  # -ln 0.7

ESP_BSC04_HALF = 0.0017594503805724486
ESP_BSC04_HALF_RHO = 0.42148522518260556
ESP_BSC04_09C = 5.41003473323138e-05
ESP_BEC04_HALFBIT = 0.020410997260127583  # -0.5 ln(4 * 0.4 * 0.6)
ESP_BEC04_HALFBIT_RHO = 0.5849625007211562  # log2(3/2)

EA_BEC04_HALFBIT = 0.40546510810816894  # coincides with ln(3/2)
EA_BEC04_HALFBIT_ETA = 1.1699250014423286
EA_BSC04_HALF = 0.010240262437687941
EA_BSC04_HALF_ETA = 1.0171344686003807

ACHIEVED_BSC04_RHO1 = 0.005076711716433868  # E0(1) / 2
ACHIEVED_BSC04_RHO2_E = 0.005807134322958652
ACHIEVED_BSC04_RHO2_R = 0.002903567161479326
PSI_BSC04_RHO2 = 0.5719385546514613

# Exact values on the Z channel [[1, 0], [0.3, 0.7]], compared with ==.
# The searches over rho and the rate split are flat near their optima, so a
# last-bit change in E0 moves the printed params; any rewrite of the
# asymmetric path must keep these bit for bit.
Z_E0_MAX = {
    0.5: (0.14745161476795615, [0.5372076562220536, 0.4627923437779464]),
    1.0: (0.25636264787323504, [0.5, 0.5]),
    4.0: (0.5906571677929353, [0.358498633101193, 0.641501366898807]),
}
Z_AT_03_BIT = {  # (value, param) at 0.3 bit
    "sphere_packing": (0.049985297079915725, 0.8269227713446026),
    "random_coding": (0.04998529707991553, 0.8269227844144469),
    "achieved_exponent_at_rate": (0.08156212682070253, 0.3922309196251891),
    "focusing_bound": (0.39954281060208374, 0.6128753483661027),
}
# E0 evaluations in one e0_max miss on a two-input asymmetric channel: the
# start plus at most two golden-section sweeps of 51, so 103.
E0_MISS_BUDGET = 110
# _ascend_q runs in one focusing_bound(Z, 0.3 bit) on a fresh channel: 1,355
# with the e0_max memo and the first-finite probe, 5,124 without them.
Z_FOCUSING_ASCENT_BUDGET = 1_500

# No output letter is reachable from every input, and the zero-error
# capacity (inputs 0 and 2 never confuse) equals the capacity, 1 bit.
NOISY_TYPEWRITER = [[.5, .5, 0, 0], [0, .5, .5, 0], [0, 0, .5, .5], [.5, 0, 0, .5]]

NAMED_CHANNELS = {"bsc0.1": chan.make_bsc(0.1), "bec0.4": chan.make_bec(0.4),
                  "z": chan.make_dmc([[1.0, 0.0], [0.3, 0.7]]), "bsc0": chan.make_bsc(0.0)}
# The list bound's bracket tops out at min(L, RHO_MAX). Below 64 these are
# the exact (value, param) pairs at 0.3 C, none flagged, even where rho
# sits at the list size; from 64 on the search is sphere packing's.
LIST_AT_03C = {
    ("bsc0.1", 2): (0.11471196500791081, 1.2031094828021058),
    ("bsc0.1", 8): (0.11471196500791067, 1.2031094805631857),
    ("bsc0.1", 63): (0.11471196500791053, 1.2031094975440053),
    ("bec0.4", 2): (0.3483040157517564, 1.9999999999644682),
    ("bec0.4", 8): (0.3719135256045913, 2.772589493109642),
    ("bec0.4", 63): (0.37191352560459123, 2.7725894518717027),
    ("z", 2): (0.1999327414912504, 1.9999999999644682),
    ("z", 8): (0.2041661017851621, 2.467739265983741),
    ("z", 63): (0.20416610178516215, 2.467739151598998),
    ("bsc0", 2): (0.9704060527666836, 1.9999999999644682),
    ("bsc0", 8): (3.8816242111194144, 7.999999999966448),
    ("bsc0", 63): (30.56779066267488, 62.999999999961446),
}

# Exact oracle values: (channel, rate in nats, grid steps, value).
ORACLE_EXACT = [
    ("bsc0.1", 0.11041926215054913, 100, 0.11487167662088596),  # 0.3 C
    ("bec0.4", 0.5 * LN2, 40, 0.021437160082481796),
    ("z", 0.3 * LN2, 100, 0.11246985423432712),
]

# E0''(0) = -Var i(X;Y): -delta (1 - delta) ln^2((1 - delta) / delta) on BSC(delta).
CURV_BSC04 = -0.24 * math.log(1.5) ** 2
SLOPE_FOCUSING_BSC04 = 1.0206444770405867
SLOPE_ACHIEVED_BSC04 = 0.33750732481467505
CURVATURE_DELTAS = (1e-6, 0.01, 0.1, 0.25, 0.4, 0.49)


@pytest.fixture(scope="module")
def bsc04():
    return chan.make_bsc(0.4)


@pytest.fixture(scope="module")
def bec04():
    return chan.make_bec(0.4)


def make_z():
    return chan.make_dmc([[1.0, 0.0], [0.3, 0.7]])


@pytest.fixture(scope="module")
def zch():
    return make_z()


@pytest.fixture(scope="module")
def useless():
    return chan.make_dmc([[0.5, 0.5], [0.5, 0.5]])


def e0_calls_in_one_miss(c, rho):
    """E0 evaluations ``e0_max`` makes on ``c``, a fresh channel object, so a memo miss."""
    calls = []
    e0 = ex._e0_from_powers

    def counted(*args):
        calls.append(1)
        return e0(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "_e0_from_powers", counted)
        ex.e0_max(c, rho)
    return len(calls)


class TestGallagerE0:
    def test_frozen_bsc_values(self, bsc04):
        assert ex.gallager_e0(bsc04, 1.0) == pytest.approx(E0_BSC04_R1, rel=1e-10)
        assert ex.gallager_e0(bsc04, 2.0) == pytest.approx(E0_BSC04_R2, rel=1e-10)
        assert ex.gallager_e0(bsc04, 4.0) == pytest.approx(E0_BSC04_R4, rel=1e-10)
        assert ex.gallager_e0(bsc04, 64.0) == pytest.approx(E0_BSC04_R64, rel=1e-10)

    def test_frozen_bec_value(self, bec04):
        assert ex.gallager_e0(bec04, 1.0) == pytest.approx(E0_BEC04_R1, rel=1e-12)

    def test_zero_at_rho_zero(self, bsc04):
        assert ex.gallager_e0(bsc04, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_slope_at_origin_is_capacity(self, bsc04):
        h = 1e-5
        assert ex.gallager_e0(bsc04, h) / h == pytest.approx(CAP_BSC_04, rel=1e-3)

    def test_explicit_q_matches_manual(self, bsc04):
        q = np.array([0.3, 0.7])
        a = 0.5
        inner = q @ np.power(bsc04.p, a)
        expected = -math.log(np.sum(inner ** 2))
        assert ex.gallager_e0(bsc04, 1.0, q) == pytest.approx(expected, rel=1e-12)

    def test_negative_rho_rejected(self, bsc04):
        with pytest.raises(DomainError):
            ex.gallager_e0(bsc04, -0.5)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("fn", [ex.gallager_e0, ex.e0_max], ids=["gallager_e0", "e0_max"])
    def test_non_finite_or_negative_rho_rejected(self, bsc04, zch, fn, rho):
        # At inf, E0 would come out as -ln 2 on the Z channel; at NaN, as NaN.
        for c in (bsc04, zch):
            with pytest.raises(DomainError):
                fn(c, rho)

    def test_bad_q_rejected(self, bsc04):
        with pytest.raises(chan.DimensionMismatchError):
            ex.gallager_e0(bsc04, 1.0, [0.2, 0.3, 0.5])

    def test_normalized_value_strictly_decreasing(self, bsc04):
        # E0(rho) / rho falls strictly in rho; the bisection inversions
        # in the fixed-delay bounds rely on this.
        grid = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)
        ratios = [ex.gallager_e0(bsc04, r) / r for r in grid]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=0.05, max_value=8.0),
           st.floats(min_value=0.05, max_value=8.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_and_concave_in_rho(self, seed, r1, r2):
        rng = np.random.default_rng(seed)
        c = chan.make_dmc(rng.dirichlet(np.ones(3), size=2))
        lo, hi = sorted((r1, r2))
        mid = 0.5 * (lo + hi)
        f_lo, f_mid, f_hi = (ex.gallager_e0(c, r) for r in (lo, mid, hi))
        assert f_hi >= f_lo - 1e-12
        assert f_mid >= 0.5 * (f_lo + f_hi) - 1e-12


class TestE0Max:
    def test_symmetric_returns_uniform(self, bsc04):
        res = ex.e0_max(bsc04, 2.0)
        assert np.allclose(res.q, [0.5, 0.5])
        assert res.value == pytest.approx(E0_BSC04_R2, rel=1e-10)

    def test_z_channel_beats_dense_scan(self):
        z = chan.make_dmc([[1.0, 0.0], [0.3, 0.7]])
        res = ex.e0_max(z, 1.0)
        ts = np.linspace(0.0, 1.0, 2001)
        scan = max(ex.gallager_e0(z, 1.0, [t, 1.0 - t]) for t in ts)
        assert res.value >= scan - 1e-9
        assert ex.gallager_e0(z, 1.0, res.q) == pytest.approx(res.value, rel=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_dominates_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        c = chan.make_dmc(rng.dirichlet(np.ones(3), size=2))
        res = ex.e0_max(c, 1.5)
        for _ in range(20):
            q = rng.dirichlet(np.ones(2))
            assert res.value >= ex.gallager_e0(c, 1.5, q) - 1e-9

    # The ascent alone, without a second route: at least the simplex scan,
    # within the work budget of one memo miss.
    @pytest.mark.parametrize("rho", [0.05, 0.5, 1.0, 2.0, 4.0, 16.0])
    def test_z_channel_ascent_alone(self, rho):
        z = make_z()
        assert e0_calls_in_one_miss(z, rho) <= E0_MISS_BUDGET
        assert ex.e0_max(z, rho).value >= grid_e0_max(z.p, rho)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=5),
           st.floats(min_value=0.01, max_value=16.0))
    @settings(max_examples=40, deadline=None)
    def test_two_inputs_ascent_alone(self, seed, outputs, rho):
        c = chan.make_dmc(np.random.default_rng(seed).dirichlet(np.ones(outputs), size=2))
        assert e0_calls_in_one_miss(c, rho) <= E0_MISS_BUDGET
        assert ex.e0_max(c, rho).value >= grid_e0_max(c.p, rho)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=4),
           st.floats(min_value=0.01, max_value=16.0))
    @settings(max_examples=15, deadline=None)
    def test_three_inputs_within_5e_11_of_the_grid(self, seed, outputs, rho):
        # The ascent stops once a sweep gains less than 1e-10; the scan has
        # beaten it by up to 1.8e-11 nats on three inputs.
        c = chan.make_dmc(np.random.default_rng(seed).dirichlet(np.ones(outputs), size=3))
        assert ex.e0_max(c, rho).value >= grid_e0_max(c.p, rho) - 5e-11


class TestAsymmetricExact:
    @pytest.mark.parametrize("rho", sorted(Z_E0_MAX))
    def test_e0_max_bits(self, zch, rho):
        value, q = Z_E0_MAX[rho]
        res = ex.e0_max(zch, rho)
        assert res.value == value
        assert res.q.tolist() == q

    @pytest.mark.parametrize("name", ["sphere_packing", "random_coding",
                                      "achieved_exponent_at_rate"])
    def test_bounds_bits(self, zch, name):
        res = getattr(ex, name)(zch, 0.3 * LN2)
        assert (res.value, res.param) == Z_AT_03_BIT[name]

    def test_focusing_bits_within_ascent_budget(self, monkeypatch):
        calls = []
        ascend = ex._ascend_q

        def counted(*args, **kwargs):
            calls.append(1)
            return ascend(*args, **kwargs)

        monkeypatch.setattr(ex, "_ascend_q", counted)
        res = ex.focusing_bound(make_z(), 0.3 * LN2)
        assert (res.value, res.param) == Z_AT_03_BIT["focusing_bound"]
        assert res.flags == (ex.FLAG_SURROGATE,)
        assert len(calls) <= Z_FOCUSING_ASCENT_BUDGET

    def test_memoised_q_is_read_only(self, zch):
        first = ex.e0_max(zch, 1.0)
        with pytest.raises(ValueError):
            first.q[0] = 0.25
        again = ex.e0_max(zch, 1)
        assert again.value == first.value
        assert again.q.tolist() == Z_E0_MAX[1.0][1]

    def test_memo_is_bounded(self, bsc04):
        for k in range(2 * ex.E0_MAX_CACHE_SIZE):
            ex.e0_max(bsc04, 1.0 + k / 1024)
        assert ex._e0_max.cache_info().currsize == ex.E0_MAX_CACHE_SIZE


class TestSpherePacking:
    def test_frozen_bsc_half_capacity(self, bsc04):
        res = ex.sphere_packing(bsc04, CAP_BSC_04 / 2)
        assert res.value == pytest.approx(ESP_BSC04_HALF, rel=1e-8)
        assert res.param == pytest.approx(ESP_BSC04_HALF_RHO, abs=1e-5)
        assert res.flags == ()

    def test_frozen_bec_half_bit(self, bec04):
        res = ex.sphere_packing(bec04, LN2 / 2)
        assert res.value == pytest.approx(ESP_BEC04_HALFBIT, rel=1e-8)
        assert res.param == pytest.approx(ESP_BEC04_HALFBIT_RHO, abs=1e-5)

    def test_zero_above_capacity(self, bsc04):
        res = ex.sphere_packing(bsc04, CAP_BSC_04 * 1.01)
        assert res.value == 0.0
        assert ex.FLAG_RATE_ABOVE_CAPACITY in res.flags

    def test_edge_flag_at_tiny_rate(self, bsc04):
        res = ex.sphere_packing(bsc04, 1e-6)
        assert ex.FLAG_BRACKET_EDGE in res.flags
        assert res.value == pytest.approx(E0_BSC04_R64 - 64.0 * 1e-6, rel=1e-6)

    def test_unbounded_for_error_free_channel(self):
        ident = chan.make_dmc(np.eye(2))
        res = ex.sphere_packing(ident, 0.5 * LN2)
        assert res.value == math.inf
        assert ex.FLAG_UNBOUNDED in res.flags

    def test_bec_low_rate_stays_bounded(self, bec04):
        # The erasure output is reachable from both inputs, so the
        # objective stays bounded even as the rate drops to zero.
        res = ex.sphere_packing(bec04, 1e-6)
        assert res.flags == ()
        assert res.value < -math.log(0.4)

    def test_decreasing_in_rate(self):
        c = chan.make_bsc(0.3)
        cap = chan.capacity(c)
        vals = [ex.sphere_packing(c, f * cap).value for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self, bsc04, useless):
        with pytest.raises(ex.NonPositiveRateError):
            ex.sphere_packing(bsc04, 0.0)
        with pytest.raises(ex.DegenerateChannelError):
            ex.sphere_packing(useless, 0.1)


class TestRandomCoding:
    def test_matches_sphere_packing_near_capacity(self, bsc04):
        rate = 0.9 * CAP_BSC_04
        er = ex.random_coding(bsc04, rate)
        sp = ex.sphere_packing(bsc04, rate)
        assert er.value == pytest.approx(ESP_BSC04_09C, rel=1e-6)
        assert er.value == pytest.approx(sp.value, rel=1e-8)

    def test_linear_segment_at_low_rate(self, bsc04):
        # Below the critical rate the maximizing rho pins at 1 and the
        # bound is E0(1) - rate.
        res = ex.random_coding(bsc04, 0.002)
        assert res.value == pytest.approx(E0_BSC04_R1 - 0.002, rel=1e-9)
        assert res.param == pytest.approx(1.0, abs=1e-6)
        assert res.flags == ()

    def test_never_exceeds_sphere_packing(self):
        c = chan.make_bsc(0.2)
        cap = chan.capacity(c)
        for f in (0.15, 0.4, 0.65, 0.9):
            er = ex.random_coding(c, f * cap).value
            sp = ex.sphere_packing(c, f * cap).value
            assert er <= sp + 1e-10

    def test_zero_above_capacity(self, bsc04):
        assert ex.random_coding(bsc04, CAP_BSC_04 * 2).value == 0.0


class TestListRandomCoding:
    def test_list_one_is_plain_random_coding(self, bsc04):
        rate = 0.3 * CAP_BSC_04
        assert ex.list_random_coding(bsc04, rate, 1).value == pytest.approx(
            ex.random_coding(bsc04, rate).value, rel=1e-12)

    def test_linear_segment_with_list_four(self, bsc04):
        res = ex.list_random_coding(bsc04, 0.0002, 4)
        assert res.value == pytest.approx(E0_BSC04_R4 - 4 * 0.0002, rel=1e-9)
        assert res.param == pytest.approx(4.0, abs=1e-6)

    def test_monotone_in_list_size(self):
        c = chan.make_bsc(0.3)
        rate = 0.1 * chan.capacity(c)
        vals = [ex.list_random_coding(c, rate, l).value for l in (1, 2, 3, 4, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > vals[0]

    def test_bounded_by_sphere_packing(self):
        c = chan.make_bsc(0.3)
        rate = 0.4 * chan.capacity(c)
        sp = ex.sphere_packing(c, rate).value
        for l in (1, 2, 4, 16):
            assert ex.list_random_coding(c, rate, l).value <= sp + 1e-9

    def test_bad_list_sizes(self, bsc04):
        for bad in (0, -1, 2.5, True):
            with pytest.raises(ex.BadListSizeError):
                ex.list_random_coding(bsc04, 0.01, bad)

    @pytest.mark.parametrize("name, list_size", sorted(LIST_AT_03C))
    def test_below_64_exact(self, name, list_size):
        c = NAMED_CHANNELS[name]
        res = ex.list_random_coding(c, 0.3 * chan.capacity(c), list_size)
        assert (res.value, res.param, res.flags) == (*LIST_AT_03C[name, list_size], ())

    @pytest.mark.parametrize("list_size", [64, 1000, 10 ** 12, 10 ** 400],
                             ids=["64", "1000", "1e12", "1e400"])
    @pytest.mark.parametrize("name", sorted(NAMED_CHANNELS))
    def test_from_64_on_is_sphere_packing(self, name, list_size):
        # The bracket stops at RHO_MAX, so the list size never reaches E0:
        # at 10**12 a noiseless channel's E0 would underflow, and 10**400
        # is past the float range.
        c = NAMED_CHANNELS[name]
        for frac in (0.1, 0.5):
            rate = frac * chan.capacity(c)
            res, sp = ex.list_random_coding(c, rate, list_size), ex.sphere_packing(c, rate)
            assert (res.value, res.param, res.flags) == (sp.value, sp.param, sp.flags)


class TestHaroutunianOracle:
    def test_agrees_with_sphere_packing_on_bsc(self):
        c = chan.make_bsc(0.3)
        rate = 0.5 * chan.capacity(c)
        oracle = ex.haroutunian_oracle(c, rate, grid_steps=60)
        sp = ex.sphere_packing(c, rate).value
        assert abs(oracle.value - sp) <= 5e-3
        assert oracle.flags == ()

    def test_dominates_sphere_packing_on_bec(self, bec04):
        # Restricting the minimization to a grid can only raise the value,
        # so even a coarse run must stay above the parametric bound.
        rate = 0.6 * chan.capacity(bec04)
        oracle = ex.haroutunian_oracle(bec04, rate, grid_steps=10).value
        assert oracle >= ex.sphere_packing(bec04, rate).value - 1e-6

    @pytest.mark.parametrize("name, rate, grid_steps, value", ORACLE_EXACT)
    def test_exact_values(self, name, rate, grid_steps, value):
        res = ex.haroutunian_oracle(NAMED_CHANNELS[name], rate, grid_steps)
        assert (res.value, res.param, res.flags) == (value, None, ())

    def test_zero_above_capacity(self, bsc04):
        oracle = ex.haroutunian_oracle(bsc04, 1.0, grid_steps=10)
        assert oracle.value == 0.0
        assert oracle.flags == (ex.FLAG_RATE_ABOVE_CAPACITY,)

    def test_zero_capacity_is_domain_error(self):
        with pytest.raises(ex.DegenerateChannelError):
            ex.haroutunian_oracle(chan.make_bsc(0.5), 0.1, grid_steps=10)

    def test_alphabet_restrictions(self):
        wide = chan.make_dmc(np.full((2, 4), 0.25))
        tall = chan.make_dmc(np.full((3, 2), 0.5))
        with pytest.raises(ex.UnsupportedAlphabetError):
            ex.haroutunian_oracle(wide, 0.1)
        with pytest.raises(ex.UnsupportedAlphabetError):
            ex.haroutunian_oracle(tall, 0.1)

    def test_grid_cap(self, bsc04):
        with pytest.raises(DomainError):
            ex.haroutunian_oracle(bsc04, 0.01, grid_steps=300)
        with pytest.raises(DomainError):
            ex.haroutunian_oracle(bsc04, 0.01, grid_steps=2)

    def test_pair_cap_refuses_slow_grids_up_front(self, bec04):
        # Three outputs at 100 steps make 5,151^2 row pairs: refused before
        # any capacity test, naming the largest grid that fits.
        with pytest.raises(DomainError, match="largest grid_steps that fits is 43$"):
            ex.haroutunian_oracle(bec04, 0.1, grid_steps=100)
        with pytest.raises(DomainError, match="makes 1071225 row pairs"):
            ex.haroutunian_oracle(bec04, 0.1, grid_steps=43 + 1)
        assert ex._simplex_rows(3, 43) ** 2 <= ex.ORACLE_MAX_PAIRS
        # Two outputs fit at every accepted grid.
        assert ex._simplex_rows(2, ex.ORACLE_MAX_GRID) ** 2 <= ex.ORACLE_MAX_PAIRS

    @pytest.mark.parametrize("m", [2, 3])
    def test_simplex_rows_counts_the_grid(self, m):
        for steps in (4, 10, 43, 44, 100, ex.ORACLE_MAX_GRID):
            assert len(ex._simplex_grid(m, steps)) == ex._simplex_rows(m, steps)


class TestFocusingBound:
    def test_frozen_bec_half_bit(self, bec04):
        res = ex.focusing_bound(bec04, LN2 / 2)
        assert res.value == pytest.approx(EA_BEC04_HALFBIT, rel=1e-9)
        assert res.param == pytest.approx(EA_BEC04_HALFBIT_ETA, abs=1e-6)
        assert res.flags == ()

    def test_frozen_bsc_half_capacity(self, bsc04):
        res = ex.focusing_bound(bsc04, CAP_BSC_04 / 2)
        assert res.value == pytest.approx(EA_BSC04_HALF, rel=1e-9)
        assert res.param == pytest.approx(EA_BSC04_HALF_ETA, abs=1e-6)

    def test_dominates_sphere_packing(self, bsc04):
        for f in (0.2, 0.5, 0.8):
            rate = f * CAP_BSC_04
            assert (ex.focusing_bound(bsc04, rate).value
                    >= ex.sphere_packing(bsc04, rate).value - 1e-9)

    def test_dominance_chain_on_both_families(self, bsc04, bec04):
        # focusing >= achieved >= 0 and focusing >= sphere packing across
        # the working rate band of each channel.
        for c in (bsc04, bec04):
            cap = chan.capacity(c)
            for f in (0.05, 0.3, 0.6, 0.95):
                rate = f * cap
                focusing = ex.focusing_bound(c, rate).value
                achieved = ex.achieved_exponent_at_rate(c, rate).value
                assert focusing >= achieved >= 0.0 - 1e-9
                assert focusing >= ex.sphere_packing(c, rate).value - 1e-9

    def test_zero_above_capacity(self, bec04):
        res = ex.focusing_bound(bec04, chan.capacity(bec04) + 0.01)
        assert res.value == 0.0
        assert ex.FLAG_RATE_ABOVE_CAPACITY in res.flags

    def test_edge_flag_at_tiny_rate(self, bsc04):
        res = ex.focusing_bound(bsc04, 1e-4)
        assert ex.FLAG_BRACKET_EDGE in res.flags
        assert res.value == pytest.approx(E0_BSC04_R64, rel=1e-9)

    @pytest.mark.parametrize("matrix, frac", [
        (np.eye(2), 0.5),
        (NOISY_TYPEWRITER, 0.1),
        (NOISY_TYPEWRITER, 0.5),
        (NOISY_TYPEWRITER, 0.9),
    ], ids=["bsc0-0.5C", "typewriter-0.1C", "typewriter-0.5C", "typewriter-0.9C"])
    def test_unbounded_when_no_output_is_reachable_from_every_input(self, matrix, frac):
        # On these channels every G inside P's supports keeps C(G) >= C, so
        # below capacity the focusing bound, like sphere packing, is infinite.
        c = chan.make_dmc(matrix)
        rate = frac * chan.capacity(c)
        res = ex.focusing_bound(c, rate)
        assert res.value == math.inf
        assert res.flags == (ex.FLAG_UNBOUNDED,)
        assert res.value >= ex.sphere_packing(c, rate).value

    def test_surrogate_on_asymmetric_channel(self):
        z = chan.make_dmc([[1.0, 0.0], [0.3, 0.7]])
        rate = 0.4 * chan.capacity(z)
        res = ex.focusing_bound(z, rate)
        assert ex.FLAG_SURROGATE in res.flags
        assert res.value >= ex.sphere_packing(z, rate).value - 1e-9

    def test_domain_errors(self, useless):
        with pytest.raises(ex.DegenerateChannelError):
            ex.focusing_bound(useless, 0.1)


class TestBoundAtRate:
    @pytest.mark.parametrize("name, direct", [
        ("sp", ex.sphere_packing),
        ("rc", ex.random_coding),
        ("list", lambda ch, rate: ex.list_random_coding(ch, rate, 2)),
        ("focusing", ex.focusing_bound),
        ("achieved", ex.achieved_exponent_at_rate),
    ], ids=["sp", "rc", "list", "focusing", "achieved"])
    def test_each_name_is_its_function(self, bec04, zch, name, direct):
        for ch in (bec04, zch):
            got, want = ex.bound_at_rate(ch, name, 0.2), direct(ch, 0.2)
            assert (got.value, got.param, got.flags) == (want.value, want.param, want.flags)

    def test_list_size_reaches_the_list_bound(self, bsc04):
        got = ex.bound_at_rate(bsc04, "list", 0.0002, 4)
        assert got.param == pytest.approx(4.0, abs=1e-6)
        assert got.value == ex.list_random_coding(bsc04, 0.0002, 4).value
        with pytest.raises(ex.BadListSizeError):
            ex.bound_at_rate(bsc04, "list", 0.0002, 0)

    @pytest.mark.parametrize("name", ["er", "list:2", "haroutunian", ""])
    def test_unknown_names_are_domain_errors(self, bsc04, name):
        with pytest.raises(DomainError, match="unknown bound"):
            ex.bound_at_rate(bsc04, name, 0.01)


# Channels whose rate lists must end, lane by lane, where the per-rate searches of
# tests/reference.py end: together their lists hit every flag a search can raise.
LANE_CHANNELS = {"bsc0.1": chan.make_bsc(0.1), "bsc0.4": chan.make_bsc(0.4),
                 "bec0.4": chan.make_bec(0.4), "typewriter": chan.make_dmc(NOISY_TYPEWRITER),
                 "bsc0.4999": chan.make_bsc(0.4999)}


class TestRateLists:
    @pytest.mark.parametrize("name", sorted(LANE_CHANNELS))
    def test_lanes_match_the_per_rate_searches(self, name):
        c = LANE_CHANNELS[name]
        cap = chan.capacity(c)
        # The sliver between the achieved curve's rate at RHO_MIN and capacity.
        sliver = 0.5 * (ex.achieved_exponent(c, ex.RHO_MIN).rate + cap)
        rates = [float(r) for r in np.linspace(1e-4 * cap, cap, 33)] + [sliver, 1.5 * cap]
        seen = {}
        for bound in ex.BOUNDS_AT_RATE:
            got = ex.bound_at_rate(c, bound, rates)
            assert got == tuple(reference.bound_at_rate(c, bound, r) for r in rates), bound
            seen[bound] = {f for cell in got for f in cell.flags}
        assert {ex.FLAG_RATE_ABOVE_CAPACITY, ex.FLAG_RATE_OUT_OF_RANGE,
                ex.FLAG_BRACKET_EDGE} <= seen["achieved"]
        edge = ex.FLAG_UNBOUNDED if name == "typewriter" else ex.FLAG_BRACKET_EDGE
        assert edge in seen["focusing"]

    @given(kind=st.sampled_from(["bsc", "bec", "asymmetric"]), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_rate_list_is_each_rate_alone(self, kind, data):
        unit = st.floats(0.02, 0.48)
        if kind == "asymmetric":
            a, b = data.draw(unit), data.draw(unit)
            c = chan.make_dmc([[1.0 - a, a], [b, 1.0 - b]])
            assume(not chan.is_symmetric(c) and chan.capacity(c) > 1e-3)
        else:
            c = (chan.make_bsc if kind == "bsc" else chan.make_bec)(data.draw(unit))
        cap = chan.capacity(c)
        # Unsorted, with repeats and rates at or above capacity.
        share = st.one_of(st.sampled_from([0.3, 1.0, 1.3]), st.floats(0.01, 1.2))
        rates = [x * cap for x in data.draw(st.lists(share, min_size=1, max_size=5))]
        for name in ex.BOUNDS_AT_RATE:
            if kind == "asymmetric" and name == "focusing":
                continue  # the surrogate is a loop over rates; minutes per draw
            got = ex.bound_at_rate(c, name, rates)
            assert got == tuple(ex.bound_at_rate(c, name, r) for r in rates), name

    def test_lists_and_arrays_give_tuples(self, bsc04):
        rates = [0.002, 0.02, 0.001]
        want = tuple(ex.sphere_packing(bsc04, r) for r in rates)
        assert ex.sphere_packing(bsc04, rates) == want
        assert ex.sphere_packing(bsc04, tuple(rates)) == want
        assert ex.sphere_packing(bsc04, np.array(rates)) == want
        assert ex.sphere_packing(bsc04, []) == ()
        with pytest.raises(ex.NonPositiveRateError):
            ex.sphere_packing(bsc04, [0.01, -0.01])

    def test_chunks_of_lanes_give_the_same_cells(self, bsc04, monkeypatch):
        rates = [float(r) for r in np.linspace(0.0005, 0.03, 10)]
        whole = {name: ex.bound_at_rate(bsc04, name, rates) for name in ex.BOUNDS_AT_RATE}
        monkeypatch.setattr(ex, "LANE_CELLS", 3 * bsc04.p.size)  # chunks of 3, 3, 3 and 1 lanes
        for name in ex.BOUNDS_AT_RATE:
            assert ex.bound_at_rate(bsc04, name, rates) == whole[name], name


class TestAchievedCurve:
    def test_overhead_half_at_rho_one(self, bsc04):
        assert ex.overhead_fraction(bsc04, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_overhead_frozen_at_rho_two(self, bsc04):
        assert ex.overhead_fraction(bsc04, 2.0) == pytest.approx(PSI_BSC04_RHO2, rel=1e-10)

    def test_overhead_increasing_in_rho(self, bsc04):
        vals = [ex.overhead_fraction(bsc04, r) for r in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_frozen_point_rho_one(self, bsc04):
        pt = ex.achieved_exponent(bsc04, 1.0)
        assert pt.exponent == pytest.approx(ACHIEVED_BSC04_RHO1, rel=1e-10)
        # At rho = 1 the rate and the exponent coincide.
        assert pt.rate == pytest.approx(pt.exponent, rel=1e-12)

    def test_frozen_point_rho_two(self, bsc04):
        pt = ex.achieved_exponent(bsc04, 2.0)
        assert pt.exponent == pytest.approx(ACHIEVED_BSC04_RHO2_E, rel=1e-10)
        assert pt.rate == pytest.approx(ACHIEVED_BSC04_RHO2_R, rel=1e-10)

    @given(st.floats(min_value=0.01, max_value=32.0))
    @settings(max_examples=30, deadline=None)
    def test_parametric_identity(self, rho):
        c = chan.make_bsc(0.2)
        pt = ex.achieved_exponent(c, rho)
        assert abs(pt.rho * pt.rate - pt.exponent) <= 1e-12 * max(1.0, pt.exponent)

    @given(st.floats(min_value=0.05, max_value=16.0))
    @settings(max_examples=30, deadline=None)
    def test_balance_identity(self, rho):
        c = chan.make_bsc(0.3)
        psi = ex.overhead_fraction(c, rho)
        e0_one = ex.gallager_e0(c, 1.0)
        e0_rho = ex.gallager_e0(c, rho)
        assert abs(psi * e0_one - (1.0 - psi) * e0_rho) <= 1e-12

    def test_achieved_below_focusing(self, bsc04):
        for rho in (0.5, 1.0, 2.0, 4.0):
            pt = ex.achieved_exponent(bsc04, rho)
            assert pt.exponent <= ex.focusing_bound(bsc04, pt.rate).value + 1e-9

    def test_rate_inversion_roundtrip(self, bsc04):
        pt = ex.achieved_exponent(bsc04, 1.7)
        inv = ex.achieved_exponent_at_rate(bsc04, pt.rate)
        assert inv.param == pytest.approx(1.7, abs=1e-6)
        assert inv.value == pytest.approx(pt.exponent, rel=1e-8)
        assert inv.flags == ()

    def test_rate_inversion_out_of_range(self, bsc04):
        # The sliver from the curve's rate at RHO_MIN up to capacity, 6.0e-8 nats here.
        sliver = 0.5 * (ex.achieved_exponent(bsc04, ex.RHO_MIN).rate + chan.capacity(bsc04))
        for rate in (CAP_BSC_04, sliver):
            res = ex.achieved_exponent_at_rate(bsc04, rate)
            assert res.value == 0.0
            assert ex.FLAG_RATE_OUT_OF_RANGE in res.flags

    def test_rate_inversion_at_and_above_capacity(self, bsc04):
        # The flagged zero every bound answers there.
        cap = chan.capacity(bsc04)
        for rate in (cap, 2.0 * cap):
            assert ex.achieved_exponent_at_rate(bsc04, rate) == ex.ExponentValue(
                0.0, flags=(ex.FLAG_RATE_ABOVE_CAPACITY,))

    def test_rate_inversion_edge(self, bsc04):
        res = ex.achieved_exponent_at_rate(bsc04, 1e-7)
        assert ex.FLAG_BRACKET_EDGE in res.flags

    def test_domain_errors(self, bsc04, useless):
        with pytest.raises(DomainError):
            ex.achieved_exponent(bsc04, 0.0)
        with pytest.raises(ex.DegenerateChannelError):
            ex.achieved_exponent(useless, 1.0)
        with pytest.raises(DomainError):
            ex.overhead_fraction(bsc04, -1.0)

    @pytest.mark.parametrize("ch", [chan.make_bsc(0.4999999),
                                    chan.make_dmc([[1.0, 0.0], [1.0 - 1e-12, 1e-12]])],
                             ids=["bsc0.4999999", "z1e-12"])
    def test_numerically_zero_capacity_refused(self, ch):
        # Capacities 2.0e-14 and 3.5e-13 nats, below DEGENERATE_CAPACITY.
        for call in (lambda: ex.achieved_exponent(ch, ex.RHO_MIN),
                     lambda: ex.achieved_exponent(ch, 1.0),
                     lambda: ex.overhead_fraction(ch, ex.RHO_MIN),
                     lambda: ex.achieved_exponent_at_rate(ch, 1e-15)):
            with pytest.raises(ex.DegenerateChannelError):
                call()

    @given(m=st.integers(2, 4), data=st.data(), log_cap=st.floats(-9.0, -6.0))
    @settings(max_examples=40, deadline=None)
    def test_near_zero_capacity_gives_positive_exponent(self, m, data, log_cap):
        # Capacity alone decides degeneracy: just above DEGENERATE_CAPACITY, E0(RHO_MIN)
        # is still positive. Row 1 moves from row 0 toward another row until C is 10**log_cap.
        row = st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m).map(
            lambda w: np.array(w) / sum(w))
        r0, r1 = data.draw(row), data.draw(row)
        assume(np.max(np.abs(r1 - r0)) > 1e-3)
        s = 1.0
        for _ in range(2):  # C grows as s**2 near s = 0
            s = min(1.0, s * math.sqrt(10 ** log_cap / chan.capacity(
                chan.make_dmc([r0, r0 + s * (r1 - r0)]))))
        ch = chan.make_dmc([r0, r0 + s * (r1 - r0)])
        assume(ex.DEGENERATE_CAPACITY <= chan.capacity(ch) <= 1e-6)
        pt = ex.achieved_exponent(ch, ex.RHO_MIN)
        assert math.isfinite(pt.exponent) and pt.exponent > 0

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 1e-300, 1e-15, 0.999 * ex.RHO_MIN,
                                     1.001 * ex.RHO_MAX, 1e308])
    def test_rho_outside_search_bracket_rejected(self, bsc04, rho):
        with pytest.raises(DomainError):
            ex.achieved_exponent(bsc04, rho)
        with pytest.raises(DomainError):
            ex.overhead_fraction(bsc04, rho)

    def test_bracket_edges_accepted(self, bsc04):
        for rho in (ex.RHO_MIN, ex.RHO_MAX):
            assert ex.achieved_exponent(bsc04, rho).exponent > 0
            assert 0 < ex.overhead_fraction(bsc04, rho) < 1


class TestClosedFormsAndSlopes:
    def test_bec_feedback_values(self):
        assert ex.bec_feedback_exponent(0.4) == pytest.approx(math.log(1.5), rel=1e-12)
        assert ex.bec_feedback_exponent(0.1) == pytest.approx(math.log(9.0), rel=1e-12)

    def test_bec_feedback_domain(self):
        for bad in (0.0, 0.5, 0.7, 1.0):
            with pytest.raises(chan.OutOfRangeError):
                ex.bec_feedback_exponent(bad)

    def test_bsc_slopes_frozen(self, bsc04):
        s = ex.capacity_slopes(bsc04)
        assert s.e0_curvature == pytest.approx(CURV_BSC04, rel=1e-12)
        assert s.focusing_slope == pytest.approx(SLOPE_FOCUSING_BSC04, rel=1e-12)
        assert s.achieved_slope == pytest.approx(SLOPE_ACHIEVED_BSC04, rel=1e-12)
        assert s.focusing_slope > 0 and s.achieved_slope > 0
        assert s.flags == ()

    def test_bec_curvature_closed_form(self, bec04):
        s = ex.capacity_slopes(bec04)
        assert s.e0_curvature == pytest.approx(-(LN2 ** 2) * 0.24, rel=1e-12)

    @pytest.mark.parametrize("delta", CURVATURE_DELTAS)
    def test_bsc_curvature_closed_form_across_crossovers(self, delta):
        closed = -delta * (1.0 - delta) * math.log((1.0 - delta) / delta) ** 2
        s = ex.capacity_slopes(chan.make_bsc(delta))
        assert s.e0_curvature == pytest.approx(closed, rel=1e-12)
        assert s.flags == ()

    @pytest.mark.parametrize("delta", CURVATURE_DELTAS)
    def test_bec_curvature_closed_form_across_erasures(self, delta):
        closed = -(LN2 ** 2) * delta * (1.0 - delta)
        s = ex.capacity_slopes(chan.make_bec(delta))
        assert s.e0_curvature == pytest.approx(closed, rel=1e-12)
        assert s.flags == ()

    def test_bec_focusing_slope_is_exact(self, bec04):
        # 2 C / |E0''(0)| = 2 (0.6 ln 2) / (0.24 ln^2 2) = 5 / ln 2.
        assert ex.capacity_slopes(bec04).focusing_slope == pytest.approx(5.0 / LN2, rel=1e-12)

    def test_curvature_matches_central_differences(self):
        # A second route to E0''(0): central second differences of E0 under
        # the uniform law, on random circulant (hence symmetric) channels.
        rng = np.random.default_rng(7)
        h = 1e-4
        for k in (2, 3, 4, 5, 8):
            for _ in range(8):
                row = rng.dirichlet(np.ones(k))
                c = chan.make_dmc([np.roll(row, i) for i in range(k)])
                q = np.full(k, 1.0 / k)
                e0 = [ex._e0_from_powers(ex._powers(c.p, rho), rho, q) for rho in (h, 0.0, -h)]
                diff = (e0[0] - 2.0 * e0[1] + e0[2]) / h ** 2
                assert ex.capacity_slopes(c).e0_curvature == pytest.approx(diff, abs=1e-5)

    def test_flat_curvature_flag(self):
        s = ex.capacity_slopes(chan.make_dmc(np.eye(2)))
        assert ex.FLAG_FLAT_CURVATURE in s.flags
        assert s.focusing_slope == math.inf and s.achieved_slope == math.inf

    def test_flat_curvature_without_error_free_rows(self):
        # Noisy typewriter: each input splits evenly over two outputs, so
        # i(X;Y) = ln(5/2) on the whole support and E0 is linear in rho.
        c = chan.make_dmc([np.roll([0.5, 0.5, 0.0, 0.0, 0.0], i) for i in range(5)])
        s = ex.capacity_slopes(c)
        assert ex.FLAG_FLAT_CURVATURE in s.flags
        assert abs(s.e0_curvature) < 1e-28

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            ex.capacity_slopes(chan.make_dmc([[1.0, 0.0], [0.3, 0.7]]))

    def test_focusing_slope_matches_curve(self, bsc04):
        # Near capacity the converse vanishes linearly with the reported slope.
        rate = 0.999 * CAP_BSC_04
        ratio = ex.focusing_bound(bsc04, rate).value / (CAP_BSC_04 - rate)
        assert ratio == pytest.approx(ex.capacity_slopes(bsc04).focusing_slope, rel=0.02)

    def test_achieved_slope_matches_curve(self, bsc04):
        rate = 0.999 * CAP_BSC_04
        ratio = ex.achieved_exponent_at_rate(bsc04, rate).value / (CAP_BSC_04 - rate)
        assert ratio == pytest.approx(ex.capacity_slopes(bsc04).achieved_slope, rel=0.02)
