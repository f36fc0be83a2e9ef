import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayexp import channel as ch
from delayexp.errors import BadInputError
from delayexp.exponents import _simplex_grid
from reference import symmetric_by_partitions

LN2 = math.log(2.0)

# Frozen reference values, computed independently from the closed forms
# C(BSC d) = ln 2 - h(d) and C(BEC d) = (1 - d) ln 2, and from a direct
# evaluation of the binary relative entropy.
CAP_BSC_04 = 0.020135513550688766
CAP_BSC_01 = 0.3680642071684971
CAP_BEC_04 = 0.4158883083359672
KL_HALF_VS_04 = 0.020410997260127583


def h2(d):
    return -d * math.log(d) - (1 - d) * math.log(1 - d)


def random_channel(rng, k, m):
    return ch.make_dmc(rng.dirichlet(np.ones(m), size=k))


class TestConstruction:
    def test_bsc_matrix(self):
        c = ch.make_bsc(0.1)
        assert np.allclose(c.p, [[0.9, 0.1], [0.1, 0.9]])
        assert c.inputs == 2 and c.outputs == 2
        assert "BSC" in c.describe()

    def test_bec_matrix(self):
        c = ch.make_bec(0.25)
        assert np.allclose(c.p, [[0.75, 0.0, 0.25], [0.0, 0.75, 0.25]])

    def test_rows_renormalized(self):
        c = ch.make_dmc([[0.5 + 2e-10, 0.5], [0.25, 0.75]])
        assert np.allclose(c.p.sum(axis=1), 1.0, atol=1e-15)

    def test_non_stochastic_rejected(self):
        with pytest.raises(ch.NonStochasticError):
            ch.make_dmc([[0.6, 0.5], [0.5, 0.5]])

    def test_overflowing_row_sum_is_rejected_as_a_plain_float(self):
        # Pytest turns numpy's overflow warning into an error, so the sum
        # must overflow quietly; the message names it as a plain float.
        with pytest.raises(ch.NonStochasticError, match=r"^row 0 sums to inf, expected 1$"):
            ch.make_dmc([[1e308, 1e308], [0.5, 0.5]])
        with pytest.raises(ch.NonStochasticError, match=r"^row 1 sums to 1\.1, expected 1$"):
            ch.make_dmc([[0.5, 0.5], [0.6, 0.5]])

    def test_negative_entry_rejected(self):
        with pytest.raises(ch.NegativeEntryError):
            ch.make_dmc([[1.1, -0.1], [0.5, 0.5]])

    def test_too_few_letters_rejected(self):
        with pytest.raises(ch.TooFewLettersError):
            ch.make_dmc([[1.0], [1.0]])

    def test_bad_parameter_rejected(self):
        with pytest.raises(ch.OutOfRangeError):
            ch.make_bsc(0.7)
        with pytest.raises(ch.OutOfRangeError):
            ch.make_bec(-0.1)

    def test_dimension_mismatch(self):
        with pytest.raises(ch.DimensionMismatchError):
            ch.make_dmc([0.5, 0.5])

    def test_load_channel_roundtrip(self, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps({"matrix": [[0.9, 0.1], [0.2, 0.8]], "label": "demo"}))
        c = ch.load_channel(path)
        assert np.allclose(c.p, [[0.9, 0.1], [0.2, 0.8]])
        assert c.describe() == "demo"

    def test_load_channel_bad_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(BadInputError):
            ch.load_channel(path)
        path.write_text(json.dumps({"rows": [[1.0, 0.0]]}))
        with pytest.raises(BadInputError):
            ch.load_channel(path)
        for raw in (b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000):  # not UTF-8; too deep
            path.write_bytes(raw)
            with pytest.raises(BadInputError):
                ch.load_channel(path)
        with pytest.raises(BadInputError):
            ch.load_channel("nul\0byte.json")

    @pytest.mark.parametrize("label", ["BSC\nprint \"injected line\"", "a\rb", "tab\there",
                                       "nul\0", "del\x7f", "next line\x85", 7, None])
    def test_label_with_a_control_character_is_refused(self, tmp_path, label):
        # The label heads the figure's gnuplot script, where a line break starts a command.
        with pytest.raises(BadInputError, match="channel label must be a string without"):
            ch.make_dmc([[0.9, 0.1], [0.1, 0.9]], label)
        path = tmp_path / "chan.json"
        path.write_text(json.dumps({"matrix": [[0.9, 0.1], [0.1, 0.9]], "label": label}))
        with pytest.raises(BadInputError, match="channel label must be a string without"):
            ch.load_channel(path)

    def test_printable_labels_are_kept(self):
        for label in ("", "BSC(0.1) `ls` #", "Kanal Ü — 0,1 \u00a0"):
            assert ch.make_dmc([[0.9, 0.1], [0.1, 0.9]], label).label == label

    def test_load_channel_refuses_unknown_keys(self, tmp_path):
        # As a scheme config does: a misspelt key is an error, not ignored.
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"matrix": [[0.9, 0.1], [0.1, 0.9]], "lable": "typo"}))
        with pytest.raises(BadInputError, match=r"unknown keys: \['lable'\]$"):
            ch.load_channel(path)
        path.write_text(json.dumps({"matrix": [[0.9, 0.1], [0.1, 0.9]], "label": "ok"}))
        assert ch.load_channel(path).label == "ok"


class TestCapacity:
    def test_bsc_frozen_values(self):
        assert ch.capacity(ch.make_bsc(0.4)) == pytest.approx(CAP_BSC_04, rel=1e-9)
        assert ch.capacity(ch.make_bsc(0.1)) == pytest.approx(CAP_BSC_01, rel=1e-9)

    def test_bec_closed_form(self):
        assert ch.capacity(ch.make_bec(0.4)) == pytest.approx(CAP_BEC_04, rel=1e-12)

    def test_identity_channel(self):
        assert ch.capacity(ch.make_dmc(np.eye(2))) == pytest.approx(LN2, rel=1e-12)

    def test_useless_channel(self):
        c = ch.make_dmc([[0.3, 0.7], [0.3, 0.7]])
        assert ch.capacity(c) == pytest.approx(0.0, abs=1e-12)

    def test_detail_fields(self):
        res = ch.capacity_detail(ch.make_bsc(0.4))
        assert res.converged
        assert res.iterations >= 1
        assert np.allclose(res.q, [0.5, 0.5], atol=1e-6)

    @given(st.floats(min_value=1e-3, max_value=0.499))
    @settings(max_examples=40, deadline=None)
    def test_bsc_matches_entropy_formula(self, delta):
        assert ch.capacity(ch.make_bsc(delta)) == pytest.approx(LN2 - h2(delta), rel=1e-9, abs=1e-12)

    @given(st.floats(min_value=1e-3, max_value=0.999))
    @settings(max_examples=40, deadline=None)
    def test_bec_matches_closed_form(self, delta):
        assert ch.capacity(ch.make_bec(delta)) == pytest.approx((1 - delta) * LN2, rel=1e-9, abs=1e-12)

    def test_capacity_dominates_mutual_information(self):
        # Capacity must upper-bound I(r; p) over a large sample of input laws.
        rng = np.random.default_rng(7)
        for c in [ch.make_bsc(0.4), ch.make_bec(0.3), random_channel(rng, 3, 4)]:
            cap = ch.capacity(c)
            for _ in range(1000):
                r = rng.dirichlet(np.ones(c.inputs))
                assert ch.mutual_information(r, c) <= cap + 1e-9

    def test_uniform_input_achieves_bsc_capacity(self):
        c = ch.make_bsc(0.4)
        assert ch.mutual_information([0.5, 0.5], c) == pytest.approx(ch.capacity(c), rel=1e-9)

    def test_scalar_is_the_batch_solve(self):
        # One iteration serves both, so they agree to the bit; a scalar loop
        # summing in another order gives 0.3680642071684971 on BSC(0.1)
        # against the batch's 0.36806420716849714.
        rng = np.random.default_rng(11)
        for c in (ch.make_bsc(0.1), ch.make_bsc(0.4), ch.make_bec(0.4),
                  ch.make_dmc([[1.0, 0.0], [0.3, 0.7]]), random_channel(rng, 3, 3)):
            assert ch.capacity_detail(c).value == ch.capacity_batch(c.p[None])[0]

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(3)
        mats = rng.dirichlet(np.ones(3), size=(20, 2))
        singles = [ch.capacity(ch.make_dmc(m)) for m in mats]
        batched = ch.capacity_batch(mats)
        assert np.allclose(batched, singles, rtol=1e-9, atol=1e-12)


def pair_stack(outputs, steps):
    """Every pair of rows of the oracle's simplex grid, as 2-input channels."""
    rows = _simplex_grid(outputs, steps)
    i0, i1 = np.divmod(np.arange(len(rows) ** 2), len(rows))
    return np.stack([rows[i0], rows[i1]], axis=1)


class TestCapacityBelow:
    @pytest.mark.parametrize("channel, steps", [
        (ch.make_bsc(0.1), 30),
        (ch.make_bsc(0.4), 30),
        (ch.make_bec(0.4), 10),
    ], ids=["bsc0.1", "bsc0.4", "bec0.4"])
    def test_matches_full_solve_on_oracle_grid(self, channel, steps):
        mats = pair_stack(channel.outputs, steps)
        reference = ch.capacity_batch(mats)
        alone = np.array([ch.capacity_batch(mats[i:i + 1])[0] for i in range(len(mats))])
        assert np.array_equal(reference, alone)
        for frac in (0.3, 0.6, 0.9):
            rate = frac * ch.capacity(channel)
            assert np.array_equal(ch.capacity_below(mats, rate), reference < rate)

    def test_rows_left_to_the_settled_value(self):
        # A C = 0 row, a noiseless row (C = ln 2) and two noisy rows. At a rate
        # equal to a row's capacity no bound settles that row, so the value
        # it reaches at its own convergence decides it.
        mats = np.array([[[0.3, 0.7], [0.3, 0.7]], np.eye(2),
                         [[0.95, 0.05], [0.2, 0.8]], [[0.6, 0.4], [0.1, 0.9]]])
        alone = np.array([ch.capacity_batch(m[None])[0] for m in mats])
        stacked = ch.capacity_batch(mats)
        assert alone[0] == pytest.approx(0.0, abs=1e-12)
        assert alone[1] == pytest.approx(LN2, rel=1e-12)
        for rate in (*alone, *stacked, LN2, 1e-3):
            assert np.array_equal(ch.capacity_below(mats, rate), alone < rate)
        # Every row retires on its own test, so stacking changes no value.
        assert np.array_equal(stacked, alone)

    def test_empty_stack(self):
        assert ch.capacity_below(np.empty((0, 2, 2)), 0.1).shape == (0,)


class TestMeasures:
    def test_divergence_zero_iff_equal(self):
        p = ch.make_bsc(0.3)
        assert ch.conditional_divergence(p, p, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)

    def test_divergence_frozen_value(self):
        g, p = ch.make_bsc(0.5), ch.make_bsc(0.4)
        assert ch.conditional_divergence(g, p, [0.5, 0.5]) == pytest.approx(KL_HALF_VS_04, rel=1e-12)

    def test_divergence_infinite_off_support(self):
        g, p = ch.make_bsc(0.4), ch.make_dmc(np.eye(2))
        assert ch.conditional_divergence(g, p, [0.5, 0.5]) == math.inf

    def test_divergence_ignores_zero_weight_rows(self):
        # The off-support row carries no input mass, so the value stays finite.
        g, p = ch.make_dmc([[1.0, 0.0], [0.5, 0.5]]), ch.make_dmc([[1.0, 0.0], [1.0, 0.0]])
        assert math.isfinite(ch.conditional_divergence(g, p, [1.0, 0.0]))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_divergence_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        g = random_channel(rng, 2, 3)
        p = random_channel(rng, 2, 3)
        r = rng.dirichlet(np.ones(2))
        assert ch.conditional_divergence(g, p, r) >= -1e-12

    def test_mutual_information_zero_on_useless_channel(self):
        c = ch.make_dmc([[0.5, 0.5], [0.5, 0.5]])
        assert ch.mutual_information([0.3, 0.7], c) == pytest.approx(0.0, abs=1e-12)

    def test_input_dist_validation(self):
        c = ch.make_bsc(0.1)
        with pytest.raises(ch.DimensionMismatchError):
            ch.mutual_information([0.2, 0.3, 0.5], c)
        with pytest.raises(ch.NegativeEntryError):
            ch.mutual_information([1.2, -0.2], c)
        with pytest.raises(ch.NonStochasticError):
            ch.mutual_information([0.7, 0.7], c)
        with pytest.raises(ch.NonStochasticError,
                           match=r"^input distribution sums to inf, expected 1$"):
            ch.mutual_information([1e308, 1e308], c)

    @pytest.mark.parametrize("r", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0],
                                   [1.0, -math.inf]])
    def test_input_dist_rejects_non_finite_entries(self, r):
        # NaN fails every comparison, so the sign and sum checks alone let it through.
        c = ch.make_bsc(0.1)
        for call in (lambda: ch._probability_rows(r, 2), lambda: ch.mutual_information(r, c),
                     lambda: ch.conditional_divergence(c, c, r)):
            with pytest.raises(BadInputError, match=r"^input distribution contains non-finite"):
                call()


# Two 2x2 blocks of BSC(0.2) at half weight: one class of four columns that
# also splits into two valid groups.
TWO_GROUPS_ONE_CLASS = np.array([[0.4, 0.1, 0.1, 0.4], [0.1, 0.4, 0.4, 0.1]])
# Two symmetric 2x2 groups whose columns lie a full SYMMETRY_ATOL apart but
# share their 9-decimal class: symmetric, as the search over partitions says.
_X = (16e6 - 0.5) * 1e-9
GROUPS_A_TOLERANCE_APART = np.array([[_X, 0.5 - _X, _X + 1e-9, 0.5 - _X - 1e-9],
                                     [0.5 - _X, _X, 0.5 - _X - 1e-9, _X + 1e-9]])


@st.composite
def block_channels(draw):
    """Channels of at most six outputs built from circulant blocks. A block may
    repeat with its rows and columns permuted, which puts several valid groups
    in one column class; a block with fewer columns than inputs is not valid.
    One entry may then move by an amount near SYMMETRY_ATOL."""
    k = draw(st.integers(2, 3))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1 if blocks else 2, 3))
        base = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
        block = np.array([np.roll(base, i) for i in range(k)]) / base.sum()
        weight = draw(st.floats(0.1, 1.0))
        blocks.append(weight * block)
        if draw(st.booleans()):
            rows, cols = draw(st.permutations(range(k))), draw(st.permutations(range(m)))
            blocks.append(weight * block[np.ix_(rows, cols)])
    p = np.hstack(blocks)[:, :6]
    if draw(st.booleans()):
        i, y = draw(st.integers(0, k - 1)), draw(st.integers(0, p.shape[1] - 1))
        step = draw(st.sampled_from([1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-8, 1e-7])
                    | st.floats(1e-12, 1e-7))
        p[i, y] = abs(p[i, y] + draw(st.sampled_from([-1.0, 1.0])) * step)
    return p / p.sum(axis=1, keepdims=True)


class TestSymmetry:
    def test_standard_channels(self):
        assert ch.is_symmetric(ch.make_bsc(0.4))
        assert ch.is_symmetric(ch.make_bec(0.4))
        assert ch.is_symmetric(ch.make_dmc(np.eye(2)))

    def test_two_group_partition(self):
        c = ch.make_dmc([[1 / 3, 1 / 6, 1 / 2], [1 / 3, 1 / 2, 1 / 6]])
        assert ch.is_symmetric(c)

    def test_reordered_columns(self):
        c = ch.make_dmc([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
        assert ch.is_symmetric(c)

    def test_four_column_pairing(self):
        c = ch.make_dmc([[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]])
        assert ch.is_symmetric(c)

    def test_z_channel_not_symmetric(self):
        assert not ch.is_symmetric(ch.make_dmc([[1.0, 0.0], [0.3, 0.7]]))

    def test_generic_channel_not_symmetric(self):
        assert not ch.is_symmetric(ch.make_dmc([[0.8, 0.15, 0.05], [0.1, 0.6, 0.3]]))

    @given(st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=25, deadline=None)
    def test_every_bsc_symmetric(self, delta):
        assert ch.is_symmetric(ch.make_bsc(delta))

    @given(block_channels())
    @example(TWO_GROUPS_ONE_CLASS)
    @example(TWO_GROUPS_ONE_CLASS + [[-1e-9, 0.0, 0.0, 1e-9], [0.0, 0.0, 0.0, 0.0]])
    @example(GROUPS_A_TOLERANCE_APART)
    @settings(max_examples=300, deadline=None)
    def test_matches_search_over_partitions(self, p):
        c = ch.make_dmc(p)
        assert ch.is_symmetric(c) == symmetric_by_partitions(c.p)

    def test_one_class_of_eighteen_columns(self):
        # Nine copies of a BSC block: one class of 18 columns, past the size at
        # which a search over partitions of the class is affordable.
        bsc = np.array([[0.3, 0.7], [0.7, 0.3]]) / 9
        p = np.hstack([bsc] * 9)
        assert ch.is_symmetric(ch.make_dmc(p))
        p[0, :2] = [0.3 / 9 + 0.01, 0.7 / 9 - 0.01]  # same row sum, one column off
        assert not ch.is_symmetric(ch.make_dmc(p))
