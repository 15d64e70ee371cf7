import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import fraction_bell_determinant, per_threshold_bell_literal, scalar_ccdf
from hypothesis import given, settings, strategies as st

from prbdim import (AccuracyError, CompoundSpec, DomainError, RangeError,
                    bell_complete, bell_determinant, ccdf_bell,
                    ccdf_bell_literal, ccdf_integral, pmf)
from prbdim.compound import _MAX_MEAN, default_cutoff, recursion_steps
from prbdim.congestion import block_curves
from prbdim import validate
from prbdim.compound import bell_sequence
from prbdim.validate import convolved_pmf


def enumerated_pmf(weights, k_max):
    """Independent oracle: enumerate count tuples (v_1..v_N) directly.

    Truncation at c_n <= k_max // n is exact for indices up to k_max.
    """
    out = np.zeros(k_max + 1)
    ranges = [range(0, k_max // n + 1) for n in range(1, len(weights) + 1)]
    for counts in itertools.product(*ranges):
        total = sum(n * c for n, c in enumerate(counts, start=1))
        if total <= k_max:
            prob = 1.0
            for w, c in zip(weights, counts):
                prob *= math.exp(-w) * w ** c / math.factorial(c)
            out[total] += prob
    return out


def two_heavy_levels_pmf(k_max):
    """P(Lambda = k), k <= k_max, for Lambda = V1 + 2*V2 with V1, V2 ~
    Poisson(400), by explicit convolution of scipy's Poisson PMFs."""
    from scipy.stats import poisson
    ones = poisson.pmf(np.arange(k_max + 1), 400.0)
    twos = np.zeros(k_max + 1)
    twos[::2] = poisson.pmf(np.arange(k_max // 2 + 1), 400.0)
    return np.convolve(ones, twos)[:k_max + 1]


class TestPmf:
    def test_single_level_is_plain_poisson(self):
        p = pmf(CompoundSpec(weights=np.array([2.0])), 6)
        assert p[0] == pytest.approx(0.13533528323661269, rel=1e-14)
        assert p[1] == pytest.approx(0.27067056647322538, rel=1e-14)
        from scipy.stats import poisson
        np.testing.assert_allclose(p, poisson.pmf(np.arange(7), 2.0),
                                   rtol=1e-12)

    def test_zero_weights_degenerate(self):
        p = pmf(CompoundSpec(weights=np.zeros(4)), 5)
        assert p[0] == 1.0
        assert p[1:].sum() == 0.0

    def test_two_level_value(self):
        p = pmf(CompoundSpec(weights=np.array([1.0, 1.0])), 2)
        assert p[2] == pytest.approx(0.20300292485491904, rel=1e-13)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            w = rng.uniform(0.0, 1.5, n)
            p = pmf(CompoundSpec(weights=w), 30)
            np.testing.assert_allclose(p, enumerated_pmf(w, 30),
                                       atol=1e-12)

    def test_mass_accounted(self):
        spec = CompoundSpec(weights=np.array([3.0, 1.0, 0.5]))
        k = default_cutoff(spec.weights)
        tail = ccdf_bell(spec, k + 1)
        assert pmf(spec, k).sum() + tail == pytest.approx(1.0, abs=1e-9)
        assert tail <= 1e-11

    def test_cutoff_of_matrix_is_largest_row(self):
        # Poisson(2): ceil(2*(e - 1) - log(1e-12)) = 32
        assert default_cutoff([2.0]) == 32
        w = np.random.default_rng(5).uniform(0.0, 3.0, (7, 4))
        assert default_cutoff(w) == max(default_cutoff(row) for row in w)

    def test_support_characterization(self):
        # only totals representable as sums of populated levels carry mass
        p = pmf(CompoundSpec(weights=np.array([0.0, 1.0, 0.0, 0.5])), 11)
        representable = {2 * a + 4 * b for a in range(6) for b in range(3)}
        for k in range(12):
            if k in representable:
                assert p[k] > 0
            else:
                assert p[k] == 0

    def test_heavy_load_matches_oracles(self):
        # exp(-2000) underflows; the rescaled rows still give every p_k
        from scipy.stats import poisson
        p = pmf(CompoundSpec(weights=np.array([2000.0])), 4000)
        np.testing.assert_allclose(p, poisson.pmf(np.arange(4001), 2000.0),
                                   rtol=0, atol=1e-12)
        two = pmf(CompoundSpec(weights=np.array([400.0, 400.0])), 1200)
        np.testing.assert_allclose(two, convolved_pmf([400.0, 400.0], 1200),
                                   rtol=0, atol=1e-12)

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            pmf(CompoundSpec(weights=np.array([1.0])), -1)

    def test_bad_weights_rejected(self):
        with pytest.raises(DomainError):
            CompoundSpec(weights=np.array([]))
        with pytest.raises(DomainError):
            CompoundSpec(weights=np.array([-0.1]))
        with pytest.raises(DomainError):
            CompoundSpec(weights=np.array([math.nan]))


class TestKernel:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_row_alone_has_its_stacked_bits(self, data):
        # einsum once summed a one-row matrix in another order than a stack,
        # so a lone row (R = 1) and its stacked copy differed in the last bit
        rows = data.draw(st.integers(2, 40))
        n = data.draw(st.integers(1, 40))
        # heavy rows (total weight above 600) are rescaled mid-pass
        high = data.draw(st.sampled_from([1.0, 5.0, 300.0]))
        w = np.array(data.draw(st.lists(st.lists(st.floats(0.0, high), min_size=n, max_size=n),
                                        min_size=rows, max_size=rows)))
        at = data.draw(st.integers(0, rows - 1))
        k_max = data.draw(st.integers(0, 150))
        stacked = list(recursion_steps(w, k_max))
        alone = list(recursion_steps(w[at:at + 1], k_max))
        assert len(alone) == len(stacked) == k_max + 1
        for (p, tail), (p_alone, tail_alone) in zip(stacked, alone):
            assert p_alone.shape == tail_alone.shape == (1,)
            assert (p[at], tail[at]) == (p_alone[0], tail_alone[0])

    # a step multiplies the largest value held, below 1e200, by up to the
    # row's mean demand sum_j j*w_j: past (largest float) / 1e200 a value
    # once reached inf and its tail NaN
    @pytest.mark.parametrize("n", [1, 4])
    def test_a_mean_demand_below_the_bound_keeps_every_value_finite(self, n):
        w = np.zeros((3, n))
        w[:, -1] = 0.999 * _MAX_MEAN / n
        for p, tail in recursion_steps(w, 400):
            assert np.isfinite(p).all() and np.isfinite(tail).all()

    def test_a_mean_demand_above_the_bound_is_refused_before_the_first_step(self):
        w = np.array([[1.0, 0.0], [0.0, 0.6 * _MAX_MEAN]])
        with pytest.raises(DomainError) as exc:
            next(recursion_steps(w, 10))
        assert str(exc.value) == (f"mean demand {1.2 * _MAX_MEAN:.3g} PRBs above "
                                  f"{_MAX_MEAN:.3g} overflows the recursion")


class TestBellPolynomials:
    def test_listed_low_orders(self):
        assert bell_complete([]) == 1
        assert bell_complete([7]) == 7
        assert bell_complete([3, 4]) == 13
        assert bell_complete([1, 1, 1]) == 5
        assert bell_complete([1, 1, 1, 1]) == 15
        assert bell_determinant([]) == 1
        assert bell_determinant([3, 4]) == 13
        assert bell_determinant([1, 1, 1]) == 5
        assert bell_determinant([1, 1, 1, 1]) == 15

    @settings(max_examples=80, deadline=None)
    @given(xs=st.lists(st.integers(-6, 6), min_size=0, max_size=10))
    def test_recurrence_equals_determinant_exactly(self, xs):
        assert bell_complete(xs) == bell_determinant(xs)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_binomial_type_relation(self, data):
        p = data.draw(st.integers(0, 8))
        xs = data.draw(st.lists(st.integers(-4, 4), min_size=p, max_size=p))
        ys = data.draw(st.lists(st.integers(-4, 4), min_size=p, max_size=p))
        lhs = bell_complete([a + b for a, b in zip(xs, ys)])
        rhs = sum(math.comb(p, i) * bell_complete(xs[: p - i]) * bell_complete(ys[:i])
                  for i in range(p + 1))
        assert lhs == rhs

    def test_superposition_matches_convolution(self):
        # probabilistic face of the binomial relation: adding specs
        # convolves their distributions
        a = CompoundSpec(weights=np.array([0.7, 0.2]))
        b = CompoundSpec(weights=np.array([0.1, 0.4, 0.3]))
        # levels aligned by n: w = (0.7 + 0.1, 0.2 + 0.4, 0.3)
        combined = pmf(CompoundSpec(weights=np.array([0.8, 0.6, 0.3])), 24)
        pa = pmf(a, 24)
        pb = pmf(b, 24)
        np.testing.assert_allclose(combined, np.convolve(pa, pb)[:25], atol=1e-13)

    def test_float_guard(self):
        with pytest.raises(RangeError):
            bell_complete([1.0] * 26)
        with pytest.raises(RangeError):
            bell_determinant([1.0] * 26)
        # exact integer mode keeps going far beyond the float guard
        exact = bell_complete([1] * 30)
        assert exact == 846749014511809332450147  # Bell number B_30

    def test_float_overflow_is_loud(self):
        with pytest.raises(RangeError):
            bell_complete([1e300, 1e300, 1e300, 1e300])

    @pytest.mark.parametrize("k", range(1, 26))
    def test_float_determinant_equals_recurrence(self, k):
        xs = np.random.default_rng(k).uniform(0.1, 2.0, size=k).tolist()
        assert bell_determinant(xs) == pytest.approx(bell_complete(xs), rel=1e-12, abs=0)

    def test_float_determinant_overflow_is_loud(self):
        with np.errstate(over="ignore"), pytest.raises(RangeError) as exc:
            bell_determinant([1e30] * 20)
        assert str(exc.value) == "B_20 overflows double precision"


class TestBellRewrite:
    """The one-sequence and fraction-free forms against the per-threshold
    loop and the Fraction elimination they replace."""

    def test_determinant_equals_fraction_elimination_on_integers(self):
        rng = np.random.default_rng(16)
        for _ in range(240):
            xs = [int(v) for v in rng.integers(-4, 5, int(rng.integers(0, 13)))]
            assert bell_determinant(xs) == fraction_bell_determinant(xs)
            assert isinstance(bell_determinant(xs), int)

    def test_determinant_equals_fraction_elimination_on_fractions(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            p = int(rng.integers(1, 9))
            xs = [Fraction(int(a), int(b)) for a, b in
                  zip(rng.integers(-4, 5, p), rng.integers(1, 4, p))]
            expected = fraction_bell_determinant(xs)
            assert bell_determinant(xs) == expected == bell_complete(xs)
            assert type(bell_determinant(xs)) is (int if expected.denominator == 1
                                                  else Fraction)

    def test_singular_and_swapping_matrices(self):
        # zero first entries force row swaps; an all-zero input is singular
        for xs in ([0, 0, 0, 0], [0, 3, 0, -2, 1], [0, 0, 5], [2, -4, 0, 0, 0, 0, 1]):
            assert bell_determinant(xs) == fraction_bell_determinant(xs)

    @pytest.mark.parametrize("weights", [[0.5, 0.3, 0.2], [2.0], [0.9, 0.0, 1.4, 0.05],
                                         [1.7, 0.2, 0.6, 0.1, 0.8, 0.3]])
    def test_literal_array_equals_the_per_threshold_loop_bit_for_bit(self, weights):
        spec = CompoundSpec(weights=np.array(weights))
        ms = np.arange(0, 27)
        expected = [per_threshold_bell_literal(spec, int(m)) for m in ms]
        np.testing.assert_array_equal(ccdf_bell_literal(spec, ms), expected)
        np.testing.assert_array_equal(ccdf_bell_literal(spec, ms[::-3]), expected[::-3])
        for m in (0, 1, 13, 26):
            value = ccdf_bell_literal(spec, m)
            assert isinstance(value, float) and value == expected[m]

    def test_literal_array_keeps_the_guards(self):
        spec = CompoundSpec(weights=np.array([0.5, 0.3]))
        with pytest.raises(RangeError):
            ccdf_bell_literal(spec, np.array([3, 27]))
        with pytest.raises(DomainError):
            ccdf_bell_literal(spec, np.array([3, -1]))

    @pytest.mark.parametrize("xs", [[], [7], [3, 4, -2, 5, 0, 1, -3], [1] * 30,
                                    [0.4, 1.3, 0.2, 2.5, 0.7, 1.1],
                                    [Fraction(1, 3), Fraction(-2, 5), 4, Fraction(7, 2)]])
    def test_sequence_entries_are_the_complete_polynomials(self, xs):
        seq = bell_sequence(xs)
        assert len(seq) == len(xs) + 1
        for k, b in enumerate(seq):
            assert b == bell_complete(xs[:k])

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_identity_kernel_rows_match_one_row_calls(self, seed, monkeypatch):
        calls = []
        kernel_rows = validate.kernel_rows

        def recording(weights, k_max):
            rows = kernel_rows(weights, k_max)
            calls.append((weights, k_max, rows))
            return rows

        monkeypatch.setattr(validate, "kernel_rows", recording)
        assert all(c.passed for c in validate.identities_suite(seed=seed))
        assert [(len(w), k) for w, k, _ in calls] == [(20, 40), (20, 79), (10, 19)]
        for weights, k_max, (pmfs, tails) in calls:
            for w, p, t in zip(weights, pmfs, tails):
                spec = CompoundSpec(weights=w)
                np.testing.assert_allclose(p, pmf(spec, k_max), rtol=0, atol=1e-15)
                # each tail is 1 minus a running sum of k_max + 1 such values,
                # so its rounding may differ by up to one ulp of 1 per step
                np.testing.assert_allclose(t, ccdf_bell(spec, np.arange(k_max + 2)),
                                           rtol=0, atol=(k_max + 1) * np.finfo(float).eps)


class TestCcdf:
    @pytest.mark.parametrize("ccdf", [ccdf_bell, ccdf_integral])
    @pytest.mark.parametrize("m", [-1, [3, -2]])
    def test_negative_threshold_is_refused(self, ccdf, m):
        with pytest.raises(DomainError) as exc:
            ccdf(CompoundSpec(weights=np.array([0.3, 0.2])), m)
        assert str(exc.value) == "thresholds must be nonnegative"

    # a fractional threshold was once floored: P(Lambda >= 2.7) read P(Lambda >= 2)
    @pytest.mark.parametrize("ccdf", [ccdf_bell, ccdf_bell_literal, ccdf_integral])
    @pytest.mark.parametrize("m, bad", [(2.7, "2.7"), ([1, 2.5], "2.5"), (math.nan, "nan")])
    def test_threshold_that_is_not_whole_is_refused(self, ccdf, m, bad):
        with pytest.raises(DomainError) as exc:
            ccdf(CompoundSpec(weights=np.array([1.0, 0.5])), m)
        assert str(exc.value) == f"thresholds: {bad} is not a whole number"

    @pytest.mark.parametrize("ccdf", [ccdf_bell, ccdf_bell_literal, ccdf_integral])
    def test_whole_thresholds_given_as_floats_are_read(self, ccdf):
        spec = CompoundSpec(weights=np.array([1.0, 0.5]))
        assert ccdf(spec, 3.0) == ccdf(spec, 3)
        assert isinstance(ccdf(spec, 3.0), float)
        np.testing.assert_array_equal(ccdf(spec, np.array([[0.0, 3.0]])),
                                      ccdf(spec, np.array([[0, 3]])))

    # k_max is a count: True was once read as 1 and 2.0 as 2
    def test_pmf_refuses_a_k_max_that_is_not_whole(self):
        spec = CompoundSpec(weights=np.array([1.0, 0.5]))
        for k_max, message in [(2.5, "k_max 2.5 must be an integer"),
                               (2.0, "k_max 2.0 must be an integer"),
                               (True, "k_max True must be an integer"),
                               (-1, "k_max -1 must be a non-negative integer")]:
            with pytest.raises(DomainError) as exc:
                pmf(spec, k_max)
            assert str(exc.value) == message
        np.testing.assert_array_equal(pmf(spec, np.int64(4)), pmf(spec, 4))

    # a MemoryError (8 PiB) once
    def test_pmf_refuses_an_extent_beyond_the_size_bound(self):
        with pytest.raises(DomainError, match=f"k_max {2 ** 50} asks for 1.13e\\+15 tail values"):
            pmf(CompoundSpec(weights=np.array([1.0])), 2 ** 50)

    def test_no_thresholds_give_an_empty_array(self):
        spec = CompoundSpec(weights=np.array([0.3, 0.2]))
        for ccdf in (ccdf_bell, ccdf_integral):
            tails = ccdf(spec, np.array([], dtype=np.int64))
            assert isinstance(tails, np.ndarray) and tails.shape == (0,)
        assert ccdf_integral(spec, []).shape == (0,)

    def test_zero_threshold(self):
        spec = CompoundSpec(weights=np.array([0.3]))
        assert ccdf_bell(spec, 0) == 1.0
        assert ccdf_integral(spec, 0) == 1.0
        assert ccdf_bell_literal(spec, 0) == 1.0

    def test_poisson_tail(self):
        spec = CompoundSpec(weights=np.array([2.0]))
        assert ccdf_bell(spec, 1) == pytest.approx(0.86466471676338731, rel=1e-13)
        assert ccdf_integral(spec, 1) == pytest.approx(0.86466471676338731, abs=1e-9)

    def test_enumeration_value(self):
        spec = CompoundSpec(weights=np.array([0.5, 0.3, 0.2]))
        assert ccdf_bell(spec, 5) == pytest.approx(0.087314098918724815, rel=1e-12)

    @pytest.mark.parametrize("weights", [[2.0], [0.4, 0.1], [1.5, 0.7, 0.1, 0.9],
                                         [0.5, 0.3, 0.2, 1.1, 0.05, 0.8, 1.9],
                                         [400.0, 400.0]])
    def test_one_tail_reader(self, weights):
        # array calls, scalar calls and the R-row reader at R = 1 all read
        # the kernel's running CDF, so they agree bit for bit
        spec = CompoundSpec(weights=np.array(weights))
        ms = np.unique(np.linspace(0, default_cutoff(spec.weights), 40).astype(np.int64))
        tails = ccdf_bell(spec, ms)
        scalars = [ccdf_bell(spec, int(m)) for m in ms]
        assert all(isinstance(t, float) for t in scalars)
        np.testing.assert_array_equal(tails, scalars)
        curve = block_curves(spec.weights[None, :], int(ms[-1]))
        np.testing.assert_array_equal(tails, curve.pi[ms])
        if spec.total_weight < 700:
            np.testing.assert_allclose(tails, scalar_ccdf(spec.weights, ms), rtol=0, atol=1e-14)

    def test_literal_path_agrees(self):
        spec = CompoundSpec(weights=np.array([0.5, 0.3, 0.2]))
        for m in range(0, 21):
            assert ccdf_bell_literal(spec, m) == pytest.approx(
                ccdf_bell(spec, m), abs=1e-12)

    def test_recursion_carries_bell_coefficients(self):
        # H*B_k/k! with x_j = w_j*j! reproduces the recursion's pmf
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            spec = CompoundSpec(weights=rng.uniform(0.0, 2.0, n))
            h = math.exp(-spec.total_weight)
            p = pmf(spec, 20)
            for k in range(21):
                literal = h * bell_complete(spec.bell_arguments(k)) / math.factorial(k)
                assert literal == pytest.approx(p[k],
                                                rel=1e-10, abs=1e-300)

    def test_monotone_and_vanishing(self):
        spec = CompoundSpec(weights=np.array([1.5, 0.7, 0.1, 0.9]))
        curve = ccdf_bell(spec, np.arange(default_cutoff(spec.weights) + 2))
        assert curve[0] == 1.0
        assert all(a >= b for a, b in zip(curve, curve[1:]))
        variance = float(np.arange(1, spec.n_levels + 1) ** 2 @ spec.weights)
        horizon = int(spec.mean + 12 * math.sqrt(variance))
        assert ccdf_bell(spec, horizon) <= 1e-9

    def test_integral_matches_recursion_broadly(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(15):
            n = int(rng.integers(1, 21))
            spec = CompoundSpec(weights=rng.uniform(0.0, 2.0, n))
            ms = np.arange(0, 120)
            by_int = ccdf_integral(spec, ms)
            worst = max(worst, float(np.max(np.abs(by_int - ccdf_bell(spec, ms)))))
        assert worst <= 1e-6

    def test_integral_near_zero_threshold_limit(self):
        # P(Lambda >= 1) = 1 - H, carried by the theta = 0 point of the grid
        spec = CompoundSpec(weights=np.array([0.4, 0.1]))
        assert ccdf_integral(spec, 1) == pytest.approx(ccdf_bell(spec, 1), abs=1e-9)
        assert ccdf_integral(spec, 1) == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)

    def test_integral_refuses_silent_failure(self):
        # a threshold or a Chernoff cutoff beyond the 2^26-point grid is
        # refused before the grid is allocated
        for weights, m in (([1.0], 1 << 25), ([1e8], 5)):
            with pytest.raises(AccuracyError, match=r"more than the limit of 67108864"):
                ccdf_integral(CompoundSpec(weights=np.array(weights)), m)

    def test_integral_batch_equals_scalar_calls(self):
        # the cutoff (91) sets the grid for every m <= 20, so both agree exactly
        spec = CompoundSpec(weights=np.array([2.0, 1.0, 0.5]))
        ms = np.arange(0, 21)
        batch = ccdf_integral(spec, ms)
        assert batch.shape == ms.shape
        for m, value in zip(ms, batch):
            scalar = ccdf_integral(spec, int(m))
            assert isinstance(scalar, float)
            assert scalar == value

    def test_recursion_matches_oracles_at_heavy_load(self):
        # exp(-800) underflows, so an unscaled recursion would return a tail
        # of ones where the true value is about 0.5
        from scipy.stats import poisson
        for w in (700.0, 800.0):
            spec = CompoundSpec(weights=np.array([w]))
            assert ccdf_bell(spec, int(w)) == pytest.approx(poisson.sf(w - 1, w), abs=1e-9)
        spec = CompoundSpec(weights=np.array([400.0, 400.0]))
        assert ccdf_bell(spec, 1200) == pytest.approx(ccdf_integral(spec, 1200), abs=1e-9)

    @pytest.mark.parametrize("w", [800.0, 2000.0])
    def test_integral_is_heavy_load_oracle_poisson(self, w):
        # where the recursion refuses, the inversion matches the Poisson tail;
        # m far below the mean needs more points than 4*(m+N)
        from scipy.stats import poisson
        spec = CompoundSpec(weights=np.array([w]))
        for m in (1, int(w) // 2, int(w)):
            assert ccdf_integral(spec, m) == pytest.approx(poisson.sf(m - 1, w), abs=1e-9)

    def test_integral_is_heavy_load_oracle_two_levels(self):
        m = 1200
        expected = 1.0 - two_heavy_levels_pmf(m - 1).sum()
        spec = CompoundSpec(weights=np.array([400.0, 400.0]))
        assert ccdf_integral(spec, m) == pytest.approx(expected, abs=1e-9)


class TestConvolvedPmf:
    def test_heavy_single_level_is_poisson(self):
        # 150**c and c! overflow a double beyond c = 170; log-space terms do not
        from scipy.stats import poisson
        np.testing.assert_allclose(convolved_pmf([150.0], 400),
                                   poisson.pmf(np.arange(401), 150.0), rtol=0, atol=1e-14)

    def test_heavy_two_levels_match_explicit_convolution(self):
        np.testing.assert_allclose(convolved_pmf([400.0, 400.0], 1200),
                                   two_heavy_levels_pmf(1200), rtol=0, atol=1e-14)

    def test_empty_level_is_a_point_mass(self):
        np.testing.assert_array_equal(convolved_pmf([0.0, 0.0], 4), [1.0, 0.0, 0.0, 0.0, 0.0])


class TestMean:
    def test_weighted_sum(self):
        assert CompoundSpec(weights=np.array([2.0, 0.0, 0.0])).mean == 2.0
        assert CompoundSpec(weights=np.array([1.0, 1.0])).mean == 3.0

    def test_against_sampling(self):
        spec = CompoundSpec(weights=np.array([1.2, 0.4, 0.8]))
        rng = np.random.default_rng(23)
        counts = rng.poisson(spec.weights, size=(200_000, 3))
        sampled = (counts * np.arange(1, 4)).sum(axis=1).mean()
        assert sampled == pytest.approx(spec.mean, rel=0.005)
