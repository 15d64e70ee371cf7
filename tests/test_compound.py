import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prbdim import (AccuracyError, CompoundSpec, DomainError, RangeError,
                    bell_complete, bell_determinant, ccdf_bell,
                    ccdf_bell_literal, ccdf_integral, pmf)
from prbdim.compound import default_cutoff


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


class TestPmf:
    def test_single_level_is_plain_poisson(self):
        table = pmf(CompoundSpec(weights=np.array([2.0])), 6)
        assert table.probabilities[0] == pytest.approx(0.13533528323661269, rel=1e-14)
        assert table.probabilities[1] == pytest.approx(0.27067056647322538, rel=1e-14)
        from scipy.stats import poisson
        np.testing.assert_allclose(table.probabilities, poisson.pmf(np.arange(7), 2.0),
                                   rtol=1e-12)

    def test_zero_weights_degenerate(self):
        table = pmf(CompoundSpec(weights=np.zeros(4)), 5)
        assert table.probabilities[0] == 1.0
        assert table.probabilities[1:].sum() == 0.0

    def test_two_level_value(self):
        table = pmf(CompoundSpec(weights=np.array([1.0, 1.0])), 2)
        assert table.probabilities[2] == pytest.approx(0.20300292485491904, rel=1e-13)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            w = rng.uniform(0.0, 1.5, n)
            table = pmf(CompoundSpec(weights=w), 30)
            np.testing.assert_allclose(table.probabilities, enumerated_pmf(w, 30),
                                       atol=1e-12)

    def test_mass_accounted(self):
        spec = CompoundSpec(weights=np.array([3.0, 1.0, 0.5]))
        k = default_cutoff(spec.weights)
        table = pmf(spec, k)
        assert table.probabilities.sum() + table.tail == pytest.approx(1.0, abs=1e-9)
        assert table.tail <= 1e-11

    def test_cutoff_of_matrix_is_largest_row(self):
        # Poisson(2): ceil(2*(e - 1) - log(1e-12)) = 32
        assert default_cutoff([2.0]) == 32
        w = np.random.default_rng(5).uniform(0.0, 3.0, (7, 4))
        assert default_cutoff(w) == max(default_cutoff(row) for row in w)

    def test_support_characterization(self):
        # only totals representable as sums of populated levels carry mass
        table = pmf(CompoundSpec(weights=np.array([0.0, 1.0, 0.0, 0.5])), 11)
        p = table.probabilities
        representable = {2 * a + 4 * b for a in range(6) for b in range(3)}
        for k in range(12):
            if k in representable:
                assert p[k] > 0
            else:
                assert p[k] == 0

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
        combined = pmf(CompoundSpec(weights=np.array([0.8, 0.6, 0.3])), 24).probabilities
        pa = pmf(a, 24).probabilities
        pb = pmf(b, 24).probabilities
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


class TestCcdf:
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
            table = pmf(spec, 20)
            for k in range(21):
                literal = h * bell_complete(spec.bell_arguments(k)) / math.factorial(k)
                assert literal == pytest.approx(table.probabilities[k],
                                                rel=1e-10, abs=1e-300)

    def test_monotone_and_vanishing(self):
        spec = CompoundSpec(weights=np.array([1.5, 0.7, 0.1, 0.9]))
        table = pmf(spec, default_cutoff(spec.weights))
        curve = table.ccdf_curve(np.arange(table.k_max + 2))
        assert curve[0] == 1.0
        assert all(a >= b for a, b in zip(curve, curve[1:]))
        horizon = int(spec.mean + 12 * math.sqrt(spec.variance))
        assert table.ccdf_curve([horizon])[0] <= 1e-9

    def test_integral_matches_recursion_broadly(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(15):
            n = int(rng.integers(1, 21))
            spec = CompoundSpec(weights=rng.uniform(0.0, 2.0, n))
            ms = np.arange(0, 120)
            by_int = ccdf_integral(spec, ms)
            table = pmf(spec, 119)
            worst = max(worst, float(np.max(np.abs(by_int - table.ccdf_curve(ms)))))
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

    def test_recursion_underflow_is_loud(self):
        # exp(-800) underflows, so the recursion would return a tail of ones
        # where the true value is about 0.5
        for weights, m in (([800.0], 800), ([400.0, 400.0], 1200)):
            with pytest.raises(AccuracyError, match=r"1 of 1 road realizations: total weight up to 800"):
                ccdf_bell(CompoundSpec(weights=np.array(weights)), m)
        assert 0.49 < ccdf_bell(CompoundSpec(weights=np.array([700.0])), 700) < 0.52

    @pytest.mark.parametrize("w", [800.0, 2000.0])
    def test_integral_is_heavy_load_oracle_poisson(self, w):
        # where the recursion refuses, the inversion matches the Poisson tail;
        # m far below the mean needs more points than 4*(m+N)
        from scipy.stats import poisson
        spec = CompoundSpec(weights=np.array([w]))
        for m in (1, int(w) // 2, int(w)):
            assert ccdf_integral(spec, m) == pytest.approx(poisson.sf(m - 1, w), abs=1e-9)

    def test_integral_is_heavy_load_oracle_two_levels(self):
        # Lambda = V1 + 2*V2 with V1, V2 ~ Poisson(400), by explicit convolution
        from scipy.stats import poisson
        m = 1200
        ones = poisson.pmf(np.arange(m), 400.0)
        twos = np.zeros(m)
        twos[::2] = poisson.pmf(np.arange((m + 1) // 2), 400.0)
        expected = 1.0 - np.convolve(ones, twos)[:m].sum()
        spec = CompoundSpec(weights=np.array([400.0, 400.0]))
        assert ccdf_integral(spec, m) == pytest.approx(expected, abs=1e-9)


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
