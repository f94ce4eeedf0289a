import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcn_resilience import powerlaw_fit as pl


def power_law_sample(alpha, x_min, n, seed):
    rng = np.random.default_rng(seed)
    return pl.sample_discrete_power_law(alpha, x_min, n, rng)


class TestFit:
    def test_recovers_synthetic_parameters(self):
        data = power_law_sample(2.5, 5, 10_000, seed=0)
        fit = pl.fit_power_law(data)
        assert 2.4 <= fit.alpha <= 2.6
        assert 3 <= fit.x_min <= 10
        assert 0 <= fit.ks_distance <= 1
        assert fit.tail_count >= 2

    def test_degenerate_input(self):
        with pytest.raises(pl.FitError):
            pl.fit_power_law([7] * 100)

    def test_too_few_distinct(self):
        with pytest.raises(pl.FitError):
            pl.fit_power_law([1, 2, 3, 4, 5] * 10)

    def test_nonpositive_rejected(self):
        with pytest.raises(pl.FitError):
            pl.fit_power_law([0, 1, 2, 3, 4, 5, 6, 7, 8, 9])

    def test_permutation_invariance(self):
        data = list(power_law_sample(2.2, 3, 800, seed=4))
        fit1 = pl.fit_power_law(data)
        rng = np.random.default_rng(1)
        rng.shuffle(data)
        fit2 = pl.fit_power_law(data)
        assert fit1 == fit2

    def test_ks_decreases_with_sample_size(self):
        # expectation over seeds: larger samples fit their own law better
        sizes = [1_000, 10_000, 100_000]
        means = []
        for n in sizes:
            ks = [pl.fit_power_law(power_law_sample(2.5, 2, n, seed=s)).ks_distance
                  for s in range(5)]
            means.append(np.mean(ks))
        assert means[0] > means[1] > means[2]


class TestSampler:
    def test_range_and_determinism(self):
        a = power_law_sample(2.5, 4, 1000, seed=9)
        b = power_law_sample(2.5, 4, 1000, seed=9)
        assert (a == b).all()
        assert a.min() >= 4

    def test_tail_frequencies(self):
        # P(X = x_min) = x_min^-alpha / zeta(alpha, x_min)
        from scipy.special import zeta
        data = power_law_sample(2.5, 5, 50_000, seed=2)
        expected = 5 ** -2.5 / zeta(2.5, 5)
        assert np.mean(data == 5) == pytest.approx(expected, rel=0.05)


class TestGoodnessOfFit:
    def test_true_power_law_not_rejected(self):
        data = power_law_sample(2.5, 5, 2000, seed=3)
        fit = pl.fit_power_law(data)
        gof = pl.goodness_of_fit(data, fit, synthetic_runs=200, seed=0)
        assert gof.p_value > 0.1
        assert not gof.reject

    def test_exponential_rejected(self):
        rng = np.random.default_rng(5)
        data = np.ceil(rng.exponential(scale=5.0, size=2000)).astype(int)
        fit = pl.fit_power_law(data)
        gof = pl.goodness_of_fit(data, fit, synthetic_runs=200, seed=0)
        assert gof.reject

    def test_determinism(self):
        data = power_law_sample(2.3, 2, 1000, seed=8)
        fit = pl.fit_power_law(data)
        a = pl.goodness_of_fit(data, fit, synthetic_runs=150, seed=42)
        b = pl.goodness_of_fit(data, fit, synthetic_runs=150, seed=42)
        assert a == b

    def test_pvalue_is_a_proportion(self):
        data = power_law_sample(2.3, 2, 600, seed=1)
        fit = pl.fit_power_law(data)
        gof = pl.goodness_of_fit(data, fit, synthetic_runs=130, seed=0)
        assert (gof.p_value * gof.synthetic_runs) == pytest.approx(
            round(gof.p_value * gof.synthetic_runs))

    def test_few_runs_warns(self):
        data = power_law_sample(2.3, 2, 600, seed=1)
        fit = pl.fit_power_law(data)
        gof = pl.goodness_of_fit(data, fit, synthetic_runs=50, seed=0)
        assert gof.warning is not None

    def test_zero_runs_rejected(self):
        data = power_law_sample(2.5, 3, 500, seed=2)
        fit = pl.fit_power_law(data)
        with pytest.raises(ValueError):
            pl.goodness_of_fit(data, fit, synthetic_runs=0)


class TestCcdfTable:
    def test_shape_and_head(self):
        data = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        rows = ccdf = pl.ccdf_table(data)
        assert rows[0][0] == 1
        assert rows[0][1] == pytest.approx(1.0)
        ks = [r[0] for r in ccdf]
        assert ks == sorted(ks)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_fit_alpha_within_bracket(seed):
    data = power_law_sample(2.0 + (seed % 10) / 10, 2, 500, seed=seed)
    fit = pl.fit_power_law(data)
    assert 1.0 < fit.alpha <= 6.0
