import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from pcn_resilience import powerlaw_fit as pl

from oracles import (_reference_sample, reference_fit_power_law,
                     reference_goodness_of_fit)


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
        data = power_law_sample(2.5, 5, 50_000, seed=2)
        expected = 5 ** -2.5 / zeta(2.5, 5)
        assert np.mean(data == 5) == pytest.approx(expected, rel=0.05)

    def test_far_tail_near_alpha_one_stays_in_int64(self):
        # at alpha 1.05 about one draw in ten passes 2^63 in the continuous
        # inverse; each becomes the largest double below 2^63, and every
        # other draw is the one the uncapped formula gives
        cap = int(np.nextafter(2.0 ** 63, 0))
        draws = power_law_sample(1.05, 1, 10**5, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            uncapped = _reference_sample(1.05, 1, 10**5,
                                         np.random.default_rng(0))
        capped = draws == cap
        assert draws.min() >= 1 and 0.05 < capped.mean() < 0.2
        assert (draws[~capped] == uncapped[~capped]).all()
        assert pl.fit_power_law(draws[:300]).x_min >= 1  # no int64 wrap


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

    @pytest.mark.parametrize("x_min", [1, 5, 8, 90])
    def test_fitted_column_matches_scalar_zeta(self, x_min):
        data = [1, 1, 2, 3, 5, 8, 8, 13, 21, 34, 55, 89]
        fit = pl.FitResult(alpha=2.3, x_min=x_min, ks_distance=0.1,
                           tail_count=sum(d >= x_min for d in data))
        tail_frac = (np.array(data) >= x_min).mean()
        z0 = zeta(2.3, x_min)
        want = [float(tail_frac * zeta(2.3, k) / z0) if k >= x_min else None
                for k in sorted(set(data))]
        assert [fitted for _, _, fitted in pl.ccdf_table(data, fit)] == want


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_fit_alpha_within_bracket(seed):
    data = power_law_sample(2.0 + (seed % 10) / 10, 2, 500, seed=seed)
    fit = pl.fit_power_law(data)
    assert 1.0 < fit.alpha <= 6.0


def same_outcome(fn, reference, *args):
    """`fn(*args)` and `reference(*args)` return equal results or raise the
    same FitError message."""
    try:
        want = reference(*args)
    except pl.FitError as exc:
        with pytest.raises(pl.FitError) as got:
            fn(*args)
        assert str(got.value) == str(exc)
        return None
    assert fn(*args) == want
    return want


@st.composite
def fit_inputs(draw):
    """Power-law and exponential samples on both sides of the 500
    observations that switch MIN_TAIL, and short lists with repeated,
    few distinct or non-positive values."""
    kind = draw(st.sampled_from(["power-law", "exponential", "list"]))
    if kind == "list":
        return draw(st.lists(st.integers(-1, 40), max_size=80))
    size = draw(st.sampled_from([10, 40, 120, 499, 500, 1500]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "power-law":
        return pl.sample_discrete_power_law(
            draw(st.floats(1.5, 3.5)), draw(st.integers(1, 8)), size, rng)
    return np.ceil(rng.exponential(draw(st.floats(1.0, 20.0)), size)).astype(int)


@settings(max_examples=200, deadline=None)
@given(fit_inputs(), st.integers(1, 4), st.integers(0, 100))
def test_fit_and_bootstrap_match_scalar_oracle(data, runs, seed):
    fit = same_outcome(pl.fit_power_law, reference_fit_power_law, data)
    if fit is not None:
        assert pl.goodness_of_fit(data, fit, runs, seed) == \
            reference_goodness_of_fit(data, fit, runs, seed)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("kind", ["power-law", "exponential"])
def test_criterion_4_inputs_match_scalar_oracle(kind, seed):
    # the 40 data sets of acceptance criterion 4
    if kind == "power-law":
        data = pl.sample_discrete_power_law(
            2.5, 5, 10_000, np.random.default_rng(1000 + seed))
    else:
        rng = np.random.default_rng(2000 + seed)
        data = np.ceil(rng.exponential(scale=5.0, size=2000)).astype(int)
    fit = pl.fit_power_law(data)
    assert fit == reference_fit_power_law(data)
    assert pl.goodness_of_fit(data, fit, 20, seed) == \
        reference_goodness_of_fit(data, fit, 20, seed)


def test_candidates_with_short_or_single_valued_tails_are_skipped():
    # min_tail is 65: the tail from 21 holds 50 observations, the one from
    # 22 a single distinct value
    data = list(range(1, 21)) * 30 + [21] * 10 + [22] * 40
    fit = pl.fit_power_law(data)
    assert fit == reference_fit_power_law(data) and fit.x_min <= 20


@st.composite
def zeta_arguments(draw):
    """Arrays of (x, q) on both sides of `_zeta`'s chunk length: runs of a
    shared x over sorted q, as the fit lays them out, mixed with single
    elements, and q from 1 to 2^62 across the asymptotic branch at 1e8."""
    size = draw(st.sampled_from([1, 2, 11, pl._ZETA_CHUNK - 1, pl._ZETA_CHUNK,
                                 pl._ZETA_CHUNK + 1, 2 * pl._ZETA_CHUNK + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([30, 3000, 10**8 + 30, 2**62]))
    low = draw(st.sampled_from([1, 10**8 - 30] if top > 10**8 else [1]))
    q = np.exp(rng.uniform(np.log(low), np.log(top), size))
    q = np.clip(q, low, top).astype(np.int64)
    x = rng.uniform(pl.ALPHA_MIN, pl.ALPHA_MAX, size)
    runs = np.sort(rng.integers(0, size, draw(st.integers(0, 40))))
    for lo, hi in zip(runs[:-1], runs[1:]):
        x[lo:hi] = x[lo]
        q[lo:hi] = np.sort(q[lo:hi])
    return x, q


@settings(max_examples=60, deadline=None)
@given(zeta_arguments())
def test_zeta_port_equals_scipy(args):
    x, q = args
    assert np.array_equal(pl._zeta(x, q), zeta(x, q))


@settings(max_examples=60, deadline=None)
@given(st.floats(pl.ALPHA_MIN, pl.ALPHA_MAX),
       st.one_of(st.integers(1, 200), st.integers(10**8 - 12, 10**8 + 12),
                 st.integers(1, 2**62)))
def test_zeta_port_equals_scipy_on_scalars(x, q):
    assert pl._zeta(x, q) == zeta(x, q)
    assert pl._zeta(x, q).shape == ()


def test_zeta_port_broadcasts_like_scipy():
    x = np.linspace(pl.ALPHA_MIN, pl.ALPHA_MAX, 7)[:, None]
    q = np.array([[1, 2, 3, 9, 10, 11, 500, 10**8, 10**8 + 1, 2**62]])
    got = pl._zeta(x, q)
    assert got.shape == (7, 10) and np.array_equal(got, zeta(x, q))
    assert np.array_equal(pl._zeta(2.5, q[0]), zeta(2.5, q[0]))


def fit_or_none(data):
    try:
        return pl.fit_power_law(data)
    except pl.FitError:
        return None


def sample_or_none(data):
    try:
        return pl._candidates(data)
    except pl.FitError:
        return None


@settings(max_examples=40, deadline=None)
@given(st.lists(fit_inputs(), min_size=1, max_size=12))
def test_batch_fit_equals_one_fit_per_set(sets):
    # sets FitError refuses (zeros, fewer than 10 distinct values) are None
    assert pl._fit_many([sample_or_none(s) for s in sets]) == \
        [fit_or_none(s) for s in sets]


@pytest.mark.parametrize("ks_pass", [1, 37, pl._KS_PASS])
def test_batch_fit_across_zeta_chunks_and_ks_passes(monkeypatch, ks_pass):
    # the 40 sets lay about four chunks of KS arguments end to end
    monkeypatch.setattr(pl, "_KS_PASS", ks_pass)
    sets = [power_law_sample(1.8 + seed / 20, 1 + seed % 4, 900, seed)
            for seed in range(40)]
    sets[7] = [0] + list(sets[7])
    sets[20] = [1, 2, 3] * 300
    fits = pl._fit_many([sample_or_none(s) for s in sets])
    assert fits == [fit_or_none(s) for s in sets]
    assert fits[7] is None and fits[20] is None


def test_bootstrap_across_replicate_blocks_matches_scalar_oracle():
    data = power_law_sample(2.2, 2, 300, seed=11)
    fit = pl.fit_power_law(data)
    runs = 2 * pl._GOF_BLOCK + 1
    assert pl.goodness_of_fit(data, fit, runs, seed=3) == \
        reference_goodness_of_fit(data, fit, runs, seed=3)
