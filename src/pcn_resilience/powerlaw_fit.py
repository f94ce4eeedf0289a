"""Discrete power-law fitting for degree distributions.

Maximum-likelihood estimation with zeta-function normalization, lower
cutoff selected by minimizing the Kolmogorov-Smirnov distance, and a
semi-parametric bootstrap goodness-of-fit test: the scale-free hypothesis
is rejected when p <= 0.1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import zeta

ALPHA_MIN = 1.0 + 1e-6
ALPHA_MAX = 6.0
ALPHA_TOL = 1e-4
REJECT_THRESHOLD = 0.1

# With >= 500 observations, x_min candidates leaving fewer than
# max(50, n/10) tail observations are skipped: tiny-tail fits are
# degenerate and make the bootstrap test powerless against
# fast-decaying alternatives.
MIN_TAIL_LARGE = 50
MIN_TAIL_FRACTION = 10
MIN_TAIL = 2


class FitError(Exception):
    """Power-law fit is impossible on the given data."""


@dataclass(frozen=True)
class FitResult:
    alpha: float
    x_min: int
    ks_distance: float
    tail_count: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GofResult:
    p_value: float
    synthetic_runs: int
    reject: bool
    warning: str | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "warning" or v}


def _loglikelihood(alpha, x_min, n, log_sum) -> np.ndarray:
    """Discrete log-likelihood of each candidate's tail at its alpha. The
    log is `math.log` per element, which numpy's log can differ from in the
    last bit."""
    logs = [math.log(z) for z in zeta(alpha, x_min).tolist()]
    return -n * np.array(logs) - alpha * log_sum


def _mle_alpha(x_min, n, log_sum) -> np.ndarray:
    """Golden-section maximization of the discrete log-likelihood over
    alpha in (1, 6], for every candidate at once: each runs the float
    operations of its own scalar search and stops once its interval is
    within ALPHA_TOL."""
    invphi = (math.sqrt(5) - 1) / 2
    a, b = np.full(len(x_min), ALPHA_MIN), np.full(len(x_min), ALPHA_MAX)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _loglikelihood(c, x_min, n, log_sum)
    fd = _loglikelihood(d, x_min, n, log_sum)
    live = np.flatnonzero(b - a > ALPHA_TOL)
    while live.size:
        left = fc[live] > fd[live]  # the maximum lies in [a, d]
        lo, hi = live[left], live[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - invphi * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + invphi * (b[hi] - a[hi])
        f = _loglikelihood(np.where(left, c[live], d[live]), x_min[live],
                           n[live], log_sum[live])
        fc[lo], fd[hi] = f[left], f[~left]
        live = live[b[live] - a[live] > ALPHA_TOL]
    return (a + b) / 2


def _ks_distances(values, starts, n, cand, alpha) -> list[float]:
    """Max |empirical - model| CDF gap of each candidate's fit over its
    tail's distinct values, `values[cand[j]:]`. `starts[v]` counts the n
    observations below `values[v]`. The tails are laid end to end, so one
    `zeta` call serves every candidate, and a reduceat takes each gap."""
    upto = np.append(starts[1:], n)  # observations <= values[v]
    length = len(values) - cand
    offset = np.cumsum(length) - length
    at = np.arange(length.sum()) + np.repeat(cand - offset, length)
    below = np.repeat(starts[cand], length)
    emp_cdf = (upto[at] - below) / (n - below)
    z = zeta(np.concatenate((np.repeat(alpha, length), alpha)),
             np.concatenate((values[at] + 1, values[cand])))
    model_cdf = 1.0 - z[:len(at)] / np.repeat(z[len(at):], length)
    return np.maximum.reduceat(np.abs(emp_cdf - model_cdf), offset).tolist()


def fit_power_law(degrees) -> FitResult:
    """Fit a discrete power law, choosing x_min by KS-distance minimization
    over the sorted unique observed values (ties broken by smaller x_min).
    The data are sorted once: the candidates' golden-section searches run
    together, and their KS distances read the distinct values and where
    each starts."""
    data = np.sort(np.asarray(degrees, dtype=np.int64))
    if data.size == 0 or data[0] < 1:
        raise FitError("need positive integer observations")
    starts = np.flatnonzero(np.diff(data, prepend=0))  # each value's first
    values = data[starts]
    if values.size < 10:
        raise FitError("need at least 10 distinct observations")

    if data.size >= 500:
        min_tail = max(MIN_TAIL_LARGE, data.size // MIN_TAIL_FRACTION)
    else:
        min_tail = MIN_TAIL
    logs = np.log(data.astype(float))
    log_suffix = np.concatenate([np.cumsum(logs[::-1])[::-1], [0.0]])

    # a candidate leaves min_tail observations of two distinct values; the
    # smallest value, whose tail is all the data, always qualifies
    cand = np.flatnonzero(data.size - starts[:-1] >= min_tail)
    x_min, tail = values[cand], data.size - starts[cand]
    alpha = _mle_alpha(x_min, tail, log_suffix[starts[cand]])
    ks = _ks_distances(values, starts, data.size, cand, alpha)
    best = min(range(cand.size), key=ks.__getitem__)  # the first smallest
    return FitResult(alpha=float(alpha[best]), x_min=int(x_min[best]),
                     ks_distance=ks[best], tail_count=int(tail[best]))


@functools.lru_cache(maxsize=1)
def _power_law_cdf(alpha: float, x_min: int) -> tuple[int, np.ndarray]:
    """(table_max, CDF of the law over x_min..table_max), read-only: the
    sampler's table, built once per law."""
    table_max = max(x_min + 1, 100_000)
    ks = np.arange(x_min, table_max + 1, dtype=float)
    cdf = np.cumsum(ks ** (-alpha) / zeta(alpha, x_min))
    cdf.flags.writeable = False
    return table_max, cdf


def sample_discrete_power_law(alpha: float, x_min: int, size: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling of the zeta-normalized discrete power law."""
    table_max, cdf = _power_law_cdf(alpha, x_min)
    u = rng.random(size)
    out = x_min + np.searchsorted(cdf, u, side="left")
    overflow = out > table_max
    if overflow.any():
        # Far tail: continuous inverse with the usual half-integer shift.
        uu = u[overflow]
        out[overflow] = np.floor(
            (x_min - 0.5) * (1.0 - uu) ** (-1.0 / (alpha - 1.0)) + 0.5
        ).astype(np.int64)
    return out


def goodness_of_fit(degrees, fit: FitResult, synthetic_runs: int = 1000,
                    seed: int = 0) -> GofResult:
    """Semi-parametric bootstrap p-value: the fraction of synthetic data
    sets (body resampled empirically, tail drawn from the fitted law, then
    refitted) whose KS distance is at least the empirical one."""
    if synthetic_runs < 1:
        raise ValueError("goodness of fit needs synthetic_runs >= 1")
    data = np.sort(np.asarray(degrees, dtype=np.int64))
    body = data[data < fit.x_min]
    n = data.size
    p_tail = (n - body.size) / n

    rng = np.random.default_rng(seed)
    at_least = 0
    for _ in range(synthetic_runs):
        # an empty body has p_tail = 1; draws of size 0 leave rng as it is
        n_tail = int(rng.binomial(n, p_tail))
        synthetic = np.concatenate((
            rng.choice(body, size=n - n_tail, replace=True),
            sample_discrete_power_law(fit.alpha, fit.x_min, n_tail, rng)))
        try:
            ks = fit_power_law(synthetic).ks_distance
        except FitError:
            ks = math.inf
        at_least += ks >= fit.ks_distance

    p_value = at_least / synthetic_runs
    warning = None
    if synthetic_runs < 100:
        warning = "fewer than 100 synthetic runs: p-value resolution is coarse"
    return GofResult(p_value=p_value, synthetic_runs=synthetic_runs,
                     reject=p_value <= REJECT_THRESHOLD, warning=warning)


def ccdf_table(degrees, fit: FitResult | None = None):
    """Rows (k, empirical P(K >= k), fitted P(K >= k) or None) for log-log
    plotting of the degree distribution."""
    data = np.asarray(degrees, dtype=np.int64)
    values, counts = np.unique(data, return_counts=True)
    ccdf = 1.0 - np.concatenate([[0.0], np.cumsum(counts)[:-1]]) / data.size
    fitted = [None] * values.size
    if fit is not None:
        tail = int(np.searchsorted(values, fit.x_min))
        tail_frac = (data >= fit.x_min).mean()
        fitted[tail:] = (tail_frac * zeta(fit.alpha, values[tail:])
                         / zeta(fit.alpha, fit.x_min)).tolist()
    return list(zip(values.tolist(), ccdf.tolist(), fitted))
