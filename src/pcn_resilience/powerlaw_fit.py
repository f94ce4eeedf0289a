"""Discrete power-law fitting for degree distributions.

Maximum-likelihood estimation with zeta-function normalization, lower
cutoff selected by minimizing the Kolmogorov-Smirnov distance, and a
semi-parametric bootstrap goodness-of-fit test: the scale-free hypothesis
is rejected when p <= 0.1.
"""

from __future__ import annotations

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


def _tail_loglikelihood(alpha: float, x_min: int, n: int, log_sum: float) -> float:
    return -n * math.log(zeta(alpha, x_min)) - alpha * log_sum


def _mle_alpha(x_min: int, n: int, log_sum: float) -> float:
    """Golden-section maximization of the discrete log-likelihood over
    alpha in (1, 6]."""
    invphi = (math.sqrt(5) - 1) / 2
    a, b = ALPHA_MIN, ALPHA_MAX
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _tail_loglikelihood(c, x_min, n, log_sum)
    fd = _tail_loglikelihood(d, x_min, n, log_sum)
    while b - a > ALPHA_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _tail_loglikelihood(c, x_min, n, log_sum)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _tail_loglikelihood(d, x_min, n, log_sum)
    return (a + b) / 2


def _ks_distance(tail: np.ndarray, alpha: float, x_min: int) -> float:
    """Max |empirical - model| CDF gap over the observed tail values."""
    values, counts = np.unique(tail, return_counts=True)
    emp_cdf = np.cumsum(counts) / tail.size
    z0 = zeta(alpha, x_min)
    model_cdf = 1.0 - zeta(alpha, values + 1) / z0
    return float(np.max(np.abs(emp_cdf - model_cdf)))


def fit_power_law(degrees) -> FitResult:
    """Fit a discrete power law, choosing x_min by KS-distance minimization
    over the sorted unique observed values (ties broken by smaller x_min)."""
    data = np.asarray(sorted(degrees), dtype=np.int64)
    if data.size == 0 or data.min() < 1:
        raise FitError("need positive integer observations")
    if np.unique(data).size < 10:
        raise FitError("need at least 10 distinct observations")

    if data.size >= 500:
        min_tail = max(MIN_TAIL_LARGE, data.size // MIN_TAIL_FRACTION)
    else:
        min_tail = MIN_TAIL
    logs = np.log(data.astype(float))
    log_suffix = np.concatenate([np.cumsum(logs[::-1])[::-1], [0.0]])

    best = None
    for x_min in np.unique(data):
        lo = int(np.searchsorted(data, x_min, side="left"))
        tail = data[lo:]
        if tail.size < min_tail or np.unique(tail).size < 2:
            continue
        alpha = _mle_alpha(int(x_min), tail.size, float(log_suffix[lo]))
        ks = _ks_distance(tail, alpha, int(x_min))
        if best is None or ks < best.ks_distance:
            best = FitResult(alpha=alpha, x_min=int(x_min),
                             ks_distance=ks, tail_count=int(tail.size))
    if best is None:
        raise FitError("no x_min candidate leaves a usable tail")
    return best


def sample_discrete_power_law(alpha: float, x_min: int, size: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling of the zeta-normalized discrete power law."""
    table_max = max(x_min + 1, 100_000)
    ks = np.arange(x_min, table_max + 1, dtype=float)
    pmf = ks ** (-alpha) / zeta(alpha, x_min)
    cdf = np.cumsum(pmf)
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
    data = np.asarray(sorted(degrees), dtype=np.int64)
    body = data[data < fit.x_min]
    n = data.size
    p_tail = (n - body.size) / n

    rng = np.random.default_rng(seed)
    at_least = 0
    for _ in range(synthetic_runs):
        n_tail = int(rng.binomial(n, p_tail))
        parts = []
        if n - n_tail > 0 and body.size > 0:
            parts.append(rng.choice(body, size=n - n_tail, replace=True))
        elif n - n_tail > 0:
            n_tail = n
        if n_tail > 0:
            parts.append(sample_discrete_power_law(fit.alpha, fit.x_min, n_tail, rng))
        synthetic = np.concatenate(parts)
        try:
            synth_fit = fit_power_law(synthetic)
            ks = synth_fit.ks_distance
        except FitError:
            ks = math.inf
        if ks >= fit.ks_distance:
            at_least += 1

    p_value = at_least / synthetic_runs
    warning = None
    if synthetic_runs < 100:
        warning = "fewer than 100 synthetic runs: p-value resolution is coarse"
    return GofResult(p_value=p_value, synthetic_runs=synthetic_runs,
                     reject=p_value <= REJECT_THRESHOLD, warning=warning)


def ccdf_table(degrees, fit: FitResult | None = None):
    """Rows (k, empirical P(K >= k), fitted P(K >= k) or None) for log-log
    plotting of the degree distribution."""
    data = np.asarray(sorted(degrees), dtype=np.int64)
    values, counts = np.unique(data, return_counts=True)
    ccdf = 1.0 - np.concatenate([[0.0], np.cumsum(counts)[:-1]]) / data.size
    rows = []
    z0 = zeta(fit.alpha, fit.x_min) if fit is not None else None
    tail_frac = (data >= fit.x_min).mean() if fit is not None else None
    for k, emp in zip(values, ccdf):
        fitted = None
        if fit is not None and k >= fit.x_min:
            fitted = float(tail_frac * zeta(fit.alpha, int(k)) / z0)
        rows.append((int(k), float(emp), fitted))
    return rows
