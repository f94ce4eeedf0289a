"""Discrete power-law fitting for degree distributions.

Maximum-likelihood estimation with zeta-function normalization, lower
cutoff selected by minimizing the Kolmogorov-Smirnov distance, and a
semi-parametric bootstrap goodness-of-fit test: the scale-free hypothesis
is rejected when p <= 0.1.

The Hurwitz zeta function is a numpy port of Cephes' `zeta(x, q)`, the code
behind `scipy.special.zeta`, so every fit is `==` to one normalised by
scipy. Its powers come from libm through `math.pow`: numpy may run
`np.power` on a vector library (SVML on AVX-512) whose last bit differs from
libm's on about one input in twenty. A power computed in Python makes the
number of calls the cost, so the bootstrap fits its replicates in lockstep.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graph_model import _ranges, _seed_value

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


@dataclass(frozen=True)
class GofResult:
    p_value: float
    synthetic_runs: int
    reject: bool
    warning: str | None = None


# Cephes' zeta: above q = 1e8 an asymptotic expansion, else ten terms of
# the sum and an Euler-Maclaurin tail whose k-th term divides by (2k)!/B_2k
_FAR_Q = 1e8
_TERMS = 10
_EM_COEFFS = np.array([
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17,
    -7.1661652561756670113e18])
_MACHEP = 2.0 ** -53
# elements per chunk of `_zeta`, tail values per KS pass and bootstrap
# replicates fitted together: they bound a fit's memory, whatever the
# number of replicates. Unchunked, `_zeta` raised analyze-paper's own peak
# RSS from 50.1-50.3 to 68.5-69.0 MB.
_ZETA_CHUNK = 4096
_KS_PASS = 1 << 16
_GOF_BLOCK = 100
_INT64_CAP = np.nextafter(2.0 ** 63, 0)


def _pow(base, exponent) -> np.ndarray:
    """libm's `pow` of each pair, through `math.pow`."""
    return np.fromiter(map(math.pow, base.tolist(), exponent.tolist()),
                       dtype=float, count=base.size)


def _zeta(x, q) -> np.ndarray:
    """Hurwitz zeta(x, q) = sum over k >= 0 of (q + k)^-x, broadcast over x
    in (1, 6] and q >= 1, `==` to `scipy.special.zeta`: a port of the
    Cephes code scipy runs, with its float operations in its order. Cephes'
    direct sum stops early at a term below MACHEP of the sum; for q >= 1
    its term i is at least 10^-(x+1) of it, so that needs x > 14.9, and
    the sum always has ten terms here."""
    x, q = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(q, dtype=float))
    out = np.empty(x.shape)
    flat_x, flat_q, flat_out = x.ravel(), q.ravel(), out.reshape(-1)
    for lo in range(0, flat_out.size, _ZETA_CHUNK):
        chunk = slice(lo, lo + _ZETA_CHUNK)
        x, q, far = flat_x[chunk], flat_q[chunk], flat_q[chunk] > _FAR_Q
        flat_out[chunk][far] = ((1 / (x[far] - 1) + 1 / (2 * q[far]))
                                * _pow(q[far], 1 - x[far]))
        flat_out[chunk][~far] = _zeta_sum(x[~far], q[~far])
    return out


def _zeta_sum(x, q) -> np.ndarray:
    """Cephes' zeta for q <= 1e8. Each element needs (q + i)^-x for
    i < 10; along a run of equal x and non-decreasing q, such as a
    candidate's tail values, each power is computed once: an element's
    window starts where its predecessor's ends, or at its own q."""
    run = np.zeros(q.size, dtype=bool)
    run[1:] = (x[1:] == x[:-1]) & (q[1:] >= q[:-1])
    first = np.where(run, np.maximum(q, np.roll(q, 1) + _TERMS), q)
    count = (q + _TERMS - first).astype(np.int64)
    end = np.cumsum(count)  # one past the position of q + 9
    bases = _ranges(first, count)
    powers = _pow(bases, np.repeat(-x, count))
    terms = powers[np.arange(_TERMS)[:, None] + (end - _TERMS)]
    s = terms[0].copy()
    for term in terms[1:]:
        s += term

    # Euler-Maclaurin: per term, a *= x + k and b /= w twice, and the sum
    # of each element stops at the first term t with |t / s| < MACHEP
    b, w = terms[-1].copy(), q + (_TERMS - 1)
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, t, step = np.ones(q.size), np.empty(q.size), np.empty(q.size)
    live = np.ones(q.size, dtype=bool)
    for i, coeff in enumerate(_EM_COEFFS):
        a *= np.add(x, 2.0 * i, out=step)
        b /= w
        np.multiply(a, b, out=t)
        t /= coeff
        np.add(s, t, out=s, where=live)
        live &= np.abs(t / s) >= _MACHEP
        if not live.any():
            break
        a *= np.add(x, 2.0 * i + 1.0, out=step)
        b /= w
    return s


def _loglikelihood(alpha, x_min, n, log_sum) -> np.ndarray:
    """Discrete log-likelihood of each candidate's tail at its alpha. The
    log is `math.log` per element, which numpy's log can differ from in the
    last bit. Searches that took the same steps are at the same alpha, so
    `zeta` gets its arguments sorted, and candidates share their powers."""
    order = np.lexsort((x_min, alpha))
    z = np.empty(alpha.size)
    z[order] = _zeta(alpha[order], x_min[order])
    logs = [math.log(v) for v in z.tolist()]
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


def _ks_distances(values, upto, last, cand, below, alpha) -> np.ndarray:
    """Max |empirical - model| CDF gap of each candidate's fit over its
    tail's distinct values, `values[cand[j]:last[j]]`: `upto[v]`
    observations of the candidate's set are <= `values[v]` and `below[j]`
    are below x_min. The candidates lay x_min and their tail values + 1 end
    to end, so one `zeta` call serves them all, and a reduceat takes each
    gap."""
    length = last - cand
    offset = np.cumsum(length) - length
    at = _ranges(cand, length)
    under = np.repeat(below, length)
    emp_cdf = (upto[at] - under) / (np.repeat(upto[last - 1], length) - under)
    head = offset + np.arange(cand.size)  # where each x_min goes
    rest = _ranges(head + 1, length)
    q = np.empty(head.size + rest.size, dtype=np.int64)
    q[head], q[rest] = values[cand], values[at] + 1
    z = _zeta(np.repeat(alpha, length + 1), q)
    model_cdf = 1.0 - z[rest] / np.repeat(z[head], length)
    return np.maximum.reduceat(np.abs(emp_cdf - model_cdf), offset)


def _candidates(degrees) -> tuple[np.ndarray, ...]:
    """What a fit reads of its data: the distinct values, how many
    observations are <= each, and the x_min candidates (indices of
    values) with the observations below each and the sum of the logs of
    its tail. FitError unless the data are positive with 10 distinct
    values."""
    data = np.sort(np.asarray(degrees, dtype=np.int64))
    if data.size == 0 or data[0] < 1:
        raise FitError("need positive integer observations")
    starts = np.flatnonzero(np.diff(data, prepend=0))  # each value's first
    if starts.size < 10:
        raise FitError("need at least 10 distinct observations")
    if data.size >= 500:
        min_tail = max(MIN_TAIL_LARGE, data.size // MIN_TAIL_FRACTION)
    else:
        min_tail = MIN_TAIL
    # a candidate leaves min_tail observations of two distinct values; the
    # smallest value, whose tail is all the data, always qualifies
    cand = np.flatnonzero(data.size - starts[:-1] >= min_tail)
    log_suffix = np.cumsum(np.log(data.astype(float))[::-1])[::-1]
    return (data[starts], np.append(starts[1:], data.size), cand,
            starts[cand], log_suffix[starts[cand]])


def fit_power_law(degrees) -> FitResult:
    """Fit a discrete power law, choosing x_min by KS-distance minimization
    over the sorted unique observed values (ties broken by smaller x_min)."""
    return _fit_many([_candidates(degrees)])[0]


def _fit_many(samples) -> list[FitResult | None]:
    """`fit_power_law` of each sample's `_candidates`, and None for None.
    The candidates of all samples run one golden-section search together,
    and their KS distances take a few passes of one `zeta` call each."""
    rows, placed = [], 0
    for values, upto, cand, below, log_sum in (s for s in samples
                                               if s is not None):
        rows.append((values, upto, np.full(cand.size, placed + values.size),
                     placed + cand, below, log_sum))
        placed += values.size
    if not rows:
        return list(samples)
    values, upto, last, cand, below, log_sum = map(np.concatenate, zip(*rows))

    x_min, tail = values[cand], upto[last - 1] - below
    alpha = _mle_alpha(x_min, tail, log_sum)
    # KS passes over consecutive candidates, about _KS_PASS tail values
    # each: a pass starts at each candidate spanning a multiple of _KS_PASS
    ends = np.cumsum(last - cand)
    firsts = np.flatnonzero(np.diff((ends - 1) // _KS_PASS, prepend=-1))
    ks = np.concatenate([
        _ks_distances(values, upto, last[lo:hi], cand[lo:hi], below[lo:hi],
                      alpha[lo:hi])
        for lo, hi in zip(firsts, [*firsts[1:], cand.size])])
    bounds = np.cumsum([0] + [row[3].size for row in rows])
    best = [lo + int(np.argmin(ks[lo:hi]))  # the first smallest
            for lo, hi in zip(bounds[:-1], bounds[1:])]
    fits = iter([FitResult(alpha=float(alpha[j]), x_min=int(x_min[j]),
                           ks_distance=float(ks[j]), tail_count=int(tail[j]))
                 for j in best])
    return [None if s is None else next(fits) for s in samples]


@functools.lru_cache(maxsize=1)
def _power_law_cdf(alpha: float, x_min: int) -> tuple[int, np.ndarray]:
    """(table_max, CDF of the law over x_min..table_max), read-only: the
    sampler's table, built once per law."""
    table_max = max(x_min + 1, 100_000)
    ks = np.arange(x_min, table_max + 1, dtype=float)
    cdf = np.cumsum(ks ** (-alpha) / _zeta(alpha, x_min))
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
        # Near alpha = 1 it can pass int64, or overflow to inf: such draws
        # become the largest double below 2^63, which leaves room for the
        # fit's value + 1.
        uu = u[overflow]
        with np.errstate(over="ignore"):
            far = np.floor(
                (x_min - 0.5) * (1.0 - uu) ** (-1.0 / (alpha - 1.0)) + 0.5)
        out[overflow] = np.minimum(far, _INT64_CAP).astype(np.int64)
    return out


def goodness_of_fit(degrees, fit: FitResult, synthetic_runs: int = 1000,
                    seed: int = 0) -> GofResult:
    """Semi-parametric bootstrap p-value: the fraction of synthetic data
    sets (body resampled empirically, tail drawn from the fitted law, then
    refitted) whose KS distance is at least the empirical one."""
    if synthetic_runs < 1:
        raise ValueError(f"goodness of fit needs synthetic_runs >= 1, not {synthetic_runs}")
    data = np.sort(np.asarray(degrees, dtype=np.int64))
    body = data[data < fit.x_min]
    n = data.size
    p_tail = (n - body.size) / n

    rng = np.random.default_rng(_seed_value(seed))
    at_least = 0
    for block in range(0, synthetic_runs, _GOF_BLOCK):
        samples = []
        for _ in range(min(_GOF_BLOCK, synthetic_runs - block)):
            # an empty body has p_tail = 1; draws of size 0 leave rng as it is
            n_tail = int(rng.binomial(n, p_tail))
            synthetic = np.concatenate((
                rng.choice(body, size=n - n_tail, replace=True),
                sample_discrete_power_law(fit.alpha, fit.x_min, n_tail, rng)))
            try:
                samples.append(_candidates(synthetic))
            except FitError:
                samples.append(None)  # a KS distance of infinity
        at_least += sum(f is None or f.ks_distance >= fit.ks_distance
                        for f in _fit_many(samples))

    p_value = at_least / synthetic_runs
    warning = None
    if synthetic_runs < 100:
        warning = "fewer than 100 synthetic runs: p-value resolution is coarse"
    return GofResult(p_value=p_value, synthetic_runs=synthetic_runs,
                     reject=p_value <= REJECT_THRESHOLD, warning=warning)


def ccdf_table(degrees, fit: FitResult):
    """Rows (k, empirical P(K >= k), fitted P(K >= k), None below x_min) for
    log-log plotting of the degree distribution."""
    data = np.asarray(degrees, dtype=np.int64)
    values, counts = np.unique(data, return_counts=True)
    ccdf = 1.0 - np.concatenate([[0.0], np.cumsum(counts)[:-1]]) / data.size
    tail = int(np.searchsorted(values, fit.x_min))
    tail_frac = (data >= fit.x_min).mean()
    fitted = [None] * tail + (tail_frac * _zeta(fit.alpha, values[tail:])
                              / _zeta(fit.alpha, fit.x_min)).tolist()
    return list(zip(values.tolist(), ccdf.tolist(), fitted))
