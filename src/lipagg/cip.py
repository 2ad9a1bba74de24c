"""Trusted-curator baseline for the binary global-prior setting.

The curator holds the exact count S ~ Binomial(N, p1), of mean mu = N p1,
and publishes a perturbed Y.  Bounding each record's prior-to-posterior
ratio confines the posterior mean E[S|Y] to the band [L, U], where
L = e^-eps N p1 and U = N - e^-eps N (1 - p1), so no compliant mechanism has
an MSE below Var(S) - (mu - L)(U - mu), the two-point law on L and U.

``cip_search`` returns the exact optimum.  A law M of posterior means is
reachable iff M <=_cx S (Strassen 1965; Kolotilin 2018), and the MSE is
Var(S) - Var(M), so the best M has as its call function E(M - x)^+ the
greatest convex minorant of C(x) = E(S - x)^+ on [L, U], pinned at mu - L
and 0: the tangent from (L, mu - L) to C, C itself, and the tangent from C
to (U, 0).  C bends only where S has mass, so with P(j) = E(j - S)^+ the
tangents touch at k1, the first argmin of P(j)/(j - L), and k2, the last
argmin of C(j)/(U - j), over those integers in (L, U).  If
P(k1)/(k1 - L) < (U - mu)/(U - L), every s < k1 publishes L, every s in
[k1, k2] itself and every s > k2 publishes U, and the shares of p(k1) and
p(k2) that make the pooled means exactly L and U move to the pools.
Otherwise two outputs suffice: L's cell is the lower tail of mass
(U - mu)/(U - L), mixed with a flat share so that its mean is exactly L.
At eps = 0 or p1 in {0, 1} the band holds mu alone: one output.

C and P are sums of nonnegative terms, built from the survival function,
not 1 - cdf, since binomial tails reach 1e-30; the MSE is summed as
E(S - M)^2, since Var(S) - Var(M) cancels: at N=50, p1=0.5, eps=2 the MSE
is 2.0e-11 against Var(S) = 12.5.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Prior, check_epsilon, check_real, check_whole
from .mechanisms import opt_mimo_lip

_BAND_TOL = 1e-9


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """P(S = k) for k = 0..n, S ~ Binomial(n, p): scipy.stats.binom.pmf,
    bit for bit, from scipy.special alone (on scipy 1.17, 66 modules against
    scipy.stats's 490, and about 46 MiB less).  binom.pmf is scipy.special's
    private pmf ufunc clipped to [0, 1]; the clip matters, since at n = 1,
    p = 1e-300 the ufunc returns 1.0000000000000318.  An older scipy without
    that private ufunc in scipy.special gets the distribution itself."""
    from scipy import special  # loaded on first use, off lipagg's import path
    k = np.arange(n + 1)
    try:
        pmf = special._ufuncs._binom_pmf
    except AttributeError:
        from scipy.stats import binom
        pmf = binom.pmf
    try:
        return np.clip(pmf(k, n, p), 0, 1)
    except OverflowError:  # the pmf overflows for p within ~100x of DBL_MIN
        # binom.logpmf's formula, term for term
        return np.exp(special.gammaln(n + 1) - (special.gammaln(k + 1) + special.gammaln(n - k + 1))
                      + special.xlogy(k, p) + special.xlog1py(n - k, -p))


@dataclass(frozen=True, eq=False)
class CipInstance:
    n_users: int
    p1: float
    eps: float
    s_prior: np.ndarray = field(init=False)

    def __init__(self, n_users: int, p1: float, eps: float):
        check_whole("N", n_users, 1)
        if n_users > 200:
            raise ValueError("CIP instances support 1 <= N <= 200: the mechanism is dense")
        if not 0.0 <= check_real("p1", p1) <= 1.0:
            raise ValueError(f"p1 must lie in [0, 1], got {p1!r}")
        object.__setattr__(self, "n_users", int(n_users))
        object.__setattr__(self, "p1", float(p1))
        object.__setattr__(self, "eps", check_epsilon(eps))
        prior = _binomial_pmf(self.n_users, self.p1)
        prior.setflags(write=False)
        object.__setattr__(self, "s_prior", prior)

    @property
    def mean(self) -> float:
        return self.n_users * self.p1

    @property
    def variance(self) -> float:
        return self.n_users * self.p1 * (1.0 - self.p1)


@dataclass(frozen=True)
class EstimatorBand:
    lower: float
    upper: float


def cip_band(instance: CipInstance) -> EstimatorBand:
    """Admissible range for the posterior mean; collapses to N*p1 at eps = 0."""
    n, p1 = instance.n_users, instance.p1
    shrink = math.exp(-instance.eps)
    return EstimatorBand(lower=shrink * n * p1,
                         upper=n - shrink * n * (1.0 - p1))


def cip_mse_lower_bound(instance: CipInstance) -> float:
    """Certified lower bound on the MSE of any band-compliant mechanism."""
    band = cip_band(instance)
    mu = instance.mean
    cap = (mu - band.lower) * (band.upper - mu)
    return max(0.0, instance.variance - cap)


@dataclass(frozen=True, eq=False)
class CipSearchResult:
    """The optimal mechanism, its MSE, the variance of its posterior mean and
    ``atoms``, the outputs in use: its first columns, one of which may round to zero."""
    mechanism: np.ndarray
    mse: float
    estimator_variance: float
    atoms: int | None = None  # None for a result built by hand, as perfbench/selftest.py does


def posterior_means_in_band(Q, instance: CipInstance) -> bool:
    """Whether Q is a mechanism, to within _BAND_TOL, whose every reachable
    output has its posterior mean in the band."""
    Q = np.asarray(Q, dtype=float)
    if not (np.all(Q >= -_BAND_TOL) and np.all(np.abs(Q.sum(axis=1) - 1.0) <= _BAND_TOL)):
        return False
    band = cip_band(instance)
    tol = _BAND_TOL * max(1.0, instance.n_users)
    prior = instance.s_prior
    w = prior @ Q
    t = (prior * np.arange(instance.n_users + 1, dtype=float)) @ Q
    mask = w > 0.0
    means = t[mask] / w[mask]
    return bool(np.all(means >= band.lower - tol) and np.all(means <= band.upper + tol))


def lip_seed_mechanism(instance: CipInstance) -> np.ndarray:
    """The d-ary context-aware optimum applied to S itself (band-feasible)."""
    return opt_mimo_lip(Prior(instance.s_prior), instance.eps).matrix


def _optimum(instance: CipInstance, width: int):
    """The optimal mechanism at ``width`` columns, its outputs first, and
    the posterior mean each output publishes (see the module docstring)."""
    n, prior, mu = instance.n_users, instance.s_prior, instance.mean
    band = cip_band(instance)
    lo, hi = band.lower, band.upper
    def columns(atoms):  # checked before anything is allocated
        if width < atoms:
            raise ValueError(f"the optimum uses {atoms} outputs, more than output_size={width}")
        return np.zeros((n + 1, width))
    if not lo < mu < hi:
        q = columns(1)
        q[:, 0] = 1.0
        return q, np.array([mu])
    svals = np.arange(n + 1, dtype=float)
    below = np.concatenate(([0.0], np.cumsum(prior[:-1])))  # P(S < s)
    sf = np.concatenate((np.cumsum(prior[:0:-1])[::-1], [0.0]))  # P(S > s)
    put = np.cumsum(below)  # P(j) = sum of cdf below j
    call = np.cumsum(sf[::-1])[::-1]  # C(j) = sum of sf from j on
    kinks = np.flatnonzero((svals > lo) & (svals < hi) & (prior > 0.0))
    to_lo = put[kinks] / (kinks - lo)
    if kinks.size and to_lo.min() < (hi - mu) / (hi - lo):
        k1 = kinks[np.argmin(to_lo)]
        right = kinks[kinks >= k1]
        to_hi = call[right] / (hi - right)
        k2 = right[right.size - 1 - np.argmin(to_hi[::-1])]
        top = k2 - k1 + 2  # U's column, after L's and one per count in [k1, k2]
        q = columns(top + 1)
        q[:k1, 0] = 1.0
        q[np.arange(k1, k2 + 1), np.arange(1, top)] = 1.0
        q[k2 + 1:, top] = 1.0
        down = min(max((put[k1] / (k1 - lo) - below[k1]) / prior[k1], 0.0), 1.0)
        q[k1, 0], q[k1, 1] = down, q[k1, 1] - down
        up = min(max((call[k2] / (hi - k2) - sf[k2]) / prior[k2], 0.0), q[k2, top - 1])
        q[k2, top], q[k2, top - 1] = up, q[k2, top - 1] - up
        return q, np.concatenate(([lo], np.arange(k1, k2 + 1.0), [hi]))
    q = columns(2)
    mass = (hi - mu) / (hi - lo)
    # clipped to [0, prior], the quotient stays in [0, 1] even for a subnormal prior
    tail = np.divide(np.clip(mass - below, 0.0, prior), prior, out=np.zeros(n + 1),
                     where=prior > 0.0)
    mean_all = prior @ svals
    tail_mean = (prior * svals) @ tail / (prior @ tail)
    keep = min(max((mean_all - lo) / (mean_all - tail_mean), 0.0), 1.0)
    q[:, 0] = keep * tail + (1.0 - keep) * mass
    q[:, 1] = 1.0 - q[:, 0]
    return q, np.array([lo, hi])


def cip_search(instance: CipInstance, output_size: int | None = None,
               seed: int = 0) -> CipSearchResult:
    """The band-compliant mechanism of least MSE, with ``output_size``
    columns (None, the default, means N+1): the outputs the optimum uses,
    in increasing order of their posterior means, then zero columns; an
    ``output_size`` below the outputs in use raises ``ValueError``.
    ``seed``, an integer of at least 0, changes nothing; it stays only for
    the benchmark's call until ROADMAP item 1 re-targets the benchmark."""
    output_size = instance.n_users + 1 if output_size is None else output_size
    check_whole("output_size", output_size, 1)
    check_whole("seed", seed, 0)
    if output_size > instance.n_users + 1:
        raise ValueError("output_size must lie in {1, ..., N+1}")
    q, values = _optimum(instance, output_size)
    used = np.ascontiguousarray(q[:, :values.size])  # a strided view's product varies with width
    prior, svals = instance.s_prior, np.arange(instance.n_users + 1, dtype=float)
    return CipSearchResult(mechanism=q,
                           mse=float(prior @ (used * (svals[:, None] - values) ** 2).sum(axis=1)),
                           estimator_variance=float((prior @ used) @ (values - instance.mean) ** 2),
                           atoms=values.size)
