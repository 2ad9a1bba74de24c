"""Trusted-curator baseline for the binary global-prior setting.

The curator holds the exact count S ~ Binomial(N, p1) and publishes a
perturbed Y.  Bounding each record's prior-to-posterior ratio constrains
the posterior mean E[S|Y] to the band

    e^-eps * N * p1  <=  E[S|Y]  <=  N - e^-eps * N * (1 - p1),

so any compliant mechanism's MSE is at least
Var(S) - (N p1 - lower)(upper - N p1): a mean-N*p1 variable confined to the
band cannot have more variance than the two-point mass at its endpoints.

No closed-form optimum is known here, so alongside that certified lower
bound ``cip_search`` runs a coordinate-exchange ascent over row-stochastic
mechanisms on S, maximizing Var(E[S|Y]) subject to the band.  When the
output alphabet has N+1 symbols the d-ary context-aware optimum over S is
included as a start; it is always band-feasible and already matches the
aggregate error of the per-user binary optimum, so the search can only
improve on it.

A step of the ascent moves mass out of one source column of a row.  Adding
mass dm at value s to a column raises its t^2/w by at most dm s^2, so each
source's best gain has an exact upper bound that costs O(m) to compute.  Only
the sources whose bound can clear the move threshold get a row of gains over
every destination; the others cannot win, so the moves are the ones a scan
of every (source, destination) pair would pick, bit for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Prior, check_epsilon, check_real, check_whole
from .errors import NoFeasiblePointError
from .mechanisms import _coerce_rng, opt_mimo_lip

_BAND_TOL = 1e-9
# Rounding allowance on a source's gain bound, in units of max(1, E[S^2]).
# Each t^2/w term is at most E[S^2] (Cauchy-Schwarz within a column:
# (sum p q s)^2 / sum p q <= sum p q s^2).  A gain and its bound share the
# source's two terms; the rest is the exact destination inequality
# (t + dm s)^2 / (w + dm) <= t^2/w + dm s^2, whose sides are computed from
# sums of nonnegative numbers, then a few additions: a few dozen roundings
# of 2^-53 relative to E[S^2] at most, well below 2^-44.  The worst excess
# over the bound in tests/test_cip.py's 60 instances (N to 40, p1 from 0 to
# 1, eps 0 to 5) is 1.0e-16 max(1, E[S^2]).
_GAIN_SLACK = 2.0 ** -44
_RANDOM_STARTS = 4  # seeded Dirichlet starts besides the fixed ones
_MAX_SWEEPS = 40
_FRACTIONS = (1.0, 0.5, 0.25)  # shares of a source column's mass a move may carry, in (0, 1]


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
            raise ValueError("desk-scale search supports 1 <= N <= 200")
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
    """The best mechanism found, with what the search did to find it:
    ``starts`` tried (all made band-feasible), how many of them needed a
    blend toward the constant mechanism, the sweeps each start ran, whether
    each start converged (a sweep with no move) rather than hit the sweep
    cap, and how many (start, step, source) candidates with an in-band move
    out got a block of gains (``sources_scored``) or were dropped by their
    gain bound (``sources_pruned``)."""
    mechanism: np.ndarray
    mse: float
    estimator_variance: float
    starts: int = 0
    starts_blended: int = 0
    sweeps: tuple = ()
    converged: tuple = ()
    sources_scored: int = 0
    sources_pruned: int = 0


def _objective(w, t):
    mask = w > 0.0
    return float(np.sum(t[mask] ** 2 / w[mask]))


def _term(w, t):
    """Per-column contribution t^2 / w to E[E[S|Y]^2]; 0 on empty columns."""
    return np.divide(t * t, w, out=np.zeros_like(w), where=w > 0.0)


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


def _threshold_start(prior, svals, m):
    """Deterministic quantile split of s into m contiguous output groups."""
    q = np.zeros((svals.shape[0], m))
    cum = np.cumsum(prior)
    group = np.minimum((cum * m).astype(int), m - 1)
    q[np.arange(svals.shape[0]), group] = 1.0
    return q


def _feasible_starts(instance: CipInstance, m: int, seed: int):
    """The search's starts, each blended toward the constant mechanism
    until band-feasible, and how many needed a blend."""
    prior = instance.s_prior
    svals = np.arange(instance.n_users + 1, dtype=float)
    rng = _coerce_rng(seed)

    const = np.full((svals.shape[0], m), 1.0 / m)
    starts = [const, _threshold_start(prior, svals, m)]
    if m == instance.n_users + 1:
        starts.append(lip_seed_mechanism(instance))
    for _ in range(_RANDOM_STARTS):
        starts.append(rng.dirichlet(np.ones(m), size=svals.shape[0]))

    feasible, blended = [], 0
    for Q in starts:
        for blend in (0.0, 0.25, 0.5, 0.75, 1.0):
            cand = (1.0 - blend) * Q + blend * const
            if posterior_means_in_band(cand, instance):
                feasible.append(cand)
                blended += blend > 0.0
                break
    if not feasible:
        raise NoFeasiblePointError("no band-feasible start (cannot happen)")
    return feasible, blended


def _ascend(Q, prior, svals, lower, upper, tol, max_sweeps=_MAX_SWEEPS):
    """Greedy mass-exchange ascent on Var(E[S|Y]) under the band constraint,
    run in lockstep, in place, over a stack of starts Q (S, N+1, m).

    Each (row s, fraction) step moves, in every start at once, the mass
    fraction of one source column j of row s to the destination column k
    with the largest gain in E[E[S|Y]^2] (the first in row-major order on
    ties) whose source and destination posterior means stay in the band,
    if that gain exceeds the start's improve_tol.  Adding mass dm at value s
    to a column raises its t^2/w by at most dm s^2, so every gain out of j
    is at most t_minus^2/w_minus - t_j^2/w_j + dm_j s^2 (plus _GAIN_SLACK
    for rounding).  Only the in-band sources whose bound reaches improve_tol
    get a block of gains over every destination; the others cannot win, so
    leaving them out changes no move.  A start converges after a sweep with
    no move: it keeps its place in the stack, but none of its sources is a
    candidate again.  Every start follows exactly the trajectory it would
    follow alone: the fractions stay sequential, and after a move the column
    sums w = prior @ Q and t = (prior s) @ Q are recomputed, not updated.
    Returns the final stack, the objective and the number of sweeps run per
    start, how many (start, step, source) candidates passed the band test
    and were scored or pruned, and per start whether it converged (its last
    sweep made no move) rather than stopped at max_sweeps.
    """
    n_starts, _, m = Q.shape
    # room for a block over every source of every start, cut to each step's
    # live rows: the destinations' w_plus and t_plus, the gains, the mask
    cells = n_starts * m * m
    blk, gain_buf = np.empty(2 * cells), np.empty(cells)
    off_buf = np.empty(cells, dtype=bool)
    pt = prior * svals
    # w, t and t^2/w of every column of every start; a block gathers its
    # destinations' w and t in one take
    stats = np.empty((3, n_starts, m))
    stats[0], stats[1] = prior @ Q, pt @ Q
    stats[2] = _term(stats[0], stats[1])
    improve_tol = 1e-12 * np.maximum(1.0, [_objective(w, t) for w, t in zip(stats[0], stats[1])])
    # a source whose bound lies below cut cannot reach improve_tol
    cut = improve_tol - _GAIN_SLACK * max(1.0, float(pt @ svals))
    lo, hi = lower - tol, upper + tol
    sweeps = np.zeros(n_starts, dtype=int)
    converged = np.zeros(n_starts, dtype=bool)
    scored = pruned = 0

    for _ in range(max_sweeps):
        sweeps[~converged] += 1
        moved = np.zeros(n_starts, dtype=bool)
        for s in np.flatnonzero(prior > 0.0):
            for frac in _FRACTIONS:
                delta = frac * Q[:, s]  # mass leaving each source column
                dm = prior[s] * delta
                dms = dm * svals[s]
                w, t, tw = stats
                w_minus = w - dm
                t_minus = t - dms
                tm = _term(w_minus, t_minus)
                # sources with mass whose mean stays in the band, in the
                # starts still ascending
                src_ok = ~converged[:, None] & (dm > 0.0) & ((w_minus <= 0.0) | (
                    (t_minus >= lo * w_minus) & (t_minus <= hi * w_minus)))
                live = src_ok & (tm - tw + dm * (svals[s] * svals[s]) >= cut[:, None])
                f = np.flatnonzero(live)  # (start, source) pairs in row-major order
                pruned += int(np.count_nonzero(src_ok)) - f.size
                scored += f.size
                if f.size == 0:
                    continue
                si, j = np.divmod(f, m)
                pairs, size = np.arange(f.size), f.size * m
                w_plus, t_plus = np.take(stats[:2], si, axis=1, mode="clip",
                                         out=blk[:2 * size].reshape(2, f.size, m))
                w_plus += dm.take(f)[:, None]
                t_plus += dms.take(f)[:, None]
                # masked: a column onto itself, destinations leaving the band
                gain = gain_buf[:size].reshape(f.size, m)
                off = np.less(t_plus, np.multiply(lo, w_plus, out=gain),
                              out=off_buf[:size].reshape(f.size, m))
                off |= t_plus > np.multiply(hi, w_plus, out=gain)
                off[pairs, j] = True
                # the live sources' rows of the dense (j, k) gain, by the
                # same elementwise expressions; w_plus > 0 since dm > 0
                np.multiply(t_plus, t_plus, out=gain)
                gain /= w_plus
                gain += tm.take(f)[:, None]
                gain -= tw.take(f)[:, None]
                gain -= np.take(tw, si, axis=0, mode="clip", out=t_plus)  # t_k^2 / w_k
                np.putmask(gain, off, -np.inf)
                to = gain.argmax(axis=1)
                best = np.full(n_starts * m, -np.inf)
                best[f] = gain[pairs, to]
                best = best.reshape(n_starts, m)
                j_best = best.argmax(axis=1)
                go = best[np.arange(n_starts), j_best] > improve_tol
                if not go.any():
                    continue
                ids = np.flatnonzero(go)
                jj = j_best[ids]
                kk = to[np.searchsorted(f, ids * m + jj)]
                mass = delta[ids, jj]
                Q[ids, s, jj] -= mass
                Q[ids, s, kk] += mass
                # an unmoved start's sums come out as they were
                stats[0], stats[1] = prior @ Q, pt @ Q
                stats[2] = _term(stats[0], stats[1])
                moved |= go
        converged |= ~moved
        if converged.all():
            break
    values = [_objective(w, t) for w, t in zip(stats[0], stats[1])]
    return Q, values, sweeps.tolist(), scored, pruned, converged.tolist()


def cip_search(instance: CipInstance, output_size: int | None = None,
               seed: int = 0) -> CipSearchResult:
    """Best mechanism found by multi-start coordinate ascent.

    ``output_size`` may be anything from 2 to N+1, and None (the default)
    means N+1, the only size whose starts include the always-feasible
    context-aware seed.  ``seed`` is an integer of at least 0 that names
    the random starts.  Infeasible starts are blended toward the constant
    mechanism until feasible; the constant mechanism itself is always a
    valid start, so the search cannot come up empty.
    """
    output_size = instance.n_users + 1 if output_size is None else output_size
    check_whole("output_size", output_size, 2)
    if output_size > instance.n_users + 1:
        raise ValueError("output_size must lie in {2, ..., N+1}")
    band = cip_band(instance)
    starts, blended = _feasible_starts(instance, output_size, seed)
    starts, values, sweeps, scored, pruned, converged = _ascend(
        np.stack(starts), instance.s_prior, np.arange(instance.n_users + 1, dtype=float),
        band.lower, band.upper, _BAND_TOL * max(1.0, instance.n_users))
    best = int(np.argmax(values))  # the first best start, as a serial scan keeps

    var_est = max(0.0, values[best] - instance.mean ** 2)
    return CipSearchResult(mechanism=starts[best].copy(),
                           mse=max(0.0, instance.variance - var_est),
                           estimator_variance=var_est,
                           starts=len(starts), starts_blended=blended,
                           sweeps=tuple(sweeps), converged=tuple(converged),
                           sources_scored=scored,
                           sources_pruned=pruned)
