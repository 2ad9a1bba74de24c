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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Prior, check_epsilon
from .errors import NoFeasiblePointError
from .mechanisms import opt_mimo_lip

_BAND_TOL = 1e-9
# cells of the (starts, m, m) gain tensor one lockstep ascent may stack.
# Stacking pays at small m (7 starts at m = 51: about 2.7x faster than one
# at a time) and not at large m (at m = 201 seven starts took 9 s for 3
# sweeps, one at a time 7 s, on a 2-core Xeon)
_LOCKSTEP_CELLS = 1 << 16
_RANDOM_STARTS = 4  # seeded Dirichlet starts besides the fixed ones
_MAX_SWEEPS = 40
_FRACTIONS = (1.0, 0.5, 0.25)  # shares of a source column's mass a move may carry, in (0, 1]


@dataclass(frozen=True, eq=False)
class CipInstance:
    n_users: int
    p1: float
    eps: float
    s_prior: np.ndarray = field(init=False)

    def __init__(self, n_users: int, p1: float, eps: float):
        if not 1 <= n_users <= 200:
            raise ValueError("desk-scale search supports 1 <= N <= 200")
        if not 0.0 <= p1 <= 1.0:
            raise ValueError("p1 must lie in [0, 1]")
        object.__setattr__(self, "n_users", int(n_users))
        object.__setattr__(self, "p1", float(p1))
        object.__setattr__(self, "eps", check_epsilon(eps))
        from scipy.stats import binom  # loaded on first use: only cip code needs scipy.stats
        try:
            prior = binom.pmf(np.arange(n_users + 1), n_users, p1)
        except OverflowError:  # scipy's pmf overflows for p1 within ~100x of DBL_MIN
            prior = np.exp(binom.logpmf(np.arange(n_users + 1), n_users, p1))
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
    blend toward the constant mechanism, and the sweeps each start ran."""
    mechanism: np.ndarray
    mse: float
    estimator_variance: float
    starts: int = 0
    starts_blended: int = 0
    sweeps: tuple = ()


def _column_stats(Q, prior, svals):
    w = prior @ Q
    t = (prior * svals) @ Q
    return w, t


def _objective(w, t):
    mask = w > 0.0
    return float(np.sum(t[mask] ** 2 / w[mask]))


def _term(w, t):
    """Per-column contribution t^2 / w to E[E[S|Y]^2]; 0 on empty columns."""
    return np.divide(t * t, w, out=np.zeros_like(w), where=w > 0.0)


def _band_ok(w, t, lower, upper, tol):
    mask = w > 0.0
    if not mask.any():
        return True
    means = t[mask] / w[mask]
    return bool(np.all(means >= lower - tol) and np.all(means <= upper + tol))


def posterior_means_in_band(Q, instance: CipInstance) -> bool:
    """Whether Q is a mechanism, to within _BAND_TOL, whose every reachable
    output has its posterior mean in the band."""
    Q = np.asarray(Q, dtype=float)
    if not (np.all(Q >= -_BAND_TOL) and np.all(np.abs(Q.sum(axis=1) - 1.0) <= _BAND_TOL)):
        return False
    band = cip_band(instance)
    svals = np.arange(instance.n_users + 1, dtype=float)
    w, t = _column_stats(Q, instance.s_prior, svals)
    return _band_ok(w, t, band.lower, band.upper, _BAND_TOL * max(1.0, instance.n_users))


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
    band = cip_band(instance)
    prior = instance.s_prior
    svals = np.arange(instance.n_users + 1, dtype=float)
    tol = _BAND_TOL * max(1.0, instance.n_users)
    rng = np.random.Generator(np.random.Philox(seed))

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
            w, t = _column_stats(cand, prior, svals)
            if _band_ok(w, t, band.lower, band.upper, tol):
                feasible.append(cand)
                blended += blend > 0.0
                break
    if not feasible:
        raise NoFeasiblePointError("no band-feasible start (cannot happen)")
    return feasible, blended


def _ascend(Q, prior, svals, lower, upper, tol, max_sweeps=_MAX_SWEEPS):
    """Greedy mass-exchange ascent on Var(E[S|Y]) under the band constraint,
    run in lockstep over a stack of starts Q (S, N+1, m).

    Each (row s, fraction) step moves, in every start at once, the mass
    fraction of one source column of row s to the destination column with
    the largest gain in E[E[S|Y]^2] (the first in row-major order on ties)
    whose source and destination posterior means stay in the band.  A start
    leaves the active set after a sweep with no move.  Every start follows
    exactly the trajectory it would follow alone: the fractions stay
    sequential, and the column sums w = prior @ Q and t = (prior s) @ Q of a
    moved start are recomputed, not updated.  Returns the final stack, and
    the objective and the number of sweeps run per start.
    """
    Q = Q.copy()
    n_starts, _, m = Q.shape
    pt = prior * svals
    w, t = prior @ Q, pt @ Q
    tw = _term(w, t)
    improve_tol = 1e-12 * np.maximum(1.0, [_objective(*wt) for wt in zip(w, t)])
    lo, hi = lower - tol, upper + tol
    diag = np.eye(m, dtype=bool)
    sweeps = np.zeros(n_starts, dtype=int)
    active = np.arange(n_starts)

    for _ in range(max_sweeps):
        sweeps[active] += 1
        moved = np.zeros(n_starts, dtype=bool)
        a = active.size
        for s in np.flatnonzero(prior > 0.0):
            for frac in _FRACTIONS:
                delta = frac * Q[active, s]  # mass leaving each source column
                dm = prior[s] * delta
                w_a, t_a, tw_a = w[active], t[active], tw[active]
                w_minus = w_a - dm
                t_minus = t_a - dm * svals[s]
                w_plus = w_a[:, None, :] + dm[:, :, None]
                t_plus = t_a[:, None, :] + (dm * svals[s])[:, :, None]
                # t^2 / w needs no guard: Q, and so w, stay nonnegative
                # (fractions <= 1), w_plus > 0 wherever dm > 0, and the rows
                # with dm = 0 are masked below
                with np.errstate(invalid="ignore", divide="ignore"):
                    gain = (_term(w_minus, t_minus)[:, :, None] + t_plus * t_plus / w_plus
                            - tw_a[:, :, None] - tw_a[:, None, :])
                # masked: sources with no mass or whose mean would leave the
                # band, a column onto itself, destinations leaving the band
                src_off = (dm <= 0.0) | ((w_minus > 0.0) & (
                    (t_minus < lo * w_minus) | (t_minus > hi * w_minus)))
                off = (src_off[:, :, None] | diag
                       | (t_plus < lo * w_plus) | (t_plus > hi * w_plus))
                np.putmask(gain, off, -np.inf)
                gain = gain.reshape(a, m * m)
                best = gain.argmax(axis=1)
                go = gain[np.arange(a), best] > improve_tol[active]
                if not go.any():
                    continue
                ids = active[go]
                j, k = np.divmod(best[go], m)
                mass = delta[go, j]
                Q[ids, s, j] -= mass
                Q[ids, s, k] += mass
                w[ids], t[ids] = prior @ Q[ids], pt @ Q[ids]
                tw[ids] = _term(w[ids], t[ids])
                moved[ids] = True
        active = active[moved[active]]
        if active.size == 0:
            break
    return Q, [_objective(*wt) for wt in zip(w, t)], sweeps.tolist()


def cip_search(instance: CipInstance, output_size: int = 2, seed: int = 0) -> CipSearchResult:
    """Best mechanism found by multi-start coordinate ascent.

    ``output_size`` may be anything from 2 to N+1; passing N+1 puts the
    always-feasible context-aware seed in the start set.  Infeasible
    starts are blended toward the constant mechanism until feasible; the
    constant mechanism itself is always a valid start, so the search
    cannot come up empty.
    """
    if not 2 <= output_size <= instance.n_users + 1:
        raise ValueError("output_size must lie in {2, ..., N+1}")
    band = cip_band(instance)
    svals = np.arange(instance.n_users + 1, dtype=float)
    tol = _BAND_TOL * max(1.0, instance.n_users)
    starts, blended = _feasible_starts(instance, output_size, seed)
    group = max(1, _LOCKSTEP_CELLS // output_size ** 2)
    Q, values, sweeps = [], [], []
    for i in range(0, len(starts), group):
        q, v, n = _ascend(np.stack(starts[i:i + group]), instance.s_prior, svals,
                          band.lower, band.upper, tol)
        Q.extend(q)
        values += v
        sweeps += n
    best = int(np.argmax(values))  # the first best start, as a serial scan keeps

    var_est = max(0.0, values[best] - instance.mean ** 2)
    return CipSearchResult(mechanism=Q[best].copy(),
                           mse=max(0.0, instance.variance - var_est),
                           estimator_variance=var_est,
                           starts=len(starts), starts_blended=blended,
                           sweeps=tuple(sweeps))
