"""Posterior-mean estimation per user and aggregate estimators for the four
tasks, plus the two prior-unaware baselines.

The aggregate posterior-mean estimator decomposes across independent users:
every task is a linear form offset + sum_i w_i g(X_i) (``core.task_form``),
so its estimate is offset + sum_i w_i E[g(X_i) | Y_i].

Estimates are deliberately not clipped to feasible ranges; the error
formulas elsewhere in the package assume the raw estimators.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    AggregationTask,
    Channel,
    Population,
    Prior,
    flip_probability,
    posterior_ratio,
    task_form,
)
from .errors import (
    DimensionMismatchError,
    UnreachableOutputError,
    ZeroEpsilonError,
)


@dataclass(frozen=True, eq=False)
class PerUserPosterior:
    """Posterior over the input domain after observing one output, and the
    posterior mean for numeric tasks."""

    posterior: np.ndarray
    point_estimate: float


@dataclass(frozen=True, eq=False)
class AggregateEstimate:
    """Scalar estimate for survey/summation/weighted-sum, or a length-d
    vector for histogram."""

    value: float | np.ndarray


def posterior(q: Channel, p: Prior, y: float) -> PerUserPosterior:
    """Bayes posterior Pr(X = a_m | Y = y) = p[m] q[m][y] / lambda[y]."""
    k = q.output_domain.index_of(y)
    if k < 0:
        raise UnreachableOutputError(f"output {y} not in the output domain")
    lam, _, post = posterior_ratio(q.matrix[:, [k]], p.p)
    if lam[0] <= 0.0:
        raise UnreachableOutputError(
            f"output {y} has zero probability under this channel and prior")
    post = post[:, 0]
    return PerUserPosterior(post, float(np.dot(q.input_domain.values, post)))


def estimate(task: AggregationTask, population: Population,
             channels, observations) -> AggregateEstimate:
    """Aggregate posterior-mean estimate from one observation per user.

    ``channels`` is either one channel per user or a single channel shared
    by all users.  Observations are domain values.  An observation with
    zero probability under its user's channel and prior raises
    ``UnreachableOutputError`` naming the user: it signals a
    channel/observation mismatch upstream rather than data to be ignored.
    """
    form = task_form(task, population)
    n, d = population.n_users, population.domain.size
    if not isinstance(channels, Channel) and len(channels) != n:
        raise DimensionMismatchError("one channel per user required")
    observations = np.asarray(observations, dtype=float)
    if observations.shape != (n,):
        raise DimensionMismatchError("one observation per user required")

    # each user's observed channel column, up to the first channel that
    # does not fit the domain
    if isinstance(channels, Channel):
        ks = channels.output_domain.indices_of(observations)
        found, cols = ks >= 0, channels.matrix.T[ks]
        checked = n if channels.d_in == d else 0
    else:
        checked = next((i for i, ch in enumerate(channels) if ch.d_in != d), n)
        ks = [ch.output_domain.index_of(y) for ch, y in zip(channels[:checked], observations)]
        found = np.array(ks, dtype=int) >= 0
        cols = [ch.matrix[:, k] for ch, k in zip(channels, ks)]
    cols = np.reshape(np.asarray(cols)[:checked], (checked, d, 1))
    lam, _, posts = posterior_ratio(cols, population.priors[:checked])
    lost = np.nonzero(~found[:checked] | (lam[:, 0] <= 0.0))[0]
    if lost.size:
        i = int(lost[0])
        raise UnreachableOutputError(
            f"user {population.user_ids[i]}: output {observations[i]} has zero "
            "probability under its channel and prior")
    if checked < n:
        raise DimensionMismatchError(
            f"channel for user {checked} does not match the population domain")
    return AggregateEstimate(form.total(posts[:, :, 0] @ form.g))


def context_free_estimate(observations, eps: float) -> float | np.ndarray:
    """Prior-unaware count estimator for symmetric randomized response.

    With flip probability p = 1/(e^eps + 1), returns
    (sum Y_i - N p) / (1 - 2p) over the last axis; unbiased for sum X_i
    and deliberately not clipped to [0, N].  One row of observations gives
    a float, a stack of rows (one per trial) an array.  Integer
    observations (the harness's output indices) are checked and counted as
    integers, without a float copy: the count equals the float sum exactly.
    """
    if eps <= 0.0:
        raise ZeroEpsilonError("denominator 1 - 2p vanishes at eps = 0")
    obs = np.asarray(observations)
    if obs.dtype.kind in "biu":
        binary = obs.size == 0 or (obs.min() >= 0 and obs.max() <= 1)
    else:
        obs = obs.astype(float, copy=False)
        binary = np.all((obs == 0.0) | (obs == 1.0))
    if not binary:
        raise ValueError("observations must be binary")
    flip = flip_probability(eps)
    n = obs.shape[-1]
    est = (obs.sum(axis=-1) - n * flip) / (1.0 - 2.0 * flip)
    return float(est) if obs.ndim == 1 else est


def oue_count_estimate(counts, n: int, eps: float) -> np.ndarray:
    """Unbiased per-bucket counts from the per-bucket totals of n
    unary-encoded perturbed reports, shape (..., d):

    bucket k -> (#reports with bit k set - n/(e^eps+1)) / (1/2 - 1/(e^eps+1))
    """
    if eps <= 0.0:
        raise ZeroEpsilonError("unary-encoding estimator needs eps > 0")
    flip = flip_probability(eps)
    return (np.asarray(counts, dtype=float) - n * flip) / (0.5 - flip)


def oue_histogram_estimate(reports, d: int, n: int, eps: float) -> np.ndarray:
    """:func:`oue_count_estimate` of the (n, d) perturbed reports' column sums."""
    r = np.asarray(reports)
    if r.ndim != 2 or r.shape != (n, d):
        raise DimensionMismatchError(f"reports must have shape ({n}, {d})")
    return oue_count_estimate(r.sum(axis=0), n, eps)
