"""Posterior-mean estimation per user and aggregate estimators for the four
tasks, plus the two prior-unaware baselines.

The aggregate posterior-mean estimator decomposes across independent users,
so every task reduces to per-user conditional expectations:

* survey of value v       -> sum_i Pr(X_i = v | Y_i)
* summation (average)     -> (1/N) sum_i E[X_i | Y_i]
* weighted sum            -> sum_i (a_i E[X_i | Y_i] + b_i)
* histogram, bucket k     -> sum_i Pr(X_i = a_k | Y_i)

Estimates are deliberately not clipped to feasible ranges; the error
formulas elsewhere in the package assume the raw estimators.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import (
    AggregationTask,
    Channel,
    Histogram,
    Population,
    Prior,
    Summation,
    Survey,
    WeightedSum,
    check_task,
    output_distribution,
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
    lam = output_distribution(q, p)
    if lam[k] <= 0.0:
        raise UnreachableOutputError(
            f"output {y} has zero probability under this channel and prior")
    post = p.p * q.matrix[:, k] / lam[k]
    point = float(np.dot(q.input_domain.values, post))
    return PerUserPosterior(posterior=post, point_estimate=point)


def estimate(task: AggregationTask, population: Population,
             channels, observations) -> AggregateEstimate:
    """Aggregate posterior-mean estimate from one observation per user.

    ``channels`` is either one channel per user or a single channel shared
    by all users.  Observations are domain values.  An observation with
    zero probability under its user's channel and prior raises
    ``UnreachableOutputError``: it signals a channel/observation mismatch
    upstream rather than data to be ignored.
    """
    check_task(task, population)
    n = population.n_users
    if isinstance(channels, Channel):
        channels = [channels] * n
    if len(channels) != n:
        raise DimensionMismatchError("one channel per user required")
    observations = np.asarray(observations, dtype=float)
    if observations.shape != (n,):
        raise DimensionMismatchError("one observation per user required")

    domain = population.domain
    posts = np.empty((n, domain.size))
    for i in range(n):
        ch = channels[i]
        if ch.d_in != domain.size:
            raise DimensionMismatchError(
                f"channel for user {i} does not match the population domain")
        posts[i] = posterior(ch, population.prior(i), observations[i]).posterior

    if isinstance(task, Survey):
        v = domain.index_of(task.target)
        return AggregateEstimate(float(posts[:, v].sum()))
    if isinstance(task, Summation):
        means = posts @ domain.values
        return AggregateEstimate(float(means.mean()))
    if isinstance(task, WeightedSum):
        means = posts @ domain.values
        return AggregateEstimate(
            float(np.dot(task.coefficients, means) + task.offsets.sum()))
    if isinstance(task, Histogram):
        return AggregateEstimate(posts.sum(axis=0))
    raise TypeError(f"unknown task {task!r}")


def context_free_estimate(observations, eps: float) -> float:
    """Prior-unaware count estimator for symmetric randomized response.

    With flip probability p = 1/(e^eps + 1), returns
    (sum Y_i - N p) / (1 - 2p); unbiased for sum X_i and deliberately not
    clipped to [0, N].
    """
    if eps <= 0.0:
        raise ZeroEpsilonError("denominator 1 - 2p vanishes at eps = 0")
    obs = np.asarray(observations, dtype=float)
    if not np.all((obs == 0.0) | (obs == 1.0)):
        raise ValueError("observations must be binary")
    flip = expit(-eps)
    n = obs.shape[0]
    return float((obs.sum() - n * flip) / (1.0 - 2.0 * flip))


def oue_histogram_estimate(reports, d: int, n: int, eps: float) -> np.ndarray:
    """Unbiased per-bucket counts from unary-encoded perturbed reports.

    bucket k -> (#reports with bit k set - n/(e^eps+1)) / (1/2 - 1/(e^eps+1))
    """
    if eps <= 0.0:
        raise ZeroEpsilonError("unary-encoding estimator needs eps > 0")
    r = np.asarray(reports)
    if r.ndim != 2 or r.shape != (n, d):
        raise DimensionMismatchError(f"reports must have shape ({n}, {d})")
    flip = expit(-eps)
    counts = r.sum(axis=0).astype(float)
    return (counts - n * flip) / (0.5 - flip)
