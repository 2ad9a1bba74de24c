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
    check_epsilon,
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
             channels, observations) -> float | np.ndarray:
    """Aggregate posterior-mean estimate from one observation per user: a
    float, or a length-d array for a histogram.

    ``channels`` is either one channel per user or a single channel shared
    by all users.  Observations are domain values.  Every shape is checked
    (``DimensionMismatchError``) before one Bayes step for all users; then
    an observation off its channel's outputs or of zero probability raises
    ``UnreachableOutputError`` naming the first such user: it signals a
    channel/observation mismatch upstream rather than data to be ignored.
    """
    form = task_form(task, population)
    n, d = population.n_users, population.domain.size
    shared = isinstance(channels, Channel)
    if not shared and len(channels) != n:
        raise DimensionMismatchError("one channel per user required")
    observations = np.asarray(observations, dtype=float)
    if observations.shape != (n,):
        raise DimensionMismatchError("one observation per user required")
    for i, ch in enumerate([channels] if shared else channels):
        if ch.d_in != d:
            raise DimensionMismatchError(
                f"channel for user {i} does not match the population domain")

    if shared:
        ks = channels.output_domain.indices_of(observations)
        cols = channels.matrix.T[ks]
    else:
        ks = np.array([ch.output_domain.index_of(y) for ch, y in zip(channels, observations)])
        cols = [ch.matrix[:, k] for ch, k in zip(channels, ks)]
    lam, _, posts = posterior_ratio(np.reshape(cols, (n, d, 1)), population.priors)
    lost = np.flatnonzero((ks < 0) | (lam[:, 0] <= 0.0))
    if lost.size:
        i = int(lost[0])
        raise UnreachableOutputError(
            f"user {population.user_ids[i]}: output {observations[i]} has zero "
            "probability under its channel and prior")
    return form.total(posts[:, :, 0] @ form.g)


def context_free_estimate(observations, eps: float) -> float | np.ndarray:
    """Prior-unaware count estimator for symmetric randomized response.

    With flip probability p = 1/(e^eps + 1), returns
    (sum Y_i - N p) / (1 - 2p) over the last axis; unbiased for sum X_i
    and deliberately not clipped to [0, N].  One row of observations gives
    a float, a stack of rows (one per trial) an array.
    """
    if check_epsilon(eps) == 0.0:
        raise ZeroEpsilonError("denominator 1 - 2p vanishes at eps = 0")
    obs = np.asarray(observations, dtype=float)
    if not np.all((obs == 0.0) | (obs == 1.0)):
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
    if check_epsilon(eps) == 0.0:
        raise ZeroEpsilonError("unary-encoding estimator needs eps > 0")
    flip = flip_probability(eps)
    return (np.asarray(counts, dtype=float) - n * flip) / (0.5 - flip)

