"""Closed-form error formulas and utility-privacy tradeoff curves.

Every per-user error here is the mean squared error of the posterior-mean
estimator, E|f(X) - E[f(X)|Y]|^2, written as a sum of nonnegative terms.
Curves report the normalized metric sqrt(total_mse / N); callers can tell
closed-form rows (trials = 0) from Monte-Carlo rows (trials = R).
"""

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    AggregationTask,
    Channel,
    Domain,
    Population,
    Prior,
    check_distinct,
    check_epsilon,
    posterior_ratio,
    task_form,
)
from .errors import DimensionMismatchError, ZeroEpsilonError
from .mechanisms import MechanismFamily, check_family_task, optimal_channel


def _posterior_mean_mse(q: Channel, p: np.ndarray, g) -> float:
    """E|g(X) - E[g(X)|Y]|^2 for the local function g, shape (d,) or (d, m):
    the squared gap to the posterior mean summed over the joint p[m] q[m][k],
    a sum of nonnegative terms; outputs of zero mass contribute nothing."""
    g = np.reshape(g, (q.d_in, -1))
    means = posterior_ratio(q.matrix, p)[2].T @ g  # means[k] = E[g(X) | Y = a_k]
    gap2 = np.sum((g[:, None, :] - means[None, :, :]) ** 2, axis=-1)
    return float(np.sum(p[:, None] * q.matrix * gap2))


def mse_binary(q: Channel, p1: float) -> float:
    """Per-user MSE of the posterior-mean estimator for a binary channel;
    when an output never fires the estimator is constant and the MSE is
    the prior variance p1 (1-p1)."""
    if q.d_in != 2 or q.d_out != 2:
        raise DimensionMismatchError("binary channel required")
    return _posterior_mean_mse(q, np.array([1.0 - p1, p1]), [0.0, 1.0])


def mse_binary_lip_opt(p1: float, eps: float) -> float:
    """Per-user MSE achieved by the binary context-aware optimum:
    p1 (1-p1) (2 e^-eps - e^-2eps)."""
    eps = check_epsilon(eps)
    u = math.exp(-eps)
    return p1 * (1.0 - p1) * (2.0 * u - u * u)


def mse_binary_ldp_opt(p1: float, eps: float) -> float:
    """Per-user MSE achieved by the binary context-free optimum,
    p1 (1-p1) u / ((p1 + (1-p1) u)(1 - p1 + p1 u)) with u = e^-eps, so no
    finite budget overflows.

    Always at least :func:`mse_binary_lip_opt` at the same (p1, eps), with
    equality only at eps = 0.
    """
    u = math.exp(-check_epsilon(eps))
    var = p1 * (1.0 - p1)
    if var == 0.0:
        return 0.0
    return var * u / ((p1 + (1.0 - p1) * u) * (1.0 - p1 + p1 * u))


def _check_square(q: Channel, p: Prior) -> None:
    if q.d_in != q.d_out:
        raise DimensionMismatchError("square channel required")
    if p.size != q.d_in:
        raise DimensionMismatchError("prior size must match channel size")


def mse_mimo(q: Channel, p: Prior, domain: Domain | None = None) -> float:
    """Per-user MSE of the posterior-mean value estimator on a square channel."""
    _check_square(q, p)
    domain = domain or q.input_domain
    if domain.size != q.d_in:
        raise DimensionMismatchError("domain size must match channel size")
    return _posterior_mean_mse(q, p.p, domain.values)


def mse_survey(q: Channel, p: Prior, target_index: int) -> float:
    """Per-user MSE of estimating the indicator of one domain value."""
    return _posterior_mean_mse(q, p.p, np.arange(p.size) == target_index)


def mse_histogram(q: Channel, p: Prior) -> float:
    """Per-user histogram MSE: sum over categories of the indicator MSEs."""
    _check_square(q, p)
    return _posterior_mean_mse(q, p.p, np.eye(p.size))


def mae(q: Channel, p: Prior, domain: Domain | None = None) -> float:
    """Mean absolute perturbation E|X - Y| = sum |a_m - a_k| p[m] q[m][k]."""
    if p.size != q.d_in:
        raise DimensionMismatchError("prior size must match channel input")
    a_in = (domain or q.input_domain).values
    a_out = (domain or q.output_domain).values
    if a_in.shape[0] != q.d_in or a_out.shape[0] != q.d_out:
        raise DimensionMismatchError("domain size must match channel shape")
    gap = np.abs(a_in[:, None] - a_out[None, :])
    return float(np.sum(p.p[:, None] * q.matrix * gap))


@dataclass(frozen=True)
class CurveRow:
    """One curve point.  ``mse_stderr`` is the standard error of metric^2
    on a Monte-Carlo row (NaN for a single trial) and 0.0 on a closed-form
    row; JSON carries it, the CSV does not."""

    epsilon: float
    family: str
    metric: float
    trials: int
    mse_stderr: float = 0.0


@dataclass
class TradeoffCurve:
    """Rows of (epsilon, family, sqrt(avg mse), trials) plus run metadata."""

    rows: list[CurveRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def sort(self) -> "TradeoffCurve":
        self.rows.sort(key=lambda r: (r.family, r.epsilon, r.trials))
        return self

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("epsilon,family,metric,trials\n")
        for r in self.rows:
            buf.write(f"{float(r.epsilon)!r},{r.family},{float(r.metric)!r},{r.trials}\n")
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "metadata": self.metadata,
                "rows": [
                    {"epsilon": r.epsilon, "family": r.family,
                     "metric": r.metric, "trials": r.trials,
                     "mse_stderr": r.mse_stderr if math.isfinite(r.mse_stderr) else None}
                    for r in self.rows
                ],
            },
            indent=2, sort_keys=True,
        ) + "\n"


def closed_form_total_mse(family: MechanismFamily, population: Population,
                          task: AggregationTask, eps: float) -> float:
    """Aggregate MSE sum_i weights[i]^2 MSE_i of the task's linear form
    (``core.task_form``), vectorized over the (N, d) priors.

    Under a keep-or-resample channel (keep a, redraw w) the posterior mean
    of the local function g after output k is kept_k g_k + redrawn_k mu
    (``KeepResample.posterior``, mu = p @ g) and its MSE is
    sum_k p_k (w + a redrawn_k) |g_k - mu|^2, a sum of nonnegative terms
    that keeps full precision at large budgets; the squared norm is
    accumulated over the columns of g, so memory stays O(N d).  The
    prior-unaware estimators (symmetric-rr, unary encoding) have a
    constant per-user MSE.  Unary encoding keeps the user's own bit with
    probability 1/2, so that bit has variance 1/4 rather than f(1-f).
    """
    check_family_task(family, task, population.domain)
    form = task_form(task, population)
    eps = check_epsilon(eps)
    if family in (MechanismFamily.SYMMETRIC_RR, MechanismFamily.OUE):
        if eps == 0.0:
            raise ZeroEpsilonError("prior-unaware estimator undefined at eps = 0")
        # flip f = 1/(e^eps + 1): f(1-f)/(1-2f)^2 = e^-eps/(1-e^-eps)^2 per
        # user; unary encoding pays 4x that on each of its d - 1 cold bits
        # and (1/4)/(1/2-f)^2 = 4x that + 1 on its hot bit
        per_user = math.exp(-eps) / math.expm1(-eps) ** 2
        if family is MechanismFamily.OUE:
            per_user = 4.0 * population.domain.size * per_user + 1.0
    else:
        p = population.priors
        ch = optimal_channel(family, eps, p)
        _, redrawn = ch.posterior(p)
        g = form.g.reshape(population.domain.size, -1)
        mu = p @ g
        spread = sum((g[:, j] - mu[:, j, None]) ** 2 for j in range(g.shape[1]))
        per_user = np.sum(p * (ch.redraw + ch.keep * redrawn) * spread, axis=1)
    return float(np.sum(form.weights ** 2 * per_user))


def tradeoff_curve(family: MechanismFamily, population: Population,
                   task: AggregationTask, eps_grid) -> TradeoffCurve:
    """Closed-form tradeoff rows (trials = 0) for one family over a budget grid."""
    eps_grid = check_distinct("eps_grid", eps_grid, check_epsilon)
    n = population.n_users
    rows = [
        CurveRow(epsilon=e, family=family.value,
                 metric=math.sqrt(closed_form_total_mse(family, population, task, e) / n),
                 trials=0)
        for e in eps_grid
    ]
    curve = TradeoffCurve(rows=rows, metadata={
        "population": f"N={n},d={population.domain.size}",
        "task": type(task).__name__.lower(),
    })
    return curve.sort()
