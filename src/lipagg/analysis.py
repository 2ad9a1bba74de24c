"""Closed-form error formulas and utility-privacy tradeoff curves.

Every per-user error here is the mean squared error of the posterior-mean
estimator, written as Var[f(X)] - Var[E[f(X)|Y]] (law of total variance).
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
    Histogram,
    Population,
    Prior,
    Summation,
    Survey,
    WeightedSum,
    check_epsilon,
    check_task,
)
from .errors import DimensionMismatchError, ZeroEpsilonError
from .mechanisms import MechanismFamily, check_family_task, optimal_channel


def mse_binary(q: Channel, p1: float) -> float:
    """Per-user MSE of the posterior-mean estimator for a binary channel.

    Evaluates p1(1-p1) - [p1 (lambda_0 - q1)]^2 / (lambda_0 lambda_1) with
    q0 = q[0][1], q1 = q[1][0]; when an output never fires the estimator is
    constant and the MSE is the prior variance.
    """
    if q.d_in != 2 or q.d_out != 2:
        raise DimensionMismatchError("binary channel required")
    q0 = float(q.matrix[0, 1])
    q1 = float(q.matrix[1, 0])
    var = p1 * (1.0 - p1)
    lam0 = (1.0 - p1) * (1.0 - q0) + p1 * q1
    lam1 = (1.0 - p1) * q0 + p1 * (1.0 - q1)
    if lam0 <= 0.0 or lam1 <= 0.0:
        return var
    return var - (p1 * (lam0 - q1)) ** 2 / (lam0 * lam1)


def mse_binary_lip_opt(p1: float, eps: float) -> float:
    """Per-user MSE achieved by the binary context-aware optimum:
    p1 (1-p1) (2 e^-eps - e^-2eps)."""
    eps = check_epsilon(eps)
    u = math.exp(-eps)
    return p1 * (1.0 - p1) * (2.0 * u - u * u)


def mse_binary_ldp_opt(p1: float, eps: float) -> float:
    """Per-user MSE achieved by the binary context-free optimum.

    Always at least :func:`mse_binary_lip_opt` at the same (p1, eps), with
    equality only at eps = 0.
    """
    eps = check_epsilon(eps)
    e = math.exp(eps)
    var = p1 * (1.0 - p1)
    denom = (1.0 - p1 + p1 * e) * (e - p1 * e + p1)
    return var - (var * (1.0 - e)) ** 2 / denom


def _estimator_variance(q: Channel, p: Prior, values: np.ndarray) -> float:
    """Var[E[f(X)|Y]] for f(a_m) = values[m]; zero-mass columns contribute 0."""
    lam = p.p @ q.matrix
    t = (p.p * values) @ q.matrix
    mask = lam > 0.0
    mu = float(np.dot(p.p, values))
    return float(np.sum(t[mask] ** 2 / lam[mask])) - mu * mu


def mse_mimo(q: Channel, p: Prior, domain: Domain | None = None) -> float:
    """Per-user MSE of the posterior-mean value estimator on a square channel."""
    if q.d_in != q.d_out:
        raise DimensionMismatchError("square channel required")
    if p.size != q.d_in:
        raise DimensionMismatchError("prior size must match channel size")
    domain = domain or q.input_domain
    if domain.size != q.d_in:
        raise DimensionMismatchError("domain size must match channel size")
    a = domain.values
    var = float(np.dot(p.p, a * a) - np.dot(p.p, a) ** 2)
    return var - _estimator_variance(q, p, a)


def mse_survey(q: Channel, p: Prior, target_index: int) -> float:
    """Per-user MSE of estimating the indicator of one domain value."""
    ind = np.zeros(p.size)
    ind[target_index] = 1.0
    pv = float(p.p[target_index])
    return pv * (1.0 - pv) - _estimator_variance(q, p, ind)


def mse_histogram(q: Channel, p: Prior) -> float:
    """Per-user histogram MSE: sum over categories of the indicator MSEs."""
    if q.d_in != q.d_out:
        raise DimensionMismatchError("square channel required")
    if p.size != q.d_in:
        raise DimensionMismatchError("prior size must match channel size")
    lam = p.p @ q.matrix
    mask = lam > 0.0
    # Var(E[1{X=a_k} | Y]) = sum_j (p_k q_kj)^2 / lambda_j - p_k^2, per k
    contrib = (p.p[:, None] * q.matrix) ** 2
    est_var = contrib[:, mask] / lam[mask]
    total_var = float(np.sum(p.p * (1.0 - p.p)))
    return total_var - float(np.sum(est_var)) + float(np.sum(p.p ** 2))


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
    epsilon: float
    family: str
    metric: float
    trials: int


@dataclass
class TradeoffCurve:
    """Rows of (epsilon, family, sqrt(avg mse), trials) plus run metadata."""

    rows: list[CurveRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def sort(self) -> "TradeoffCurve":
        self.rows.sort(key=lambda r: (r.family, r.epsilon, r.trials))
        return self

    def extend(self, other: "TradeoffCurve") -> "TradeoffCurve":
        self.rows.extend(other.rows)
        self.metadata.update(other.metadata)
        return self.sort()

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
                     "metric": r.metric, "trials": r.trials}
                    for r in self.rows
                ],
            },
            indent=2, sort_keys=True,
        ) + "\n"


def local_values(task: AggregationTask, domain: Domain) -> np.ndarray:
    """g(a_m) for the local function a scalar task averages over users: the
    target indicator for a survey, the value itself otherwise."""
    if isinstance(task, Survey):
        return (domain.values == task.target).astype(float)
    return domain.values


def closed_form_total_mse(family: MechanismFamily, population: Population,
                          task: AggregationTask, eps: float) -> float:
    """Aggregate MSE: the sum of independent per-user contributions,
    vectorized over the (N, d) priors.

    Under a keep-or-resample channel (keep a, redraw w) the posterior mean
    of a local function g after output k is kept_k g_k + redrawn_k mu_g
    (``KeepResample.posterior``) and its MSE is
    sum_k p_k (w + a redrawn_k) (g_k - mu_g)^2, a sum of nonnegative terms
    that keeps full precision at large budgets.  The prior-unaware
    estimators (symmetric-rr, unary encoding) have a constant per-user MSE.
    """
    check_family_task(family, task, population.domain)
    check_task(task, population)
    eps = check_epsilon(eps)
    n = population.n_users
    if family in (MechanismFamily.SYMMETRIC_RR, MechanismFamily.OUE):
        if eps == 0.0:
            raise ZeroEpsilonError("prior-unaware estimator undefined at eps = 0")
        # flip f = 1/(e^eps + 1): f(1-f)/(1-2f)^2 = e^-eps/(1-e^-eps)^2 per
        # user; unary encoding pays 4x that on each of its d bits
        per_user = math.exp(-eps) / math.expm1(-eps) ** 2
        if family is MechanismFamily.OUE:
            per_user *= 4.0 * population.domain.size
        return n * per_user

    p = population.priors
    ch = optimal_channel(family, eps, p)
    _, redrawn = ch.posterior(p)
    weight = p * (ch.redraw + ch.keep * redrawn)
    if isinstance(task, Histogram):
        # sum_j (1{k = j} - p_j)^2 = 1 - 2 p_k + |p|^2
        spread = 1.0 - 2.0 * p + np.sum(p * p, axis=1, keepdims=True)
        return float(np.sum(weight * spread))
    g = local_values(task, population.domain)
    per_user = np.sum(weight * (g - (p @ g)[:, None]) ** 2, axis=1)
    if isinstance(task, Summation):
        return float(per_user.sum()) / n ** 2
    if isinstance(task, WeightedSum):
        return float(np.dot(task.coefficients ** 2, per_user))
    return float(per_user.sum())


def tradeoff_curve(family: MechanismFamily, population: Population,
                   task: AggregationTask, eps_grid) -> TradeoffCurve:
    """Closed-form tradeoff rows (trials = 0) for one family over a budget grid."""
    eps_grid = [check_epsilon(e) for e in eps_grid]
    if not eps_grid:
        raise ValueError("eps_grid must be nonempty")
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
