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
    Population,
    Prior,
    TaskForm,
    check_distinct,
    check_epsilon,
    posterior_ratio,
    task_form,
)
from .mechanisms import ONLY_TASK, MechanismFamily, check_family_task, optimal_channel


def posterior_mean_mse(q: Channel, p: np.ndarray, g) -> float:
    """Per-user E|g(X) - E[g(X)|Y]|^2 for channel ``q``, prior vector ``p``
    and the local function g, shape (d,) or (d, m): the squared gap to the
    posterior mean summed over the joint p[m] q[m][k], a sum of nonnegative
    terms; outputs of zero mass contribute nothing."""
    post = posterior_ratio(q.matrix, p)[2]
    g = np.reshape(g, (q.d_in, -1))
    means = post.T @ g  # means[k] = E[g(X) | Y = a_k]
    gap2 = np.sum((g[:, None, :] - means[None, :, :]) ** 2, axis=-1)
    return float(np.sum(p[:, None] * q.matrix * gap2))


def mse_binary_lip_opt(p1: float, eps: float) -> float:
    """Per-user MSE achieved by the binary context-aware optimum:
    p1 (1-p1) (2 e^-eps - e^-2eps)."""
    p1 = float(Prior.binary(p1).p[1])
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
    p1 = float(Prior.binary(p1).p[1])
    u = math.exp(-check_epsilon(eps))
    var = p1 * (1.0 - p1)
    if var == 0.0:
        return 0.0
    return var * u / ((p1 + (1.0 - p1) * u) * (1.0 - p1 + p1 * u))


def mse_survey(q: Channel, p: Prior, target_index: int) -> float:
    """Per-user MSE of estimating the indicator of one domain value."""
    return posterior_mean_mse(q, p.p, np.arange(p.size) == target_index)


def mse_histogram(q: Channel, p: Prior) -> float:
    """Per-user histogram MSE: sum over categories of the indicator MSEs."""
    return posterior_mean_mse(q, p.p, np.eye(p.size))


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


class _ClosedForm:
    """What a run's closed-form rows and Monte-Carlo estimates share, built
    once per (population, task): the task's linear form, the (N, d) priors,
    the local function g as (d, c), one column per statistic component, and
    each user's prior mean mu = priors @ g, (N, c).
    ``harness._Aggregation`` builds on it."""

    def __init__(self, form: TaskForm, priors: np.ndarray):
        self.form = form
        self.priors = priors
        self.g = form.g.reshape(priors.shape[1], -1)
        self.mu = priors @ self.g

    def totals(self, families, eps_grid) -> dict:
        """{(family, eps): aggregate MSE sum_i weights[i]^2 MSE_i}, vectorized
        over the (N, d) priors, for pairs that ``check_family_task`` accepts.

        Under a keep-or-resample channel (keep a, redraw w) the posterior
        mean of g after output k is kept_k g_k + redrawn_k mu
        (``KeepResample.posterior``) and its MSE is
        sum_k p_k (w + a redrawn_k) |g_k - mu|^2, a sum of nonnegative terms
        that keeps full precision at large budgets; the spread |g_k - mu|^2
        is accumulated over the columns of g once for the whole grid, so
        memory stays O(N d).  The prior-unaware estimators (symmetric-rr,
        unary encoding) have a constant per-user MSE.  Unary encoding keeps
        the user's own bit with probability 1/2, so that bit has variance
        1/4 rather than f(1-f).
        """
        p, g, mu = self.priors, self.g, self.mu
        spread = sum((g[:, j] - mu[:, j, None]) ** 2 for j in range(g.shape[1]))
        totals = {}
        for family in families:
            for eps in eps_grid:
                if family in ONLY_TASK:  # the prior-unaware estimators
                    # flip f = 1/(e^eps + 1): f(1-f)/(1-2f)^2 = e^-eps/(1-e^-eps)^2
                    # per user; unary encoding pays 4x that on each of its d - 1
                    # cold bits and (1/4)/(1/2-f)^2 = 4x that + 1 on its hot bit
                    per_user = math.exp(-eps) / math.expm1(-eps) ** 2
                    if family is MechanismFamily.OUE:
                        per_user = 4.0 * p.shape[1] * per_user + 1.0
                else:
                    ch = optimal_channel(family, eps, p)
                    _, redrawn = ch.posterior(p)
                    per_user = np.sum(p * (ch.redraw + ch.keep * redrawn) * spread, axis=1)
                totals[family, eps] = float(np.sum(self.form.weights ** 2 * per_user))
        return totals

    def curve_rows(self, families, eps_grid) -> list[CurveRow]:
        """The closed-form rows (trials = 0) of :meth:`totals`."""
        n = self.priors.shape[0]
        return [CurveRow(epsilon=eps, family=family.value, metric=math.sqrt(total / n), trials=0)
                for (family, eps), total in self.totals(families, eps_grid).items()]


def closed_form_total_mse(family: MechanismFamily, population: Population,
                          task: AggregationTask, eps: float) -> float:
    """Aggregate MSE sum_i weights[i]^2 MSE_i of the task's linear form
    (``core.task_form``) under ``family`` (or its tag) at budget ``eps``;
    see :meth:`_ClosedForm.totals`."""
    eps = check_epsilon(eps)
    family = check_family_task(family, task, population.domain, (eps,))
    closed = _ClosedForm(task_form(task, population), population.priors)
    return closed.totals((family,), (eps,))[family, eps]


def tradeoff_curve(family: MechanismFamily, population: Population,
                   task: AggregationTask, eps_grid) -> TradeoffCurve:
    """Closed-form tradeoff rows (trials = 0) for one family over a budget grid."""
    eps_grid = check_distinct("eps_grid", eps_grid, check_epsilon)
    family = check_family_task(family, task, population.domain, eps_grid)
    closed = _ClosedForm(task_form(task, population), population.priors)
    curve = TradeoffCurve(rows=closed.curve_rows((family,), eps_grid), metadata={
        "population": f"N={population.n_users},d={population.domain.size}",
        "task": type(task).__name__.lower(),
    })
    return curve.sort()
