"""Shared domain types: finite value domains, priors, perturbation channels,
populations and aggregation tasks.

All types are immutable after construction and safe to share across
concurrent workers.  Probabilities are double precision; stochasticity
checks use an absolute tolerance of 1e-12.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeEntryError,
    RowSumMismatchError,
)

PROB_TOL = 1e-12


def _as_readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Domain:
    """Finite ordered domain of real values (category labels or numeric data)."""

    values: np.ndarray

    def __init__(self, values):
        object.__setattr__(self, "values", _as_readonly(values))
        if self.values.ndim != 1 or self.size < 2:
            raise ValueError("domain needs at least 2 values")
        if len(np.unique(self.values)) != self.size:
            raise ValueError("domain values must be distinct")

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def index_of(self, value: float) -> int:
        """Position of ``value`` in the domain, or -1 when absent."""
        hits = np.nonzero(self.values == value)[0]
        return int(hits[0]) if hits.size else -1

    @staticmethod
    def binary() -> "Domain":
        return Domain([0.0, 1.0])

    @staticmethod
    def of_size(d: int) -> "Domain":
        """Domain labelled 0..d-1."""
        return Domain(np.arange(d, dtype=float))


@dataclass(frozen=True, eq=False)
class Prior:
    """Probability vector over a domain; zero entries are permitted."""

    p: np.ndarray

    def __init__(self, p):
        object.__setattr__(self, "p", _as_readonly(p))
        if self.p.ndim != 1:
            raise ValueError("prior must be a vector")
        if np.any(self.p < 0.0) or np.any(self.p > 1.0):
            raise ValueError("prior entries must lie in [0, 1]")
        if abs(float(self.p.sum()) - 1.0) > PROB_TOL:
            raise ValueError(f"prior sums to {self.p.sum()}, expected 1")

    @property
    def size(self) -> int:
        return self.p.shape[0]

    @staticmethod
    def binary(p1: float) -> "Prior":
        return Prior([1.0 - p1, p1])


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic perturbation matrix q[m][k] = Pr(Y = a_k | X = a_m).

    Construction does not validate; call :func:`validate_channel` (every
    mechanism in this package does so before returning a channel).
    """

    matrix: np.ndarray
    input_domain: Domain
    output_domain: Domain

    def __init__(self, matrix, input_domain: Domain | None = None,
                 output_domain: Domain | None = None):
        m = _as_readonly(matrix)
        if m.ndim != 2:
            raise ValueError("channel matrix must be 2-dimensional")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "input_domain",
                           input_domain or Domain.of_size(m.shape[0]))
        object.__setattr__(self, "output_domain",
                           output_domain or Domain.of_size(m.shape[1]))
        if self.input_domain.size != m.shape[0]:
            raise DimensionMismatchError(
                f"input domain size {self.input_domain.size} != {m.shape[0]} rows")
        if self.output_domain.size != m.shape[1]:
            raise DimensionMismatchError(
                f"output domain size {self.output_domain.size} != {m.shape[1]} columns")

    @property
    def d_in(self) -> int:
        return self.matrix.shape[0]

    @property
    def d_out(self) -> int:
        return self.matrix.shape[1]


def validate_channel(q: Channel) -> None:
    """Check the channel invariants, reporting the first violated entry/row.

    Raises ``NegativeEntryError`` for an entry outside [0, 1] and
    ``RowSumMismatchError`` for a row whose sum deviates from 1 by more
    than 1e-12.
    """
    m = q.matrix
    for i in range(m.shape[0]):
        row = m[i]
        bad = np.nonzero((row < 0.0) | (row > 1.0))[0]
        if bad.size:
            j = int(bad[0])
            raise NegativeEntryError(i, j, float(row[j]))
        s = float(row.sum())
        if abs(s - 1.0) > PROB_TOL:
            raise RowSumMismatchError(i, s)


def output_distribution(q: Channel, p: Prior) -> np.ndarray:
    """Marginal output distribution: lambda[k] = sum_m p[m] * q[m][k]."""
    if p.size != q.d_in:
        raise DimensionMismatchError(
            f"prior size {p.size} != channel input size {q.d_in}")
    return p.p @ q.matrix


@dataclass(frozen=True, eq=False)
class Population:
    """N users over a shared domain, each with a prior.

    Priors are stored row-wise in an (N, d) matrix; ``user_ids`` defaults
    to "u0".."u{N-1}".
    """

    domain: Domain
    priors: np.ndarray
    user_ids: tuple = field(default=())

    def __init__(self, domain: Domain, priors, user_ids=None):
        pm = _as_readonly(priors)
        if pm.ndim != 2 or pm.shape[0] < 1:
            raise ValueError("population needs at least one user prior row")
        if pm.shape[1] != domain.size:
            raise DimensionMismatchError(
                f"prior width {pm.shape[1]} != domain size {domain.size}")
        if np.any(pm < 0.0) or np.any(pm > 1.0):
            raise ValueError("prior entries must lie in [0, 1]")
        if np.any(np.abs(pm.sum(axis=1) - 1.0) > PROB_TOL):
            raise ValueError("every user prior must sum to 1")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "priors", pm)
        if user_ids is None:
            user_ids = tuple(f"u{i}" for i in range(pm.shape[0]))
        else:
            user_ids = tuple(str(u) for u in user_ids)
            if len(user_ids) != pm.shape[0]:
                raise ValueError("one user id per prior row required")
        object.__setattr__(self, "user_ids", user_ids)

    @property
    def n_users(self) -> int:
        return self.priors.shape[0]

    def prior(self, i: int) -> Prior:
        return Prior(self.priors[i])

    @staticmethod
    def from_users(domain: Domain, users) -> "Population":
        """Build from an iterable of (user_id, Prior) pairs."""
        ids, priors = [], []
        for uid, prior in users:
            ids.append(uid)
            priors.append(prior.p)
        return Population(domain, np.array(priors), ids)


@dataclass(frozen=True)
class Survey:
    """Count how many users hold the target value."""

    target: float = 1.0


@dataclass(frozen=True)
class Summation:
    """Average of the users' values, (1/N) * sum_i X_i."""


@dataclass(frozen=True, eq=False)
class WeightedSum:
    """sum_i (a_i * X_i + b_i) with per-user coefficients and offsets."""

    coefficients: np.ndarray
    offsets: np.ndarray

    def __init__(self, coefficients, offsets):
        a = _as_readonly(coefficients)
        b = _as_readonly(offsets)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("coefficients and offsets must be equal-length vectors")
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "offsets", b)


@dataclass(frozen=True)
class Histogram:
    """Per-category counts S_k = #{i : X_i = a_k}."""


AggregationTask = Survey | Summation | WeightedSum | Histogram


def check_task(task: AggregationTask, population: Population) -> None:
    """Validate a task against a population (target in domain, lengths match)."""
    if isinstance(task, Survey):
        if task.target not in population.domain.values:
            raise ValueError(f"survey target {task.target} not in domain")
    elif isinstance(task, WeightedSum):
        if task.coefficients.shape[0] != population.n_users:
            raise DimensionMismatchError(
                "weighted-sum coefficient/offset lists must have one entry per user")


def check_epsilon(eps: float) -> float:
    """Privacy budgets are finite nonnegative reals on the natural-log scale."""
    eps = float(eps)
    if not (eps >= 0.0 and np.isfinite(eps)):
        raise ValueError(f"epsilon must be finite and nonnegative, got {eps}")
    return eps
