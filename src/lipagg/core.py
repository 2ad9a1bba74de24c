"""Shared domain types: finite value domains, priors, perturbation channels,
populations and aggregation tasks.

All types are immutable after construction and safe to share across
concurrent workers.  Probabilities are double precision; stochasticity
checks use an absolute tolerance of 1e-12.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeEntryError,
    RowSumMismatchError,
    ValidationError,
)

PROB_TOL = 1e-12
TINY = float.fromhex("0x1p-1022")  # the smallest normal double, 2.2e-308


def _as_readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _check_prior_rows(pm: np.ndarray) -> None:
    """Raise ``ValueError`` unless every entry of the prior rows lies in
    [0, 1] and every row sums to 1 within 1e-12.  Both tests are written
    as "not within", so a NaN entry fails them."""
    if not np.all((pm >= 0.0) & (pm <= 1.0)):
        raise ValueError("prior entries must lie in [0, 1]")
    sums = np.atleast_1d(pm.sum(axis=-1))
    bad = ~(np.abs(sums - 1.0) <= PROB_TOL)
    if bad.any():
        raise ValueError(f"prior sums to {sums[bad][0]}, expected 1")


@dataclass(frozen=True, eq=False)
class Domain:
    """Finite ordered domain of finite real values (category labels or numeric data)."""

    values: np.ndarray

    def __init__(self, values):
        object.__setattr__(self, "values", _as_readonly(values))
        if self.values.ndim != 1 or self.size < 2:
            raise ValueError("domain needs at least 2 values")
        if not np.isfinite(self.values).all():
            raise ValueError("domain values must be finite")
        if len(np.unique(self.values)) != self.size:
            raise ValueError("domain values must be distinct")

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def index_of(self, value: float) -> int:
        """Position of ``value`` in the domain, or -1 when absent."""
        hits = np.nonzero(self.values == value)[0]
        return int(hits[0]) if hits.size else -1

    def indices_of(self, values) -> np.ndarray:
        """:meth:`index_of` of every entry of a 1-D array, from one (n, d)
        comparison: NaN matches nothing and -0.0 matches 0.0."""
        hits = np.asarray(values)[:, None] == self.values
        return np.where(hits.any(axis=1), hits.argmax(axis=1), -1)

    @staticmethod
    def binary() -> "Domain":
        return Domain([0.0, 1.0])

    @staticmethod
    def of_size(d: int) -> "Domain":
        """Domain labelled 0..d-1."""
        check_whole("domain size", d, 2)
        return Domain(np.arange(d, dtype=float))


@dataclass(frozen=True, eq=False)
class Prior:
    """Probability vector over a domain; zero entries are permitted."""

    p: np.ndarray

    def __init__(self, p):
        object.__setattr__(self, "p", _as_readonly(p))
        if self.p.ndim != 1:
            raise ValueError("prior must be a vector")
        _check_prior_rows(self.p)

    @property
    def size(self) -> int:
        return self.p.shape[0]

    @staticmethod
    def binary(p1: float) -> "Prior":
        """[1 - p1, p1]; a p1 that is not a real raises ``ValidationError``."""
        p1 = check_real("p1", p1)
        return Prior([1.0 - p1, p1])


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic perturbation matrix q[m][k] = Pr(Y = a_k | X = a_m).

    A channel that constructs is valid: construction runs the check below,
    which raises on the first row with an entry outside [0, 1] or a sum off 1.
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
        validate_channel(self)

    @property
    def d_in(self) -> int:
        return self.matrix.shape[0]

    @property
    def d_out(self) -> int:
        return self.matrix.shape[1]


def validate_channel(q: Channel) -> None:
    """Check the channel invariants, reporting the first violated row; every
    :class:`Channel` runs it when it is built.

    Raises ``NegativeEntryError`` for an entry that is not within [0, 1],
    NaN included (before its row's sum), and ``RowSumMismatchError`` for a
    row whose sum deviates from 1 by more than 1e-12.  A valid channel
    costs one min, max and row-sum pass; the error is located only on
    failure.
    """
    m = q.matrix
    sums = m.sum(axis=1)
    off = np.abs(sums - 1.0)
    # every test reads "within", so a NaN fails it
    if m.min() >= 0.0 and m.max() <= 1.0 and off.max() <= PROB_TOL:
        return
    out_of_range = ~((m >= 0.0) & (m <= 1.0))
    i = int(np.argmax(out_of_range.any(axis=1) | ~(off <= PROB_TOL)))
    if out_of_range[i].any():
        j = int(np.argmax(out_of_range[i]))
        raise NegativeEntryError(i, j, float(m[i, j]))
    raise RowSumMismatchError(i, float(sums[i]))


def posterior_ratio(q: np.ndarray, p: np.ndarray, *,
                    posterior: bool = True) -> tuple[np.ndarray, ...]:
    """The Bayes step for channels q (..., d, f) and priors p (..., d): the
    output marginal lam = p @ q, the posterior-to-prior ratio q[m][k] / lam[k]
    and, unless ``posterior`` is false, the posterior p[m] q[m][k] / lam[k],
    both 0 where lam is 0.  Only a lam entry below the smallest normal
    double, ``TINY``, costs a masked divide with overflow warnings off.  The
    posterior is divided out of the joint, not taken as p * ratio: for a
    prior entry below 1/DBL_MAX the ratio overflows to inf.  Raises
    ``DimensionMismatchError`` when p and q disagree on d."""
    if p.shape[-1] != q.shape[-2]:
        raise DimensionMismatchError(
            f"prior size {p.shape[-1]} != channel input size {q.shape[-2]}")
    lam = (p[..., None, :] @ q)[..., 0, :]
    col = lam[..., None, :]
    tables = (q, p[..., None] * q) if posterior else (q,)
    if lam.min(initial=math.inf) >= TINY:  # q <= 1 and p q <= 1: no ratio overflows
        return lam, *[t / col for t in tables]
    with np.errstate(over="ignore"):
        return lam, *[np.divide(t, col, out=np.zeros(np.broadcast(t, col).shape),
                                where=col > 0.0) for t in tables]


def output_distribution(q: Channel, p: Prior) -> np.ndarray:
    """Marginal output distribution: lambda[k] = sum_m p[m] * q[m][k]."""
    return posterior_ratio(q.matrix, p.p, posterior=False)[0]


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
        _check_prior_rows(pm)
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
        """User i's prior: a read-only view of its row, whose entries and
        sum were checked when the population was built."""
        row = self.priors[i]
        if row.ndim != 1:  # a slice, a mask or a bool picks no single row
            raise ValueError("prior must be a vector")
        prior = object.__new__(Prior)
        object.__setattr__(prior, "p", row)
        return prior


@dataclass(frozen=True)
class Survey:
    """Count how many users hold the target value."""

    target: float = 1.0


@dataclass(frozen=True)
class Summation:
    """Average of the users' values, (1/N) * sum_i X_i."""


@dataclass(frozen=True, eq=False)
class WeightedSum:
    """sum_i (a_i * X_i + b_i) with finite per-user coefficients and offsets."""

    coefficients: np.ndarray
    offsets: np.ndarray

    def __init__(self, coefficients, offsets):
        a = _as_readonly(coefficients)
        b = _as_readonly(offsets)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("coefficients and offsets must be equal-length vectors")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("coefficients and offsets must be finite")
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "offsets", b)


@dataclass(frozen=True)
class Histogram:
    """Per-category counts S_k = #{i : X_i = a_k}."""


AggregationTask = Survey | Summation | WeightedSum | Histogram


@dataclass(frozen=True, eq=False)
class TaskForm:
    """A task as the linear form offset + sum_i weights[i] g(X_i).

    ``g`` is the local function over the domain: shape (d,) for the scalar
    tasks, the (d, d) identity (one-hot rows) for a histogram, so the form
    yields a float or a length-d vector without a flag.  The posterior-mean
    estimate applies the same form to E[g(X_i) | Y_i], and its MSE is
    sum_i weights[i]^2 MSE_i(g).
    """

    g: np.ndarray
    weights: np.ndarray
    offset: float

    def total(self, local: np.ndarray):
        """offset + sum_i weights[i] local[i] for per-user values of shape
        (N,) or (N, d), such as g[x] or the posterior means of g."""
        return self.offset + self.weights @ local


def task_form(task: AggregationTask, population: Population) -> TaskForm:
    """The linear form of ``task`` over ``population``: g is the target
    indicator, the value, the value or the one-hot vector, and the weights
    are 1, 1/N, a_i and 1.  Raises ``ValueError`` for a survey target
    outside the domain and ``DimensionMismatchError`` for weighted-sum
    coefficients that are not one per user."""
    values, n = population.domain.values, population.n_users
    if isinstance(task, Survey):
        if task.target not in values:
            raise ValueError(f"survey target {task.target} not in domain")
        return TaskForm((values == task.target).astype(float), np.ones(n), 0.0)
    if isinstance(task, Summation):
        return TaskForm(values, np.full(n, 1.0 / n), 0.0)
    if isinstance(task, WeightedSum):
        if task.coefficients.shape[0] != n:
            raise DimensionMismatchError(
                "weighted-sum coefficient/offset lists must have one entry per user")
        return TaskForm(values, task.coefficients, float(task.offsets.sum()))
    if isinstance(task, Histogram):
        return TaskForm(np.eye(values.shape[0]), np.ones(n), 0.0)
    raise TypeError(f"unknown task {task!r}")


def check_epsilon(eps: float) -> float:
    """Privacy budgets are finite nonnegative reals on the natural-log scale
    (not bools, strings or nulls, which :func:`check_real` rejects)."""
    eps = check_real("epsilon", eps)
    if not (eps >= 0.0 and np.isfinite(eps)):
        raise ValueError(f"epsilon must be finite and nonnegative, got {eps}")
    return eps


def flip_probability(eps: float) -> float:
    """1/(e^eps + 1), the flip probability of binary randomized response,
    as scipy's ``expit(-eps)`` computes it; 0.0 where e^eps overflows (eps
    above about 709.78)."""
    try:
        return 1.0 / (1.0 + math.exp(eps))
    except OverflowError:
        return 0.0


def check_distinct(name: str, given, convert) -> tuple:
    """``given`` converted entry by entry, nonempty and with no value twice."""
    items = tuple(convert(g) for g in given)
    if not items:
        raise ValueError(f"{name} must be nonempty")
    if len(set(items)) != len(items):
        raise ValueError(f"{name} has a repeated entry: {list(given)}")
    return items


def check_whole(name: str, value, low: int) -> None:
    """Counts, sizes and seeds are integers (not bools) of at least ``low``;
    raise ``ValueError`` naming ``name`` otherwise, rather than truncate."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def check_real(name: str, value) -> float:
    """Numbers read from files, and numeric parameters such as a CIP
    instance's p1, are reals, not bools, strings or nulls; raise
    ``ValidationError`` naming ``name`` otherwise, rather than coerce."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_reals(name: str, value) -> list[float]:
    """A list of reals, each checked as :func:`check_real`."""
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list of numbers, got {value!r}")
    return [check_real(f"{name} entry", v) for v in value]
