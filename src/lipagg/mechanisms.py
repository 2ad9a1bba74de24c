"""Closed-form optimal perturbation channels and output sampling.

Derivations; all budgets are on the natural-log scale:

* binary context-aware optimum: q[0][1] = p1/e^eps, q[1][0] = (1-p1)/e^eps
  (the member of the symmetric optimum pair that also minimizes the mean
  absolute perturbation),
* binary context-free optimum: symmetric flip probability 1/(e^eps + 1),
* d-ary context-aware optimum: diagonal 1 - (1-p[m])/e^eps, off-diagonal
  q[m][k] = p[k]/e^eps; its output marginal equals the prior,
* d-ary context-free optimum: diagonal e^eps/(e^eps + d - 1), off-diagonal
  1/(e^eps + d - 1),
* unary-encoding bit perturbation with keep probability 1/2 and flip-up
  probability 1/(e^eps + 1).

Every entry is evaluated from e^-eps, so no finite budget overflows.  Rows
are renormalized after construction to absorb float rounding so every
derived channel passes ``validate_channel`` exactly.

All four optima keep the true value with probability a and otherwise
publish a draw from a fixed r: a = 1 - e^-eps and r = the prior
(context-aware), a = (e^eps - 1)/(e^eps + d - 1) and r uniform
(context-free).  The harness and the closed-form errors use that form
(:func:`optimal_channel`); the dense constructors stay the reference.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (Channel, Domain, Histogram, Prior, Survey, check_epsilon,
                   check_whole, flip_probability, validate_channel)
from .errors import ValueNotInDomainError, ZeroEpsilonError


class MechanismFamily(enum.Enum):
    """Perturbation families compared throughout the package.

    SYMMETRIC_RR shares the OPT_BINARY_LDP matrix but is paired with the
    prior-unaware count estimator rather than the posterior-mean one; OUE
    is only valid for histogram-style tasks.
    """

    OPT_BINARY_LIP = "opt-binary-lip"
    OPT_BINARY_LDP = "opt-binary-ldp"
    OPT_MIMO_LIP = "opt-mimo-lip"
    OPT_MIMO_LDP = "opt-mimo-ldp"
    SYMMETRIC_RR = "symmetric-rr"
    OUE = "oue"

    @staticmethod
    def from_tag(tag) -> "MechanismFamily":
        for fam in MechanismFamily:
            if tag in (fam, fam.value):  # a member is its own tag
                return fam
        raise ValueError(f"unknown mechanism family {tag!r}")


# Family x task compatibility: the prior-unaware estimators answer one task
# each (the count estimator surveys, unary decoding histograms); every other
# family answers all four.  The binary families need the {0, 1} domain.
ONLY_TASK = {MechanismFamily.SYMMETRIC_RR: Survey, MechanismFamily.OUE: Histogram}
_BINARY_FAMILIES = (MechanismFamily.OPT_BINARY_LIP, MechanismFamily.OPT_BINARY_LDP,
                    MechanismFamily.SYMMETRIC_RR)


def check_family_task(family: MechanismFamily, task, domain: Domain) -> None:
    """Raise ``ValueError`` unless ``family`` answers ``task`` on ``domain``."""
    only = ONLY_TASK.get(family)
    if only is not None and not isinstance(task, only):
        raise ValueError(f"{family.value} does not answer "
                         f"{type(task).__name__.lower()} tasks")
    if family in _BINARY_FAMILIES and not np.array_equal(domain.values, [0.0, 1.0]):
        raise ValueError("binary mechanism families need the {0, 1} domain")


@dataclass(frozen=True, eq=False)
class KeepResample:
    """Keep-or-resample channel q[m][k] = keep [m = k] + redraw resample[k].

    ``resample`` is one distribution shared by every user, shape (d,), or
    one per user, shape (N, d).  ``redraw`` = 1 - keep is stored on its own:
    at large budgets it carries the whole error, and 1 - keep would lose it
    to rounding.
    """

    keep: float
    redraw: float
    resample: np.ndarray

    def posterior(self, priors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior weights (kept, redrawn), each (N, d), for users with the
        given priors: Pr(X = a_m | Y = a_k) = kept[k] [m = k] + redrawn[k] p[m],
        with kept = keep p / lambda, redrawn = redraw r / lambda and lambda
        the output marginal.  Both are 0 at outputs that cannot occur."""
        kept, redrawn = self.keep * priors, self.redraw * self.resample
        lam = kept + redrawn
        return tuple(np.divide(w, lam, out=np.zeros(lam.shape), where=lam > 0.0)
                     for w in (kept, redrawn))


def optimal_channel(family: MechanismFamily, eps: float,
                    priors: np.ndarray) -> KeepResample:
    """The closed-form optimum of ``family`` at budget ``eps`` for users
    with the given (N, d) priors, computed from e^-eps so no finite budget
    overflows.  symmetric-rr shares the binary context-free channel; unary
    encoding is not keep-or-resample and raises ``ValueError``."""
    if family is MechanismFamily.OUE:
        raise ValueError("unary encoding is not a keep-or-resample channel")
    eps = check_epsilon(eps)
    u = math.exp(-eps)
    if family in (MechanismFamily.OPT_BINARY_LIP, MechanismFamily.OPT_MIMO_LIP):
        return KeepResample(keep=-math.expm1(-eps), redraw=u, resample=priors)
    d = priors.shape[-1]
    scale = 1.0 + (d - 1) * u
    return KeepResample(keep=-math.expm1(-eps) / scale, redraw=d * u / scale,
                        resample=np.full(d, 1.0 / d))


@dataclass(frozen=True)
class OUEChannel:
    """Per-bit perturbation parameters for unary (one-hot) encoding."""

    d: int
    keep_prob: float
    flip_up_prob: float

    def bit_channel(self) -> Channel:
        """Each bit's 2x2 channel: rows are a 0 bit and a 1 bit."""
        return _binary_channel(self.flip_up_prob, 1.0 - self.keep_prob)


def _renormalize(matrix: np.ndarray) -> np.ndarray:
    return matrix / matrix.sum(axis=1, keepdims=True)


def _binary_channel(q0: float, q1: float) -> Channel:
    ch = Channel(np.array([[1.0 - q0, q0], [q1, 1.0 - q1]]),
                 Domain.binary(), Domain.binary())
    validate_channel(ch)
    return ch


def budget_feasible_prior_floor(eps: float) -> float:
    """Smallest prior entry for which the closed-form channels actually meet
    their budget: 1/(e^eps + 1).

    Below this floor the kept-value posterior overshoots e^eps times the
    prior and the measured context-aware level is
    :func:`closed_form_lip_level` instead of eps.
    """
    return flip_probability(check_epsilon(eps))


def closed_form_lip_level(p_min: float, eps: float) -> float:
    """Measured context-aware level of the closed-form channel whose
    smallest prior entry is ``p_min``: max(eps, ln((e^eps-1+p_min)/(e^eps p_min))),
    evaluated as max(eps, ln((1-u)/p_min + u)) with u = e^-eps, or as
    ln(1 - u + u p_min) - ln(p_min) where (1-u)/p_min overflows (p_min
    below about 1/DBL_MAX)."""
    eps = check_epsilon(eps)
    if p_min <= 0.0:
        return eps
    u = math.exp(-eps)
    ratio = (1.0 - u) / p_min + u
    if math.isinf(ratio):
        return max(eps, math.log(1.0 - u + u * p_min) - math.log(p_min))
    return max(eps, math.log(ratio))


def opt_binary_lip(p1: float, eps: float) -> Channel:
    """Binary channel with q[0][1] = p1/e^eps and q[1][0] = (1-p1)/e^eps.

    This is the mean-absolute-error-minimizing member of the symmetric
    optimum pair; its output marginal equals the prior.  Its measured
    context-aware level equals eps exactly when
    min(p1, 1-p1) >= 1/(e^eps + 1) and 0 < p1 < 1; for priors more skewed
    than that the construction overshoots its budget (see
    :func:`closed_form_lip_level`).  Degenerate priors still yield a
    valid channel.
    """
    eps = check_epsilon(eps)
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")
    u = math.exp(-eps)
    return _binary_channel(p1 * u, (1.0 - p1) * u)


def opt_binary_ldp(eps: float) -> Channel:
    """Symmetric binary channel with flip probability 1/(e^eps + 1)."""
    flip = flip_probability(check_epsilon(eps))
    return _binary_channel(flip, flip)


def symmetric_rr(eps: float) -> Channel:
    """Same matrix as ``opt_binary_ldp``; kept distinct because it pairs
    with the prior-unaware count estimator."""
    return opt_binary_ldp(eps)


def opt_mimo_lip(p: Prior, eps: float, domain: Domain | None = None) -> Channel:
    """d-ary context-aware optimum for prior ``p``.

    Zero-prior values are never emitted: their columns carry no
    off-diagonal mass, and their rows (which can never fire) follow the
    same formula restricted to the support so the matrix stays row
    stochastic.  The output marginal equals the prior exactly, including
    the zero entries.

    As in the binary case, the measured context-aware level equals eps
    only when every supported prior entry is at least 1/(e^eps + 1);
    more skewed priors overshoot (see :func:`closed_form_lip_level`).
    """
    eps = check_epsilon(eps)
    d = p.size
    domain = domain or Domain.of_size(d)
    if domain.size != d:
        raise ValueError("domain size must match prior size")
    u = math.exp(-eps)
    # off-diagonal columns inherit the prior, so zero-prior columns get no mass
    m = np.tile(p.p * u, (d, 1))
    np.fill_diagonal(m, 1.0 - (1.0 - p.p) * u)
    ch = Channel(_renormalize(m), domain, domain)
    validate_channel(ch)
    return ch


def opt_mimo_ldp(d: int, eps: float, domain: Domain | None = None) -> Channel:
    """d-ary context-free optimum: keep with probability e^eps/(e^eps+d-1)."""
    eps = check_epsilon(eps)
    if d < 2:
        raise ValueError("domain size must be at least 2")
    domain = domain or Domain.of_size(d)
    # e^eps/(e^eps + d - 1) and 1/(e^eps + d - 1), scaled by u = e^-eps
    u = math.exp(-eps)
    m = np.full((d, d), u / (1.0 + (d - 1) * u))
    np.fill_diagonal(m, 1.0 / (1.0 + (d - 1) * u))
    ch = Channel(_renormalize(m), domain, domain)
    validate_channel(ch)
    return ch


def oue_channel(d: int, eps: float) -> OUEChannel:
    """Per-bit parameters for the unary-encoding histogram baseline."""
    eps = check_epsilon(eps)
    if eps == 0.0:
        raise ZeroEpsilonError("unary-encoding estimator needs eps > 0")
    if d < 2:
        raise ValueError("domain size must be at least 2")
    return OUEChannel(d=d, keep_prob=0.5, flip_up_prob=flip_probability(eps))


def _coerce_rng(rng) -> np.random.Generator:
    """``rng`` itself, or a Philox stream for an integer seed of at least 0;
    anything else (None, a bool, a float, a string) raises ``ValueError``
    rather than draw from OS entropy or an unintended seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    check_whole("seed", rng, 0)
    return np.random.Generator(np.random.Philox(rng))


def sample_rows(bounds: np.ndarray, rng: np.random.Generator, *,
                buffers: tuple | None = None) -> np.ndarray:
    """Inverse-CDF sample one index in [0, d-1] per row of ``bounds``, an
    (n, d-1) array of the row-wise cumulative probabilities of every output
    but the last; one uniform draw per row, in order.

    Returns #{k : bounds[k] < u} for u in (0, 1]: a u exactly on a boundary
    resolves to the lower index, so zero-probability outputs are never
    produced, and the last output takes all the mass above the last
    boundary, so a row total rounded below 1 still yields an index.  The
    count is taken in the narrowest unsigned type that holds d-1, over a
    boundary-major (d-1, n) comparison mask, so it sums d-1 contiguous rows;
    it reads fastest when ``bounds`` is itself the transpose view of a
    contiguous (d-1, n) block.

    ``buffers`` is an optional (u, less, counts) triple written in place
    instead of allocated: float64 (n,), bool (d-1, n) and (n,) of the count
    type; the returned indices are then ``counts`` itself.
    """
    n, b = bounds.shape
    u, less, counts = buffers or (np.empty(n), np.empty((b, n), dtype=bool),
                                  np.empty(n, np.min_scalar_type(b)))
    np.subtract(1.0, rng.random(out=u), out=u)
    np.less(bounds, u[:, None], out=less.T)
    # summed as 0/1 bytes: a bool mask would be cast through a buffer first
    return np.add.reduce(less.T.view(np.uint8), axis=1, dtype=counts.dtype, out=counts)


def perturb(q: Channel, x: float, rng) -> float:
    """Sample the published value for true value ``x``; deterministic given
    the generator state (or integer seed)."""
    idx = q.input_domain.index_of(x)
    if idx < 0:
        raise ValueNotInDomainError(f"value {x} not in the input domain")
    k = sample_rows(np.cumsum(q.matrix[[idx], :-1], axis=1), _coerce_rng(rng))[0]
    return float(q.output_domain.values[k])


def perturb_indices(q: Channel, x_idx: np.ndarray, rng) -> np.ndarray:
    """Vector form of :func:`perturb` over input indices, returning output
    indices (in :func:`sample_rows`' unsigned count type); one uniform draw
    per entry, in order."""
    bounds = np.cumsum(q.matrix[:, :-1], axis=1).T  # boundary-major (d-1, d)
    return sample_rows(bounds.take(np.asarray(x_idx, dtype=int), axis=1).T, _coerce_rng(rng))


def oue_perturb(oue: OUEChannel, x_idx: np.ndarray, rng) -> np.ndarray:
    """One-hot encode each input index and perturb every bit independently.

    Returns an (n, d) 0/1 array; draws one uniform per bit, row-major.
    """
    rng = _coerce_rng(rng)
    x_idx = np.asarray(x_idx, dtype=int)
    n = x_idx.shape[0]
    u = rng.random((n, oue.d))
    bits = u < oue.flip_up_prob
    hot = np.zeros((n, oue.d), dtype=bool)
    hot[np.arange(n), x_idx] = True
    bits[hot] = u[hot] < oue.keep_prob
    return bits.astype(np.int8)


def oue_counts(oue: OUEChannel, hot: np.ndarray, rng) -> np.ndarray:
    """Per-bucket counts of set bits in the unary-encoded reports of users
    whose true bucket counts are ``hot``, shape (..., d), without drawing
    the bits: bucket k counts Binomial(n_k, keep) + Binomial(N - n_k, flip)
    with N = the row total.  Both terms come from one ``binomial`` call on a
    stacked (..., 2, d) array, so the draws follow the leading axes in
    order and a stream split into consecutive calls gives the same counts."""
    hot = np.asarray(hot, dtype=np.int64)
    trials = np.stack([hot, hot.sum(axis=-1, keepdims=True) - hot], axis=-2)
    probs = np.array([[oue.keep_prob], [oue.flip_up_prob]])
    return _coerce_rng(rng).binomial(trials, probs).sum(axis=-2)
