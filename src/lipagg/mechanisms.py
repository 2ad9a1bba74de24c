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

All four optima keep the true value with probability a and otherwise
publish a draw from a fixed r: a = 1 - e^-eps and r = the prior
(context-aware), a = (e^eps - 1)/(e^eps + d - 1) and r uniform
(context-free).  :func:`optimal_channel` returns that form, evaluated from
e^-eps so no finite budget overflows; the harness and the closed-form
errors read it directly, and the dense ``opt_*`` channels are its
:meth:`KeepResample.matrix`, the one formula for every entry.  The tests
re-derive each entry from the e^eps expressions above, by explicit loops in
``tests/conftest.py``, as the independent reference.
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

    Every family but OUE is a keep-or-resample channel
    (:func:`optimal_channel`), whose dense matrix is
    :meth:`KeepResample.matrix`; ``tests/conftest.py`` re-derives it entry
    by entry as the independent reference.  SYMMETRIC_RR shares the
    OPT_BINARY_LDP channel but is paired with the prior-unaware count
    estimator rather than the posterior-mean one; OUE is only valid for
    histogram-style tasks.
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
        raise ValueError(f"unknown mechanism family {tag!r}, not one of "
                         f"{', '.join(fam.value for fam in MechanismFamily)}")


# Family x task compatibility: the prior-unaware estimators answer one task
# each (the count estimator surveys, unary decoding histograms); every other
# family answers all four.  The binary families need the {0, 1} domain.
ONLY_TASK = {MechanismFamily.SYMMETRIC_RR: Survey, MechanismFamily.OUE: Histogram}
_BINARY_FAMILIES = (MechanismFamily.OPT_BINARY_LIP, MechanismFamily.OPT_BINARY_LDP,
                    MechanismFamily.SYMMETRIC_RR)


def check_family_task(family, task, domain: Domain, eps_grid) -> MechanismFamily:
    """The member ``family`` (or its tag) names, if it answers ``task`` on
    ``domain`` at every budget of ``eps_grid``; ``ValueError`` otherwise, and
    ``ZeroEpsilonError`` at eps = 0 for a prior-unaware family, whose
    estimator divides by 1 - 2f = 0.  A ``task`` of None checks the domain alone."""
    family = MechanismFamily.from_tag(family)
    only = ONLY_TASK.get(family)
    if only is not None and task is not None and not isinstance(task, only):
        raise ValueError(f"{family.value} does not answer "
                         f"{type(task).__name__.lower()} tasks")
    if family in _BINARY_FAMILIES and not np.array_equal(domain.values, [0.0, 1.0]):
        raise ValueError("binary mechanism families need the {0, 1} domain")
    if only is not None and 0.0 in eps_grid:
        raise ZeroEpsilonError("prior-unaware estimator undefined at eps = 0")
    return family


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
        the output marginal.  Both are 0 at outputs that cannot occur; where
        r is the prior, lambda = p and they are (keep, redraw) to a few ulp."""
        kept, redrawn = self.keep * priors, self.redraw * self.resample
        lam = kept + redrawn
        return tuple(np.divide(w, lam, out=np.zeros(lam.shape), where=lam > 0.0)
                     for w in (kept, redrawn))

    def matrix(self) -> np.ndarray:
        """The dense channel: redraw r[k] off the diagonal and
        keep + redraw r[m] on it, a sum of nonnegative terms, rows
        renormalized to absorb rounding so that it passes
        ``validate_channel``; (d, d) for a shared ``resample``, (N, d, d) for
        per-user ones.  A zero r[k] leaves column k empty off the diagonal,
        and row k (which never fires) stays stochastic."""
        r = self.resample
        d = r.shape[-1]
        m = np.empty(r.shape[:-1] + (d, d))
        np.multiply(self.redraw, r[..., None, :], out=m)
        m.reshape(r.shape[:-1] + (d * d,))[..., ::d + 1] += self.keep  # the diagonal
        return np.divide(m, m.sum(axis=-1, keepdims=True), out=m)


def optimal_channel(family: MechanismFamily, eps: float,
                    priors: np.ndarray) -> KeepResample:
    """The closed-form optimum of ``family`` at budget ``eps`` for users
    with the given (N, d) priors, computed from e^-eps so no finite budget
    overflows.  symmetric-rr shares the binary context-free channel; unary
    encoding and non-members (tags included) raise ``ValueError``.  The
    context-aware optima return ``resample=priors`` itself."""
    if not isinstance(family, MechanismFamily):
        raise ValueError(f"not a MechanismFamily member: {family!r}")
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
        return _validated(np.array([[1.0 - self.flip_up_prob, self.flip_up_prob],
                                    [1.0 - self.keep_prob, self.keep_prob]]))


def _validated(matrix: np.ndarray, domain: Domain | None = None) -> Channel:
    ch = Channel(matrix, domain, domain)
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
    below about 1/DBL_MAX).  A ``p_min`` outside [0, 1] (or NaN) raises
    ``ValueError``."""
    eps = check_epsilon(eps)
    if not 0.0 <= p_min <= 1.0:
        raise ValueError(f"p_min must lie in [0, 1], got {p_min}")
    if p_min <= 0.0:
        return eps
    u = math.exp(-eps)
    ratio = (1.0 - u) / p_min + u
    if math.isinf(ratio):
        return max(eps, math.log(1.0 - u + u * p_min) - math.log(p_min))
    return max(eps, math.log(ratio))


def opt_binary_lip(p1: float, eps: float) -> Channel:
    """Binary context-aware optimum, q[0][1] = p1/e^eps and
    q[1][0] = (1-p1)/e^eps: the member of the symmetric optimum pair that
    also minimizes the mean absolute perturbation.  Like
    :func:`opt_mimo_lip`, it meets its budget only when
    min(p1, 1-p1) >= 1/(e^eps + 1), and degenerate priors still yield a
    valid channel."""
    prior = Prior.binary(p1).p
    return _validated(optimal_channel(MechanismFamily.OPT_BINARY_LIP, eps, prior).matrix())


def opt_binary_ldp(eps: float) -> Channel:
    """Symmetric binary channel with flip probability 1/(e^eps + 1)."""
    uniform = np.full(2, 0.5)
    return _validated(optimal_channel(MechanismFamily.OPT_BINARY_LDP, eps, uniform).matrix())


def opt_mimo_lip(p: Prior, eps: float, domain: Domain | None = None) -> Channel:
    """d-ary context-aware optimum for prior ``p``; its output marginal
    equals the prior, zero entries included, since zero-prior values are
    never emitted.  The measured context-aware level equals eps only when
    every supported prior entry is at least 1/(e^eps + 1); more skewed
    priors overshoot (see :func:`closed_form_lip_level`)."""
    return _validated(optimal_channel(MechanismFamily.OPT_MIMO_LIP, eps, p.p).matrix(), domain)


def opt_mimo_ldp(d: int, eps: float, domain: Domain | None = None) -> Channel:
    """d-ary context-free optimum: keep with probability e^eps/(e^eps+d-1)."""
    check_whole("domain size", d, 2)
    uniform = np.full(d, 1.0 / d)
    return _validated(optimal_channel(MechanismFamily.OPT_MIMO_LDP, eps, uniform).matrix(), domain)


def oue_channel(d: int, eps: float) -> OUEChannel:
    """Per-bit parameters for the unary-encoding histogram baseline."""
    eps = check_epsilon(eps)
    if eps == 0.0:
        raise ZeroEpsilonError("unary-encoding estimator needs eps > 0")
    check_whole("domain size", d, 2)
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
                kept: np.ndarray | None = None, x: np.ndarray | None = None,
                buffers: tuple | None = None) -> np.ndarray:
    """Inverse-CDF sample one index in [0, d-1] per draw from ``bounds``, a
    boundary-major (d-1, k) table of the cumulative probabilities of every
    output but the last, with one column per user (k = N; draw i reads
    column i mod N) or one shared by every draw (k = 1).  One uniform is
    drawn per entry of ``x`` if given, else per draw of ``buffers``, else
    per column, in order.

    Returns #{j : bounds[j] < u} for u in (0, 1]: a u exactly on a boundary
    resolves to the lower index, so zero-probability outputs are never
    produced, and the last output takes all the mass above the last
    boundary, so a column total rounded below 1 still yields an index.  The
    count is taken in the narrowest unsigned type that holds d-1, over a
    boundary-major (d-1, s) comparison mask for s draws, so it sums d-1
    contiguous rows.

    ``kept`` and ``x`` sample a keep-or-resample channel without building
    its CDF keep [j >= x] + tail_j, tail_j = redraw cumsum(r)_j: ``bounds``
    then holds the tails, ``kept`` keep + tails, both (d-1, k), and ``x``
    the (trials, N) true indices in the count type.  The draws are read
    trial-major, and the index, returned flat in that order, is
    max(c', min(c, x)), with c = #{j : tail_j < u} and
    c' = #{j : keep + tail_j < u}.  That is the count over the full CDF,
    bit for bit: both sequences are nondecreasing, and rounding keeps them
    so, so #{j < x : tail_j < u} + #{j >= x : keep + tail_j < u} is
    min(c, x) + max(c' - x, 0), which is the clamp.

    ``buffers`` is an optional (u, less, counts) triple written in place
    instead of allocated, for s draws: float64 (s,), bool (d-1, s) and (s,)
    of the count type; the returned indices are then ``counts`` itself.  A
    fourth array like ``counts`` holds c' for the clamp.
    """
    b, k = bounds.shape
    s = k if x is None else x.size  # draws, unless ``buffers`` sizes them
    u, less, counts, *spare = buffers or (np.empty(s), np.empty((b, s), dtype=bool),
                                          np.empty(s, np.min_scalar_type(b)))
    np.subtract(1.0, rng.random(out=u), out=u)
    # (d-1, 1, k) boundaries against (s/k, k) draws; the mask is summed as
    # 0/1 bytes, since a bool mask would be cast through a buffer first
    draws, mask, ones = u.reshape(-1, k), less.reshape(b, -1, k), less.view(np.uint8)
    np.less(bounds[:, None], draws, out=mask)
    np.add.reduce(ones, axis=0, dtype=counts.dtype, out=counts)
    if x is None:
        return counts
    over = spare[0] if spare else np.empty_like(counts)
    np.minimum(counts, x.reshape(-1), out=counts)
    np.less(kept[:, None], draws, out=mask)
    return np.maximum(counts, np.add.reduce(ones, axis=0, dtype=counts.dtype, out=over),
                      out=counts)


def perturb(q: Channel, x: float, rng) -> float:
    """Sample the published value for true value ``x``; deterministic given
    the generator state (or integer seed)."""
    idx = q.input_domain.index_of(x)
    if idx < 0:
        raise ValueNotInDomainError(f"value {x} not in the input domain")
    k = sample_rows(np.cumsum(q.matrix[idx, :-1])[:, None], _coerce_rng(rng))[0]
    return float(q.output_domain.values[k])


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
