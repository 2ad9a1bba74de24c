"""Numeric audits of a channel against the three local privacy notions.

For a channel q and prior p with output marginal lambda:

* context-free level: max over outputs and input pairs of
  ln(q[x][y] / q[x'][y]),
* context-aware level: max over reachable (x, y) of |ln(q[x][y] / lambda[y])|,
* average leakage: the mutual information I(X; Y) in nats.

The levels satisfy lip <= ldp, I(X;Y) <= lip and, for a prior with no zero
entry, ldp <= 2 * lip; ``audit`` re-checks them and treats a violation as a bug.

Pairs (x, y) with p[x] = 0 or lambda[y] = 0 are excluded from the
context-aware maximization: the posterior is undefined on events that can
never occur, and the constraints quantify only over realizable ones.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Channel, Prior, posterior_ratio
from .errors import InternalInconsistencyError

_AUDIT_SLACK = 1e-9


@dataclass(frozen=True)
class PrivacyAudit:
    ldp_eps: float
    lip_eps: float
    mip_nats: float


def measure_ldp(q: Channel) -> float:
    """Largest log-likelihood ratio between any two rows; +inf when some
    output is possible under one input but impossible under another."""
    hi, lo = q.matrix.max(axis=0), q.matrix.min(axis=0)
    if not lo.min() > 0.0:  # some input never emits some output
        emitted = hi > 0.0  # outputs some input emits
        if not (lo[emitted] > 0.0).all():
            return math.inf
        hi, lo = hi[emitted], lo[emitted]
    with np.errstate(over="ignore"):
        level = float(np.log(hi / lo).max(initial=0.0))
    # hi / lo overflows only through a subnormal entry, whose column then has
    # the largest ratio: take its log as ln hi - ln lo
    return level if level < math.inf else float((np.log(hi) - np.log(lo)).max())


def _log_ratio(q: Channel, p: Prior) -> np.ndarray:
    """ln(q[x][y] / lam[y]) for the output marginal lam: 0 where lam is 0,
    so an output that cannot occur adds nothing to a maximum, and -inf
    where q is 0.  Where the ratio overflows, which needs lam below
    q / DBL_MAX and so a prior entry below 1/DBL_MAX, it is ln q - ln lam."""
    lam, logs = posterior_ratio(q.matrix, p.p, posterior=False)
    with np.errstate(divide="ignore"):
        np.log(logs, out=logs, where=lam > 0.0)  # the ratio is 0 where lam is 0
    over = logs == math.inf
    if over.any():
        logs[over] = (np.log(q.matrix[over])
                      - np.log(np.broadcast_to(lam, logs.shape)[over]))
    return logs


def _lip(p: Prior, logs: np.ndarray) -> float:
    # rows of inputs that occur; outputs that cannot occur read 0 in logs
    return float(np.abs(logs[p.p > 0.0]).max(initial=0.0))


def _mip(q: Channel, p: Prior, logs: np.ndarray) -> float:
    joint = p.p[:, None] * q.matrix
    mask = joint > 0.0
    terms = joint[mask]
    terms *= logs[mask]
    return max(0.0, float(terms.sum()))


def measure_lip(q: Channel, p: Prior) -> float:
    """Largest absolute log prior-to-posterior ratio over reachable (x, y).

    Returns +inf when q[x][y] = 0 for a reachable pair (observing y rules
    x out entirely).
    """
    return _lip(p, _log_ratio(q, p))


def measure_mip(q: Channel, p: Prior) -> float:
    """Mutual information I(X; Y) in nats; zero-probability terms contribute 0."""
    return _mip(q, p, _log_ratio(q, p))


def audit(q: Channel, p: Prior) -> PrivacyAudit:
    """Measure all three levels and verify the relations among them; the
    two context-aware levels share one Bayes step.

    Raises ``InternalInconsistencyError`` if the measurements violate
    lip <= ldp, ldp <= 2*lip (full-support prior) or I(X;Y) <= lip.
    """
    ldp = measure_ldp(q)
    logs = _log_ratio(q, p)
    lip = _lip(p, logs)
    mip = _mip(q, p, logs)
    if math.isfinite(ldp) and math.isfinite(lip):
        # ldp also compares the rows of zero-prior inputs, which lip leaves out
        if lip > ldp + _AUDIT_SLACK or (ldp > 2.0 * lip + _AUDIT_SLACK and p.p.all()):
            raise InternalInconsistencyError(
                f"sandwich violated: lip={lip}, ldp={ldp}")
    if math.isfinite(lip) and mip > lip + _AUDIT_SLACK:
        raise InternalInconsistencyError(
            f"average leakage {mip} exceeds worst-case level {lip}")
    return PrivacyAudit(ldp_eps=ldp, lip_eps=lip, mip_nats=mip)
