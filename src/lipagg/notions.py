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
    m = q.matrix[:, np.any(q.matrix > 0.0, axis=0)]  # outputs some input emits
    if not np.all(m > 0.0):
        return math.inf
    return float(np.log(m.max(axis=0) / m.min(axis=0)).max(initial=0.0))


def _log_ratio(q: Channel, p: Prior):
    """The output marginal lam and ln(q[x][y] / lam[y]) (0 where lam is 0,
    -inf where q is 0).  Where the ratio overflows, which needs lam below
    q / DBL_MAX and so a prior entry below 1/DBL_MAX, it is ln q - ln lam."""
    lam, ratio, _ = posterior_ratio(q.matrix, p.p)
    with np.errstate(divide="ignore"):
        logs = np.log(ratio)
    over = logs == math.inf
    if over.any():
        logs[over] = (np.log(q.matrix[over])
                      - np.log(np.broadcast_to(lam, logs.shape)[over]))
    return lam, logs


def measure_lip(q: Channel, p: Prior) -> float:
    """Largest absolute log prior-to-posterior ratio over reachable (x, y).

    Returns +inf when q[x][y] = 0 for a reachable pair (observing y rules
    x out entirely).
    """
    lam, logs = _log_ratio(q, p)
    return float(np.abs(logs[np.ix_(p.p > 0.0, lam > 0.0)]).max(initial=0.0))


def measure_mip(q: Channel, p: Prior) -> float:
    """Mutual information I(X; Y) in nats; zero-probability terms contribute 0."""
    _, logs = _log_ratio(q, p)
    joint = p.p[:, None] * q.matrix
    mask = joint > 0.0
    return max(0.0, float(np.sum(joint[mask] * logs[mask])))


def audit(q: Channel, p: Prior) -> PrivacyAudit:
    """Measure all three levels and verify the relations among them.

    Raises ``InternalInconsistencyError`` if the measurements violate
    lip <= ldp, ldp <= 2*lip (full-support prior) or I(X;Y) <= lip.
    """
    ldp = measure_ldp(q)
    lip = measure_lip(q, p)
    mip = measure_mip(q, p)
    if math.isfinite(ldp) and math.isfinite(lip):
        # ldp also compares the rows of zero-prior inputs, which lip leaves out
        if lip > ldp + _AUDIT_SLACK or (ldp > 2.0 * lip + _AUDIT_SLACK and p.p.all()):
            raise InternalInconsistencyError(
                f"sandwich violated: lip={lip}, ldp={ldp}")
    if math.isfinite(lip) and mip > lip + _AUDIT_SLACK:
        raise InternalInconsistencyError(
            f"average leakage {mip} exceeds worst-case level {lip}")
    return PrivacyAudit(ldp_eps=ldp, lip_eps=lip, mip_nats=mip)
