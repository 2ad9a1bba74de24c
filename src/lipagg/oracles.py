"""Exact optimization oracles over context-aware (LIP) channels.

A channel splits the prior p into posteriors pi_k with weights w_k
(sum_k w_k pi_k = p), and it is eps-LIP iff every pi_k lies in the box
B = {pi in the simplex : u p <= pi, u pi <= p}, u = e^-eps.  The error of
the posterior mean of g is E|g|^2 - sum_k w_k |g^T pi_k|^2, convex in each
pi_k, so the optimum over channels of any output size is the linear program
over splits onto the vertices of B (the LIP analogue of the LDP
extremal-mechanism LP, Kairouz, Oh & Viswanath 2014; concavification,
Kamenica & Gentzkow 2011).  A basic solution uses at most d vertices.

These oracles import no closed form: the feasible set is the definitional
ratio box and the reported error is the enumerated error of the built
channel.  They certify the closed-form optima and the output-range property.
"""

import math

import numpy as np

from .analysis import posterior_mean_mse
from .core import Channel, Prior, check_epsilon
from .errors import DimensionMismatchError, NoFeasiblePointError


def _box_vertices(p, u, s):
    """The vertices of B for a prior with no zero entry, in the coordinates
    a = (pi - u p) / s, s = 1 - u: the simplex under hi = min(p (1 + u) / u,
    1 + u (1 - p) / s).  A vertex has all coordinates but one at 0 or hi and
    the free one in [0, hi].  A tiny box is as well scaled as a wide one, and
    p (1 + u) / u is formed only where p <= u, so no budget overflows."""
    n = p.shape[0]
    # the second bound is used only where p > u, which forces s > 0
    hi = np.divide(p * (1.0 + u), u, out=1.0 + u * (1.0 - p) / max(s, 1e-300),
                   where=p <= u)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    corners = np.where(bits == 1, hi, 0.0)
    free = 1.0 - corners.sum(axis=1, keepdims=True)
    ok = (bits == 0) & (free >= -1e-14) & (free <= hi + 1e-14)
    cand = np.where(np.eye(n, dtype=bool), np.clip(free, 0.0, hi)[:, :, None],
                    corners[:, None, :])
    return np.unique(cand[ok], axis=0)


def _split_optimum(p: Prior, eps: float, g) -> tuple[float, np.ndarray]:
    """Minimum posterior-mean error of g over eps-LIP channels for p, and
    the channel Q[m, k] = w_k pi_k[m] / p_m that reaches it.

    Under sum_k w_k a_k = p the objective is a constant plus s^2 times
    sum_k w_k |g^T a_k|^2.  HiGHS meets constraints only to 1e-7, so the
    weights are re-solved by NNLS for Q's row sums on the LP's optimal face.
    Zero-prior rows (which never fire) get the output marginal.  Outputs are
    ordered by ascending posterior mean.
    """
    from scipy.optimize import linprog, nnls  # loaded on first use, off lipagg's import path

    eps = check_epsilon(eps)
    pv, d = p.p, p.size
    g = g.reshape(d, -1)
    u, s = math.exp(-eps), -math.expm1(-eps)
    sup = np.flatnonzero(pv > 0.0)
    verts = _box_vertices(pv[sup], u, s)
    phi = np.sum((verts @ g[sup]) ** 2, axis=1)
    lp = linprog(-phi, A_eq=verts.T, b_eq=pv[sup], bounds=(0, None),
                 method="highs")
    face = np.flatnonzero(lp.lower.marginals <= 1e-9 * max(1.0, phi.max()))
    ratio = u + s * verts[face] / pv[sup]
    w, miss = nnls(ratio.T, np.ones(sup.shape[0]))
    if miss > 1e-12:
        raise NoFeasiblePointError(f"the split misses the row sums by {miss:.1e}: "
                                   "prior entries below the LP's tolerance")
    keep = np.flatnonzero(w > 0.0)
    keep = keep[np.argsort(verts[face[keep]] @ sup, kind="stable")]
    Q = np.zeros((d, max(d, keep.shape[0])))
    Q[:, :keep.shape[0]] = w[keep]
    Q[sup, :keep.shape[0]] = (w[keep, None] * ratio[keep]).T
    return posterior_mean_mse(Channel(Q), pv, g), Q


def _values(p: Prior, values) -> np.ndarray:
    if values is None:
        return np.arange(p.size, dtype=float)
    vals = np.asarray(values, dtype=float)
    if vals.shape != (p.size,):
        raise DimensionMismatchError(
            f"{vals.size} values for a prior of size {p.size}")
    return vals


def binary_mse_oracle(p1: float, eps: float) -> tuple[float, tuple[float, float]]:
    """Minimum binary MSE over eps-LIP channels and its flip probabilities
    (Pr(Y=1|X=0), Pr(Y=0|X=1))."""
    mse, Q = _split_optimum(Prior.binary(p1), eps, np.array([0.0, 1.0]))
    return mse, (float(Q[0, 1]), float(Q[1, 0]))


def mimo_mse_oracle(p: Prior, eps: float, values=None) -> float:
    """Minimum per-user value MSE over eps-LIP channels (values default to
    0..d-1)."""
    return _split_optimum(p, eps, _values(p, values))[0]


def histogram_mse_oracle(p: Prior, eps: float) -> float:
    """Minimum per-user histogram MSE over eps-LIP channels."""
    return _split_optimum(p, eps, np.eye(p.size))[0]


def output_range_oracle(d: int, f: int, p: Prior, eps: float,
                        values=None) -> float:
    """Minimum per-user value MSE over d x f eps-LIP channels: the prior
    variance at f = 1 (one column carries nothing), the split optimum at
    f >= d.  1 < f < d raises ``ValueError``: there the optimum can place
    posteriors on edges of B, not only on its vertices."""
    if p.size != d:
        raise ValueError("prior size must equal the input size")
    if f != 1 and f < d:
        raise ValueError(f"output size {f} is neither 1 nor at least d={d}")
    vals = _values(p, values)
    if f == 1:
        return float(np.dot(p.p, vals ** 2) - np.dot(p.p, vals) ** 2)
    return mimo_mse_oracle(p, eps, vals)
