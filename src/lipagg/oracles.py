"""Brute-force optimization oracles over privacy-constrained channels.

These deliberately avoid the closed forms elsewhere in the package: the
objective is always the definitional expected squared error of the
posterior-mean estimator, evaluated by enumeration, and the feasible
region comes straight from the prior-to-posterior ratio constraints.
They exist to certify the closed-form optima and the output-range
property at desk scale, not for production use.

The binary oracle is a dense grid (default step 1e-3) with successive
zoom passes around the incumbent; the multi-valued oracles run SLSQP from
a spread of starts under linear constraints, rejecting any solution whose
repaired point violates the constraints.
"""

import numpy as np
from scipy.optimize import minimize

from .core import Prior, check_epsilon
from .errors import BudgetExceededError

_FEAS_SLACK = 1e-9


def _binary_objective(p1, q0, q1):
    """E[(X - E[X|Y])^2] for the binary channel, by enumeration."""
    lam0 = (1.0 - p1) * (1.0 - q0) + p1 * q1
    lam1 = (1.0 - p1) * q0 + p1 * (1.0 - q1)
    with np.errstate(divide="ignore", invalid="ignore"):
        xhat0 = np.where(lam0 > 0.0, p1 * q1 / lam0, 0.0)
        xhat1 = np.where(lam1 > 0.0, p1 * (1.0 - q1) / lam1, 0.0)
    return ((1.0 - p1) * ((1.0 - q0) * xhat0 ** 2 + q0 * xhat1 ** 2)
            + p1 * (q1 * (1.0 - xhat0) ** 2 + (1.0 - q1) * (1.0 - xhat1) ** 2))


def _binary_feasible(p1, q0, q1, eps):
    """Mask of (q0, q1) where all four prior-to-posterior ratios lam/q lie
    in [e^-eps, e^eps], each bound widened by the slack.  The bounds are
    tested against u = e^-eps in product form, so no budget overflows: an
    output with q = 0 breaks the upper bound unless u rounds to 0."""
    lam0 = (1.0 - p1) * (1.0 - q0) + p1 * q1
    lam1 = (1.0 - p1) * q0 + p1 * (1.0 - q1)
    u = np.exp(-eps)
    ok = np.ones_like(q0, dtype=bool)
    for lam, q in ((lam0, q1), (lam1, 1.0 - q1), (lam0, 1.0 - q0), (lam1, q0)):
        ok &= lam >= (u - _FEAS_SLACK) * q
        ok &= ((q > 0.0) & (u * lam <= (1.0 + _FEAS_SLACK * u) * q)) | (u == 0.0)
    return ok


def binary_mse_oracle(p1: float, eps: float, step: float = 1e-3,
                      zooms: int = 5) -> tuple[float, tuple[float, float]]:
    """Grid-search minimum MSE over the feasible binary region.

    Scans the unit square at ``step``, then refines by repeated local
    windows around the incumbent.  The feasible set near a constrained
    optimum is a narrow wedge, so each refinement window spans +-8 of the
    current spacing and pans (same spacing, re-centered) whenever the
    incumbent lands near a window edge before shrinking 5x.  Default
    settings land within ~1e-6 of the constrained optimum.
    """
    eps = check_epsilon(eps)

    def scan(g0, g1, best):
        q0, q1 = np.meshgrid(g0, g1, indexing="ij")
        ok = _binary_feasible(p1, q0, q1, eps)
        at_edge = False
        if ok.any():
            obj = np.where(ok, _binary_objective(p1, q0, q1), np.inf)
            idx = np.unravel_index(np.argmin(obj), obj.shape)
            if obj[idx] < best[0]:
                best = (float(obj[idx]), (float(q0[idx]), float(q1[idx])))
                n0, n1 = obj.shape
                at_edge = (idx[0] <= 1 or idx[0] >= n0 - 2
                           or idx[1] <= 1 or idx[1] >= n1 - 2)
        return best, at_edge

    axis = np.arange(0.0, 1.0 + step / 2.0, step)
    best, _ = scan(axis, axis, (np.inf, (0.0, 0.0)))
    if not np.isfinite(best[0]):
        raise BudgetExceededError("no feasible grid point at the base step")

    spacing = step
    for _ in range(zooms):
        for _ in range(12):  # pan while the incumbent sits on the window edge
            b0, b1 = best[1]
            half = 8.0 * spacing
            g0 = np.linspace(max(0.0, b0 - half), min(1.0, b0 + half), 81)
            g1 = np.linspace(max(0.0, b1 - half), min(1.0, b1 + half), 81)
            best, at_edge = scan(g0, g1, best)
            if not at_edge:
                break
        spacing /= 5.0
    return best


def _value_mse(Q, p, values):
    """Enumerated E[(X - E[X|Y])^2] for channel matrix Q."""
    lam = p @ Q
    t = (p * values) @ Q
    with np.errstate(divide="ignore", invalid="ignore"):
        xhat = np.where(lam > 0.0, t / lam, 0.0)
    gap2 = (values[:, None] - xhat[None, :]) ** 2
    return float(np.sum(p[:, None] * Q * gap2))


def _histogram_mse(Q, p, _values):
    """Enumerated sum over categories of E[(1{X=a_k} - Pr(X=a_k|Y))^2]."""
    return sum(_value_mse(Q, p, indicator) for indicator in np.eye(p.shape[0]))


def _feasible(Q, p, u):
    """Whether Q is row-stochastic and u lam <= Q <= lam / u (u = e^-eps),
    each within 1e-7 probability units; the upper bound is tested as
    u (Q - tol) <= lam so that no budget overflows."""
    lam, tol = p @ Q, 1e-7
    return bool(np.all(u * (Q - tol) <= lam[None, :])
                and np.all(u * lam[None, :] - Q <= tol)
                and np.all(np.abs(Q.sum(axis=1) - 1.0) <= tol)
                and np.all(Q >= -tol))


def _starts(d_in, d_out, p, rng, n_random):
    # constant channels are always feasible
    out = [np.full((d_in, d_out), 1.0 / d_out)]
    if d_in == d_out:
        out.append(np.tile(p, (d_in, 1)))
        for t in (0.2, 0.5, 0.8):
            out.append((1.0 - t) * np.tile(p, (d_in, 1)) + t * np.eye(d_in))
    else:
        base = np.zeros((d_in, d_out))
        for i in range(d_in):
            base[i, i % d_out] = 1.0
        for t in (0.3, 0.7):
            out.append((1.0 - t) * np.full((d_in, d_out), 1.0 / d_out) + t * base)
    for _ in range(n_random):
        out.append(rng.dirichlet(np.ones(d_out), size=d_in))
    return out


def constrained_channel_search(p: Prior, eps: float, d_out: int, objective,
                               n_random_starts: int = 12, seed: int = 0,
                               maxiter: int = 400) -> tuple[float, np.ndarray]:
    """Minimize ``objective(Q, p, values)`` over d_in x d_out row-stochastic
    matrices whose prior-to-posterior ratios stay within [e^-eps, e^eps].

    Both ratio bounds are linear in Q once written against the output
    marginal, so SLSQP sees a polytope; nonconvexity lives only in the
    objective, which the multi-start sweep covers.  Candidate solutions are
    clipped, row-renormalized and re-checked; infeasible ones are dropped.
    The constant channel is always evaluated as a feasible fallback.
    """
    eps = check_epsilon(eps)
    pv = p.p
    d_in = pv.shape[0]
    values = np.arange(d_in, dtype=float)
    u = np.exp(-eps)
    rng = np.random.Generator(np.random.Philox(seed))

    def flat_obj(x):
        return objective(x.reshape(d_in, d_out), pv, values)

    def ineq(x):
        Q = x.reshape(d_in, d_out)
        lam = pv @ Q
        upper = (lam[None, :] - u * Q).ravel()
        lower = (Q - u * lam[None, :]).ravel()
        return np.concatenate([upper, lower])

    def rowsum(x):
        return x.reshape(d_in, d_out).sum(axis=1) - 1.0

    constraints = [{"type": "ineq", "fun": ineq},
                   {"type": "eq", "fun": rowsum}]
    bounds = [(0.0, 1.0)] * (d_in * d_out)

    candidates = []
    const = np.full((d_in, d_out), 1.0 / d_out)
    candidates.append((objective(const, pv, values), const))

    for start in _starts(d_in, d_out, pv, rng, n_random_starts):
        res = minimize(flat_obj, start.ravel(), method="SLSQP", bounds=bounds,
                       constraints=constraints,
                       options={"maxiter": maxiter, "ftol": 1e-12})
        Q = np.clip(res.x.reshape(d_in, d_out), 0.0, 1.0)
        sums = Q.sum(axis=1, keepdims=True)
        if np.any(sums <= 0.0):
            continue
        Q = Q / sums
        if not _feasible(Q, pv, u):
            continue
        candidates.append((objective(Q, pv, values), Q))

    if not candidates:
        raise BudgetExceededError("no feasible candidate found")
    candidates.sort(key=lambda c: c[0])
    return candidates[0]


def mimo_mse_oracle(p: Prior, eps: float, values=None, **kw) -> float:
    """Best per-user value MSE over square LIP-feasible channels."""
    d = p.size
    if values is None:
        obj = _value_mse
    else:
        vals = np.asarray(values, dtype=float)

        def obj(Q, pv, _ignored):
            return _value_mse(Q, pv, vals)

    best, _ = constrained_channel_search(p, eps, d, obj, **kw)
    return best


def histogram_mse_oracle(p: Prior, eps: float, **kw) -> float:
    """Best per-user histogram MSE over square LIP-feasible channels."""
    best, _ = constrained_channel_search(p, eps, p.size, _histogram_mse, **kw)
    return best


def output_range_oracle(d: int, f: int, p: Prior, eps: float,
                        values=None, **kw) -> float:
    """Best per-user value MSE over d x f LIP-feasible channels.

    Used to check that widening or narrowing the output alphabet away from
    f = d never helps; unused output columns are allowed (they simply carry
    no marginal mass and no constraints bind on them).
    """
    if p.size != d:
        raise ValueError("prior size must equal the input size")
    if f < 1:
        raise ValueError("output size must be at least 1")
    vals = np.arange(d, dtype=float) if values is None else np.asarray(values, float)
    if f == 1:
        # one column: the output is constant and carries nothing
        var = float(np.dot(p.p, vals ** 2) - np.dot(p.p, vals) ** 2)
        return var

    def obj(Q, pv, _ignored):
        return _value_mse(Q, pv, vals)

    best, _ = constrained_channel_search(p, eps, f, obj, **kw)
    return best
