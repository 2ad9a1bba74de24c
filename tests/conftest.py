"""Shared test helpers: independent enumeration oracles and random inputs.

The enumeration functions here deliberately re-derive every quantity from
definitions with explicit loops; they must stay independent of the package
implementations they are used to check.
"""

import itertools
import math

import numpy as np
import pytest

from lipagg import Channel, Domain, Prior
from lipagg.mechanisms import _coerce_rng, sample_rows


def random_channel(rng, d_in, d_out=None, concentration=1.0) -> Channel:
    d_out = d_out or d_in
    m = rng.dirichlet(np.full(d_out, concentration), size=d_in)
    return Channel(m, Domain.of_size(d_in), Domain.of_size(d_out))


def random_prior(rng, d, concentration=1.0) -> Prior:
    return Prior(rng.dirichlet(np.full(d, concentration)))


def enum_value_mse(matrix, pvec, values):
    """E[(X - E[X|Y])^2] from the definition, by explicit loops."""
    d_in, d_out = matrix.shape
    lam = [sum(pvec[m] * matrix[m][k] for m in range(d_in)) for k in range(d_out)]
    xhat = []
    for k in range(d_out):
        if lam[k] > 0:
            xhat.append(sum(values[m] * pvec[m] * matrix[m][k]
                            for m in range(d_in)) / lam[k])
        else:
            xhat.append(0.0)
    total = 0.0
    for m in range(d_in):
        for k in range(d_out):
            total += pvec[m] * matrix[m][k] * (values[m] - xhat[k]) ** 2
    return total


def enum_histogram_mse(matrix, pvec):
    """Sum over categories of E[(1{X=a_k} - Pr(X=a_k|Y))^2], by loops."""
    d = matrix.shape[0]
    total = 0.0
    for k in range(d):
        indicator = [1.0 if m == k else 0.0 for m in range(d)]
        total += enum_value_mse(matrix, pvec, indicator)
    return total


def enum_mae(matrix, pvec, values_in, values_out=None):
    """Mean absolute perturbation E|X - Y| = sum |a_m - a_k| p[m] q[m][k],
    by explicit loops; the output values default to the input values."""
    values_out = values_in if values_out is None else values_out
    total = 0.0
    for m in range(matrix.shape[0]):
        for k in range(matrix.shape[1]):
            total += abs(values_in[m] - values_out[k]) * pvec[m] * matrix[m][k]
    return total


def enum_optimum(family, pvec, eps):
    """The closed-form optimum of ``family`` (a tag or a member) for prior
    ``pvec`` at budget ``eps``, entry by entry from the e^eps expressions:

    * opt-binary-lip: q[0][1] = p1/e^eps, q[1][0] = (1-p1)/e^eps;
    * opt-binary-ldp: flip probability 1/(e^eps + 1);
    * opt-mimo-lip: q[m][m] = 1 - (1-p[m])/e^eps, q[m][k] = p[k]/e^eps;
    * opt-mimo-ldp: q[m][m] = e^eps/(e^eps + d - 1), q[m][k] = 1/(e^eps + d - 1).
    """
    tag = getattr(family, "value", family)
    e = math.exp(eps)
    d = len(pvec)
    if tag == "opt-binary-lip":
        p1 = pvec[1]
        return np.array([[1.0 - p1 / e, p1 / e], [(1.0 - p1) / e, 1.0 - (1.0 - p1) / e]])
    if tag == "opt-binary-ldp":
        flip = 1.0 / (e + 1.0)
        return np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])
    matrix = np.empty((d, d))
    for m in range(d):
        for k in range(d):
            if tag == "opt-mimo-lip":
                matrix[m][k] = 1.0 - (1.0 - pvec[m]) / e if m == k else pvec[k] / e
            else:
                matrix[m][k] = (e if m == k else 1.0) / (e + d - 1)
    return matrix


def perturb_indices(q, x_idx, rng):
    """Vector form of ``perturb`` over input indices, returning output
    indices: the same boundaries and the same one uniform draw per entry,
    in order, so it must match ``perturb`` draw for draw."""
    bounds = np.cumsum(q.matrix[:, :-1], axis=1).T  # boundary-major (d-1, d)
    return sample_rows(bounds.take(np.asarray(x_idx, dtype=int), axis=1), _coerce_rng(rng))


def oue_perturb(oue, x_idx, rng):
    """One-hot encode each input index and perturb every bit independently,
    one uniform per bit, row-major: the bit-level reference for the
    per-bucket counts the harness draws.  Returns an (n, d) 0/1 array."""
    x_idx = np.asarray(x_idx, dtype=int)
    n = x_idx.shape[0]
    u = rng.random((n, oue.d))
    bits = u < oue.flip_up_prob
    hot = np.zeros((n, oue.d), dtype=bool)
    hot[np.arange(n), x_idx] = True
    bits[hot] = u[hot] < oue.keep_prob
    return bits.astype(np.int8)


def enum_output_marginal(matrix, pvec):
    """lambda[y] = sum_x p[x] q[x][y], by explicit loops."""
    d_in, d_out = matrix.shape
    return [sum(pvec[x] * matrix[x][y] for x in range(d_in)) for y in range(d_out)]


def enum_ldp_level(matrix):
    """Max over outputs y and input pairs (x, x') of ln(q[x][y] / q[x'][y]);
    +inf when y is possible under x and impossible under x'."""
    d_in, d_out = matrix.shape
    worst = 0.0
    for y in range(d_out):
        for x in range(d_in):
            for x2 in range(d_in):
                if matrix[x][y] > 0.0:
                    if matrix[x2][y] <= 0.0:
                        return math.inf
                    worst = max(worst, math.log(matrix[x][y] / matrix[x2][y]))
    return worst


def enum_lip_level(matrix, pvec):
    """Max over pairs with p[x] > 0 and lambda[y] > 0 of
    |ln(Pr(X=x|Y=y) / Pr(X=x))| = |ln(q[x][y] / lambda[y])|; +inf when
    such a pair has q[x][y] = 0."""
    d_in, d_out = matrix.shape
    lam = enum_output_marginal(matrix, pvec)
    worst = 0.0
    for x in range(d_in):
        for y in range(d_out):
            if pvec[x] > 0.0 and lam[y] > 0.0:
                if matrix[x][y] <= 0.0:
                    return math.inf
                worst = max(worst, abs(math.log(matrix[x][y] / lam[y])))
    return worst


def binary_grid_scores(p1, eps, n):
    """MSE of every binary channel (q0, q1) = (Pr(Y=1|X=0), Pr(Y=0|X=1)) on
    the (n+1) x (n+1) grid over [0, 1]^2 whose enumerated context-aware
    level is at most eps; a plain grid with no refinement."""
    pvec = [1.0 - p1, p1]
    scores = []
    for i in range(n + 1):
        for j in range(n + 1):
            q0, q1 = i / n, j / n
            matrix = np.array([[1.0 - q0, q0], [q1, 1.0 - q1]])
            if enum_lip_level(matrix, pvec) <= eps:
                scores.append(enum_value_mse(matrix, pvec, [0.0, 1.0]))
    return scores


def enum_mutual_information(matrix, pvec):
    """I(X;Y) = sum over p[x] q[x][y] > 0 of p[x] q[x][y] ln(q[x][y] / lambda[y])."""
    d_in, d_out = matrix.shape
    lam = enum_output_marginal(matrix, pvec)
    total = 0.0
    for x in range(d_in):
        for y in range(d_out):
            joint = pvec[x] * matrix[x][y]
            if joint > 0.0:
                total += joint * math.log(matrix[x][y] / lam[y])
    return max(0.0, total)


def enum_posterior(matrix, pvec, y):
    """Pr(X=x|Y=y) = p[x] q[x][y] / lambda[y] for every x, or None when
    lambda[y] = 0."""
    lam = enum_output_marginal(matrix, pvec)[y]
    if lam <= 0.0:
        return None
    return [pvec[x] * matrix[x][y] / lam for x in range(matrix.shape[0])]


def enum_joint(pvecs, matrices):
    """Iterate (x-tuple, y-tuple, joint probability) over all N users."""
    n = len(pvecs)
    sizes_in = [len(p) for p in pvecs]
    sizes_out = [m.shape[1] for m in matrices]
    for xs in itertools.product(*[range(s) for s in sizes_in]):
        px = 1.0
        for i in range(n):
            px *= pvecs[i][xs[i]]
        if px == 0.0:
            continue
        for ys in itertools.product(*[range(s) for s in sizes_out]):
            pr = px
            for i in range(n):
                pr *= matrices[i][xs[i], ys[i]]
            if pr > 0.0:
                yield xs, ys, pr


def _column_stats(Q, prior, svals):
    w = prior @ Q
    t = (prior * svals) @ Q
    return w, t


def _objective(w, t):
    mask = w > 0.0
    return float(np.sum(t[mask] ** 2 / w[mask]))


def _term(wv, tv):
    return np.where(wv > 0.0, np.divide(tv * tv, np.where(wv > 0.0, wv, 1.0)), 0.0)


def dense_gain(w, t, dm, sv, lower, upper, tol):
    """(m, m) gain in E[E[S|Y]^2] of moving mass dm[j] at value sv from
    column j to column k of a mechanism with column sums w and t; -inf
    where the move is not allowed: no mass to move, a column onto itself,
    or a source or destination posterior mean leaving the band."""
    w_minus = w - dm
    t_minus = t - dm * sv
    w_plus = w[None, :] + dm[:, None]
    t_plus = t[None, :] + (dm * sv)[:, None]
    gain = (_term(w_minus, t_minus)[:, None]
            + _term(w_plus, t_plus)
            - _term(w, t)[:, None] - _term(w, t)[None, :])
    np.fill_diagonal(gain, -np.inf)
    gain[dm <= 0.0, :] = -np.inf

    src_ok = (w_minus <= 0.0) | (
        (t_minus >= (lower - tol) * w_minus)
        & (t_minus <= (upper + tol) * w_minus))
    dst_ok = ((t_plus >= (lower - tol) * w_plus)
              & (t_plus <= (upper + tol) * w_plus))
    gain[~src_ok, :] = -np.inf
    gain[~dst_ok] = -np.inf
    return gain


def serial_ascent(Q, prior, svals, lower, upper, tol, fractions, max_sweeps):
    """Greedy mass-exchange ascent on Var(E[S|Y]) under the band constraint:
    each (row s, fraction) step moves that fraction of one column's mass in
    row s to the column of largest gain, if the gain clears 1e-12 relative,
    until a sweep moves nothing or ``max_sweeps`` sweeps have run.  A
    heuristic comparator: every mechanism it returns is band-feasible, so
    the CIP optimum may not do worse.  Returns the ascended start and its
    objective E[E[S|Y]^2]."""
    Q = Q.copy()
    w, t = _column_stats(Q, prior, svals)
    improve_tol = 1e-12 * max(1.0, _objective(w, t))

    for _ in range(max_sweeps):
        moved = False
        for s in range(Q.shape[0]):
            if prior[s] <= 0.0:
                continue
            for frac in fractions:
                delta = frac * Q[s]  # mass leaving each source column
                if not np.any(delta > 0.0):
                    continue
                gain = dense_gain(w, t, prior[s] * delta, svals[s], lower, upper, tol)
                j, k = np.unravel_index(np.argmax(gain), gain.shape)
                if gain[j, k] > improve_tol:
                    moved_mass = delta[j]
                    Q[s, j] -= moved_mass
                    Q[s, k] += moved_mass
                    w, t = _column_stats(Q, prior, svals)
                    moved = True
        if not moved:
            break
    return Q, _objective(w, t)


def call_minorant(prior, mean, lower, upper):
    """The greatest convex minorant of the points (lower, mean - lower),
    (j, E(S - j)^+) for every integer j strictly inside (lower, upper), and
    (upper, 0), where P(S = s) = prior[s]: the breakpoints and, at each,
    the least of its own value and of the chords between a point on its left
    and one on its right.  O(N^2) per breakpoint."""
    xs = [lower] + [j for j in range(len(prior)) if lower < j < upper] + [upper]
    ys = ([mean - lower]
          + [sum(prior[s] * (s - j) for s in range(j + 1, len(prior))) for j in xs[1:-1]]
          + [0.0])
    xs, ys = np.array(xs, dtype=float), np.array(ys, dtype=float)
    out = ys.copy()
    for i, x in enumerate(xs):
        a, b = np.flatnonzero(xs < x)[:, None], np.flatnonzero(xs > x)[None, :]
        chords = ys[a] + (ys[b] - ys[a]) * (x - xs[a]) / (xs[b] - xs[a])
        out[i] = min(ys[i], chords.min(initial=np.inf))
    return xs, out


def enum_mean_law(matrix, prior, svals):
    """The law of the posterior mean E[S|Y] under ``matrix``: the mass and
    the mean of each reachable output, by explicit loops."""
    law = []
    for k in range(matrix.shape[1]):
        w = sum(prior[s] * matrix[s][k] for s in range(len(prior)))
        if w > 0.0:
            law.append((w, sum(prior[s] * matrix[s][k] * svals[s] for s in range(len(prior))) / w))
    return law


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240601))
