import math

import numpy as np
import pytest

from lipagg import (
    Channel,
    Domain,
    Histogram,
    Population,
    Prior,
    Summation,
    Survey,
    WeightedSum,
    context_free_estimate,
    estimate,
    opt_binary_lip,
    oue_count_estimate,
    oue_histogram_estimate,
    posterior,
)
from lipagg.errors import UnreachableOutputError, ZeroEpsilonError
from lipagg.mechanisms import sample_rows

from conftest import enum_joint, enum_value_mse, random_channel, random_prior


def test_posterior_identity_channel():
    got = posterior(Channel(np.eye(2)), Prior([0.3, 0.7]), 0.0)
    assert np.allclose(got.posterior, [1.0, 0.0], atol=1e-15)
    assert got.point_estimate == 0.0


def test_posterior_constant_channel_returns_prior():
    ch = Channel(np.array([[0.4, 0.6], [0.4, 0.6]]))
    for y in (0.0, 1.0):
        got = posterior(ch, Prior([0.3, 0.7]), y)
        assert np.allclose(got.posterior, [0.3, 0.7], atol=1e-15)


def test_posterior_binary_optimum_uses_prior_marginal():
    # lambda_1 equals the prior mass of 1, so Pr(X=1 | Y=1) = 1 - q1
    ch = opt_binary_lip(0.3, 1.0)
    got = posterior(ch, Prior.binary(0.3), 1.0)
    assert got.posterior[1] == pytest.approx(1.0 - 0.7 / math.e, rel=1e-12)
    # cross-check against joint enumeration
    joint_y1 = [0.7 * ch.matrix[0, 1], 0.3 * ch.matrix[1, 1]]
    expected = joint_y1[1] / sum(joint_y1)
    assert got.posterior[1] == pytest.approx(expected, rel=1e-12)


def test_posterior_unreachable_output():
    ch = Channel(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(UnreachableOutputError):
        posterior(ch, Prior.binary(0.5), 1.0)


def test_estimate_names_the_user_of_an_unreachable_output():
    pop = Population(Domain.binary(), [[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(UnreachableOutputError, match=r"user u1: output 1\.0 "):
        estimate(Survey(1.0), pop, Channel(np.eye(2)), [1.0, 1.0, 0.0])


def _population(p1s):
    return Population(Domain.binary(), np.array([[1 - p, p] for p in p1s]))


def test_estimate_identity_channels_recover_statistic():
    pop = _population([0.2, 0.5, 0.9])
    ident = Channel(np.eye(2))
    obs = [1.0, 0.0, 1.0]
    assert estimate(Survey(1.0), pop, ident, obs).value == pytest.approx(2.0, abs=1e-12)
    assert estimate(Summation(), pop, ident, obs).value == pytest.approx(2 / 3, abs=1e-12)
    task = WeightedSum([2.0, 3.0, 4.0], [1.0, 1.0, 1.0])
    assert estimate(task, pop, ident, obs).value == pytest.approx(2 + 4 + 3, abs=1e-12)
    hist = estimate(Histogram(), pop, ident, obs).value
    assert np.allclose(hist, [1.0, 2.0], atol=1e-12)


def test_estimate_constant_channels_collapse_to_prior():
    pop = _population([0.2, 0.5, 0.9])
    const = Channel(np.array([[0.5, 0.5], [0.5, 0.5]]))
    for obs in ([0.0, 0.0, 0.0], [1.0, 1.0, 0.0]):
        got = estimate(Survey(1.0), pop, const, obs).value
        assert got == pytest.approx(0.2 + 0.5 + 0.9, abs=1e-12)


def test_estimate_matches_hand_enumeration():
    p1s = [0.2, 0.5, 0.9]
    pop = _population(p1s)
    chans = [opt_binary_lip(p, 1.0) for p in p1s]
    obs = [1.0, 0.0, 1.0]
    expected = 0.0
    for p, ch, y in zip(p1s, chans, obs):
        k = int(y)
        joint = [(1 - p) * ch.matrix[0, k], p * ch.matrix[1, k]]
        expected += joint[1] / sum(joint)
    got = estimate(Survey(1.0), pop, chans, obs).value
    assert got == pytest.approx(expected, rel=1e-12)


def _aggregate(task, pop, chans, ys):
    return estimate(task, pop, chans, [float(y) for y in ys]).value


def _task_case(kind, dom, n):
    """(task, statistic of the true values, per-user local function(s) and
    weights) for the definitional check below."""
    values = list(dom.values)
    if kind == "survey":
        ind = [1.0 if v == 0.0 else 0.0 for v in values]
        return Survey(target=0.0), lambda xs: sum(ind[x] for x in xs), [ind], [1.0] * n
    if kind == "summation":
        return Summation(), lambda xs: sum(values[x] for x in xs) / n, [values], [1.0 / n] * n
    if kind == "weighted-sum":
        a = [1.5, -0.5, 2.0, 0.25][:n]
        b = [0.3, -1.0, 0.0, 2.0][:n]
        stat = lambda xs: sum(a[i] * values[x] + b[i] for i, x in enumerate(xs))
        return WeightedSum(a, b), stat, [values], a
    onehots = [[1.0 if m == k else 0.0 for m in range(len(values))] for k in range(len(values))]
    stat = lambda xs: np.array([sum(1.0 for x in xs if x == k) for k in range(len(values))])
    return Histogram(), stat, onehots, [1.0] * n


@pytest.mark.parametrize("n,d,kind", [
    pytest.param(n, d, kind, id=f"{n}-{d}" if kind == "survey" else f"{n}-{d}-{kind}")
    for kind in ("survey", "summation", "weighted-sum", "histogram")
    for n, d in ((2, 3), (3, 2), (4, 2))])
def test_estimator_unbiased_and_decomposes(rng, n, d, kind):
    # full-joint enumeration: E[estimate] = E[statistic] and total MSE =
    # sum_i c_i^2 times the per-user MSE of the local function(s)
    dom = Domain.of_size(d)
    pvecs = [random_prior(rng, d).p for _ in range(n)]
    mats = [random_channel(rng, d).matrix for _ in range(n)]
    pop = Population(dom, np.array(pvecs))
    chans = [Channel(m, dom, dom) for m in mats]
    task, statistic, local_fns, coeffs = _task_case(kind, dom, n)

    mean_est = 0.0
    mean_f = 0.0
    total_mse = 0.0
    for xs, ys, pr in enum_joint(pvecs, mats):
        s = statistic(xs)
        est = _aggregate(task, pop, chans, [dom.values[y] for y in ys])
        mean_est += pr * est
        mean_f += pr * s
        total_mse += pr * float(np.sum((est - s) ** 2))
    assert mean_est == pytest.approx(mean_f, abs=1e-10)

    per_user = sum(
        coeffs[i] ** 2 * sum(enum_value_mse(mats[i], pvecs[i], f) for f in local_fns)
        for i in range(n))
    assert total_mse == pytest.approx(per_user, abs=1e-10)


def test_cross_user_residuals_uncorrelated(rng):
    # empirical covariance of two users' residuals shrinks at the MC rate
    p1s = [0.3, 0.8]
    chans = [opt_binary_lip(p, 0.8) for p in p1s]
    trials = 40_000
    res = np.zeros((trials, 2))
    gen = np.random.Generator(np.random.Philox(17))
    for i, (p, ch) in enumerate(zip(p1s, chans)):
        x = (gen.random(trials) < p).astype(int)
        y = sample_rows(np.cumsum(ch.matrix, axis=1)[x][:, :-1], gen)
        post1 = np.where(y == 1, ch.matrix[1, 1] * p, ch.matrix[1, 0] * p)
        lam = np.where(y == 1, p, 1 - p)  # marginal equals prior here
        res[:, i] = x - post1 / lam
    cov = float(np.mean(res[:, 0] * res[:, 1]) - res[:, 0].mean() * res[:, 1].mean())
    sigma = float(res[:, 0].std() * res[:, 1].std() / math.sqrt(trials))
    assert abs(cov) <= 3 * sigma


def test_histogram_estimate_sums_to_n(rng):
    d, n = 4, 25
    dom = Domain.of_size(d)
    pvecs = np.array([random_prior(rng, d).p for _ in range(n)])
    pop = Population(dom, pvecs)
    chans = [random_channel(rng, d, concentration=3.0) for _ in range(n)]
    obs = [float(dom.values[int(rng.integers(d))]) for _ in range(n)]
    hist = estimate(Histogram(), pop, chans, obs).value
    assert hist.sum() == pytest.approx(n, abs=1e-9)
    assert np.all(hist >= -1e-12)


def test_context_free_arithmetic():
    # all zeros, N = 100, eps = ln 3: (0 - 25) / 0.5 = -50; may leave [0, N]
    got = context_free_estimate(np.zeros(100), math.log(3.0))
    assert got == pytest.approx(-50.0, abs=1e-9)
    with pytest.raises(ZeroEpsilonError):
        context_free_estimate(np.zeros(10), 0.0)


def test_context_free_integer_observations_match_floats():
    # integers are counted without a float copy, to the same bits
    rng = np.random.Generator(np.random.Philox(8))
    obs = (rng.random((6, 300)) < 0.4).astype(np.intp)
    for eps in (0.2, 1.0, 30.0):
        assert np.array_equal(context_free_estimate(obs, eps),
                              context_free_estimate(obs.astype(float), eps))
        assert context_free_estimate(obs[0], eps) == context_free_estimate(obs[0] == 1, eps)
    for bad in ([0, 2, 1], [0, -1, 1]):
        with pytest.raises(ValueError, match="binary"):
            context_free_estimate(np.array(bad), 1.0)


def test_context_free_large_budget_recovers_count():
    obs = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    assert context_free_estimate(obs, 20.0) == pytest.approx(3.0, abs=1e-6)


def test_context_free_unbiased_monte_carlo():
    n, eps, trials = 1000, 1.0, 10_000
    true = np.zeros(n)
    true[:100] = 1.0
    flip = 1.0 / (math.exp(eps) + 1.0)
    gen = np.random.Generator(np.random.Philox(23))
    ests = np.empty(trials)
    for t in range(trials):
        u = gen.random(n)
        y = np.where(true == 1.0, u >= flip, u < flip).astype(float)
        ests[t] = context_free_estimate(y, eps)
    sigma = ests.std() / math.sqrt(trials)
    assert abs(ests.mean() - 100.0) <= 3 * sigma


def test_oue_estimate_arithmetic():
    got = oue_histogram_estimate(np.zeros((100, 4), dtype=int), 4, 100, math.log(3.0))
    assert np.allclose(got, -100.0, atol=1e-9)


def test_oue_estimate_unbiased():
    # keep probability stays 1/2 for any eps, so reports never become exact;
    # the estimator is unbiased with per-bucket variance ~ S_k at large eps
    d, n, eps, trials = 4, 400, 6.0, 4000
    xs = np.tile(np.arange(d), n // d)
    s_true = np.bincount(xs, minlength=d).astype(float)
    from lipagg import oue_channel, oue_perturb
    ch = oue_channel(d, eps)
    gen = np.random.Generator(np.random.Philox(31))
    acc = np.zeros(d)
    for _ in range(trials):
        acc += oue_histogram_estimate(oue_perturb(ch, xs, gen), d, n, eps)
    est = acc / trials
    sigma = math.sqrt(s_true.max() / trials) * 1.2
    assert np.max(np.abs(est - s_true)) <= 4 * sigma


def test_stacked_trials_estimate_row_by_row():
    rng = np.random.Generator(np.random.Philox(6))
    obs = (rng.random((5, 40)) < 0.3).astype(float)
    stacked = context_free_estimate(obs, 1.2)
    assert stacked.shape == (5,)
    assert np.array_equal(stacked, [context_free_estimate(row, 1.2) for row in obs])
    assert isinstance(context_free_estimate(obs[0], 1.2), float)
    reports = (rng.random((40, 4)) < 0.4).astype(np.int8)
    assert np.array_equal(oue_histogram_estimate(reports, 4, 40, 1.2),
                          oue_count_estimate(reports.sum(axis=0), 40, 1.2))
    with pytest.raises(ZeroEpsilonError):
        oue_count_estimate(np.zeros(4), 40, 0.0)
