import math
import warnings

import numpy as np
import pytest

from lipagg import (
    Channel,
    Domain,
    Prior,
    budget_feasible_prior_floor,
    closed_form_lip_level,
    mae,
    mse_binary,
    mse_binary_ldp_opt,
    mse_binary_lip_opt,
    mse_mimo,
    opt_binary_ldp,
    opt_binary_lip,
    opt_mimo_ldp,
    opt_mimo_lip,
    oue_channel,
    oue_counts,
    oue_perturb,
    output_distribution,
    perturb,
    perturb_indices,
    symmetric_rr,
    validate_channel,
)
from lipagg.errors import ValueNotInDomainError, ZeroEpsilonError
from lipagg.mechanisms import sample_rows

from conftest import random_prior


def test_binary_lip_formula_values():
    ch = opt_binary_lip(0.1, math.log(10.0))
    assert ch.matrix[0, 1] == pytest.approx(0.01, abs=1e-15)
    assert ch.matrix[1, 0] == pytest.approx(0.09, abs=1e-15)


def test_binary_lip_zero_budget_full_randomization():
    ch = opt_binary_lip(0.5, 0.0)
    assert np.allclose(ch.matrix, 0.5, atol=1e-15)


def test_binary_ldp_values():
    assert opt_binary_ldp(0.0).matrix[0, 1] == pytest.approx(0.5, abs=1e-15)
    assert opt_binary_ldp(math.log(3.0)).matrix[0, 1] == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(symmetric_rr(math.log(3.0)).matrix, opt_binary_ldp(math.log(3.0)).matrix)


def test_mimo_lip_worked_example():
    # d = 3, priors (0.1, 0.2, 0.7)
    for eps in (1.0, 2.0):
        e = math.exp(eps)
        ch = opt_mimo_lip(Prior([0.1, 0.2, 0.7]), eps)
        m = ch.matrix
        assert m[0, 0] == pytest.approx(1 - 0.9 / e, abs=1e-12)
        assert m[1, 1] == pytest.approx(1 - 0.8 / e, abs=1e-12)
        assert m[2, 2] == pytest.approx(1 - 0.3 / e, abs=1e-12)
        assert m[1, 0] == pytest.approx(0.1 / e, abs=1e-12)
        assert m[2, 0] == pytest.approx(0.1 / e, abs=1e-12)
        assert m[0, 1] == pytest.approx(0.2 / e, abs=1e-12)
        assert m[2, 1] == pytest.approx(0.2 / e, abs=1e-12)
        assert m[0, 2] == pytest.approx(0.7 / e, abs=1e-12)
        assert m[1, 2] == pytest.approx(0.7 / e, abs=1e-12)


def test_mimo_lip_zero_budget_rows_equal_prior(rng):
    p = random_prior(rng, 4)
    ch = opt_mimo_lip(p, 0.0)
    assert np.allclose(ch.matrix, np.tile(p.p, (4, 1)), atol=1e-12)


def test_mimo_lip_reduces_to_binary_at_d2():
    for p1, eps in ((0.3, 1.0), (0.9, 2.0)):
        mimo = opt_mimo_lip(Prior.binary(p1), eps)
        bib = opt_binary_lip(p1, eps)
        assert np.allclose(mimo.matrix, bib.matrix, atol=1e-12)
        assert mse_mimo(mimo, Prior.binary(p1), Domain.binary()) == pytest.approx(
            mse_binary_lip_opt(p1, eps), abs=1e-12)


def test_mimo_ldp_values():
    assert opt_mimo_ldp(2, math.log(3.0)).matrix[0, 0] == pytest.approx(0.75, abs=1e-12)
    assert np.allclose(opt_mimo_ldp(4, 0.0).matrix, 0.25, atol=1e-15)


def test_marginal_equals_prior_sweep(rng):
    # includes a zero-prior category; holds to 1e-12 across d and eps
    for d in (2, 3, 4, 5):
        for eps in (0.0, 0.5, 1.0, 2.0, 5.0):
            p = random_prior(rng, d)
            lam = output_distribution(opt_mimo_lip(p, eps), p)
            assert np.max(np.abs(lam - p.p)) <= 1e-12
    pz = Prior([0.0, 0.4, 0.6])
    for eps in (0.5, 2.0):
        lam = output_distribution(opt_mimo_lip(pz, eps), pz)
        assert np.max(np.abs(lam - pz.p)) <= 1e-12
        assert lam[0] == 0.0


def test_zero_prior_rows_are_stochastic_and_never_fire():
    ch = opt_mimo_lip(Prior([0.0, 0.4, 0.6]), 1.0)
    validate_channel(ch)
    # supported rows put no mass on the dead category
    assert ch.matrix[1, 0] == 0.0
    assert ch.matrix[2, 0] == 0.0


def test_degenerate_prior_valid_channel_and_zero_mse():
    for p1 in (0.0, 1.0):
        ch = opt_binary_lip(p1, 1.0)
        validate_channel(ch)
        assert mse_binary(ch, p1) == pytest.approx(0.0, abs=1e-15)


def test_all_derived_channels_validate(rng):
    for eps in (0.0, 0.7, 3.0):
        validate_channel(opt_binary_lip(float(rng.uniform()), eps))
        validate_channel(opt_binary_ldp(eps))
        validate_channel(opt_mimo_ldp(5, eps))
        validate_channel(opt_mimo_lip(random_prior(rng, 5), eps))


def test_closed_form_mse_monotone_in_eps():
    grid = np.linspace(0.0, 6.0, 25)
    p = Prior([0.2, 0.3, 0.5])
    dom = Domain.of_size(3)
    prev = [math.inf] * 4
    for eps in grid:
        now = [
            mse_binary_lip_opt(0.3, eps),
            mse_binary_ldp_opt(0.3, eps),
            mse_mimo(opt_mimo_lip(p, eps), p, dom),
            mse_mimo(opt_mimo_ldp(3, eps), p, dom),
        ]
        for a, b in zip(now, prev):
            assert a <= b + 1e-12
        prev = now


def test_symmetric_twin_same_mse_larger_mae():
    p1, eps = 0.2, 1.0
    e = math.exp(eps)
    primary = opt_binary_lip(p1, eps)
    twin = Channel(np.array([[p1 / e, 1 - p1 / e],
                             [1 - (1 - p1) / e, (1 - p1) / e]]))
    validate_channel(twin)
    assert mse_binary(twin, p1) == pytest.approx(mse_binary(primary, p1), abs=1e-12)
    prior = Prior.binary(p1)
    assert mae(primary, prior) < mae(twin, prior) - 1e-6


def test_huge_budget_reaches_limits_without_overflow():
    # eps -> inf: every optimum keeps the true value, the floor vanishes,
    # the level is the budget itself and the context-free MSE is 0
    p = Prior([0.2, 0.0, 0.8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(opt_binary_lip(0.3, 800.0).matrix, np.eye(2))
        assert np.array_equal(opt_binary_ldp(800.0).matrix, np.eye(2))
        assert np.array_equal(opt_mimo_lip(p, 800.0).matrix, np.eye(3))
        assert np.array_equal(opt_mimo_ldp(4, 800.0).matrix, np.eye(4))
        assert budget_feasible_prior_floor(800.0) == 0.0
        assert closed_form_lip_level(1e-300, 800.0) == 800.0
        assert mse_binary_ldp_opt(0.3, 800.0) == 0.0
        assert mse_binary_ldp_opt(0.0, 800.0) == 0.0


def test_oue_parameters():
    ch = oue_channel(20, math.log(3.0))
    assert ch.keep_prob == 0.5
    assert ch.flip_up_prob == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ZeroEpsilonError):
        oue_channel(20, 0.0)


def test_context_free_pair_mse_limit():
    # per-user variance of the prior-unaware estimator vanishes as eps grows
    flip = 1.0 / (math.exp(20.0) + 1.0)
    assert flip * (1 - flip) / (1 - 2 * flip) ** 2 < 1e-8


def test_perturb_identity_and_constant():
    ident = Channel(np.eye(3))
    for seed in range(5):
        assert perturb(ident, 1.0, seed) == 1.0
    const = Channel(np.array([[0.0, 1.0], [0.0, 1.0]]))
    for seed in range(200):
        assert perturb(const, 0.0, seed) == 1.0


def test_perturb_deterministic_given_seed():
    ch = opt_binary_lip(0.3, 1.0)
    assert perturb(ch, 1.0, 123) == perturb(ch, 1.0, 123)


@pytest.mark.parametrize("seed", [None, True, -1, 1.5, "7"])
def test_perturb_rejects_a_seed_that_is_not_a_whole_number(seed):
    with pytest.raises(ValueError, match="seed"):
        perturb(opt_binary_lip(0.3, 1.0), 1.0, seed)


def test_integer_seed_draws_from_its_philox_stream():
    ch = opt_mimo_lip(Prior([0.2, 0.3, 0.5]), 1.0)
    xs = np.array([0, 1, 2, 1, 0] * 20)
    for seed in (0, 42, np.int64(7)):
        def philox():
            return np.random.Generator(np.random.Philox(int(seed)))
        assert np.array_equal(perturb_indices(ch, xs, seed), perturb_indices(ch, xs, philox()))
        assert perturb(ch, 1.0, seed) == perturb(ch, 1.0, philox())


def test_perturb_rejects_foreign_value():
    with pytest.raises(ValueNotInDomainError):
        perturb(Channel(np.eye(2)), 5.0, 0)


def test_scalar_and_vector_perturb_share_stream():
    ch = opt_mimo_lip(Prior([0.2, 0.3, 0.5]), 1.0)
    xs = np.array([0, 1, 2, 1, 0] * 20)
    vec = perturb_indices(ch, xs, np.random.Generator(np.random.Philox(9)))
    rng = np.random.Generator(np.random.Philox(9))
    seq = [perturb(ch, float(ch.input_domain.values[x]), rng) for x in xs]
    assert np.allclose(ch.output_domain.values[vec], seq)
    # the vector form gathers a boundary-major table: the same outputs exactly,
    # up to d = 257, where indices need two bytes
    for d in (2, 5, 257):
        gen = np.random.default_rng(d)
        ch = opt_mimo_lip(Prior(gen.dirichlet(np.ones(d))), 1.0)
        xs = gen.integers(0, d, 300)
        vec = perturb_indices(ch, xs, np.random.Generator(np.random.Philox(d)))
        rng = np.random.Generator(np.random.Philox(d))
        seq = [perturb(ch, float(ch.input_domain.values[x]), rng) for x in xs]
        assert ch.output_domain.values[vec].tolist() == seq


def test_perturb_empirical_rate_binary():
    # Pr(Y=0 | X=1) should concentrate at q1 = 0.7/e
    ch = opt_binary_lip(0.3, 1.0)
    n = 1_000_000
    ys = perturb_indices(ch, np.ones(n, dtype=int), np.random.Generator(np.random.Philox(5)))
    q1 = 0.7 / math.e
    sigma = math.sqrt(q1 * (1 - q1) / n)
    assert abs((ys == 0).mean() - q1) <= 3 * sigma


class _FixedDraws:
    """Stands in for a generator: ``random(out=a)`` fills ``a`` with the
    given draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def random(self, *, out):
        out[...] = self.draws[:out.size]
        return out


def test_sample_rows_past_the_last_boundary_is_the_last_output():
    # ten outputs of mass 0.1: the running total rounds to 1 - 2^-53 < 1, and
    # a draw of 0 (u = 1, above every boundary) still gives index d-1 = 9
    full = np.cumsum(np.full((3, 10), 0.1), axis=1)
    assert full[0, -1] < 1.0
    got = sample_rows(full[:, :-1], _FixedDraws([0.0, 1.0 - full[0, -1], 0.5]))
    assert got.tolist() == [9, 9, 4]
    # u on a boundary resolves to the lower index: a zero-mass output
    # (index 1, boundaries 0.5 and 0.5) is never drawn
    bounds = np.array([[0.5, 0.5]] * 3)
    assert sample_rows(bounds, _FixedDraws([0.5, 0.25, 0.0])).tolist() == [0, 2, 2]


@pytest.mark.parametrize("d", [256, 257])
def test_sample_rows_reaches_every_index_at_the_count_type_edge(d):
    """Indices are counted in the narrowest unsigned type that holds d-1:
    one byte up to d = 256, two at d = 257, where index 256 must still be
    drawn.  C-ordered bounds, boundary-major bounds and the in-place
    buffers all give np.sum(cdf[:, :-1] < u, axis=1), for u on every
    boundary (dyadic masses make the sums exact), u = 1 and random u."""
    rng = np.random.default_rng(d)
    mass = np.full(d, 2.0 ** -10)
    mass[-1] = 1.0 - (d - 1) * 2.0 ** -10
    u_edge = np.append(np.arange(1, d) * 2.0 ** -10, [1.0, (d - 0.5) * 2.0 ** -10])
    cdf = np.vstack([np.tile(np.cumsum(mass), (u_edge.size, 1)),
                     np.cumsum(rng.dirichlet(np.ones(d), size=500), axis=1)])
    u = np.append(u_edge, 1.0 - rng.random(500))
    want = np.sum(cdf[:, :-1] < u[:, None], axis=1)
    assert want.max() == d - 1 and want[d - 1] == d - 1  # u = 1 takes the last output
    n = cdf.shape[0]
    for bounds in (cdf[:, :-1], np.ascontiguousarray(cdf[:, :-1].T).T):
        got = sample_rows(bounds, _FixedDraws(1.0 - u))
        assert got.dtype == np.min_scalar_type(d - 1)
        assert np.array_equal(got, want)
        buffers = (np.empty(n), np.empty((d - 1, n), dtype=bool),
                   np.empty(n, dtype=np.min_scalar_type(d - 1)))
        got = sample_rows(bounds, _FixedDraws(1.0 - u), buffers=buffers)
        assert got is buffers[2] and np.array_equal(got, want)


def test_oue_perturb_rates():
    ch = oue_channel(5, 2.0)
    n = 200_000
    xs = np.zeros(n, dtype=int)
    bits = oue_perturb(ch, xs, np.random.Generator(np.random.Philox(8)))
    keep_rate = bits[:, 0].mean()
    flip_rate = bits[:, 1:].mean()
    assert abs(keep_rate - 0.5) <= 3 * math.sqrt(0.25 / n)
    q = ch.flip_up_prob
    assert abs(flip_rate - q) <= 3 * math.sqrt(q * (1 - q) / (4 * n))


def test_oue_counts_match_the_binomial_moments():
    """Frozen seed 41, R = 20000 draws at N = 60: the per-bucket mean of
    ``oue_counts`` is n_k/2 + (N - n_k) f and its variance the exact
    n_k/4 + (N - n_k) f (1 - f), each within 5 standard errors.  The
    standard error of the sample variance uses the exact fourth central
    moment mu4 = kappa4 + 3 kappa2^2, with binomial cumulants
    kappa2 = n p q and kappa4 = n p q (1 - 6 p q) added over both terms."""
    ch = oue_channel(4, 1.5)
    hot = np.array([30, 20, 10, 0])
    n, trials, f = hot.sum(), 20_000, ch.flip_up_prob
    counts = oue_counts(ch, np.tile(hot, (trials, 1)), np.random.Generator(np.random.Philox(41)))
    assert counts.shape == (trials, 4)
    pq = np.array([[0.25], [f * (1.0 - f)]])
    sizes = np.stack([hot, n - hot])
    mean = hot * 0.5 + (n - hot) * f
    var = np.sum(sizes * pq, axis=0)
    mu4 = np.sum(sizes * pq * (1.0 - 6.0 * pq), axis=0) + 3.0 * var ** 2
    var_se = np.sqrt(mu4 / trials - var ** 2 * (trials - 3) / (trials * (trials - 1)))
    assert np.all(np.abs(counts.mean(axis=0) - mean) <= 5.0 * np.sqrt(var / trials))
    assert np.all(np.abs(counts.var(axis=0, ddof=1) - var) <= 5.0 * var_se)

