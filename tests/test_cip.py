import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipagg import (
    CipInstance,
    Prior,
    cip_band,
    cip_mse_lower_bound,
    cip_search,
    lip_seed_mechanism,
    measure_lip,
    mse_binary_lip_opt,
    posterior_means_in_band,
)
from lipagg.core import Channel

from conftest import call_minorant, enum_mean_law, enum_value_mse, serial_ascent


def test_band_examples():
    collapsed = cip_band(CipInstance(100, 0.1, 0.0))
    assert collapsed.lower == pytest.approx(10.0, abs=1e-12)
    assert collapsed.upper == pytest.approx(10.0, abs=1e-12)
    band = cip_band(CipInstance(100, 0.1, math.log(2.0)))
    assert band.lower == pytest.approx(5.0, abs=1e-12)
    assert band.upper == pytest.approx(55.0, abs=1e-12)
    wide = cip_band(CipInstance(100, 0.1, 20.0))
    assert wide.lower < 1e-6 and wide.upper > 100.0 - 1e-5


def test_band_nesting():
    prev = cip_band(CipInstance(60, 0.3, 0.2))
    for eps in (0.5, 1.0, 2.0, 4.0):
        band = cip_band(CipInstance(60, 0.3, eps))
        assert band.lower <= prev.lower + 1e-12
        assert band.upper >= prev.upper - 1e-12
        prev = band


def test_lower_bound_examples():
    inst0 = CipInstance(100, 0.1, 0.0)
    assert cip_mse_lower_bound(inst0) == pytest.approx(9.0, abs=1e-9)
    assert cip_mse_lower_bound(CipInstance(100, 0.1, math.log(2.0))) == 0.0


def test_prior_is_binomial():
    inst = CipInstance(50, 0.3, 1.0)
    assert abs(inst.s_prior.sum() - 1.0) <= 1e-9
    assert inst.s_prior[15] == pytest.approx(
        math.comb(50, 15) * 0.3 ** 15 * 0.7 ** 35, rel=1e-9)
    # near DBL_MIN scipy's pmf overflows; the prior is still the binomial one
    tiny = CipInstance(2, 1.1125369292536007e-308, 0.0).s_prior
    assert tiny[0] == 1.0 and tiny[2] == 0.0
    assert tiny[1] == pytest.approx(2.2250738585072014e-308, rel=1e-9, abs=0)


def _scipy_binomial(n, p1):
    from scipy.stats import binom
    k = np.arange(n + 1)
    try:
        return binom.pmf(k, n, p1)
    except OverflowError:  # p1 within ~100x of DBL_MIN
        return np.exp(binom.logpmf(k, n, p1))


_P1_EDGES = (0.0, 1.0, 1 - 1e-16, 1e-300, 1e-308, 2e-308, 1.1125369292536007e-308)
_P1_DRAWN = tuple(np.random.default_rng(20261019).uniform(size=4)) + tuple(
    10.0 ** np.random.default_rng(20261020).uniform(-300.0, 0.0, size=4))


@pytest.mark.parametrize("n", [1, 2, 50, 51, 200])
def test_prior_is_scipys_binomial_bit_for_bit(n):
    for p1 in _P1_EDGES + _P1_DRAWN:
        assert np.array_equal(CipInstance(n, p1, 0.0).s_prior, _scipy_binomial(n, p1)), p1


def test_prior_falls_back_to_scipy_stats_without_the_private_pmf_ufunc(monkeypatch):
    # an older scipy may lack scipy.special._ufuncs._binom_pmf; there the
    # pmf comes from scipy.stats.binom, which then holds its own copy (a
    # scipy that lacks it already runs the fallback; binom is only counted)
    import scipy.special._ufuncs as ufuncs
    from scipy.stats import binom

    cases = [(n, p1) for n in (1, 50, 200) for p1 in (0.3, 1e-300, 2e-308)]
    before = [CipInstance(n, p1, 0.0).s_prior for n, p1 in cases]
    ufunc, calls = getattr(ufuncs, "_binom_pmf", None), []
    pmf = type(binom)._pmf if ufunc is None else lambda self, *a: ufunc(*a)
    monkeypatch.setattr(type(binom), "_pmf", lambda self, *a: calls.append(a) or pmf(self, *a))
    monkeypatch.delattr(ufuncs, "_binom_pmf", raising=False)
    for (n, p1), prior in zip(cases, before):
        assert np.array_equal(CipInstance(n, p1, 0.0).s_prior, prior), (n, p1)
    assert calls


def test_instance_checks_n_and_builds_the_prior_from_the_stored_values():
    for bad in (5.5, 5.0, True, "5", 0, 201):
        with pytest.raises(ValueError):
            CipInstance(bad, 0.3, 1.0)
    inst = CipInstance(np.int64(5), np.float32(0.3), 1.0)
    assert type(inst.n_users) is int and type(inst.p1) is float
    assert np.array_equal(inst.s_prior, CipInstance(5, float(np.float32(0.3)), 1.0).s_prior)


def test_seed_mechanism_band_feasible():
    for p1 in (0.1, 0.3, 0.5):
        for eps in (0.5, 1.0, 2.0):
            inst = CipInstance(50, p1, eps)
            assert posterior_means_in_band(lip_seed_mechanism(inst), inst)


def test_band_check_rejects_matrices_that_are_not_mechanisms():
    # rows (1.5, -0.5) put every posterior mean in the band
    inst = CipInstance(10, 0.3, 1.0)
    rows = np.tile([1.5, -0.5], (11, 1))
    assert not posterior_means_in_band(rows, inst)
    assert not posterior_means_in_band(0.9 * lip_seed_mechanism(inst), inst)
    assert posterior_means_in_band(np.tile([0.5, 0.5], (11, 1)), inst)


def test_strictly_private_channels_stay_in_band():
    # channels verified to meet the budget keep posterior means in the band
    inst = CipInstance(40, 0.3, 1.0)
    prior = Prior(inst.s_prior)
    base = lip_seed_mechanism(inst)
    const = np.tile(inst.s_prior, (41, 1))
    for t in (0.3, 0.6, 0.9):
        mixed = (1 - t) * base + t * const
        level = measure_lip(Channel(mixed), prior)
        if level <= 1.0:
            assert posterior_means_in_band(mixed, inst)


def test_search_zero_budget_returns_prior_variance():
    inst = CipInstance(30, 0.2, 0.0)
    res = cip_search(inst, output_size=4, seed=1)
    assert res.mse == pytest.approx(inst.variance, abs=1e-9)


def test_search_sandwich_desk_scale():
    inst = CipInstance(50, 0.3, 1.0)
    res = cip_search(inst, output_size=51, seed=0)
    assert cip_mse_lower_bound(inst) <= res.mse + 1e-9
    assert res.mse <= 50 * mse_binary_lip_opt(0.3, 1.0) + 1e-9


def test_search_never_worse_than_seed():
    inst = CipInstance(40, 0.2, 0.8)
    res = cip_search(inst, output_size=41, seed=0)
    seed_mse = inst.variance * (2 * math.exp(-0.8) - math.exp(-1.6))
    assert res.mse <= seed_mse + 1e-9


def test_search_validates_arguments():
    inst = CipInstance(20, 0.4, 1.0)
    with pytest.raises(ValueError):
        cip_search(inst, output_size=1)
    with pytest.raises(ValueError, match="output_size"):
        cip_search(inst, output_size=3.0)
    with pytest.raises(ValueError):
        CipInstance(500, 0.4, 1.0)
    with pytest.raises(ValueError, match="p1"):
        CipInstance(5, True, 1.0)


@pytest.mark.parametrize("p1", ["0.3", None, [0.3], math.nan, -0.1, 1.5], ids=repr)
def test_instance_rejects_a_p1_that_is_not_a_probability(p1):
    # a string or None once failed the range comparison with a TypeError
    with pytest.raises(ValueError, match="p1"):
        CipInstance(5, p1, 1.0)


@pytest.mark.parametrize("seed", [None, True, -1, 1.5, "7"])
def test_search_rejects_a_seed_that_is_not_a_whole_number(seed):
    # None drew the random starts from OS entropy and True ran as seed 1
    with pytest.raises(ValueError, match="seed"):
        cip_search(CipInstance(5, 0.3, 1.0), output_size=3, seed=seed)


def test_search_mse_is_never_negative():
    # p1 = 1: S = N surely and the prior variance is 0, while rounding puts
    # the variance of the estimate 1.4e-14 above it
    res = cip_search(CipInstance(10, 1.0, 1.0), output_size=11, seed=3)
    assert res.mse == 0.0


def _assert_exact_optimum(inst, res):
    """``res`` is a mechanism whose posterior means lie in the band, whose
    MSE and estimator variance are its enumerated ones, and whose law of
    posterior means has the greatest convex minorant of S's call function
    on the band as its call function."""
    n, prior = inst.n_users, inst.s_prior
    q, svals = res.mechanism, np.arange(n + 1, dtype=float)
    assert q.min() >= 0.0 and np.abs(q.sum(axis=1) - 1.0).max() <= 1e-12
    assert posterior_means_in_band(q, inst)
    scale = 1e-12 * max(1.0, inst.variance)
    assert abs(enum_value_mse(q, prior, svals) - res.mse) <= scale
    law = enum_mean_law(q, prior, svals)
    assert abs(sum(w * (m - inst.mean) ** 2 for w, m in law) - res.estimator_variance) <= scale
    band = cip_band(inst)
    xs, minorant = call_minorant(prior, inst.mean, band.lower, band.upper)
    call = [sum(w * max(m - x, 0.0) for w, m in law) for x in xs]
    assert np.allclose(call, minorant, rtol=0.0, atol=1e-12 * max(1.0, n))


@st.composite
def _instance(draw, max_n):
    n = draw(st.integers(1, max_n))
    # p1 = 0.18 at N = 40 puts Pr(S = N) near 1e-30
    p1 = draw(st.one_of(st.sampled_from([0.0, 1.0, 1e-6, 0.18]), st.floats(0.0, 1.0)))
    return CipInstance(n, p1, draw(st.sampled_from([0.0, 0.3, 1.0, 3.0, 10.0])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_instance(30))
def test_optimum_call_function_is_the_greatest_convex_minorant(inst):
    _assert_exact_optimum(inst, cip_search(inst))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_instance(12))
def test_optimum_lies_between_the_bound_and_every_feasible_mechanism(inst):
    # the seed and the heuristic ascent from the constant and seed starts
    # are band-feasible, so none of them beats the optimum (the ascent keeps
    # to the band itself: given posterior_means_in_band's tolerance, at N=1,
    # p1=1e-6, eps=10 it beats the optimum by 2e-11 with a mean below L)
    res = cip_search(inst)
    n, prior = inst.n_users, inst.s_prior
    svals, band = np.arange(n + 1, dtype=float), cip_band(inst)
    tol = 1e-12 * max(1.0, inst.variance)
    assert cip_mse_lower_bound(inst) <= res.mse + tol
    seed = lip_seed_mechanism(inst)
    assert res.mse <= enum_value_mse(seed, prior, svals) + tol
    for start in (np.full((n + 1, n + 1), 1.0 / (n + 1)), seed):
        q, _ = serial_ascent(start, prior, svals, band.lower, band.upper, 0.0,
                             (1.0, 0.5, 0.25), 40)
        assert res.mse <= enum_value_mse(q, prior, svals) + tol


@pytest.mark.parametrize("n, p1, eps, atoms", [
    (30, 0.3, 0.0, 1),  # the band is mu alone
    (10, 0.0, 1.0, 1),
    (10, 1.0, 1.0, 1),
    (1, 0.3, 1.0, 2),  # no integer inside the band
    (1, 0.5, 20.0, 2),
    (50, 0.1, 0.1, 3),
    # Pr(S = s) underflows to 0 for s >= 196, s <= 4, s >= 127 and s <= 73
    # respectively; a pool whose rows all have probability 0 still counts
    (200, 0.02, 20.0, 197),
    (200, 0.98, 20.0, 197),
    (199, 1e-3, 5.0, 128),
    (200, 0.999, 1.0, 128),
    # two outputs at small eps, where the tail share of a prior entry near
    # the subnormal range overflowed before it was clipped to [0, 1]
    (200, 0.02, 0.01, 2),
    (200, 0.98, 1e-3, 2),
    (120, 2e-3, 1e-4, 2),
    (120, 0.998, 0.01, 2),
])
def test_optimum_at_the_edges(n, p1, eps, atoms):
    inst = CipInstance(n, p1, eps)
    res = cip_search(inst)
    assert res.atoms == atoms and res.mechanism.shape == (n + 1, n + 1)
    assert n < 199 or (inst.s_prior == 0.0).any()
    assert np.isfinite(res.mse) and res.mse >= 0.0
    _assert_exact_optimum(inst, res)


@pytest.mark.parametrize("p1, eps, mse, atoms", [
    (0.1, 0.5, 0.402616, 21), (0.1, 1.0, 0.0639891, 33), (0.1, 2.0, 0.00348744, 45),
    (0.3, 0.5, 0.0953099, 21), (0.3, 1.0, 0.000985633, 33), (0.3, 2.0, 1.02496e-06, 45),
    (0.5, 0.5, 0.0135575, 21), (0.5, 1.0, 4.78359e-06, 33), (0.5, 2.0, 2.00277e-11, 45),
])
def test_optimum_on_the_centralized_sandwich_cells(p1, eps, mse, atoms):
    # criterion #12's instances; at p1=0.5, eps=2 the MSE is 2.0e-11 against
    # Var(S) = 12.5, and Var(S) - Var(M) is off in the fourth digit there
    res = cip_search(CipInstance(50, p1, eps), output_size=51, seed=0)
    assert res.mse == pytest.approx(mse, rel=5e-6, abs=0.0)
    assert res.atoms == atoms


def test_search_pads_to_the_output_size_and_rejects_fewer_than_the_atoms():
    inst = CipInstance(20, 0.3, 1.0)
    full = cip_search(inst)
    assert full.atoms == 14 and not full.mechanism[:, 14:].any()
    tight = cip_search(inst, output_size=14)
    assert np.array_equal(tight.mechanism, full.mechanism[:, :14]) and tight.mse == full.mse
    with pytest.raises(ValueError, match="uses 14 outputs"):
        cip_search(inst, output_size=13)
    # the seed changes nothing
    assert np.array_equal(cip_search(inst, seed=5).mechanism, full.mechanism)


def test_search_defaults_to_n_plus_one_outputs_and_rejects_more():
    inst = CipInstance(6, 0.3, 1.0)
    default, full = cip_search(inst, seed=2), cip_search(inst, output_size=7, seed=2)
    assert default.mechanism.shape == (7, 7)
    assert np.array_equal(default.mechanism, full.mechanism) and default.mse == full.mse
    with pytest.raises(ValueError) as info:
        cip_search(inst, output_size=8)
    assert type(info.value) is ValueError
