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
from lipagg import cip
from lipagg.cip import _BAND_TOL, _ascend, _feasible_starts
from lipagg.core import Channel

from conftest import serial_ascent, serial_ascent_with_sweeps


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


def test_search_reports_starts_and_sweeps():
    inst = CipInstance(20, 0.3, 1.0)
    res = cip_search(inst, output_size=21, seed=0)
    assert res.starts == 7  # constant, threshold, context-aware seed, 4 random
    assert len(res.sweeps) == 7 and all(1 <= v <= 40 for v in res.sweeps)
    # a start stopped short of the cap only by a sweep with no move
    assert len(res.converged) == 7
    assert all(c for c, v in zip(res.converged, res.sweeps) if v < 40)
    starts, _ = _feasible_starts(inst, 21, 0)
    band = cip_band(inst)
    capped = _ascend(np.stack(starts), inst.s_prior, np.arange(21.0), band.lower, band.upper,
                     _BAND_TOL * 20, max_sweeps=1)
    assert capped[2] == [1] * 7
    # at eps = 0 the band is the single point N*p1: only the constant start
    # is feasible as drawn, the threshold and 4 random starts need a blend
    flat = cip_search(CipInstance(20, 0.3, 0.0), output_size=4, seed=0)
    assert (flat.starts, flat.starts_blended) == (6, 5)


@st.composite
def _search_case(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(2, n + 1))
    eps = draw(st.sampled_from([0.0, 0.3, 1.0, 3.0, 10.0]))
    p1 = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return n, p1, eps, m, draw(st.integers(0, 2 ** 63 - 1))


def _assert_search_matches_serial(n, p1, eps, m, seed):
    # the body of test_lockstep_search_matches_serial_reference, which keeps
    # its own copy (hypothesis draws a derandomized test's examples from a
    # digest of its source), plus each start's sweeps and convergence
    inst = CipInstance(n, p1, eps)
    band = cip_band(inst)
    svals = np.arange(n + 1, dtype=float)
    starts, blended = _feasible_starts(inst, m, seed)
    best_q, best_v, sweeps, converged = None, -np.inf, [], []
    for q in starts:
        cand, v, used, done = serial_ascent_with_sweeps(
            q, inst.s_prior, svals, band.lower, band.upper, _BAND_TOL * max(1.0, n),
            (1.0, 0.5, 0.25), 40)
        sweeps.append(used)
        converged.append(done)
        if v > best_v:
            best_q, best_v = cand, v
    var_est = max(0.0, best_v - inst.mean ** 2)

    res = cip_search(inst, output_size=m, seed=seed)
    assert np.array_equal(res.mechanism, best_q)
    assert res.estimator_variance == var_est
    assert res.mse == max(0.0, inst.variance - var_est)
    assert (res.starts, res.starts_blended) == (len(starts), blended)
    assert res.sweeps == tuple(sweeps)
    assert res.converged == tuple(converged)
    return res


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_search_case())
def test_lockstep_search_matches_serial_reference(case):
    n, p1, eps, m, seed = case
    inst = CipInstance(n, p1, eps)
    band = cip_band(inst)
    svals = np.arange(n + 1, dtype=float)
    starts, blended = _feasible_starts(inst, m, seed)
    best_q, best_v = None, -np.inf
    for q in starts:
        cand, v = serial_ascent(q, inst.s_prior, svals, band.lower, band.upper,
                                _BAND_TOL * max(1.0, n), (1.0, 0.5, 0.25), 40)
        if v > best_v:
            best_q, best_v = cand, v
    var_est = max(0.0, best_v - inst.mean ** 2)

    res = cip_search(inst, output_size=m, seed=seed)
    assert np.array_equal(res.mechanism, best_q)
    assert res.estimator_variance == var_est
    assert res.mse == max(0.0, inst.variance - var_est)
    assert (res.starts, res.starts_blended) == (len(starts), blended)


@pytest.mark.parametrize("n, m, seed", [(30, 31, 0), (50, 11, 7)])
def test_pruned_search_matches_serial_reference_where_pruning_bites(n, m, seed):
    # at these sizes the gain bound drops a large share of the sources
    res = _assert_search_matches_serial(n, 0.3, 1.0, m, seed)
    assert res.sources_pruned > res.sources_scored / 4


@pytest.mark.parametrize("n, p1, eps, m, seed", [
    (12, 0.5, 1.0, 13, 1),  # sweeps (14, 7, 17, 26, 18, 13, 17)
    (12, 0.8, 1.0, 3, 1),  # one start converges on its first sweep
    (20, 0.8, 2.0, 10, 1),  # sweeps (12, 3, 11, 11, 10, 11)
])
def test_each_start_stops_where_it_would_alone(n, p1, eps, m, seed):
    # the stack keeps a converged start in place; its sweep count and the
    # other starts' trajectories are those of a serial ascent
    res = _assert_search_matches_serial(n, p1, eps, m, seed)
    assert len(set(res.sweeps)) >= 3


def test_capped_lockstep_ascent_matches_serial_start_by_start():
    # at a 14-sweep cap three starts have converged and four are still moving
    inst = CipInstance(12, 0.5, 1.0)
    band = cip_band(inst)
    svals, tol = np.arange(13.0), _BAND_TOL * 12
    starts, _ = _feasible_starts(inst, 13, 1)
    stack, values, sweeps, _, _, converged = _ascend(
        np.stack(starts), inst.s_prior, svals, band.lower, band.upper, tol, max_sweeps=14)
    assert sum(converged) == 3
    for i, q in enumerate(starts):
        ref_q, ref_v, ref_sweeps, ref_done = serial_ascent_with_sweeps(
            q, inst.s_prior, svals, band.lower, band.upper, tol, (1.0, 0.5, 0.25), 14)
        assert np.array_equal(stack[i], ref_q), i
        assert (values[i], sweeps[i], converged[i]) == (ref_v, ref_sweeps, ref_done), i


@st.composite
def _bound_case(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(2, n + 1))
    # p1 = 0.18 at N = 40 puts Pr(S = N) near 1e-30
    p1 = draw(st.one_of(st.sampled_from([0.0, 1.0, 1e-6, 0.18]), st.floats(0.0, 1.0)))
    eps = draw(st.sampled_from([0.0, 0.3, 1.0, 5.0]))
    return n, p1, eps, m, draw(st.integers(0, 2 ** 63 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_bound_case())
def test_every_allowed_gain_is_within_its_source_bound(case):
    # the bound _ascend prunes by: a move out of column j gains at most
    # t_minus^2/w_minus - t_j^2/w_j + dm_j s^2, plus the rounding allowance
    n, p1, eps, m, seed = case
    inst = CipInstance(n, p1, eps)
    band = cip_band(inst)
    prior, svals = inst.s_prior, np.arange(n + 1, dtype=float)
    allowance = cip._GAIN_SLACK * max(1.0, float(prior @ svals ** 2))
    # one-hot rows on all but the last column: empty destinations, and
    # sources a whole-column move empties (w_minus = 0)
    rng = np.random.Generator(np.random.Philox(seed))
    sparse = np.zeros((n + 1, m))
    sparse[np.arange(n + 1), rng.integers(0, m - 1, size=n + 1)] = 1.0
    starts, _ = _feasible_starts(inst, m, seed)

    def check(s, w, t, dm, gain):
        term = cip._term(w - dm, t - dm * svals[s])
        bound = term - cip._term(w, t) + dm * (svals[s] * svals[s])
        allowed = np.isfinite(gain)
        assert np.all(gain <= bound[:, None] + allowance, where=allowed)

    for q in starts[:2] + [sparse]:
        serial_ascent(q, prior, svals, band.lower, band.upper, _BAND_TOL * max(1.0, n),
                      (1.0, 0.5, 0.25), 3, on_step=check)
