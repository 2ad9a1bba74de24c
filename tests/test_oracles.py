import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipagg import (
    Prior,
    binary_mse_oracle,
    budget_feasible_prior_floor,
    histogram_mse_oracle,
    mimo_mse_oracle,
    mse_binary_lip_opt,
    mse_histogram,
    mse_mimo,
    opt_mimo_lip,
    output_range_oracle,
)
from lipagg.errors import DimensionMismatchError
from lipagg.oracles import _split_optimum

from conftest import (
    binary_grid_scores,
    enum_histogram_mse,
    enum_lip_level,
    enum_value_mse,
)


def test_binary_oracle_matches_closed_form_in_regime():
    for p1, eps in ((0.45, 0.5), (0.3, 1.0), (0.2, 2.0), (0.75, 1.5)):
        assert min(p1, 1 - p1) >= budget_feasible_prior_floor(eps)
        best, (q0, q1) = binary_mse_oracle(p1, eps)
        assert best == pytest.approx(mse_binary_lip_opt(p1, eps), abs=1e-5)


def test_binary_oracle_finds_a_constraint_corner():
    best, (q0, q1) = binary_mse_oracle(0.3, 1.0)
    e = np.exp(1.0)
    # the two symmetric optima are (p1/e, (1-p1)/e) and its mirror
    direct = (abs(q0 - 0.3 / e) < 1e-4 and abs(q1 - 0.7 / e) < 1e-4)
    mirror = (abs(q0 - (1 - 0.3 / e)) < 1e-4 and abs(q1 - (1 - 0.7 / e)) < 1e-4)
    assert direct or mirror


def test_mimo_oracle_matches_closed_form_in_regime():
    p = Prior([0.3, 0.3, 0.4])
    got = mimo_mse_oracle(p, 1.0)
    want = mse_mimo(opt_mimo_lip(p, 1.0), p)
    assert got == pytest.approx(want, abs=1e-4)


def test_histogram_oracle_matches_closed_form_in_regime():
    p = Prior([0.35, 0.32, 0.33])
    got = histogram_mse_oracle(p, 1.0)
    want = mse_histogram(opt_mimo_lip(p, 1.0), p)
    assert got == pytest.approx(want, abs=1e-3)


def test_output_range_single_column_carries_nothing():
    assert output_range_oracle(2, 1, Prior.binary(0.3), 1.0, values=[0.0, 1.0]) == \
        pytest.approx(0.21, abs=1e-12)


def test_output_range_matched_size_is_best():
    p = Prior.binary(0.3)
    m2 = output_range_oracle(2, 2, p, 1.0, values=[0.0, 1.0])
    assert m2 == pytest.approx(mse_binary_lip_opt(0.3, 1.0), abs=1e-3)
    m3 = output_range_oracle(2, 3, p, 1.0, values=[0.0, 1.0])
    assert m2 <= m3 + 1e-3


def test_huge_budget_oracles_raise_no_warning():
    # the ratio bounds are evaluated from e^-eps, which underflows to 0
    # instead of e^eps overflowing
    p = Prior([0.2, 0.3, 0.5])
    var = float(p.p @ np.arange(3.0) ** 2 - (p.p @ np.arange(3.0)) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert binary_mse_oracle(0.3, 800.0) == (0.0, (0.0, 0.0))
        got = mimo_mse_oracle(p, 800.0)
    assert math.isfinite(got) and 0.0 <= got <= var


@st.composite
def _split_case(draw):
    d = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(d))
    if draw(st.booleans()):
        p[rng.random(d) < 0.4] = 0.0
        p[rng.integers(d)] += p.sum() == 0.0
    eps = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    g = np.eye(d) if draw(st.booleans()) else rng.uniform(-2.0, 2.0, size=d)
    return Prior(p / p.sum()), eps, g, seed


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_split_case())
def test_split_optimum_is_feasible_and_unbeaten_by_random_channels(case):
    p, eps, g, seed = case
    mse, Q = _split_optimum(p, eps, g)

    def score(m):
        if g.ndim == 2:
            return enum_histogram_mse(m, p.p)
        return enum_value_mse(m, p.p, g)

    assert np.all(Q >= 0.0)
    assert np.all(np.abs(Q.sum(axis=1) - 1.0) <= 1e-12)
    assert enum_lip_level(Q, p.p) <= eps + 1e-9
    assert abs(score(Q) - mse) <= 1e-12
    # random channels of any output size, and blends of them toward the
    # constant channel (level 0), never beat the LP when they are feasible
    rng = np.random.default_rng(seed + 1)
    for _ in range(10):
        f = int(rng.integers(2, p.size + 2))
        r = rng.dirichlet(np.ones(f), size=p.size)
        for t in (1.0, 0.3, 0.1, 0.01):
            m = t * r + (1.0 - t) / f
            if enum_lip_level(m, p.p) <= eps:
                assert score(m) >= mse - 1e-12


@pytest.mark.parametrize("p1,eps", [(0.3, 1.0), (0.2, math.log(2.0)), (0.1, 1.0)])
def test_binary_oracle_against_a_plain_grid(p1, eps):
    # no feasible grid channel beats the LP; a plain 0.01 grid meets the
    # narrow feasible wedge at the optimum only to O(1/n) (up to 8e-3 above
    # it on random pairs), and at these pinned pairs it comes within 1e-3
    best, _ = binary_mse_oracle(p1, eps)
    scores = binary_grid_scores(p1, eps, 100)
    assert min(scores) >= best - 1e-12
    assert min(scores) <= best + 1e-3


def test_zero_budget_oracles_return_the_prior_variance():
    p = Prior([0.2, 0.3, 0.5])
    var = float(p.p @ np.arange(3.0) ** 2 - (p.p @ np.arange(3.0)) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert binary_mse_oracle(0.3, 0.0)[0] == pytest.approx(0.21, abs=1e-15)
        assert mimo_mse_oracle(p, 0.0) == pytest.approx(var, abs=1e-15)
        assert histogram_mse_oracle(p, 0.0) == pytest.approx(
            float(np.sum(p.p * (1.0 - p.p))), abs=1e-15)
        assert output_range_oracle(3, 3, p, 0.0) == pytest.approx(var, abs=1e-15)


def test_binary_oracle_rejects_a_prior_outside_the_unit_interval():
    with pytest.raises(ValueError):
        binary_mse_oracle(1.5, 1.0)


def test_mis_sized_values_name_both_sizes():
    p = Prior([0.2, 0.3, 0.5])
    with pytest.raises(DimensionMismatchError, match="2 values.*size 3"):
        mimo_mse_oracle(p, 1.0, values=[0.0, 1.0])
    with pytest.raises(DimensionMismatchError, match="4 values.*size 3"):
        output_range_oracle(3, 3, p, 1.0, values=[0.0, 1.0, 2.0, 3.0])


def test_output_range_between_one_and_d_is_rejected():
    with pytest.raises(ValueError):
        output_range_oracle(3, 2, Prior([0.2, 0.3, 0.5]), 1.0)
