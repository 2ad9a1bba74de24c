import math
import warnings

import numpy as np
import pytest

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
    got = mimo_mse_oracle(p, 1.0, seed=1)
    want = mse_mimo(opt_mimo_lip(p, 1.0), p)
    assert got == pytest.approx(want, abs=1e-4)


def test_histogram_oracle_matches_closed_form_in_regime():
    p = Prior([0.35, 0.32, 0.33])
    got = histogram_mse_oracle(p, 1.0, seed=2)
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
        got = mimo_mse_oracle(p, 800.0, n_random_starts=1)
    assert math.isfinite(got) and 0.0 <= got <= var
