"""Pins the validity boundary of the closed-form context-aware optima.

The closed-form construction only meets its stated budget when every prior
entry is at least 1/(e^eps + 1).  Below that floor the kept-value posterior
overshoots e^eps times the prior: the measured level exceeds eps by exactly
the amount `closed_form_lip_level` predicts, and the honestly-constrained
optimum is strictly worse than the closed-form value.  These tests assert
both sides of the boundary so the regime restriction used elsewhere in the
suite is itself verified, not assumed.
"""

import math

import numpy as np
import pytest

from lipagg import (
    Prior,
    binary_mse_oracle,
    budget_feasible_prior_floor,
    closed_form_lip_level,
    measure_lip,
    mimo_mse_oracle,
    mse_binary_lip_opt,
    mse_mimo,
    opt_binary_lip,
    opt_mimo_lip,
    output_distribution,
)


def test_floor_formula():
    assert budget_feasible_prior_floor(0.0) == pytest.approx(0.5)
    assert budget_feasible_prior_floor(math.log(3.0)) == pytest.approx(0.25)


@pytest.mark.parametrize("eps", [0.4, 1.0, 2.2])
def test_binary_level_transition_at_floor(eps):
    floor = budget_feasible_prior_floor(eps)
    margin = 1e-3
    inside = floor + margin
    outside = floor - margin
    if inside < 0.5:
        lvl = measure_lip(opt_binary_lip(inside, eps), Prior.binary(inside))
        assert lvl == pytest.approx(eps, abs=1e-9)
    if outside > 0.0:
        lvl = measure_lip(opt_binary_lip(outside, eps), Prior.binary(outside))
        assert lvl > eps + 1e-6


@pytest.mark.parametrize("p_min,eps", [(0.2, math.log(2.0)), (0.1, 1.0), (0.05, 1.5)])
def test_exceeded_level_matches_prediction(p_min, eps):
    ch = opt_binary_lip(p_min, eps)
    got = measure_lip(ch, Prior.binary(p_min))
    assert got == pytest.approx(closed_form_lip_level(p_min, eps), abs=1e-12)
    assert got > eps


def test_mimo_level_for_skewed_prior():
    # smallest prior entry 0.1 with eps = 1 overshoots to ln((e-0.9)/(0.1e))
    p = Prior([0.1, 0.2, 0.7])
    got = measure_lip(opt_mimo_lip(p, 1.0), p)
    want = math.log((math.e - 0.9) / (0.1 * math.e))
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(1.9004770978893855, abs=1e-12)


def test_binary_constrained_optimum_beats_closed_form_outside_regime():
    # at (0.2, ln 2) the honest feasible minimum is ~0.1400 vs formula 0.1200
    best, (q0, q1) = binary_mse_oracle(0.2, math.log(2.0))
    closed = mse_binary_lip_opt(0.2, math.log(2.0))
    assert best > closed + 0.015
    # and the feasible optimum no longer preserves the marginal-equals-prior
    lam0 = 0.8 * (1 - q0) + 0.2 * q1
    assert abs(lam0 - 0.8) > 0.05


def test_mimo_constrained_optimum_beats_closed_form_outside_regime():
    cases = [
        (Prior([0.1, 0.2, 0.7]), 1.0, 0.02),
        # at eps = 0.5 and d = 3 the floor exceeds 1/3: no prior is in-regime
        (Prior([1 / 3, 1 / 3, 1 / 3]), 0.5, 0.01),
    ]
    for p, eps, gap in cases:
        oracle = mimo_mse_oracle(p, eps)
        closed = mse_mimo(opt_mimo_lip(p, eps), p)
        assert oracle > closed + gap


def test_empty_regime_at_small_budget():
    # max possible smallest entry is 1/d; below-floor priors are unavoidable
    assert budget_feasible_prior_floor(0.5) > 1 / 3


def test_marginal_identity_holds_even_outside_regime():
    # the construction algebra, not feasibility, gives marginal = prior
    p = Prior([0.05, 0.2, 0.75])
    lam = output_distribution(opt_mimo_lip(p, 0.5), p)
    assert np.max(np.abs(lam - p.p)) <= 1e-12
