import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipagg import (
    Channel,
    Domain,
    ExperimentConfig,
    Histogram,
    Population,
    Prior,
    Summation,
    Survey,
    WeightedSum,
    generate_population,
    mse_binary_ldp_opt,
    mse_binary_lip_opt,
    mse_histogram,
    mse_survey,
    opt_binary_ldp,
    opt_binary_lip,
    opt_mimo_lip,
    posterior_mean_mse,
    run_experiment,
    tradeoff_curve,
)
from lipagg.analysis import closed_form_total_mse
from lipagg.errors import ZeroEpsilonError
from lipagg.mechanisms import MechanismFamily, optimal_channel

from conftest import (enum_histogram_mse, enum_mae, enum_optimum, enum_value_mse,
                      random_channel, random_prior)


def _binary_mse(q, p1):
    return posterior_mean_mse(q, np.array([1.0 - p1, p1]), [0.0, 1.0])


def test_mse_binary_identity_and_constant():
    assert _binary_mse(Channel(np.eye(2)), 0.3) == pytest.approx(0.0, abs=1e-15)
    const = Channel(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert _binary_mse(const, 0.3) == pytest.approx(0.21, abs=1e-15)
    degenerate = Channel(np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert _binary_mse(degenerate, 0.3) == pytest.approx(0.21, abs=1e-15)


def test_mse_binary_optimal_channel_closed_form(rng):
    for _ in range(10):
        p1 = float(rng.uniform(0.02, 0.98))
        eps = float(rng.uniform(0.0, 4.0))
        got = _binary_mse(opt_binary_lip(p1, eps), p1)
        assert got == pytest.approx(mse_binary_lip_opt(p1, eps), abs=1e-12)


def test_mse_binary_matches_enumeration(rng):
    for _ in range(30):
        ch = random_channel(rng, 2)
        p1 = float(rng.uniform(0.0, 1.0))
        want = enum_value_mse(ch.matrix, [1 - p1, p1], [0.0, 1.0])
        assert _binary_mse(ch, p1) == pytest.approx(want, abs=1e-10)


def test_mse_binary_ldp_formula():
    assert mse_binary_ldp_opt(0.3, 0.0) == pytest.approx(0.21, abs=1e-12)
    for p1 in (0.5, 0.2, 0.85):
        for eps in (0.3, 1.0, 2.5):
            direct = _binary_mse(opt_binary_ldp(eps), p1)
            assert mse_binary_ldp_opt(p1, eps) == pytest.approx(direct, abs=1e-12)


def test_relative_gap_grows_with_prior_skew():
    # both MSEs vanish at degenerate priors, so the advantage that grows
    # with skew is the relative one
    gaps = [(mse_binary_ldp_opt(p1, 1.0) - mse_binary_lip_opt(p1, 1.0))
            / mse_binary_ldp_opt(p1, 1.0)
            for p1 in (0.5, 0.6, 0.7, 0.8, 0.9, 0.97)]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_dominance_grid_equality_only_at_zero():
    p_grid = np.linspace(0.01, 0.99, 50)
    e_grid = np.linspace(0.0, 5.0, 50)
    for p1 in p_grid:
        for eps in e_grid:
            lip = mse_binary_lip_opt(p1, eps)
            ldp = mse_binary_ldp_opt(p1, eps)
            assert lip <= ldp + 1e-12
            if eps == 0.0:
                assert abs(lip - ldp) <= 1e-12
            else:
                assert ldp - lip > 1e-12


def test_mse_mimo_identity_and_constant(rng):
    dom = Domain.of_size(3)
    p = random_prior(rng, 3)
    assert posterior_mean_mse(Channel(np.eye(3)), p.p, dom.values) == pytest.approx(0.0, abs=1e-12)
    const = Channel(np.tile(p.p, (3, 1)))
    var = float(np.dot(p.p, dom.values ** 2) - np.dot(p.p, dom.values) ** 2)
    assert posterior_mean_mse(const, p.p, dom.values) == pytest.approx(var, abs=1e-12)


def test_mse_mimo_matches_enumeration(rng):
    for d in (2, 3, 4):
        for _ in range(10):
            ch = random_channel(rng, d)
            p = random_prior(rng, d)
            want = enum_value_mse(ch.matrix, p.p, list(range(d)))
            assert posterior_mean_mse(ch, p.p, np.arange(d)) == pytest.approx(want, abs=1e-10)


def test_mse_mimo_worked_channel_against_enumeration():
    dom = Domain([1.0, 2.0, 3.0])
    p = Prior([0.1, 0.2, 0.7])
    ch = opt_mimo_lip(p, 1.0, dom)
    want = enum_value_mse(ch.matrix, p.p, [1.0, 2.0, 3.0])
    assert posterior_mean_mse(ch, p.p, dom.values) == pytest.approx(want, abs=1e-10)


def test_mse_histogram_identity_and_constant(rng):
    p = random_prior(rng, 4)
    assert mse_histogram(Channel(np.eye(4)), p) == pytest.approx(0.0, abs=1e-12)
    const = Channel(np.tile(p.p, (4, 1)))
    want = float(np.sum(p.p * (1 - p.p)))
    assert mse_histogram(const, p) == pytest.approx(want, abs=1e-12)


def test_mse_histogram_matches_enumeration(rng):
    for d in (2, 3, 4):
        for _ in range(10):
            ch = random_channel(rng, d)
            p = random_prior(rng, d)
            want = enum_histogram_mse(ch.matrix, p.p)
            assert mse_histogram(ch, p) == pytest.approx(want, abs=1e-10)


def test_mae_values():
    assert enum_mae(np.eye(3), [0.2, 0.3, 0.5], [0.0, 1.0, 2.0]) == pytest.approx(0.0, abs=1e-15)
    half = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert enum_mae(half, [0.7, 0.3], [0.0, 1.0]) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("p1", [2.0, -0.5, math.nan])
@pytest.mark.parametrize("mse", [mse_binary_lip_opt, mse_binary_ldp_opt])
def test_binary_closed_forms_reject_a_probability_outside_the_unit_interval(mse, p1):
    """p1 is read as a binary prior, as ``opt_binary_lip`` reads it; an MSE
    of -1.2 at p1 = 2 was once returned."""
    with pytest.raises(ValueError, match="prior entries must lie in"):
        mse(p1, 1.0)


def test_equal_mse_at_zero_budget_and_mimo_reduction():
    for p1 in (0.1, 0.5, 0.8):
        assert mse_binary_lip_opt(p1, 0.0) == pytest.approx(mse_binary_ldp_opt(p1, 0.0), abs=1e-12)
    p = Prior.binary(0.35)
    assert posterior_mean_mse(opt_mimo_lip(p, 1.3), p.p, [0.0, 1.0]) == pytest.approx(
        mse_binary_lip_opt(0.35, 1.3), abs=1e-12)


def _pop(n, p1):
    return Population(Domain.binary(), np.tile([1 - p1, p1], (n, 1)))


def test_curve_zero_budget_row_is_prior_sd():
    pop = _pop(100, 0.1)
    curve = tradeoff_curve(MechanismFamily.OPT_BINARY_LIP, pop, Survey(1.0), [0.0, 1.0])
    row0 = [r for r in curve.rows if r.epsilon == 0.0][0]
    assert row0.metric == pytest.approx(math.sqrt(0.09), abs=1e-12)
    assert row0.trials == 0


def test_curve_ordering_and_large_budget_limit():
    pop = _pop(100, 0.1)
    grid = list(np.arange(1.0, 5.01, 0.5)) + [20.0]
    lip = tradeoff_curve(MechanismFamily.OPT_BINARY_LIP, pop, Survey(1.0), grid)
    ldp = tradeoff_curve(MechanismFamily.OPT_BINARY_LDP, pop, Survey(1.0), grid)
    lv = {r.epsilon: r.metric for r in lip.rows}
    dv = {r.epsilon: r.metric for r in ldp.rows}
    for e in grid:
        assert lv[e] <= dv[e] + 1e-15
    assert lv[20.0] < 1e-4


def test_curve_csv_schema_and_sorting():
    pop = _pop(5, 0.4)
    curve = tradeoff_curve(MechanismFamily.OPT_BINARY_LDP, pop, Survey(1.0), [2.0, 1.0])
    text = curve.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "epsilon,family,metric,trials"
    eps_col = [float(line.split(",")[0]) for line in lines[1:]]
    assert eps_col == sorted(eps_col)
    assert all(line.endswith(",0") for line in lines[1:])
    # no budget may be missing or give two rows; 1 and 1.0 are the same budget
    for grid in ([], [1.0, 2.0, 1]):
        with pytest.raises(ValueError, match="eps_grid"):
            tradeoff_curve(MechanismFamily.OPT_BINARY_LDP, pop, Survey(1.0), grid)


def test_summation_task_scales_per_user_contribution():
    pop = _pop(10, 0.3)
    per_survey = closed_form_total_mse(MechanismFamily.OPT_BINARY_LIP, pop, Survey(1.0), 1.0)
    per_sum = closed_form_total_mse(MechanismFamily.OPT_BINARY_LIP, pop, Summation(), 1.0)
    assert per_sum == pytest.approx(per_survey / 100.0, rel=1e-12)


def test_prior_unaware_family_rejects_zero_budget():
    with pytest.raises(ZeroEpsilonError):
        closed_form_total_mse(MechanismFamily.SYMMETRIC_RR, _pop(10, 0.3), Survey(1.0), 0.0)


def test_curve_rejects_family_task_mismatch():
    # the closed form rejects what the Monte-Carlo harness rejects
    binary = _pop(10, 0.3)
    wide = Population(Domain.of_size(3), np.tile([0.2, 0.3, 0.5], (10, 1)))
    for family, pop, task in (
            (MechanismFamily.SYMMETRIC_RR, binary, Summation()),
            (MechanismFamily.SYMMETRIC_RR, binary, Histogram()),
            (MechanismFamily.OUE, binary, Survey(1.0)),
            (MechanismFamily.OPT_BINARY_LIP, wide, Survey(1.0))):
        with pytest.raises(ValueError):
            tradeoff_curve(family, pop, task, [1.0])
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(task=task, families=(family,), eps_grid=(1.0,),
                                            trials=1, seed=0, population=pop))


_OPT_FAMILIES = (MechanismFamily.OPT_BINARY_LIP, MechanismFamily.OPT_BINARY_LDP,
                 MechanismFamily.OPT_MIMO_LIP, MechanismFamily.OPT_MIMO_LDP)


def _dense_channel(family, prior, eps, domain):
    return Channel(enum_optimum(family, prior.p, eps), domain, domain)


@st.composite
def _closed_form_case(draw):
    family = draw(st.sampled_from(_OPT_FAMILIES))
    binary = family in (MechanismFamily.OPT_BINARY_LIP, MechanismFamily.OPT_BINARY_LDP)
    d = 2 if binary else draw(st.integers(2, 5))
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d).filter(lambda w: sum(w) > 0.0),
                         min_size=n, max_size=n))
    priors = np.array(rows)
    priors /= priors.sum(axis=1, keepdims=True)
    pop = Population(Domain.of_size(d), priors)
    kind = draw(st.sampled_from(("survey", "summation", "weighted-sum", "histogram")))
    if kind == "survey":
        task = Survey(float(draw(st.integers(0, d - 1))))
    elif kind == "summation":
        task = Summation()
    elif kind == "weighted-sum":
        coeffs = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        task = WeightedSum(coeffs, np.zeros(n))
    else:
        task = Histogram()
    return family, pop, task, draw(st.floats(0.0, 10.0))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_closed_form_case())
def test_closed_form_total_matches_dense_reference(case):
    # the sum over users of the dense per-user MSE on the optimum enumerated
    # from its e^eps expressions; each dense term is a difference of O(1) quantities, so it
    # carries an absolute rounding error near 1e-15, covered by abs=1e-12
    family, pop, task, eps = case
    dom, n = pop.domain, pop.n_users
    want = 0.0
    for i in range(n):
        prior = pop.prior(i)
        ch = _dense_channel(family, prior, eps, dom)
        if isinstance(task, Survey):
            want += mse_survey(ch, prior, dom.index_of(task.target))
        elif isinstance(task, Histogram):
            want += mse_histogram(ch, prior)
        elif isinstance(task, Summation):
            want += posterior_mean_mse(ch, prior.p, dom.values) / n ** 2
        else:
            want += task.coefficients[i] ** 2 * posterior_mean_mse(ch, prior.p, dom.values)
    got = closed_form_total_mse(family, pop, task, eps)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("family", list(MechanismFamily))
def test_closed_forms_read_a_family_tag_as_its_member(family):
    """A tag string gives its member's closed-form total and curve bit for
    bit, and a string that is no tag raises ``ValueError`` rather than
    falling through to the context-free optimum."""
    binary = family in (MechanismFamily.OPT_BINARY_LIP, MechanismFamily.OPT_BINARY_LDP,
                        MechanismFamily.SYMMETRIC_RR)
    pop = generate_population(50, "local-uniform", seed=4,
                              domain=None if binary else Domain.of_size(4))
    task = Survey(1.0) if family is MechanismFamily.SYMMETRIC_RR or (
        binary and family is not MechanismFamily.OPT_BINARY_LDP) else Histogram()
    assert (closed_form_total_mse(family.value, pop, task, 1.0)
            == closed_form_total_mse(family, pop, task, 1.0))
    assert (tradeoff_curve(family.value, pop, task, (0.5, 2.0)).rows
            == tradeoff_curve(family, pop, task, (0.5, 2.0)).rows)
    for call in (lambda: closed_form_total_mse("bogus", pop, task, 1.0),
                 lambda: tradeoff_curve("bogus", pop, task, (1.0,))):
        with pytest.raises(ValueError, match="unknown mechanism family"):
            call()
    with pytest.raises(ValueError, match="not a MechanismFamily member"):
        optimal_channel(family.value, 1.0, pop.priors)
