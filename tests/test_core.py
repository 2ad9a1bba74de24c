import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipagg import (Channel, Domain, Population, Prior, generate_population,
                    mse_binary_lip_opt, opt_binary_lip, output_distribution, validate_channel)
from lipagg.core import (Histogram, Summation, Survey, WeightedSum, check_epsilon,
                         flip_probability, task_form)
from lipagg.errors import (
    DimensionMismatchError,
    NegativeEntryError,
    RowSumMismatchError,
    ValidationError,
)

from conftest import random_channel, random_prior


def test_validate_identity_ok():
    validate_channel(Channel(np.eye(2)))


def test_validate_row_sum_mismatch_reports_row():
    with pytest.raises(RowSumMismatchError) as err:
        Channel(np.array([[0.5, 0.5], [0.3, 0.6]]))
    assert err.value.row == 1


def test_validate_negative_entry_reports_row():
    with pytest.raises(NegativeEntryError) as err:
        Channel(np.array([[1.1, -0.1], [0.0, 1.0]]))
    assert err.value.row == 0


def test_validate_reports_the_first_bad_row():
    # a bad sum in row 1 comes before an entry outside [0, 1] in row 2
    with pytest.raises(RowSumMismatchError) as err:
        Channel(np.array([[0.5, 0.5], [0.3, 0.6], [1.5, -0.5]]))
    assert (err.value.row, err.value.row_sum) == (1, pytest.approx(0.9))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_rejects_an_entry_that_is_not_a_number_in_range(bad):
    # NaN < 0 and NaN > 1 are both False: only "not within [0, 1]" catches it
    with pytest.raises(NegativeEntryError) as err:
        Channel(np.array([[0.5, 0.5], [bad, 0.5]]))
    assert (err.value.row, err.value.col) == (1, 0)
    assert math.isnan(err.value.value) if math.isnan(bad) else err.value.value == bad


def test_a_matrix_whose_rows_do_not_sum_to_one_is_not_a_channel():
    # it has no LIP level, so no audit or estimate may read one
    with pytest.raises(RowSumMismatchError) as err:
        Channel([[0.5, 0.6], [0.5, 0.5]])
    assert (err.value.row, err.value.row_sum) == (0, pytest.approx(1.1))


_P1_READERS = {
    "prior": Prior.binary,
    "opt-binary-lip": lambda p1: opt_binary_lip(p1, 1.0),
    "mse-binary-lip-opt": lambda p1: mse_binary_lip_opt(p1, 1.0),
    "population": lambda p1: generate_population(3, "global", p1=p1),
}


@pytest.mark.parametrize("reader, p1", [
    (reader, p1) for reader in _P1_READERS for p1 in (True, "0.3", None)
    # generate_population reads a None p1 as absent and asks for p_vector
    if not (reader == "population" and p1 is None)])
def test_a_binary_prior_reads_p1_as_a_real(reader, p1):
    # True is not read as 1.0, nor "0.3" as 0.3
    with pytest.raises(ValidationError, match="p1 must be a number"):
        _P1_READERS[reader](p1)


def test_output_distribution_identity():
    lam = output_distribution(Channel(np.eye(2)), Prior([0.3, 0.7]))
    assert np.allclose(lam, [0.3, 0.7], atol=1e-15)


def test_output_distribution_total_randomization():
    ch = Channel(np.array([[0.5, 0.5], [0.5, 0.5]]))
    for p1 in (0.0, 0.2, 0.9):
        lam = output_distribution(ch, Prior.binary(p1))
        assert np.allclose(lam, [0.5, 0.5], atol=1e-15)


def test_output_distribution_optimal_channel_marginal_equals_prior():
    # q0 = 0.2/2, q1 = 0.8/2 at eps = ln 2; hand matrix-vector product
    ch = Channel(np.array([[0.9, 0.1], [0.4, 0.6]]))
    lam = output_distribution(ch, Prior.binary(0.2))
    assert np.allclose(lam, [0.8, 0.2], atol=1e-12)


def test_output_distribution_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        output_distribution(Channel(np.eye(3)), Prior([0.5, 0.5]))


def test_output_distribution_sums_to_one(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        ch = random_channel(rng, d)
        lam = output_distribution(ch, random_prior(rng, d))
        assert abs(lam.sum() - 1.0) <= 1e-12
        assert np.all(lam >= 0.0)


def test_bayes_posterior_is_distribution(rng):
    for _ in range(30):
        d = int(rng.integers(2, 6))
        ch = random_channel(rng, d)
        p = random_prior(rng, d)
        lam = output_distribution(ch, p)
        for k in range(d):
            if lam[k] > 0:
                post = p.p * ch.matrix[:, k] / lam[k]
                assert abs(post.sum() - 1.0) <= 1e-9
                assert np.all(post >= -1e-15)


def test_domain_invariants():
    with pytest.raises(ValueError):
        Domain([1.0])
    with pytest.raises(ValueError):
        Domain([1.0, 1.0])
    assert Domain.binary().index_of(1.0) == 1
    assert Domain.binary().index_of(3.0) == -1


def test_indices_of_agrees_with_index_of_value_by_value():
    # NaN matches nothing, -0.0 matches 0.0, and values are distinct (a
    # domain cannot hold both 0.0 and -0.0), so the first match is the match
    dom = Domain([0.0, 1.0, 2.5, -3.0])
    values = np.array([2.5, -0.0, 0.0, np.nan, 7.0, -3.0, 1.0, np.inf, -np.inf])
    got = dom.indices_of(values)
    assert got.tolist() == [dom.index_of(v) for v in values] == [2, 0, 0, -1, -1, 3, 1, -1, -1]
    assert dom.indices_of(np.array([])).shape == (0,)


def test_prior_invariants():
    with pytest.raises(ValueError):
        Prior([0.5, 0.6])
    with pytest.raises(ValueError):
        Prior([-0.1, 1.1])
    Prior([0.0, 1.0])  # zero entries allowed


def test_population_invariants():
    dom = Domain.binary()
    with pytest.raises(DimensionMismatchError):
        Population(dom, np.array([[0.2, 0.3, 0.5]]))
    pop = Population(dom, [Prior.binary(0.3).p, Prior.binary(0.9).p], ["a", "b"])
    assert pop.n_users == 2
    assert pop.user_ids == ("a", "b")
    assert np.allclose(pop.prior(1).p, [0.1, 0.9])


def test_population_prior_is_a_read_only_view_of_its_row():
    priors = np.array([[0.2, 0.3, 0.5], [0.0, 1.0, 0.0], [0.6, 0.4, 0.0]])
    pop = Population(Domain.of_size(3), priors)
    for i in (0, 1, 2, -1, np.int64(1)):
        p = pop.prior(i).p
        assert np.array_equal(p, priors[i])
        assert np.shares_memory(p, pop.priors)
        assert not p.flags.writeable
        with pytest.raises(ValueError):
            p[0] = 0.5
    for not_one_row in (slice(0, 2), True, [0]):
        with pytest.raises(ValueError, match="vector"):
            pop.prior(not_one_row)


def test_nan_priors_are_rejected():
    # NaN < 0, NaN > 1 and |NaN - 1| > tol are all False
    with pytest.raises(ValueError):
        Prior([math.nan, 0.5])
    with pytest.raises(ValueError):
        Prior([math.nan, 0.5, 0.5])
    with pytest.raises(ValueError):
        Population(Domain.binary(), np.array([[0.5, 0.5], [math.nan, 1.0]]))
    with pytest.raises(ValueError, match="sums to 0.9"):
        Population(Domain.binary(), np.array([[0.5, 0.5], [0.4, 0.5]]))


def test_task_checks():
    pop = Population(Domain.binary(), np.array([[0.5, 0.5]] * 3))
    with pytest.raises(ValueError):
        task_form(Survey(target=2.0), pop)
    with pytest.raises(DimensionMismatchError):
        task_form(WeightedSum([1.0, 2.0], [0.0, 0.0]), pop)
    task_form(WeightedSum([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]), pop)


@st.composite
def _task_and_values(draw):
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 6))
    values = draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d, unique=True))
    x = np.array(draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
    pop = Population(Domain(values), np.full((n, d), 1.0 / d))
    kind = draw(st.sampled_from(("survey", "summation", "weighted-sum", "histogram")))
    if kind == "survey":
        task = Survey(values[draw(st.integers(0, d - 1))])
    elif kind == "summation":
        task = Summation()
    elif kind == "weighted-sum":
        coeff = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
        task = WeightedSum(draw(coeff), draw(coeff))
    else:
        task = Histogram()
    return pop, task, x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_task_and_values())
def test_task_form_statistic_is_definitional(case):
    # offset + sum_i w_i g(x_i) against each task's definition, by loops
    pop, task, x = case
    form = task_form(task, pop)
    got = form.total(form.g[x])
    xs = [pop.domain.values[k] for k in x]
    if isinstance(task, Survey):
        want = sum(1.0 for v in xs if v == task.target)
    elif isinstance(task, Summation):
        want = sum(xs) / len(xs)
    elif isinstance(task, WeightedSum):
        want = sum(a * v + b for a, v, b in zip(task.coefficients, xs, task.offsets))
    else:
        want = [sum(1.0 for k in x if k == j) for j in range(pop.domain.size)]
    assert np.shape(got) == np.shape(want)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_check_epsilon_accepts_finite_nonnegative_only():
    assert check_epsilon(0) == 0.0
    assert check_epsilon(800) == 800.0
    for bad in (math.inf, -math.inf, math.nan, -0.5, True, "2.5", None):
        with pytest.raises(ValueError):
            check_epsilon(bad)


def test_flip_probability_matches_scipy_bit_for_bit():
    # 1/(e^eps + 1) as scipy.special.expit(-eps) computes it, on a dense grid
    # over [0, 800] that holds the e^eps overflow edge (ln DBL_MAX ~ 709.78)
    # and the budgets where u/(1+u) with u = e^-eps is one ulp off
    from scipy.special import expit

    edge = math.log(np.finfo(float).max)
    near = edge * (1.0 + np.arange(-4, 5) * np.finfo(float).eps)  # a few ulps either side
    grid = np.concatenate([np.linspace(0.0, 800.0, 400_001), near,
                           [0.25, 0.5, 2.5, 3.0, 4.0, 5.0, 709.5, 709.78, 709.79]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.array([flip_probability(float(e)) for e in grid])
        assert flip_probability(709.79) == flip_probability(800.0) == 0.0
    assert np.array_equal(got, expit(-grid))
    assert isinstance(flip_probability(1.0), float)


_ONE_USER = Population(Domain.binary(), [[0.5, 0.5]])


@pytest.mark.parametrize("build, error", [
    (lambda: Prior([[0.5, 0.5]]), ValueError),
    (lambda: Channel(np.array([0.5, 0.5])), ValueError),
    (lambda: Channel(np.eye(2), Domain.of_size(3)), DimensionMismatchError),
    (lambda: Channel(np.eye(2), None, Domain.of_size(3)), DimensionMismatchError),
    (lambda: Population(Domain.binary(), [0.5, 0.5]), ValueError),
    (lambda: Population(Domain.binary(), np.empty((0, 2))), ValueError),
    (lambda: Population(Domain.binary(), [[0.5, 0.5]] * 3, ["a", "b"]), ValueError),
    (lambda: WeightedSum([1.0, 2.0], [0.0]), ValueError),
    (lambda: task_form("survey", _ONE_USER), TypeError),
], ids=["2d-prior", "1d-channel", "input-domain", "output-domain", "1d-population",
        "empty-population", "user-ids", "weighted-sum-lengths", "unknown-task"])
def test_malformed_inputs_raise_their_typed_error(build, error):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
