import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from lipagg import (
    Domain,
    ExperimentConfig,
    Histogram,
    IngestSpec,
    Population,
    Prior,
    Summation,
    Survey,
    WeightedSum,
    generate_population,
    ingest,
    load_population,
    mse_binary_ldp_opt,
    mse_binary_lip_opt,
    mse_mimo,
    opt_mimo_ldp,
    opt_mimo_lip,
    run_experiment,
    save_population,
    tradeoff_curve,
)
from lipagg.errors import (
    EmptyInputError,
    MissingColumnError,
    ParseError,
    UnreachableOutputError,
)
from lipagg.mechanisms import MechanismFamily


def test_generate_population_global():
    pop = generate_population(100, "global", seed=0, p1=0.1)
    assert pop.n_users == 100
    assert np.allclose(pop.priors, np.tile([0.9, 0.1], (100, 1)))


def test_generate_population_reproducible():
    a = generate_population(5, "local-uniform", seed=11)
    b = generate_population(5, "local-uniform", seed=11)
    c = generate_population(5, "local-uniform", seed=12)
    assert np.array_equal(a.priors, b.priors)
    assert not np.array_equal(a.priors, c.priors)


def test_generate_population_uniform_mean():
    pop = generate_population(100_000, "local-uniform", seed=3)
    mean = pop.priors[:, 1].mean()
    sigma = math.sqrt(1.0 / 12.0 / 100_000)
    assert abs(mean - 0.5) <= 3 * sigma


def test_generate_population_dirichlet_rows():
    dom = Domain.of_size(4)
    pop = generate_population(50, "local-uniform", seed=5, domain=dom)
    assert pop.priors.shape == (50, 4)
    assert np.allclose(pop.priors.sum(axis=1), 1.0, atol=1e-12)


def _survey_config(n, p1, families, grid, trials, seed):
    pop = generate_population(n, "global", seed=1, p1=p1)
    return ExperimentConfig(task=Survey(1.0), families=tuple(families),
                            eps_grid=tuple(grid), trials=trials, seed=seed,
                            population=pop)


def test_empirical_converges_to_closed_form():
    # 3-sigma envelopes around the closed form shrink with the trial count
    closed = mse_binary_lip_opt(0.1, 1.0)
    for trials in (100, 1000, 10_000):
        cfg = _survey_config(1000, 0.1, ["opt-binary-lip"], [1.0], trials, 99)
        row = [r for r in run_experiment(cfg).rows if r.trials][0]
        emp = row.metric ** 2  # E / N
        tol = 3.0 * math.sqrt(2.0 / trials) * closed
        assert abs(emp - closed) <= tol


def test_run_experiment_reproducible():
    cfg = _survey_config(50, 0.2, ["opt-binary-lip", "symmetric-rr"],
                         [0.5, 1.5], 200, 7)
    a = run_experiment(cfg).to_csv()
    b = run_experiment(cfg).to_csv()
    assert a == b


def test_run_experiment_emits_closed_form_rows():
    cfg = _survey_config(20, 0.3, ["opt-binary-ldp"], [1.0], 50, 5)
    rows = run_experiment(cfg).rows
    cf = [r for r in rows if r.trials == 0]
    assert len(cf) == 1
    assert cf[0].metric == pytest.approx(math.sqrt(mse_binary_ldp_opt(0.3, 1.0)), rel=1e-12)


def test_run_experiment_summation_and_weighted_consistent():
    pop = generate_population(30, "global", seed=2, p1=0.4)
    for task in (Summation(), WeightedSum(np.full(30, 2.0), np.full(30, 1.0))):
        cfg = ExperimentConfig(task=task, families=("opt-binary-lip",),
                               eps_grid=(1.0,), trials=3000, seed=13, population=pop)
        rows = run_experiment(cfg).rows
        cf = [r for r in rows if r.trials == 0][0].metric
        emp = [r for r in rows if r.trials > 0][0].metric
        assert emp == pytest.approx(cf, rel=0.25)


def test_mimo_histogram_runs_and_matches_closed_form():
    dom = Domain.of_size(4)
    pop = generate_population(200, "global", seed=4,
                              p_vector=[0.3, 0.3, 0.2, 0.2], domain=dom)
    cfg = ExperimentConfig(task=Histogram(), families=("opt-mimo-lip", "oue"),
                           eps_grid=(2.0,), trials=400, seed=21, population=pop)
    rows = run_experiment(cfg).rows
    emp = {r.family: r.metric for r in rows if r.trials > 0}
    cf = {r.family: r.metric for r in rows if r.trials == 0}
    assert emp["opt-mimo-lip"] == pytest.approx(cf["opt-mimo-lip"], rel=0.2)
    # the unary-encoding formula under-counts by the data-dependent term
    assert emp["oue"] == pytest.approx(cf["oue"], rel=0.3)
    assert emp["opt-mimo-lip"] < emp["oue"]
    # the binary optimum's closed form counts both buckets of the histogram
    binary = generate_population(200, "global", seed=4, p1=0.3)
    cfg = ExperimentConfig(task=Histogram(), families=("opt-binary-lip",),
                           eps_grid=(2.0,), trials=400, seed=21, population=binary)
    rows = run_experiment(cfg).rows
    emp = [r.metric for r in rows if r.trials > 0][0]
    cf = [r.metric for r in rows if r.trials == 0][0]
    assert emp == pytest.approx(cf, rel=0.2)


def test_huge_budget_runs_without_overflow_warnings():
    binary = generate_population(20, "local-uniform", seed=3)
    wide = generate_population(20, "local-uniform", seed=3, domain=Domain.of_size(3))
    cases = ((binary, Survey(1.0), ("opt-binary-lip", "opt-binary-ldp", "symmetric-rr")),
             (wide, Histogram(), ("opt-mimo-lip", "opt-mimo-ldp", "oue")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pop, task, families in cases:
            cfg = ExperimentConfig(task=task, families=families, eps_grid=(800.0,),
                                   trials=3, seed=5, population=pop)
            rows = run_experiment(cfg).rows
            assert len(rows) == 6 and all(math.isfinite(r.metric) for r in rows)
            for fam in families:
                curve = tradeoff_curve(MechanismFamily.from_tag(fam), pop, task, [800.0])
                assert math.isfinite(curve.rows[0].metric)


def test_crossover_at_small_population_closed_form():
    # seeded skewed local priors: half-budget context-aware beats the
    # context-free optimum at small budgets and loses at large ones
    pop = generate_population(5, "local-uniform", seed=46)
    p1s = pop.priors[:, 1]
    grid = np.arange(0.5, 5.01, 0.5)
    lip_half = np.array([sum(mse_binary_lip_opt(p, e / 2) for p in p1s) for e in grid])
    ldp = np.array([sum(mse_binary_ldp_opt(p, e) for p in p1s) for e in grid])
    assert lip_half[0] < ldp[0]
    assert lip_half[-1] > ldp[-1]


def test_mimo_orderings_large_population():
    # 500 users, 5 categories, random priors: context-aware wins outright and
    # even at half budget at the strong-privacy end
    dom = Domain.of_size(5)
    pop = generate_population(500, "local-uniform", seed=2, domain=dom)
    for eps in (1.0, 2.0, 3.0):
        lip = sum(mse_mimo(opt_mimo_lip(pop.prior(i), eps, dom), pop.prior(i), dom)
                  for i in range(500))
        ldp = sum(mse_mimo(opt_mimo_ldp(5, eps, dom), pop.prior(i), dom)
                  for i in range(500))
        assert lip < ldp
    for eps in (1.0, 2.0):
        lip_half = sum(mse_mimo(opt_mimo_lip(pop.prior(i), eps / 2, dom), pop.prior(i), dom)
                       for i in range(500))
        ldp = sum(mse_mimo(opt_mimo_ldp(5, eps, dom), pop.prior(i), dom)
                  for i in range(500))
        assert lip_half < ldp


def test_wider_domain_amplifies_context_advantage():
    dom = Domain.of_size(20)
    uniform = Prior(np.full(20, 0.05))
    ldp = mse_mimo(opt_mimo_ldp(20, 1.0, dom), uniform, dom)
    lip_half = mse_mimo(opt_mimo_lip(uniform, 0.5, dom), uniform, dom)
    assert ldp > lip_half
    small = Domain.binary()
    u2 = Prior.binary(0.5)
    assert mse_mimo(opt_mimo_ldp(2, 1.0, small), u2, small) < \
        mse_mimo(opt_mimo_lip(u2, 0.5, small), u2, small)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_ingest_binarize_toy(tmp_path):
    f = tmp_path / "clicks.csv"
    f.write_text("site,clicks\na,20000\nb,100\nc,16000\n")
    spec = IngestSpec(mode="binarize", column="clicks", threshold=15000.0)
    res = ingest(str(f), spec)
    assert np.array_equal(res.values, [1.0, 0.0, 1.0])
    assert res.statistic == 2.0
    assert np.allclose(res.population.priors[0], [1 / 3, 2 / 3])


def test_ingest_grid_toy(tmp_path):
    f = tmp_path / "points.csv"
    f.write_text("lat,lon\n0.1,0.1\n0.9,0.9\n")
    spec = IngestSpec(mode="grid", lat_col="lat", lon_col="lon",
                      grid_rows=2, grid_cols=2, bbox=(0.0, 1.0, 0.0, 1.0))
    res = ingest(str(f), spec)
    assert np.array_equal(res.values, [0.0, 3.0])
    assert np.array_equal(res.statistic, [1.0, 0.0, 0.0, 1.0])
    assert np.allclose(res.population.priors[0], [0.5, 0.0, 0.0, 0.5])


def test_ingest_per_user_history(tmp_path):
    f = tmp_path / "hist.csv"
    rows = ["user,place"]
    rows += ["u1,0"] * 7 + ["u1,1"] * 3
    rows += ["u2,1"] * 9 + ["u2,0"]
    f.write_text("\n".join(rows) + "\n")
    spec = IngestSpec(mode="categorical", column="place",
                      prior_source="per-user-history", user_col="user")
    res = ingest(str(f), spec)
    assert res.population.n_users == 2
    assert np.allclose(res.population.priors[0], [0.7, 0.3])
    assert np.allclose(res.population.priors[1], [0.1, 0.9])
    # true value is each user's last event
    assert np.array_equal(res.values, [1.0, 0.0])


def test_ingest_errors(tmp_path):
    missing = tmp_path / "m.csv"
    missing.write_text("a,b\n1,2\n")
    with pytest.raises(MissingColumnError):
        ingest(str(missing), IngestSpec(mode="binarize", column="c", threshold=1.0))
    empty = tmp_path / "e.csv"
    empty.write_text("clicks\n")
    with pytest.raises(EmptyInputError):
        ingest(str(empty), IngestSpec(mode="binarize", column="clicks", threshold=1.0))
    bad = tmp_path / "b.csv"
    bad.write_text("clicks\n12\nnope\n")
    with pytest.raises(ParseError) as err:
        ingest(str(bad), IngestSpec(mode="binarize", column="clicks", threshold=1.0))
    assert err.value.line == 3


def test_population_roundtrip(tmp_path):
    f = tmp_path / "clicks.csv"
    f.write_text("clicks\n20000\n100\n16000\n")
    res = ingest(str(f), IngestSpec(mode="binarize", column="clicks", threshold=15000.0))
    path = tmp_path / "pop.json"
    save_population(res, str(path))
    pop, values = load_population(str(path))
    assert np.array_equal(values, res.values)
    assert np.array_equal(pop.priors, res.population.priors)


def test_fixture_clickstream_shape():
    # shipped 100-row synthetic file in the click-stream shape
    path = str(Path(__file__).parent / "fixtures" / "clickstream.csv")
    res = ingest(path, IngestSpec(mode="binarize", column="clicks", threshold=15000.0))
    assert res.population.n_users == 100
    p1 = float(res.population.priors[0, 1])
    assert res.statistic == pytest.approx(100 * p1, abs=1e-9)
    assert 0.0 < p1 < 1.0


def test_fixture_checkins_shape():
    # shipped 100-row synthetic file in the check-in shape; 6x6 grid leaves
    # plenty of zero-prior cells, which the context-aware mechanism handles
    path = str(Path(__file__).parent / "fixtures" / "checkins.csv")
    spec = IngestSpec(mode="grid", lat_col="lat", lon_col="lon",
                      grid_rows=6, grid_cols=6, bbox=(30.0, 31.0, -98.0, -97.0),
                      prior_source="per-user-history", user_col="user")
    res = ingest(path, spec)
    assert res.population.n_users == 25
    assert res.population.domain.size == 36
    assert np.allclose(res.population.priors.sum(axis=1), 1.0, atol=1e-12)
    assert res.statistic.sum() == 25
    cfg = ExperimentConfig(task=Histogram(), families=("opt-mimo-lip",),
                           eps_grid=(2.0,), trials=60, seed=3,
                           population=res.population, fixed_values=res.values)
    rows = run_experiment(cfg).rows
    assert rows[0].metric >= 0.0


def test_fixed_values_experiment(tmp_path):
    # ingested data: values held fixed, only perturbation resampled
    f = tmp_path / "clicks.csv"
    f.write_text("clicks\n" + "\n".join(["20000"] * 30 + ["10"] * 70) + "\n")
    res = ingest(str(f), IngestSpec(mode="binarize", column="clicks", threshold=15000.0))
    cfg = ExperimentConfig(task=Survey(1.0), families=("opt-binary-lip",),
                           eps_grid=(3.0,), trials=300, seed=8,
                           population=res.population, fixed_values=res.values)
    rows = run_experiment(cfg).rows
    assert all(r.trials > 0 for r in rows)  # no closed-form rows in fixed mode
    assert rows[0].metric < math.sqrt(0.3 * 0.7)


def test_fixed_value_outside_prior_support_is_unreachable():
    # the kept output 1 has zero marginal under prior [1, 0]: no posterior
    # exists for it, as estimators.estimate reports for the same observation
    pop = Population(Domain.binary(), np.tile([1.0, 0.0], (10, 1)))
    cfg = ExperimentConfig(task=Survey(1.0), families=("opt-mimo-lip",), eps_grid=(2.0,),
                           trials=5, seed=0, population=pop, fixed_values=np.ones(10))
    with pytest.raises(UnreachableOutputError):
        run_experiment(cfg)
    # the context-free channel emits every output, so the same data runs
    ldp = ExperimentConfig(task=Survey(1.0), families=("opt-mimo-ldp",), eps_grid=(2.0,),
                           trials=5, seed=0, population=pop, fixed_values=np.ones(10))
    assert math.isfinite(run_experiment(ldp).rows[0].metric)
