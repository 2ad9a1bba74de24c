import copy
import hashlib
import itertools
import json
import math
import sys
import tracemalloc
import warnings
from collections import Counter
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
    context_free_estimate,
    estimate,
    generate_population,
    ingest,
    load_population,
    mse_binary_ldp_opt,
    mse_binary_lip_opt,
    opt_binary_ldp,
    opt_binary_lip,
    opt_mimo_ldp,
    opt_mimo_lip,
    oue_channel,
    oue_count_estimate,
    oue_counts,
    posterior_mean_mse,
    run_experiment,
    save_population,
    tradeoff_curve,
)
from lipagg.errors import (
    DimensionMismatchError,
    EmptyInputError,
    InfeasibleError,
    MissingColumnError,
    ParseError,
    UnreachableOutputError,
    ValidationError,
)
from lipagg.mechanisms import MechanismFamily, check_family_task, optimal_channel


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


@pytest.mark.parametrize("mode, kwargs", [
    ("local-uniform", dict(p1=0.3)),
    ("local-uniform", dict(p_vector=[0.5, 0.5])),
    ("global", dict(p1=0.3, p_vector=[0.7, 0.3])),
    ("global", dict()),
])
def test_generate_population_rejects_unused_or_conflicting_priors(mode, kwargs):
    with pytest.raises(ValueError):
        generate_population(5, mode, seed=0, **kwargs)


@pytest.mark.parametrize("size, seed, digest", [
    (2, 0, "a23da25991943a01320090fa140d8d55c87ca097fda496845102067292aeef2c"),
    (2, 11, "58587690e0b4997109730fae754af80b8555c7fec3d4213345e2e9d6682d283d"),
    (3, 0, "fd7e258d07a215bdd12bc0d6114103ee23049c66a1eca712b09f3f5b35c36db0"),
    (3, 11, "6898e6b1411fe2be74cc8fe7a2a2d0e71d50658285ed2c6a300b7830e0482e25"),
])
def test_local_uniform_populations_keep_their_bytes(size, seed, digest):
    """A seeded population is an input: a change to the Monte-Carlo streams
    must not move it.  The digests were taken under stream layout 2."""
    pop = generate_population(40, "local-uniform", seed=seed, domain=Domain.of_size(size))
    assert hashlib.sha256(pop.priors.tobytes()).hexdigest() == digest


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
    # the unary-encoding closed form counts the hot bit's own variance
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
        lip = sum(posterior_mean_mse(opt_mimo_lip(pop.prior(i), eps, dom), pop.priors[i],
                                     dom.values) for i in range(500))
        ldp = sum(posterior_mean_mse(opt_mimo_ldp(5, eps, dom), pop.priors[i], dom.values)
                  for i in range(500))
        assert lip < ldp
    for eps in (1.0, 2.0):
        lip_half = sum(posterior_mean_mse(opt_mimo_lip(pop.prior(i), eps / 2, dom), pop.priors[i],
                                          dom.values) for i in range(500))
        ldp = sum(posterior_mean_mse(opt_mimo_ldp(5, eps, dom), pop.priors[i], dom.values)
                  for i in range(500))
        assert lip_half < ldp


def test_wider_domain_amplifies_context_advantage():
    dom = Domain.of_size(20)
    uniform = Prior(np.full(20, 0.05))
    ldp = posterior_mean_mse(opt_mimo_ldp(20, 1.0, dom), uniform.p, dom.values)
    lip_half = posterior_mean_mse(opt_mimo_lip(uniform, 0.5, dom), uniform.p, dom.values)
    assert ldp > lip_half
    small = Domain.binary()
    u2 = Prior.binary(0.5)
    assert posterior_mean_mse(opt_mimo_ldp(2, 1.0, small), u2.p, small.values) < \
        posterior_mean_mse(opt_mimo_lip(u2, 0.5, small), u2.p, small.values)


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
    points = tmp_path / "p.csv"
    points.write_text("lat,lon\n0.1,0.1\n0.9,0.9\n")
    for bbox in ((0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, math.inf),
                 (0.0, 1.0, math.nan, 1.0), (0.0, 1.0, 0.0)):
        with pytest.raises(ValueError, match="bbox"):
            ingest(str(points), IngestSpec(mode="grid", lat_col="lat", lon_col="lon",
                                           grid_rows=2, grid_cols=2, bbox=bbox))
    for coord in ("inf", "nan", "-inf"):
        points.write_text(f"lat,lon\n0.1,0.1\n0.5,0.5\n0.9,{coord}\n")
        with pytest.raises(ParseError, match="lon") as err:
            ingest(str(points), IngestSpec(mode="grid", lat_col="lat", lon_col="lon",
                                           grid_rows=2, grid_cols=2, bbox=(0.0, 1.0, 0.0, 1.0)))
        assert err.value.line == 4
    zeros = tmp_path / "z.csv"
    zeros.write_text("x\n0.0\n1.0\n-0.0\n")
    with pytest.raises(ValidationError, match="0.0 and -0.0"):
        ingest(str(zeros), IngestSpec(mode="categorical", column="x"))


_SPEC_FIELDS = {"column": "c", "threshold": 1.0, "lat_col": "lat", "lon_col": "lon",
                "grid_rows": 2, "grid_cols": 2, "bbox": (0.0, 1.0, 0.0, 1.0), "user_col": "u"}


@pytest.mark.parametrize("mode, reads", [
    ("binarize", ("column", "threshold")),
    ("categorical", ("column",)),
    ("grid", ("lat_col", "lon_col", "grid_rows", "grid_cols", "bbox")),
])
def test_ingest_spec_takes_exactly_the_fields_its_mode_reads(mode, reads):
    given = {name: _SPEC_FIELDS[name] for name in reads}
    IngestSpec(mode=mode, **given)
    IngestSpec(mode=mode, **given, prior_source="per-user-history", user_col="u")
    for name, value in _SPEC_FIELDS.items():
        if name in reads:
            with pytest.raises(ValueError, match=f"needs {name}"):
                IngestSpec(mode=mode, **{k: v for k, v in given.items() if k != name})
        else:  # another mode's field, or user_col under a global prior
            with pytest.raises(ValueError, match=f"does not read {name}"):
                IngestSpec(mode=mode, **given, **{name: value})


def test_population_roundtrip(tmp_path):
    f = tmp_path / "clicks.csv"
    f.write_text("clicks\n20000\n100\n16000\n")
    res = ingest(str(f), IngestSpec(mode="binarize", column="clicks", threshold=15000.0))
    path = tmp_path / "pop.json"
    save_population(res, str(path))
    pop, values = load_population(str(path))
    assert np.array_equal(values, res.values)
    assert np.array_equal(pop.priors, res.population.priors)
    # a file with a user missing its value, or a value of the wrong type
    blob = json.loads(path.read_text())
    del blob["users"][1]["value"]
    path.write_text(json.dumps(blob))
    with pytest.raises(ValidationError, match="'value'"):
        load_population(str(path))
    blob["users"][1]["value"] = "1.0"
    path.write_text(json.dumps(blob))
    with pytest.raises(ValidationError, match="user 1 value must be a number"):
        load_population(str(path))


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


@pytest.mark.parametrize("count", [1, 3])
def test_fixed_values_need_one_entry_per_user(count):
    pop = Population(Domain.binary(), np.tile([0.5, 0.5], (10, 1)))
    with pytest.raises(DimensionMismatchError, match=f"{count} fixed values for 10 users"):
        ExperimentConfig(task=Survey(1.0), families=("opt-mimo-lip",), eps_grid=(2.0,),
                         trials=5, seed=0, population=pop, fixed_values=np.ones(count))


def test_fixed_value_outside_prior_support_is_unreachable():
    # the kept output 1 has zero marginal under prior [1, 0]: no posterior
    # exists for it, as estimators.estimate reports for the same observation
    pop = Population(Domain.binary(), np.tile([1.0, 0.0], (10, 1)))
    with pytest.raises(UnreachableOutputError):
        ExperimentConfig(task=Survey(1.0), families=("opt-mimo-lip",), eps_grid=(2.0,),
                         trials=5, seed=0, population=pop, fixed_values=np.ones(10))
    # the context-free channel emits every output, so the same data runs
    ldp = ExperimentConfig(task=Survey(1.0), families=("opt-mimo-ldp",), eps_grid=(2.0,),
                           trials=5, seed=0, population=pop, fixed_values=np.ones(10))
    assert math.isfinite(run_experiment(ldp).rows[0].metric)


def test_symmetric_rr_runs_a_fixed_value_outside_prior_support_at_any_budget():
    """The count estimator reads no posterior, so a zero-prior fixed value
    is no more unreachable at eps = 800 (where the redraw mass underflows
    and the channel keeps every value) than at eps = 5."""
    pop = Population(Domain.binary(), np.tile([1.0, 0.0], (10, 1)))

    def run(eps):
        return run_experiment(ExperimentConfig(
            task=Survey(1.0), families=("symmetric-rr",), eps_grid=(eps,), trials=20,
            seed=3, population=pop, fixed_values=np.ones(10))).to_csv()

    assert run(5.0) == "epsilon,family,metric,trials\n5.0,symmetric-rr,0.02145180036449793,20\n"
    assert run(800.0) == "epsilon,family,metric,trials\n800.0,symmetric-rr,0.0,20\n"


# Priors with zero entries, one or four users, on 2 and 3 values
_SWEEP_PRIORS = {
    (2, 1): [[1.0, 0.0]],
    (2, 4): [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.2, 0.8]],
    (3, 1): [[0.0, 0.4, 0.6]],
    (3, 4): [[1.0, 0.0, 0.0], [0.0, 0.4, 0.6], [0.2, 0.3, 0.5], [0.5, 0.0, 0.5]],
}


def _breaks_a_run_rule(fam: MechanismFamily, eps: float, task, d: int, zero_prior: bool) -> bool:
    """The run rules, restated: the binary families need d = 2, symmetric-rr
    answers surveys and unary encoding histograms, neither at eps = 0, and
    a posterior-mean family cannot keep a fixed value of zero prior (it keeps
    with probability 1 - e^-eps > 0 at eps > 0) unless it may also redraw it:
    the context-aware redraw follows the prior, and the context-free redraw
    mass underflows at eps = 800."""
    only = {MechanismFamily.SYMMETRIC_RR: Survey, MechanismFamily.OUE: Histogram}.get(fam)
    if fam.value in ("opt-binary-lip", "opt-binary-ldp", "symmetric-rr") and d != 2:
        return True
    if only is not None:
        return not isinstance(task, only) or eps == 0.0
    return zero_prior and (eps == 800.0 or (fam.value.endswith("-lip") and eps > 0.0))


@pytest.mark.parametrize("d, n", list(_SWEEP_PRIORS))
def test_every_small_config_is_rejected_by_a_run_rule_or_runs_to_finite_rows(d, n):
    """Over every task, family and budget in {0, 0.5, 800}, with sampled
    values and with values fixed on or off each user's support, 2 trials:
    every config ``ExperimentConfig`` accepts runs to finite rows, and it
    rejects, with ``ValueError`` or ``InfeasibleError``, exactly the configs
    that break a run rule."""
    priors = np.array(_SWEEP_PRIORS[d, n])
    pop = Population(Domain.of_size(d), priors)
    on = priors.argmax(axis=1)
    tasks = (Survey(float(d - 1)), Summation(), Histogram(),
             WeightedSum(np.linspace(-1.0, 2.0, n), np.full(n, 0.25)))
    accepted = 0
    for task, x, fam, eps in itertools.product(tasks, (None, on, (on + 1) % d),
                                               MechanismFamily, (0.0, 0.5, 800.0)):
        zero_prior = x is not None and np.any(priors[np.arange(n), x] == 0.0)
        broken = _breaks_a_run_rule(fam, eps, task, d, zero_prior)
        try:
            cfg = ExperimentConfig(task=task, families=(fam.value,), eps_grid=(eps,), trials=2,
                                   seed=1, population=pop,
                                   fixed_values=None if x is None else pop.domain.values[x])
        except (ValueError, InfeasibleError):
            assert broken, (task, x, fam, eps)
            continue
        assert not broken, (task, x, fam, eps)
        rows = run_experiment(cfg).rows
        assert len(rows) == (1 if x is not None else 2)
        assert all(math.isfinite(r.metric) and math.isfinite(r.mse_stderr) for r in rows)
        accepted += 1
    assert accepted > 0


@pytest.mark.parametrize("bad", [np.nan, 0.5, 2.0])
def test_fixed_values_map_to_domain_indices_or_raise(bad):
    """-0.0 is the domain value 0.0 (rows equal to those of 0.0); NaN and
    any value outside the domain raise the same ValueError."""
    pop = Population(Domain.binary(), np.tile([0.4, 0.6], (20, 1)))
    values = np.tile([0.0, 1.0], 10)

    def run(fixed):
        return run_experiment(ExperimentConfig(
            task=Survey(1.0), families=("opt-mimo-lip",), eps_grid=(1.0,), trials=30,
            seed=2, population=pop, fixed_values=fixed)).rows

    signed = np.where(values == 0.0, -0.0, values)
    assert np.signbit(signed).sum() == 10
    assert run(signed) == run(values)
    values[7] = bad
    with pytest.raises(ValueError, match="fixed values must lie in the population domain"):
        run(values)


# ---------------------------------------------------------------------------
# config validation, standard errors, chunked streams
# ---------------------------------------------------------------------------

_BAD_CONFIGS = {
    "empty families": dict(families=()),
    "empty eps grid": dict(eps_grid=()),
    "repeated family": dict(families=("opt-binary-lip", "opt-binary-lip")),
    "repeated family by tag and member": dict(
        families=("opt-binary-lip", MechanismFamily.OPT_BINARY_LIP)),
    "repeated eps": dict(eps_grid=(1.0, 0.5, 1.0)),
    "bool trials": dict(trials=True),
    "fractional trials": dict(trials=2.7),
    "float trials": dict(trials=3.0),
    "fractional seed": dict(seed=1.5),
    "negative seed": dict(seed=-1),
}


@pytest.mark.parametrize("case", sorted(_BAD_CONFIGS))
def test_config_rejects_empty_repeated_or_non_integer_entries(case):
    pop = generate_population(5, "global", seed=1, p1=0.3)
    kwargs = dict(task=Survey(1.0), families=("opt-binary-lip",), eps_grid=(0.5, 1.0),
                  trials=3, seed=0, population=pop)
    kwargs.update(_BAD_CONFIGS[case])
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_config_accepts_numpy_integers():
    pop = generate_population(5, "global", seed=1, p1=0.3)
    cfg = ExperimentConfig(task=Survey(1.0), families=("opt-binary-lip",),
                           eps_grid=(1.0,), trials=np.int64(4), seed=np.int32(2),
                           population=pop)
    assert [r.trials for r in run_experiment(cfg).rows] == [0, 4]


def _compatible_runs():
    """(population, task, families) for every task and every family that
    answers it, on the binary and a 3-ary domain."""
    binary = generate_population(12, "local-uniform", seed=31)
    ternary = generate_population(12, "local-uniform", seed=31, domain=Domain.of_size(3))
    weights = np.linspace(0.5, 2.0, 12)
    tasks = (Survey(0.0), Survey(1.0), Summation(), WeightedSum(weights, np.full(12, 0.25)),
             Histogram())
    for pop in (binary, ternary):
        for task in tasks:
            ok = []
            for fam in MechanismFamily:
                try:
                    check_family_task(fam, task, pop.domain, ())
                except ValueError:
                    continue
                ok.append(fam.value)
            yield pop, task, tuple(ok)


def test_monte_carlo_rows_agree_with_closed_form_within_five_standard_errors():
    """Every synthetic Monte-Carlo row, over the four tasks and each family
    that answers them (frozen seed 17): |metric_mc^2 - metric_cf^2| <=
    5 mse_stderr.  mse_stderr is sd(T)/(N sqrt(R)) over the per-trial
    squared errors T, the standard error of metric_mc^2, whose mean is the
    closed form; 5 standard errors leave about 6e-7 two-sided per row."""
    checked = 0
    for pop, task, families in _compatible_runs():
        cfg = ExperimentConfig(task=task, families=families, eps_grid=(0.5, 2.0),
                               trials=3000, seed=17, population=pop)
        rows = run_experiment(cfg).rows
        cf = {(r.family, r.epsilon): r.metric ** 2 for r in rows if r.trials == 0}
        for r in rows:
            if r.trials == 0:
                assert r.mse_stderr == 0.0
                continue
            assert r.mse_stderr > 0.0
            gap = abs(r.metric ** 2 - cf[(r.family, r.epsilon)])
            assert gap <= 5.0 * r.mse_stderr, (type(task).__name__, pop.domain.size,
                                               r, cf[(r.family, r.epsilon)])
            checked += 1
    # binary: 5 + 5 + 4 + 4 + 5 families, 3-ary: 2 + 2 + 2 + 2 + 3, at two budgets
    assert checked == 2 * 34


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("mode", ["global", "local-uniform"])
def test_the_three_closed_form_paths_agree_bit_for_bit(mode, d):
    """Each trials = 0 row of ``run_experiment`` equals ``tradeoff_curve``'s
    row and sqrt(closed_form_total_mse / N) bit for bit, for every task and
    every family that answers it."""
    from lipagg.analysis import closed_form_total_mse

    n, grid, domain = 7, (0.5, 2.0), Domain.of_size(d)
    p_vector = np.arange(1.0, d + 1) / (d * (d + 1) / 2) if mode == "global" else None
    pop = generate_population(n, mode, seed=9, domain=domain, p_vector=p_vector)
    tasks = (Survey(domain.values[0]), Survey(domain.values[-1]), Summation(),
             WeightedSum(np.linspace(0.5, 2.0, n), np.full(n, 0.25)), Histogram())
    checked = 0
    for task in tasks:
        families = []
        for fam in MechanismFamily:
            try:
                check_family_task(fam, task, domain, ())
            except ValueError:
                continue
            families.append(fam)
        cfg = ExperimentConfig(task=task, families=tuple(families), eps_grid=grid, trials=1,
                               seed=0, population=pop)
        rows = [r for r in run_experiment(cfg).rows if r.trials == 0]
        assert len(rows) == len(families) * len(grid)
        for row in rows:
            fam = MechanismFamily.from_tag(row.family)
            [curve_row] = [r for r in tradeoff_curve(fam, pop, task, grid).rows
                           if r.epsilon == row.epsilon]
            assert row == curve_row
            total = closed_form_total_mse(fam, pop, task, row.epsilon)
            assert row.metric == math.sqrt(total / n)
            checked += 1
    # binary: 5 + 5 + 4 + 4 + 5 families, d-ary: 2 + 2 + 2 + 2 + 3
    assert checked == len(grid) * (23 if d == 2 else 11)


def _pin_chunk(monkeypatch, cfg, chunk_trials):
    """Set ``harness._CHUNK_BYTES`` to the workspace bytes of
    ``chunk_trials`` trials of ``cfg``, so that its chunks hold that many."""
    from lipagg import harness
    from lipagg.core import task_form

    n, d = cfg.population.priors.shape
    c = task_form(cfg.task, cfg.population).g.reshape(d, -1).shape[1]
    monkeypatch.setattr(harness, "_CHUNK_BYTES",
                        chunk_trials * n * harness._Workspace.user_trial_bytes(d, c))


def _recorded_run(monkeypatch, cfg, chunk_trials):
    """Run ``cfg`` with ``chunk_trials`` trials a chunk, recording every
    sampled index and unary-encoding count array by the generator it was
    drawn from (a copy: the harness reuses its buffers from chunk to
    chunk), and the true values that each runner's ``estimate`` sees.  A
    fresh workspace holds the last index as every true value, not
    ``np.empty``'s contents, so a chunk that fails to write its values
    reads a known wrong one."""
    from lipagg import harness

    draws, seen = {}, []
    workspace, estimate = harness._Aggregation.workspace, harness._FamilyRunner.estimate

    def poisoned(agg, m):
        ws = workspace(agg, m)
        ws.x_count[...] = agg.priors.shape[1] - 1
        return ws

    def watched(runner, ws, *rest):
        seen.append(ws.x_count.copy())
        return estimate(runner, ws, *rest)

    def record(fn):
        def wrapper(arg, *rest, **kw):
            out = fn(arg, *rest, **kw)
            draws.setdefault(id(rest[-1]), []).append(out.copy())
            return out
        return wrapper

    _pin_chunk(monkeypatch, cfg, chunk_trials)
    monkeypatch.setattr(harness, "sample_rows", record(harness.sample_rows))
    monkeypatch.setattr(harness, "oue_counts", record(harness.oue_counts))
    monkeypatch.setattr(harness._Aggregation, "workspace", poisoned)
    monkeypatch.setattr(harness._FamilyRunner, "estimate", watched)
    try:
        curve = run_experiment(cfg)
    finally:
        monkeypatch.undo()
    # streams in the order they were first read; draws joined across chunks
    return curve, [np.concatenate(chunks) for chunks in draws.values()], seen


@pytest.mark.parametrize("block_trials", [1, 7])
def test_draws_and_rows_do_not_depend_on_the_chunk_size(monkeypatch, block_trials):
    """Sampled and fixed true values (the latter held per user, as from a
    population file, with no truth stream); 7 trials a chunk leaves a
    shorter last chunk of 5."""
    binary = generate_population(30, "local-uniform", seed=4)
    ternary = generate_population(30, "local-uniform", seed=4, domain=Domain.of_size(3))
    fixed = ternary.domain.values[np.arange(30) % 3]
    cases = ((binary, Survey(1.0), ("opt-binary-lip", "opt-mimo-ldp", "symmetric-rr"), None),
             (ternary, Histogram(), ("opt-mimo-lip", "opt-mimo-ldp", "oue"), None),
             (ternary, Histogram(), ("opt-mimo-lip", "opt-mimo-ldp", "oue"), fixed))
    for pop, task, families, values in cases:
        cfg = ExperimentConfig(task=task, families=families, eps_grid=(0.5, 2.0),
                               trials=40, seed=12, population=pop, fixed_values=values)
        d = pop.domain.size
        base, base_draws, _ = _recorded_run(monkeypatch, cfg, 40)
        assert all(len(x) == 40 * 30 or x.shape == (40, d) for x in base_draws)
        got, got_draws, seen = _recorded_run(monkeypatch, cfg, block_trials)
        # every runner sees every trial once, and every chunk its own true
        # values: the truth stream's draws for the chunk, or the fixed ones
        # in each chunk, a shorter last one included
        runners = 2 * len(families)
        assert sum(len(x) for x in seen) == 40 * runners
        t0 = 0
        for r, x in enumerate(seen):
            assert values is not None or np.array_equal(
                x, base_draws[0].reshape(40, 30)[t0:t0 + len(x)])
            assert values is None or (x == np.arange(30) % 3).all()
            t0 += len(x) * (r % runners == runners - 1)
        assert len(got_draws) == len(base_draws) == (values is None) + 2 * len(families)
        for a, b in zip(base_draws, got_draws):
            assert np.array_equal(a, b)
        assert len(got.rows) == len(base.rows)
        for a, b in zip(base.rows, got.rows):
            assert (a.family, a.epsilon, a.trials) == (b.family, b.epsilon, b.trials)
            assert b.metric == pytest.approx(a.metric, rel=1e-12, abs=0.0)
            assert b.mse_stderr == pytest.approx(a.mse_stderr, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("key", [(1,), (2, 0, 1)])
def test_monte_carlo_streams_are_pcg64dxsm_under_layout_3(key):
    from lipagg import harness

    ss = np.random.SeedSequence(12, spawn_key=key)
    want = np.random.Generator(np.random.PCG64DXSM(ss)).random(8)
    assert np.array_equal(harness._rng(12, *key).random(8), want)
    assert harness.STREAM_LAYOUT == 3


def test_sampled_indices_equal_the_full_cdf_formula(monkeypatch):
    """The harness hands ``sample_rows`` only the d-1 interior CDF
    boundaries; every index it draws equals np.sum(cdf[:, :-1] < u, axis=1)
    on the full d-column CDF (the prior's for the true values,
    keep [k >= x] + redraw cumsum(r) for a keep-or-resample channel), with
    u = 1 - random() replayed from the stream's state before the call."""
    from lipagg import harness

    real, calls = harness.sample_rows, []

    def record(bounds, rng, **kw):
        state = copy.deepcopy(rng.bit_generator.state)
        out = real(bounds, rng, **kw)
        calls.append((state, out.copy()))
        return out

    def replay(state, cdf):
        gen = np.random.Generator(np.random.PCG64DXSM(0))
        gen.bit_generator.state = state
        u = 1.0 - gen.random(cdf.shape[0])
        return np.sum(cdf[:, :-1] < u[:, None], axis=1)

    def check_runners(sampled, runs, pop, x_idx):
        d = pop.domain.size
        for (fam, eps), (state, y_idx) in zip(sampled, runs, strict=True):
            ch = optimal_channel(MechanismFamily.from_tag(fam), eps, pop.priors)
            cdf = (np.triu(np.full((d, d), ch.keep))[x_idx]
                   + ch.redraw * np.cumsum(ch.resample, axis=-1))
            assert np.array_equal(y_idx, replay(state, cdf.reshape(-1, d)))

    monkeypatch.setattr(harness, "sample_rows", record)
    binary = generate_population(30, "local-uniform", seed=4)
    wide = generate_population(30, "local-uniform", seed=4, domain=Domain.of_size(5))
    trials, grid = 20, (0.5, 2.0)
    for pop, task, families in (
            (binary, Survey(1.0), ("opt-binary-lip", "opt-binary-ldp", "symmetric-rr",
                                   "opt-mimo-lip")),
            (wide, Histogram(), ("opt-mimo-lip", "oue", "opt-mimo-ldp"))):
        calls.clear()
        run_experiment(ExperimentConfig(task=task, families=families, eps_grid=grid,
                                        trials=trials, seed=12, population=pop))
        n = pop.n_users
        sampled = [(f, e) for f in families if f != "oue" for e in grid]
        assert len(calls) == 1 + len(sampled)  # one chunk of trials
        state, x_idx = calls[0]
        assert np.array_equal(x_idx, replay(state, np.cumsum(np.tile(pop.priors, (trials, 1)),
                                                             axis=1)))
        check_runners(sampled, calls[1:], pop, x_idx.reshape(trials, n))
    # fixed values: no truth draw, and the clamp reads the file's values
    values = wide.domain.values[np.arange(30) % 5]
    calls.clear()
    run_experiment(ExperimentConfig(task=Histogram(), families=("opt-mimo-lip", "opt-mimo-ldp"),
                                    eps_grid=grid, trials=trials, seed=12, population=wide,
                                    fixed_values=values))
    sampled = [(f, e) for f in ("opt-mimo-lip", "opt-mimo-ldp") for e in grid]
    assert len(calls) == len(sampled)
    check_runners(sampled, calls, wide, np.tile(np.arange(30) % 5, (trials, 1)))


def _traced_run(monkeypatch, cfg, chunk_trials=1):
    """Run ``cfg`` under tracemalloc with ``chunk_trials`` trials per chunk;
    return the peak traced memory, the most memory a chunk holds above what
    was held when it started (over every chunk but the last, which the
    closed form follows), and the bounds shapes of the ``sample_rows``
    calls.  The record stays one size, so it adds nothing that grows per
    chunk."""
    from lipagg import harness

    real, shapes = harness.sample_rows, Counter()
    state = {"peak": 0, "start": None, "held": 0}

    def record(bounds, rng, **kw):
        shapes[bounds.shape] += 1
        if sys._getframe(1).f_code.co_name == "run_experiment":  # a chunk starts
            current, peak = tracemalloc.get_traced_memory()
            if state["start"] is not None:
                state["held"] = max(state["held"], peak - state["start"])
            state["start"] = current
            state["peak"] = max(state["peak"], peak)
            tracemalloc.reset_peak()
        return real(bounds, rng, **kw)

    _pin_chunk(monkeypatch, cfg, chunk_trials)
    monkeypatch.setattr(harness, "sample_rows", record)
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = max(state["peak"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    return peak, state["held"], shapes


@pytest.mark.parametrize("d", [2, 5])
def test_the_chunk_loop_allocates_per_run_not_per_chunk(monkeypatch, d):
    """The chunk loop writes into one workspace allocated per run: with one
    trial per chunk the peak traced memory of 40 trials is within a few KiB
    of 2 trials (the (runs, trials) error table grows by 1.8 KiB; numpy's
    cache of small freed buffers varies by a few KiB), and no chunk holds a
    tenth of one (d-1, N) boundary table above its start.
    Every ``sample_rows`` call gets a (d-1, N) table, the truth's prior
    boundaries or a context-aware runner's per-user tails, or a
    context-free runner's shared (d-1, 1) tails."""
    n = 20_000
    pop = generate_population(n, "local-uniform", seed=3, domain=Domain.of_size(d))
    task, families = ((Survey(1.0), ("opt-binary-lip", "opt-binary-ldp", "opt-mimo-lip"))
                      if d == 2 else (Histogram(), ("opt-mimo-lip", "opt-mimo-ldp", "oue")))
    runs = {}
    for trials in (2, 40):
        cfg = ExperimentConfig(task=task, families=families, eps_grid=(0.5, 2.0),
                               trials=trials, seed=1, population=pop)
        runs[trials] = _traced_run(monkeypatch, cfg)
        per_user = 1 + 2 * sum(f.endswith("-lip") for f in families)  # truth + LIP runners
        shared = 2 * sum(f.endswith("-ldp") for f in families)
        assert runs[trials][2] == {(d - 1, n): trials * per_user, (d - 1, 1): trials * shared}
    assert runs[40][0] <= runs[2][0] + 16 * 1024
    assert runs[40][1] < n * (d - 1) * 8 // 10


@pytest.mark.parametrize("target", [0.0, 1.0])
def test_symmetric_rr_estimate_equals_the_context_free_estimator(target):
    """The runner debiases the survey's weighted sum of its outputs, the
    count #{y_i = target}; the estimates are bit-identical to
    ``context_free_estimate`` of the indicator [y_i = target]."""
    from lipagg import harness
    from lipagg.core import task_form

    pop = generate_population(500, "local-uniform", seed=6)
    task = Survey(target)
    form = task_form(task, pop)
    trials, n = 30, pop.n_users
    ws = harness._Workspace(trials, n, 2, 1)
    ws.x_count[...] = np.random.Generator(np.random.Philox(2)).integers(0, 2, size=(trials, n))
    agg = harness._Aggregation(form, pop.priors)
    stat = agg.form.offset + agg.local_sum(ws.x_count, ws)
    for eps in (0.1, 1.0, 5.0):
        runner = harness._FamilyRunner(MechanismFamily.SYMMETRIC_RR, eps, pop.priors, agg)
        est = runner.estimate(ws, np.random.Generator(np.random.Philox(9)), stat)
        hits = pop.domain.values[ws.counts].reshape(trials, n) == target
        assert np.array_equal(est, context_free_estimate(hits, eps)[:, None])


def test_oue_estimate_encodes_the_histogram_the_chunk_already_counted():
    """A d=5 histogram chunk: the statistic the harness counts is each
    trial's bucket histogram, and the unary-encoding runner's estimate is
    ``oue_count_estimate`` of ``oue_counts`` drawn on that statistic, bit
    for bit from the same generator state."""
    from lipagg import harness
    from lipagg.core import task_form

    d, trials = 5, 30
    pop = generate_population(400, "local-uniform", seed=6, domain=Domain.of_size(d))
    n = pop.n_users
    agg = harness._Aggregation(task_form(Histogram(), pop), pop.priors)
    ws = agg.workspace(trials)
    ws.x_count[...] = np.random.Generator(np.random.Philox(2)).integers(0, d, size=(trials, n))
    stat = agg.form.offset + agg.local_sum(ws.x_count, ws)
    assert np.array_equal(stat, [np.bincount(row, minlength=d) for row in ws.x_count])
    for eps in (0.1, 1.0, 5.0):
        runner = harness._FamilyRunner(MechanismFamily.OUE, eps, pop.priors, agg)
        est = runner.estimate(ws, np.random.Generator(np.random.Philox(9)), stat)
        counts = oue_counts(oue_channel(d, eps), stat, np.random.Generator(np.random.Philox(9)))
        assert np.array_equal(est, oue_count_estimate(counts, n, eps))


def test_symmetric_rr_chunks_allocate_nothing_per_chunk(monkeypatch):
    """With one trial per chunk no symmetric-rr chunk holds a tenth of an
    (N,) float row above its start: the count of ones needs no float copy
    of the outputs and no masks."""
    n = 20_000
    pop = generate_population(n, "local-uniform", seed=3)
    cfg = ExperimentConfig(task=Survey(1.0), families=("symmetric-rr", "opt-binary-lip"),
                           eps_grid=(0.5, 2.0), trials=20, seed=1, population=pop)
    _, held, _ = _traced_run(monkeypatch, cfg)
    assert held < n * 8 // 10


@pytest.mark.parametrize("d", [2, 5])
def test_chunks_of_several_trials_allocate_nothing_per_chunk(monkeypatch, d):
    """With 4 trials per chunk no chunk holds a tenth of one (d-1, N)
    boundary table above its start.  The count-type values are copied into
    the one intp index array and offset there in place: a mixed uint8 +
    intp ``np.add(..., out=at)`` casts through a 64 KiB buffer, and
    ``np.take`` with count-type indices copies them all to intp."""
    n = 20_000
    pop = generate_population(n, "local-uniform", seed=3, domain=Domain.of_size(d))
    task, families = ((Survey(1.0), ("opt-binary-lip", "opt-binary-ldp", "symmetric-rr"))
                      if d == 2 else (Histogram(), ("opt-mimo-lip", "opt-mimo-ldp", "oue")))
    cfg = ExperimentConfig(task=task, families=families, eps_grid=(0.5, 2.0),
                           trials=16, seed=1, population=pop)
    _, held, _ = _traced_run(monkeypatch, cfg, 4)
    assert held < n * (d - 1) * 8 // 10


def _workspace_bytes(ws):
    """The bytes of a workspace's user-trial arrays: all but ``trial_at``."""
    return sum(v.nbytes for k, v in vars(ws).items()
               if isinstance(v, np.ndarray) and k != "trial_at")


@pytest.mark.parametrize("d, c", [(2, 1), (2, 2), (5, 1), (5, 5), (20, 20)])
def test_user_trial_bytes_are_a_workspace_s_bytes_per_user_trial(d, c):
    from lipagg import harness

    m, n = 3, 40
    assert _workspace_bytes(harness._Workspace(m, n, d, c)) == (
        m * n * harness._Workspace.user_trial_bytes(d, c))


@pytest.mark.parametrize("n, d, budget, chunk", [
    (2000, 5, None, 26),  # several trials, fewer than the run's
    (5, 2, None, 40),  # every trial in one chunk
    (30, 3, 1000, 1),  # one trial outgrows the budget
])
def test_a_chunk_is_the_most_trials_its_byte_budget_holds(monkeypatch, n, d, budget, chunk):
    """A run's workspace holds at most ``_CHUNK_BYTES`` unless its chunk is
    one trial, a chunk never exceeds the trials, and one more trial would
    not fit; a last, shorter chunk holds the rest."""
    from lipagg import harness

    if budget is not None:
        monkeypatch.setattr(harness, "_CHUNK_BYTES", budget)
    sizes, workspace = [], harness._Aggregation.workspace

    def record(agg, m):
        ws = workspace(agg, m)
        sizes.append((m, _workspace_bytes(ws)))
        return ws

    monkeypatch.setattr(harness._Aggregation, "workspace", record)
    pop = generate_population(n, "local-uniform", seed=2, domain=Domain.of_size(d))
    trials = 40
    run_experiment(ExperimentConfig(task=Histogram(), families=("opt-mimo-lip", "opt-mimo-ldp"),
                                    eps_grid=(1.0,), trials=trials, seed=1, population=pop))
    (m, held), *last = sizes
    assert m == chunk and [s[0] for s in last] == ([trials % m] if trials % m else [])
    assert m <= trials and (m == 1 or held <= harness._CHUNK_BYTES)
    assert m == trials or held // m * (m + 1) > harness._CHUNK_BYTES


def _dense_channels(family, pop, eps):
    dom = pop.domain
    if family == "opt-binary-lip":
        return [opt_binary_lip(float(p[1]), eps) for p in pop.priors]
    if family == "opt-binary-ldp":
        return opt_binary_ldp(eps)
    if family == "opt-mimo-lip":
        return [opt_mimo_lip(pop.prior(i), eps, dom) for i in range(pop.n_users)]
    return opt_mimo_ldp(dom.size, eps, dom)


def _replay_rows(monkeypatch, cases):
    """Replays the recorded draws of each (population, task, families) case
    trial by trial through the reference estimators (``estimators.estimate``
    on the dense channels, ``context_free_estimate`` and
    ``oue_count_estimate`` on one trial) and checks every Monte-Carlo row
    against the rebuilt one to 1e-9 relative (the dense channels are
    renormalized, so the posteriors differ from the keep-or-resample ones
    in the last bits)."""
    trials, grid = 25, (0.5, 2.0)
    for pop, task, families in cases:
        n, d = pop.priors.shape
        cfg = ExperimentConfig(task=task, families=families, eps_grid=grid,
                               trials=trials, seed=3, population=pop)
        curve, draws, _ = _recorded_run(monkeypatch, cfg, 4)
        truth = draws[0].reshape(trials, n)
        values = pop.domain.values
        rows = {(r.family, r.epsilon): r.metric for r in curve.rows if r.trials}
        exact = opt_mimo_ldp(d, 800.0, pop.domain)  # the identity: estimates the truth
        for k, (fam, eps) in enumerate((f, e) for f in families for e in grid):
            sq = []
            for t in range(trials):
                stat = estimate(task, pop, exact, values[truth[t]])
                if fam == "oue":
                    est = oue_count_estimate(draws[1 + k][t], n, eps)
                else:
                    y = draws[1 + k].reshape(trials, n)[t]
                    if fam == "symmetric-rr":
                        est = context_free_estimate(y, eps)
                    else:
                        est = estimate(task, pop, _dense_channels(fam, pop, eps),
                                       values[y])
                sq.append(np.sum((np.asarray(est) - stat) ** 2))
            assert rows[(fam, eps)] == pytest.approx(math.sqrt(np.mean(sq) / n), rel=1e-9)


def test_chunked_rows_match_a_per_trial_reference_loop(monkeypatch):
    """Weighted sums and surveys (one-column posterior-mean tables) and a
    3-ary histogram (summed per (trial, output) cell) against the
    per-trial reference loop of :func:`_replay_rows`."""
    binary = generate_population(9, "local-uniform", seed=8)
    ternary = generate_population(9, "local-uniform", seed=8, domain=Domain.of_size(3))
    _replay_rows(monkeypatch, (
        (binary, WeightedSum(np.linspace(1.0, 3.0, 9), np.ones(9)),
         ("opt-binary-lip", "opt-binary-ldp")),
        (binary, Survey(1.0), ("opt-mimo-lip", "symmetric-rr")),
        (ternary, Histogram(), ("opt-mimo-lip", "opt-mimo-ldp", "oue"))))


def test_two_column_tables_and_summation_match_a_per_trial_reference_loop(monkeypatch):
    """The binary histogram (a two-column (N d, 2) posterior-mean table) and
    summation (weights 1/N folded into the table) against the per-trial
    reference loop of :func:`_replay_rows`."""
    binary = generate_population(9, "local-uniform", seed=8)
    ternary = generate_population(9, "local-uniform", seed=8, domain=Domain.of_size(3))
    _replay_rows(monkeypatch, (
        (binary, Histogram(), ("opt-binary-lip", "opt-binary-ldp", "opt-mimo-lip", "oue")),
        (binary, Summation(), ("opt-binary-lip", "opt-mimo-ldp")),
        (ternary, Summation(), ("opt-mimo-lip", "opt-mimo-ldp"))))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_context_aware_estimate_equals_the_posterior_table_estimate(d):
    """A context-aware runner's estimate offset + keep sum_i w_i g(y_i) +
    redraw sum_i w_i mu_i equals the estimate read from the posterior tables
    of ``KeepResample.posterior`` after the same outputs, to 1e-12 of the
    form's scale, for every task and for sampled and fixed true values
    (priors with zero entries; fixed values on each user's support)."""
    from lipagg import harness
    from lipagg.core import task_form

    n, m = 12, 6
    gen = np.random.default_rng(31 + d)
    priors = gen.dirichlet(np.ones(d), size=n)
    priors[gen.random((n, d)) < 0.3] = 0.0
    priors[np.arange(n), gen.integers(0, d, n)] += 0.2
    pop = Population(Domain(np.linspace(-1.0, 2.5, d)), priors / priors.sum(1, keepdims=True))
    sampled = (np.cumsum(pop.priors, axis=1)[None, :, :-1]
               < gen.random((m, n, 1))).sum(axis=-1)
    fixed = np.tile(pop.priors.argmax(axis=1), (m, 1))
    for task in (Survey(pop.domain.values[1]), Summation(), Histogram(),
                 WeightedSum(gen.normal(size=n), gen.normal(size=n))):
        agg = harness._Aggregation(task_form(task, pop), pop.priors)
        ws = agg.workspace(m)
        scale = abs(agg.form.offset) + np.abs(agg.form.weights).sum() * np.abs(agg.g).max()
        for x in (sampled, fixed):
            ws.x_count[...] = x
            stat = agg.form.offset + agg.local_sum(ws.x_count, ws)
            for eps in (0.0, 0.5, 2.0, 40.0):
                runner = harness._FamilyRunner(MechanismFamily.OPT_MIMO_LIP, eps, pop.priors, agg)
                got = runner.estimate(ws, np.random.Generator(np.random.Philox(7)), stat)
                ch = optimal_channel(MechanismFamily.OPT_MIMO_LIP, eps, pop.priors)
                want = agg.estimate(agg.tables(*ch.posterior(pop.priors)),
                                    ws.counts.reshape(m, n), ws)
                assert np.all(np.abs(got - want) <= 1e-12 * scale), (task, eps)


@pytest.mark.parametrize("d, task", [(2, Survey(1.0)), (2, Histogram()), (3, Histogram()),
                                     (5, Histogram())])
def test_runner_tables_are_per_pair_or_per_user_never_per_cell(d, task):
    """A context-aware runner, which redraws from each user's own prior,
    holds no posterior table at all.  For a context-free one a statistic of
    c <= 2 components leaves one (N d, c) posterior-mean table and no other
    posterior table; a histogram over d >= 3 outputs keeps its (N, d) kept
    and redrawn weights, bit for bit those of ``KeepResample.posterior``,
    and neither its runners nor any workspace piece hold m N d or N d d
    values.  No float workspace piece holds more than one value per
    user-trial and statistic component: the sampler reads the runner's two
    (d-1, N) or (d-1, 1) boundary tables, not a (d-1, m, N) block.  Besides
    the uniform draws ``u``, a histogram's workspace holds only the gathered
    kept and redrawn weights as floats: it is counted, not weighted."""
    from lipagg import harness
    from lipagg.core import task_form

    n, m = 40, 3
    pop = generate_population(n, "local-uniform", seed=5, domain=Domain.of_size(d))
    agg = harness._Aggregation(task_form(task, pop), pop.priors)
    c = agg.g.shape[1]
    ws = harness._Workspace(m, n, d, c)
    sizes = [v.size for v in vars(ws).values() if isinstance(v, np.ndarray)]
    floats = [v.size for v in vars(ws).values()
              if isinstance(v, np.ndarray) and v.dtype == np.float64]
    assert max(floats) == m * n * (c if c <= 2 else 1)
    named = {k for k, v in vars(ws).items() if isinstance(v, np.ndarray) and v.dtype == float}
    assert named == ({"u", "gathered"} if c <= 2 else {"u", "kept", "redrawn"})
    for fam in (MechanismFamily.OPT_MIMO_LIP, MechanismFamily.OPT_MIMO_LDP):
        runner = harness._FamilyRunner(fam, 1.0, pop.priors, agg)
        own = {k for k, v in vars(runner).items() if isinstance(v, np.ndarray)}
        assert own == {"tail", "kept"}
        width = n if fam is MechanismFamily.OPT_MIMO_LIP else 1
        assert runner.tail.shape == runner.kept.shape == (d - 1, width)
        if fam is MechanismFamily.OPT_MIMO_LIP:
            assert runner.tables is None
            continue
        tables = [t.shape for t in runner.tables]
        assert tables == ([(n * d, c)] if c <= 2 else [(n, d), (n, d)])
        if c > 2:
            posterior = optimal_channel(fam, 1.0, pop.priors).posterior(pop.priors)
            assert all(np.array_equal(t, want) for t, want in zip(runner.tables, posterior))
        sizes += [t.size for t in runner.tables]
    if c > 2:  # the largest pieces are the (d-1, m N) comparison mask and the tables
        assert max(sizes) < min(m * n * d, n * d * d)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_only_a_histogram_over_three_or_more_outputs_is_counted(d):
    """The counted form of ``_Aggregation`` reads no weights, offset or g:
    every statistic wider than ``_FOLD_WIDTH`` must be a histogram over
    d >= 3 outputs, whose weights are all 1, offset 0 and g the identity."""
    from lipagg import harness
    from lipagg.core import task_form

    n = 7
    pop = generate_population(n, "local-uniform", seed=d, domain=Domain(np.linspace(-1, 2, d)))
    gen = np.random.default_rng(d)
    for task in (Survey(pop.domain.values[0]), Survey(pop.domain.values[-1]), Summation(),
                 WeightedSum(gen.normal(size=n), gen.normal(size=n)), Histogram()):
        agg = harness._Aggregation(task_form(task, pop), pop.priors)
        assert agg.folded is not (isinstance(task, Histogram) and d >= 3), task
        if not agg.folded:
            assert np.array_equal(agg.form.weights, np.ones(n)) and agg.form.offset == 0.0
            assert np.array_equal(agg.g, np.eye(d))


def _indicator_tasks():
    """(id, d, task maker, index of the value whose indicator g is)."""
    for d in (2, 3, 5):
        for k in range(d):
            yield f"survey-d{d}-{k}", d, lambda vals, n, k=k: Survey(float(vals[k])), k
    yield "summation-01", 2, lambda vals, n: Summation(), 1
    yield "weighted-sum-01", 2, lambda vals, n: WeightedSum(np.linspace(-2.5, 3.0, n),
                                                             np.ones(n)), 1


def _local_sum_and_gather(agg, ws, values):
    """``local_sum`` of ``values`` and the gather reference weights @ g[values]."""
    ws.x_count[...] = values
    return agg.local_sum(ws.x_count, ws), agg.form.weights @ agg.g[values]


@pytest.mark.parametrize("n", [5, 300, 20000])
@pytest.mark.parametrize("case, d, make, hot", list(_indicator_tasks()),
                         ids=[c[0] for c in _indicator_tasks()])
def test_an_indicator_local_sum_equals_the_gathered_sum_bit_for_bit(case, d, make, hot, n):
    """Where g is the indicator of one value (every survey, a sum or a
    non-unit weighted sum over {0, 1}) ``local_sum`` compares the values
    with that value instead of gathering g, and its sums keep the bits of
    form.weights @ g[values], for sampled and for fixed values."""
    from lipagg import harness
    from lipagg.core import task_form

    m = 3
    dom = Domain.binary() if d == 2 else Domain(np.linspace(-1.0, 2.0, d))
    pop = generate_population(n, "local-uniform", seed=d, domain=dom)
    agg = harness._Aggregation(task_form(make(dom.values, n), pop), pop.priors)
    assert agg.hot == hot and agg.g.shape == (d, 1)
    ws = agg.workspace(m)
    sampled = harness.sample_rows(agg.cdf, np.random.default_rng(n), buffers=ws.truth).copy()
    for values in (sampled.reshape(m, n), np.tile(np.arange(n) % d, (m, 1)).astype(sampled.dtype)):
        got, want = _local_sum_and_gather(agg, ws, values)
        assert got.shape == want.shape == (m, 1) and got.tobytes() == want.tobytes(), case


def test_no_other_g_takes_the_indicator_branch():
    """A sum over {-1, 1}, a weighted sum over {0, 2}, a sum over three
    values and every histogram gather g or count: ``hot`` is None, and a
    gathered sum keeps the bits of form.weights @ g[values]."""
    from lipagg import harness
    from lipagg.core import task_form

    n, m = 300, 4
    gen = np.random.default_rng(5)
    weighted = WeightedSum(gen.normal(size=n) * 2.0, gen.normal(size=n))
    for values, task in (([-1.0, 1.0], Summation()), ([-1.0, 1.0], weighted),
                         ([0.0, 2.0], weighted), ([0.0, 2.0], Summation()),
                         ([0.0, 1.0, 2.0], Summation()), ([0.0, 1.0], Histogram()),
                         ([0.0, 1.0, 2.0], Histogram()), ([0.0, 1.0, 2.0, 3.0, 4.0], Histogram())):
        dom = Domain(values)
        pop = generate_population(n, "local-uniform", seed=3, domain=dom)
        agg = harness._Aggregation(task_form(task, pop), pop.priors)
        assert agg.hot is None, (values, task)
        if agg.folded:
            ws = agg.workspace(m)
            x = gen.integers(0, dom.size, (m, n)).astype(ws.x_count.dtype)
            got, want = _local_sum_and_gather(agg, ws, x)
            assert got.tobytes() == want.tobytes(), (values, task)


@pytest.mark.parametrize("d", [2, 3, 20])
def test_one_prior_cdf_per_run_feeds_the_truth_and_the_context_aware_tails(monkeypatch, d):
    """``_Aggregation.cdf`` is the prior's boundary-major (d-1, N) CDF, bit
    for bit the transposed cumsum; the truth sampler reads that array
    itself, and every context-aware runner's tails are redraw times it, as
    the runner once built them from its own cumsum.  A context-free runner
    keeps its shared (d-1, 1) tails."""
    from lipagg import harness
    from lipagg.core import task_form

    n = 40
    pop = generate_population(n, "local-uniform", seed=d, domain=Domain.of_size(d))
    task = Survey(1.0) if d == 2 else Histogram()
    agg = harness._Aggregation(task_form(task, pop), pop.priors)
    want = np.ascontiguousarray(np.cumsum(pop.priors[:, :-1], axis=1).T)
    assert agg.cdf.flags.c_contiguous and agg.cdf.tobytes() == want.tobytes()
    families = [MechanismFamily.OPT_MIMO_LIP, MechanismFamily.OPT_MIMO_LDP]
    if d == 2:
        families += [MechanismFamily.OPT_BINARY_LIP, MechanismFamily.OPT_BINARY_LDP,
                     MechanismFamily.SYMMETRIC_RR]
    for fam in families:
        for eps in (0.0, 0.5, 2.0) if fam is not MechanismFamily.SYMMETRIC_RR else (0.5, 2.0):
            runner = harness._FamilyRunner(fam, eps, pop.priors, agg)
            ch = optimal_channel(fam, eps, pop.priors)
            tail = ch.redraw * np.cumsum(ch.resample[..., :-1], axis=-1)
            tail = np.ascontiguousarray(tail.reshape(-1, d - 1).T)
            assert runner.tail.shape == tail.shape and runner.tail.tobytes() == tail.tobytes()
            assert runner.kept.tobytes() == (ch.keep + tail).tobytes(), (fam, eps)

    real, bounds = harness.sample_rows, []

    def record(table, rng, **kw):
        bounds.append(table)
        return real(table, rng, **kw)

    monkeypatch.setattr(harness, "sample_rows", record)
    eps = 0.5
    run_experiment(ExperimentConfig(task=task, families=("opt-mimo-lip",), eps_grid=(eps,),
                                    trials=3, seed=1, population=pop))
    truth, tail = bounds
    assert truth.tobytes() == want.tobytes()
    redraw = optimal_channel(MechanismFamily.OPT_MIMO_LIP, eps, pop.priors).redraw
    assert tail.tobytes() == (redraw * truth).tobytes()


@pytest.mark.parametrize("fields", [
    dict(mode="bogus"),
    dict(mode="categorical", column="c", prior_source="bogus"),
    dict(mode="binarize", column="c", threshold=math.inf),
    dict(mode="binarize", column="c", threshold=math.nan),
    dict(mode="grid", lat_col="a", lon_col="b", grid_rows=1, grid_cols=1,
         bbox=(0.0, 1.0, 0.0, 1.0)),
], ids=["mode", "prior-source", "inf-threshold", "nan-threshold", "one-cell-grid"])
def test_malformed_ingest_specs_raise_value_error(fields):
    with pytest.raises(ValueError) as info:
        IngestSpec(**fields)
    assert type(info.value) is ValueError


def test_ingest_of_a_file_with_no_header_row_raises_empty_input(tmp_path):
    # the csv module reads an empty file's header as None, and a blank
    # first line's as an empty list
    empty = tmp_path / "empty.csv"
    for text in ("", "\n\n"):
        empty.write_text(text)
        with pytest.raises(EmptyInputError, match="no header row"):
            ingest(str(empty), IngestSpec(mode="categorical", column="c"))


@pytest.mark.parametrize("prior_source, user_col", [("global", None),
                                                    ("per-user-history", "user")])
def test_categorical_strings_sort_and_an_empty_cell_is_its_own_category(
        tmp_path, prior_source, user_col):
    cities = tmp_path / "cities.csv"
    cities.write_text("user,city\nu1,paris\nu2,rome\nu3,paris\nu4,\n")
    res = ingest(str(cities), IngestSpec(mode="categorical", column="city",
                                         prior_source=prior_source, user_col=user_col))
    assert res.labels == ("", "paris", "rome")
    assert np.array_equal(res.statistic, [1.0, 2.0, 1.0])
    assert np.array_equal(res.values, [1.0, 2.0, 1.0, 0.0])


def test_a_config_that_constructs_is_a_run_that_starts():
    pop = generate_population(5, "global", p1=0.3)
    with pytest.raises(ValueError, match="does not answer") as info:
        ExperimentConfig(task=Survey(1.0), families=("oue",), eps_grid=(1.0,), trials=1,
                         seed=0, population=pop)
    assert type(info.value) is ValueError
    with pytest.raises(ValueError, match="fixed values must lie in the population domain"):
        ExperimentConfig(task=Survey(1.0), families=("opt-binary-lip",), eps_grid=(1.0,),
                         trials=1, seed=0, population=pop,
                         fixed_values=np.array([0.0, 1.0, 2.0, 0.0, 1.0]))
