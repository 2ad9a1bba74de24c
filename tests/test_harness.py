import copy
import hashlib
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
    mse_mimo,
    opt_binary_ldp,
    opt_binary_lip,
    opt_mimo_ldp,
    opt_mimo_lip,
    oue_count_estimate,
    run_experiment,
    save_population,
    tradeoff_curve,
)
from lipagg.errors import (
    DimensionMismatchError,
    EmptyInputError,
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
    cfg = ExperimentConfig(task=Survey(1.0), families=("opt-mimo-lip",), eps_grid=(2.0,),
                           trials=5, seed=0, population=pop, fixed_values=np.ones(10))
    with pytest.raises(UnreachableOutputError):
        run_experiment(cfg)
    # the context-free channel emits every output, so the same data runs
    ldp = ExperimentConfig(task=Survey(1.0), families=("opt-mimo-ldp",), eps_grid=(2.0,),
                           trials=5, seed=0, population=pop, fixed_values=np.ones(10))
    assert math.isfinite(run_experiment(ldp).rows[0].metric)


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
    tasks = (Survey(1.0), Summation(), WeightedSum(weights, np.full(12, 0.25)), Histogram())
    for pop in (binary, ternary):
        for task in tasks:
            ok = []
            for fam in MechanismFamily:
                try:
                    check_family_task(fam, task, pop.domain)
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
    # binary: 5 + 4 + 4 + 5 families, 3-ary: 2 + 2 + 2 + 3, at two budgets
    assert checked == 2 * 27


def _recorded_run(monkeypatch, cfg, block):
    """Run ``cfg`` with ``harness._BLOCK = block``, recording every sampled
    index and unary-encoding count array by the generator it was drawn from
    (a copy: the harness reuses its buffers from chunk to chunk)."""
    from lipagg import harness

    draws = {}

    def record(fn):
        def wrapper(arg, *rest, **kw):
            out = fn(arg, *rest, **kw)
            draws.setdefault(id(rest[-1]), []).append(out.copy())
            return out
        return wrapper

    monkeypatch.setattr(harness, "_BLOCK", block)
    monkeypatch.setattr(harness, "sample_rows", record(harness.sample_rows))
    monkeypatch.setattr(harness, "oue_counts", record(harness.oue_counts))
    try:
        curve = run_experiment(cfg)
    finally:
        monkeypatch.undo()
    # streams in the order they were first read; draws joined across chunks
    return curve, [np.concatenate(chunks) for chunks in draws.values()]


@pytest.mark.parametrize("block_trials", [1, 7])
def test_draws_and_rows_do_not_depend_on_the_chunk_size(monkeypatch, block_trials):
    binary = generate_population(30, "local-uniform", seed=4)
    ternary = generate_population(30, "local-uniform", seed=4, domain=Domain.of_size(3))
    cases = ((binary, Survey(1.0), ("opt-binary-lip", "opt-mimo-ldp", "symmetric-rr")),
             (ternary, Histogram(), ("opt-mimo-lip", "opt-mimo-ldp", "oue")))
    for pop, task, families in cases:
        cfg = ExperimentConfig(task=task, families=families, eps_grid=(0.5, 2.0),
                               trials=40, seed=12, population=pop)
        d = pop.domain.size
        base, base_draws = _recorded_run(monkeypatch, cfg, 1 << 16)
        assert all(len(x) == 40 * 30 or x.shape == (40, d) for x in base_draws)
        got, got_draws = _recorded_run(monkeypatch, cfg, block_trials * 30 * d)
        assert len(got_draws) == len(base_draws) == 1 + 2 * len(families)
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
        n, d = pop.priors.shape
        sampled = [(f, e) for f in families if f != "oue" for e in grid]
        assert len(calls) == 1 + len(sampled)  # one chunk of trials
        state, x_idx = calls[0]
        assert np.array_equal(x_idx, replay(state, np.cumsum(np.tile(pop.priors, (trials, 1)),
                                                             axis=1)))
        x_idx = x_idx.reshape(trials, n)
        for (fam, eps), (state, y_idx) in zip(sampled, calls[1:]):
            ch = optimal_channel(MechanismFamily.from_tag(fam), eps, pop.priors)
            cdf = (np.triu(np.full((d, d), ch.keep))[x_idx]
                   + ch.redraw * np.cumsum(ch.resample, axis=-1))
            assert np.array_equal(y_idx, replay(state, cdf.reshape(-1, d)))


def _traced_run(monkeypatch, cfg):
    """Run ``cfg`` under tracemalloc with one trial per chunk; return the
    peak traced memory, the most memory a chunk holds above what was held
    when it started (over every chunk but the last, which the closed form
    follows), and the bounds shapes of the ``sample_rows`` calls.  The
    record stays one size, so it adds nothing that grows per chunk."""
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

    n, d = cfg.population.priors.shape
    monkeypatch.setattr(harness, "_BLOCK", n * d)
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
    tenth of one (N, d-1) boundary block above its start.
    Every ``sample_rows`` call still gets (trials x N, d-1) bounds, the
    user-trial count the benchmark reads off its first axis."""
    n = 20_000
    pop = generate_population(n, "local-uniform", seed=3, domain=Domain.of_size(d))
    task, families = ((Survey(1.0), ("opt-binary-lip", "opt-binary-ldp", "opt-mimo-lip"))
                      if d == 2 else (Histogram(), ("opt-mimo-lip", "opt-mimo-ldp", "oue")))
    runs = {}
    for trials in (2, 40):
        cfg = ExperimentConfig(task=task, families=families, eps_grid=(0.5, 2.0),
                               trials=trials, seed=1, population=pop)
        runs[trials] = _traced_run(monkeypatch, cfg)
        sampled = 1 + 2 * sum(f != "oue" for f in families)  # truth + each runner
        assert runs[trials][2] == {(n, d - 1): trials * sampled}
    assert runs[40][0] <= runs[2][0] + 16 * 1024
    assert runs[40][1] < n * (d - 1) * 8 // 10


def test_symmetric_rr_estimate_equals_the_context_free_estimator():
    """The harness hands ``context_free_estimate`` its integer output
    indices, which it counts as integers; the estimates are bit-identical
    to those from the outputs as floats."""
    from lipagg import harness
    from lipagg.core import task_form

    pop = generate_population(500, "local-uniform", seed=6)
    task = Survey(1.0)
    form = task_form(task, pop)
    trials, n = 30, pop.n_users
    ws = harness._Workspace(trials, n, 2, 1)
    ws.x[...] = np.random.Generator(np.random.Philox(2)).integers(0, 2, size=(trials, n))
    for eps in (0.1, 1.0, 5.0):
        runner = harness._FamilyRunner(MechanismFamily.SYMMETRIC_RR, eps, pop,
                                       harness._Aggregation(form, pop.priors), None)
        est = runner.estimate(ws, np.random.Generator(np.random.Philox(9)))
        count = context_free_estimate(ws.y.astype(float), eps)
        assert np.array_equal(est, n * runner.g[0] + (runner.g[1] - runner.g[0]) * count[:, None])


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
        curve, draws = _recorded_run(monkeypatch, cfg, 4 * n * d)
        truth = draws[0].reshape(trials, n)
        values = pop.domain.values
        rows = {(r.family, r.epsilon): r.metric for r in curve.rows if r.trials}
        exact = opt_mimo_ldp(d, 800.0, pop.domain)  # the identity: estimates the truth
        for k, (fam, eps) in enumerate((f, e) for f in families for e in grid):
            sq = []
            for t in range(trials):
                stat = estimate(task, pop, exact, values[truth[t]]).value
                if fam == "oue":
                    est = oue_count_estimate(draws[1 + k][t], n, eps)
                else:
                    y = draws[1 + k].reshape(trials, n)[t]
                    if fam == "symmetric-rr":
                        est = context_free_estimate(y, eps)
                    else:
                        est = estimate(task, pop, _dense_channels(fam, pop, eps),
                                       values[y]).value
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


@pytest.mark.parametrize("d, task", [(2, Survey(1.0)), (2, Histogram()), (5, Histogram())])
def test_runner_tables_are_per_pair_or_per_user_never_per_cell(d, task):
    """A statistic of c <= 2 components leaves a keep-or-resample runner one
    (N d, c) posterior-mean table and no other posterior table; a histogram
    over d >= 3 outputs keeps (N, d) kept and redrawn tables, and neither
    its runners nor any workspace piece hold m N d or N d d values."""
    from lipagg import harness
    from lipagg.core import task_form

    n, m = 40, 3
    pop = generate_population(n, "local-uniform", seed=5, domain=Domain.of_size(d))
    agg = harness._Aggregation(task_form(task, pop), pop.priors)
    c = agg.g.shape[1]
    ws = harness._Workspace(m, n, d, c)
    sizes = [piece.size for piece in ws.flat.values()]
    for fam in (MechanismFamily.OPT_MIMO_LIP, MechanismFamily.OPT_MIMO_LDP):
        runner = harness._FamilyRunner(fam, 1.0, pop, agg, None)
        own = {k for k, v in vars(runner).items() if isinstance(v, np.ndarray)}
        assert own == {"g", "steps", "tail"}
        tables = [t.shape for t in runner.tables]
        assert tables == ([(n * d, c)] if c <= 2 else [(n, d), (n, d)])
        sizes += [t.size for t in runner.tables]
    if c > 2:  # the largest piece is the (d-1, m, N) boundary block
        assert max(sizes) < min(m * n * d, n * d * d)
