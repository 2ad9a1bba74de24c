"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Monte-Carlo criteria use frozen master seeds; the tolerance
analysis for each lives in the test docstring.  Criteria that certify the
closed-form optima draw their random parameters from the construction's
feasibility regime (smallest prior entry at least 1/(e^eps+1)); outside
that regime the construction provably overshoots its budget and the
criteria assert the documented strict gap instead (see
tests/test_feasibility_regime.py and the README).
"""

import json
import math
import time

import numpy as np
import pytest

import lipagg.cli as cli
from lipagg import (
    CipInstance,
    Domain,
    ExperimentConfig,
    Histogram,
    Prior,
    Survey,
    audit,
    binary_mse_oracle,
    budget_feasible_prior_floor,
    cip_mse_lower_bound,
    cip_search,
    generate_population,
    histogram_mse_oracle,
    lip_seed_mechanism,
    measure_ldp,
    measure_lip,
    mimo_mse_oracle,
    mse_binary_ldp_opt,
    mse_binary_lip_opt,
    mse_histogram,
    opt_binary_ldp,
    opt_binary_lip,
    opt_mimo_ldp,
    opt_mimo_lip,
    output_distribution,
    output_range_oracle,
    posterior_mean_mse,
    posterior_means_in_band,
    run_experiment,
)

from conftest import enum_histogram_mse, random_channel, random_prior


def _report(num: str, ok: bool, name: str, detail: str = ""):
    line = f"ACCEPTANCE {num:>3} {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def _in_regime_pair(rng):
    while True:
        eps = float(rng.uniform(0.1, 5.0))
        floor = budget_feasible_prior_floor(eps)
        if floor < 0.5 - 1e-6:
            return float(rng.uniform(floor, 1.0 - floor)), eps


def test_criterion_01_binary_closed_form_optimality():
    """Exact splitting-LP oracle matches the binary closed form within 1e-5
    on 20 random in-regime pairs; runtime < 1 min."""
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(123))
    worst = 0.0
    for _ in range(20):
        p1, eps = _in_regime_pair(rng)
        best, _pt = binary_mse_oracle(p1, eps)
        worst = max(worst, abs(best - mse_binary_lip_opt(p1, eps)))
    dt = time.time() - t0
    _report("1", worst <= 1e-5 and dt < 60.0,
            "binary closed-form optimality (oracle match, in-regime)",
            f"worst |oracle-closed|={worst:.2e}, {dt:.1f}s")


def test_criterion_02_mimo_closed_form_optimality():
    """Exact splitting-LP oracle matches the d=3 closed form within
    1e-4 for five random in-regime priors at eps in {1, 2}.  At eps = 0.5
    the feasibility floor 1/(e^0.5+1) > 1/3 exceeds every d=3 prior's
    smallest entry, so the criterion asserts the documented strict gap
    there instead.  Runtime < 5 min."""
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(7))
    worst = 0.0
    for eps in (1.0, 2.0):
        floor = budget_feasible_prior_floor(eps)
        for k in range(5):
            p = Prior(floor + (1.0 - 3 * floor) * rng.dirichlet(np.ones(3)))
            oracle = mimo_mse_oracle(p, eps)
            closed = posterior_mean_mse(opt_mimo_lip(p, eps), p.p, np.arange(p.size))
            worst = max(worst, abs(oracle - closed))
    gap_ok = True
    for k in range(5):
        p = Prior(rng.dirichlet(np.ones(3)))
        oracle = mimo_mse_oracle(p, 0.5)
        closed = posterior_mean_mse(opt_mimo_lip(p, 0.5), p.p, np.arange(p.size))
        gap_ok &= oracle > closed + 1e-4
    dt = time.time() - t0
    _report("2", worst <= 1e-4 and gap_ok and dt < 300.0,
            "d=3 closed-form optimality (oracle match in-regime; strict gap at eps=0.5)",
            f"worst in-regime |oracle-closed|={worst:.2e}, {dt:.1f}s")


def test_criterion_03_sandwich_and_average_bound():
    """100 random (channel, prior) pairs: lip <= ldp <= 2 lip and
    I(X;Y) <= lip, with 1e-12 slack."""
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(55))
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 6))
        rep = audit(random_channel(rng, d), random_prior(rng, d))
        ok &= rep.lip_eps <= rep.ldp_eps + 1e-12
        ok &= rep.ldp_eps <= 2.0 * rep.lip_eps + 1e-12
        ok &= rep.mip_nats <= rep.lip_eps + 1e-12
    _report("3", ok, "sandwich and average-leakage bound on 100 random audits",
            f"{time.time() - t0:.1f}s")


def test_criterion_04_budget_tightness():
    """Context-free optima meet their budget exactly everywhere; the
    context-aware optima meet it exactly on the feasibility regime."""
    rng = np.random.Generator(np.random.Philox(77))
    worst = 0.0
    for eps in (0.25, 0.5, 1.0, 2.0, 4.0):
        worst = max(worst, abs(measure_ldp(opt_binary_ldp(eps)) - eps))
        for d in (2, 3, 5):
            worst = max(worst, abs(measure_ldp(opt_mimo_ldp(d, eps)) - eps))
    for _ in range(20):
        p1, eps = _in_regime_pair(rng)
        lvl = measure_lip(opt_binary_lip(p1, eps), Prior.binary(p1))
        worst = max(worst, abs(lvl - eps))
    for d in (3, 4, 5):
        for eps in (1.5, 2.5):
            floor = budget_feasible_prior_floor(eps)
            if floor >= 1.0 / d:
                continue
            p = Prior(floor + (1.0 - d * floor) * rng.dirichlet(np.ones(d)))
            worst = max(worst, abs(measure_lip(opt_mimo_lip(p, eps), p) - eps))
    _report("4", worst <= 1e-9, "budget tightness of derived optima (in-regime)",
            f"worst |level-eps|={worst:.2e}")


def test_criterion_05_output_marginal_equals_prior():
    """Marginal-equals-prior identity of the context-aware construction
    within 1e-12 across d <= 5 and a budget grid (zero-prior case included)."""
    rng = np.random.Generator(np.random.Philox(88))
    worst = 0.0
    for d in (2, 3, 4, 5):
        for eps in (0.0, 0.5, 1.0, 2.0, 5.0):
            p = random_prior(rng, d)
            lam = output_distribution(opt_mimo_lip(p, eps), p)
            worst = max(worst, float(np.max(np.abs(lam - p.p))))
    pz = Prior([0.0, 0.25, 0.75])
    for eps in (0.5, 2.0):
        lam = output_distribution(opt_mimo_lip(pz, eps), pz)
        worst = max(worst, float(np.max(np.abs(lam - pz.p))))
    _report("5", worst <= 1e-12, "output marginal equals prior",
            f"worst deviation={worst:.2e}")


def test_criterion_06_dominance_grid():
    """Context-aware optimum never loses to the context-free one on a
    50x50 (p1, eps) grid; equality only at eps = 0 (1e-12)."""
    ok = True
    for p1 in np.linspace(0.01, 0.99, 50):
        for eps in np.linspace(0.0, 5.0, 50):
            lip = mse_binary_lip_opt(p1, eps)
            ldp = mse_binary_ldp_opt(p1, eps)
            ok &= lip <= ldp + 1e-12
            ok &= (abs(lip - ldp) <= 1e-12) if eps == 0.0 else (ldp - lip > 1e-12)
    _report("6", ok, "pointwise dominance with equality only at eps=0")


def test_criterion_07_monte_carlo_agreement():
    """N=1000, global p1=0.1, R=1e4, eps in {1,2,3}: empirical E/N within
    2% of the closed form.  Sampling note: the empirical mean has relative
    sd ~ sqrt(2/R) = 1.41% (3 sigma = 4.2%), so 2% is a ~1.4 sigma band;
    the master seed (42) is frozen and verified."""
    t0 = time.time()
    pop = generate_population(1000, "global", seed=1, p1=0.1)
    cfg = ExperimentConfig(task=Survey(1.0), families=("opt-binary-lip",),
                           eps_grid=(1.0, 2.0, 3.0), trials=10_000, seed=42,
                           population=pop)
    rows = [r for r in run_experiment(cfg).rows if r.trials > 0]
    devs = {r.epsilon: abs(r.metric ** 2 / mse_binary_lip_opt(0.1, r.epsilon) - 1.0)
            for r in rows}
    dt = time.time() - t0
    _report("7", max(devs.values()) <= 0.02 and dt < 120.0,
            "Monte-Carlo agreement with the closed form",
            f"rel devs={ {k: round(v, 4) for k, v in sorted(devs.items())} }, {dt:.1f}s")


def test_criterion_08_error_ordering():
    """N=100, p1=0.1, eps 1..5 step 0.5: context-aware < context-free
    optimum < prior-unaware baseline, closed-form and Monte-Carlo (R=1e4,
    seed 42)."""
    t0 = time.time()
    grid = tuple(np.arange(1.0, 5.001, 0.5))
    pop = generate_population(100, "global", seed=1, p1=0.1)
    cfg = ExperimentConfig(
        task=Survey(1.0),
        families=("opt-binary-lip", "opt-binary-ldp", "symmetric-rr"),
        eps_grid=grid, trials=10_000, seed=42, population=pop)
    curve = run_experiment(cfg)
    emp = {(r.family, r.epsilon): r.metric for r in curve.rows if r.trials > 0}
    cf = {(r.family, r.epsilon): r.metric for r in curve.rows if r.trials == 0}
    ok = True
    for table in (cf, emp):
        for e in grid:
            ok &= table[("opt-binary-lip", e)] < table[("opt-binary-ldp", e)]
            ok &= table[("opt-binary-ldp", e)] < table[("symmetric-rr", e)]
    _report("8", ok, "error ordering closed-form and Monte-Carlo",
            f"{time.time() - t0:.1f}s")


def test_criterion_09_histogram_equivalence():
    """The d=3 value-optimal channel also minimizes the histogram error
    within 1e-3 (three random in-regime priors at eps=1), and the
    histogram formula matches enumeration to 1e-10."""
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(21))
    floor = budget_feasible_prior_floor(1.0)
    worst_opt = 0.0
    for k in range(3):
        p = Prior(floor + (1.0 - 3 * floor) * rng.dirichlet(np.ones(3)))
        closed = mse_histogram(opt_mimo_lip(p, 1.0), p)
        oracle = histogram_mse_oracle(p, 1.0)
        worst_opt = max(worst_opt, abs(closed - oracle))
    worst_enum = 0.0
    for _ in range(10):
        ch = random_channel(rng, 3)
        p = random_prior(rng, 3)
        worst_enum = max(worst_enum,
                         abs(mse_histogram(ch, p) - enum_histogram_mse(ch.matrix, p.p)))
    _report("9", worst_opt <= 1e-3 and worst_enum <= 1e-10,
            "histogram optimum equivalence and formula-vs-enumeration",
            f"|closed-oracle|={worst_opt:.2e}, |formula-enum|={worst_enum:.2e}, "
            f"{time.time() - t0:.1f}s")


def test_criterion_10_output_range():
    """At d=2, p1=0.3, eps=1 the matched output size is at least as good
    as one column or three columns (within 1e-3)."""
    p = Prior.binary(0.3)
    m1 = output_range_oracle(2, 1, p, 1.0, values=[0.0, 1.0])
    m2 = output_range_oracle(2, 2, p, 1.0, values=[0.0, 1.0])
    m3 = output_range_oracle(2, 3, p, 1.0, values=[0.0, 1.0])
    ok = m2 <= m1 + 1e-3 and m2 <= m3 + 1e-3
    _report("10", ok, "matched output range is optimal at desk scale",
            f"f1={m1:.6f} f2={m2:.6f} f3={m3:.6f}")


def test_criterion_11_unary_encoding_baseline():
    """d=20, N=1e4, eps=2: empirical per-bucket MSE within 10% of
    N*4e^eps/(e^eps-1)^2.  R=2000 trials (frozen seed): the estimator's
    exact per-bucket MSE exceeds the quoted formula by the mean bucket
    count (+6.9% here) and sampling adds ~0.7% sd."""
    t0 = time.time()
    d, n, eps, trials = 20, 10_000, 2.0, 2000
    pop = generate_population(n, "global", seed=5, p_vector=np.full(d, 1.0 / d))
    cfg = ExperimentConfig(task=Histogram(), families=("oue",),
                           eps_grid=(eps,), trials=trials, seed=11, population=pop)
    rows = [r for r in run_experiment(cfg).rows if r.trials > 0]
    per_bucket = rows[0].metric ** 2 * n / d
    formula = n * 4.0 * math.exp(eps) / (math.exp(eps) - 1.0) ** 2
    rel = abs(per_bucket / formula - 1.0)
    _report("11", rel <= 0.10 and time.time() - t0 < 120.0,
            "unary-encoding per-bucket error matches its formula",
            f"rel dev={rel:.4f}, {time.time() - t0:.1f}s")


def test_criterion_12_centralized_sandwich():
    """N=50, p1 in {0.1,0.3,0.5}, eps in {0.5,1,2}: lower bound <= search
    MSE <= N x per-user binary optimum; seeded start is band-feasible.
    Search uses the full N+1 output alphabet so the seed is in-range."""
    t0 = time.time()
    ok = True
    for p1 in (0.1, 0.3, 0.5):
        for eps in (0.5, 1.0, 2.0):
            inst = CipInstance(50, p1, eps)
            ok &= posterior_means_in_band(lip_seed_mechanism(inst), inst)
            res = cip_search(inst, output_size=51, seed=0)
            ok &= cip_mse_lower_bound(inst) <= res.mse + 1e-9
            ok &= res.mse <= 50 * mse_binary_lip_opt(p1, eps) + 1e-9
    _report("12", ok, "centralized-baseline sandwich and seed feasibility",
            f"{time.time() - t0:.1f}s")


def test_criterion_13_reproducibility(tmp_path):
    """Two runs of the same simulate invocation produce byte-identical files."""
    cfg = {
        "task": {"kind": "survey"},
        "families": ["opt-binary-lip", "opt-binary-ldp"],
        "eps_grid": "1:3:1",
        "trials": 300,
        "seed": 20240601,
        "population": {"n": 40, "prior_mode": "local-uniform"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes()
    _report("13", ok, "byte-identical reruns of simulate")


def test_criterion_14a_small_population_crossover():
    """Qualitative reproduction, N=5 skewed local priors (seed 46): the
    half-budget context-aware family beats the context-free optimum at the
    strong-privacy end of the grid and loses at the weak end, in closed
    form and in Monte Carlo (R=1e5, seed 9)."""
    t0 = time.time()
    pop = generate_population(5, "local-uniform", seed=46)
    p1s = pop.priors[:, 1]
    grid = np.arange(0.5, 5.001, 0.5)
    lip_half = np.array([sum(mse_binary_lip_opt(p, e / 2.0) for p in p1s) for e in grid])
    ldp = np.array([sum(mse_binary_ldp_opt(p, e) for p in p1s) for e in grid])
    ok = lip_half[0] < ldp[0] and lip_half[-1] > ldp[-1]

    trials = 100_000
    cfg_l = ExperimentConfig(task=Survey(1.0), families=("opt-binary-lip",),
                             eps_grid=(0.25, 2.5), trials=trials, seed=9,
                             population=pop)
    cfg_d = ExperimentConfig(task=Survey(1.0), families=("opt-binary-ldp",),
                             eps_grid=(0.5, 5.0), trials=trials, seed=9,
                             population=pop)
    got_l = {r.epsilon: r.metric for r in run_experiment(cfg_l).rows if r.trials > 0}
    got_d = {r.epsilon: r.metric for r in run_experiment(cfg_d).rows if r.trials > 0}
    ok &= got_l[0.25] < got_d[0.5] and got_l[2.5] > got_d[5.0]
    _report("14a", ok, "small-population crossover (half budget vs context-free)",
            f"{time.time() - t0:.1f}s")


def test_criterion_14b_wide_domain_orderings():
    """Qualitative reproduction, N=500 users over 5 categories with random
    local priors (seed 2): the context-aware optimum beats the context-free
    one at every budget, and still does at half budget for eps <= 2; at
    d=20 (uniform prior, eps=1) the half-budget advantage persists."""
    dom = Domain.of_size(5)
    pop = generate_population(500, "local-uniform", seed=2, domain=dom)
    ok = True
    for eps in (1.0, 2.0, 3.0):
        lip = sum(posterior_mean_mse(opt_mimo_lip(pop.prior(i), eps, dom), pop.priors[i],
                                     dom.values) for i in range(500))
        ldp = sum(posterior_mean_mse(opt_mimo_ldp(5, eps, dom), pop.priors[i], dom.values)
                  for i in range(500))
        ok &= lip < ldp
        if eps <= 2.0:
            lip_half = sum(
                posterior_mean_mse(opt_mimo_lip(pop.prior(i), eps / 2.0, dom), pop.priors[i],
                                   dom.values)
                for i in range(500))
            ok &= lip_half < ldp
    wide = Domain.of_size(20)
    uniform = Prior(np.full(20, 0.05))
    ok &= posterior_mean_mse(opt_mimo_ldp(20, 1.0, wide), uniform.p, wide.values) > \
        posterior_mean_mse(opt_mimo_lip(uniform, 0.5, wide), uniform.p, wide.values)
    _report("14b", ok, "wide-domain orderings with local priors")
