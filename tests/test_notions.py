import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipagg import (
    Channel,
    MechanismFamily,
    Prior,
    audit,
    budget_feasible_prior_floor,
    closed_form_lip_level,
    measure_ldp,
    measure_lip,
    measure_mip,
    opt_binary_ldp,
    opt_binary_lip,
    opt_mimo_lip,
    posterior,
)
from lipagg.errors import UnreachableOutputError
from lipagg.notions import PrivacyAudit

from conftest import (
    enum_ldp_level,
    enum_lip_level,
    enum_mutual_information,
    enum_posterior,
    random_channel,
    random_prior,
)

CONSTANT = Channel(np.array([[0.3, 0.7], [0.3, 0.7]]))


def test_ldp_constant_channel_is_zero():
    assert measure_ldp(CONSTANT) == 0.0


def test_ldp_identity_is_infinite():
    assert measure_ldp(Channel(np.eye(2))) == math.inf


def test_ldp_symmetric_optimum_hits_budget():
    for eps in (0.5, 1.0, 2.0, 4.0):
        assert measure_ldp(opt_binary_ldp(eps)) == pytest.approx(eps, abs=1e-9)


def test_lip_constant_channel_is_zero():
    assert measure_lip(CONSTANT, Prior.binary(0.4)) == 0.0


def test_lip_binary_optimum_hits_budget_in_regime(rng):
    # random pairs restricted to where the construction is actually feasible
    hits = 0
    while hits < 20:
        eps = float(rng.uniform(0.1, 5.0))
        floor = budget_feasible_prior_floor(eps)
        if floor >= 0.5 - 1e-6:
            continue
        p1 = float(rng.uniform(floor, 1.0 - floor))
        ch = opt_binary_lip(p1, eps)
        assert measure_lip(ch, Prior.binary(p1)) == pytest.approx(eps, abs=1e-9)
        hits += 1


def test_lip_mimo_optimum_hits_budget_in_regime():
    p = Prior([0.3, 0.3, 0.4])  # every entry above 1/(e+1)
    ch = opt_mimo_lip(p, 1.0)
    assert measure_lip(ch, p) == pytest.approx(1.0, abs=1e-9)


def test_lip_zero_entry_with_reachable_pair_is_infinite():
    ch = Channel(np.array([[1.0, 0.0], [0.5, 0.5]]))
    assert measure_lip(ch, Prior.binary(0.5)) == math.inf


def test_lip_skips_unreachable_pairs():
    # second input never occurs; its zero entry must not register
    ch = Channel(np.array([[0.5, 0.5], [1.0, 0.0]]))
    level = measure_lip(ch, Prior([1.0, 0.0]))
    assert level == 0.0


def test_mip_constant_channel_is_zero():
    assert measure_mip(CONSTANT, Prior.binary(0.4)) == 0.0


def test_mip_identity_uniform_is_ln2():
    got = measure_mip(Channel(np.eye(2)), Prior.binary(0.5))
    assert got == pytest.approx(math.log(2.0), abs=1e-9)


def test_mip_bounded_by_lip_level():
    ch = opt_binary_lip(0.3, 1.0)
    assert measure_mip(ch, Prior.binary(0.3)) <= 1.0


def test_audit_constant_channel():
    report = audit(CONSTANT, Prior.binary(0.4))
    assert (report.ldp_eps, report.lip_eps, report.mip_nats) == (0.0, 0.0, 0.0)


def test_audit_sandwich_on_random_channels(rng):
    for _ in range(100):
        d = int(rng.integers(2, 6))
        ch = random_channel(rng, d)
        p = random_prior(rng, d)
        rep = audit(ch, p)
        assert rep.lip_eps <= rep.ldp_eps + 1e-12
        assert rep.ldp_eps <= 2.0 * rep.lip_eps + 1e-12
        assert rep.mip_nats <= rep.lip_eps + 1e-12


def test_audit_ldp_optimum_implies_same_level_lip():
    rep = audit(opt_binary_ldp(2.0), Prior.binary(0.9))
    assert rep.ldp_eps == pytest.approx(2.0, abs=1e-9)
    assert rep.lip_eps <= 2.0 + 1e-12
    # a degenerate prior reveals nothing, whatever the channel: ldp > 2 lip there
    rep = audit(opt_binary_ldp(2.0), Prior.binary(0.0))
    assert rep.ldp_eps == pytest.approx(2.0, abs=1e-9) and rep.lip_eps == 0.0


def test_mixing_toward_constant_drives_measures_to_zero(rng):
    ch = random_channel(rng, 3)
    p = random_prior(rng, 3)
    constant = np.tile(ch.matrix.mean(axis=0), (3, 1))
    prev = (math.inf, math.inf, math.inf)
    for t in (0.0, 0.5, 0.9, 0.99, 0.999):
        mixed = Channel((1.0 - t) * ch.matrix + t * constant)
        rep = audit(mixed, p)
        now = (rep.ldp_eps, rep.lip_eps, rep.mip_nats)
        assert all(a <= b + 1e-12 for a, b in zip(now, prev))
        prev = now
    assert max(prev) < 0.02


@st.composite
def _channel_and_prior(draw):
    # square and non-square channels with zero entries (reachable ones give
    # inf), zero prior entries and outputs that no possible input emits.
    # Every row keeps at least two entries drawn from [0.1, 1], so no two
    # rows coincide and a level is 0 only when a single input is possible;
    # a channel whose possible rows are all equal would have levels that
    # are 0 up to the rounding of sum(p) != 1, beyond any relative check
    d, f = draw(st.integers(2, 5)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cols = np.arange(f)
    if f > 2 and draw(st.booleans()):
        cols = np.delete(cols, draw(st.integers(0, f - 1)))
    m = np.zeros((d, f))
    for row in m:
        keep = rng.permutation(cols)[:rng.integers(2, cols.size + 1)]
        row[keep] = rng.uniform(0.1, 1.0, size=keep.size)
    p = rng.uniform(0.1, 1.0, size=d)
    if draw(st.booleans()):
        p[rng.random(d) < 0.5] = 0.0
        p[rng.integers(d)] = 1.0
    return m / m.sum(axis=1, keepdims=True), p / p.sum()


def _same(got, want, abs_tol=0.0):
    # relative 1e-12; inf and 0.0 must match exactly
    if math.isinf(want) or want == 0.0 or got == 0.0:
        assert got == want
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=abs_tol), (got, want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_channel_and_prior())
def test_measures_and_posterior_match_definitional_loops(case):
    m, pv = case
    ch, p = Channel(m), Prior(pv)
    _same(measure_ldp(ch), enum_ldp_level(m))
    _same(measure_lip(ch, p), enum_lip_level(m, pv))
    # I(X;Y) is a sum of signed terms: one ulp of a marginal moves it by
    # ~1e-16 whatever its size (at most 2.4e-16 over 5000 of these inputs),
    # so nearly independent rows (I ~ 1e-8) get an absolute floor
    _same(measure_mip(ch, p), enum_mutual_information(m, pv), abs_tol=1e-15)
    for y in range(ch.d_out):
        want = enum_posterior(m, pv, y)
        if want is None:
            with pytest.raises(UnreachableOutputError):
                posterior(ch, p, float(y))
            continue
        got = posterior(ch, p, float(y)).posterior
        for a, b in zip(got, want):
            _same(float(a), b)


def test_levels_stay_finite_for_subnormal_prior_entries():
    # q/lambda overflows once lambda < q/DBL_MAX; the level is still the
    # closed form ln((1-u)/p_min + u), about 710.25
    p_min = 2.2e-309
    ch, p = opt_binary_lip(p_min, 1.0), Prior([1.0, p_min])
    level = closed_form_lip_level(p_min, 1.0)
    assert 710.0 < level < 710.5
    assert math.isclose(measure_lip(ch, p), level, rel_tol=1e-12)
    assert math.isfinite(measure_mip(ch, p))
    # q[1][1] / q[0][1] = (1 - (1-p_min) u) / (p_min u) overflows too: ln of it
    assert math.isclose(measure_ldp(ch), level + 1.0, rel_tol=1e-12)


def test_audit_equals_the_three_measures_for_every_family():
    """``audit`` shares one Bayes step between the lip and mip levels; for
    every family the CLI derives, over priors with zero and subnormal
    entries and budgets up to 40, it returns exactly the three measures."""
    from lipagg.cli import _FAMILIES

    tiny = 2.2e-309  # below 1/DBL_MAX: q / lambda overflows for its input
    priors = [Prior([0.7, 0.3]), Prior([0.0, 1.0]), Prior([1.0, tiny]), Prior([tiny, 1.0]),
              Prior([0.2, 0.3, 0.5]), Prior([0.5, tiny, 0.5]), Prior([0.1, 0.0, 0.6, 0.3])]
    checked, overflowed = 0, 0
    for name, (reads, build) in _FAMILIES.items():
        for p in priors:
            if name is MechanismFamily.OPT_BINARY_LIP and p.size != 2:
                continue
            for eps in (0.1, 1.0, 5.0, 40.0):
                ch = build(eps, p.size if reads == "width" else p)
                if ch.d_in != p.size:
                    continue  # the fixed binary channels audit binary priors
                got = audit(ch, p)
                assert got == PrivacyAudit(measure_ldp(ch), measure_lip(ch, p),
                                           measure_mip(ch, p)), (name, p.p, eps)
                checked += 1
                overflowed += got.lip_eps > math.log(np.finfo(float).max)
    assert checked == 4 * 4 + 7 * 4 + 7 * 4 + 3 * 4 * 4
    assert overflowed > 0  # the ln q - ln lam branch ran
