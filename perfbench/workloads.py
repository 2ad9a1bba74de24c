"""The benchmark's four workloads: seeded inputs and one invocation each.

Inputs come from the benchmark's own ``numpy`` generator seeded with
``--seed``, never from ``lipagg.generate_population``, whose stream is
expected to change.  Every invocation calls lipagg's public functions
through their modules (``harness.run_experiment``, ``notions.audit``, ...)
so that a traced run can wrap them where they are looked up.

Why these workloads (each layer named in the per-layer metrics does most of
the work on one of them and almost none on another):

* mc-small-pop: N=5, many trials.  The per-trial fixed cost dominates
  (generator construction, per-runner estimate); channel derivation and the
  closed form cost almost nothing.
* mc-large-pop: N=20000, few trials, survey and histogram.  The per-user
  Python loops that derive channels and sum the closed form dominate;
  histogram uses the same layers with (N,2,2) tables and another
  closed-form branch.
* mc-wide-domain: d=20, N=5000 flat-Dirichlet priors.  Dense per-user d x d
  channels and posterior tables, inverse-CDF sampling over 20 outputs, OUE's
  N*d uniforms per trial, and a per-user audit loop over d^2 pairs.
* cip-search: the trusted-curator path only; touches no harness or analysis
  code, so a Monte-Carlo change should leave it unchanged and vice versa.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from lipagg import cip, core, errors, harness, mechanisms, notions


@dataclass(frozen=True)
class McSpec:
    """One Monte-Carlo workload: population shape, tasks, families and grid."""

    n: int
    d: int
    tasks: tuple
    families: tuple
    eps_grid: tuple
    trials: int
    audit_users: int = 0  # users whose opt-mimo-lip channels are audited per eps
    ref_users: int = 200  # users in the dense closed-form reference subset


@dataclass(frozen=True)
class CipSpec:
    n: int
    p1: float
    eps: float
    output_size: int


_SURVEY = core.Survey(1.0)
_HIST = core.Histogram()

SPECS = {
    "mc-small-pop": {
        "full": McSpec(5, 2, (_SURVEY,), ("opt-binary-lip", "opt-binary-ldp", "symmetric-rr"),
                       (0.5, 2.5), trials=2000),
        "smoke": McSpec(5, 2, (_SURVEY,), ("opt-binary-lip", "opt-binary-ldp", "symmetric-rr"),
                        (0.5, 2.5), trials=50),
    },
    "mc-large-pop": {
        "full": McSpec(20_000, 2, (_SURVEY, _HIST), ("opt-binary-lip", "opt-binary-ldp"),
                       (1.0, 3.0), trials=200),
        "smoke": McSpec(300, 2, (_SURVEY, _HIST), ("opt-binary-lip", "opt-binary-ldp"),
                        (1.0, 3.0), trials=200, ref_users=50),
    },
    "mc-wide-domain": {
        "full": McSpec(5000, 20, (_HIST,), ("opt-mimo-lip", "opt-mimo-ldp", "oue"),
                       (1.0, 2.0), trials=100, audit_users=500),
        "smoke": McSpec(100, 20, (_HIST,), ("opt-mimo-lip", "opt-mimo-ldp", "oue"),
                        (1.0, 2.0), trials=20, audit_users=10, ref_users=20),
    },
    "cip-search": {
        "full": CipSpec(50, 0.3, 1.0, output_size=51),
        "smoke": CipSpec(8, 0.3, 1.0, output_size=9),
    },
}


@dataclass
class AuditRecord:
    user: int
    eps: float
    p_min: float
    lip: float | None = None  # None when audit raised
    error: str = ""


@dataclass
class McOutput:
    curves: list
    audits: list = field(default_factory=list)


class McWorkload:
    def __init__(self, spec: McSpec, seed: int):
        self.spec = spec
        self.seed = seed
        rng = np.random.default_rng(seed)
        if spec.d == 2:
            p1 = rng.random(spec.n)
            priors = np.column_stack([1.0 - p1, p1])
            domain = core.Domain.binary()
        else:
            priors = rng.dirichlet(np.ones(spec.d), size=spec.n)
            domain = core.Domain.of_size(spec.d)
        self.population = core.Population(domain, priors)
        self.configs = [
            harness.ExperimentConfig(task=task, families=spec.families,
                                     eps_grid=spec.eps_grid, trials=spec.trials,
                                     seed=seed, population=self.population)
            for task in spec.tasks]
        self.digest = hashlib.sha256(
            self.population.priors.tobytes() + repr((spec, seed)).encode()).hexdigest()[:16]

    def describe(self) -> str:
        s = self.spec
        tasks = ",".join(type(t).__name__.lower() for t in s.tasks)
        return (f"N={s.n} d={s.d} tasks={tasks} families={','.join(s.families)} "
                f"eps={','.join(f'{e:g}' for e in s.eps_grid)} trials={s.trials} "
                f"audit_users={s.audit_users} ref_users={min(s.ref_users, s.n)}")

    def invoke(self) -> McOutput:
        curves = [harness.run_experiment(cfg) for cfg in self.configs]
        return McOutput(curves=curves, audits=self._audit())

    def _audit(self) -> list:
        pop = self.population
        records = []
        for i in range(self.spec.audit_users):
            prior = pop.prior(i)
            for eps in self.spec.eps_grid:
                rec = AuditRecord(user=i, eps=eps, p_min=float(prior.p.min()))
                ch = mechanisms.opt_mimo_lip(prior, eps, pop.domain)
                try:
                    rec.lip = notions.audit(ch, prior).lip_eps
                except errors.InternalInconsistencyError as exc:
                    rec.error = str(exc)
                records.append(rec)
        return records


@dataclass
class CipOutput:
    instance: object
    band: object
    lower_bound: float
    result: object


class CipWorkload:
    def __init__(self, spec: CipSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.digest = hashlib.sha256(repr((spec, seed)).encode()).hexdigest()[:16]

    def describe(self) -> str:
        s = self.spec
        return f"N={s.n} p1={s.p1:g} eps={s.eps:g} output_size={s.output_size} search_seed={self.seed}"

    def invoke(self) -> CipOutput:
        s = self.spec
        inst = cip.CipInstance(s.n, s.p1, s.eps)
        band = cip.cip_band(inst)
        lower = cip.cip_mse_lower_bound(inst)
        res = cip.cip_search(inst, output_size=s.output_size, seed=self.seed)
        return CipOutput(instance=inst, band=band, lower_bound=lower, result=res)


def make(name: str, seed: int, smoke: bool = False):
    spec = SPECS[name]["smoke" if smoke else "full"]
    cls = CipWorkload if isinstance(spec, CipSpec) else McWorkload
    return cls(spec, seed)
