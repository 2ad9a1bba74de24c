"""Monte-Carlo experiment engine, synthetic populations, and CSV ingestion.

Seeding: every random draw comes from a Philox stream keyed by the master
seed plus a purpose/trial counter (``np.random.SeedSequence`` spawn keys),
so trials are independent, reproducible, and safe to parallelize without
changing results.  Within a trial the true values are drawn once and shared
by every family under comparison (common random numbers), then each family
perturbs them on its own stream.

Empirical error is measured against the sampled statistic of each trial,
not its expectation.  Populations ingested from files keep their real
values fixed across trials; only the perturbation is resampled.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .analysis import CurveRow, TradeoffCurve, closed_form_total_mse
from .core import (
    AggregationTask,
    Domain,
    Population,
    Prior,
    TaskForm,
    check_epsilon,
    task_form,
)
from .errors import (
    EmptyInputError,
    MissingColumnError,
    ParseError,
    UnreachableOutputError,
    ZeroEpsilonError,
)
from .estimators import context_free_estimate, oue_histogram_estimate
from .mechanisms import (
    MechanismFamily,
    check_family_task,
    optimal_channel,
    oue_channel,
    oue_perturb,
    sample_rows,
)


def _rng(master_seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def generate_population(n: int, prior_mode: str, seed: int = 0, *,
                        p1: float | None = None, p_vector=None,
                        domain: Domain | None = None) -> Population:
    """Synthesize a population of priors.

    ``prior_mode`` is "global" (every user shares p1 or p_vector) or
    "local-uniform" (each user draws its own prior: p1 uniform on [0, 1]
    for binary domains, a flat-Dirichlet simplex point otherwise).
    """
    if n < 1:
        raise ValueError("population needs at least one user")
    if prior_mode == "global":
        if p1 is not None:
            domain = domain or Domain.binary()
            if domain.size != 2:
                raise ValueError("p1 implies a binary domain")
            priors = np.tile([1.0 - p1, p1], (n, 1))
        elif p_vector is not None:
            pv = Prior(p_vector)
            domain = domain or Domain.of_size(pv.size)
            priors = np.tile(pv.p, (n, 1))
        else:
            raise ValueError("global mode needs p1 or p_vector")
        Prior(priors[0])
        return Population(domain, priors)
    if prior_mode == "local-uniform":
        rng = _rng(seed, 7)
        domain = domain or Domain.binary()
        if domain.size == 2:
            ones = rng.random(n)
            priors = np.column_stack([1.0 - ones, ones])
        else:
            priors = rng.dirichlet(np.ones(domain.size), size=n)
        return Population(domain, priors)
    raise ValueError(f"unknown prior mode {prior_mode!r}")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment: population x task x families x budget grid x trials."""

    task: AggregationTask
    families: tuple
    eps_grid: tuple
    trials: int
    seed: int
    population: Population
    fixed_values: np.ndarray | None = None  # real data: values held fixed

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        for e in self.eps_grid:
            check_epsilon(e)
        task_form(self.task, self.population)


class _FamilyRunner:
    """Per-(family, eps) keep-or-resample sampler plus the task's weighted
    posterior tables, (N, d) and indexed by (user, observed output): the
    estimate after outputs y is offset + sum_i w_i (kept[i, y_i] g(y_i)
    + redrawn[i, y_i] mu_i) with mu_i = priors[i] @ g."""

    def __init__(self, family: MechanismFamily, eps: float, population: Population,
                 task: AggregationTask, form: TaskForm, fixed_idx):
        check_family_task(family, task, population.domain)
        self.family = family
        self.eps = eps
        self.form = form
        priors = population.priors
        n, d = priors.shape
        if family is MechanismFamily.OUE:
            self.oue = oue_channel(d, eps)
            return
        ch = optimal_channel(family, eps, priors)
        # CDF of the output given true value x: steps[x] + tail, the kept
        # mass keep [k >= x] over the redraw mass redraw cumsum(r)_k
        self.steps = np.triu(np.full((d, d), ch.keep))
        self.tail = ch.redraw * np.cumsum(ch.resample, axis=-1)
        kept, redrawn = ch.posterior(priors)
        self.rows = np.arange(n) * d  # flat offset of each user's table row
        if fixed_idx is not None and ch.keep > 0.0:
            # a kept value whose output marginal is 0 has no posterior
            lost = np.nonzero((kept + redrawn).take(self.rows + fixed_idx) == 0.0)[0]
            if lost.size:
                i = int(lost[0])
                raise UnreachableOutputError(
                    f"user {population.user_ids[i]}: value "
                    f"{population.domain.values[fixed_idx[i]]} has zero probability "
                    f"under its prior but is published with probability {ch.keep}")
        self.kept = form.weights[:, None] * kept
        self.redrawn = form.weights[:, None] * redrawn
        self.mu = priors @ form.g

    def estimate(self, x_idx: np.ndarray, rng: np.random.Generator):
        """Perturb the given true values and return the aggregate estimate."""
        n = x_idx.shape[0]
        if self.family is MechanismFamily.OUE:
            reports = oue_perturb(self.oue, x_idx, rng)
            return oue_histogram_estimate(reports, self.oue.d, n, self.eps)
        y_idx = sample_rows(self.steps[x_idx] + self.tail, rng)
        g = self.form.g
        if self.family is MechanismFamily.SYMMETRIC_RR:
            count = context_free_estimate(y_idx.astype(float), self.eps)
            return n * g[0] + (g[1] - g[0]) * count
        at = self.rows + y_idx
        return (self.form.offset + self.kept.take(at) @ g.take(y_idx, axis=0)
                + self.redrawn.take(at) @ self.mu)


def _closed_form_row(family: MechanismFamily, population: Population,
                     task: AggregationTask, eps: float) -> CurveRow | None:
    try:
        total = closed_form_total_mse(family, population, task, eps)
    except ZeroEpsilonError:
        return None
    return CurveRow(epsilon=eps, family=family.value,
                    metric=math.sqrt(total / population.n_users), trials=0)


def run_experiment(config: ExperimentConfig) -> TradeoffCurve:
    """Monte-Carlo tradeoff curve; deterministic given the master seed.

    Emits one empirical row per (family, eps) and, for synthetic
    populations, the matching closed-form rows (trials = 0).
    """
    pop = config.population
    task = config.task
    domain = pop.domain
    n = pop.n_users
    families = [MechanismFamily.from_tag(f) if isinstance(f, str) else f
                for f in config.families]
    eps_grid = [float(e) for e in config.eps_grid]
    form = task_form(task, pop)
    fixed_idx = None
    if config.fixed_values is not None:
        fixed_idx = np.array([domain.index_of(v) for v in config.fixed_values])
        if np.any(fixed_idx < 0):
            raise ValueError("fixed values must lie in the population domain")

    runners = {(fi, ei): _FamilyRunner(fam, eps, pop, task, form, fixed_idx)
               for fi, fam in enumerate(families) for ei, eps in enumerate(eps_grid)}

    # squared error per component of the statistic, of shape g.shape[1:]
    sq_err = np.zeros((len(families), len(eps_grid)) + form.g.shape[1:])

    truth_cdf = np.cumsum(pop.priors, axis=1)
    for t in range(config.trials):
        if fixed_idx is None:
            x_idx = sample_rows(truth_cdf, _rng(config.seed, 1, t))
        else:
            x_idx = fixed_idx
        stat = form.total(form.g.take(x_idx, axis=0))
        for fi in range(len(families)):
            for ei in range(len(eps_grid)):
                err = runners[(fi, ei)].estimate(x_idx, _rng(config.seed, 2, fi, ei, t)) - stat
                sq_err[fi, ei] += err * err

    rows = []
    for fi, fam in enumerate(families):
        for ei, eps in enumerate(eps_grid):
            emp = float(np.sum(sq_err[fi, ei])) / config.trials
            rows.append(CurveRow(epsilon=eps, family=fam.value,
                                 metric=math.sqrt(emp / n),
                                 trials=config.trials))
            if fixed_idx is None:
                cf = _closed_form_row(fam, pop, task, eps)
                if cf is not None:
                    rows.append(cf)

    curve = TradeoffCurve(rows=rows, metadata={
        "population": f"N={n},d={domain.size}"
                      + (",fixed" if fixed_idx is not None else ""),
        "task": type(task).__name__.lower(),
        "trials": config.trials,
        "seed": config.seed,
    })
    return curve.sort()


# ---------------------------------------------------------------------------
# dataset ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IngestSpec:
    """How to turn a CSV file into a population.

    mode: "binarize" (column vs threshold), "grid" (lat/lon into an
    r x c grid of cells), or "categorical" (column values as categories).
    prior_source: "global" (empirical distribution over all users) or
    "per-user-history" (group rows by ``user_col``; each user's prior is
    their own empirical frequency and their value is their last event).
    """

    mode: str
    column: str | None = None
    threshold: float | None = None
    lat_col: str | None = None
    lon_col: str | None = None
    grid_rows: int = 0
    grid_cols: int = 0
    bbox: tuple | None = None  # (lat_min, lat_max, lon_min, lon_max)
    prior_source: str = "global"
    user_col: str | None = None

    def __post_init__(self):
        if self.mode not in ("binarize", "grid", "categorical"):
            raise ValueError(f"unknown ingest mode {self.mode!r}")
        if self.mode == "binarize":
            if self.column is None or self.threshold is None:
                raise ValueError("binarize needs column and threshold")
            if not math.isfinite(self.threshold):
                raise ValueError("threshold must be finite")
        if self.mode == "grid":
            if None in (self.lat_col, self.lon_col) or self.bbox is None:
                raise ValueError("grid needs lat/lon columns and a bounding box")
            if self.grid_rows * self.grid_cols < 2:
                raise ValueError("grid needs at least 2 cells")
        if self.mode == "categorical" and self.column is None:
            raise ValueError("categorical needs a column")
        if self.prior_source not in ("global", "per-user-history"):
            raise ValueError(f"unknown prior source {self.prior_source!r}")
        if self.prior_source == "per-user-history" and self.user_col is None:
            raise ValueError("per-user-history needs user_col")


@dataclass(frozen=True, eq=False)
class IngestResult:
    population: Population
    values: np.ndarray  # one true value per user, in domain values
    statistic: float | np.ndarray
    labels: tuple = ()


def _read_rows(path: str, needed: list[str]):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyInputError(f"{path} has no header row")
        for col in needed:
            if col not in reader.fieldnames:
                raise MissingColumnError(f"column {col!r} not in {path}")
        rows = list(reader)
    if not rows:
        raise EmptyInputError(f"{path} has no data rows")
    return rows


def _parse_float(row, col, line):
    raw = row[col]
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ParseError(line, f"column {col!r}: not a number: {raw!r}") from None


def _encode(path: str, spec: IngestSpec):
    """Per-event (user_key, category_index) pairs plus the domain/labels."""
    if spec.mode == "binarize":
        needed = [spec.column]
    elif spec.mode == "grid":
        needed = [spec.lat_col, spec.lon_col]
    else:
        needed = [spec.column]
    if spec.prior_source == "per-user-history":
        needed = needed + [spec.user_col]
    rows = _read_rows(path, needed)

    labels: tuple = ()
    if spec.mode == "binarize":
        d = 2
        values = Domain.binary().values
    elif spec.mode == "grid":
        d = spec.grid_rows * spec.grid_cols
        values = np.arange(d, dtype=float)
    else:
        raw = [row[spec.column] for row in rows]
        try:
            uniq = sorted({float(v) for v in raw})
            labels = tuple(repr(v) for v in uniq)
            lookup = {repr(float(v)): i for i, v in enumerate(uniq)}
            keyfn = lambda v: repr(float(v))
        except ValueError:
            uniq = sorted(set(raw))
            labels = tuple(uniq)
            lookup = {v: i for i, v in enumerate(uniq)}
            keyfn = lambda v: v
        d = len(uniq)
        if d < 2:
            raise EmptyInputError("categorical column has fewer than 2 categories")
        values = np.arange(d, dtype=float)

    events = []
    for i, row in enumerate(rows):
        line = i + 2  # header is line 1
        if spec.mode == "binarize":
            x = 1 if _parse_float(row, spec.column, line) > spec.threshold else 0
        elif spec.mode == "grid":
            lat = _parse_float(row, spec.lat_col, line)
            lon = _parse_float(row, spec.lon_col, line)
            lat0, lat1, lon0, lon1 = spec.bbox
            r = int((lat - lat0) / (lat1 - lat0) * spec.grid_rows)
            c = int((lon - lon0) / (lon1 - lon0) * spec.grid_cols)
            r = min(max(r, 0), spec.grid_rows - 1)
            c = min(max(c, 0), spec.grid_cols - 1)
            x = r * spec.grid_cols + c
        else:
            x = lookup[keyfn(row[spec.column])]
        user = row[spec.user_col] if spec.prior_source == "per-user-history" else str(i)
        events.append((user, x))
    return events, Domain(values), labels


def ingest(path: str, spec: IngestSpec) -> IngestResult:
    """Load a CSV into a population plus the ground-truth statistic.

    Grid points outside the bounding box are clipped into the border
    cells.  Zero-prior categories are preserved in the domain; the
    context-aware mechanism reduces them away on its own.
    """
    events, domain, labels = _encode(path, spec)
    d = domain.size

    if spec.prior_source == "per-user-history":
        order: dict = {}
        hist: dict = {}
        for user, x in events:
            if user not in order:
                order[user] = len(order)
                hist[user] = []
            hist[user].append(x)
        users = sorted(order, key=order.get)
        n = len(users)
        priors = np.zeros((n, d))
        x_idx = np.zeros(n, dtype=int)
        for i, user in enumerate(users):
            ev = hist[user]
            counts = np.bincount(ev, minlength=d).astype(float)
            priors[i] = counts / counts.sum()
            x_idx[i] = ev[-1]
        population = Population(domain, priors, users)
    else:
        x_idx = np.array([x for _, x in events], dtype=int)
        n = x_idx.shape[0]
        freq = np.bincount(x_idx, minlength=d).astype(float) / n
        population = Population(domain, np.tile(freq, (n, 1)))

    x_values = domain.values[x_idx]
    if spec.mode == "binarize":
        statistic = float(np.sum(x_idx == 1))
    else:
        statistic = np.bincount(x_idx, minlength=d).astype(float)
    return IngestResult(population=population, values=x_values,
                        statistic=statistic, labels=labels)


def save_population(result: IngestResult, path: str) -> None:
    """Write an ingested population (priors + fixed values) as JSON."""
    blob = {
        "domain": [float(v) for v in result.population.domain.values],
        "labels": list(result.labels),
        "users": [
            {
                "id": result.population.user_ids[i],
                "value": float(result.values[i]),
                "prior": [float(p) for p in result.population.priors[i]],
            }
            for i in range(result.population.n_users)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_population(path: str) -> tuple[Population, np.ndarray]:
    """Read a population JSON written by :func:`save_population`."""
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    domain = Domain(blob["domain"])
    ids = [u["id"] for u in blob["users"]]
    priors = np.array([u["prior"] for u in blob["users"]], dtype=float)
    values = np.array([u["value"] for u in blob["users"]], dtype=float)
    return Population(domain, priors, ids), values
