"""Monte-Carlo experiment engine, synthetic populations, and CSV ingestion.

Seeding: every random draw comes from a Philox stream keyed by the master
seed plus a purpose counter (``np.random.SeedSequence`` spawn keys).  A run
opens one stream for the true values and one per (family, eps) runner, and
reads each in trial-major order: user after user within a trial, trial
after trial.  Trials are processed in chunks of about ``_BLOCK`` user-values;
Philox output does not depend on how a stream is split into consecutive
reads, so the chunk size changes no draw and no result.  Within a trial the
true values are drawn once and shared by every family under comparison
(common random numbers), then each family perturbs them on its own stream.
``STREAM_LAYOUT`` numbers this layout and is recorded in the curve metadata.

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
    check_whole,
    task_form,
)
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    MissingColumnError,
    ParseError,
    UnreachableOutputError,
)
from .estimators import context_free_estimate, oue_count_estimate
from .mechanisms import (
    MechanismFamily,
    check_family_task,
    optimal_channel,
    oue_channel,
    oue_counts,
    sample_rows,
)

STREAM_LAYOUT = 2
_BLOCK = 1 << 16  # user-values drawn per chunk of trials


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
    check_whole("population size", n, 1)
    check_whole("seed", seed, 0)
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
    """One experiment: population x task x families x budget grid x trials.

    Families and budgets must be nonempty and distinct; trials and seed
    must be integers (bools are rejected), so a config never runs a
    truncated or empty experiment without saying so."""

    task: AggregationTask
    families: tuple
    eps_grid: tuple
    trials: int
    seed: int
    population: Population
    fixed_values: np.ndarray | None = None  # real data: values held fixed

    def __post_init__(self):
        check_whole("trials", self.trials, 1)
        check_whole("seed", self.seed, 0)
        families = [MechanismFamily.from_tag(f) if isinstance(f, str) else f
                    for f in self.families]
        eps_grid = [check_epsilon(e) for e in self.eps_grid]
        for name, items in (("families", families), ("eps_grid", eps_grid)):
            if not items:
                raise ValueError(f"{name} must be nonempty")
            if len(set(items)) != len(items):
                raise ValueError(f"{name} has a repeated entry: {list(getattr(self, name))}")
        task_form(self.task, self.population)
        n = self.population.n_users
        if self.fixed_values is not None and np.shape(self.fixed_values) != (n,):
            raise DimensionMismatchError(
                f"{np.size(self.fixed_values)} fixed values for {n} users")


class _FamilyRunner:
    """Per-(family, eps) sampler and estimator for a chunk of trials.

    A keep-or-resample family keeps the task's weighted posterior tables,
    (N, d) and indexed by (user, observed output): the estimate after
    outputs y is offset + sum_i w_i (kept[i, y_i] g(y_i) + redrawn[i, y_i] mu_i)
    with mu_i = priors[i] @ g.  Unary encoding draws only the per-bucket
    counts of set bits (:func:`mechanisms.oue_counts`)."""

    def __init__(self, family: MechanismFamily, eps: float, population: Population,
                 task: AggregationTask, form: TaskForm, fixed_idx):
        check_family_task(family, task, population.domain)
        self.family = family
        self.eps = eps
        priors = population.priors
        n, d = priors.shape
        self.g = form.g.reshape(d, -1)  # one column per statistic component
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
        self.offset = form.offset
        self.kept = form.weights[:, None] * kept
        self.redrawn = form.weights[:, None] * redrawn
        self.mu = priors @ self.g

    def estimate(self, x_idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Perturb a (trials, N) chunk of true values, reading ``rng`` in
        trial-major order, and return the (trials, components) estimates."""
        m, n = x_idx.shape
        d = self.g.shape[0]
        if self.family is MechanismFamily.OUE:
            hot = np.bincount((x_idx + d * np.arange(m)[:, None]).ravel(),
                              minlength=m * d).reshape(m, d)
            return oue_count_estimate(oue_counts(self.oue, hot, rng), n, self.eps)
        y_idx = sample_rows((self.steps.take(x_idx, axis=0) + self.tail).reshape(m * n, d),
                            rng).reshape(m, n)
        if self.family is MechanismFamily.SYMMETRIC_RR:
            count = context_free_estimate(y_idx, self.eps)
            return n * self.g[0] + (self.g[1] - self.g[0]) * count[:, None]
        at = self.rows + y_idx
        return (self.offset
                + (self.kept.take(at)[:, None, :] @ self.g.take(y_idx, axis=0))[:, 0]
                + self.redrawn.take(at) @ self.mu)


def run_experiment(config: ExperimentConfig) -> TradeoffCurve:
    """Monte-Carlo tradeoff curve; deterministic given the master seed.

    Emits one empirical row per (family, eps) and, for synthetic
    populations, the matching closed-form rows (trials = 0).  An empirical
    row's metric is sqrt(mean(T) / N) over the per-trial squared errors T,
    and its ``mse_stderr`` is sd(T) / (N sqrt(trials)), the standard error
    of metric^2.
    """
    pop = config.population
    task = config.task
    domain = pop.domain
    n, d = pop.n_users, domain.size
    trials = config.trials
    families = [MechanismFamily.from_tag(f) if isinstance(f, str) else f
                for f in config.families]
    eps_grid = [float(e) for e in config.eps_grid]
    form = task_form(task, pop)
    fixed_idx = None
    if config.fixed_values is not None:
        fixed_idx = np.array([domain.index_of(v) for v in config.fixed_values])
        if np.any(fixed_idx < 0):
            raise ValueError("fixed values must lie in the population domain")

    runners = [(_FamilyRunner(fam, eps, pop, task, form, fixed_idx),
                _rng(config.seed, 2, fi, ei))
               for fi, fam in enumerate(families) for ei, eps in enumerate(eps_grid)]
    truth_rng = _rng(config.seed, 1)
    truth_cdf = np.cumsum(pop.priors, axis=1)
    g = form.g.reshape(d, -1)

    # squared error of every trial, summed over the statistic's components
    sq_err = np.zeros((len(runners), trials))
    chunk = max(1, _BLOCK // (n * d))
    for t0 in range(0, trials, chunk):
        m = min(chunk, trials - t0)
        if fixed_idx is None:
            x_idx = sample_rows(np.broadcast_to(truth_cdf, (m, n, d)).reshape(m * n, d),
                                truth_rng).reshape(m, n)
        else:
            x_idx = np.broadcast_to(fixed_idx, (m, n))
        stat = form.total(g.take(x_idx, axis=0))
        for r, (runner, rng) in enumerate(runners):
            err = runner.estimate(x_idx, rng) - stat
            sq_err[r, t0:t0 + m] = np.sum(err * err, axis=1)

    rows = []
    for (runner, _), errs in zip(runners, sq_err):
        spread = float(np.std(errs, ddof=1)) if trials > 1 else math.nan
        rows.append(CurveRow(epsilon=runner.eps, family=runner.family.value,
                             metric=math.sqrt(float(np.mean(errs)) / n), trials=trials,
                             mse_stderr=spread / (n * math.sqrt(trials))))
        if fixed_idx is None:
            total = closed_form_total_mse(runner.family, pop, task, runner.eps)
            rows.append(CurveRow(epsilon=runner.eps, family=runner.family.value,
                                 metric=math.sqrt(total / n), trials=0))

    curve = TradeoffCurve(rows=rows, metadata={
        "population": f"N={n},d={domain.size}"
                      + (",fixed" if fixed_idx is not None else ""),
        "task": type(task).__name__.lower(),
        "trials": trials,
        "seed": config.seed,
        "stream_layout": STREAM_LAYOUT,
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
