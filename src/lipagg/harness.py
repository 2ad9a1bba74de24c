"""Monte-Carlo experiment engine, synthetic populations, and CSV ingestion.

Seeding: every Monte-Carlo draw comes from a PCG64DXSM stream keyed by the
master seed plus a purpose counter (``np.random.SeedSequence`` spawn keys).
A run opens one stream for the true values and one per (family, eps)
runner, and reads each in trial-major order: user after user within a
trial, trial after trial.  A chunk holds as many trials as a workspace of
``_CHUNK_BYTES`` does (one at least), so each runner reads its per-user
tables once per chunk, not per trial.  ``Generator.random`` takes one
64-bit word per double, in order, so a stream split into consecutive reads
gives the same doubles: the chunk size changes no draw, and a test checks
this, unary-encoding binomials included.  It can move the last digits of a
row: a context-free histogram over d >= 3 outputs sums a chunk's redrawn
weights against mu as one (trials, N) @ (N, d) product, in an order that
depends on the chunk.  A config always gets the same chunk, so its bytes
are reproducible, but only at a fixed BLAS thread count: the sums over
users are BLAS products, whose additions OpenBLAS orders by thread.  Within
a trial the true values are drawn once and shared by every family under
comparison (common random numbers), then each family perturbs them on its
own stream.  ``STREAM_LAYOUT`` numbers this layout and is recorded in the
curve metadata.  Synthetic populations are inputs, not part of the layout:
they keep their own Philox stream, so a seed names the same users under
every layout.

Inverse-CDF sampling (:func:`mechanisms.sample_rows`) counts the d-1
interior CDF boundaries below each draw in one boundary-major table,
(d-1, N) per user or (d-1, 1) shared, that every trial of a chunk reads,
so the count sums d-1 contiguous rows of a comparison mask.  The true
values read the prior's (d-1, N) boundaries, built once per run; a
keep-or-resample runner keeps two tables, its tails and keep + tails, and
clamps each true value between their counts (:class:`_FamilyRunner`).  A run
allocates one :class:`_Workspace` for a chunk, which every chunk rewrites
in place, so the chunk loop allocates nothing that grows with N or the
chunk; a last, shorter chunk gets a workspace of its own.

Aggregation (:class:`_Aggregation`): the estimate of a task with local
function g is offset + sum_i w_i E[g(X_i) | Y_i].  A context-aware channel
redraws from the user's own prior, so its posterior after any output that
can occur is (keep, redraw), and it estimates with no table:
offset + keep sum_i w_i g(y_i) + redraw sum_i w_i mu_i.  A context-free
runner tabulates its posterior means per (user, output), folded with the
weights into one (N d, c) table for c <= 2 components (one gather, one
BLAS sum).  A wider statistic is a histogram over d >= 3 outputs, so it
counts the values per (trial, value) cell, and a context-free runner sums
its (N, d) kept weights per cell and its redrawn weights against mu.
symmetric-rr debiases the survey's sum of g(y_i), the count #{y_i = target}.

Empirical error is measured against the sampled statistic of each trial,
not its expectation.  Populations ingested from files keep their real
values fixed across trials; only the perturbation is resampled.
"""

import contextlib
import csv
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .analysis import CurveRow, TradeoffCurve, _ClosedForm
from .core import (
    AggregationTask,
    Domain,
    Population,
    Prior,
    TaskForm,
    check_distinct,
    check_epsilon,
    check_real,
    check_reals,
    check_whole,
    flip_probability,
    task_form,
)
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    MissingColumnError,
    ParseError,
    UnreachableOutputError,
    ValidationError,
)
from .estimators import oue_count_estimate
from .mechanisms import (
    ONLY_TASK,
    MechanismFamily,
    check_family_task,
    optimal_channel,
    oue_channel,
    oue_counts,
    sample_rows,
)

STREAM_LAYOUT = 3
_CHUNK_BYTES = 1 << 21  # workspace bytes per chunk of trials
_FOLD_WIDTH = 2  # widest statistic whose posterior means are tabulated per (user, output)
# a wider one is a histogram over d >= 3 outputs (core.task_form): weights 1, offset 0, g = I


def _rng(master_seed: int, *key: int) -> np.random.Generator:
    """A Monte-Carlo stream; PCG64DXSM fills doubles 2-3x as fast as
    Philox."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64DXSM(ss))


def generate_population(n: int, prior_mode: str, seed: int = 0, *,
                        p1: float | None = None, p_vector=None,
                        domain: Domain | None = None) -> Population:
    """Synthesize a population of priors.

    ``prior_mode`` is "global" (every user shares p1 or p_vector: exactly
    one of them) or "local-uniform" (each user draws its own prior: p1
    uniform on [0, 1] for binary domains, a flat-Dirichlet simplex point
    otherwise; p1 and p_vector are rejected there, not ignored).
    """
    check_whole("population size", n, 1)
    check_whole("seed", seed, 0)
    if prior_mode == "global":
        if (p1 is None) == (p_vector is None):
            raise ValueError("global mode needs exactly one of p1 and p_vector")
        pv = Prior.binary(p1) if p_vector is None else Prior(p_vector)
        return Population(domain or Domain.of_size(pv.size), np.tile(pv.p, (n, 1)))
    if prior_mode == "local-uniform":
        if p1 is not None or p_vector is not None:
            raise ValueError("local-uniform draws each user's prior, so takes no p1 or p_vector")
        # Philox under key 7, as in every layout: a population is an input
        ss = np.random.SeedSequence(seed, spawn_key=(7,))
        rng = np.random.Generator(np.random.Philox(ss))
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
    truncated or empty experiment without saying so.  Every family must
    answer the task on the population's domain at every budget, and fixed
    values must lie in that domain with a nonzero output marginal under
    every posterior-mean family, so a config that constructs is a run that
    starts.  Families are stored as ``MechanismFamily`` members and budgets
    as floats."""

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
        pop = self.population
        grid = check_distinct("eps_grid", self.eps_grid, check_epsilon)
        object.__setattr__(self, "eps_grid", grid)
        object.__setattr__(self, "families", check_distinct("families", self.families, (
            lambda tag: check_family_task(tag, self.task, pop.domain, grid))))
        task_form(self.task, pop)
        fixed = self.fixed_values
        if fixed is None:
            return
        if np.shape(fixed) != (pop.n_users,):
            raise DimensionMismatchError(f"{np.size(fixed)} fixed values for {pop.n_users} users")
        x = pop.domain.indices_of(fixed)
        if np.any(x < 0):
            raise ValueError("fixed values must lie in the population domain")
        # a kept value whose output marginal keep p + redraw r is 0 has no posterior
        for ch in (optimal_channel(fam, eps, pop.priors) for fam in self.families
                   if fam not in ONLY_TASK for eps in grid):
            lam = (ch.keep * pop.priors + ch.redraw * ch.resample)[np.arange(pop.n_users), x]
            lost = np.flatnonzero(lam == 0.0)
            if ch.keep > 0.0 and lost.size:
                i = int(lost[0])
                raise UnreachableOutputError(
                    f"user {pop.user_ids[i]}: value {pop.domain.values[x[i]]} has zero "
                    f"probability under its prior but is published with probability {ch.keep}")


class _Workspace:
    """Every array a chunk of m trials x N users needs, allocated once per run
    and rewritten in place by each chunk: each numpy call writes through
    ``out=``, and each ``np.take`` passes ``mode="clip"`` (with the default
    ``mode="raise"`` numpy buffers ``out`` and copies, allocating anyway).
    No float array holds more than one value per user-trial and statistic
    component: the sampler reads (d-1, N) or (d-1, 1) boundary tables, not
    a (d-1, m, N) block.  True values and outputs are held once, in the count
    type the sampler clamps in (a min against intp costs 10x more), and are
    copied into ``at``, the one intp array, to be offset (a ufunc mixing the
    two casts through a 64 KiB buffer)."""

    def __init__(self, m: int, n: int, d: int, c: int):
        count = np.min_scalar_type(d - 1)
        self.u = np.empty(m * n)  # uniform draws, then u = 1 - draw
        self.less = np.empty((d - 1, m * n), bool)  # boundary-major comparison mask
        self.counts = np.empty(m * n, count)  # sampled indices: the published outputs
        self.spare = np.empty(m * n, count)  # c' of the clamp
        self.x_count = np.empty((m, n), count)  # true values
        self.at = np.empty((m, n), np.intp)  # indices, or flat (user or trial, output) offsets
        self.trial_at = d * np.arange(m, dtype=np.intp)[:, None]  # offset of each trial's cells
        if c <= _FOLD_WIDTH:
            self.gathered = np.empty((m, n, c))  # g[x] or g[y], or posterior means
        else:
            self.kept = np.empty((m, n))  # gathered kept and redrawn weights
            self.redrawn = np.empty((m, n))
        self.sample = (self.u, self.less, self.counts, self.spare)
        self.truth = (self.u, self.less, self.x_count.reshape(-1))

    @classmethod
    def user_trial_bytes(cls, d: int, c: int) -> int:
        """The bytes a workspace holds per user-trial: a 1 x 1 one's."""
        return sum(v.nbytes for k, v in vars(cls(1, 1, d, c)).items()
                   if isinstance(v, np.ndarray) and k != "trial_at")


class _Aggregation(_ClosedForm):
    """The task's linear form offset + sum_i w_i g(X_i) over one run's
    population, applied to a chunk of trials; built once per run on the
    run's closed form, whose g and mu it reads, and shared by every runner.

    After output a_k from a keep-or-resample channel, user i's posterior
    mean of g is kept_ik g_k + redrawn_ik mu_i, with mu_i = priors[i] @ g
    (``KeepResample.posterior``); where r is the user's prior that pair is
    (keep, redraw) and the estimate is offset + keep local_sum(y) +
    redraw ``prior_term``.  Otherwise, for c <= ``_FOLD_WIDTH`` columns of g a
    runner's table is post[i d + k] = w_i (kept_ik g_k + redrawn_ik mu_i),
    (N d, c), and a chunk's estimate is offset + ones @ post[rows + y].
    Wider g, a histogram, is counted: its tables are the (N, d) kept and
    redrawn weights themselves, the gathered kept weights are summed per
    (trial, output) cell, and the redrawn weights meet mu."""

    def __init__(self, form: TaskForm, priors: np.ndarray):
        super().__init__(form, priors)
        n, d = priors.shape
        self.folded = self.g.shape[1] <= _FOLD_WIDTH
        self.rows = np.arange(n) * d  # flat offset of each user's table row
        self.ones = np.ones(n)
        self.prior_term = form.weights @ self.mu  # sum_i w_i mu_i, (c,)

    def workspace(self, m: int) -> _Workspace:
        """A workspace for chunks of m trials."""
        return _Workspace(m, *self.priors.shape, self.g.shape[1])

    def tables(self, kept: np.ndarray, redrawn: np.ndarray) -> tuple:
        """A runner's posterior tables from its (N, d) posterior weights."""
        if not self.folded:
            return kept, redrawn
        post = kept[..., None] * self.g
        post += redrawn[..., None] * self.mu[:, None, :]
        post *= self.form.weights[:, None, None]
        return (post.reshape(-1, self.g.shape[1]),)

    def _cells(self, values: np.ndarray, ws: _Workspace, weights=None) -> np.ndarray:
        """(trials, d): the values counted, or ``weights`` summed, per cell."""
        m, d = values.shape[0], self.g.shape[0]
        np.copyto(ws.at, values)
        at = np.add(ws.at, ws.trial_at, out=ws.at)
        return np.bincount(at.ravel(), weights, m * d).reshape(m, d)

    def local_sum(self, values: np.ndarray, ws: _Workspace) -> np.ndarray:
        """(trials, c): sum_i w_i g(values_i) for (trials, N) count-type indices."""
        if not self.folded:
            return self._cells(values, ws)
        np.copyto(ws.at, values)  # np.take would copy count-type indices to intp
        return self.form.weights @ np.take(self.g, ws.at, axis=0, out=ws.gathered, mode="clip")

    def estimate(self, tables: tuple, y: np.ndarray, ws: _Workspace) -> np.ndarray:
        """(trials, c): the posterior-mean estimate after the (trials, N)
        count-type outputs ``y``, from a runner's :meth:`tables`."""
        np.copyto(ws.at, y)
        at = np.add(ws.at, self.rows, out=ws.at)
        if self.folded:
            return self.form.offset + self.ones @ np.take(
                tables[0], at, axis=0, out=ws.gathered, mode="clip")
        np.take(tables[0], at, out=ws.kept, mode="clip")
        np.take(tables[1], at, out=ws.redrawn, mode="clip")
        return self._cells(y, ws, ws.kept.ravel()) + ws.redrawn @ self.mu


class _FamilyRunner:
    """Per-(family, eps) sampler and estimator for a chunk of trials.

    A keep-or-resample family samples from the boundaries keep [k >= x] +
    tail_k without building them: it keeps ``tail`` and ``kept`` =
    keep + tail, (d-1, N) per user or (d-1, 1) shared, and
    :func:`mechanisms.sample_rows` clamps each true value between the two
    counts of boundaries below its draw.  A context-aware family estimates
    from ``keep`` and ``redraw`` alone; a context-free one keeps posterior
    tables from :meth:`_Aggregation.tables`, indexed by (user, observed
    output).  symmetric-rr keeps none: it debiases ``local_sum`` of its
    outputs.  Unary encoding draws only the per-bucket counts of set bits
    (:func:`mechanisms.oue_counts`) from the true histogram of each trial."""

    def __init__(self, family: MechanismFamily, eps: float, priors: np.ndarray,
                 agg: _Aggregation):
        self.family = family
        self.eps = eps
        self.agg = agg
        d = priors.shape[1]
        if family is MechanismFamily.OUE:
            self.oue = oue_channel(d, eps)
            return
        ch = optimal_channel(family, eps, priors)
        tail = ch.redraw * np.cumsum(ch.resample[..., :-1], axis=-1)
        self.tail = np.ascontiguousarray(tail.reshape(-1, d - 1).T)
        self.kept = ch.keep + self.tail
        if family is MechanismFamily.SYMMETRIC_RR:
            return  # the count estimator reads no posterior
        self.keep, self.redraw = ch.keep, ch.redraw
        # a redraw from the user's own prior leaves no per-user posterior to tabulate
        self.tables = None if ch.resample is priors else agg.tables(*ch.posterior(priors))

    def estimate(self, ws: _Workspace, rng: np.random.Generator, stat: np.ndarray) -> np.ndarray:
        """Perturb the (trials, N) true values in ``ws.x_count``, reading
        ``rng`` in trial-major order, and return the (trials, components)
        estimates; unary encoding reads the true bucket counts in ``stat``."""
        m, n = ws.x_count.shape
        agg = self.agg
        if self.family is MechanismFamily.OUE:
            return oue_count_estimate(oue_counts(self.oue, stat, rng), n, self.eps)
        y = sample_rows(self.tail, rng, kept=self.kept, x=ws.x_count,
                        buffers=ws.sample).reshape(m, n)
        if self.family is MechanismFamily.SYMMETRIC_RR:
            f = flip_probability(self.eps)
            return (agg.local_sum(y, ws) - n * f) / (1.0 - 2.0 * f)
        if self.tables is not None:
            return agg.estimate(self.tables, y, ws)
        return agg.form.offset + self.keep * agg.local_sum(y, ws) + self.redraw * agg.prior_term


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
    n = pop.n_users
    trials = config.trials
    fixed_idx = None if config.fixed_values is None else domain.indices_of(config.fixed_values)
    agg = _Aggregation(task_form(task, pop), pop.priors)
    rows = [] if fixed_idx is not None else agg.curve_rows(config.families, config.eps_grid)
    runners = [(_FamilyRunner(fam, eps, pop.priors, agg), _rng(config.seed, 2, fi, ei))
               for fi, fam in enumerate(config.families)
               for ei, eps in enumerate(config.eps_grid)]
    truth_rng = _rng(config.seed, 1)

    chunk = min(trials, max(1, _CHUNK_BYTES // (n * _Workspace.user_trial_bytes(*agg.g.shape))))
    ws = agg.workspace(chunk)
    if fixed_idx is None:  # the prior's boundaries, per user, for every chunk
        truth_cdf = np.ascontiguousarray(np.cumsum(pop.priors[:, :-1], axis=1).T)
    # squared error of every trial, summed over the statistic's components
    sq_err = np.zeros((len(runners), trials))
    for t0 in range(0, trials, chunk):
        m = min(chunk, trials - t0)
        if m < chunk:  # only the last chunk can be shorter
            ws = agg.workspace(m)
        if fixed_idx is None:
            sample_rows(truth_cdf, truth_rng, buffers=ws.truth)  # into ws.x_count
        else:
            ws.x_count[...] = fixed_idx
        stat = agg.form.offset + agg.local_sum(ws.x_count, ws)
        for r, (runner, rng) in enumerate(runners):
            err = runner.estimate(ws, rng, stat) - stat
            sq_err[r, t0:t0 + m] = np.sum(err * err, axis=1)

    for (runner, _), errs in zip(runners, sq_err):
        spread = float(np.std(errs, ddof=1)) if trials > 1 else math.nan
        rows.append(CurveRow(epsilon=runner.eps, family=runner.family.value,
                             metric=math.sqrt(float(np.mean(errs)) / n), trials=trials,
                             mse_stderr=spread / (n * math.sqrt(trials))))

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

_MODE_READS = {"binarize": ("column", "threshold"), "categorical": ("column",),
               "grid": ("lat_col", "lon_col", "grid_rows", "grid_cols", "bbox")}


@dataclass(frozen=True)
class IngestSpec:
    """How to turn a CSV file into a population.

    mode: "binarize" (column vs threshold), "grid" (lat/lon into an
    r x c grid of cells over a bounding box of four finite numbers with
    lat_min < lat_max and lon_min < lon_max), or "categorical" (column
    values as categories).
    prior_source: "global" (empirical distribution over all users) or
    "per-user-history" (group rows by ``user_col``; each user's prior is
    their own empirical frequency and their value is their last event).
    Each field the mode and prior source do not read must be left None.
    """

    mode: str
    column: str | None = None
    threshold: float | None = None
    lat_col: str | None = None
    lon_col: str | None = None
    grid_rows: int | None = None
    grid_cols: int | None = None
    bbox: tuple | None = None  # (lat_min, lat_max, lon_min, lon_max)
    prior_source: str = "global"
    user_col: str | None = None

    def __post_init__(self):
        if self.mode not in _MODE_READS:
            raise ValueError(f"unknown ingest mode {self.mode!r}")
        if self.prior_source not in ("global", "per-user-history"):
            raise ValueError(f"unknown prior source {self.prior_source!r}")
        reads = _MODE_READS[self.mode] + ("user_col",) * (self.prior_source == "per-user-history")
        for name in (f.name for f in fields(self) if f.name not in ("mode", "prior_source")):
            if (getattr(self, name) is None) == (name in reads):
                verb = "needs" if name in reads else "does not read"
                raise ValueError(f"{self.mode} with a {self.prior_source} prior {verb} {name}")
        if self.mode == "binarize" and not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        if self.mode == "grid":
            if min(self.grid_rows, self.grid_cols) < 1 or self.grid_rows * self.grid_cols < 2:
                raise ValueError("grid needs at least one row, one column and 2 cells")
            box = np.asarray(self.bbox, dtype=float)
            if not (box.shape == (4,) and -math.inf < box[0] < box[1] < math.inf
                    and -math.inf < box[2] < box[3] < math.inf):
                raise ValueError("bbox must be four finite numbers lat_min < lat_max, "
                                 f"lon_min < lon_max, got {self.bbox}")


@dataclass(frozen=True, eq=False)
class IngestResult:
    population: Population
    values: np.ndarray  # one true value per user, in domain values
    statistic: float | np.ndarray
    labels: tuple = ()


def _read_columns(path: str, names: list[str]) -> list[list[str]]:
    """The named columns of a CSV file, as lists of cells (a short row's
    missing cells read as empty)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")
        if not reader.fieldnames:  # None for an empty file, [] for a blank first line
            raise EmptyInputError(f"{path} has no header row")
        for col in names:
            if col not in reader.fieldnames:
                raise MissingColumnError(f"column {col!r} not in {path}")
        rows = list(reader)
    if not rows:
        raise EmptyInputError(f"{path} has no data rows")
    return [[row[col] for row in rows] for col in names]


def _finite(name: str, cells: list[str]) -> np.ndarray:
    """A column as finite floats; ``ParseError`` names the first line that
    is not one (the header is line 1)."""
    out = np.full(len(cells), np.nan)
    for i, cell in enumerate(cells):
        with contextlib.suppress(ValueError):
            out[i] = float(cell)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ParseError(int(bad[0]) + 2,
                         f"column {name!r}: not a finite number: {cells[bad[0]]!r}")
    return out


def ingest(path: str, spec: IngestSpec) -> IngestResult:
    """Load a CSV into a population plus the ground-truth statistic.

    Grid points outside the bounding box are clipped into the border
    cells.  Categories are the column's distinct numbers or, when a cell
    is not a finite number, its distinct strings, in ascending order; a
    column holding both 0.0 and -0.0 is rejected.  Zero-prior categories
    are preserved in the domain; the context-aware mechanism reduces them
    away on its own.
    """
    grid = spec.mode == "grid"
    history = spec.prior_source == "per-user-history"
    names = [spec.lat_col, spec.lon_col] if grid else [spec.column]
    cols = _read_columns(path, names + ([spec.user_col] if history else []))

    labels: tuple = ()
    if spec.mode == "binarize":
        x_idx = (_finite(spec.column, cols[0]) > spec.threshold).astype(int)
        domain = Domain.binary()
    elif grid:
        lat0, lat1, lon0, lon1 = spec.bbox
        r = np.trunc((_finite(spec.lat_col, cols[0]) - lat0) / (lat1 - lat0) * spec.grid_rows)
        c = np.trunc((_finite(spec.lon_col, cols[1]) - lon0) / (lon1 - lon0) * spec.grid_cols)
        x_idx = (np.clip(r, 0, spec.grid_rows - 1) * spec.grid_cols
                 + np.clip(c, 0, spec.grid_cols - 1)).astype(int)
        domain = Domain.of_size(spec.grid_rows * spec.grid_cols)
    else:
        try:
            keys = _finite(spec.column, cols[0])
        except ParseError:
            uniq, x_idx = np.unique(cols[0], return_inverse=True)
            labels = tuple(uniq.tolist())
        else:
            zero_signs = np.signbit(keys[keys == 0.0])
            if 0 < zero_signs.sum() < zero_signs.size:
                raise ValidationError(f"column {spec.column!r} holds both 0.0 and -0.0")
            uniq, x_idx = np.unique(keys, return_inverse=True)
            labels = tuple(map(repr, uniq.tolist()))
        if uniq.size < 2:
            raise EmptyInputError("categorical column has fewer than 2 categories")
        domain = Domain.of_size(uniq.size)
    d = domain.size

    if history:
        users, first, inverse = np.unique(cols[-1], return_index=True, return_inverse=True)
        order = np.argsort(first)  # users in first-seen order
        n = order.size
        events = np.argsort(order)[inverse] * d + x_idx  # (user, value) per row
        seen = np.bincount(events, minlength=n * d).reshape(n, d).astype(float)
        # each user's last row: its first in the reversed column
        last = len(inverse) - 1 - np.unique(cols[-1][::-1], return_index=True)[1]
        x_idx = x_idx[last[order]]
        population = Population(domain, seen / seen.sum(axis=1, keepdims=True),
                                users[order])
    counts = np.bincount(x_idx, minlength=d).astype(float)
    if not history:
        population = Population(domain, np.tile(counts / x_idx.size, (x_idx.size, 1)))
    return IngestResult(population=population, values=domain.values[x_idx],
                        statistic=float(counts[1]) if spec.mode == "binarize" else counts,
                        labels=labels)


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
    """Read a population JSON written by :func:`save_population`; a missing
    key or a value of the wrong type raises ``ValidationError``."""
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    try:
        users = list(enumerate(blob["users"]))
        ids = [str(u["id"]) for _, u in users]
        priors = [check_reals(f"user {i} prior", u["prior"]) for i, u in users]
        values = [check_real(f"user {i} value", u["value"]) for i, u in users]
        domain = Domain(check_reals("domain", blob["domain"]))
    except KeyError as exc:
        raise ValidationError(f"{path}: a population file needs the key {exc}") from None
    except TypeError as exc:
        raise ValidationError(f"{path} is not a population file: {exc}") from None
    return Population(domain, priors, ids), np.array(values)
