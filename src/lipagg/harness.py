"""Monte-Carlo experiment engine, synthetic populations, and CSV ingestion.

Seeding: every Monte-Carlo draw comes from a PCG64DXSM stream keyed by the
master seed plus a purpose counter (``np.random.SeedSequence`` spawn keys).
A run opens one stream for the true values and one per (family, eps)
runner, and reads each in trial-major order: user after user within a
trial, trial after trial.  Trials are processed in chunks of about
``_BLOCK`` user-values.  ``Generator.random`` takes one 64-bit word per
double, in order, so a stream split into consecutive reads gives the same
doubles, the chunk size changes no draw and no result, and a test checks
this, unary-encoding binomials included.  Within a trial the true values
are drawn once and shared by every family under comparison (common random
numbers), then each family perturbs them on its own stream.
``STREAM_LAYOUT`` numbers this layout and is recorded in the curve
metadata.  Synthetic populations are inputs, not part of the layout: they
keep their own Philox stream, so a seed names the same users under every
layout.

Inverse-CDF sampling (:func:`mechanisms.sample_rows`) reads the d-1
interior CDF boundaries of every user-trial.  They are laid out
boundary-major: the true values' boundaries as a (d-1, N) table, a
keep-or-resample channel's as a (d-1, d) step table plus a (d-1, N) or
(d-1, 1) tail, and a chunk's block as (d-1, trials x N), so counting the
boundaries below each draw sums d-1 contiguous rows.  ``sample_rows``
still receives the (trials x N, d-1) transpose view.  A run allocates one
workspace sized for a chunk (draws, boundary block, comparison mask,
counts, index arrays and gathered table values), and every chunk rewrites
it in place, so the chunk loop allocates nothing that grows with N or the
chunk; the last, shorter chunk uses prefixes of the same buffers.

Aggregation (:class:`_Aggregation`): the estimate of a task with local
function g is offset + sum_i w_i E[g(X_i) | Y_i], and under a
keep-or-resample channel that posterior mean depends only on the pair
(user, output).  For a statistic of c <= 2 components each runner folds it,
weights included, into one (N d, c) table, so a chunk's estimate is one
gather and one BLAS sum.  A histogram over d >= 3 outputs, whose table
would hold N d^2 floats, sums the gathered kept weights per (trial, output)
cell instead, and so does its true statistic: no (trials, N, d) block is
built.

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

from .analysis import CurveRow, TradeoffCurve, closed_form_total_mse
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
from .estimators import context_free_estimate, oue_count_estimate
from .mechanisms import (
    MechanismFamily,
    check_family_task,
    optimal_channel,
    oue_channel,
    oue_counts,
    sample_rows,
)

STREAM_LAYOUT = 3
_BLOCK = 1 << 16  # user-values drawn per chunk of trials
_FOLD_WIDTH = 2  # widest statistic whose posterior means are tabulated per (user, output)


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
        pv = Prior([1.0 - p1, p1] if p_vector is None else p_vector)
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
    truncated or empty experiment without saying so.  Families are stored
    as ``MechanismFamily`` members and budgets as floats."""

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
        for name, convert in (("families", MechanismFamily.from_tag), ("eps_grid", check_epsilon)):
            object.__setattr__(self, name, check_distinct(name, getattr(self, name), convert))
        task_form(self.task, self.population)
        n = self.population.n_users
        if self.fixed_values is not None and np.shape(self.fixed_values) != (n,):
            raise DimensionMismatchError(
                f"{np.size(self.fixed_values)} fixed values for {n} users")


class _Workspace:
    """Every array a chunk of m trials x N users needs, allocated once per run
    and rewritten in place by each chunk: each numpy call writes through
    ``out=``, and each ``np.take`` passes ``mode="clip"`` (with the default
    ``mode="raise"`` numpy buffers ``out`` and copies, allocating anyway).
    Arrays are kept flat so that a shorter last chunk gets contiguous
    prefixes of the same memory (:meth:`prefix`).

    The arrays are cut from one block, which keeps the workspace mapped from
    one run to the next.  Allocated as ten arrays it was handed back to the
    system after each run and faulted in again: 5.2k minor page faults per
    survey-plus-histogram pair of runs at N=20000, d=2 against 1.4k-4.1k for
    the block, depending on the heap layout (glibc raises its mmap threshold
    to the size of a freed mapped block, so a block of that size later comes
    from the heap and stays)."""

    def __init__(self, m: int, n: int, d: int, c: int, flat: dict | None = None):
        self.n, self.d, self.c = n, d, c
        shapes = {
            "u": ((m * n,), float),  # uniform draws, then u = 1 - draw
            "less": ((d - 1, m * n), bool),  # boundary-major comparison mask
            "counts": ((m * n,), np.min_scalar_type(d - 1)),  # sampled indices
            "bounds": ((d - 1, m, n), float),  # boundary-major CDF block
            "x": ((m, n), np.intp),  # true values
            "y": ((m, n), np.intp),  # published outputs
            "at": ((m, n), np.intp),  # flat (user, output) or (trial, output) offsets
            "trial_at": ((m, 1), np.intp),  # flat offset d t of each trial's cells
        }
        if c <= _FOLD_WIDTH:
            shapes["gathered"] = ((m, n, c), float)  # g[x], then posterior means
        else:
            shapes["kept"] = ((m, n), float)  # weights, then kept weights
            shapes["redrawn"] = ((m, n), float)
        if flat is None:  # one allocation, cut into 64-byte-aligned pieces
            nbytes = {k: -(-math.prod(s) * np.dtype(t).itemsize // 64) * 64
                      for k, (s, t) in shapes.items()}
            block, at, flat = np.empty(sum(nbytes.values()), np.uint8), 0, {}
            for k, (_, t) in shapes.items():
                flat[k] = block[at:at + nbytes[k]].view(t)
                at += nbytes[k]
            flat["trial_at"][:m] = d * np.arange(m)  # a prefix keeps its values
        self.flat = flat
        for k, (s, _) in shapes.items():
            setattr(self, k, self.flat[k][:math.prod(s)].reshape(s))
        self.sample = (self.u, self.less, self.counts)

    def prefix(self, m: int) -> "_Workspace":
        """The same buffers sized for m trials."""
        return _Workspace(m, self.n, self.d, self.c, self.flat)


class _Aggregation:
    """The task's linear form offset + sum_i w_i g(X_i) over one run's
    population, applied to a chunk of trials; built once per run and shared
    by every runner.

    After output a_k from a keep-or-resample channel, user i's posterior
    mean of g is kept_ik g_k + redrawn_ik mu_i, with mu_i = priors[i] @ g
    (``KeepResample.posterior``).  When g has c <= ``_FOLD_WIDTH`` columns a
    runner's table is post[i d + k] = w_i (kept_ik g_k + redrawn_ik mu_i),
    (N d, c), and a chunk's estimate is offset + ones @ post[rows + y].
    Wider g (a histogram over d >= 3 outputs; the folded table would hold
    N d^2 floats) keeps the weighted kept and redrawn tables, (N, d): the
    gathered kept weights are summed per (trial, output) cell, which then
    meets g, and the redrawn weights meet mu.  Its statistic sums the
    weights per (trial, true value) cell the same way."""

    def __init__(self, form: TaskForm, priors: np.ndarray):
        n, d = priors.shape
        self.form = form
        self.g = form.g.reshape(d, -1)  # one column per statistic component
        self.folded = self.g.shape[1] <= _FOLD_WIDTH
        self.mu = priors @ self.g
        self.rows = np.arange(n) * d  # flat offset of each user's table row
        self.ones = np.ones(n)

    def tables(self, kept: np.ndarray, redrawn: np.ndarray) -> tuple:
        """A runner's posterior tables from its (N, d) posterior weights."""
        w = self.form.weights[:, None]
        if not self.folded:
            return w * kept, w * redrawn
        post = kept[..., None] * self.g
        post += redrawn[..., None] * self.mu[:, None, :]
        post *= w[..., None]
        return (post.reshape(-1, self.g.shape[1]),)

    def _cells(self, at: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """(trials, c): the weights summed per (trial, output) cell, times g."""
        m, d = at.shape[0], self.g.shape[0]
        return np.bincount(at.ravel(), weights.ravel(), m * d).reshape(m, d) @ self.g

    def statistic(self, ws: _Workspace) -> np.ndarray:
        """(trials, c): the task's value at the true values in ``ws.x``."""
        if self.folded:
            return self.form.total(np.take(self.g, ws.x, axis=0, out=ws.gathered, mode="clip"))
        np.add(ws.x, ws.trial_at, out=ws.at)
        np.copyto(ws.kept, self.form.weights)
        return self.form.offset + self._cells(ws.at, ws.kept)

    def estimate(self, tables: tuple, ws: _Workspace) -> np.ndarray:
        """(trials, c): the posterior-mean estimate after the outputs in
        ``ws.y``, from a runner's :meth:`tables`."""
        np.add(self.rows, ws.y, out=ws.at)
        if self.folded:
            return self.form.offset + self.ones @ np.take(
                tables[0], ws.at, axis=0, out=ws.gathered, mode="clip")
        np.take(tables[0], ws.at, out=ws.kept, mode="clip")
        np.take(tables[1], ws.at, out=ws.redrawn, mode="clip")
        np.add(ws.y, ws.trial_at, out=ws.at)
        return self.form.offset + self._cells(ws.at, ws.kept) + ws.redrawn @ self.mu


class _FamilyRunner:
    """Per-(family, eps) sampler and estimator for a chunk of trials.

    A keep-or-resample family samples from its (d-1, d) step table plus
    tail and keeps its posterior tables from :meth:`_Aggregation.tables`,
    indexed by (user, observed output); symmetric-rr keeps none, since it
    counts ones.  Unary encoding draws only the per-bucket counts of set
    bits (:func:`mechanisms.oue_counts`)."""

    def __init__(self, family: MechanismFamily, eps: float, population: Population,
                 agg: _Aggregation, fixed_idx):
        self.family = family
        self.eps = eps
        self.agg = agg
        self.g = agg.g
        priors = population.priors
        d = priors.shape[1]
        if family is MechanismFamily.OUE:
            self.oue = oue_channel(d, eps)
            return
        ch = optimal_channel(family, eps, priors)
        # CDF of the output given true value x at outputs k < d-1 (the
        # boundaries sample_rows reads), boundary-major: steps[:, x] + tail,
        # the kept mass keep [k >= x] over the redraw mass redraw cumsum(r)_k
        self.steps = np.tril(np.full((d - 1, d), ch.keep))
        tail = ch.redraw * np.cumsum(ch.resample[..., :-1], axis=-1)
        self.tail = np.ascontiguousarray(tail.reshape(-1, d - 1).T)  # (d-1, N) or (d-1, 1)
        kept, redrawn = ch.posterior(priors)
        if fixed_idx is not None and ch.keep > 0.0:
            # a kept value whose output marginal is 0 has no posterior
            lost = np.nonzero((kept + redrawn).take(agg.rows + fixed_idx) == 0.0)[0]
            if lost.size:
                i = int(lost[0])
                raise UnreachableOutputError(
                    f"user {population.user_ids[i]}: value "
                    f"{population.domain.values[fixed_idx[i]]} has zero probability "
                    f"under its prior but is published with probability {ch.keep}")
        if family is not MechanismFamily.SYMMETRIC_RR:
            self.tables = agg.tables(kept, redrawn)

    def estimate(self, ws: _Workspace, rng: np.random.Generator) -> np.ndarray:
        """Perturb the chunk of true values in ``ws.x``, (trials, N), reading
        ``rng`` in trial-major order, and return the (trials, components)
        estimates."""
        m, n = ws.x.shape
        d = self.g.shape[0]
        if self.family is MechanismFamily.OUE:
            np.add(ws.x, ws.trial_at, out=ws.at)
            hot = np.bincount(ws.at.ravel(), minlength=m * d).reshape(m, d)
            return oue_count_estimate(oue_counts(self.oue, hot, rng), n, self.eps)
        np.take(self.steps, ws.x, axis=1, out=ws.bounds, mode="clip")
        np.add(ws.bounds, self.tail[:, None, :], out=ws.bounds)
        np.copyto(ws.y, sample_rows(ws.bounds.reshape(d - 1, m * n).T, rng,
                                    buffers=ws.sample).reshape(m, n))
        if self.family is MechanismFamily.SYMMETRIC_RR:
            count = context_free_estimate(ws.y, self.eps)
            return n * self.g[0] + (self.g[1] - self.g[0]) * count[:, None]
        return self.agg.estimate(self.tables, ws)


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
    form = task_form(task, pop)
    fixed_idx = None
    if config.fixed_values is not None:
        fixed_idx = domain.indices_of(config.fixed_values)
        if np.any(fixed_idx < 0):
            raise ValueError("fixed values must lie in the population domain")
    for fam in config.families:
        check_family_task(fam, task, domain)
    # the closed forms run before the runners exist, so their (N, d)
    # temporaries are freed before the runner tables are built
    closed = {} if fixed_idx is not None else {
        (fam, eps): closed_form_total_mse(fam, pop, task, eps)
        for fam in config.families for eps in config.eps_grid}

    agg = _Aggregation(form, pop.priors)
    runners = [(_FamilyRunner(fam, eps, pop, agg, fixed_idx), _rng(config.seed, 2, fi, ei))
               for fi, fam in enumerate(config.families)
               for ei, eps in enumerate(config.eps_grid)]
    truth_rng = _rng(config.seed, 1)

    chunk = min(trials, max(1, _BLOCK // (n * d)))
    ws = _Workspace(chunk, n, d, agg.g.shape[1])
    if fixed_idx is None:
        # sample_rows' boundaries for the true values, boundary-major and
        # repeated for each trial of a chunk; a shorter chunk reads a prefix
        truth_cdf = np.empty((d - 1, chunk, n))
        truth_cdf[...] = np.cumsum(pop.priors[:, :-1], axis=1).T[:, None, :]
    else:
        ws.x[...] = fixed_idx
    # squared error of every trial, summed over the statistic's components
    sq_err = np.zeros((len(runners), trials))
    for t0 in range(0, trials, chunk):
        m = min(chunk, trials - t0)
        if m < chunk:  # only the last chunk can be shorter
            ws = ws.prefix(m)
        if fixed_idx is None:
            np.copyto(ws.x, sample_rows(truth_cdf[:, :m].reshape(d - 1, m * n).T, truth_rng,
                                        buffers=ws.sample).reshape(m, n))
        stat = agg.statistic(ws)
        for r, (runner, rng) in enumerate(runners):
            err = runner.estimate(ws, rng) - stat
            sq_err[r, t0:t0 + m] = np.sum(err * err, axis=1)

    rows = []
    for (runner, _), errs in zip(runners, sq_err):
        spread = float(np.std(errs, ddof=1)) if trials > 1 else math.nan
        rows.append(CurveRow(epsilon=runner.eps, family=runner.family.value,
                             metric=math.sqrt(float(np.mean(errs)) / n), trials=trials,
                             mse_stderr=spread / (n * math.sqrt(trials))))
        if fixed_idx is None:
            total = closed[runner.family, runner.eps]
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
        if reader.fieldnames is None:
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
