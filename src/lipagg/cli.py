"""Command-line interface.

Subcommands: ``mechanism derive``, ``audit``, ``analyze curve``,
``simulate``, ``ingest``, ``cip``.  Curves serialize to CSV with header
``epsilon,family,metric,trials`` (closed-form rows carry trials=0).

Exit codes: 0 success, 2 validation/parse error, 3 infeasible or
unreachable-output error.
"""

import argparse
import json
import math
import sys
from decimal import Decimal

import numpy as np

from .analysis import TradeoffCurve, tradeoff_curve
from .cip import CipInstance, cip_band, cip_mse_lower_bound, cip_search
from .core import (
    Channel,
    Domain,
    Histogram,
    Population,
    Prior,
    Summation,
    Survey,
    WeightedSum,
    validate_channel,
)
from .errors import InfeasibleError, ValidationError
from .harness import (
    ExperimentConfig,
    IngestSpec,
    generate_population,
    ingest,
    load_population,
    run_experiment,
    save_population,
)
from .mechanisms import (
    MechanismFamily,
    check_family_task,
    opt_binary_ldp,
    opt_binary_lip,
    opt_mimo_ldp,
    opt_mimo_lip,
    oue_channel,
    symmetric_rr,
)
from .notions import audit as audit_channel


def parse_eps_grid(spec) -> list[float]:
    """Accept "start:stop:step" (inclusive) or a comma list or a JSON list."""
    if isinstance(spec, (list, tuple)):
        return [float(e) for e in spec]
    text = str(spec)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"bad eps grid {text!r}, want start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not (math.isfinite(start + stop) and 0 < step < math.inf):
            raise ValidationError("eps grid needs finite bounds and a positive step")
        # decimal steps, so "0.1:1:0.1" gives 0.3 rather than 0.30000000000000004
        lo, hi, inc = (Decimal(p.strip()) for p in parts)
        count = max(0, math.ceil((hi - lo) / inc + Decimal("0.5")))
        return [float(lo + i * inc) for i in range(count)]
    return [float(p) for p in text.split(",") if p.strip()]


def _parse_prior(text: str) -> Prior:
    return Prior([float(p) for p in text.split(",")])


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _matrix_csv(matrix: np.ndarray) -> str:
    lines = [",".join(repr(float(v)) for v in row) for row in matrix]
    return "\n".join(lines) + "\n"


def _json_num(x: float):
    return "inf" if math.isinf(x) else x


def _derive_channel(args):
    fam = MechanismFamily.from_tag(args.family)
    if fam is MechanismFamily.OPT_BINARY_LIP:
        if args.p1 is None:
            raise ValidationError("opt-binary-lip needs --p1")
        return opt_binary_lip(args.p1, args.eps)
    if fam is MechanismFamily.OPT_BINARY_LDP:
        return opt_binary_ldp(args.eps)
    if fam is MechanismFamily.SYMMETRIC_RR:
        return symmetric_rr(args.eps)
    if fam is MechanismFamily.OPT_MIMO_LIP:
        if args.prior is None:
            raise ValidationError("opt-mimo-lip needs --prior")
        return opt_mimo_lip(_parse_prior(args.prior), args.eps)
    if fam is MechanismFamily.OPT_MIMO_LDP:
        if args.d is None:
            raise ValidationError("opt-mimo-ldp needs --d")
        return opt_mimo_ldp(args.d, args.eps)
    if fam is MechanismFamily.OUE:
        if args.d is None:
            raise ValidationError("oue needs --d")
        ch = oue_channel(args.d, args.eps)
        # per-bit channel: rows are (bit stays 0, bit becomes 1) probabilities
        return Channel(np.array([[1.0 - ch.flip_up_prob, ch.flip_up_prob],
                                 [1.0 - ch.keep_prob, ch.keep_prob]]))
    raise ValidationError(f"unknown family {args.family!r}")


def _cmd_mechanism(args) -> int:
    ch = _derive_channel(args)
    if args.format == "json":
        blob = {"family": args.family, "eps": args.eps,
                "matrix": [[float(v) for v in row] for row in ch.matrix]}
        _write(json.dumps(blob, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write(_matrix_csv(ch.matrix), args.out)
    return 0


def _cmd_audit(args) -> int:
    if args.channel_file is not None:
        matrix = np.loadtxt(args.channel_file, delimiter=",", ndmin=2)
        ch = Channel(matrix)
        validate_channel(ch)
        if args.prior is None:
            raise ValidationError("audit of a channel file needs --prior")
        prior = _parse_prior(args.prior)
    else:
        ch = _derive_channel(args)
        if args.prior is not None:
            prior = _parse_prior(args.prior)
        elif args.p1 is not None:
            prior = Prior.binary(args.p1)
        else:
            raise ValidationError("audit needs --prior or --p1")
    report = audit_channel(ch, prior)
    if args.format == "json":
        blob = {"ldp_eps": _json_num(report.ldp_eps),
                "lip_eps": _json_num(report.lip_eps),
                "mip_nats": report.mip_nats}
        _write(json.dumps(blob, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write(f"ldp_eps,{report.ldp_eps!r}\nlip_eps,{report.lip_eps!r}\n"
               f"mip_nats,{report.mip_nats!r}\n", args.out)
    return 0


def _task_from_args(kind: str, target: float, n: int):
    if kind == "survey":
        return Survey(target=target)
    if kind == "summation":
        return Summation()
    if kind == "histogram":
        return Histogram()
    if kind == "weighted-sum":
        return WeightedSum(np.ones(n), np.zeros(n))
    raise ValidationError(f"unknown task {kind!r}")


def _population_from_args(args) -> Population:
    if getattr(args, "population", None):
        pop, _values = load_population(args.population)
        return pop
    if args.prior is not None:
        return generate_population(args.n, args.prior_mode, args.seed,
                                   p_vector=[float(p) for p in args.prior.split(",")])
    if args.prior_mode == "local-uniform":
        domain = Domain.of_size(args.d) if args.d else Domain.binary()
        return generate_population(args.n, "local-uniform", args.seed, domain=domain)
    if args.p1 is None:
        raise ValidationError("global populations need --p1 or --prior")
    return generate_population(args.n, "global", args.seed, p1=args.p1)


def _cmd_curve(args) -> int:
    population = _population_from_args(args)
    task = _task_from_args(args.task, args.target, population.n_users)
    grid = parse_eps_grid(args.eps_grid)
    families = [MechanismFamily.from_tag(tag.strip()) for tag in args.families.split(",")]
    for fam in families:
        check_family_task(fam, task, population.domain)
    merged = TradeoffCurve()
    for fam in families:
        merged.extend(tradeoff_curve(fam, population, task, grid))
    _write(merged.to_json() if args.format == "json" else merged.to_csv(), args.out)
    return 0


def _task_from_config(blob, n: int):
    kind = blob.get("kind", "survey")
    if kind == "weighted-sum":
        coeffs = blob.get("coefficients")
        offsets = blob.get("offsets")
        if coeffs is None:
            coeffs = [1.0] * n
        if offsets is None:
            offsets = [0.0] * n
        return WeightedSum(coeffs, offsets)
    return _task_from_args(kind, float(blob.get("target", 1.0)), n)


def _cmd_simulate(args) -> int:
    cfg = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    if args.trials is not None:
        cfg["trials"] = args.trials
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.eps_grid is not None:
        cfg["eps_grid"] = args.eps_grid
    if args.families is not None:
        cfg["families"] = [f.strip() for f in args.families.split(",")]
    if args.out is not None:
        cfg["out"] = args.out
    if args.format is not None:
        cfg["format"] = args.format

    pop_blob = cfg.get("population")
    if pop_blob is None:
        raise ValidationError("simulate needs a population block in the config")
    fixed_values = None
    if "file" in pop_blob:
        population, fixed_values = load_population(pop_blob["file"])
    else:
        domain = None
        if "d" in pop_blob:
            domain = Domain.of_size(pop_blob["d"])
        if "values" in pop_blob:
            domain = Domain(pop_blob["values"])
        population = generate_population(
            pop_blob["n"], pop_blob.get("prior_mode", "global"),
            cfg.get("seed", 0),
            p1=pop_blob.get("p1"), p_vector=pop_blob.get("p_vector"),
            domain=domain)

    task = _task_from_config(cfg.get("task", {}), population.n_users)
    config = ExperimentConfig(
        task=task,
        families=tuple(cfg.get("families", ["opt-binary-lip"])),
        eps_grid=tuple(parse_eps_grid(cfg.get("eps_grid", "1:5:1"))),
        trials=cfg.get("trials", 1000),
        seed=cfg.get("seed", 0),
        population=population,
        fixed_values=fixed_values,
    )
    curve = run_experiment(config)
    text = curve.to_json() if cfg.get("format", "csv") == "json" else curve.to_csv()
    _write(text, cfg.get("out"))
    return 0


def _cmd_ingest(args) -> int:
    bbox = None
    if args.bbox is not None:
        parts = [float(p) for p in args.bbox.split(",")]
        if len(parts) != 4:
            raise ValidationError("bbox must be lat_min,lat_max,lon_min,lon_max")
        bbox = tuple(parts)
    spec = IngestSpec(
        mode=args.mode, column=args.column, threshold=args.threshold,
        lat_col=args.lat_col, lon_col=args.lon_col,
        grid_rows=args.grid_rows, grid_cols=args.grid_cols, bbox=bbox,
        prior_source=args.prior_source, user_col=args.user_col,
    )
    result = ingest(args.input, spec)
    if args.out is not None:
        save_population(result, args.out)
    stat = result.statistic
    if isinstance(stat, np.ndarray):
        stat_repr = "[" + ",".join(repr(float(v)) for v in stat) + "]"
    else:
        stat_repr = repr(float(stat))
    summary = {
        "n_users": result.population.n_users,
        "domain_size": result.population.domain.size,
        "statistic": stat_repr,
        "out": args.out,
    }
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_cip(args) -> int:
    inst = CipInstance(args.n, args.p1, args.eps)
    band = cip_band(inst)
    bound = cip_mse_lower_bound(inst)
    output_size = args.output_size or inst.n_users + 1
    result = cip_search(inst, output_size=output_size, seed=args.seed)
    blob = {
        "band_lower": band.lower,
        "band_upper": band.upper,
        "mse_lower_bound": bound,
        "achieved_mse": result.mse,
        "sqrt_avg_mse": math.sqrt(result.mse / inst.n_users),
    }
    if args.format == "json":
        # what the search did; a positive bound_gap says the certified
        # bound is not tight there (it is often vacuous, 0.0)
        blob.update(starts=result.starts, starts_blended=result.starts_blended,
                    max_sweeps_used=max(result.sweeps),
                    bound_gap=result.mse - bound)
        _write(json.dumps(blob, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write("".join(f"{k},{v!r}\n" for k, v in blob.items()), args.out)
    return 0


def _add_common(sp, fmt_default="csv"):
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=["csv", "json"], default=fmt_default)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lipagg")
    sub = ap.add_subparsers(dest="command", required=True)

    mech = sub.add_parser("mechanism", help="derive perturbation channels")
    mech_sub = mech.add_subparsers(dest="subcommand", required=True)
    der = mech_sub.add_parser("derive")
    der.add_argument("--family", required=True)
    der.add_argument("--eps", type=float, required=True)
    der.add_argument("--p1", type=float, default=None)
    der.add_argument("--prior", default=None, help="comma list, e.g. 0.1,0.2,0.7")
    der.add_argument("--d", type=int, default=None)
    _add_common(der)
    der.set_defaults(func=_cmd_mechanism)

    aud = sub.add_parser("audit", help="measure privacy levels of a channel")
    aud.add_argument("--channel-file", default=None)
    aud.add_argument("--family", default=None)
    aud.add_argument("--eps", type=float, default=None)
    aud.add_argument("--p1", type=float, default=None)
    aud.add_argument("--prior", default=None)
    aud.add_argument("--d", type=int, default=None)
    _add_common(aud)
    aud.set_defaults(func=_cmd_audit)

    ana = sub.add_parser("analyze", help="closed-form tradeoff curves")
    ana_sub = ana.add_subparsers(dest="subcommand", required=True)
    cur = ana_sub.add_parser("curve")
    cur.add_argument("--families", required=True)
    cur.add_argument("--task", default="survey",
                     choices=["survey", "summation", "weighted-sum", "histogram"])
    cur.add_argument("--target", type=float, default=1.0)
    cur.add_argument("--eps-grid", required=True)
    cur.add_argument("--n", type=int, default=100)
    cur.add_argument("--p1", type=float, default=None)
    cur.add_argument("--prior", default=None)
    cur.add_argument("--prior-mode", default="global",
                     choices=["global", "local-uniform"])
    cur.add_argument("--d", type=int, default=None)
    cur.add_argument("--seed", type=int, default=0)
    cur.add_argument("--population", default=None,
                     help="population JSON from `lipagg ingest`")
    _add_common(cur)
    cur.set_defaults(func=_cmd_curve)

    sim = sub.add_parser("simulate", help="Monte-Carlo tradeoff curves")
    sim.add_argument("--config", default=None, help="experiment JSON")
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--eps-grid", default=None)
    sim.add_argument("--families", default=None)
    sim.add_argument("--out", default=None)
    sim.add_argument("--format", choices=["csv", "json"], default=None)
    sim.set_defaults(func=_cmd_simulate)

    ing = sub.add_parser("ingest", help="CSV dataset into a population file")
    ing.add_argument("--input", required=True)
    ing.add_argument("--mode", required=True,
                     choices=["binarize", "grid", "categorical"])
    ing.add_argument("--column", default=None)
    ing.add_argument("--threshold", type=float, default=None)
    ing.add_argument("--lat-col", default=None)
    ing.add_argument("--lon-col", default=None)
    ing.add_argument("--grid-rows", type=int, default=0)
    ing.add_argument("--grid-cols", type=int, default=0)
    ing.add_argument("--bbox", default=None,
                     help="lat_min,lat_max,lon_min,lon_max")
    ing.add_argument("--prior-source", default="global",
                     choices=["global", "per-user-history"])
    ing.add_argument("--user-col", default=None)
    ing.add_argument("--out", default=None, help="population JSON path")
    ing.set_defaults(func=_cmd_ingest)

    cip = sub.add_parser("cip", help="trusted-curator baseline")
    cip.add_argument("--n", type=int, required=True)
    cip.add_argument("--p1", type=float, required=True)
    cip.add_argument("--eps", type=float, required=True)
    cip.add_argument("--output-size", type=int, default=None)
    cip.add_argument("--seed", type=int, default=0)
    _add_common(cip)
    cip.set_defaults(func=_cmd_cip)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError, json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InfeasibleError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
