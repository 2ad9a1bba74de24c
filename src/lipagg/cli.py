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
import warnings
from dataclasses import fields
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
    check_distinct,
    check_real,
    check_reals,
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
    opt_binary_ldp,
    opt_binary_lip,
    opt_mimo_ldp,
    opt_mimo_lip,
    oue_channel,
    symmetric_rr,
)
from .notions import audit as audit_channel


def _numbers(flag: str, text: str, sep: str = ",") -> list[float]:
    """``flag``'s ``sep``-separated list as floats; the reader checks ranges."""
    try:
        return [float(p) for p in text.split(sep)]
    except ValueError:
        raise ValidationError(f"{flag} takes numbers separated by {sep!r}, got {text!r}") from None


def parse_eps_grid(spec) -> list[float]:
    """Accept "start:stop:step" (inclusive) or a comma list or a JSON list."""
    if isinstance(spec, (list, tuple)):
        return [check_real("eps grid entry", e) for e in spec]
    text = str(spec)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"--eps-grid {text!r} is not start:stop:step")
        start, stop, step = _numbers("--eps-grid", text, ":")
        if not (math.isfinite(start + stop) and 0 < step < math.inf):
            raise ValidationError("--eps-grid needs finite bounds and a positive step")
        # decimal steps, so "0.1:1:0.1" gives 0.3 rather than 0.30000000000000004
        lo, hi, inc = (Decimal(p.strip()) for p in parts)
        count = max(0, math.ceil((hi - lo) / inc + Decimal("0.5")))
        return [float(lo + i * inc) for i in range(count)]
    return _numbers("--eps-grid", text)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _matrix_csv(matrix: np.ndarray) -> str:
    lines = [",".join(repr(float(v)) for v in row) for row in matrix]
    return "\n".join(lines) + "\n"


def _emit(blob: dict, args) -> None:
    """A flat record as ``key,repr`` lines, or as sorted JSON with inf as "inf"."""
    if args.format == "json":
        blob = {key: "inf" if value == math.inf else value for key, value in blob.items()}
        _write(json.dumps(blob, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write("".join(f"{key},{value!r}\n" for key, value in blob.items()), args.out)


def _prior(args) -> Prior:
    """``--prior``, or ``--p1 x`` as shorthand for ``--prior 1-x,x``."""
    if (args.p1 is None) == (args.prior is None):
        raise ValidationError("give exactly one of --p1 and --prior")
    if args.p1 is not None:
        return Prior.binary(args.p1)
    return Prior(_numbers("--prior", args.prior))


def _binary_p1(prior: Prior) -> float:
    if prior.size != 2:
        raise ValidationError(f"opt-binary-lip needs a binary prior, got {prior.size} entries")
    return float(prior.p[1])


# Each family: what it reads besides --eps (the prior from --p1 or --prior, the
# width from --d in `derive` and the prior's size in `audit`, or nothing), its channel.
_FAMILIES = {
    "opt-binary-lip": ("prior", lambda eps, prior: opt_binary_lip(_binary_p1(prior), eps)),
    "opt-mimo-lip": ("prior", lambda eps, prior: opt_mimo_lip(prior, eps)),
    "opt-mimo-ldp": ("width", lambda eps, d: opt_mimo_ldp(d, eps)),
    "opt-binary-ldp": (None, lambda eps, _: opt_binary_ldp(eps)),
    "symmetric-rr": (None, lambda eps, _: symmetric_rr(eps)),
    "oue": (None, lambda eps, _: oue_channel(2, eps).bit_channel()),  # the same for any d
}


def _family(args):
    if args.family not in _FAMILIES:
        raise ValidationError(f"--family takes one of {', '.join(_FAMILIES)}")
    if args.eps is None:
        raise ValidationError(f"--family {args.family} needs --eps")
    return _FAMILIES[args.family]


def _cmd_mechanism(args) -> int:
    reads, build = _family(args)
    for flag, what in (("p1", "prior"), ("prior", "prior"), ("d", "width")):
        if getattr(args, flag) is not None and what != reads:
            raise ValidationError(f"--family {args.family} does not read --{flag}")
    if reads == "width" and args.d is None:
        raise ValidationError(f"--family {args.family} needs --d")
    ch = build(args.eps, _prior(args) if reads == "prior" else args.d)
    if args.format == "json":
        _emit({"family": args.family, "eps": args.eps, "matrix": ch.matrix.tolist()}, args)
    else:
        _write(_matrix_csv(ch.matrix), args.out)
    return 0


def _cmd_audit(args) -> int:
    prior = _prior(args)  # audited against, and read by a context-aware --family
    if args.channel_file is None:
        reads, build = _family(args)
        ch = build(args.eps, prior.size if reads == "width" else prior)
    elif args.family is not None or args.eps is not None:
        raise ValidationError("audit takes --channel-file, or --family and --eps")
    else:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt", UserWarning)  # no rows: named below
            matrix = np.loadtxt(args.channel_file, delimiter=",", ndmin=2)
        if matrix.size == 0:
            raise ValidationError(f"channel file {args.channel_file} holds no rows")
        ch = Channel(matrix)
        validate_channel(ch)
    report = audit_channel(ch, prior)
    _emit({"ldp_eps": report.ldp_eps, "lip_eps": report.lip_eps,
           "mip_nats": report.mip_nats}, args)
    return 0


def _given(**flags) -> dict:
    """The flags given on the command line; argparse leaves the others None."""
    return {key: value for key, value in flags.items() if value is not None}


def _keys(name: str, block, allowed: set) -> dict:
    """``block``, if it is a JSON object with no key its reader would ignore."""
    if not isinstance(block, dict):
        raise ValidationError(f"{name} must be a JSON object, got {block!r}")
    extra = sorted(set(block) - allowed)
    if extra:
        raise ValidationError(f"{name} does not take {', '.join(map(repr, extra))}")
    return block


def _population(block, seed: int) -> tuple[Population, np.ndarray | None]:
    """A population block, from a config or from `analyze curve`'s flags:
    ``{"file": path}``, an ingested population whose values stay fixed, or a
    synthetic ``n, prior_mode, p1 | p_vector, d | values``.  Returns the
    population and its fixed values (None for a synthetic one)."""
    if isinstance(block, dict) and "file" in block:
        path = _keys("a population file block", block, {"file"})["file"]
        if not isinstance(path, str):
            raise ValidationError(f"population file must be a path, got {path!r}")
        return load_population(path)
    _keys("population", block, {"n", "prior_mode", "p1", "p_vector", "d", "values"})
    if "n" not in block:
        raise ValidationError("a synthetic population needs n")
    if "d" in block and "values" in block:
        raise ValidationError("population takes d or values, not both")
    domain = None
    if "d" in block:
        domain = Domain.of_size(block["d"])
    if "values" in block:
        domain = Domain(check_reals("values", block["values"]))
    p1 = check_real("p1", block["p1"]) if "p1" in block else None
    p_vector = check_reals("p_vector", block["p_vector"]) if "p_vector" in block else None
    return generate_population(block["n"], block.get("prior_mode", "global"), seed,
                               p1=p1, p_vector=p_vector, domain=domain), None


def _task(block, n: int):
    """A task block: ``kind`` (default survey) plus survey's ``target``
    (default 1) or weighted-sum's ``coefficients`` and ``offsets`` (default
    all 1 and all 0)."""
    if not isinstance(block, dict):
        raise ValidationError(f"task must be a JSON object, got {block!r}")
    kind = block.get("kind", "survey")
    takes = {"survey": {"target"}, "summation": set(), "histogram": set(),
             "weighted-sum": {"coefficients", "offsets"}}
    if not isinstance(kind, str) or kind not in takes:
        raise ValidationError(f"unknown task {kind!r}")
    _keys(f"a {kind} task", block, {"kind"} | takes[kind])
    if kind == "survey":
        return Survey(target=check_real("target", block.get("target", 1.0)))
    if kind == "weighted-sum":
        return WeightedSum(check_reals("coefficients", block.get("coefficients", [1.0] * n)),
                           check_reals("offsets", block.get("offsets", [0.0] * n)))
    return Summation() if kind == "summation" else Histogram()


def _cmd_curve(args) -> int:
    p_vector = None if args.prior is None else _numbers("--prior", args.prior)
    block = _given(file=args.population, n=args.n, prior_mode=args.prior_mode,
                   p1=args.p1, p_vector=p_vector, d=args.d)
    if "file" not in block:
        block.setdefault("n", 100)
    population, _ = _population(block, args.seed)
    task = _task(_given(kind=args.task, target=args.target), population.n_users)
    grid = parse_eps_grid(args.eps_grid)
    families = check_distinct("families", [f.strip() for f in args.families.split(",")],
                              MechanismFamily.from_tag)
    curves = [tradeoff_curve(family, population, task, grid) for family in families]
    curve = TradeoffCurve([row for c in curves for row in c.rows], curves[0].metadata).sort()
    _write(curve.to_json() if args.format == "json" else curve.to_csv(), args.out)
    return 0


def _cmd_simulate(args) -> int:
    cfg = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            cfg = _keys("the config", json.load(fh), {"task", "families", "eps_grid", "trials",
                                                      "seed", "population", "out", "format"})
    families = None if args.families is None else [f.strip() for f in args.families.split(",")]
    cfg.update(_given(trials=args.trials, seed=args.seed, eps_grid=args.eps_grid,
                      families=families, out=args.out, format=args.format))
    families = cfg.get("families", ["opt-binary-lip"])
    out, fmt = cfg.get("out"), cfg.get("format", "csv")
    if not isinstance(families, list):
        raise ValidationError(f"families must be a list, got {families!r}")
    if out is not None and not isinstance(out, str):
        raise ValidationError(f"out must be a path, got {out!r}")
    if fmt not in ("csv", "json"):
        raise ValidationError(f"format must be csv or json, got {fmt!r}")

    seed = cfg.get("seed", 0)
    population, fixed_values = _population(cfg.get("population"), seed)
    config = ExperimentConfig(
        task=_task(cfg.get("task", {}), population.n_users),
        families=tuple(families),
        eps_grid=tuple(parse_eps_grid(cfg.get("eps_grid", "1:5:1"))),
        trials=cfg.get("trials", 1000),
        seed=seed,
        population=population,
        fixed_values=fixed_values,
    )
    curve = run_experiment(config)
    _write(curve.to_json() if fmt == "json" else curve.to_csv(), out)
    return 0


def _cmd_ingest(args) -> int:
    spec = {f.name: getattr(args, f.name) for f in fields(IngestSpec)}  # flags by field name
    if args.bbox is not None:
        spec["bbox"] = tuple(_numbers("--bbox", args.bbox))
    result = ingest(args.input, IngestSpec(**spec))
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
    output_size = inst.n_users + 1 if args.output_size is None else args.output_size
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
        # bound is not tight there (it is often vacuous, 0.0), and
        # pruned_share is the share of candidate sources whose gain bound
        # spared them a row of gains
        candidates = result.sources_scored + result.sources_pruned
        blob.update(starts=result.starts, starts_blended=result.starts_blended,
                    max_sweeps_used=max(result.sweeps),
                    bound_gap=result.mse - bound,
                    pruned_share=result.sources_pruned / candidates if candidates else 0.0)
    _emit(blob, args)
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
    der.add_argument("--eps", type=float, default=None)
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
    _add_common(aud)
    aud.set_defaults(func=_cmd_audit)

    ana = sub.add_parser("analyze", help="closed-form tradeoff curves")
    ana_sub = ana.add_subparsers(dest="subcommand", required=True)
    cur = ana_sub.add_parser("curve")
    cur.add_argument("--families", required=True)
    cur.add_argument("--task", default="survey",
                     choices=["survey", "summation", "weighted-sum", "histogram"])
    cur.add_argument("--target", type=float, default=None, help="survey target (default 1)")
    cur.add_argument("--eps-grid", required=True)
    cur.add_argument("--n", type=int, default=None, help="population size (default 100)")
    cur.add_argument("--p1", type=float, default=None)
    cur.add_argument("--prior", default=None)
    cur.add_argument("--prior-mode", default=None, choices=["global", "local-uniform"],
                     help="default global")
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
    ing.add_argument("--grid-rows", type=int, default=None)
    ing.add_argument("--grid-cols", type=int, default=None)
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
