"""One workload run in a fresh process; started by run.py, never directly.

``--mode setup`` stops once the inputs are ready and reports setup time.
``--mode run`` then invokes the workload in a closed loop (one client, the
next invocation starts when the previous one ends) for at most about
``--seconds`` (always at least once), checks
the last output, and prints one JSON object on stdout.  With ``--trace 1``
untraced and traced invocations alternate, so the per-layer numbers and the
tracing overhead come from the same run.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _import_lipagg():
    sys.path.insert(0, str(ROOT / "src"))
    import lipagg

    where = Path(lipagg.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"imported lipagg from {where}, not from {ROOT / 'src'}")


def _machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _layer_metrics(tracer, tracing, traced_walls, walls) -> dict:
    per_inv = tracer.per_invocation()
    metrics = {}

    def med(layer, key):
        # counts repeat exactly between invocations; times are medians
        pick = statistics.median if key == "self_s" else statistics.median_low
        return pick([inv[layer][key] if layer in inv else 0 for inv in per_inv.values()])

    for layer, work in tracing.LAYERS.items():
        metrics[f"{layer}.calls"] = med(layer, "calls")
        metrics[f"{layer}.self_s"] = med(layer, "self_s")
        if work:
            metrics[f"{layer}.{work}"] = med(layer, "work")
    metrics["invocation.self_s"] = med(tracing.ROOT, "self_s")
    metrics["tracing.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    metrics["tracing.absent_targets"] = len(tracer.absent)
    return metrics


def _derived(workload, name, walls, layers) -> dict:
    """Per-unit costs comparable with the ROADMAP baselines."""
    out = {}
    spec = workload.spec
    if name == "mc-small-pop":
        per = statistics.median(walls) / (spec.trials * len(spec.eps_grid))
        out["us_per_trial_eps"] = per * 1e6
        out["us_per_trial_eps_family"] = per / len(spec.families) * 1e6
    if name == "mc-large-pop" and layers:
        rows = layers["harness.truth_sample.rows"] + layers["harness.perturb.rows"]
        sample_s = layers["harness.truth_sample.self_s"] + layers["harness.perturb.self_s"]
        user_trials = spec.n * spec.trials * len(spec.tasks)
        out["sampling_ns_per_row"] = sample_s / rows * 1e9
        out["sampling_ns_per_user_trial"] = sample_s / user_trials * 1e9
        loop_s = sample_s + layers["harness.run_experiment.self_s"]
        out["mc_ns_per_user_trial_upper"] = loop_s / user_trials * 1e9
    return out


def _outputs(output) -> dict:
    if hasattr(output, "result"):
        return {"cip_mse": output.result.mse, "cip_lower_bound": output.lower_bound}
    worst = {}
    for rec in output.audits:
        if rec.lip is not None:
            key = f"{rec.eps:g}"
            worst[key] = max(worst.get(key, 0.0), rec.lip)
    return {"worst_audited_lip": worst} if worst else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    args = ap.parse_args(argv)

    _import_lipagg()
    import calibration
    import checks
    import tracing
    import workloads

    workload = workloads.make(args.workload, args.seed, args.smoke)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    calibrator = calibration.Calibrator()
    walls, norms, traced_walls = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        start = time.perf_counter()
        output, wall, norm = calibrator.measure(workload.invoke)
        walls.append(wall)
        norms.append(norm)
        if tracer is not None:
            t = time.perf_counter()
            tracer.invoke(workload.invoke)
            traced_walls.append(time.perf_counter() - t)
        # stop when one more round would likely end past the deadline
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = {}
    if tracer is not None:
        layers = _layer_metrics(tracer, tracing, traced_walls, walls)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")

    found = checks.run_checks(workload, output)
    print(json.dumps({
        "setup_s": setup_s,
        "walls": walls,
        "norms": norms,
        "probe_s": statistics.median(d for _, d in calibrator.samples),
        "probes": len(calibrator.samples),
        "traced_walls": traced_walls,
        "peak_rss_mb": peak_rss_mb,
        "machine": _machine(),
        "inputs": {"digest": workload.digest, "describe": workload.describe()},
        "layers": layers,
        "absent": tracer.absent if tracer is not None else [],
        "derived": _derived(workload, args.workload, walls, layers),
        "outputs": _outputs(output),
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail,
                    "known_defect": c.known_defect} for c in found],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
