"""lipagg benchmark: one seeded workload per call, measured from outside.

    python3 perfbench/run.py --workload mc-small-pop --seed 1 --seconds 25 --trace 0

Workloads: mc-small-pop, mc-large-pop, mc-wide-domain, cip-search (see
workloads.py for why each exists).  The package is imported from ``src/``
of the checkout this file sits in; nothing under ``src/`` is modified.

Each call runs the workload in fresh worker processes, one after another,
with the BLAS pool pinned to one thread: two set-up-only processes and one
measuring process.  It prints machine facts, an input digest, every metric
by name with its unit and sample count, derived per-unit costs and every
correctness check, then, as the last line, one JSON object:

* ``--trace 0``: wall_norm (median over invocations of wall time divided
  by the time of the speed probe in calibration.py, sampled during the
  invocation; it cancels the host's speed swings), setup_s (median time
  from process start until the inputs are ready, over three fresh
  processes) and peak_rss_mb (peak resident memory of the measuring
  process).  The raw median wall_s is printed beside them.
* ``--trace 1``: the per-layer metrics of tracing.LAYERS (calls, self
  time and work count per layer, medians over traced invocations) plus
  tracing.overhead_s.

``attempted`` and ``failed`` count correctness checks; their ratio is the
failed_ratio.  ``correct`` is false when a check fails that is not a known
defect listed in checks.KNOWN_DEFECTS.  ``--smoke`` shrinks every workload
to a few seconds for the self-tests.

The spans of a traced run are written to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-small-pop", "mc-large-pop", "mc-wide-domain", "cip-search")
SETUP_PROCESSES = 3
WORKER_TIMEOUT_S = 170.0

UNITS = {"wall_norm": "ref", "setup_s": "s", "peak_rss_mb": "MiB"}

# Per-unit baselines quoted in ROADMAP.md (2 cores, Python 3.11, numpy 2.4).
# Criterion 14a, behind the first, runs one family, so its "per (trial, eps)"
# is per (trial, family, eps) here.
ROADMAP_BASELINES = {
    "us_per_trial_eps_family": (85.0, 85.0, "us per (trial, eps), one family"),
    "sampling_ns_per_user_trial": (400.0, 660.0, "ns per user-trial at large N"),
    "mc_ns_per_user_trial_upper": (400.0, 660.0, "ns per user-trial at large N"),
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cip.search.mse":
        return "sq-users"
    return "count"


def _worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                            env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker for {args.workload} timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _print_metric(name, value, unit, samples):
    print(f"metric {name} = {value:.6g} {unit} ({samples})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "lipagg" / "__init__.py").is_file():
        print(f"error: no lipagg package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    setups = [_worker(args, "setup", deadline)["setup_s"]
              for _ in range(SETUP_PROCESSES - 1)]
    res = _worker(args, "run", deadline)
    setups.append(res["setup_s"])

    m = res["machine"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print(f"machine nproc={m['nproc']} cpus_allowed={m['cpus_allowed']} cpu={m['cpu']!r} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"blas={m['blas']} blas_threads={m['blas_threads']}")
    print(f"inputs digest={res['inputs']['digest']} {res['inputs']['describe']}")

    walls = res["walls"]
    e2e = {"wall_norm": statistics.median(res["norms"]),
           "setup_s": statistics.median(setups),
           "peak_rss_mb": res["peak_rss_mb"]}
    _print_metric("wall_s", statistics.median(walls), "s",
                  f"median of {len(walls)} invocations, untraced")
    _print_metric("wall_norm", e2e["wall_norm"], "ref",
                  f"median of {len(walls)} invocations, wall time over the speed-probe "
                  f"time around it; probe median {res['probe_s'] * 1e3:.4g} ms of "
                  f"{res['probes']} samples")
    _print_metric("setup_s", e2e["setup_s"], "s", f"median of {len(setups)} fresh processes")
    _print_metric("peak_rss_mb", e2e["peak_rss_mb"], "MiB", "measuring process")
    checks = res["checks"]
    failed = [c for c in checks if not c["ok"]]
    print(f"metric failed_ratio = {len(failed)}/{len(checks)} checks")
    if "cip_mse" in res["outputs"]:
        print(f"metric cip_mse = {res['outputs']['cip_mse']!r} sq-users (exact given the seed)")
    else:
        print("metric cip_mse = n/a (cip-search only)")
    for key, value in res["outputs"].items():
        if key != "cip_mse":
            print(f"output {key} = {value}")

    for key, value in res["derived"].items():
        line = f"derived {key} = {value:.4g}"
        if key in ROADMAP_BASELINES:
            lo, hi, what = ROADMAP_BASELINES[key]
            line += f" (ROADMAP: {lo:g}-{hi:g} {what}; ratio to midpoint {2 * value / (lo + hi):.2f})"
        print(line)

    passed = len(checks) - len(failed)
    print(f"checks passed={passed} failed={len(failed)} attempted={len(checks)}")
    unexpected = 0
    for c in failed:
        tag = "KNOWN-DEFECT" if c["known_defect"] else "FAIL"
        unexpected += c["known_defect"] is None
        print(f"check {tag} {c['name']}: {c['detail']}"
              + (f" [{c['known_defect']}]" if c["known_defect"] else ""))

    if args.trace:
        for name in res["absent"]:
            print(f"layer absent: {name} (not found, reported as 0)")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
        cip_mse = res["outputs"].get("cip_mse", 0.0)
        metrics["cip.search.mse"] = {"value": cip_mse, "unit": "sq-users"}
        print(f"traced invocations={len(res['traced_walls'])}")
        for k, v in metrics.items():
            value = v["value"]
            shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
            print(f"layer {k} = {shown} {v['unit']}")
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}

    print(json.dumps({"correct": unexpected == 0, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
