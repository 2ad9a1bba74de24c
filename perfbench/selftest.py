"""Self-tests of the benchmark (kept out of the package's test suite).

    python3 -m pytest perfbench/selftest.py -q

They run every workload at smoke size, check that the printed metrics match
BENCHMARK.json, and feed each correctness check a corrupted reference to
show that it fires.
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lipagg import cip  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        prefix = "layer" if trace else "metric"
        assert any(line.startswith(f"{prefix} {m['name']} = ") and line.split()[4] == m["unit"]
                   for line in lines[:-1]), m["name"]
    if not trace:
        assert any(line.startswith("metric failed_ratio = ") for line in lines)
        assert any(line.startswith("metric cip_mse = ") for line in lines)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("mc-small-pop", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_closed_form_check_fires_on_a_scaled_closed_form():
    assert checks.closed_form_vs_dense("x", 3.0, 3.0).ok
    assert not checks.closed_form_vs_dense("x", 3.0 * 1.01, 3.0).ok


def test_monte_carlo_check_fires_on_a_halved_closed_form():
    assert checks.mc_vs_closed_form("x", 100.0, 100.0, 200, 1, 1.0).ok
    assert not checks.mc_vs_closed_form("x", 100.0, 50.0, 200, 1, 1.0).ok


def test_mc_checks_fire_on_a_corrupted_curve():
    wl = workloads.make("mc-small-pop", 3, smoke=True)
    out = wl.invoke()
    assert all(c.ok for c in checks.run_checks(wl, out))

    curve = out.curves[0]
    target = next(r for r in curve.rows if r.trials == 0 and r.family == "opt-binary-lip")
    curve.rows = [dataclasses.replace(r, metric=r.metric * 0.1) if r is target else r
                  for r in curve.rows]
    failed = {c.name for c in checks.run_checks(wl, out) if not c.ok}
    assert failed == {f"mc_vs_closed_form/survey/opt-binary-lip/eps={target.epsilon:g}"}

    curve.rows = [r for r in curve.rows if r is not curve.rows[0]]
    failed = {c.name for c in checks.run_checks(wl, out) if not c.ok}
    assert "rows_complete/survey" in failed


def test_audit_checks_fire_on_a_raise_and_a_wrong_level():
    wl = workloads.make("mc-wide-domain", 3, smoke=True)
    records = wl._audit()
    assert all(c.ok for c in checks.audit_checks(records))
    records[0].lip *= 1.01
    records[1].lip, records[1].error = None, "sandwich violated"
    assert [c.ok for c in checks.audit_checks(records)][:3] == [False, False, True]


def test_cip_checks_fire_on_corrupted_results():
    out = workloads.make("cip-search", 3, smoke=True).invoke()
    inst, lower, res = out.instance, out.lower_bound, out.result
    assert all(c.ok for c in checks.cip_checks(inst, lower, res))

    def failed(result, lower_bound=lower):
        return {c.name for c in checks.cip_checks(inst, lower_bound, result) if not c.ok}

    identity = np.eye(inst.n_users + 1)  # publishes S exactly: outside the band
    assert "cip/posterior_means_in_band" in failed(
        cip.CipSearchResult(identity, res.mse, res.estimator_variance))
    skewed = res.mechanism.copy()
    skewed[0] *= 1.01
    assert "cip/row_stochastic" in failed(
        cip.CipSearchResult(skewed, res.mse, res.estimator_variance))
    assert "cip/lower_bound<=mse<=variance" in failed(res, lower_bound=res.mse + 1.0)
    assert "cip/lower_bound<=mse<=variance" in failed(
        cip.CipSearchResult(res.mechanism, inst.variance * 1.01, 0.0))
    assert "cip/no_worse_than_lip_seed" in failed(
        cip.CipSearchResult(res.mechanism, inst.variance * 0.99, 0.0))


def test_only_the_recorded_defect_is_known():
    assert checks.Check("closed_form_vs_dense/histogram/opt-binary-lip/eps=1", False, "").known_defect
    assert checks.Check("mc_vs_closed_form/histogram/opt-binary-ldp/eps=3", False, "").known_defect
    assert not checks.Check("closed_form_vs_dense/survey/opt-binary-lip/eps=1", False, "").known_defect
    assert not checks.Check("closed_form_vs_dense/histogram/opt-mimo-lip/eps=1", False, "").known_defect


def test_traced_counts_match_the_workload_shape():
    wl = workloads.make("mc-small-pop", 3, smoke=True)
    tracer = tracing.Tracer()
    tracer.invoke(wl.invoke)
    layers = tracer.per_invocation()[0]
    s = wl.spec
    runs = len(s.families) * len(s.eps_grid)
    assert layers["harness.truth_sample"]["calls"] == s.trials
    assert layers["harness.perturb"]["calls"] == s.trials * runs
    assert layers["harness.perturb"]["work"] == s.trials * runs * s.n
    assert layers["estimators.baseline"]["calls"] == s.trials * len(s.eps_grid)
    assert layers["harness.run_experiment"]["calls"] == 1
    assert tracer.absent == []
    total = sum(agg["self_s"] for agg in layers.values())
    root = layers[tracing.ROOT]
    assert root["calls"] == 1 and 0.0 <= root["self_s"] <= total


def test_a_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("lipagg.harness", "no_such_function", "harness.gone", None),))
    tracer = tracing.Tracer()
    tracer.invoke(lambda: None)
    assert tracer.absent == ["lipagg.harness.no_such_function"]


def test_calibrator_samples_during_the_invocation_and_restores_the_handler():
    def busy():
        end = time.perf_counter() + 3 * calibration.PERIOD_S
        while time.perf_counter() < end:
            pass
        return "done"

    before = signal.getsignal(signal.SIGALRM)
    cal = calibration.Calibrator()
    out, wall, norm = cal.measure(busy)
    assert out == "done"
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(cal.samples) >= 2 * calibration.BRACKET + 2
    assert 0.0 < wall < 3 * calibration.PERIOD_S and norm > 0.0
