import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lipagg.cli as cli
from lipagg.core import Domain, WeightedSum
from lipagg.errors import UnreachableOutputError, ValidationError


def run_cli(*argv):
    return cli.main(list(argv))


def assert_rejected(capsys, flag, *argv):
    """``argv`` exits 2 with a single error line that names ``flag``, and
    writes no ``--out`` file."""
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err, err
    if "--out" in argv:
        assert not Path(argv[argv.index("--out") + 1]).exists()


def test_mechanism_derive_csv(tmp_path, capsys):
    out = tmp_path / "ch.csv"
    assert run_cli("mechanism", "derive", "--family", "opt-binary-lip",
                   "--p1", "0.3", "--eps", "1.0", "--out", str(out)) == 0
    m = np.loadtxt(out, delimiter=",")
    assert m[0, 1] == pytest.approx(0.3 / math.e, rel=1e-12)
    assert m[1, 0] == pytest.approx(0.7 / math.e, rel=1e-12)


def test_mechanism_derive_json(capsys):
    assert run_cli("mechanism", "derive", "--family", "opt-mimo-ldp",
                   "--d", "3", "--eps", "1.0", "--format", "json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["matrix"][0][0] == pytest.approx(math.e / (math.e + 2), rel=1e-12)
    # a flag the family does not read, or one it needs, is named
    assert_rejected(capsys, "--p1", "mechanism", "derive", "--family", "opt-binary-ldp",
                    "--eps", "1", "--p1", "0.3", "--d", "7")
    assert_rejected(capsys, "--d", "mechanism", "derive", "--family", "opt-mimo-ldp",
                    "--eps", "1")


def test_audit_derived_channel(capsys):
    assert run_cli("audit", "--family", "opt-binary-ldp", "--eps", "2.0",
                   "--p1", "0.9", "--format", "json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["ldp_eps"] == pytest.approx(2.0, abs=1e-9)
    assert blob["lip_eps"] <= 2.0 + 1e-9
    # opt-mimo-ldp takes its width from the prior
    assert run_cli("audit", "--family", "opt-mimo-ldp", "--eps", "1",
                   "--prior", "0.2,0.3,0.5", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["ldp_eps"] == pytest.approx(1.0, abs=1e-9)
    assert_rejected(capsys, "--eps", "audit", "--family", "opt-binary-ldp", "--p1", "0.3")
    # the prior a context-aware family reads is the one it is audited against
    assert_rejected(capsys, "--p1", "audit", "--family", "opt-binary-lip", "--eps", "1",
                    "--p1", "0.3", "--prior", "0.5,0.5")
    with pytest.raises(SystemExit):
        run_cli("audit", "--family", "opt-mimo-ldp", "--eps", "1", "--p1", "0.3", "--d", "3")


def test_audit_channel_file(tmp_path, capsys):
    ch = tmp_path / "ch.csv"
    assert run_cli("mechanism", "derive", "--family", "opt-binary-lip",
                   "--p1", "0.4", "--eps", "1.0", "--out", str(ch)) == 0
    assert run_cli("audit", "--channel-file", str(ch), "--prior", "0.6,0.4",
                   "--format", "json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["lip_eps"] == pytest.approx(1.0, abs=1e-9)


def test_audit_bad_channel_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5,0.4\n0.3,0.7\n")
    assert run_cli("audit", "--channel-file", str(bad), "--prior", "0.5,0.5") == 2
    good = tmp_path / "good.csv"
    good.write_text("0.5,0.5\n0.3,0.7\n")
    assert_rejected(capsys, "--channel-file", "audit", "--channel-file", str(good),
                    "--prior", "0.5,0.5", "--family", "opt-mimo-lip", "--eps", "7")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_rejected(capsys, str(empty), "audit", "--channel-file", str(empty),
                        "--prior", "0.5,0.5")
    assert not caught


def test_curve_csv_schema(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert run_cli("analyze", "curve", "--families", "opt-binary-lip,opt-binary-ldp",
                   "--task", "survey", "--eps-grid", "1:3:1",
                   "--n", "10", "--p1", "0.1", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "epsilon,family,metric,trials"
    assert len(lines) == 1 + 2 * 3
    assert all(line.endswith(",0") for line in lines[1:])
    # a family or a budget given twice would print its rows twice
    bad = tmp_path / "bad.csv"
    for flag, families, grid in (("families", "opt-binary-lip, opt-binary-lip", "1"),
                                 ("eps_grid", "opt-binary-lip", "1,1.0")):
        assert_rejected(capsys, flag, "analyze", "curve", "--families", families,
                        "--eps-grid", grid, "--p1", "0.3", "--out", str(bad))


def test_simulate_roundtrip_and_overrides(tmp_path, capsys):
    cfg = {
        "task": {"kind": "survey", "target": 1.0},
        "families": ["opt-binary-lip"],
        "eps_grid": [1.0],
        "trials": 50,
        "seed": 3,
        "population": {"n": 20, "prior_mode": "global", "p1": 0.2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "epsilon,family,metric,trials"
    trials_col = {line.split(",")[3] for line in lines[1:]}
    assert trials_col == {"0", "50"}
    # flag overrides config
    out2 = tmp_path / "sim2.csv"
    assert run_cli("simulate", "--config", str(cfg_path), "--trials", "25",
                   "--out", str(out2)) == 0
    assert {line.split(",")[3] for line in out2.read_text().strip().split("\n")[1:]} \
        == {"0", "25"}
    for grid in ("1,,2", "1:x:1"):
        assert_rejected(capsys, "--eps-grid", "simulate", "--config", str(cfg_path),
                        "--eps-grid", grid, "--out", str(tmp_path / "bad.csv"))


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = {
        "task": {"kind": "survey"},
        "families": ["opt-binary-lip", "symmetric-rr"],
        "eps_grid": "1:2:0.5",
        "trials": 100,
        "seed": 11,
        "population": {"n": 30, "prior_mode": "local-uniform"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(a)) == 0
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ingest_then_simulate(tmp_path, capsys):
    data = tmp_path / "clicks.csv"
    data.write_text("clicks\n" + "\n".join(["20000"] * 3 + ["10"] * 7) + "\n")
    pop = tmp_path / "pop.json"
    assert run_cli("ingest", "--input", str(data), "--mode", "binarize",
                   "--column", "clicks", "--threshold", "15000",
                   "--out", str(pop)) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_users"] == 10
    cfg = {
        "task": {"kind": "survey"},
        "families": ["opt-binary-lip"],
        "eps_grid": [2.0],
        "trials": 40,
        "seed": 1,
        "population": {"file": str(pop)},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "real.csv"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2  # fixed-value runs emit no closed-form rows
    assert lines[1].endswith(",40")


def test_ingest_grid_cli(tmp_path, capsys):
    data = tmp_path / "points.csv"
    data.write_text("lat,lon\n0.1,0.1\n0.9,0.9\n")
    assert run_cli("ingest", "--input", str(data), "--mode", "grid",
                   "--lat-col", "lat", "--lon-col", "lon",
                   "--grid-rows", "2", "--grid-cols", "2",
                   "--bbox", "0,1,0,1") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["domain_size"] == 4
    assert_rejected(capsys, "--bbox", "ingest", "--input", str(data), "--mode", "grid",
                    "--lat-col", "lat", "--lon-col", "lon", "--grid-rows", "2",
                    "--grid-cols", "2", "--bbox", "1,x,2,3", "--out", str(tmp_path / "p.json"))


def test_ingest_missing_column_exit_2(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("a\n1\n")
    assert run_cli("ingest", "--input", str(data), "--mode", "binarize",
                   "--column", "clicks", "--threshold", "1") == 2
    # flags the mode does not read
    clicks = Path(__file__).resolve().parent / "fixtures" / "clickstream.csv"
    assert_rejected(capsys, "grid_rows", "ingest", "--input", str(clicks), "--mode", "binarize",
                    "--column", "clicks", "--threshold", "1000", "--user-col", "website",
                    "--grid-rows", "3", "--bbox", "1,2,3")


def test_cip_cli(capsys):
    assert run_cli("cip", "--n", "20", "--p1", "0.3", "--eps", "1.0",
                   "--format", "json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert sorted(blob) == ["achieved_mse", "atoms", "band_lower", "band_upper", "bound_gap",
                            "mse_lower_bound", "sqrt_avg_mse"]
    assert blob["band_lower"] == pytest.approx(20 * 0.3 * math.exp(-1.0), rel=1e-9)
    assert blob["mse_lower_bound"] <= blob["achieved_mse"] + 1e-9
    assert blob["atoms"] == 14
    assert blob["bound_gap"] == blob["achieved_mse"] - blob["mse_lower_bound"]
    # the optimum needs no output alphabet and no seed
    for flag in ("--output-size", "--seed"):
        with pytest.raises(SystemExit):
            run_cli("cip", "--n", "10", "--p1", "0.3", "--eps", "1", flag, "3")


def test_cip_cli_csv_bytes(capsys):
    # the CSV contract: five rows, no diagnostics
    assert run_cli("cip", "--n", "20", "--p1", "0.3", "--eps", "1") == 0
    assert capsys.readouterr().out == (
        "band_lower,2.207276647028654\n"
        "band_upper,14.849687823599808\n"
        "mse_lower_bound,0.0\n"
        "achieved_mse,0.02759033871611862\n"
        "sqrt_avg_mse,0.03714184884743799\n")


def test_cip_cli_reports_a_vacuous_bound(capsys):
    # at N=50, p1=0.3, eps=1 the certified bound is 0: the gap is the whole
    # achieved error, and the output says so
    assert run_cli("cip", "--n", "50", "--p1", "0.3", "--eps", "1",
                   "--format", "json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["mse_lower_bound"] == 0.0
    assert blob["bound_gap"] > 0.0


def test_missing_config_exit_2(tmp_path):
    assert run_cli("simulate", "--config", str(tmp_path / "nope.json")) == 2


def test_infeasible_maps_to_exit_3(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"kind": "survey"},
        "families": ["opt-binary-lip"],
        "eps_grid": [1.0],
        "trials": 5,
        "seed": 1,
        "population": {"n": 5, "prior_mode": "global", "p1": 0.5},
    }))

    def boom(config):
        raise UnreachableOutputError("observation impossible under the channel")
    monkeypatch.setattr(cli, "run_experiment", boom)
    assert run_cli("simulate", "--config", str(cfg_path)) == 3


def _write_population(path, prior=(0.5, 0.5)):
    path.write_text(json.dumps({"domain": [0.0, 1.0], "labels": [], "users": [
        {"id": f"u{i}", "value": 1.0, "prior": list(prior)} for i in range(10)]}))


def test_fixed_value_outside_prior_support_exit_3(tmp_path):
    pop = tmp_path / "pop.json"
    _write_population(pop, prior=(1.0, 0.0))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"kind": "survey"}, "families": ["opt-mimo-lip"], "eps_grid": [2.0],
        "trials": 5, "seed": 1, "population": {"file": str(pop)}}))
    assert run_cli("simulate", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out.csv")) == 3


def test_huge_budget_derive_writes_nothing_to_stderr(capsys):
    # pytest would divert a warning from stderr, so record it instead
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("mechanism", "derive", "--family", "opt-binary-ldp",
                       "--eps", "800") == 0
    assert not caught
    captured = capsys.readouterr()
    assert captured.err == ""
    assert np.array_equal(np.loadtxt(captured.out.splitlines(), delimiter=","), np.eye(2))


def test_eps_grid_parsing():
    assert cli.parse_eps_grid("0.5:5:0.5") == pytest.approx(list(np.arange(0.5, 5.01, 0.5)))
    assert cli.parse_eps_grid("1,2,3") == [1.0, 2.0, 3.0]
    assert cli.parse_eps_grid([1, 2]) == [1.0, 2.0]
    assert cli.parse_eps_grid("0.1:1.0:0.1") == [
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    # the grid never passes its stop
    assert cli.parse_eps_grid("1:5:1") == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert cli.parse_eps_grid("0:1:0.35") == [0.0, 0.35, 0.7]
    assert cli.parse_eps_grid("0:2:0.75") == [0.0, 0.75, 1.5]
    assert cli.parse_eps_grid("1:1.06:0.1") == [1.0]
    assert cli.parse_eps_grid("1:0.5:1") == []
    assert run_cli("analyze", "curve", "--families", "opt-binary-lip", "--p1", "0.3",
                   "--eps-grid", "1:0.5:1") == 2
    for bad in ("1,,2", "1,2,", "", "0.5,x", "1:x:1", "1:2"):
        with pytest.raises(ValidationError, match="--eps-grid"):
            cli.parse_eps_grid(bad)


def test_infinite_budget_exit_2(tmp_path, capsys):
    assert run_cli("mechanism", "derive", "--family", "opt-binary-ldp", "--eps", "inf") == 2
    assert run_cli("analyze", "curve", "--families", "opt-binary-lip", "--p1", "0.3",
                   "--eps-grid", "1,inf") == 2
    assert run_cli("analyze", "curve", "--families", "opt-binary-lip", "--p1", "0.3",
                   "--eps-grid", "0:inf:1") == 2
    # an empty or non-numeric grid entry is named, not skipped
    for grid in ("1,,2", "1:x:1"):
        assert_rejected(capsys, "--eps-grid", "analyze", "curve", "--families",
                        "opt-binary-lip", "--p1", "0.3", "--eps-grid", grid,
                        "--out", str(tmp_path / "curve.csv"))


def test_nan_channel_file_exit_2(tmp_path, capsys):
    # a NaN entry once passed validation and was audited
    ch = tmp_path / "nan.csv"
    ch.write_text("0.5,0.5\nnan,0.5\n")
    assert run_cli("audit", "--prior", "0.5,0.5", "--channel-file", str(ch)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "channel entry [1][0] = nan outside [0, 1]" in captured.err


def test_nan_prior_exit_2(tmp_path, capsys):
    assert run_cli("mechanism", "derive", "--family", "opt-mimo-lip", "--eps", "1",
                   "--prior", "nan,0.5,0.5") == 2
    assert run_cli("audit", "--family", "opt-binary-ldp", "--eps", "1",
                   "--prior", "nan,1") == 2
    assert run_cli("analyze", "curve", "--families", "opt-mimo-lip", "--task", "summation",
                   "--eps-grid", "1", "--prior", "nan,0.5,0.5", "--d", "3", "--n", "5") == 2
    assert "prior entries must lie in [0, 1]" in capsys.readouterr().err
    out = str(tmp_path / "out.csv")
    assert_rejected(capsys, "--prior", "mechanism", "derive", "--family", "opt-mimo-lip",
                    "--eps", "1", "--prior", "0.5,,0.5", "--out", out)
    assert_rejected(capsys, "--prior", "audit", "--family", "opt-mimo-lip", "--eps", "1",
                    "--prior", "0.5,,0.5", "--out", out)
    assert_rejected(capsys, "--prior", "analyze", "curve", "--families", "opt-mimo-lip",
                    "--eps-grid", "1", "--prior", "0.5,x", "--out", out)


_NON_FINITE_POPULATION = json.dumps({"domain": [0.0, math.inf], "labels": [], "users": [
    {"id": f"u{i}", "value": 0.0, "prior": [0.5, 0.5]} for i in range(4)]})


@pytest.mark.parametrize("case", [
    {"task": {"kind": "weighted-sum", "coefficients": [math.nan, 1, 1]}},
    {"population": {"n": 3, "prior_mode": "local-uniform", "values": [0, math.inf]}},
    {"population": {"file": "pop.json"}},
    ["analyze", "curve", "--families", "opt-binary-lip", "--task", "summation",
     "--eps-grid", "1", "--population", "pop.json"],
    lambda: Domain([0.0, math.inf]),
    lambda: Domain([0.0, math.nan]),
    lambda: WeightedSum([math.nan], [0.0]),
    lambda: WeightedSum([1.0], [math.inf]),
], ids=["nan-coefficient", "inf-domain-value", "inf-in-population-file",
        "inf-in-population-file-curve", "domain-inf", "domain-nan", "weighted-sum-nan",
        "weighted-sum-inf-offset"])
def test_a_non_finite_domain_value_or_weight_is_rejected(tmp_path, monkeypatch, capsys, case):
    """JSON reads NaN and Infinity, and no sum over the users would reject
    them: a domain value, coefficient or offset that is not finite raises
    ``ValueError``, and the CLI exits 2 with one error line and no rows."""
    if callable(case):
        with pytest.raises(ValueError, match="must be finite"):
            case()
        return
    (tmp_path / "pop.json").write_text(_NON_FINITE_POPULATION)
    monkeypatch.chdir(tmp_path)
    argv = case
    if isinstance(case, dict):
        cfg = {"task": {"kind": "summation"}, "families": ["opt-mimo-lip"], "eps_grid": [1.0],
               "trials": 3, "seed": 1, "population": {"n": 3, "prior_mode": "local-uniform"}}
        (tmp_path / "cfg.json").write_text(json.dumps({**cfg, **case}))
        argv = ["simulate", "--config", "cfg.json"]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "must be finite" in captured.err


def test_curve_family_task_mismatch_exit_2(capsys):
    assert run_cli("analyze", "curve", "--families", "symmetric-rr", "--task", "summation",
                   "--p1", "0.3", "--eps-grid", "1") == 2
    assert "symmetric-rr" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--prior", "0.1,0.2,0.7", "--prior-mode", "local-uniform"],
    ["--p1", "0.3", "--d", "5"],
    ["--p1", "0.3", "--prior-mode", "local-uniform"],
    ["--p1", "0.3", "--prior", "0.7,0.3"],
    ["--p1", "0.3", "--task", "summation", "--target", "1"],
    ["--population", "pop.json", "--n", "5"],
], ids=["prior-under-local-uniform", "p1-with-d", "p1-under-local-uniform",
        "p1-with-prior", "target-on-summation", "population-file-with-n"])
def test_curve_rejects_flags_it_would_ignore(tmp_path, monkeypatch, capsys, flags):
    _write_population(tmp_path / "pop.json")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "curve.csv"
    assert run_cli("analyze", "curve", "--families", "opt-binary-ldp", "--eps-grid", "1",
                   "--out", str(out), *flags) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("change", [
    {"families": []},
    {"eps_grid": []},
    {"families": ["opt-binary-lip", "opt-binary-lip"]},
    {"eps_grid": [1.0, 1.0]},
    {"eps_grid": "1,,2"},
    {"trials": True},
    {"trials": 2.7},
    {"seed": 2.5},
    {"population": {"n": 5.5, "prior_mode": "local-uniform"}},
    {"population": {"n": 5, "prior_mode": "local-uniform", "d": 3.7}},
    {"trails": 5},
    {"population": {"n": 5, "prior_mode": "local-uniform", "p1": 0.3}},
    {"task": {"kind": "summation", "target": 1.0}},
    {"population": {"prior_mode": "local-uniform"}},
    [4],
    {"population": [4]},
    {"task": "survey"},
    {"population": {"n": 5, "p1": "x"}},
    {"families": 5},
    {"population": {"n": 5, "p1": 0.3, "p_vector": [0.7, 0.3]}},
    {"population": {"n": 5, "prior_mode": "local-uniform", "d": 2, "values": [0, 1]}},
    {"population": {"file": "pop.json", "n": 5}},
    {"task": {"kind": "weighted-sum", "coefficients": {"a": 1}}},
    {"format": "xml"},
], ids=["empty-families", "empty-eps-grid", "repeated-family", "repeated-eps", "empty-eps-entry",
        "bool-trials", "fractional-trials", "fractional-seed", "fractional-n",
        "fractional-d", "unknown-key", "p1-under-local-uniform", "target-on-summation",
        "population-without-n", "config-not-an-object", "population-not-an-object",
        "task-not-an-object", "string-p1", "number-families", "p1-with-p-vector",
        "d-with-values", "population-file-with-n", "object-coefficients", "unknown-format"])
def test_simulate_rejects_configs_that_would_run_empty_or_truncated(tmp_path, monkeypatch,
                                                                   capsys, change):
    _write_population(tmp_path / "pop.json")
    monkeypatch.chdir(tmp_path)
    cfg = {"task": {"kind": "survey"}, "families": ["opt-binary-lip"], "eps_grid": [1.0],
           "trials": 5, "seed": 1,
           "population": {"n": 5, "prior_mode": "local-uniform"}}
    cfg = change if isinstance(change, list) else {**cfg, **change}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_json_rows_carry_standard_errors(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"kind": "survey"}, "families": ["opt-binary-lip"], "eps_grid": [1.0],
        "trials": 20, "seed": 1, "format": "json",
        "population": {"n": 5, "prior_mode": "global", "p1": 0.3}}))
    assert run_cli("simulate", "--config", str(cfg_path)) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["metadata"]["stream_layout"] == 3
    assert {r["trials"]: r["mse_stderr"] > 0.0 for r in blob["rows"]} == {0: False, 20: True}


def _run_python(*args):
    """Run a fresh interpreter that imports this checkout's lipagg."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def test_python_dash_m_runs_the_cli():
    done = _run_python("-m", "lipagg", "--help")
    assert done.returncode == 0, done.stderr
    assert "simulate" in done.stdout


def test_cli_commands_load_no_scipy(tmp_path):
    """``mechanism derive``, ``audit``, ``analyze curve`` and ``simulate``
    run without scipy; only ``cip`` and the oracles load it, on first use."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": {"kind": "histogram"}, "families": ["opt-mimo-lip", "opt-mimo-ldp", "oue"],
        "eps_grid": [0.5, 2.0], "trials": 20, "seed": 1,
        "population": {"n": 10, "prior_mode": "local-uniform", "d": 3}}))
    script = f"""
import sys
import lipagg, lipagg.cli as cli
for argv in (["mechanism", "derive", "--family", "opt-mimo-lip", "--prior", "0.2,0.8", "--eps", "1"],
             ["audit", "--family", "opt-binary-ldp", "--eps", "2", "--p1", "0.9"],
             ["analyze", "curve", "--families", "opt-binary-lip,symmetric-rr",
              "--eps-grid", "1,2", "--n", "20", "--p1", "0.3"],
             ["simulate", "--config", {str(cfg)!r}]):
    assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    done = _run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_cip_cli_loads_no_scipy_stats():
    """``cip`` takes its binomial prior from ``scipy.special`` alone."""
    script = """
import sys
import lipagg.cli as cli
assert cli.main(["cip", "--n", "20", "--p1", "0.3", "--eps", "1"]) == 0
print(sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.optimize"))))
"""
    done = _run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_readme_experiment_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Experiment config", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(block)
    out = tmp_path / "out.csv"
    assert run_cli("simulate", "--config", str(cfg_path), "--trials", "5",
                   "--out", str(out)) == 0
    assert out.read_text().startswith("epsilon,family,metric,trials\n")


# Random JSON values, or values each key could take, under the config's own
# keys and under junk keys; the output path is always the --out flag, which
# overrides any "out" key.
_LIKELY = st.sampled_from([
    1, 2, 3, 5, 0.3, 1.0, [0.5, 0.5], [0.2, 0.3, 0.5], [0, 1], [1.0, 2.0, 3.0], [1, 1, 1, 1],
    "summation", "histogram", "weighted-sum", "local-uniform", "json", "0.5:2:0.5",
    ["oue"], ["opt-mimo-lip", "opt-mimo-ldp"], ["symmetric-rr"], ["opt-binary-ldp"]])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.text(max_size=6)
    | st.floats(-2.0, 5.0) | st.sampled_from(["survey", "histogram", "weighted-sum",
                                               "local-uniform", "global", "oue", "1:3:1"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["kind", "n", "p1", "d", "file", "junk"]), inner, max_size=3),
    max_leaves=6)
_KEYS = {None: ["task", "families", "eps_grid", "trials", "seed", "population", "format",
                "trails"],
         "population": ["n", "prior_mode", "p1", "p_vector", "d", "values", "file", "pi"],
         "task": ["kind", "target", "coefficients", "offsets", "targets"]}
_EDITS = st.lists(st.sampled_from([(block, key) for block, keys in _KEYS.items()
                                   for key in keys]).flatmap(
    lambda where: st.tuples(st.just(where), _LIKELY | _JSON)), max_size=4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edits=_EDITS)
def test_simulate_maps_any_json_config_to_an_exit_code(tmp_path_factory, edits):
    cfg = {"task": {"kind": "survey"}, "families": ["opt-binary-lip", "opt-mimo-ldp"],
           "eps_grid": [1.0], "trials": 3, "seed": 1,
           "population": {"n": 4, "prior_mode": "global", "p1": 0.3}}
    for (block, key), value in edits:
        target = cfg if block is None else cfg.get(block)
        if isinstance(target, dict):
            target[key] = value
    work = tmp_path_factory.mktemp("cfg")
    (work / "cfg.json").write_text(json.dumps(cfg))
    here = os.getcwd()
    os.chdir(work)  # a random "file" string resolves inside this empty directory
    try:
        code = run_cli("simulate", "--config", "cfg.json", "--out", "out.csv")
    finally:
        os.chdir(here)
    assert code in (0, 2, 3)
    assert (work / "out.csv").exists() == (code == 0)


# Values each derive/audit flag could take, good and bad; channel files are
# named inside the test's own directory.
_FLAG_VALUES = {"--eps": ["1", "2.5", "0", "-1", "inf"],
                "--p1": ["0.3", "0", "1.5"],
                "--prior": ["0.5,0.5", "0.2,0.3,0.5", "1", "x,1"],
                "--d": ["2", "3", "1"],
                "--channel-file": ["binary.csv", "ternary.csv", "empty.csv", "bad.csv",
                                   "missing.csv"]}
_CHANNEL_FILES = {"binary.csv": "0.75,0.25\n0.25,0.75\n", "empty.csv": "",
                  "ternary.csv": "0.5,0.25,0.25\n0.25,0.5,0.25\n0.25,0.25,0.5\n",
                  "bad.csv": "0.5,0.4\n0.3,0.7\n"}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(family=st.sampled_from(["opt-binary-lip", "opt-binary-ldp", "opt-mimo-lip",
                               "opt-mimo-ldp", "symmetric-rr", "oue"]),
       audit_family=st.booleans(),
       flags=st.fixed_dictionaries({}, optional={
           flag: st.sampled_from(values) for flag, values in _FLAG_VALUES.items()}))
def test_derive_and_audit_map_any_flags_to_an_exit_code(tmp_path_factory, family,
                                                        audit_family, flags):
    work = tmp_path_factory.mktemp("flags")
    for name, text in _CHANNEL_FILES.items():
        (work / name).write_text(text)
    if "--channel-file" in flags:
        flags["--channel-file"] = str(work / flags["--channel-file"])
    commands = {"audit": (["audit"] + ["--family", family] * audit_family,
                          {"--eps", "--p1", "--prior", "--channel-file"}),
                "derive": (["mechanism", "derive", "--family", family],
                           {"--eps", "--p1", "--prior", "--d"})}
    for name, (argv, takes) in commands.items():
        out = work / f"{name}.out"
        argv = argv + [x for flag in sorted(takes & set(flags)) for x in (flag, flags[flag])]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
            warnings.simplefilter("always")
            code = run_cli(*argv, "--out", str(out))
        assert code in (0, 2, 3), argv
        assert not caught, argv
        # a failure is one line on stderr and writes nothing
        assert out.exists() == (code == 0), argv
        assert err.getvalue().count("\n") == (code != 0), argv


def test_readme_library_quick_start_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["report"].lip_eps == pytest.approx(1.0, abs=1e-12)
    assert names["y"] in (0.0, 1.0)


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```bash\n(.*?)```", readme.split("## CLI", 1)[1], re.S).group(1)
    config = re.search(r"```json\n(.*?)```", readme.split("### Experiment config", 1)[1],
                       re.S).group(1)
    (tmp_path / "experiment.json").write_text(config)
    fixtures = root / "tests" / "fixtures"
    swap = {"clicks.csv": str(fixtures / "clickstream.csv"),
            "checkins.csv": str(fixtures / "checkins.csv")}
    monkeypatch.chdir(tmp_path)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("lipagg ")]
    assert len(lines) >= 8
    for line in lines:
        argv = [swap.get(word, word) for word in shlex.split(line)[1:]]
        if "--trials" in argv:
            argv[argv.index("--trials") + 1] = "5"
        assert run_cli(*argv) == 0, line


# Three flag sets that run, edited by setting a flag to a value it could take,
# good or bad (list junk included), or by dropping an optional flag; the
# population files are named inside the test's own directory.
_CURVE_BASES = [
    {"--families": "opt-binary-lip,opt-binary-ldp", "--eps-grid": "0.5:2:0.5", "--p1": "0.3"},
    {"--families": "opt-mimo-lip,opt-mimo-ldp,oue", "--eps-grid": "1,2", "--task": "histogram",
     "--prior-mode": "local-uniform", "--d": "4", "--n": "4"},
    {"--families": "opt-binary-lip", "--eps-grid": "1", "--population": "pop.json"},
]
_CURVE_VALUES = {
    "--families": ["opt-binary-lip", "opt-binary-lip,opt-binary-ldp,symmetric-rr",
                   "opt-mimo-lip,opt-mimo-ldp,oue", "oue", "a,a", "opt-binary-lip,opt-binary-lip",
                   "opt-binary-lip,,opt-binary-ldp", ""],
    "--eps-grid": ["1", "0.5:2:0.5", "0,1", "1,,2", "a,a", "0.5,x", "1:2", "1,1", "1:x:1",
                   "2:1:1", "-1", "inf", ""],
    "--task": ["survey", "summation", "weighted-sum", "histogram"],
    "--target": ["1", "0", "2"],
    "--n": ["1", "4", "0"],
    "--p1": ["0.3", "0", "1.5"],
    "--prior": ["0.5,0.5", "0.2,0.3,0.5", "0.5,x", "1,,2", "1", "a,a"],
    "--prior-mode": ["global", "local-uniform"],
    "--d": ["2", "3", "1"],
    "--seed": ["0", "3"],
    "--population": ["pop.json", "missing.json"],
    "--format": ["csv", "json"],
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(base=st.sampled_from(_CURVE_BASES), edits=st.lists(st.sampled_from(sorted(
    _CURVE_VALUES)).flatmap(lambda flag: st.tuples(st.just(flag), st.sampled_from(
        _CURVE_VALUES[flag] + [None] * (flag not in ("--families", "--eps-grid"))))),
    max_size=3))
def test_curve_maps_any_flags_to_an_exit_code(tmp_path_factory, base, edits):
    flags = dict(base)
    for flag, value in edits:
        flags[flag] = value
    flags = {flag: value for flag, value in flags.items() if value is not None}
    work = tmp_path_factory.mktemp("curve")
    _write_population(work / "pop.json")
    if "--population" in flags:
        flags["--population"] = str(work / flags["--population"])
    out = work / "curve.out"
    argv = ["analyze", "curve", *[x for item in sorted(flags.items()) for x in item]]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
        warnings.simplefilter("always")
        code = run_cli(*argv, "--out", str(out))
    assert code in (0, 2, 3), argv
    assert not caught, argv
    assert out.exists() == (code == 0), argv
    assert err.getvalue().count("\n") == (code != 0), argv
    if code == 2:
        assert err.getvalue().startswith("error: "), argv
    if code == 0:
        text = out.read_text()
        if flags.get("--format") == "json":
            pairs = [(r["family"], r["epsilon"]) for r in json.loads(text)["rows"]]
        else:
            lines = text.splitlines()
            assert lines[0] == "epsilon,family,metric,trials", argv
            pairs = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert pairs and len(set(pairs)) == len(pairs), argv


_SIX_TAGS = "opt-binary-lip, opt-binary-ldp, opt-mimo-lip, opt-mimo-ldp, symmetric-rr, oue"
_CONFIG = {"families": ["opt-binary-lip"], "eps_grid": [1.0], "trials": 5,
           "population": {"n": 5, "prior_mode": "local-uniform"}}


@pytest.mark.parametrize("files, argv, says", [
    ({"pop.json": "[1, 2]"}, "analyze curve --families opt-binary-lip --eps-grid 1"
     " --population pop.json", "is not a population file"),
    ({"pop.json": json.dumps({"domain": [0.0, 1.0], "users": [1, 2]})},
     "analyze curve --families opt-binary-lip --eps-grid 1 --population pop.json",
     "is not a population file"),
    ({"cfg.json": json.dumps({**_CONFIG, "population": {"file": 3}})},
     "simulate --config cfg.json", "population file must be a path"),
    ({"cfg.json": json.dumps({**_CONFIG, "out": 3})}, "simulate --config cfg.json",
     "out must be a path"),
    ({"one.csv": "city\nrome\nrome\n"}, "ingest --input one.csv --mode categorical"
     " --column city", "fewer than 2 categories"),
    ({}, "mechanism derive --family bogus --eps 1", _SIX_TAGS),
    ({"cfg.json": json.dumps({**_CONFIG, "families": ["bogus"]})},
     "simulate --config cfg.json", _SIX_TAGS),
    ({}, "analyze curve --families bogus --eps-grid 1 --p1 0.3", _SIX_TAGS),
], ids=["population-list", "users-not-objects", "population-file-number", "out-number",
        "one-category", "derive-family", "simulate-family", "curve-family"])
def test_malformed_files_and_family_tags_exit_2(tmp_path, monkeypatch, capsys, files, argv,
                                                says):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run_cli(*shlex.split(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
