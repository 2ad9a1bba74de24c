import json
import math
import warnings

import numpy as np
import pytest

import lipagg.cli as cli
from lipagg.errors import UnreachableOutputError


def run_cli(*argv):
    return cli.main(list(argv))


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


def test_audit_derived_channel(capsys):
    assert run_cli("audit", "--family", "opt-binary-ldp", "--eps", "2.0",
                   "--p1", "0.9", "--format", "json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["ldp_eps"] == pytest.approx(2.0, abs=1e-9)
    assert blob["lip_eps"] <= 2.0 + 1e-9


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


def test_curve_csv_schema(tmp_path):
    out = tmp_path / "curve.csv"
    assert run_cli("analyze", "curve", "--families", "opt-binary-lip,opt-binary-ldp",
                   "--task", "survey", "--eps-grid", "1:3:1",
                   "--n", "10", "--p1", "0.1", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "epsilon,family,metric,trials"
    assert len(lines) == 1 + 2 * 3
    assert all(line.endswith(",0") for line in lines[1:])


def test_simulate_roundtrip_and_overrides(tmp_path):
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


def test_ingest_missing_column_exit_2(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("a\n1\n")
    assert run_cli("ingest", "--input", str(data), "--mode", "binarize",
                   "--column", "clicks", "--threshold", "1") == 2


def test_cip_cli(capsys):
    assert run_cli("cip", "--n", "20", "--p1", "0.3", "--eps", "1.0",
                   "--format", "json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["band_lower"] == pytest.approx(20 * 0.3 * math.exp(-1.0), rel=1e-9)
    assert blob["mse_lower_bound"] <= blob["achieved_mse"] + 1e-9


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


def test_fixed_value_outside_prior_support_exit_3(tmp_path):
    pop = tmp_path / "pop.json"
    pop.write_text(json.dumps({"domain": [0.0, 1.0], "labels": [], "users": [
        {"id": f"u{i}", "value": 1.0, "prior": [1.0, 0.0]} for i in range(10)]}))
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


def test_infinite_budget_exit_2():
    assert run_cli("mechanism", "derive", "--family", "opt-binary-ldp", "--eps", "inf") == 2
    assert run_cli("analyze", "curve", "--families", "opt-binary-lip", "--p1", "0.3",
                   "--eps-grid", "1,inf") == 2
    assert run_cli("analyze", "curve", "--families", "opt-binary-lip", "--p1", "0.3",
                   "--eps-grid", "0:inf:1") == 2


def test_curve_family_task_mismatch_exit_2(capsys):
    assert run_cli("analyze", "curve", "--families", "symmetric-rr", "--task", "summation",
                   "--p1", "0.3", "--eps-grid", "1") == 2
    assert "symmetric-rr" in capsys.readouterr().err
