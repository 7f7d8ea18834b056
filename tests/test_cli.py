"""End-to-end runs of the command line driver in a subprocess."""

import json
import math
import os
import subprocess
import sys

import pytest

PHI = (1 + math.sqrt(5)) / 2


def run_cli(*argv, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "thermoform", *argv],
        capture_output=True, text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


ENVELOPE_KEYS = {"command", "version", "seed", "config", "results", "diagnostics"}


def test_pressure_report_envelope(tmp_path):
    cfg = write_config(tmp_path, {
        "n_letters": 5,
        "psi": {"type": "constant", "value": 0.0},
        "n_max": 6,
    })
    out = json.loads(run_cli("pressure", "--config", cfg).stdout)
    assert set(out) == ENVELOPE_KEYS | {"wall_time_s"}
    assert out["command"] == "pressure"
    assert out["results"]["pressure"] == pytest.approx(math.log(5), abs=1e-12)
    assert out["results"]["memory"] == 1
    # defaults get resolved into the echoed config
    assert out["config"]["state_cap"] == 200_000
    assert "summability" in out["diagnostics"]


def test_stable_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {
        "n_letters": 2,
        "incidence": "golden",
        "psi": {"type": "constant", "value": 0.0},
        "cylinders": [[0], [1], [0, 1]],
        "audit": {"n_lo": 1, "n_hi": 4, "sample_size": 64},
    })
    a = run_cli("gibbs", "--config", cfg, "--stable").stdout
    b = run_cli("gibbs", "--config", cfg, "--stable").stdout
    assert a == b
    assert "wall_time_s" not in json.loads(a)


def test_beta_inline_is_bare_analysis():
    out = json.loads(run_cli("beta", "analyze", "--beta", "1.8").stdout)
    assert "command" not in out
    assert out["beta"] == 1.8
    assert out["identity_check"] < 1e-9


def test_beta_config_gets_envelope(tmp_path):
    cfg = write_config(tmp_path, {"beta": PHI, "depth": 24,
                                  "identity_samples": 200,
                                  "partition_cells": 6})
    out = json.loads(run_cli("beta", "--config", cfg).stdout)
    assert out["command"] == "beta"
    assert out["results"]["finite"] is True
    assert out["results"]["digits_of_one"] == [1, 1]


def test_output_file(tmp_path):
    cfg = write_config(tmp_path, {"beta": 2.0, "depth": 8})
    dest = tmp_path / "report.json"
    proc = run_cli("beta", "--config", cfg, "-o", str(dest))
    assert proc.stdout == ""
    assert json.loads(dest.read_text())["command"] == "beta"


def test_emit_cloud_csv_1d(tmp_path):
    cfg = write_config(tmp_path, {
        "gauss": {"n_steps": 5000, "n_orbits": 2, "cloud_points": 2000},
    })
    csv = tmp_path / "cloud.csv"
    out = json.loads(run_cli("dimension", "--config", cfg,
                             "--emit-cloud", str(csv)).stdout)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x"
    assert len(lines) == 2001
    assert out["diagnostics"]["cloud_csv"]["points"] == 2000


def test_emit_cloud_csv_2d(tmp_path):
    cfg = write_config(tmp_path, {
        "beta": PHI,
        "incidence": "golden",
        "global": {"M": 4000},
    })
    csv = tmp_path / "cloud2.csv"
    run_cli("dimension", "--config", cfg, "--emit-cloud", str(csv))
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 4001
    assert all(len(row.split(",")) == 2 for row in lines[1:4])


def test_dimension_temperature_task(tmp_path):
    cfg = write_config(tmp_path, {
        "temperature": {
            "system": {"builtin": "affine",
                       "branches": [[1 / 3, 0.0], [1 / 3, 2 / 3]]},
        },
    })
    out = json.loads(run_cli("dimension", "--config", cfg).stdout)
    t = out["results"]["temperature"]["t"]
    assert t == pytest.approx(math.log(2) / math.log(3), abs=1e-10)


def test_bad_json_exits_3(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("pressure", "--config", str(path), check=False)
    assert proc.returncode == 3
    assert "config error" in proc.stderr


def test_missing_config_exits_3(tmp_path):
    proc = run_cli("gibbs", "--config", str(tmp_path / "nope.json"),
                   check=False)
    assert proc.returncode == 3


def test_schema_violation_exits_3(tmp_path):
    cfg = write_config(tmp_path, {"n_letters": 3,
                                  "psi": {"type": "constant", "value": 0.0},
                                  "bogus_knob": 1})
    proc = run_cli("pressure", "--config", cfg, check=False)
    assert proc.returncode == 3
    assert "bogus_knob" in proc.stderr


BAD_POTENTIAL_CONFIGS = {
    "memory1_table_short": {"psi": {"type": "memory1-table", "values": [-1.0, -2.0]},
                            "n_letters": 4},
    "memory2_table_missing_pair": {"psi": {"type": "memory2-table",
                                           "table": {"0,0": -1, "0,1": -1, "1,0": -2}},
                                   "n_letters": 2},
    "memory2_values_too_small": {"psi": {"type": "memory2-table",
                                         "values": [[-1, -1], [-2, -2]]},
                                 "n_letters": 3},
    "constant_without_value": {"psi": {"type": "constant"}, "n_letters": 3},
    "manneville_pomeau_without_alpha": {
        "psi": {"type": "geometric", "system": {"builtin": "manneville_pomeau"}},
        "n_letters": 4},
    "psi_1e308": {"psi": {"type": "constant", "value": 1e308}, "n_letters": 3},
    "psi_nan": {"psi": {"type": "memory1-table", "values": [-1.0, float("nan")]},
                "n_letters": 2},
}


@pytest.mark.parametrize("command", ["pressure", "gibbs"])
@pytest.mark.parametrize("case", sorted(BAD_POTENTIAL_CONFIGS))
def test_bad_potential_config_exits_3(tmp_path, capsys, case, command):
    from thermoform import cli

    cfg = write_config(tmp_path, BAD_POTENTIAL_CONFIGS[case])
    assert cli.main([command, "--config", cfg, "--stable"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


def test_numeric_failure_exits_2(tmp_path):
    cfg = write_config(tmp_path, {
        "temperature": {
            "system": {"builtin": "affine",
                       "branches": [[1 / 3, 0.0], [1 / 3, 2 / 3]]},
            "bracket": [1.0, 2.0],
        },
    })
    proc = run_cli("dimension", "--config", cfg, check=False)
    assert proc.returncode == 2
    assert "numeric failure" in proc.stderr


def test_shallow_depth_budget_exits_2():
    proc = run_cli("beta", "analyze", "--beta", str(math.pi),
                   "--depth", "4", check=False)
    assert proc.returncode == 2


def test_thread_cap_defaults_to_one(monkeypatch):
    from thermoform import cli

    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    cli._cap_threads()
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["pressure", "--threads", "2"])


INCIDENCE_BASE = {
    "pressure": {"psi": {"type": "constant", "value": 0.0}, "n_letters": 2, "n_max": 6},
    "gibbs": {"psi": {"type": "constant", "value": 0.0}, "n_letters": 2},
    "dimension": {"beta": PHI},
}


@pytest.mark.parametrize("command", sorted(INCIDENCE_BASE))
@pytest.mark.parametrize("spec", [{"forbidden_pairs": [[0]]},
                                  {"forbidden_pairs": [[0, 1, 2]]}, "bogus"])
def test_bad_incidence_exits_3(tmp_path, capsys, command, spec):
    from thermoform import cli

    cfg = write_config(tmp_path, {**INCIDENCE_BASE[command], "incidence": spec})
    assert cli.main([command, "--config", cfg, "--stable"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(INCIDENCE_BASE))
def test_forbidden_pairs_match_golden(tmp_path, capsys, command):
    from thermoform import cli

    results = []
    for spec in ("golden", {"forbidden_pairs": [[1, 1]]}):
        cfg = write_config(tmp_path, {**INCIDENCE_BASE[command], "incidence": spec})
        assert cli.main([command, "--config", cfg, "--stable"]) == 0
        results.append(json.loads(capsys.readouterr().out)["results"])
    assert results[0] == results[1]


def test_pressure_passes_state_cap_to_eigendata(tmp_path, capsys, monkeypatch):
    from thermoform import cli, shifts

    caps = []
    eigendata = shifts.rpf_eigendata

    def spy(*args, **kwargs):
        caps.append(kwargs.get("state_cap"))
        return eigendata(*args, **kwargs)

    monkeypatch.setattr(shifts, "rpf_eigendata", spy)
    cfg = write_config(tmp_path, {**INCIDENCE_BASE["pressure"], "state_cap": 300_000})
    assert cli.main(["pressure", "--config", cfg, "--stable"]) == 0
    assert caps == [300_000]


def test_graph_without_transitions_exits_2(tmp_path, capsys):
    from thermoform import cli

    # one admissible 2-word, 01, and nothing may follow it
    cfg = write_config(tmp_path, {
        "psi": {"type": "memory2-table", "values": [[0.0, 0.0], [0.0, 0.0]]},
        "n_letters": 2,
        "incidence": {"forbidden_pairs": [[0, 0], [1, 0], [1, 1]]},
    })
    assert cli.main(["gibbs", "--config", cfg, "--stable"]) == 2
    assert capsys.readouterr().err.startswith("numeric failure: ")


def test_gibbs_over_state_cap_exits_2(tmp_path, capsys):
    from thermoform import cli

    cfg = write_config(tmp_path, {**INCIDENCE_BASE["gibbs"], "max_states": 1})
    assert cli.main(["gibbs", "--config", cfg, "--stable"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ")
    assert "Traceback" not in err


def test_pressure_reports_route_gap(tmp_path, capsys):
    from thermoform import cli

    cfg = write_config(tmp_path, {
        "n_letters": 2,
        "incidence": "golden",
        "psi": {"type": "constant", "value": 0.0},
        "n_max": 12,
    })
    assert cli.main(["pressure", "--config", cfg, "--stable"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    eigen = results["eigen"]
    assert eigen["route_gap"] == abs(results["pressure"] - eigen["log_rho"])
    assert 1e-7 < eigen["route_gap"] < 1e-4  # 5.1e-6 on the golden shift at n_max 12
